//! The adapter: every call the traced phase makes into the libraries.
//!
//! Layers are crate names.  Nothing inside the crates is instrumented —
//! each span here wraps one *public* call, so a library refactor that
//! keeps the public surface keeps the trace, and one that changes it
//! breaks exactly this file.
//!
//! [`stage`] re-runs one `QUERY` stage by stage, mirroring what
//! `Panda::try_evaluate_with_events` does under `auto`: the selector's
//! rule order (`panda-core/src/selector.rs`) decides which stages exist,
//! and the static-TD executor (`StaticTdPlan`, whose atom-to-bag
//! assignment and cross-branch subplan sharing are private) is replayed
//! from its public parts.

use std::collections::{BTreeMap, HashMap};

use panda_core::yannakakis::{empty_result, yannakakis_query};
use panda_core::{
    plan_cache_clear, yannakakis_free_connex, Engine, EvaluationStrategy, GenericJoin, Panda,
    PandaEvaluator, ReasonCode, VarRelation,
};
use panda_entropy::{fhtw_with_tds_budgeted, subw_with_tds_budgeted, PivotBudget, StatisticsSet};
use panda_proof::{ProofSequence, TermIdentity};
use panda_query::{parse_query, ConjunctiveQuery, TreeDecomposition, Var, VarSet};
use panda_relation::{Database, Relation};
use panda_server::Session;

use crate::trace::Tracer;

/// Exact work counts of one round, by metric name.
#[derive(Debug, Default, Clone)]
pub struct Counts(BTreeMap<&'static str, f64>);

impl Counts {
    fn add(&mut self, name: &'static str, n: usize) {
        *self.0.entry(name).or_default() += n as f64;
    }

    fn max(&mut self, name: &'static str, n: usize) {
        let slot = self.0.entry(name).or_default();
        *slot = slot.max(n as f64);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// A fresh in-process session database.
pub fn database() -> Database {
    Database::new()
}

/// Drops every cached plan.  The plan cache is process-wide, so a replay
/// that should start as cold as a new server starts here.
pub fn forget_plans() {
    plan_cache_clear();
}

/// A fresh in-process `Session`, the state machine behind every transport.
pub fn session() -> Session {
    Session::new()
}

/// What `LOAD … END` does behind the protocol: build, deduplicate, insert.
/// Returns the rows kept.
pub fn load(db: &mut Database, rel: &str, rows: &[[u64; 2]]) -> usize {
    let relation = Relation::from_rows(2, rows).deduped();
    let n = relation.len();
    db.insert(rel, relation);
    n
}

/// [`load`] as a `relation.load` span, counted.
pub fn load_timed(
    tr: &mut Tracer,
    db: &mut Database,
    rel: &str,
    rows: &[[u64; 2]],
    counts: &mut Counts,
) {
    let n = tr.time("relation.load", |_| load(db, rel, rows));
    counts.add("relation.rows_loaded", n);
}

/// Feeds one request (a line, or a `LOAD` block line by line, as the
/// server's worker does) to the session; returns the reply lines.
pub fn session_request(
    tr: &mut Tracer,
    session: &mut Session,
    span: &'static str,
    request: &[u8],
) -> Vec<String> {
    let text = std::str::from_utf8(request).expect("the benchmark writes ASCII requests");
    tr.time(span, |_| {
        let mut lines = Vec::new();
        for line in text.lines() {
            lines.extend(session.handle_line(line).lines);
        }
        lines
    })
}

/// One `QUERY` as the session runs it, minus parsing and rendering: the
/// facade call, at whatever cache temperature `db` and the process are in.
/// Returns the answer's row count and whether the plan came from the cache.
pub fn evaluate(
    tr: &mut Tracer,
    text: &str,
    db: &Database,
    counts: &mut Counts,
) -> Result<(u64, bool), String> {
    let query = parse_query(text).map_err(|e| e.to_string())?;
    let panda = Panda::new(query);
    let (result, events) = tr
        .time("panda-core.evaluate", |_| {
            panda.try_evaluate_with_events(db, EvaluationStrategy::Auto)
        })
        .map_err(|e| e.to_string())?;
    counts.add("panda-core.rows_out", result.len());
    Ok((result.len() as u64, events.contains(&ReasonCode::PlanCacheHit)))
}

/// One `EXPLAIN` as the session runs it, minus parsing and framing.
pub fn explain(tr: &mut Tracer, text: &str, db: &Database) -> Result<(), String> {
    let query = parse_query(text).map_err(|e| e.to_string())?;
    let panda = Panda::new(query);
    tr.time("panda-core.explain", |_| panda.explain(db).map(|e| e.to_string()))
        .map_err(|e| e.to_string())?;
    Ok(())
}

/// The identity of one bag-materialisation job, as `panda-core`'s private
/// subplan registry keys it: equal keys mean the identical join.
type BagKey = (u32, Vec<(String, Vec<u32>, Option<(usize, usize, usize)>)>);

/// Replays `StaticTdPlan::evaluate_with_engine_shared` for one (branch)
/// database: bind, assign each atom to the first bag containing it,
/// materialise each bag by generic join (once per [`BagKey`] across
/// branches), combine with Yannakakis.
fn run_td(
    tr: &mut Tracer,
    query: &ConjunctiveQuery,
    db: &Database,
    td: &TreeDecomposition,
    engine: Engine,
    shared: &mut HashMap<BagKey, VarRelation>,
    counts: &mut Counts,
) -> Result<VarRelation, String> {
    let bound = VarRelation::bind_all(query, db);
    if bound.iter().any(VarRelation::is_empty) {
        return Ok(empty_result(query.free_vars()));
    }
    let mut assigned: Vec<Vec<usize>> = vec![Vec::new(); td.num_bags()];
    for (i, atom) in query.atoms().iter().enumerate() {
        let bag = td
            .bags()
            .iter()
            .position(|b| atom.var_set().is_subset_of(*b))
            .ok_or("a tree decomposition leaves an atom uncovered")?;
        assigned[bag].push(i);
    }
    let mut bag_relations = Vec::new();
    for (bag_idx, atom_ids) in assigned.iter().enumerate().filter(|(_, ids)| !ids.is_empty()) {
        let inputs: Vec<VarRelation> = atom_ids.iter().map(|&i| bound[i].clone()).collect();
        let covered = inputs.iter().fold(VarSet::EMPTY, |acc, r| acc.union(r.var_set()));
        let bag_vars = td.bags()[bag_idx].intersect(covered);
        let mut atoms: Vec<_> = atom_ids
            .iter()
            .map(|&i| {
                let atom = &query.atoms()[i];
                let storage = db.relation(&atom.relation).map(Relation::storage_id);
                (
                    atom.relation.clone(),
                    atom.vars.iter().map(|v| v.0).collect::<Vec<u32>>(),
                    storage,
                )
            })
            .collect();
        atoms.sort();
        let key = (bag_vars.bits(), atoms);
        let bag_rel = match shared.get(&key) {
            Some(rel) => rel.clone(),
            None => {
                let rel = tr.time("panda-core.bag_materialize", |_| {
                    GenericJoin::new(covered).join_with_engine(&inputs, &bag_vars.to_vec(), engine)
                });
                counts.add("panda-core.bag_rows", rel.len());
                counts.max("panda-core.bag_rows_max", rel.len());
                shared.insert(key, rel.clone());
                rel
            }
        };
        bag_relations.push(bag_rel);
    }
    tr.time("panda-core.yannakakis", |_| yannakakis_free_connex(&bag_relations, query.free_vars()))
        .ok_or_else(|| {
            "bag schemas are cyclic: the engine's private sequential-join fallback is not staged"
                .into()
        })
}

/// Re-runs one `QUERY` over `db` stage by stage, one span per stage and
/// exact counts into `counts`.  Ends by planning the query through the
/// facade cold (cache cleared) and then warm.
pub fn stage(
    tr: &mut Tracer,
    text: &str,
    db: &Database,
    counts: &mut Counts,
) -> Result<(), String> {
    let query = tr.time("query.parse", |_| parse_query(text)).map_err(|e| e.to_string())?;
    let stats = tr.time("relation.measure", |_| StatisticsSet::measure(&query, db));
    counts.add("relation.stats_measured", stats.len());
    let panda = Panda::new(query.clone());
    let engine = panda.engine();
    let order: Vec<Var> = query.free_vars().to_vec();

    if panda.is_free_connex_acyclic() {
        // Selector rule 2: no LP, straight to Yannakakis over the atoms.
        counts.add("panda-core.branches", 1);
        tr.time("panda-core.yannakakis", |_| yannakakis_query(&query, db))
            .ok_or("free-connex acyclic query rejected by Yannakakis")?;
    } else {
        let tds = tr.time("query.td_enumerate", |_| TreeDecomposition::enumerate(&query));
        counts.add("query.tds", tds.len());
        // u64::MAX never binds; the budget is here to count pivots.
        let mut budget = PivotBudget::new(u64::MAX);
        let fhtw = tr
            .time("entropy.fhtw", |_| fhtw_with_tds_budgeted(&query, &tds, &stats, &mut budget))
            .map_err(|e| e.to_string())?;
        counts.add("entropy.fhtw_lps", tds.iter().map(TreeDecomposition::num_bags).sum());
        let subw = tr
            .time("entropy.subw", |_| subw_with_tds_budgeted(&query, &tds, &stats, &mut budget))
            .map_err(|e| e.to_string())?;
        counts.add("entropy.subw_lps", subw.per_selector.len());
        counts.add("lp.pivots", budget.used() as usize);
        tr.time("entropy.certify", |_| {
            subw.per_selector.iter().try_for_each(|sel| sel.report.flow.verify_identity())
        })?;
        // The engine derives its partitions inside `from_reports`; the
        // explicit chain beside it only counts the proof steps.
        let evaluator =
            tr.time("proof.derive", |_| PandaEvaluator::from_reports(&query, &subw, &fhtw));
        for sel in &subw.per_selector {
            let sequence = sel
                .report
                .flow
                .to_integral()
                .and_then(|i| ProofSequence::derive(&TermIdentity::from_flow(&i)));
            counts.add("proof.steps", sequence.map_or(0, |s| s.len()));
        }

        let mut shared = HashMap::new();
        if subw.value < fhtw.value {
            // Selector rule 3: the adaptive plan, one static plan per degree branch.
            let branches =
                tr.time("panda-core.branch_build", |_| evaluator.build_branches(&query, db));
            counts.add("panda-core.branches", branches.len());
            let mut result = empty_result(query.free_vars());
            for branch in &branches {
                let td =
                    tr.time("panda-core.choose_td", |_| evaluator.choose_td_for(&query, branch));
                let out = run_td(tr, &query, branch, &td, engine, &mut shared, counts)?;
                tr.time("panda-core.union", |_| {
                    result.rel.extend_from(&out.project_onto(&order).rel)
                });
            }
            tr.time("panda-core.union", |_| result.rel.dedup());
        } else {
            // Selector rule 4: the single best decomposition.
            counts.add("panda-core.branches", 1);
            run_td(tr, &query, db, fhtw.best_td(), engine, &mut shared, counts)?;
        }
    }

    plan_cache_clear();
    tr.time("panda-core.plan", |_| panda.plan_report(db)).map_err(|e| e.to_string())?;
    tr.time("panda-core.plan_warm", |_| panda.plan_report(db)).map_err(|e| e.to_string())?;
    Ok(())
}
