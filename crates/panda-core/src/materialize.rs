//! The bound plan: a plan applied to one request's data.
//!
//! Planning ([`crate::selector`]) reads only the statistics, so a cached
//! plan is a function of its cache key.  The data enters here, once per
//! request, on the report path and the evaluation path alike.  Binding
//! takes one database per branch — the degree branches of an adaptive plan
//! (PAPER.md stages 3–5), or the whole input for a static plan — with the
//! tree decomposition that branch runs, assigns every atom to the first bag
//! containing it (Eq. 13), and keys every non-empty bag.
//!
//! A key is the bag's variable set plus, per assigned atom, the relation
//! symbol, the atom's positional variables, and the [storage
//! identity](panda_relation::Relation::storage_id) of the relation instance
//! the branch joins.  Branch databases differ only in the *partitioned*
//! relations — every other relation is the same `Arc`-shared instance — so a
//! bag whose atoms touch no partitioned relation has the same key in every
//! branch that builds it, and equal keys imply value-identical inputs.  The
//! bound plan is therefore one list of **bag jobs** in first-seen order,
//! each with the number of branch scans it serves (the
//! `push_plan_for_materialization` / `num_scans` idea of
//! materialisation-aware executors, applied to PANDA's degree branches).
//!
//! Execution materialises each job once and runs Yannakakis per branch over
//! that branch's job relations; branch outputs come back in branch order, so
//! results are bit-identical at any thread count.  The jobs scanned by two or
//! more branches are what a [`PlanReport`](crate::PlanReport) lists as
//! [`MaterializedSubplan`]s and EXPLAIN renders — read off the very list
//! execution runs, so what is reported is what executes.

// panda-lint: allow-file(P1) -- job, branch and atom indices are positions
// into the plan's own vectors and the query's atom list, minted when the
// plan was bound and never edited afterwards.

use std::collections::BTreeMap;

use panda_query::{Atom, ConjunctiveQuery, TreeDecomposition, VarSet};
use panda_relation::fan_out::ordered_map;
use panda_relation::Database;

use crate::binary::left_deep_join;
use crate::binding::VarRelation;
use crate::config::Engine;
use crate::generic_join::GenericJoin;
use crate::yannakakis::{empty_result, yannakakis_free_connex};

/// A subplan the plan will materialise once and scan several times: the
/// bag's variable set, the relation symbols joined to build it, and the
/// number of branch scans it serves.  Derived from the request's data (the
/// degree branches), deterministically — part of the
/// [`PlanReport`](crate::PlanReport) bit-identity contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaterializedSubplan {
    /// The bag (as a variable set) being materialised.
    pub bag: VarSet,
    /// The relation symbols of the atoms assigned to the bag, sorted.
    pub relations: Vec<String>,
    /// How many branch scans the single materialisation serves (≥ 2).
    pub num_scans: usize,
}

/// One atom's identity inside a [`SubplanKey`]: relation symbol,
/// positional variables, and the storage identity of the branch's
/// relation instance (`None` when the relation is absent from the
/// branch database).
pub(crate) type AtomIdentity = (String, Vec<u32>, Option<(usize, usize, usize)>);

/// The identity of one bag-materialisation job: equal keys imply
/// value-identical inputs and therefore value-identical outputs.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct SubplanKey {
    /// The bag's variable set (its bits).
    pub(crate) bag: u32,
    /// The identities of the atoms assigned to the bag, sorted.
    pub(crate) atoms: Vec<AtomIdentity>,
}

/// Builds the key for materialising `bag` from `atoms` against `db`.
pub(crate) fn subplan_key(bag: VarSet, atoms: &[&Atom], db: &Database) -> SubplanKey {
    let mut encoded: Vec<AtomIdentity> = atoms
        .iter()
        .map(|atom| {
            (
                atom.relation.clone(),
                atom.vars.iter().map(|v| v.0).collect(),
                db.relation(&atom.relation).map(panda_relation::Relation::storage_id),
            )
        })
        .collect();
    encoded.sort();
    SubplanKey { bag: bag.bits(), atoms: encoded }
}

/// One distinct bag materialisation of a [`BoundPlan`].
#[derive(Debug)]
struct BagJob {
    /// The bag, restricted to the variables its atoms cover.
    bag: VarSet,
    /// The query atoms joined to build it.
    atoms: Vec<usize>,
    /// The first branch that scans it: its inputs are read from there.
    branch: usize,
    /// How many branch scans it serves.
    scans: usize,
}

/// One branch of a [`BoundPlan`]: its atoms bound to its database, and the
/// jobs of its non-empty bags in bag order.
#[derive(Debug)]
struct BoundBranch {
    inputs: Vec<VarRelation>,
    jobs: Vec<usize>,
}

/// A plan bound to one request's data — see the module docs.
#[derive(Debug)]
pub(crate) struct BoundPlan {
    branches: Vec<BoundBranch>,
    jobs: Vec<BagJob>,
}

impl BoundPlan {
    /// Binds `query` to each branch database under the decomposition that
    /// branch runs.
    ///
    /// # Panics
    ///
    /// Panics if some atom fits no bag of its branch's decomposition (the
    /// TD would be invalid for the query).
    pub(crate) fn new<'a>(
        query: &ConjunctiveQuery,
        branches: impl IntoIterator<Item = (&'a Database, &'a TreeDecomposition)>,
    ) -> Self {
        let mut jobs: Vec<BagJob> = Vec::new();
        let mut seen: BTreeMap<SubplanKey, usize> = BTreeMap::new();
        let mut bound = Vec::new();
        for (branch, (db, td)) in branches.into_iter().enumerate() {
            let mut assigned: Vec<Vec<usize>> = vec![Vec::new(); td.num_bags()];
            for (i, atom) in query.atoms().iter().enumerate() {
                let vars = atom.var_set();
                let bag = td
                    .bags()
                    .iter()
                    .position(|b| vars.is_subset_of(*b))
                    .expect("a valid TD contains every atom in some bag");
                assigned[bag].push(i);
            }
            let mut branch_jobs = Vec::new();
            for atom_ids in assigned.into_iter().filter(|ids| !ids.is_empty()) {
                let atoms: Vec<&Atom> = atom_ids.iter().map(|&i| &query.atoms()[i]).collect();
                let bag = atoms.iter().fold(VarSet::EMPTY, |acc, a| acc.union(a.var_set()));
                let key = subplan_key(bag, &atoms, db);
                let job = *seen.entry(key).or_insert_with(|| {
                    jobs.push(BagJob { bag, atoms: atom_ids, branch, scans: 0 });
                    jobs.len() - 1
                });
                jobs[job].scans += 1;
                branch_jobs.push(job);
            }
            bound.push(BoundBranch { inputs: VarRelation::bind_all(query, db), jobs: branch_jobs });
        }
        BoundPlan { branches: bound, jobs }
    }

    /// The number of branches.
    pub(crate) fn branch_count(&self) -> usize {
        self.branches.len()
    }

    /// The jobs scanned by two or more branches, in first-seen order.
    pub(crate) fn materializations(&self, query: &ConjunctiveQuery) -> Vec<MaterializedSubplan> {
        self.jobs
            .iter()
            .filter(|job| job.scans >= 2)
            .map(|job| {
                let mut relations: Vec<String> =
                    job.atoms.iter().map(|&i| query.atoms()[i].relation.clone()).collect();
                relations.sort();
                MaterializedSubplan { bag: job.bag, relations, num_scans: job.scans }
            })
            .collect()
    }

    /// Runs the plan and returns one output per branch, in branch order,
    /// each over `free.to_vec()`.  Every job a branch with non-empty inputs
    /// scans is materialised once by a worst-case-optimal join; Yannakakis
    /// then combines each such branch's bags (the binary baseline's greedy
    /// left-deep join when their schemas are cyclic).  A branch with an empty
    /// input answers the empty relation and builds nothing.
    ///
    /// With more than one branch a parallel engine's threads are spread
    /// across the jobs and then across the branches, and each join runs
    /// sequentially; with one branch the engine is spent inside the joins.
    pub(crate) fn execute(&self, free: VarSet, engine: Engine) -> Vec<VarRelation> {
        let (threads, inner) = engine.fan_out(self.branches.len());
        let live = |branch: &BoundBranch| !branch.inputs.iter().any(VarRelation::is_empty);
        let mut needed = vec![false; self.jobs.len()];
        for branch in self.branches.iter().filter(|b| live(b)) {
            for &job in &branch.jobs {
                needed[job] = true;
            }
        }
        let todo: Vec<usize> = (0..self.jobs.len()).filter(|&job| needed[job]).collect();
        let built = ordered_map(threads, &todo, |&job| {
            let job = &self.jobs[job];
            let inputs = &self.branches[job.branch].inputs;
            let inputs: Vec<VarRelation> = job.atoms.iter().map(|&i| inputs[i].clone()).collect();
            GenericJoin::new(job.bag).join_with_engine(&inputs, &job.bag.to_vec(), inner)
        });
        let mut relations: Vec<Option<VarRelation>> = vec![None; self.jobs.len()];
        for (job, rel) in todo.into_iter().zip(built) {
            relations[job] = Some(rel);
        }
        ordered_map(threads, &self.branches, |branch: &BoundBranch| {
            if !live(branch) {
                return empty_result(free);
            }
            let bags: Vec<VarRelation> = branch
                .jobs
                .iter()
                .map(|&job| relations[job].clone().expect("a live branch's jobs are built"))
                .collect();
            yannakakis_free_connex(&bags, free).unwrap_or_else(|| left_deep_join(bags, free))
        })
    }

    /// The answer of the whole plan: the branch outputs of
    /// [`BoundPlan::execute`] concatenated in branch order and
    /// deduplicated.
    pub(crate) fn evaluate(&self, free: VarSet, engine: Engine) -> VarRelation {
        let mut result = empty_result(free);
        for out in self.execute(free, engine) {
            result.rel.extend_from(&out.rel);
        }
        result.rel.dedup();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panda_entropy::StatisticsSet;
    use panda_query::{parse_query, Var};
    use panda_relation::Relation;

    use crate::plans::PandaEvaluator;

    /// The paper's fhtw-hard instance (Section 5.1), `half` leaves a side.
    fn double_star_db(half: u64) -> Database {
        let mut rel = Relation::new(2);
        for i in 0..half {
            rel.push_row(&[i + 2, 1]);
            rel.push_row(&[1, i + 2]);
        }
        let rel = rel.deduped();
        let mut db = Database::new();
        for name in ["R", "S", "T", "U"] {
            db.insert(name, rel.clone());
        }
        db
    }

    #[test]
    fn equal_storage_yields_equal_keys_and_one_materialisation() {
        let q = parse_query("Q(X,Y) :- R(X,Y), S(Y,Z)").unwrap();
        let mut db = Database::new();
        db.insert("R", Relation::from_rows(2, vec![[1, 2], [2, 3]]));
        db.insert("S", Relation::from_rows(2, vec![[2, 5], [3, 5]]));
        let branch = db.clone(); // shares storage
        let bag = VarSet::from_iter([Var(0), Var(1)]);
        let atoms: Vec<&Atom> = q.atoms().iter().filter(|a| a.relation == "R").collect();
        let k1 = subplan_key(bag, &atoms, &db);
        let k2 = subplan_key(bag, &atoms, &branch);
        assert_eq!(k1, k2);
    }

    #[test]
    fn different_storage_yields_different_keys() {
        let q = parse_query("Q(X,Y) :- R(X,Y)").unwrap();
        let mut a = Database::new();
        a.insert("R", Relation::from_rows(2, vec![[1, 2]]));
        let mut b = Database::new();
        // Same contents, different storage: must not be conflated (the
        // subplan key is an *identity*, not a value, so it can only ever
        // under-share, never wrongly share).
        b.insert("R", Relation::from_rows(2, vec![[1, 2]]));
        let bag = VarSet::from_iter([Var(0), Var(1)]);
        let atoms: Vec<&Atom> = q.atoms().iter().collect();
        assert_ne!(subplan_key(bag, &atoms, &a), subplan_key(bag, &atoms, &b));
        // A missing relation is keyed as absent, not skipped.
        let empty = Database::new();
        assert_ne!(subplan_key(bag, &atoms, &a), subplan_key(bag, &atoms, &empty));
    }

    #[test]
    fn the_bound_plan_builds_each_distinct_bag_once_and_reports_the_shared_ones() {
        let q = parse_query("Q(X,Y) :- R(X,Y), S(Y,Z), T(Z,W), U(W,X)").unwrap();
        let db = double_star_db(16);
        let stats = StatisticsSet::identical_cardinalities(&q, 1 << 12);
        let (fhtw, subw) = (panda_entropy::fhtw(&q, &stats), panda_entropy::subw(&q, &stats));
        let evaluator = PandaEvaluator::from_reports(&q, &subw.unwrap(), &fhtw.unwrap());
        let branches = evaluator.build_branches(&q, &db);
        let tds: Vec<TreeDecomposition> =
            branches.iter().map(|b| evaluator.choose_td_for(&q, b)).collect();
        let plan = BoundPlan::new(&q, branches.iter().zip(&tds));
        assert_eq!(plan.branch_count(), branches.len());

        // Job keys are distinct.
        let keys: Vec<SubplanKey> = plan
            .jobs
            .iter()
            .map(|job| {
                let atoms: Vec<&Atom> = job.atoms.iter().map(|&i| &q.atoms()[i]).collect();
                subplan_key(job.bag, &atoms, &branches[job.branch])
            })
            .collect();
        let distinct: std::collections::BTreeSet<&SubplanKey> = keys.iter().collect();
        assert_eq!(distinct.len(), keys.len(), "one job per key");

        // The scans add up to the branches' non-empty bags: those that are
        // the first to contain some atom.
        let non_empty_bags: usize = tds
            .iter()
            .map(|td| {
                let first_bags: std::collections::BTreeSet<Option<usize>> = q
                    .atoms()
                    .iter()
                    .map(|a| td.bags().iter().position(|b| a.var_set().is_subset_of(*b)))
                    .collect();
                first_bags.len()
            })
            .sum();
        assert_eq!(plan.branches.iter().map(|b| b.jobs.len()).sum::<usize>(), non_empty_bags);
        assert_eq!(plan.jobs.iter().map(|job| job.scans).sum::<usize>(), non_empty_bags);
        assert!(plan.jobs.len() < non_empty_bags, "the double star shares bags across branches");

        // The reported materialisations are exactly the jobs with two or
        // more scans, in first-seen order.
        let shared: Vec<(VarSet, usize)> =
            plan.jobs.iter().filter(|job| job.scans >= 2).map(|job| (job.bag, job.scans)).collect();
        let reported: Vec<(VarSet, usize)> =
            plan.materializations(&q).iter().map(|m| (m.bag, m.num_scans)).collect();
        assert!(!reported.is_empty());
        assert_eq!(reported, shared);
        let first_seen: Vec<usize> = plan.jobs.iter().map(|job| job.branch).collect();
        assert!(first_seen.windows(2).all(|w| w[0] <= w[1]), "jobs are in first-seen order");

        // Executing it answers what the generic join answers.
        let order: Vec<Var> = q.free_vars().to_vec();
        let expected = GenericJoin::evaluate(&q, &db).canonical_rows_ordered(&order);
        let mut got: Vec<Vec<u64>> = plan
            .execute(q.free_vars(), Engine::Sequential)
            .iter()
            .flat_map(|out| out.canonical_rows_ordered(&order))
            .collect();
        got.sort_unstable();
        got.dedup();
        assert_eq!(got, expected);
    }
}
