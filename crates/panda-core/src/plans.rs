//! Static (single-TD) and adaptive (multi-TD) query plans.
//!
//! * [`StaticTdPlan`] is the classical fractional-hypertree-width plan of
//!   Section 4: materialise one relation per bag of a single tree
//!   decomposition, then run Yannakakis over the bags.
//! * [`PandaEvaluator`] is the adaptive plan of Section 5/8: the
//!   decomposition steps of the Shannon-flow proof sequences determine
//!   which relation degrees to partition on; the data is split into
//!   power-of-two degree buckets; every bucket combination (branch) is
//!   re-costed from its own statistics and evaluated with the cheapest tree
//!   decomposition for that branch.  On degree-uniform branches the chosen
//!   decomposition's cost matches the submodular-width bound, which is how
//!   the `O(N^{subw} log N + OUT)` behaviour arises (one `log N` factor per
//!   partitioned degree).
//!
//! Both plans come from statistics alone — the `fhtw` report's best
//! decomposition, or [`PandaEvaluator::from_reports`] — and a request of any
//! strategy gets them from [`crate::selector`].  Each reaches the data through
//! one step, [`crate::materialize`]'s bound plan: an adaptive plan is bound
//! once per request (branches built, each branch's decomposition picked,
//! bags keyed into jobs) and a static plan is its one-branch case, so the
//! two share their execution code with each other and with the DDR
//! evaluator ([`crate::ddr_eval`]), whose branches run one bag each.
//!
//! The costing helpers below are crate-private and estimate from the data:
//! they pick a branch's decomposition, a DDR branch's head and the
//! construction of its bag (`cheaper_construction`), and the memory
//! budget's peak-bag estimate.

// panda-lint: allow-file(P1) -- bag and atom positions come from the
// same tree decomposition the plan was built from; a miss would mean
// the TD enumeration itself produced an invalid cover.

use std::collections::BTreeSet;

use panda_entropy::{FhtwReport, ShannonFlow, SubwReport};
use panda_proof::{ProofSequence, ProofStep, TermIdentity};
use panda_query::{Atom, ConjunctiveQuery, TreeDecomposition, Var, VarSet};
use panda_relation::{stats as rstats, Database, Relation};

use crate::binding::VarRelation;
use crate::config::Engine;
use crate::materialize::{BoundPlan, Construction};

/// A static query plan built from a single tree decomposition (Section 4.1).
#[derive(Debug, Clone)]
pub struct StaticTdPlan {
    /// The tree decomposition the plan is based on.
    pub td: TreeDecomposition,
}

impl StaticTdPlan {
    /// Creates the plan for a given decomposition.
    #[must_use]
    pub fn new(td: TreeDecomposition) -> Self {
        StaticTdPlan { td }
    }

    /// Evaluates the query under `engine`: every bag is materialised by a
    /// worst-case optimal join of the atoms assigned to it (each atom is
    /// assigned to one bag containing it, Eq. 13), and the bag relations are
    /// combined with Yannakakis (Eq. 12).  This is the one-branch case of the
    /// adaptive plan's execution ([`crate::materialize`]): a parallel
    /// engine's threads go inside each bag's join
    /// ([`GenericJoin::join_with_engine`](crate::GenericJoin::join_with_engine)),
    /// and the Yannakakis combination stays sequential (it is linear in its
    /// inputs).
    #[must_use]
    pub fn evaluate(&self, query: &ConjunctiveQuery, db: &Database, engine: Engine) -> VarRelation {
        BoundPlan::for_query(query, [(db, &self.td)]).evaluate(query.free_vars(), engine)
    }
}

/// A degree-partitioning instruction extracted from a proof sequence's
/// decomposition step: partition `relation` by the degree of `value_vars`
/// given `group_vars`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct PartitionSpec {
    /// The guard relation to partition.
    pub relation: String,
    /// The conditioning variables `X` of the decomposition `h(XY) → h(X) + h(Y|X)`.
    pub group_vars: Vec<Var>,
    /// The subject variables `Y`.
    pub value_vars: Vec<Var>,
}

/// The degree partitions a Shannon-flow certificate asks for: one per
/// decomposition step of its proof sequence whose joint set is guarded by
/// an input relation (the relation to partition).  Empty when the flow has
/// no integral form or no proof sequence.
pub(crate) fn partitions_of(flow: &ShannonFlow) -> BTreeSet<PartitionSpec> {
    let mut partitions = BTreeSet::new();
    let Ok(integral) = flow.to_integral() else { return partitions };
    let Ok(sequence) = ProofSequence::derive(&TermIdentity::from_flow(&integral)) else {
        return partitions;
    };
    for step in &sequence.steps {
        let ProofStep::Decomposition { joint, cond } = step else { continue };
        let guard = integral.sources.iter().find_map(|(term, _, stat)| {
            if term.is_unconditional() && term.subj == *joint {
                stat.guard.clone()
            } else {
                None
            }
        });
        if let Some(relation) = guard {
            partitions.insert(PartitionSpec {
                relation,
                group_vars: cond.to_vec(),
                value_vars: joint.difference(*cond).to_vec(),
            });
        }
    }
    partitions
}

/// The default cap on the number of degree branches of an adaptive plan or
/// a DDR, whose binding code it bounds.
pub(crate) const MAX_BRANCHES: usize = 4096;

/// Gives every atom over a repeated relation symbol its own entry, so that
/// partitioning one atom's input leaves the others whole: atom `i` over a
/// repeated `R` reads `R#i` (`#` is in no loadable name), an O(1) clone of
/// `R` in the returned database, and each spec over `R` names the entry of
/// the first atom over `R` holding the spec's variables.  Without a
/// repeated symbol the atoms, specs and relations come back as they are.
pub(crate) fn separate_self_joins(
    atoms: &[Atom],
    specs: &[PartitionSpec],
    db: &Database,
) -> (Vec<Atom>, Vec<PartitionSpec>, Database) {
    let mut separated = db.clone();
    let mut bound = atoms.to_vec();
    for (i, atom) in bound.iter_mut().enumerate() {
        if atoms.iter().filter(|other| other.relation == atom.relation).count() < 2 {
            continue;
        }
        let entry = format!("{}#{i}", atom.relation);
        if let Some(rel) = db.relation(&atom.relation) {
            separated.insert(entry.clone(), rel.clone());
        }
        atom.relation = entry;
    }
    let specs = specs.iter().map(|spec| {
        let holds = |atom: &Atom| {
            atom.relation == spec.relation
                && spec.group_vars.iter().chain(&spec.value_vars).all(|v| atom.vars.contains(v))
        };
        let relation = atoms.iter().position(holds).map(|i| bound[i].relation.clone());
        PartitionSpec {
            relation: relation.unwrap_or_else(|| spec.relation.clone()),
            ..spec.clone()
        }
    });
    let specs = specs.collect();
    (bound, specs, separated)
}

/// Splits `db` into branch databases: the cross product of the per-spec
/// power-of-two degree buckets, capped at `max_branches`.  A spec's
/// variables map to columns through the first of `atoms` over its
/// relation; specs that do not map are skipped.  Every relation symbol
/// of `atoms` must be distinct ([`separate_self_joins`]): a partitioned
/// relation replaces its symbol's entry for every atom over it.  The
/// buckets come from the relation's cache, so two branches that bucket the
/// same relation on the same split hold the same bucket relations, and a
/// warm request rebuilds none of them.
pub(crate) fn partition_branches(
    atoms: &[Atom],
    specs: &[PartitionSpec],
    max_branches: usize,
    db: &Database,
) -> Vec<Database> {
    let mut branches = vec![db.clone()];
    for spec in specs {
        let Some(atom) = atoms.iter().find(|a| a.relation == spec.relation) else {
            continue;
        };
        let group_cols: Vec<usize> =
            spec.group_vars.iter().filter_map(|v| atom.position_of(*v)).collect();
        let value_cols: Vec<usize> =
            spec.value_vars.iter().filter_map(|v| atom.position_of(*v)).collect();
        if group_cols.len() != spec.group_vars.len() || value_cols.len() != spec.value_vars.len() {
            continue;
        }
        let mut next = Vec::new();
        for branch in &branches {
            let Some(rel) = branch.relation(&spec.relation) else {
                next.push(branch.clone());
                continue;
            };
            let buckets = rstats::bucket_by_degree(rel, &group_cols, &value_cols);
            if buckets.len() <= 1 || branches.len() * buckets.len() > max_branches {
                next.push(branch.clone());
                continue;
            }
            for bucket in buckets.iter() {
                let mut b = branch.clone();
                b.insert(spec.relation.clone(), bucket.relation.clone());
                next.push(b);
            }
        }
        branches = next;
    }
    branches
}

/// The adaptive, multi-tree-decomposition evaluator (Sections 5 and 8).
#[derive(Debug, Clone)]
pub struct PandaEvaluator {
    /// The tree decompositions available to the plan (`TD(Q)`).
    pub tds: Vec<TreeDecomposition>,
    /// The degree partitions derived from the proof sequences.
    pub partitions: Vec<PartitionSpec>,
    /// Upper bound on the number of branches evaluated (cross product of
    /// degree buckets); prevents pathological blow-up when many partitions
    /// are requested.
    pub max_branches: usize,
}

impl PandaEvaluator {
    /// Plans the adaptive evaluation of `query` from its width reports
    /// (`panda_entropy::fhtw` / `subw`, or the selector's budgeted chains
    /// over the same `TD(Q)`): the dual Shannon flow of every bag selector
    /// becomes a proof sequence, and each decomposition step that applies
    /// to an input guard becomes one [`PartitionSpec`].  Deterministic: the
    /// output depends only on the reports and the query.
    ///
    /// When `subw < fhtw`, every binary atom is also partitioned on both of
    /// its conditional degrees.  This is the branch-local analogue of
    /// Marx's *uniformisation* step: PANDA proper partitions intermediate
    /// relations recursively as the proof sequence unfolds; our
    /// branch-then-recost executor instead makes every branch
    /// degree-uniform up to a factor of two, after which the per-branch
    /// cheapest tree decomposition is within the submodular-width cost.
    #[must_use]
    pub fn from_reports(
        query: &ConjunctiveQuery,
        report: &SubwReport,
        fhtw_report: &FhtwReport,
    ) -> Self {
        let mut partitions: BTreeSet<PartitionSpec> =
            report.per_selector.iter().flat_map(|sel| partitions_of(&sel.report.flow)).collect();
        // Uniformisation: partition every binary atom on both directions.
        // Only meaningful when the query is genuinely adaptive (subw < fhtw);
        // otherwise a single decomposition already matches the width.
        if report.value < fhtw_report.value {
            for atom in query.atoms() {
                if atom.arity() != 2 || atom.vars[0] == atom.vars[1] {
                    continue;
                }
                for (group, value) in [(atom.vars[0], atom.vars[1]), (atom.vars[1], atom.vars[0])] {
                    partitions.insert(PartitionSpec {
                        relation: atom.relation.clone(),
                        group_vars: vec![group],
                        value_vars: vec![value],
                    });
                }
            }
        }
        PandaEvaluator {
            tds: report.tds.clone(),
            partitions: partitions.into_iter().collect(),
            max_branches: MAX_BRANCHES,
        }
    }

    /// Evaluates the query adaptively under `engine`: the partitioned
    /// relations are split into power-of-two degree buckets, every bucket
    /// combination forms a branch, each branch is costed from its own
    /// measured statistics, and the cheapest tree decomposition evaluates
    /// it.  The union of the branch outputs is the answer.  The degree
    /// branches (the heavy/light case splits of Section 8.2) are
    /// independent, so a parallel engine spreads its threads over the
    /// branches' bag jobs and then over the branches, and the branch
    /// outputs are merged **in branch order** before the final
    /// deduplication — bit-identical to sequential evaluation at any thread
    /// count.
    #[must_use]
    pub fn evaluate(&self, query: &ConjunctiveQuery, db: &Database, engine: Engine) -> VarRelation {
        self.bind(query, db).evaluate(query.free_vars(), engine)
    }

    /// Binds the plan to `db`: builds the degree branches, picks each
    /// branch's decomposition and keys its bags — the one place the
    /// adaptive plan reads the data (see [`crate::materialize`]).
    pub(crate) fn bind(&self, query: &ConjunctiveQuery, db: &Database) -> BoundPlan {
        let (query, branches) = self.separated_branches(query, db);
        let tds: Vec<TreeDecomposition> =
            branches.iter().map(|branch| self.choose_td_for(&query, branch)).collect();
        BoundPlan::for_query(&query, branches.iter().zip(&tds))
    }

    /// Splits the database into branch databases according to the partition
    /// specs (cross product of per-relation degree buckets, capped at
    /// [`PandaEvaluator::max_branches`]).  When `query` repeats a relation
    /// symbol, each atom over it reads its own entry (`R#i` for atom `i`)
    /// and only those entries are partitioned; the symbol's own entry
    /// stays whole in every branch.
    #[must_use]
    pub fn build_branches(&self, query: &ConjunctiveQuery, db: &Database) -> Vec<Database> {
        self.separated_branches(query, db).1
    }

    /// [`PandaEvaluator::build_branches`], with `query` over the entries
    /// its atoms read there.
    fn separated_branches(
        &self,
        query: &ConjunctiveQuery,
        db: &Database,
    ) -> (ConjunctiveQuery, Vec<Database>) {
        let (atoms, specs, db) = separate_self_joins(query.atoms(), &self.partitions, db);
        let branches = partition_branches(&atoms, &specs, self.max_branches, &db);
        let names = query.var_names().to_vec();
        (ConjunctiveQuery::build(query.name(), names, query.free_vars(), atoms), branches)
    }

    /// Chooses the cheapest tree decomposition for one branch.  The cost of
    /// a TD is its largest bag-materialisation cost *as the static plan
    /// will actually execute it* — the (exact, for two-atom bags) size of
    /// the join of the atoms assigned to the bag — because an estimate that
    /// assumes a cheaper construction the executor does not use would pick
    /// plans it cannot deliver.
    #[must_use]
    pub fn choose_td_for(&self, query: &ConjunctiveQuery, db: &Database) -> TreeDecomposition {
        let mut best: Option<(f64, &TreeDecomposition)> = None;
        for td in &self.tds {
            let mut cost: f64 = 0.0;
            for &bag in td.bags() {
                let contained: Vec<&Atom> =
                    query.atoms().iter().filter(|a| a.var_set().is_subset_of(bag)).collect();
                let bag_cost = if contained.is_empty() {
                    estimate_bag_size(query.atoms(), db, bag)
                } else {
                    chain_join_estimate(&contained, db)
                };
                cost = cost.max(bag_cost);
            }
            match best {
                Some((c, _)) if c <= cost => {}
                _ => best = Some((cost, td)),
            }
        }
        best.map(|(_, td)| td.clone())
            .unwrap_or_else(|| TreeDecomposition::new(vec![query.all_vars()]))
    }
}

/// Estimates the number of tuples needed to cover a bag, as the minimum of
/// (i) a degree-aware chain bound on the join of the atoms contained in the
/// bag (the "join construction") and (ii) a greedy cover of the bag by
/// per-atom projections (the "product construction") — the two candidate
/// constructions used by the DDR's binding and the branch cost model of the
/// adaptive plan.
pub(crate) fn estimate_bag_size(atoms: &[Atom], db: &Database, bag: VarSet) -> f64 {
    cheaper_construction(atoms, db, bag).0
}

/// A greedy projection cover: per step, the atom index, the covered overlap
/// and the distinct count of that projection.
pub(crate) type ProjectionCover = Vec<(usize, VarSet, usize)>;

/// The cheaper of the two constructions of [`estimate_bag_size`] with its
/// estimate, costed once for both the estimate and the DDR branch that
/// builds it: the join of the atoms contained in `bag`, costed by the chain
/// estimate (infinite unless they cover the bag), or the greedy projection
/// cover, costed by the product of its distinct counts (infinite when no
/// cover exists).  A tie goes to the join.
pub(crate) fn cheaper_construction(
    atoms: &[Atom],
    db: &Database,
    bag: VarSet,
) -> (f64, Construction) {
    let contained: Vec<usize> =
        (0..atoms.len()).filter(|&i| atoms[i].var_set().is_subset_of(bag)).collect();
    let covered = contained.iter().fold(VarSet::EMPTY, |acc, &i| acc.union(atoms[i].var_set()));
    let join_cost = if covered == bag {
        chain_join_estimate(&contained.iter().map(|&i| &atoms[i]).collect::<Vec<_>>(), db)
    } else {
        f64::INFINITY
    };
    if let Some(cover) = greedy_projection_cover(atoms, db, bag) {
        let cover_cost: f64 = cover.iter().map(|(_, _, d)| *d as f64).product();
        if cover_cost < join_cost {
            let steps = cover.into_iter().map(|(i, overlap, _)| (i, overlap)).collect();
            return (cover_cost, Construction::Cover(steps));
        }
    }
    (join_cost, Construction::Join(contained, covered))
}

/// A degree-aware upper bound on the size of the natural join of `atoms`:
/// start from the smallest relation and repeatedly extend by the relation
/// whose *maximum degree* of its new variables given the shared variables
/// is smallest (this is what makes functional dependencies and light degree
/// buckets pay off, e.g. `|S ⋈ R_light| ≤ |S| · deg_R(X|Y)`).
pub(crate) fn chain_join_estimate(atoms: &[&Atom], db: &Database) -> f64 {
    if atoms.is_empty() {
        return 1.0;
    }
    if atoms.len() == 2 {
        // Two-atom bags (the common case for the paper's queries) admit an
        // *exact* join-size computation in linear time, which is what makes
        // the per-branch tree-decomposition choice reliable on skewed data.
        return exact_pairwise_join_size(atoms[0], atoms[1], db);
    }
    let size_of = |atom: &Atom| -> f64 {
        db.relation(&atom.relation).map_or(0, Relation::distinct_count).max(1) as f64
    };
    let mut remaining: Vec<&Atom> = atoms.to_vec();
    remaining.sort_by(|a, b| size_of(a).total_cmp(&size_of(b)));
    let first = remaining.remove(0);
    let mut bound = size_of(first);
    let mut covered = first.var_set();
    while !remaining.is_empty() {
        // Among atoms sharing variables with what is already covered, pick
        // the one with the smallest extension degree.
        let mut best: Option<(usize, f64)> = None;
        for (idx, atom) in remaining.iter().enumerate() {
            let shared = atom.var_set().intersect(covered);
            if shared.is_empty() {
                continue;
            }
            let new_vars = atom.var_set().difference(covered);
            let degree = if new_vars.is_empty() {
                1.0
            } else {
                match db.relation(&atom.relation) {
                    Some(rel) => {
                        let shared_cols: Vec<usize> = atom
                            .vars
                            .iter()
                            .enumerate()
                            .filter(|(_, v)| shared.contains(**v))
                            .map(|(i, _)| i)
                            .collect();
                        let new_cols: Vec<usize> = atom
                            .vars
                            .iter()
                            .enumerate()
                            .filter(|(_, v)| new_vars.contains(**v))
                            .map(|(i, _)| i)
                            .collect();
                        rstats::max_degree(rel, &shared_cols, &new_cols).max(1) as f64
                    }
                    None => 1.0,
                }
            };
            match best {
                Some((_, d)) if d <= degree => {}
                _ => best = Some((idx, degree)),
            }
        }
        match best {
            Some((idx, degree)) => {
                let atom = remaining.remove(idx);
                bound *= degree;
                covered = covered.union(atom.var_set());
            }
            None => {
                // Disconnected component: multiply by the smallest remaining
                // relation and continue from there.
                remaining.sort_by(|a, b| size_of(a).total_cmp(&size_of(b)));
                let atom = remaining.remove(0);
                bound *= size_of(atom);
                covered = covered.union(atom.var_set());
            }
        }
    }
    bound
}

/// The exact size of the natural join of two atoms, `Σ_k |A_k| · |B_k|`
/// over the shared-column values `k`: walk the groups of the second
/// relation's cached adjacency `(shared columns | rest)`, look each key up
/// in the first relation's, and add the product of the two groups'
/// degrees, in `O(|π_k B| log |π_k A|)`.  The sum is exact in `u128`.  A
/// degree counts *distinct* rows, which is the stored count for every
/// relation that reaches the planner: `LOAD` deduplicates what it stores,
/// and so does every generator.  The per-branch TD choice calls this for
/// every bag of every candidate decomposition, so serving the groups from
/// the relations' shared caches is what keeps adaptive planning cheap
/// across branches.
fn exact_pairwise_join_size(a: &Atom, b: &Atom, db: &Database) -> f64 {
    let (Some(ra), Some(rb)) = (db.relation(&a.relation), db.relation(&b.relation)) else {
        return 0.0;
    };
    let shared: Vec<Var> = a.vars.iter().copied().filter(|v| b.vars.contains(v)).collect();
    // `position_of` returns first positions of distinct variables, so the
    // canonicalised column pairs have distinct columns on both sides, and
    // `a`'s are aligned with its adjacency's sorted key columns.
    let mut pairs: Vec<(usize, usize)> = shared
        .iter()
        .map(|v| (a.position_of(*v).expect("shared"), b.position_of(*v).expect("shared")))
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    let cols_a: Vec<usize> = pairs.iter().map(|p| p.0).collect();
    let cols_b: Vec<usize> = pairs.iter().map(|p| p.1).collect();
    let adj_a = ra.adjacency(&cols_a, &(0..ra.arity()).collect::<Vec<_>>());
    let adj_b = rb.adjacency(&cols_b, &(0..rb.arity()).collect::<Vec<_>>());
    // `b`'s keys come in its sorted column order; `a` reads them in the
    // order of `cols_a`.
    let order: Vec<usize> =
        cols_b.iter().map(|c| adj_b.key_cols().binary_search(c).expect("a key column")).collect();
    let width = order.len();
    let mut total: u128 = 0;
    let mut key: Vec<u64> = Vec::with_capacity(width);
    for (group, degree) in adj_b.degrees().enumerate() {
        let b_key = &adj_b.keys()[group * width..(group + 1) * width];
        key.clear();
        key.extend(order.iter().map(|&i| b_key[i]));
        if let Some(found) = adj_a.find(&key) {
            total += adj_a.degree(found) as u128 * degree as u128;
        }
    }
    (total as f64).max(1.0)
}

/// Greedily covers `bag` by projections of atoms: returns, per step, the
/// atom index, the covered overlap, and the distinct count of that
/// projection; `None` if some variable of `bag` occurs in no atom.  The
/// greedy criterion minimises the per-variable geometric mean
/// `distinct^(1/|overlap|)`, which routes e.g. a single heavy value of `Y`
/// through the tiny projection `π_Y(S_heavy)` rather than through a large
/// two-column projection.
pub(crate) fn greedy_projection_cover(
    atoms: &[Atom],
    db: &Database,
    bag: VarSet,
) -> Option<ProjectionCover> {
    let mut remaining = bag;
    let mut cover = Vec::new();
    while !remaining.is_empty() {
        let mut best: Option<(f64, usize, VarSet, usize)> = None; // (geo-mean, atom, overlap, distinct)
        for (idx, atom) in atoms.iter().enumerate() {
            let overlap = atom.var_set().intersect(remaining);
            if overlap.is_empty() {
                continue;
            }
            let distinct = match db.relation(&atom.relation) {
                Some(rel) => {
                    let cols: Vec<usize> = atom
                        .vars
                        .iter()
                        .enumerate()
                        .filter(|(_, v)| overlap.contains(**v))
                        .map(|(i, _)| i)
                        .collect();
                    rstats::distinct_count(rel, &cols).max(1)
                }
                None => 1,
            };
            let geo_mean = (distinct as f64).powf(1.0 / overlap.len() as f64);
            match &best {
                Some((g, _, _, _)) if *g <= geo_mean => {}
                _ => best = Some((geo_mean, idx, overlap, distinct)),
            }
        }
        match best {
            Some((_, idx, overlap, distinct)) => {
                cover.push((idx, overlap, distinct));
                remaining = remaining.difference(overlap);
            }
            None => return None,
        }
    }
    Some(cover)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generic_join::GenericJoin;
    use panda_entropy::StatisticsSet;
    use panda_query::parse_query;
    use panda_relation::Relation;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn four_cycle() -> ConjunctiveQuery {
        parse_query("Q(X,Y) :- R(X,Y), S(Y,Z), T(Z,W), U(W,X)").unwrap()
    }

    /// The 4-cycle and its adaptive plan under `2^12` tuples per atom.
    fn adaptive_four_cycle() -> (ConjunctiveQuery, PandaEvaluator) {
        let q = four_cycle();
        let stats = StatisticsSet::identical_cardinalities(&q, 1 << 12);
        let fhtw = panda_entropy::fhtw(&q, &stats).unwrap();
        let evaluator =
            PandaEvaluator::from_reports(&q, &panda_entropy::subw(&q, &stats).unwrap(), &fhtw);
        (q, evaluator)
    }

    /// The paper's fhtw-hard instance (Section 5.1):
    /// `R = S = T = U = ([n/2] × [1]) ∪ ([1] × [n/2])` — the "double star".
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

    fn random_graph_db(n: u64, edges: usize, seed: u64) -> Database {
        let mut rng = StdRng::seed_from_u64(seed);
        let rel =
            Relation::from_rows(2, (0..edges).map(|_| [rng.gen_range(0..n), rng.gen_range(0..n)]))
                .deduped();
        let mut db = Database::new();
        for name in ["R", "S", "T", "U"] {
            db.insert(name, rel.clone());
        }
        db
    }

    #[test]
    fn static_plan_matches_generic_join_on_the_four_cycle() {
        let q = four_cycle();
        let db = random_graph_db(12, 80, 5);
        let stats = StatisticsSet::measure(&q, &db);
        let plan = StaticTdPlan::new(panda_entropy::fhtw(&q, &stats).unwrap().best_td().clone());
        let expected = GenericJoin::evaluate(&q, &db);
        let got = plan.evaluate(&q, &db, Engine::Sequential);
        let order: Vec<Var> = q.free_vars().to_vec();
        assert_eq!(got.canonical_rows_ordered(&order), expected.canonical_rows_ordered(&order));
    }

    #[test]
    fn static_plan_handles_empty_relations() {
        let q = four_cycle();
        let mut db = random_graph_db(8, 30, 1);
        db.insert("T", Relation::new(2));
        let plan = StaticTdPlan::new(TreeDecomposition::enumerate(&q)[0].clone());
        assert!(plan.evaluate(&q, &db, Engine::Sequential).is_empty());
    }

    #[test]
    fn adaptive_plan_partitions_on_a_proof_sequence_degree() {
        let (_, evaluator) = adaptive_four_cycle();
        assert_eq!(evaluator.tds.len(), 2);
        assert!(
            !evaluator.partitions.is_empty(),
            "the 4-cycle proof sequences must yield at least one degree partition"
        );
        for spec in &evaluator.partitions {
            assert_eq!(spec.group_vars.len(), 1);
            assert_eq!(spec.value_vars.len(), 1);
        }
    }

    #[test]
    fn adaptive_plan_is_correct_on_random_and_adversarial_inputs() {
        let (q, evaluator) = adaptive_four_cycle();
        let order: Vec<Var> = q.free_vars().to_vec();
        for db in [random_graph_db(10, 60, 9), double_star_db(24)] {
            let expected = GenericJoin::evaluate(&q, &db);
            let got = evaluator.evaluate(&q, &db, Engine::Sequential);
            assert_eq!(got.canonical_rows_ordered(&order), expected.canonical_rows_ordered(&order));
        }
    }

    #[test]
    fn adaptive_branches_partition_the_guard_relation() {
        let (q, evaluator) = adaptive_four_cycle();
        let db = double_star_db(16);
        let branches = evaluator.build_branches(&q, &db);
        assert!(branches.len() >= 2, "the double-star instance has mixed degrees");
        // Restricting to a single partition spec, the branch copies of the
        // partitioned relation are disjoint buckets covering the original.
        let mut single = evaluator.clone();
        single.partitions.truncate(1);
        let spec = &single.partitions[0];
        let original = db.relation(&spec.relation).unwrap();
        let single_branches = single.build_branches(&q, &db);
        let total: usize =
            single_branches.iter().map(|b| b.relation(&spec.relation).unwrap().len()).sum();
        assert_eq!(total, original.len());
    }

    #[test]
    fn branch_td_choice_differs_between_light_and_heavy_parts() {
        // On the double-star instance, the branch where S is restricted to
        // its low-degree part should prefer a different TD than the branch
        // with the high-degree part — the essence of adaptivity.
        let (q, evaluator) = adaptive_four_cycle();
        let db = double_star_db(64);
        let branches = evaluator.build_branches(&q, &db);
        let chosen: BTreeSet<Vec<VarSet>> =
            branches.iter().map(|b| evaluator.choose_td_for(&q, b).bags().to_vec()).collect();
        assert!(
            chosen.len() >= 2,
            "expected at least two distinct TDs to be chosen across branches, got {chosen:?}"
        );
    }

    #[test]
    fn estimate_bag_size_uses_the_cheaper_construction() {
        let q = four_cycle();
        let db = double_star_db(32);
        // Bag {X,Y,Z} covered by R ⋈ S: product estimate 65·65; projection
        // estimate |π_X R|·|π_Y R|·… — the function returns the cheaper one
        // and never infinity for coverable bags.
        let est = estimate_bag_size(q.atoms(), &db, VarSet::from_iter([Var(0), Var(1), Var(2)]));
        assert!(est.is_finite());
        assert!(est >= 1.0);
        let q2 = parse_query("Q(X,Y) :- R(X,Y)").unwrap();
        let mut db2 = Database::new();
        db2.insert("R", Relation::from_rows(2, vec![[1, 2]]));
        let small = estimate_bag_size(q2.atoms(), &db2, VarSet::from_iter([Var(0), Var(1)]));
        assert!(small.is_finite());
        // A cover also exists for a single-variable bag.
        let cover = greedy_projection_cover(q2.atoms(), &db2, VarSet::singleton(Var(1))).unwrap();
        assert_eq!(cover.len(), 1);
    }

    #[test]
    fn exact_pairwise_join_size_matches_a_nested_loop() {
        // One shared variable, then two (in different column orders on the
        // two sides); small domains make many keys repeat.
        for (text, seed) in [
            ("Q(A) :- R(A,B), S(B,C)", 1),
            ("Q(A) :- R(A,B), S(C,B)", 2),
            ("Q(A) :- R(A,B,C), S(C,D,B)", 3),
            ("Q(A) :- R(B,A,C), S(A,B,D)", 4),
        ] {
            let q = parse_query(text).unwrap();
            let (a, b) = (&q.atoms()[0], &q.atoms()[1]);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut db = Database::new();
            for atom in [a, b] {
                let arity = atom.vars.len();
                let rows = (0..60).map(|_| (0..arity).map(|_| rng.gen_range(0..5)).collect());
                let rows: Vec<Vec<u64>> = rows.collect();
                db.insert(
                    &atom.relation,
                    Relation::from_rows(arity, rows.iter().map(Vec::as_slice)).deduped(),
                );
            }
            let (ra, rb) = (db.relation(&a.relation).unwrap(), db.relation(&b.relation).unwrap());
            let agree = |ra_row: &[u64], rb_row: &[u64]| {
                a.vars.iter().enumerate().all(|(i, v)| {
                    b.vars.iter().enumerate().all(|(j, w)| v != w || ra_row[i] == rb_row[j])
                })
            };
            let naive = ra.iter().flat_map(|x| rb.iter().filter(move |y| agree(x, y))).count();
            assert!(naive > 1, "{text}: the instance must join");
            assert_eq!(exact_pairwise_join_size(a, b, &db), naive as f64, "{text}");
        }
    }
}
