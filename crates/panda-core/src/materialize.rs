//! The bound plan: a plan applied to one request's data, and the one
//! executor of this crate.
//!
//! Planning ([`crate::selector`]) reads only the statistics, so a cached
//! plan is a function of its cache key.  The data enters here, once per
//! request, on the report path and the evaluation path alike.  Binding
//! takes one database per branch — the degree branches of an adaptive plan
//! or a DDR (PAPER.md stages 3–5), or the whole input for a static plan —
//! with the branch's output schema and the `Construction` of each of its
//! bags.  A conjunctive branch assigns every atom to the first bag of its
//! tree decomposition containing it (Eq. 13), joins each bag projected onto
//! what the plan reads of it — the free variables and those the branch's
//! other bags hold; a non-free variable of one bag only is existential
//! there, and the join's cursor stops at its first witness — and outputs
//! the free variables.  A DDR branch builds the one head disjunct it routes
//! its tuples to (§8.2), by a join or a projection cover, and outputs it.
//!
//! A bag's key is its construction — which atoms, by position in the
//! plan's one atom list, the variables a join outputs, and for a cover each
//! step's overlap — plus the
//! [storage identity](panda_relation::Relation::storage_id) of each atom's
//! relation in the branch.  Branch databases differ only in the
//! *partitioned* relations — every other relation is the same `Arc`-shared
//! instance, and so is every bucket of a partitioned one, since a
//! relation caches its bucketing per split
//! ([`bucket_by_degree`](panda_relation::stats::bucket_by_degree)) —
//! so a bag built the same way from unpartitioned atoms, or from the same
//! buckets, has the same key in every branch that reads them, and equal
//! keys imply value-identical outputs.
//! The bound plan is therefore one list of **bag jobs** in first-seen
//! order, each with the number of branch scans it serves (the
//! `push_plan_for_materialization` / `num_scans` idea of
//! materialisation-aware executors, applied to PANDA's degree branches).
//!
//! Execution materialises each job once and combines each branch's job
//! relations with Yannakakis onto the branch's output schema; branch outputs
//! come back in branch order, so results are bit-identical at any thread
//! count.  The jobs scanned by two or more branches are what a
//! [`PlanReport`](crate::PlanReport) lists as [`MaterializedSubplan`]s and
//! EXPLAIN renders — read off the very list execution runs, so what is
//! reported is what executes.

// panda-lint: allow-file(P1) -- job, branch and atom indices are positions
// into the plan's own vectors and the plan's atom list, minted when the
// plan was bound and never edited afterwards.

use std::collections::BTreeMap;

use panda_query::{Atom, ConjunctiveQuery, TreeDecomposition, VarSet};
use panda_relation::fan_out::ordered_map;
use panda_relation::{Database, Relation};

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

/// How a bag job builds its relation from its branch's atoms (positions
/// into the plan's atom list).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Construction {
    /// The worst-case-optimal join of these atoms, projected onto these of
    /// the variables they cover.
    Join(Vec<usize>, VarSet),
    /// The natural join of each atom's projection onto its overlap, in this
    /// order (a Cartesian product where the overlaps are disjoint): a
    /// superset of the bag's projection of the body join, which is what a
    /// DDR target must cover — for the 4-cycle, `π_Y(S_heavy) × T`.
    Cover(Vec<(usize, VarSet)>),
}

impl Construction {
    /// The variables the construction builds.
    fn bag(&self, atoms: &[Atom]) -> VarSet {
        match self {
            Construction::Join(ids, _) => {
                ids.iter().fold(VarSet::EMPTY, |acc, &i| acc.union(atoms[i].var_set()))
            }
            Construction::Cover(steps) => {
                steps.iter().fold(VarSet::EMPTY, |acc, (_, overlap)| acc.union(*overlap))
            }
        }
    }

    /// The atoms it reads, in construction order.
    fn atoms(&self) -> Vec<usize> {
        match self {
            Construction::Join(ids, _) => ids.clone(),
            Construction::Cover(steps) => steps.iter().map(|&(i, _)| i).collect(),
        }
    }
}

/// The identity of one bag job: its construction, and the storage identity
/// of the relation each atom it reads binds to in the branch (`None` when
/// the branch database lacks it).  Equal keys imply value-identical inputs
/// built the same way, and therefore value-identical outputs.
type SubplanKey = (Construction, Vec<Option<(usize, usize, usize)>>);

/// Builds the key of `construction` over `atoms` against `db`.
fn subplan_key(construction: &Construction, atoms: &[Atom], db: &Database) -> SubplanKey {
    let storage = construction.atoms().into_iter();
    let storage = storage.map(|i| db.relation(&atoms[i].relation).map(Relation::storage_id));
    (construction.clone(), storage.collect())
}

/// One distinct bag materialisation of a [`BoundPlan`].
#[derive(Debug)]
struct BagJob {
    /// The variables the construction builds.
    bag: VarSet,
    construction: Construction,
    /// The first branch that scans it: its inputs are read from there.
    branch: usize,
    /// How many branch scans it serves.
    scans: usize,
}

/// One branch of a [`BoundPlan`]: the plan's atoms bound to its database,
/// its output schema, and the jobs of its bags in bag order.
#[derive(Debug)]
struct BoundBranch {
    inputs: Vec<VarRelation>,
    output: VarSet,
    jobs: Vec<usize>,
}

/// A plan bound to one request's data — see the module docs.
#[derive(Debug)]
pub(crate) struct BoundPlan {
    branches: Vec<BoundBranch>,
    jobs: Vec<BagJob>,
}

impl BoundPlan {
    /// Binds `atoms` to each branch database, with the branch's output
    /// schema and the constructions of its bags.
    pub(crate) fn new<'a>(
        atoms: &[Atom],
        branches: impl IntoIterator<Item = (&'a Database, VarSet, Vec<Construction>)>,
    ) -> Self {
        let mut jobs: Vec<BagJob> = Vec::new();
        let mut seen: BTreeMap<SubplanKey, usize> = BTreeMap::new();
        let mut bound = Vec::new();
        for (branch, (db, output, constructions)) in branches.into_iter().enumerate() {
            let mut branch_jobs = Vec::new();
            for construction in constructions {
                let job = *seen.entry(subplan_key(&construction, atoms, db)).or_insert_with(|| {
                    let bag = construction.bag(atoms);
                    jobs.push(BagJob { bag, construction, branch, scans: 0 });
                    jobs.len() - 1
                });
                jobs[job].scans += 1;
                branch_jobs.push(job);
            }
            let inputs = atoms.iter().map(|a| VarRelation::from_atom(a, db)).collect();
            bound.push(BoundBranch { inputs, output, jobs: branch_jobs });
        }
        BoundPlan { branches: bound, jobs }
    }

    /// Binds `query` to each branch database under the decomposition that
    /// branch runs: every atom joins the first bag containing it (Eq. 13),
    /// one job per non-empty bag in bag order, and every branch outputs the
    /// free variables.  A job outputs its bag's free variables and those
    /// its branch's other bags read: a non-free variable of one bag only
    /// is existential there, so the join projects it away.  That output is
    /// a function of the bag's atoms, so it keys the job without changing
    /// which branches share it.
    ///
    /// # Panics
    ///
    /// Panics if some atom fits no bag of its branch's decomposition.
    pub(crate) fn for_query<'a>(
        query: &ConjunctiveQuery,
        branches: impl IntoIterator<Item = (&'a Database, &'a TreeDecomposition)>,
    ) -> Self {
        let (atoms, free) = (query.atoms(), query.free_vars());
        let joins = |td: &TreeDecomposition| {
            let mut assigned: Vec<Vec<usize>> = vec![Vec::new(); td.num_bags()];
            for (i, atom) in atoms.iter().enumerate() {
                let vars = atom.var_set();
                let bag = td.bags().iter().position(|b| vars.is_subset_of(*b));
                assigned[bag.expect("a valid TD contains every atom in some bag")].push(i);
            }
            assigned
                .into_iter()
                .filter(|ids| !ids.is_empty())
                .map(|ids| {
                    let (mut covered, mut read) = (VarSet::EMPTY, free);
                    for (i, atom) in atoms.iter().enumerate() {
                        if ids.contains(&i) {
                            covered = covered.union(atom.var_set());
                        } else {
                            read = read.union(atom.var_set());
                        }
                    }
                    Construction::Join(ids, covered.intersect(read))
                })
                .collect()
        };
        BoundPlan::new(atoms, branches.into_iter().map(|(db, td)| (db, free, joins(td))))
    }

    /// The number of branches.
    pub(crate) fn branch_count(&self) -> usize {
        self.branches.len()
    }

    /// The jobs scanned by two or more branches, in first-seen order;
    /// `atoms` are the atoms the plan was bound with.
    pub(crate) fn materializations(&self, atoms: &[Atom]) -> Vec<MaterializedSubplan> {
        self.jobs
            .iter()
            .filter(|job| job.scans >= 2)
            .map(|job| {
                let mut relations: Vec<String> =
                    job.construction.atoms().iter().map(|&i| atoms[i].relation.clone()).collect();
                relations.sort();
                MaterializedSubplan { bag: job.bag, relations, num_scans: job.scans }
            })
            .collect()
    }

    /// Builds one job from the inputs of the first branch that scans it.
    fn build(&self, job: &BagJob, engine: Engine) -> VarRelation {
        let inputs = &self.branches[job.branch].inputs;
        match &job.construction {
            Construction::Join(ids, output) => {
                let inputs: Vec<VarRelation> = ids.iter().map(|&i| inputs[i].clone()).collect();
                GenericJoin::new(job.bag).join_with_engine(&inputs, &output.to_vec(), engine)
            }
            Construction::Cover(steps) => steps
                .iter()
                .map(|&(i, overlap)| inputs[i].project_onto(&overlap.to_vec()))
                .reduce(|acc, piece| acc.natural_join(&piece))
                .unwrap_or_else(|| VarRelation::boolean(true))
                .project_onto(&job.bag.to_vec()),
        }
    }

    /// Runs the plan and returns one output per branch, in branch order,
    /// each over its branch's output schema (in ascending variable order).
    /// Every job a branch with non-empty inputs scans is materialised once;
    /// Yannakakis then combines each such branch's bags (the binary
    /// baseline's greedy left-deep join when their schemas are cyclic).  A
    /// branch with an empty input answers the empty relation and builds
    /// nothing.
    ///
    /// With more than one branch a parallel engine's threads are spread
    /// across the jobs and then across the branches, and each join runs
    /// sequentially; with one branch the engine is spent inside the joins.
    pub(crate) fn execute(&self, engine: Engine) -> Vec<VarRelation> {
        let (threads, inner) = if engine.threads() > 1 && self.branches.len() > 1 {
            (engine.threads(), Engine::Sequential)
        } else {
            (1, engine)
        };
        let live = |branch: &BoundBranch| !branch.inputs.iter().any(VarRelation::is_empty);
        let mut needed = vec![false; self.jobs.len()];
        for branch in self.branches.iter().filter(|b| live(b)) {
            for &job in &branch.jobs {
                needed[job] = true;
            }
        }
        let todo: Vec<usize> = (0..self.jobs.len()).filter(|&job| needed[job]).collect();
        let built = ordered_map(threads, &todo, |&job| self.build(&self.jobs[job], inner));
        let mut relations: Vec<Option<VarRelation>> = vec![None; self.jobs.len()];
        for (job, rel) in todo.into_iter().zip(built) {
            relations[job] = Some(rel);
        }
        ordered_map(threads, &self.branches, |branch: &BoundBranch| {
            if !live(branch) {
                return empty_result(branch.output);
            }
            let bags: Vec<VarRelation> = branch
                .jobs
                .iter()
                .map(|&job| relations[job].clone().expect("a live branch's jobs are built"))
                .collect();
            yannakakis_free_connex(&bags, branch.output)
                .unwrap_or_else(|| left_deep_join(bags, branch.output))
        })
    }

    /// The answer of a plan whose branches all output `free`: the branch
    /// outputs of [`BoundPlan::execute`] concatenated in branch order, and
    /// deduplicated when there is more than one (each output alone is
    /// duplicate-free).
    pub(crate) fn evaluate(&self, free: VarSet, engine: Engine) -> VarRelation {
        let mut result = empty_result(free);
        for out in self.execute(engine) {
            result.rel.extend_from(&out.rel);
        }
        if self.branches.len() > 1 {
            result.rel.dedup();
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panda_entropy::StatisticsSet;
    use panda_query::{parse_query, Var};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use crate::plans::{cheaper_construction, greedy_projection_cover, PandaEvaluator};

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

    /// The key of joining the query's first atom.
    fn first_atom_key(q: &ConjunctiveQuery, db: &Database) -> SubplanKey {
        subplan_key(&Construction::Join(vec![0], q.atoms()[0].var_set()), q.atoms(), db)
    }

    #[test]
    fn equal_storage_yields_equal_keys_and_one_materialisation() {
        let q = parse_query("Q(X,Y) :- R(X,Y), S(Y,Z)").unwrap();
        let mut db = Database::new();
        db.insert("R", Relation::from_rows(2, vec![[1, 2], [2, 3]]));
        db.insert("S", Relation::from_rows(2, vec![[2, 5], [3, 5]]));
        let branch = db.clone(); // shares storage
        assert_eq!(first_atom_key(&q, &db), first_atom_key(&q, &branch));
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
        assert_ne!(first_atom_key(&q, &a), first_atom_key(&q, &b));
        // A missing relation is keyed as absent, not skipped.
        let empty = Database::new();
        assert_ne!(first_atom_key(&q, &a), first_atom_key(&q, &empty));
    }

    #[test]
    fn a_cover_job_builds_a_superset_of_the_bag_projection() {
        // Bag {Y,Z,W} with a tiny π_Y(S) and a large T: the projection cover.
        let q = parse_query("Q(X,Y) :- R(X,Y), S(Y,Z), T(Z,W), U(W,X)").unwrap();
        let mut db = Database::new();
        // S has a single Y value with many Z's.
        let mut s = Relation::new(2);
        let mut t = Relation::new(2);
        for i in 0..50u64 {
            s.push_row(&[1, i]);
            t.push_row(&[i, i + 1000]);
        }
        db.insert("R", Relation::from_rows(2, vec![[7, 1]]));
        db.insert("S", s);
        db.insert("T", t);
        db.insert("U", Relation::from_rows(2, vec![[1000, 7]]));
        let bag = VarSet::from_iter([Var(1), Var(2), Var(3)]); // {Y,Z,W}
        let cover = greedy_projection_cover(q.atoms(), &db, bag).unwrap();
        let cover = Construction::Cover(cover.into_iter().map(|(i, o, _)| (i, o)).collect());
        assert_eq!(cover.bag(q.atoms()), bag);
        // |π(cover)| = 50 ties |S ⋈ T| = 50, so the cheaper construction is
        // the join; a cover job and a join job never share a key.
        let (_, join) = cheaper_construction(q.atoms(), &db, bag);
        assert!(matches!(join, Construction::Join(..)));
        assert_ne!(subplan_key(&cover, q.atoms(), &db), subplan_key(&join, q.atoms(), &db));

        let plan = BoundPlan::new(q.atoms(), [(&db, bag, vec![cover])]);
        let out = plan.execute(Engine::Sequential).pop().unwrap();
        // The result must at least be a superset of the true projection and
        // have schema {Y,Z,W}.
        assert_eq!(out.vars.len(), 3);
        assert!(out.len() >= 50);
        // Sanity: every (y,z,w) of the true join appears.
        let inputs = VarRelation::bind_all(&q, &db);
        let full = GenericJoin::new(q.all_vars()).join(&inputs, &[Var(1), Var(2), Var(3)]);
        for row in full.rel.iter() {
            assert!(out.project_onto(&[Var(1), Var(2), Var(3)]).rel.contains(row));
        }
    }

    #[test]
    fn a_bag_job_outputs_what_the_plan_reads_of_its_bag() {
        // `diamond_tail`: the bag {A,B,C,D} is read through {A} (free) and
        // {D} (shared with {D,E}); B and C are existential there.
        let q = parse_query("Q(A,E) :- R(A,B), S(B,C), T(A,C), U(B,D), V(C,D), W(D,E)").unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let mut db = Database::new();
        for name in ["R", "S", "T", "U", "V", "W"] {
            let edges = (0..700).map(|_| [rng.gen_range(0..30u64), rng.gen_range(0..30u64)]);
            db.insert(name, Relation::from_rows(2, edges).deduped());
        }
        let vars = |ids: &[u32]| -> VarSet { ids.iter().map(|&v| Var(v)).collect() };
        let (abcd, ad) = (vars(&[0, 1, 2, 3]), vars(&[0, 3]));
        let td = TreeDecomposition::new(vec![abcd, vars(&[3, 4])]);
        let plan = BoundPlan::for_query(&q, [(&db, &td)]);
        let constructions: Vec<&Construction> = plan.jobs.iter().map(|j| &j.construction).collect();
        let tail = Construction::Join(vec![5], vars(&[3, 4]));
        assert_eq!(constructions, [&Construction::Join(vec![0, 1, 2, 3, 4], ad), &tail]);
        assert_eq!(plan.jobs[0].bag, abcd);

        let bag = plan.build(&plan.jobs[0], Engine::Sequential);
        assert_eq!(bag.vars, ad.to_vec());
        let inputs: Vec<VarRelation> = VarRelation::bind_all(&q, &db)[..5].to_vec();
        let full = GenericJoin::new(abcd).join(&inputs, &abcd.to_vec());
        let pairs = full.project_onto(&ad.to_vec());
        assert_eq!(bag.rel.canonical_rows(), pairs.rel.canonical_rows());
        assert_eq!(bag.len(), pairs.len(), "one row per (A,D) pair");
        assert!(bag.len() <= 900 && 10 * bag.len() < full.len(), "{} of {}", bag.len(), full.len());
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
        let plan = BoundPlan::for_query(&q, branches.iter().zip(&tds));
        assert_eq!(plan.branch_count(), branches.len());

        // Job keys are distinct.
        let keys: Vec<SubplanKey> = plan
            .jobs
            .iter()
            .map(|job| subplan_key(&job.construction, q.atoms(), &branches[job.branch]))
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
            plan.materializations(q.atoms()).iter().map(|m| (m.bag, m.num_scans)).collect();
        assert!(!reported.is_empty());
        assert_eq!(reported, shared);
        let first_seen: Vec<usize> = plan.jobs.iter().map(|job| job.branch).collect();
        assert!(first_seen.windows(2).all(|w| w[0] <= w[1]), "jobs are in first-seen order");

        // Executing it answers what the generic join answers.
        let order: Vec<Var> = q.free_vars().to_vec();
        let expected = GenericJoin::evaluate(&q, &db).canonical_rows_ordered(&order);
        let mut got: Vec<Vec<u64>> = plan
            .execute(Engine::Sequential)
            .iter()
            .flat_map(|out| out.canonical_rows_ordered(&order))
            .collect();
        got.sort_unstable();
        got.dedup();
        assert_eq!(got, expected);
    }
}
