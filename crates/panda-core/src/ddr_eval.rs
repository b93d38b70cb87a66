//! Evaluation of disjunctive datalog rules (Section 8.2).
//!
//! A DDR `⋁_B Q_B(B) :- body` asks for relations `Q_B` such that every
//! tuple satisfying the body is covered by at least one disjunct.  PANDA
//! evaluates it within its polymatroid bound by partitioning the data on
//! the degrees named by the proof sequence of the bound's Shannon-flow
//! certificate: within each (near-uniform-degree) branch, *one* target is
//! cheap to cover, and different branches pick different targets — the
//! heavy/light behaviour of the paper's running example, where light
//! `Y`-values of `S` are routed to `A'_11(X,Y,Z)` by a join with `R` and
//! heavy `Y`-values are routed to `A'_21(Y,Z,W)` by a Cartesian product
//! with `T`.
//!
//! This is the adaptive plan's loop with one bag per branch, so it runs on
//! the same executor, [`crate::materialize`]'s bound plan.  Binding builds
//! the degree branches, picks each branch's cheapest head disjunct, and
//! emits one bag job for it with the cheaper of two constructions:
//!
//! 1. a worst-case-optimal join of the body atoms contained in the target
//!    (the "light" construction), or
//! 2. a join of projections of body atoms that greedily cover the target
//!    (the "heavy" construction — for the 4-cycle this degenerates to
//!    `π_Y(S_heavy) × T`).
//!
//! Both constructions produce supersets of `π_B(⋈ body)`, so the union over
//! branches is always a valid model; the choice per branch is what keeps
//! the model small.  A branch with an empty body relation satisfies no body
//! tuple and covers nothing.  Two branches that build the same head the
//! same way from the same relation instances share one job.

// panda-lint: allow-file(P1) -- the validity check reads assignments by
// the body variables every target schema is drawn from.

use panda_entropy::{ddr_polymatroid_bound, BoundError, StatisticsSet};
use panda_query::{DisjunctiveRule, Var, VarSet};
use panda_relation::Database;

use crate::binding::VarRelation;
use crate::config::Engine;
use crate::generic_join::GenericJoin;
use crate::materialize::BoundPlan;
use crate::plans::{
    cheaper_construction, partition_branches, partitions_of, separate_self_joins, PartitionSpec,
    MAX_BRANCHES,
};
use crate::yannakakis::empty_result;

/// A model of a DDR: one relation per head disjunct (possibly empty), such
/// that every body-satisfying tuple is covered by at least one of them.
#[derive(Debug, Clone)]
pub struct DdrModel {
    /// `(target schema, relation)` pairs, one per head disjunct.
    pub targets: Vec<(VarSet, VarRelation)>,
}

impl DdrModel {
    /// The size of the largest target relation — the quantity bounded by
    /// Theorem 5.1 / Eq. (35).
    #[must_use]
    pub fn max_target_size(&self) -> usize {
        self.targets.iter().map(|(_, r)| r.len()).max().unwrap_or(0)
    }

    /// The total number of tuples across all targets.
    #[must_use]
    pub fn total_size(&self) -> usize {
        self.targets.iter().map(|(_, r)| r.len()).sum()
    }

    /// Checks model validity against the rule and database by brute force:
    /// every tuple of the full body join must project into some target.
    /// Intended for tests (it computes the full join).
    #[must_use]
    pub fn is_valid_model(&self, rule: &DisjunctiveRule, db: &Database) -> bool {
        let body_vars = rule.body_vars();
        let inputs: Vec<VarRelation> =
            rule.body().iter().map(|a| VarRelation::from_atom(a, db)).collect();
        let full = GenericJoin::new(body_vars).join(&inputs, &body_vars.to_vec());
        let order = body_vars.to_vec();
        for row in full.rel.iter() {
            let assignment: Vec<(Var, u64)> =
                order.iter().copied().zip(row.iter().copied()).collect();
            let covered = self.targets.iter().any(|(_, target)| {
                if target.is_empty() {
                    return false;
                }
                let projected: Vec<u64> = target
                    .vars
                    .iter()
                    .map(|v| {
                        assignment
                            .iter()
                            .find(|(w, _)| w == v)
                            .map(|(_, val)| *val)
                            .expect("target schema is a subset of the body variables")
                    })
                    .collect();
                target.rel.contains(&projected)
            });
            if !covered {
                return false;
            }
        }
        true
    }
}

/// The PANDA-style evaluator for one disjunctive datalog rule.
#[derive(Debug, Clone)]
pub struct DdrEvaluator {
    /// The rule being evaluated.
    pub rule: DisjunctiveRule,
    /// Degree partitions extracted from the Shannon-flow proof sequence.
    pub partitions: Vec<PartitionSpec>,
    /// The rule's polymatroid bound in log scale (from the planning stats).
    pub log_bound: panda_rational::Rat,
    /// Cap on the number of branches.
    pub max_branches: usize,
}

impl DdrEvaluator {
    /// Plans the evaluation of a DDR under the given statistics: solves the
    /// DDR's polymatroid-bound LP, extracts the Shannon flow, derives its
    /// proof sequence, and records one degree partition per decomposition
    /// step that applies to an input guard.
    pub fn plan(rule: &DisjunctiveRule, stats: &StatisticsSet) -> Result<Self, BoundError> {
        let universe = rule.body_vars();
        let report = ddr_polymatroid_bound(rule.head(), universe, stats)?;
        Ok(DdrEvaluator {
            rule: rule.clone(),
            partitions: partitions_of(&report.flow).into_iter().collect(),
            log_bound: report.log_bound,
            max_branches: MAX_BRANCHES,
        })
    }

    /// Evaluates the rule on a database instance under `engine`, producing
    /// a model: each branch's output is routed into its head's target, and
    /// each target is deduplicated.  The branches are independent, so a
    /// parallel engine spreads its threads over their jobs; their outputs
    /// are merged **in branch order**, making the model bit-identical to
    /// sequential evaluation at any thread count.
    #[must_use]
    pub fn evaluate(&self, db: &Database, engine: Engine) -> DdrModel {
        let mut targets: Vec<(VarSet, VarRelation)> =
            self.rule.head().iter().map(|&b| (b, empty_result(b))).collect();
        for out in self.bind(db).execute(engine) {
            let head = out.var_set();
            if let Some((_, target)) = targets.iter_mut().find(|(b, _)| *b == head) {
                target.rel.extend_from(&out.rel);
            }
        }
        for (_, rel) in &mut targets {
            rel.rel.dedup();
        }
        DdrModel { targets }
    }

    /// Binds the rule to `db`: splits it into the degree branches of the
    /// partition specs, and gives each branch the head disjunct cheapest to
    /// cover there ([`crate::plans::estimate_bag_size`]'s estimate; the
    /// first on a tie) as its output, built by the cheaper construction.
    pub(crate) fn bind(&self, db: &Database) -> BoundPlan {
        let (body, specs, db) = separate_self_joins(self.rule.body(), &self.partitions, db);
        let branches = partition_branches(&body, &specs, self.max_branches, &db);
        let chosen = branches.iter().filter_map(|branch| {
            self.rule
                .head()
                .iter()
                .map(|&head| (head, cheaper_construction(&body, branch, head)))
                .min_by(|(_, (a, _)), (_, (b, _))| a.total_cmp(b))
                .map(|(head, (_, construction))| (branch, head, vec![construction]))
        });
        BoundPlan::new(&body, chosen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panda_query::{parse_query, BagSelector};
    use panda_relation::Relation;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn vs(vars: &[u32]) -> VarSet {
        vars.iter().map(|&v| Var(v)).collect()
    }

    fn four_cycle_ddr() -> DisjunctiveRule {
        // Eq. (38): A11(X,Y,Z) ∨ A21(Y,Z,W) :- R(X,Y),S(Y,Z),T(Z,W),U(W,X).
        let q = parse_query("Q(X,Y) :- R(X,Y), S(Y,Z), T(Z,W), U(W,X)").unwrap();
        let selector = BagSelector::new(vec![vs(&[0, 1, 2]), vs(&[1, 2, 3])]);
        DisjunctiveRule::for_bag_selector(&q, &selector)
    }

    /// The paper's hard instance: a "double star" where every relation is
    /// `([n]×{1}) ∪ ({1}×[n])`.
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

    fn random_db(n: u64, edges: usize, seed: u64) -> Database {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut db = Database::new();
        for name in ["R", "S", "T", "U"] {
            let rel = Relation::from_rows(
                2,
                (0..edges).map(|_| [rng.gen_range(0..n), rng.gen_range(0..n)]),
            )
            .deduped();
            db.insert(name, rel);
        }
        db
    }

    #[test]
    fn planning_the_papers_ddr_yields_the_three_halves_bound_and_a_partition() {
        let rule = four_cycle_ddr();
        let q = parse_query("Q(X,Y) :- R(X,Y), S(Y,Z), T(Z,W), U(W,X)").unwrap();
        let stats = StatisticsSet::identical_cardinalities(&q, 1 << 12);
        let evaluator = DdrEvaluator::plan(&rule, &stats).unwrap();
        assert_eq!(evaluator.log_bound, panda_rational::Rat::new(3, 2));
        assert!(!evaluator.partitions.is_empty());
    }

    #[test]
    fn model_is_valid_and_within_the_bound_on_the_hard_instance() {
        // Eq. (61): the DDR has a model of size ≤ N^{3/2}; the double-star
        // instance is exactly the one where single-TD plans need Ω(N²).
        let rule = four_cycle_ddr();
        let q = parse_query("Q(X,Y) :- R(X,Y), S(Y,Z), T(Z,W), U(W,X)").unwrap();
        let db = double_star_db(64);
        let n = db.relation("R").unwrap().len() as f64;
        let stats = StatisticsSet::measure(&q, &db);
        let evaluator = DdrEvaluator::plan(&rule, &stats).unwrap();
        let model = evaluator.evaluate(&db, Engine::Sequential);
        assert!(model.is_valid_model(&rule, &db), "model must cover the body join");
        let bound = n.powf(1.5);
        assert!(
            (model.max_target_size() as f64) <= 4.0 * bound,
            "model size {} exceeds ~N^1.5 = {}",
            model.max_target_size(),
            bound
        );
        // A single-target model (everything routed to A11 = XYZ) would need
        // ~N²/4 tuples on this instance, so the evaluator must have used both
        // disjuncts.
        assert!(model.targets.iter().all(|(_, r)| !r.is_empty()));
    }

    #[test]
    fn model_is_valid_on_random_instances() {
        let rule = four_cycle_ddr();
        let q = parse_query("Q(X,Y) :- R(X,Y), S(Y,Z), T(Z,W), U(W,X)").unwrap();
        for seed in 0..3 {
            let db = random_db(12, 70, seed);
            let stats = StatisticsSet::measure(&q, &db);
            let evaluator = DdrEvaluator::plan(&rule, &stats).unwrap();
            let model = evaluator.evaluate(&db, Engine::Sequential);
            assert!(model.is_valid_model(&rule, &db), "seed {seed}");
        }
    }

    #[test]
    fn conjunctive_ddr_reduces_to_a_single_target() {
        // A DDR with one disjunct is just a CQ bag materialisation.
        let q = parse_query("Q(X,Y) :- R(X,Y), S(Y,Z)").unwrap();
        let rule =
            DisjunctiveRule::new(vec![vs(&[0, 1, 2])], q.atoms().to_vec(), q.var_names().to_vec());
        let mut db = Database::new();
        db.insert("R", Relation::from_rows(2, vec![[1, 2], [3, 4]]));
        db.insert("S", Relation::from_rows(2, vec![[2, 5], [4, 6], [9, 9]]));
        let stats = StatisticsSet::measure(&q, &db);
        let evaluator = DdrEvaluator::plan(&rule, &stats).unwrap();
        let model = evaluator.evaluate(&db, Engine::Sequential);
        assert!(model.is_valid_model(&rule, &db));
        assert_eq!(model.targets.len(), 1);
        assert_eq!(model.total_size(), model.max_target_size());
    }

    #[test]
    fn ddr_model_size_beats_single_target_on_the_hard_instance() {
        // Compare against the naive strategy that covers everything with the
        // first target only: on the double star that costs Θ(N²/4).
        let rule = four_cycle_ddr();
        let q = parse_query("Q(X,Y) :- R(X,Y), S(Y,Z), T(Z,W), U(W,X)").unwrap();
        let db = double_star_db(48);
        let stats = StatisticsSet::measure(&q, &db);
        let evaluator = DdrEvaluator::plan(&rule, &stats).unwrap();
        let model = evaluator.evaluate(&db, Engine::Sequential);
        let bag = vs(&[0, 1, 2]);
        let contained: Vec<VarRelation> = q
            .atoms()
            .iter()
            .filter(|a| a.var_set().is_subset_of(bag))
            .map(|a| VarRelation::from_atom(a, &db))
            .collect();
        let naive = GenericJoin::new(bag).join(&contained, &bag.to_vec());
        assert!(model.max_target_size() < naive.len());
    }
}
