//! Parallel-determinism suite: the parallel engine must produce
//! **bit-identical** outputs to sequential evaluation at every tested
//! thread count {1, 2, 8} — same rows in the same storage order, not just
//! the same set.
//!
//! Coverage mirrors the two corpora named by the docs/parallel PR:
//!
//! * the proptest *differential operator corpus* (random relations joined
//!   through the generic join's parallel top-level split) — complementing
//!   the per-operator differential suite in
//!   `crates/relation/tests/operators_differential.rs`, and
//! * the *E1–E15 experiment workloads* (Figure 2, the fhtw-hard double
//!   star of E7/E8, the Erdős–Rényi and Zipf instances of E9, the path
//!   instance of E13) at reduced sizes, through every evaluation strategy
//!   plus DDR models and the plan reports behind the tables.
//!
//! The engine is always an argument here: no library code reads
//! `PANDA_THREADS`, so these in-process comparisons are the whole of the
//! cross-engine coverage (the binaries' reading of the variable is checked
//! by CI's serve-replay job).

use panda::config::{Engine, Parallelism};
use panda::prelude::*;
use panda::workloads;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The thread counts the determinism contract is pinned at.
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Raw rows in storage order — the bit-level comparison.
fn raw_rows(rel: &VarRelation) -> Vec<Vec<u64>> {
    rel.rel.iter().map(<[u64]>::to_vec).collect()
}

fn engines() -> Vec<(usize, Engine)> {
    THREAD_COUNTS.iter().map(|&n| (n, Engine::Parallel(Parallelism::threads(n)))).collect()
}

fn random_graph_db(names: &[&str], n: u64, edges: usize, seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    for name in names {
        let rel = panda::relation::Relation::from_rows(
            2,
            (0..edges).map(|_| [rng.gen_range(0..n), rng.gen_range(0..n)]),
        )
        .deduped();
        db.insert(*name, rel);
    }
    db
}

/// Every (strategy, workload) cell of the experiment tables: parallel
/// output equals the sequential output bit for bit at every thread count.
#[test]
fn all_strategies_are_bit_identical_across_thread_counts() {
    let cases: Vec<(ConjunctiveQuery, Database, &str)> = vec![
        // E1: Figure 2's example instance under the projected 4-cycle.
        (workloads::four_cycle_projected(), workloads::figure2_db(), "figure2"),
        // E7/E8: the fhtw-hard double star (heavy/light case splits).
        (workloads::four_cycle_projected(), workloads::double_star_db(32), "double_star"),
        (workloads::four_cycle_full(), workloads::double_star_db(24), "double_star_full"),
        // E9: the triangle query on Erdős–Rényi and Zipf-skewed graphs.
        (
            workloads::triangle_query(),
            workloads::erdos_renyi_db(&["R", "S", "T"], 60, 600, 9),
            "erdos_renyi",
        ),
        (
            workloads::triangle_query(),
            workloads::zipf_graph_db(&["R", "S", "T"], 60, 600, 1.1, 10),
            "zipf",
        ),
        // E13: a free-connex acyclic path query.
        (workloads::two_path_projected(), random_graph_db(&["R", "S"], 30, 200, 11), "path"),
    ];
    let strategies = [
        EvaluationStrategy::Auto,
        EvaluationStrategy::GenericJoin,
        EvaluationStrategy::StaticTd,
        EvaluationStrategy::Adaptive,
        EvaluationStrategy::BinaryJoin,
    ];
    for (query, db, label) in &cases {
        for strategy in strategies {
            let seq = Panda::new(query.clone())
                .with_engine(Engine::Sequential)
                .evaluate_with(db, strategy);
            let expected = raw_rows(&seq);
            for (threads, engine) in engines() {
                let par = Panda::new(query.clone()).with_engine(engine).evaluate_with(db, strategy);
                assert_eq!(par.vars, seq.vars, "{label}/{strategy:?}/t{threads}");
                assert_eq!(
                    raw_rows(&par),
                    expected,
                    "{label}/{strategy:?} diverges at {threads} threads"
                );
            }
        }
    }
}

/// DDR models (E7): per-target relations are bit-identical too.
#[test]
fn ddr_models_are_bit_identical_across_thread_counts() {
    let query = workloads::four_cycle_projected();
    let selector = BagSelector::new(vec![
        VarSet::from_iter([Var(0), Var(1), Var(2)]),
        VarSet::from_iter([Var(1), Var(2), Var(3)]),
    ]);
    let rule = DisjunctiveRule::for_bag_selector(&query, &selector);
    for db in [workloads::double_star_db(32), random_graph_db(&["R", "S", "T", "U"], 12, 70, 5)] {
        let stats = StatisticsSet::measure(&query, &db);
        let evaluator = DdrEvaluator::plan(&rule, &stats).unwrap();
        let seq = evaluator.evaluate(&db, Engine::Sequential);
        for (threads, engine) in engines() {
            let par = evaluator.evaluate(&db, engine);
            assert_eq!(par.targets.len(), seq.targets.len());
            for ((s_schema, s_rel), (p_schema, p_rel)) in seq.targets.iter().zip(&par.targets) {
                assert_eq!(s_schema, p_schema);
                assert_eq!(
                    raw_rows(p_rel),
                    raw_rows(s_rel),
                    "DDR target diverges at {threads} threads"
                );
            }
        }
    }
}

/// Asserts every field of a [`PlanReport`] — selection metadata, widths,
/// downgrades, per-branch bounds with their certificates — is identical
/// between two reports.
fn assert_reports_identical(par: &PlanReport, seq: &PlanReport, label: &str) {
    assert_eq!(par.strategy, seq.strategy, "{label}: executed strategy");
    assert_eq!(par.selected, seq.selected, "{label}: selected strategy");
    assert_eq!(par.rule, seq.rule, "{label}: selector rule");
    assert_eq!(par.reason, seq.reason, "{label}: reason code");
    assert_eq!(par.downgrades, seq.downgrades, "{label}: downgrades");
    assert_eq!(par.fhtw, seq.fhtw, "{label}: fhtw");
    assert_eq!(par.subw, seq.subw, "{label}: subw");
    assert_eq!(par.tds, seq.tds, "{label}: tds");
    assert_eq!(par.partitions, seq.partitions, "{label}: partitions");
    assert_eq!(par.branch_count, seq.branch_count, "{label}: branch count");
    assert_eq!(par.branch_bounds, seq.branch_bounds, "{label}: branch bounds incl. certificates");
    assert_eq!(par.lp_pivots_used, seq.lp_pivots_used, "{label}: lp pivots used");
}

/// Planning is engine-independent: the same strategy, selector rule,
/// reason codes, widths, partitions, branch bounds (down to the
/// Shannon-flow certificates) and pivot counts come out of a parallel
/// planner at every thread count, with and without budgets.
#[test]
fn plan_reports_are_engine_independent() {
    let query = workloads::four_cycle_projected();
    let db = workloads::double_star_db(24);
    // Unbudgeted, and budgeted tightly enough that the pivot counter is
    // exercised (but not exhausted) — both must be thread-count-invariant.
    let budget_configs = [
        ("unbudgeted", Budgets::unlimited()),
        ("budgeted", Budgets::unlimited().with_lp_pivot_budget(100_000)),
    ];
    for (label, budgets) in budget_configs {
        let seq = Panda::new(query.clone())
            .with_statistics(StatisticsSet::identical_cardinalities(&query, 1 << 12))
            .with_engine(Engine::Sequential)
            .with_budgets(budgets)
            .plan_report(&db)
            .unwrap();
        if label == "budgeted" {
            assert!(seq.lp_pivots_used.is_some(), "budgeted planning must report pivot usage");
        }
        for (threads, engine) in engines() {
            let par = Panda::new(query.clone())
                .with_statistics(StatisticsSet::identical_cardinalities(&query, 1 << 12))
                .with_engine(engine)
                .with_budgets(budgets)
                .plan_report(&db)
                .unwrap();
            assert_reports_identical(&par, &seq, &format!("{label}/t{threads}"));
        }
    }
}

/// The EXPLAIN rendering — the full byte string — is engine-independent
/// too (this is what the CI byte-stability job relies on).
#[test]
fn explain_output_is_engine_independent() {
    let query = workloads::four_cycle_projected();
    let db = workloads::double_star_db(24);
    let seq = Panda::new(query.clone())
        .with_statistics(StatisticsSet::identical_cardinalities(&query, 1 << 12))
        .with_engine(Engine::Sequential)
        .explain(&db)
        .unwrap()
        .to_string();
    for (threads, engine) in engines() {
        let par = Panda::new(query.clone())
            .with_statistics(StatisticsSet::identical_cardinalities(&query, 1 << 12))
            .with_engine(engine)
            .explain(&db)
            .unwrap()
            .to_string();
        assert_eq!(par, seq, "EXPLAIN text diverges at {threads} threads");
    }
}

/// `Q(A,B,C,D) :- P(A,B,C), R(C,D), S(A,D)`: at level `C` the generic
/// join looks candidates up in `P` by the two-column bound key `(A, B)`.
/// The answer equals a nested loop, and the rows are bit-identical
/// sequentially and at 2 and 3 threads.
#[test]
fn generic_join_with_a_two_column_bound_prefix_matches_a_nested_loop() {
    let query = parse_query("Q(A,B,C,D) :- P(A,B,C), R(C,D), S(A,D)").unwrap();
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = |arity: usize, n: usize, domain: u64| -> Relation {
            Relation::from_rows(
                arity,
                (0..n).map(|_| (0..arity).map(|_| rng.gen_range(0..domain)).collect::<Vec<_>>()),
            )
        };
        let (p, r, s) = (rows(3, 150, 5), rows(2, 40, 6), rows(2, 40, 6));
        let mut expected = std::collections::BTreeSet::new();
        for pr in p.iter() {
            for rr in r.iter().filter(|rr| rr[0] == pr[2]) {
                if s.iter().any(|sr| sr[0] == pr[0] && sr[1] == rr[1]) {
                    expected.insert(vec![pr[0], pr[1], pr[2], rr[1]]);
                }
            }
        }
        let mut db = Database::new();
        db.insert("P", p);
        db.insert("R", r);
        db.insert("S", s);
        let seq = GenericJoin::evaluate_with_engine(&query, &db, Engine::Sequential);
        assert!(!expected.is_empty(), "seed {seed}: the instance has answers");
        assert_eq!(seq.rel.canonical_rows(), expected.into_iter().collect::<Vec<_>>());
        for threads in [2, 3] {
            let engine = Engine::Parallel(Parallelism::threads(threads));
            let par = GenericJoin::evaluate_with_engine(&query, &db, engine);
            assert_eq!(raw_rows(&par), raw_rows(&seq), "seed {seed}, {threads} threads");
        }
    }
}

proptest! {
    // Random triangle instances through the generic join's parallel
    // top-level split.
    #[test]
    fn prop_operator_corpus_generic_join_matches(
        edges in proptest::collection::vec((0u64..12, 0u64..12), 1..120),
        threads in 2usize..9,
    ) {
        let query = workloads::triangle_query();
        let rel = panda::relation::Relation::from_rows(2, edges.iter().map(|(a, b)| [*a, *b])).deduped();
        let mut db = Database::new();
        for name in ["R", "S", "T"] {
            db.insert(name, rel.clone());
        }
        let seq = GenericJoin::evaluate_with_engine(&query, &db, Engine::Sequential);
        let par = GenericJoin::evaluate_with_engine(
            &query,
            &db,
            Engine::Parallel(Parallelism::threads(threads)),
        );
        prop_assert_eq!(raw_rows(&par), raw_rows(&seq));
    }
}
