//! Cold/warm plan-cache differential suite: a warm (cached) run must be
//! **bit-identical** to a cold one — same result rows in the same storage
//! order, the same [`PlanReport`] (up to the `cache_events` telemetry
//! field, which records hit/miss and is deliberately excluded from the
//! bit-identity contract and from EXPLAIN), and byte-identical EXPLAIN
//! text — across both engines and every query that shares a key.
//!
//! Coverage mirrors the parallel-determinism suite's two corpora: the
//! E1–E15 experiment workloads at reduced sizes and a proptest random
//! operator corpus, plus plan-cache-specific pins.  The key is the query
//! as parsed: renamed variables or head and body-atom permutations that
//! keep the variables' first-occurrence order hit; a renumbered isomorphic
//! query, a different free set, relation symbol, join structure or atom
//! misses; statistics hit whatever their order and labels.  Also pinned:
//! cross-engine serving and deterministic LRU eviction.
//!
//! The plan cache is process-wide, so every test in this binary holds
//! `CACHE_LOCK` while it manipulates cache state; other test binaries are
//! separate processes with their own cache.

// panda-lint: allow(D2) -- test-only serialisation of this binary's tests
// around the process-wide plan cache; ordering affects which test runs
// first, never any engine output.
use std::sync::{Mutex, MutexGuard, PoisonError};

use panda::config::{Engine, Parallelism};
use panda::prelude::*;
use panda::workloads;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// panda-lint: allow(D2) -- see above: test serialisation only.
static CACHE_LOCK: Mutex<()> = Mutex::new(());

fn cache_guard() -> MutexGuard<'static, ()> {
    // panda-lint: allow(D2) -- see above: test serialisation only.
    CACHE_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Raw rows in storage order — the bit-level comparison.
fn raw_rows(rel: &VarRelation) -> Vec<Vec<u64>> {
    rel.rel.iter().map(<[u64]>::to_vec).collect()
}

/// A report rendered for comparison with `cache_events` cleared: the one
/// field in which a warm report may differ from its cold twin.
fn report_modulo_cache_events(report: &PlanReport) -> String {
    let mut r = report.clone();
    r.cache_events = Vec::new();
    format!("{r:?}")
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

/// One cold run followed by one warm run of the same query/database/
/// engine cell, asserting the full bit-identity contract.  Returns the
/// cold (report, explain, rows) triple for cross-cell comparisons.
fn assert_cold_warm_identical(
    query: &ConjunctiveQuery,
    db: &Database,
    engine: Engine,
    label: &str,
) -> (PlanReport, String, Vec<Vec<u64>>) {
    plan_cache_clear();
    let panda = Panda::new(query.clone()).with_engine(engine);

    let cold_report = panda.plan_report(db).unwrap();
    let cold_explain = panda.explain(db).unwrap().to_string();
    let cold_rows = raw_rows(&panda.evaluate(db));

    let warm_report = panda.plan_report(db).unwrap();
    let warm_explain = panda.explain(db).unwrap().to_string();
    let warm_rows = raw_rows(&panda.evaluate(db));

    assert_eq!(cold_rows, warm_rows, "{label}: warm rows must be bit-identical to cold");
    assert_eq!(cold_explain, warm_explain, "{label}: warm EXPLAIN must be byte-identical to cold");
    assert_eq!(
        report_modulo_cache_events(&cold_report),
        report_modulo_cache_events(&warm_report),
        "{label}: warm report must equal cold up to cache_events"
    );
    assert_eq!(
        cold_report.cache_events.first(),
        Some(&ReasonCode::PlanCacheMiss),
        "{label}: the first cold report is a miss"
    );
    assert_eq!(
        warm_report.cache_events,
        vec![ReasonCode::PlanCacheHit],
        "{label}: the warm report is a pure hit"
    );
    (cold_report, cold_explain, cold_rows)
}

/// The E-workload matrix: every (workload, engine) cell is cold/warm
/// bit-identical, and the cells of one workload agree with each other on
/// rows and EXPLAIN bytes (planning is engine-independent, cached or not).
#[test]
fn e_workloads_cold_and_warm_runs_are_bit_identical() {
    let _guard = cache_guard();
    let cases: Vec<(ConjunctiveQuery, Database, &str)> = vec![
        // E1: Figure 2's example instance under the projected 4-cycle.
        (workloads::four_cycle_projected(), workloads::figure2_db(), "figure2"),
        // E7/E8: the fhtw-hard double star (heavy/light case splits).
        (workloads::four_cycle_projected(), workloads::double_star_db(24), "double_star"),
        (workloads::four_cycle_full(), workloads::double_star_db(16), "double_star_full"),
        // E9: the triangle query on an Erdős–Rényi graph.
        (
            workloads::triangle_query(),
            workloads::erdos_renyi_db(&["R", "S", "T"], 40, 300, 9),
            "erdos_renyi",
        ),
        // E13: a free-connex acyclic path query.
        (workloads::two_path_projected(), random_graph_db(&["R", "S"], 30, 200, 11), "path"),
    ];
    let engines = [Engine::Sequential, Engine::Parallel(Parallelism::threads(2))];
    for (query, db, label) in &cases {
        let mut reference: Option<(String, Vec<Vec<u64>>)> = None;
        for engine in engines {
            let cell = format!("{label}/{}threads", engine.threads());
            let (_, explain, rows) = assert_cold_warm_identical(query, db, engine, &cell);
            match &reference {
                None => reference = Some((explain, rows)),
                Some((ref_explain, ref_rows)) => {
                    assert_eq!(ref_explain, &explain, "{cell}: EXPLAIN is cell-independent");
                    assert_eq!(ref_rows, &rows, "{cell}: rows are cell-independent");
                }
            }
        }
    }
}

/// A plan cached under the sequential engine serves a parallel evaluator
/// (and vice versa) bit-identically: the cache key excludes the thread
/// count because planning is engine-independent.
#[test]
fn cached_plans_serve_across_engines() {
    let _guard = cache_guard();
    let query = workloads::four_cycle_projected();
    let db = workloads::double_star_db(24);

    plan_cache_clear();
    let seq = Panda::new(query.clone()).with_engine(Engine::Sequential);
    let cold_report = seq.plan_report(&db).unwrap();
    let cold_explain = seq.explain(&db).unwrap().to_string();
    let cold_rows = raw_rows(&seq.evaluate(&db));

    let par = Panda::new(query).with_engine(Engine::Parallel(Parallelism::threads(4)));
    let warm_report = par.plan_report(&db).unwrap();
    let warm_explain = par.explain(&db).unwrap().to_string();
    let warm_rows = raw_rows(&par.evaluate(&db));

    assert_eq!(cold_report.cache_events.first(), Some(&ReasonCode::PlanCacheMiss));
    assert_eq!(warm_report.cache_events, vec![ReasonCode::PlanCacheHit]);
    assert_eq!(cold_explain, warm_explain);
    assert_eq!(cold_rows, warm_rows);
    assert_eq!(report_modulo_cache_events(&cold_report), report_modulo_cache_events(&warm_report));
}

/// The key is the query as parsed: renamed variables, a renamed head and
/// body-atom permutations that keep the order in which the variables
/// first occur leave it unchanged, so each variant hits the base query's
/// slot, and a warm variant run is bit-identical to its own cold run.
#[test]
fn same_numbering_variants_share_a_slot_and_stay_bit_identical() {
    let _guard = cache_guard();
    let base = parse_query("Q(X,Y) :- R(X,Y), S(Y,Z), T(Z,W), U(W,X)").unwrap();
    // Renamed variables and a renamed head.
    let renamed = parse_query("P(A,B) :- R(A,B), S(B,C), T(C,D), U(D,A)").unwrap();
    // Body atoms permuted; X,Y,Z,W still first occur in that order.
    let permuted = parse_query("Q(X,Y) :- R(X,Y), S(Y,Z), U(W,X), T(Z,W)").unwrap();
    let db = workloads::double_star_db(24);

    // Cold references, one per variant, with the cache disabled-by-clear
    // before each so every reference is genuinely cold.
    let mut cold = Vec::new();
    for q in [&base, &renamed, &permuted] {
        plan_cache_clear();
        let p = Panda::new(q.clone());
        cold.push((p.explain(&db).unwrap().to_string(), raw_rows(&p.evaluate(&db))));
    }

    // Warm pass: plan the base query once, then every variant must hit.
    plan_cache_clear();
    let before = plan_cache_stats();
    let base_panda = Panda::new(base.clone());
    let _ = base_panda.plan_report(&db).unwrap();
    let _ = base_panda.evaluate(&db);
    for (q, (cold_explain, cold_rows)) in [&base, &renamed, &permuted].into_iter().zip(&cold) {
        let p = Panda::new(q.clone());
        let report = p.plan_report(&db).unwrap();
        assert_eq!(
            report.cache_events,
            vec![ReasonCode::PlanCacheHit],
            "a same-numbering variant must hit the plan cache"
        );
        assert_eq!(&p.explain(&db).unwrap().to_string(), cold_explain);
        assert_eq!(&raw_rows(&p.evaluate(&db)), cold_rows);
    }
    let after = plan_cache_stats();
    // Base: 1 report miss; its evaluation is served by the report-path
    // entry (the fallback tier).  Variants: all hits.
    assert_eq!(after.misses - before.misses, 1);
    assert!(after.hits - before.hits >= 6);
}

/// An isomorphic query whose variables first occur in a *different order*
/// has a different key: it misses, plans on its own key, and its warm
/// rows and EXPLAIN are bit-identical to its cold ones.
#[test]
fn a_renumbered_isomorphic_query_misses_and_plans_on_its_own_key() {
    let _guard = cache_guard();
    // Triangle with rotated body: numbering by first occurrence gives the
    // second query a genuinely different variable numbering.
    let q1 = parse_query("Q(X,Y,Z) :- R(X,Y), S(Y,Z), T(Z,X)").unwrap();
    let q2 = parse_query("Q(Y,Z,X) :- S(Y,Z), T(Z,X), R(X,Y)").unwrap();
    let db = workloads::erdos_renyi_db(&["R", "S", "T"], 40, 300, 9);

    plan_cache_clear();
    let p2 = Panda::new(q2.clone());
    let cold_explain = p2.explain(&db).unwrap().to_string();
    let cold_rows = raw_rows(&p2.evaluate(&db));

    plan_cache_clear();
    let _ = Panda::new(q1).evaluate(&db);
    let before = plan_cache_stats();
    let p2 = Panda::new(q2);
    let first = p2.plan_report(&db).unwrap();
    assert_eq!(first.cache_events, vec![ReasonCode::PlanCacheMiss], "q2 misses q1's slot");
    let warm_explain = p2.explain(&db).unwrap().to_string();
    let warm_rows = raw_rows(&p2.evaluate(&db));
    let after = plan_cache_stats();

    assert_eq!(cold_explain, warm_explain, "warm EXPLAIN must be byte-identical to cold");
    assert_eq!(cold_rows, warm_rows, "warm rows must be bit-identical to cold");
    assert_eq!(after.misses - before.misses, 1, "q2 plans once, on its own key");
    assert_eq!(after.hits - before.hits, 2, "q2's EXPLAIN and QUERY are served its own plan");
    assert_eq!(after.entries, 2, "q1 and q2 hold one slot each");
}

/// Queries that differ in what planning reads — the free set, a relation
/// symbol, the join structure, an extra atom — never share a key.
#[test]
fn queries_that_plan_differently_get_different_keys() {
    let _guard = cache_guard();
    let db = random_graph_db(&["R", "S", "T"], 12, 40, 3);
    let base = "Q(X,Y) :- R(X,Y), S(Y,Z)";
    for other in [
        // Different free set.
        "Q(X,Z) :- R(X,Y), S(Y,Z)",
        // Different relation symbol.
        "Q(X,Y) :- R(X,Y), T(Y,Z)",
        // Different join structure.
        "Q(X,Y) :- R(X,Y), S(X,Z)",
        // Extra atom.
        "Q(X,Y) :- R(X,Y), S(Y,Z), S(Z,X)",
    ] {
        plan_cache_clear();
        let _ = Panda::new(parse_query(base).unwrap()).plan_report(&db).unwrap();
        let report = Panda::new(parse_query(other).unwrap()).plan_report(&db).unwrap();
        assert_eq!(report.cache_events, vec![ReasonCode::PlanCacheMiss], "{other} after {base}");
    }
}

/// The statistics part of the key ignores the order of the constraints
/// and their human-readable labels: a body-atom permutation measures them
/// in another order and hits, and so do supplied statistics reversed and
/// relabelled.  Different data misses.
#[test]
fn statistics_keys_ignore_order_and_labels() {
    let _guard = cache_guard();
    // The same variables first occur in the same order in both bodies.
    let q1 = parse_query("Q(X,Y) :- R(X,Y), S(Y,Z), T(X,Z)").unwrap();
    let q2 = parse_query("Q(A,B) :- R(A,B), T(A,C), S(B,C)").unwrap();
    let mut db = random_graph_db(&["R", "T"], 6, 10, 4);
    db.insert("S", panda::relation::Relation::from_rows(2, vec![[2, 5], [3, 5], [3, 6]]));
    let (s1, s2) = (StatisticsSet::measure(&q1, &db), StatisticsSet::measure(&q2, &db));
    assert_ne!(s1.stats(), s2.stats(), "the atom order is the measurement order");
    let mut relabelled = StatisticsSet::new(s1.base());
    for (i, stat) in s1.stats().iter().rev().enumerate() {
        relabelled.push(Statistic { label: format!("constraint #{i}"), ..stat.clone() });
    }

    plan_cache_clear();
    let _ = Panda::new(q1.clone()).plan_report(&db).unwrap();
    let report = Panda::new(q2).plan_report(&db).unwrap();
    assert_eq!(report.cache_events, vec![ReasonCode::PlanCacheHit], "measured in another order");

    plan_cache_clear();
    let _ = Panda::new(q1.clone()).with_statistics(s1).plan_report(&db).unwrap();
    let report = Panda::new(q1.clone()).with_statistics(relabelled).plan_report(&db).unwrap();
    assert_eq!(report.cache_events, vec![ReasonCode::PlanCacheHit], "reversed and relabelled");

    // Different data, different statistics, different key.
    db.insert("S", panda::relation::Relation::from_rows(2, vec![[2, 5]]));
    let report = Panda::new(q1).plan_report(&db).unwrap();
    assert_eq!(report.cache_events, vec![ReasonCode::PlanCacheMiss]);
}

/// A symmetric self-join — every atom the same symbol, every variable in
/// two atoms — keys on the query as parsed like any other: it hits warm,
/// bit-identical to cold, under both engines.
#[test]
fn a_symmetric_self_join_hits_warm_and_stays_bit_identical() {
    let _guard = cache_guard();
    let query = parse_query("Tri() :- E(A,B), E(B,C), E(C,A)").unwrap();
    let db = random_graph_db(&["E"], 20, 120, 5);
    for engine in [Engine::Sequential, Engine::Parallel(Parallelism::threads(2))] {
        let label = format!("triangle self-join/{}threads", engine.threads());
        assert_cold_warm_identical(&query, &db, engine, &label);
    }
}

/// LRU eviction is deterministic in access counts: filling the cache past
/// capacity evicts exactly the least-recently-used entry, the eviction is
/// surfaced as a `PlanCacheEvict` event, and the evicted key re-plans as a
/// miss.
#[test]
fn lru_eviction_is_deterministic_and_observable() {
    let _guard = cache_guard();
    let query = parse_query("Q(X,Y) :- R(X,Y), S(Y,Z)").unwrap();
    plan_cache_clear();
    let before = plan_cache_stats();
    // Distinct databases give distinct statistics, hence distinct keys for
    // the same query.  Capacity + 1 inserts forces exactly one eviction.
    let dbs: Vec<Database> = (0..=panda::core::PLAN_CACHE_CAP)
        .map(|i| random_graph_db(&["R", "S"], 10 + i as u64, 20 + i, i as u64))
        .collect();
    let mut evict_seen = false;
    for db in &dbs {
        let report = Panda::new(query.clone()).plan_report(db).unwrap();
        evict_seen |= report.cache_events.contains(&ReasonCode::PlanCacheEvict);
    }
    let mid = plan_cache_stats();
    assert!(evict_seen, "the capacity+1'th insert reports PlanCacheEvict");
    assert_eq!(mid.evictions - before.evictions, 1);
    assert_eq!(mid.entries, panda::core::PLAN_CACHE_CAP);
    // The victim was the first (least recently used) database's entry.
    let report = Panda::new(query.clone()).plan_report(&dbs[0]).unwrap();
    assert_eq!(report.cache_events.first(), Some(&ReasonCode::PlanCacheMiss));
    // Every later entry is still resident.
    let report = Panda::new(query).plan_report(&dbs[2]).unwrap();
    assert_eq!(report.cache_events, vec![ReasonCode::PlanCacheHit]);
}

/// Two 4-cycle instances with equal measured statistics — every relation
/// has 40 rows and max-degree 16 both ways — and different degree buckets:
/// `A` is a double star with 16 leaves a side plus 8 matching edges; `B`
/// turns 4 of those edges into a star, which adds a degree-4 bucket to
/// every relation (81 branches for `A`, 256 for `B`).
fn equal_statistics_instances() -> (Database, Database) {
    let instance = |star: bool| {
        let mut rel = panda::relation::Relation::new(2);
        for leaf in 2..18 {
            rel.push_row(&[leaf, 1]);
            rel.push_row(&[1, leaf]);
        }
        for j in 0..8 {
            if star && j >= 4 {
                rel.push_row(&[300, 400 + j]);
            } else {
                rel.push_row(&[100 + j, 200 + j]);
            }
        }
        let mut db = Database::new();
        for name in ["R", "S", "T", "U"] {
            db.insert(name, rel.clone());
        }
        db
    };
    (instance(false), instance(true))
}

/// Plans `second` cold, then again warm after `first` filled the cache
/// under the same key: the warm report, EXPLAIN and rows must equal the
/// cold ones.  Returns the cold report.
fn assert_warm_serves_the_second_instance_as_cold(
    panda: &Panda,
    first: &Database,
    second: &Database,
    label: &str,
) -> PlanReport {
    plan_cache_clear();
    let cold_report = panda.plan_report(second).unwrap();
    let cold_explain = panda.explain(second).unwrap().to_string();
    let cold_rows = raw_rows(&panda.evaluate(second));

    plan_cache_clear();
    let _ = panda.plan_report(first).unwrap();
    let warm_report = panda.plan_report(second).unwrap();
    let warm_explain = panda.explain(second).unwrap().to_string();
    let warm_rows = raw_rows(&panda.evaluate(second));

    assert_eq!(warm_report.cache_events, vec![ReasonCode::PlanCacheHit], "{label}: same key");
    assert_eq!(
        report_modulo_cache_events(&warm_report),
        report_modulo_cache_events(&cold_report),
        "{label}: a warm report describes this request's data"
    );
    assert_eq!(warm_explain, cold_explain, "{label}: warm EXPLAIN");
    assert_eq!(warm_rows, cold_rows, "{label}: warm rows");
    cold_report
}

/// A cached plan is a function of its key.  Two databases with equal
/// statistics share a key, so what the plan does with the data — its
/// branches, shared subplans and the budgets that read the data — must
/// come from the request's own data, not from whichever database planned
/// first.
#[test]
fn a_cached_plan_is_bound_to_each_requests_data() {
    let _guard = cache_guard();
    let query = workloads::four_cycle_projected();
    let (a, b) = equal_statistics_instances();
    assert_eq!(StatisticsSet::measure(&query, &a), StatisticsSet::measure(&query, &b));

    let panda = Panda::new(query.clone());
    let a_report = assert_warm_serves_the_second_instance_as_cold(&panda, &b, &a, "A after B");
    let b_report = assert_warm_serves_the_second_instance_as_cold(&panda, &a, &b, "B after A");
    assert_eq!(b_report.strategy, EvaluationStrategy::Adaptive);
    assert_eq!((a_report.branch_count, b_report.branch_count), (81, 256));
    assert_eq!((a_report.materializations.len(), b_report.materializations.len()), (30, 52));

    // The branch budget binds on B's 256 branches, warm as cold.
    let budgeted = Panda::new(query).with_budgets(Budgets::unlimited().with_branch_budget(81));
    let a_report = assert_warm_serves_the_second_instance_as_cold(&budgeted, &b, &a, "budget A");
    let b_report = assert_warm_serves_the_second_instance_as_cold(&budgeted, &a, &b, "budget B");
    assert_eq!(a_report.strategy, EvaluationStrategy::Adaptive);
    assert!(a_report.downgrades.is_empty());
    assert_eq!(b_report.strategy, EvaluationStrategy::BinaryJoin);
    assert_eq!(
        b_report.downgrades.iter().map(|d| d.reason).collect::<Vec<_>>(),
        vec![ReasonCode::BranchBudgetExceeded]
    );
    assert_eq!(b_report.branch_count, 256, "the triggering count is reported");
}

/// With statistics supplied through `with_statistics` the key holds no
/// trace of the data at all, so any two databases share it: the double
/// star at 16 and at 64 leaves a side must each be served as cold, and a
/// memory budget between their estimated bag sizes binds on the larger
/// one only, warm as cold.
#[test]
fn supplied_statistics_share_a_key_across_databases() {
    let _guard = cache_guard();
    let query = workloads::four_cycle_projected();
    let stats = StatisticsSet::identical_cardinalities(&query, 1 << 12);
    let (small, large) = (workloads::double_star_db(16), workloads::double_star_db(64));

    let panda = Panda::new(query.clone()).with_statistics(stats.clone());
    for (first, second, label) in [(&large, &small, "16 after 64"), (&small, &large, "64 after 16")]
    {
        let report = assert_warm_serves_the_second_instance_as_cold(&panda, first, second, label);
        assert_eq!(report.strategy, EvaluationStrategy::Adaptive);
    }

    let budgeted = Panda::new(query)
        .with_statistics(stats)
        .with_budgets(Budgets::unlimited().with_memory_rows_budget(1_000));
    let small_report =
        assert_warm_serves_the_second_instance_as_cold(&budgeted, &large, &small, "rows 16");
    let large_report =
        assert_warm_serves_the_second_instance_as_cold(&budgeted, &small, &large, "rows 64");
    assert_eq!(small_report.strategy, EvaluationStrategy::Adaptive);
    assert_eq!(large_report.strategy, EvaluationStrategy::BinaryJoin);
    assert_eq!(
        large_report.downgrades.iter().map(|d| d.reason).collect::<Vec<_>>(),
        vec![ReasonCode::MemoryBudgetExceeded]
    );
}

proptest! {
    // Random operator corpus: on random graph databases, cold and warm
    // runs of a cyclic (triangle) and an acyclic (projected path) query
    // are bit-identical; the engine alternates with the seed so both are
    // exercised across the corpus.
    #[test]
    fn random_databases_are_cold_warm_identical(
        n in 4u64..24,
        edges in 1usize..120,
        seed in 0u64..1_000,
    ) {
        let _guard = cache_guard();
        let queries = [workloads::triangle_query(), workloads::two_path_projected()];
        let db = random_graph_db(&["R", "S", "T"], n, edges, seed);
        let engine = if seed % 2 == 0 {
            Engine::Sequential
        } else {
            Engine::Parallel(Parallelism::threads(2))
        };
        for (i, query) in queries.iter().enumerate() {
            let label = format!("query#{i} seed={seed}");
            assert_cold_warm_identical(query, &db, engine, &label);
        }
    }
}
