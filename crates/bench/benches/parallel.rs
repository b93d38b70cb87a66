//! Sequential-vs-parallel A/B for the parallel execution layer: every
//! group benchmarks the *same* computation under `Engine::Sequential` and
//! `Engine::Parallel(4)` back to back (interleaved in one process, so the
//! pair shares cache warm-up and machine state).  Outputs are bit-identical
//! by construction — the `parallel_determinism` suite pins that — so the
//! rows differ in wall-clock time only.
//!
//! Covered fan-outs: the generic join's top-level candidate split, the
//! adaptive plan's degree branches (E8) and DDR branch evaluation (E7).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use panda_core::config::{Engine, Parallelism};
use panda_core::{DdrEvaluator, GenericJoin, PandaEvaluator};
use panda_entropy::StatisticsSet;
use panda_query::{BagSelector, DisjunctiveRule, Var, VarSet};
use panda_workloads::{
    double_star_db, erdos_renyi_db, four_cycle_full, four_cycle_projected, s_square_statistics,
    triangle_query,
};
use std::time::Duration;

/// The thread count of the parallel column, matching the CI matrix.
const PAR_THREADS: usize = 4;

fn par_engine() -> Engine {
    Engine::Parallel(Parallelism::threads(PAR_THREADS))
}

/// The generic join's top-level candidate split on output-heavy instances.
fn bench_wcoj(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_wcoj");
    let triangle = triangle_query();
    let tri_db = erdos_renyi_db(&["R", "S", "T"], 700, 16000, 1);
    let full = four_cycle_full();
    let cyc_db = erdos_renyi_db(&["R", "S", "T", "U"], 300, 9000, 2);
    for (label, query, db) in
        [("triangle", &triangle, &tri_db), ("four_cycle_full", &full, &cyc_db)]
    {
        group.bench_with_input(BenchmarkId::new(label, "seq"), db, |b, db| {
            b.iter(|| GenericJoin::evaluate_with_engine(query, db, Engine::Sequential).len());
        });
        group.bench_with_input(BenchmarkId::new(label, "par4"), db, |b, db| {
            b.iter(|| GenericJoin::evaluate_with_engine(query, db, par_engine()).len());
        });
    }
    group.finish();
}

/// The adaptive plan's degree branches on the fhtw-hard double star (E8).
fn bench_adaptive(c: &mut Criterion) {
    let query = four_cycle_projected();
    let stats = s_square_statistics(1 << 20);
    let fhtw = panda_entropy::fhtw(&query, &stats).unwrap();
    let subw = panda_entropy::subw(&query, &stats).unwrap();
    let evaluator = PandaEvaluator::from_reports(&query, &subw, &fhtw);
    let mut group = c.benchmark_group("parallel_adaptive_double_star");
    for half in [256u64, 512] {
        let db = double_star_db(half);
        group.bench_with_input(BenchmarkId::new("seq", half * 2), &db, |b, db| {
            b.iter(|| evaluator.evaluate_with_engine(&query, db, Engine::Sequential).len());
        });
        group.bench_with_input(BenchmarkId::new("par4", half * 2), &db, |b, db| {
            b.iter(|| evaluator.evaluate_with_engine(&query, db, par_engine()).len());
        });
    }
    group.finish();
}

/// DDR branch evaluation (E7, Eq. 38) on the double star.
fn bench_ddr(c: &mut Criterion) {
    let query = four_cycle_projected();
    let selector = BagSelector::new(vec![
        VarSet::from_iter([Var(0), Var(1), Var(2)]),
        VarSet::from_iter([Var(1), Var(2), Var(3)]),
    ]);
    let rule = DisjunctiveRule::for_bag_selector(&query, &selector);
    let mut group = c.benchmark_group("parallel_ddr_double_star");
    for half in [256u64, 512] {
        let db = double_star_db(half);
        let stats = StatisticsSet::measure(&query, &db);
        let evaluator = DdrEvaluator::plan(&rule, &stats).unwrap();
        group.bench_with_input(BenchmarkId::new("seq", half * 2), &db, |b, db| {
            b.iter(|| evaluator.evaluate_with_engine(db, Engine::Sequential).max_target_size());
        });
        group.bench_with_input(BenchmarkId::new("par4", half * 2), &db, |b, db| {
            b.iter(|| evaluator.evaluate_with_engine(db, par_engine()).max_target_size());
        });
    }
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(1200))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_wcoj, bench_adaptive, bench_ddr
}
criterion_main!(benches);
