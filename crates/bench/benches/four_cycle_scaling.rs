//! E8 — the headline experiment: adaptive (submodular-width) evaluation vs
//! the best single tree decomposition vs binary joins on the double-star
//! instance where fhtw-based plans need Ω(N²) work.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use panda_core::{BinaryJoinPlan, PandaEvaluator, StaticTdPlan};
use panda_workloads::{double_star_db, four_cycle_projected, s_square_statistics};
use std::time::Duration;

fn bench_scaling(c: &mut Criterion) {
    let query = four_cycle_projected();
    let stats = s_square_statistics(1 << 20);
    let fhtw = panda_entropy::fhtw(&query, &stats).unwrap();
    let subw = panda_entropy::subw(&query, &stats).unwrap();
    let adaptive = PandaEvaluator::from_reports(&query, &subw, &fhtw);
    let static_plan = StaticTdPlan::new(fhtw.best_td().clone());
    let binary = BinaryJoinPlan::new();
    let mut group = c.benchmark_group("four_cycle_double_star");
    for half in [256u64, 1024] {
        let db = double_star_db(half);
        let n = half * 2;
        group.bench_with_input(BenchmarkId::new("adaptive", n), &db, |b, db| {
            b.iter(|| adaptive.evaluate(&query, db).len());
        });
        group.bench_with_input(BenchmarkId::new("static_td", n), &db, |b, db| {
            b.iter(|| static_plan.evaluate(&query, db).len());
        });
        group.bench_with_input(BenchmarkId::new("binary_join", n), &db, |b, db| {
            b.iter(|| binary.evaluate(&query, db).len());
        });
    }
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(1500))
}

criterion_group! { name = benches; config = config(); targets = bench_scaling }
criterion_main!(benches);
