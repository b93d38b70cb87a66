//! Micro-benchmarks of the relational operator layer: cached vs fresh hash
//! indexes and cached degree measurements — the constant factors the
//! adaptive plans pay per partition (ROADMAP "Hot paths").

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use panda_relation::{operators, stats, Relation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

fn random_pairs(n: u64, rows: usize, seed: u64) -> Vec<[u64; 2]> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..rows).map(|_| [rng.gen_range(0..n), rng.gen_range(0..n)]).collect()
}

fn bench_join_paths(c: &mut Criterion) {
    // A nearly key-unique workload: the output stays around |L| rows, so
    // the timings expose index construction rather than output writing.
    let lrows = random_pairs(30_000, 30_000, 1);
    let rrows = random_pairs(30_000, 30_000, 2);
    let left = Relation::from_rows(2, lrows.iter()).deduped();
    let right = Relation::from_rows(2, rrows.iter()).deduped();
    let on = [(1usize, 0usize)];

    let mut group = c.benchmark_group("operator_join");
    // Cold: fresh relations each iteration, so every join builds its index.
    group.bench_function(BenchmarkId::new("hash", "cold_index"), |b| {
        b.iter(|| {
            let l = Relation::from_rows(2, lrows.iter());
            let r = Relation::from_rows(2, rrows.iter());
            operators::join(&l, &r, &on).len()
        });
    });
    // Warm: the shared relations carry their cached index after the first
    // iteration — the steady state of repeated joins in the evaluators.
    group.bench_function(BenchmarkId::new("hash", "warm_index"), |b| {
        b.iter(|| operators::join(&left, &right, &on).len());
    });
    group.finish();
}

fn bench_semijoin_and_degrees(c: &mut Criterion) {
    let lrows = random_pairs(400, 30_000, 3);
    let rrows = random_pairs(400, 30_000, 4);
    let left = Relation::from_rows(2, lrows.iter()).deduped();
    let right = Relation::from_rows(2, rrows.iter()).deduped();

    let mut group = c.benchmark_group("operator_semijoin_stats");
    group.bench_function(BenchmarkId::new("semijoin", "cold_index"), |b| {
        b.iter(|| {
            let r = Relation::from_rows(2, rrows.iter());
            operators::semijoin(&left, &r, &[(1, 0)]).len()
        });
    });
    group.bench_function(BenchmarkId::new("semijoin", "warm_index"), |b| {
        b.iter(|| operators::semijoin(&left, &right, &[(1, 0)]).len());
    });
    group.bench_function(BenchmarkId::new("degrees", "cold"), |b| {
        b.iter(|| {
            let r = Relation::from_rows(2, lrows.iter());
            stats::max_degree(&r, &[0], &[1])
        });
    });
    group.bench_function(BenchmarkId::new("degrees", "warm"), |b| {
        b.iter(|| stats::max_degree(&left, &[0], &[1]));
    });
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(1200))
}

criterion_group! { name = benches; config = config(); targets = bench_join_paths, bench_semijoin_and_degrees }
criterion_main!(benches);
