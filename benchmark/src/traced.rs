//! The traced phase: where one round's time goes, layer by layer.
//!
//! Three replays of the same rounds, each a little further inside:
//!
//! 1. **wire** — against the server child, as the end-to-end phase does;
//! 2. **session** — the same requests through an embedded `Session`, so
//!    wire cost is the difference to (1);
//! 3. **staged** — each `LOAD` and `QUERY` through the public library
//!    calls of `layers.rs`, one span per stage.
//!
//! Every timing is *seconds per round, median over the rounds replayed*;
//! every count is exact and taken from the first round, so it repeats for
//! a seed no matter how many rounds the time budget allowed.

use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::client::{read_cost_s, Ack};
use crate::e2e::{kind_latency_ms, load_rows_per_s, round_median_s, run_wire, verify, Reference};
use crate::layers::{self, Counts};
use crate::reference::DbState;
use crate::report::{Metric, Outcome};
use crate::trace::Tracer;
use crate::workloads::{apply, wire, Op, Workload};

/// Name, unit and better-direction of every per-layer metric, in the
/// order reported.  `BENCHMARK.json`'s `per_layer` lists the same names.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("query.parse_s", "s"),
    ("query.td_enumerate_s", "s"),
    ("query.tds", "count"),
    ("relation.load_s", "s"),
    ("relation.rows_loaded", "count"),
    ("relation.measure_s", "s"),
    ("relation.stats_measured", "count"),
    ("entropy.fhtw_s", "s"),
    ("entropy.fhtw_lps", "count"),
    ("entropy.subw_s", "s"),
    ("entropy.subw_lps", "count"),
    ("entropy.certify_s", "s"),
    ("lp.pivots", "count"),
    ("lp.pivots_per_s", "1/s"),
    ("proof.derive_s", "s"),
    ("proof.steps", "count"),
    ("panda-core.plan_s", "s"),
    ("panda-core.plan_warm_s", "s"),
    ("panda-core.plan_cache_hit_ratio", "ratio"),
    ("panda-core.branch_build_s", "s"),
    ("panda-core.branches", "count"),
    ("panda-core.bag_materialize_s", "s"),
    ("panda-core.bag_rows", "count"),
    ("panda-core.bag_rows_max", "count"),
    ("panda-core.yannakakis_s", "s"),
    ("panda-core.evaluate_s", "s"),
    ("panda-core.rows_out", "count"),
    ("panda-core.rows_examined_per_row_out", "ratio"),
    ("server.session_round_s", "s"),
    ("server.render_s", "s"),
    ("server.load_parse_s", "s"),
    ("server.wire_s", "s"),
    ("server.reply_bytes", "bytes"),
    ("wire.round_s", "s"),
    ("wire.delayed_ack_round_s", "s"),
    ("wire.query_p90_ms", "ms"),
    ("wire.explain_p50_ms", "ms"),
    ("wire.load_p50_ms", "ms"),
    ("wire.load_rows_per_s", "rows/s"),
    ("bench.client_read_s", "s"),
    ("trace.coverage_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

fn session_span(op: &Op) -> &'static str {
    match op {
        Op::Load { .. } => "session.LOAD",
        Op::Query(_) => "session.QUERY",
        Op::Explain(_) => "session.EXPLAIN",
    }
}

/// Runs whole rounds (at least one) until `budget` has passed.
fn rounds_for(
    budget: Duration,
    mut round: impl FnMut(u64) -> Result<(), String>,
) -> Result<(), String> {
    let deadline = Instant::now() + budget;
    let mut r = 0;
    while r == 0 || Instant::now() < deadline {
        r += 1;
        round(r)?;
    }
    Ok(())
}

/// Replay 2: the workload through an embedded `Session`.  Returns ops
/// attempted and ops whose reply disagrees with the reference.
fn replay_session(
    tr: &mut Tracer,
    workload: &Workload,
    budget: Duration,
) -> Result<(u64, u64), String> {
    let mut session = layers::session();
    let mut state = DbState::new();
    let mut reference = Reference::default();
    let (mut attempted, mut failed) = (0, 0);
    let mut request = |tr: &mut Tracer, state: &mut DbState, op: &Op, span: &'static str| {
        let lines = layers::session_request(tr, &mut session, span, &wire(op, workload.shapes()));
        apply(state, op);
        let header = lines.first().map_or("", String::as_str);
        let good = header.starts_with("OK")
            && match op {
                Op::Query(shape) => {
                    lines.len() as u64 - 1 == reference.answer(workload, *shape, state).n
                }
                _ => true,
            };
        attempted += 1;
        failed += u64::from(!good);
    };
    tr.set_op(0);
    for op in workload.setup() {
        request(tr, &mut state, &op, "session.setup");
    }
    rounds_for(budget, |r| {
        tr.set_op(r);
        for op in workload.round(r) {
            request(tr, &mut state, &op, session_span(&op));
        }
        Ok(())
    })?;
    Ok((attempted, failed))
}

/// What the staged replay found.
#[derive(Default)]
struct Staged {
    /// Exact work counts of the first round.
    counts: Counts,
    /// Share of whole-query evaluations whose plan came from the cache.
    hit_ratio: f64,
    evaluations: u64,
    /// Evaluations whose row count disagrees with the reference.
    failed: u64,
}

/// Replay 3: the workload through the library's public calls.  Two
/// databases are kept in step: `QUERY`s are evaluated whole on one at the
/// temperature the server would see, and staged on the other, whose
/// freshly loaded relations no evaluation has touched yet — so a staged
/// `measure` after a `LOAD` is as cold as the real one.
fn replay_staged(tr: &mut Tracer, workload: &Workload, budget: Duration) -> Result<Staged, String> {
    layers::forget_plans();
    let (mut whole, mut shadow) = (layers::database(), layers::database());
    let mut state = DbState::new();
    let mut reference = Reference::default();
    let mut scratch = Counts::default();
    tr.set_op(0);
    for op in workload.setup() {
        match &op {
            Op::Load { rel, rows } => {
                layers::load(&mut whole, rel, rows);
                layers::load(&mut shadow, rel, rows);
            }
            Op::Query(shape) => {
                tr.time("staged.setup", |tr| {
                    layers::evaluate(tr, workload.shapes()[*shape].text, &whole, &mut scratch)
                })?;
            }
            Op::Explain(shape) => {
                tr.time("staged.setup", |tr| {
                    layers::explain(tr, workload.shapes()[*shape].text, &whole)
                })?;
            }
        }
        apply(&mut state, &op);
    }

    let mut first_round = Counts::default();
    let (mut hits, mut evaluations, mut failed) = (0u64, 0u64, 0u64);
    rounds_for(budget, |r| {
        tr.set_op(r);
        let mut counts = Counts::default();
        for op in workload.round(r) {
            apply(&mut state, &op);
            match &op {
                Op::Load { rel, rows } => {
                    layers::load_timed(tr, &mut whole, rel, rows, &mut counts);
                    layers::load(&mut shadow, rel, rows);
                }
                Op::Query(shape) => {
                    let text = workload.shapes()[*shape].text;
                    let (n, hit) = layers::evaluate(tr, text, &whole, &mut counts)?;
                    evaluations += 1;
                    hits += u64::from(hit);
                    failed += u64::from(n != reference.answer(workload, *shape, &state).n);
                    layers::stage(tr, text, &shadow, &mut counts)?;
                }
                // Staging has just planned this query through the same
                // report path: an EXPLAIN here would be a cache hit the
                // server never sees.  `panda-core.plan_s` is its cold cost.
                Op::Explain(_) => {}
            }
        }
        if r == 1 {
            first_round = counts;
        }
        Ok(())
    })?;
    let hit_ratio = hits as f64 / evaluations.max(1) as f64;
    Ok(Staged { counts: first_round, hit_ratio, evaluations, failed })
}

/// The traced run of one workload: every metric of `BENCHMARK.json`'s
/// `per_layer`, and the span file `out/trace_<workload>.json` under `out`.
pub fn run(
    bin: &Path,
    workload: &Workload,
    seconds: f64,
    out: &Path,
    environment: &[(String, String)],
) -> io::Result<Outcome> {
    let mut tr = Tracer::new();
    let quarter = Duration::from_secs_f64(seconds / 4.0);

    let wire_run = run_wire(bin, workload, quarter.as_secs_f64(), 1, Ack::Prompt, Some(&mut tr))?;
    let mut guard_failures = wire_run.guard_failures.clone();
    let mut attempted = wire_run.records.len() as u64;
    let mut failed = verify(workload, &wire_run.records);
    let client_read_s = read_cost_s(&wire_run.sample_reply, 11)?;
    // A few rounds as a plain client sees them; see `client::Ack`.
    let delayed = run_wire(bin, workload, seconds / 8.0, 1, Ack::Delayed, None)?;
    guard_failures.extend(delayed.guard_failures.iter().cloned());
    attempted += delayed.records.len() as u64;
    failed += verify(workload, &delayed.records);

    let mut staged = Staged::default();
    match replay_session(&mut tr, workload, quarter) {
        Ok((a, f)) => {
            attempted += a;
            failed += f;
        }
        Err(e) => guard_failures.push(format!("{}: session replay: {e}", workload.name())),
    }
    let staged_start = Instant::now();
    let spans_before = tr.len();
    match replay_staged(&mut tr, workload, quarter * 3 / 2) {
        Ok(found) => {
            attempted += found.evaluations;
            failed += found.failed;
            staged = found;
        }
        Err(e) => guard_failures.push(format!("{}: staged replay: {e}", workload.name())),
    }
    let staged_s = staged_start.elapsed().as_secs_f64();
    let recorder_s = (tr.len() - spans_before) as f64 * Tracer::span_cost_s();

    std::fs::create_dir_all(out)?;
    std::fs::write(
        out.join(format!("trace_{}.json", workload.name())),
        tr.json(workload.name(), environment),
    )?;

    let Staged { counts, hit_ratio, .. } = staged;
    let s = |name: &str| tr.round_median_s(name);
    let wire_round_s = round_median_s(&wire_run.records);
    let session_round_s = s("session.LOAD") + s("session.QUERY") + s("session.EXPLAIN");
    let evaluate_s = s("panda-core.evaluate");
    let lp_s = s("entropy.fhtw") + s("entropy.subw");
    // What a round's evaluations are made of: statistics, then either the
    // cold planning chain or a cache lookup, then execution.
    let planning_s = if hit_ratio > 0.5 {
        s("panda-core.plan_warm")
    } else {
        s("query.td_enumerate") + lp_s + s("proof.derive")
    };
    let execution_s = s("panda-core.branch_build")
        + s("panda-core.choose_td")
        + s("panda-core.bag_materialize")
        + s("panda-core.yannakakis")
        + s("panda-core.union");
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let reply_bytes = wire_run
        .records
        .iter()
        .filter(|r| matches!(r.op, Op::Query(_)))
        .map(|r| r.reply.bytes)
        .max()
        .unwrap_or(0);

    let value = |name: &str| -> f64 {
        match name {
            "query.parse_s" => s("query.parse"),
            "query.td_enumerate_s" => s("query.td_enumerate"),
            "relation.load_s" => s("relation.load"),
            "relation.measure_s" => s("relation.measure"),
            "entropy.fhtw_s" => s("entropy.fhtw"),
            "entropy.subw_s" => s("entropy.subw"),
            "entropy.certify_s" => s("entropy.certify"),
            "lp.pivots_per_s" => ratio(counts.get("lp.pivots"), lp_s),
            "proof.derive_s" => s("proof.derive"),
            "panda-core.plan_s" => s("panda-core.plan"),
            "panda-core.plan_warm_s" => s("panda-core.plan_warm"),
            "panda-core.plan_cache_hit_ratio" => hit_ratio,
            "panda-core.branch_build_s" => s("panda-core.branch_build"),
            "panda-core.bag_materialize_s" => s("panda-core.bag_materialize"),
            "panda-core.yannakakis_s" => s("panda-core.yannakakis"),
            "panda-core.evaluate_s" => evaluate_s,
            "panda-core.rows_examined_per_row_out" => {
                ratio(counts.get("panda-core.bag_rows"), counts.get("panda-core.rows_out"))
            }
            "server.session_round_s" => session_round_s,
            "server.render_s" => s("session.QUERY") - evaluate_s,
            "server.load_parse_s" => s("session.LOAD") - s("relation.load"),
            "server.wire_s" => wire_round_s - session_round_s,
            "server.reply_bytes" => reply_bytes as f64,
            "wire.round_s" => wire_round_s,
            "wire.delayed_ack_round_s" => round_median_s(&delayed.records),
            "wire.query_p90_ms" => kind_latency_ms(&wire_run.records, "QUERY", 0.9),
            "wire.explain_p50_ms" => kind_latency_ms(&wire_run.records, "EXPLAIN", 0.5),
            "wire.load_p50_ms" => kind_latency_ms(&wire_run.records, "LOAD", 0.5),
            "wire.load_rows_per_s" => load_rows_per_s(&wire_run.records),
            "bench.client_read_s" => client_read_s,
            "trace.coverage_ratio" => {
                ratio(s("relation.measure") + planning_s + execution_s, evaluate_s)
            }
            "trace.overhead_ratio" => ratio(staged_s, staged_s - recorder_s),
            count => counts.get(count),
        }
    };
    let metrics =
        PER_LAYER.iter().map(|&(name, unit)| Metric { name, unit, value: value(name) }).collect();
    Ok(Outcome { attempted, failed, guard_failures, metrics })
}
