//! The end-to-end phase: one closed-loop client against the real
//! `panda-server` child process, nothing traced inside the program.
//!
//! It depends on the wire protocol and the server binary only, so it
//! survives any refactor of the libraries behind them.

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::Path;
use std::rc::Rc;
use std::time::{Duration, Instant};

use crate::client::{Ack, Client, Reply, Server};
use crate::reference::{self, Answer, DbState};
use crate::report::{median, percentile, Metric, Outcome};
use crate::trace::Tracer;
use crate::workloads::{apply, wire, CacheStats, Op, Workload};

/// How many fresh server processes one run is split over.  Set-up has to
/// be measured several times for a steady `setup_s` anyway; serving a share
/// of the rounds from each of those servers, instead of discarding all but
/// one, also pools the ops over five processes' address layouts and hash
/// seeds.
pub const SEGMENTS: usize = 5;

/// One timed request and what came back.
pub struct Record {
    pub op: Op,
    pub round: u64,
    pub reply: Reply,
    /// The session database as the client mirrors it, for `QUERY`s.
    state: DbState,
}

/// Everything the wire phase observed.
pub struct WireRun {
    pub records: Vec<Record>,
    /// One entry per segment.
    pub setup_s: Vec<f64>,
    /// The server's `VmHWM` at the end of each segment.
    pub peak_rss_mb: Vec<f64>,
    pub guard_failures: Vec<String>,
    /// One whole `QUERY` reply, recorded after the clock stopped (traced
    /// runs only): what `bench.client_read_s` replays.
    pub sample_reply: Vec<u8>,
}

struct Connection {
    server: Server,
    client: Client,
    state: DbState,
}

/// Spawns a server, connects, and runs the set-up ops.  Guard failures
/// found on the way (an `ERR`, a wrong strategy) are pushed to `failures`.
fn set_up(
    bin: &Path,
    workload: &Workload,
    ack: Ack,
    failures: &mut Vec<String>,
) -> io::Result<Connection> {
    let server = Server::spawn(bin)?;
    let client = server.connect(ack)?;
    let mut conn = Connection { server, client, state: DbState::new() };
    for op in workload.setup() {
        let reply =
            conn.client.request(&wire(&op, workload.shapes()), matches!(op, Op::Explain(_)))?;
        if !reply.ok() {
            failures.push(format!(
                "{}: set-up {} answered `{}`",
                workload.name(),
                op.kind(),
                reply.header
            ));
        }
        if let (Op::Explain(_), Some(want)) = (&op, workload.required_strategy()) {
            if !reply.body.lines().any(|l| l == format!("strategy: {want}")) {
                failures
                    .push(format!("{}: EXPLAIN does not say `strategy: {want}`", workload.name()));
            }
        }
        apply(&mut conn.state, &op);
    }
    Ok(conn)
}

fn cache_stats(client: &mut Client) -> io::Result<CacheStats> {
    let reply = client.request(b"STATS\n", false)?;
    let n = |key| reply.number(key).unwrap_or(0);
    Ok(CacheStats { hits: n("hits"), misses: n("misses") })
}

/// Runs `segments` segments, each against a fresh server: set-up (timed,
/// for `setup_s`), then whole rounds for its share of `seconds`.  With a
/// tracer, every request is also recorded as a `wire.<KIND>` span of its
/// round.
pub fn run_wire(
    bin: &Path,
    workload: &Workload,
    seconds: f64,
    segments: usize,
    ack: Ack,
    mut tracer: Option<&mut Tracer>,
) -> io::Result<WireRun> {
    let mut run = WireRun {
        records: Vec::new(),
        setup_s: Vec::new(),
        peak_rss_mb: Vec::new(),
        guard_failures: Vec::new(),
        sample_reply: Vec::new(),
    };
    let mut round = 0;
    for _ in 0..segments {
        let start = Instant::now();
        let Connection { server, mut client, mut state } =
            set_up(bin, workload, ack, &mut run.guard_failures)?;
        run.setup_s.push(start.elapsed().as_secs_f64());

        let first = round + 1;
        let deadline = Instant::now() + Duration::from_secs_f64(seconds / segments as f64);
        while round < first || Instant::now() < deadline {
            round += 1;
            if let Some(t) = tracer.as_deref_mut() {
                t.set_op(round);
            }
            for op in workload.round(round) {
                let reply = client.request(&wire(&op, workload.shapes()), false)?;
                if let Some(t) = tracer.as_deref_mut() {
                    t.record(wire_span(&op), reply.latency);
                }
                apply(&mut state, &op);
                run.records.push(Record { op, round, reply, state: state.clone() });
            }
        }

        if let Err(failure) = workload.check_cache(cache_stats(&mut client)?) {
            run.guard_failures.push(failure);
        }
        run.peak_rss_mb.push(server.peak_rss_mb()?);
        if tracer.is_some() {
            let reply = client.request(&wire(&Op::Query(0), workload.shapes()), true)?;
            run.sample_reply = format!("{}\n{}", reply.header, reply.body).into_bytes();
        }
    }
    Ok(run)
}

fn wire_span(op: &Op) -> &'static str {
    match op {
        Op::Load { .. } => "wire.LOAD",
        Op::Query(_) => "wire.QUERY",
        Op::Explain(_) => "wire.EXPLAIN",
    }
}

/// Memoised reference answers: ops that saw the same relation instances
/// under the same query share one evaluation.
#[derive(Default)]
pub struct Reference {
    memo: HashMap<(usize, Vec<usize>), Answer>,
}

impl Reference {
    pub fn answer(&mut self, workload: &Workload, shape: usize, state: &DbState) -> Answer {
        let key = (shape, state.values().map(|rows| Rc::as_ptr(rows) as usize).collect());
        *self
            .memo
            .entry(key)
            .or_insert_with(|| reference::answer(workload.shapes()[shape].text, state))
    }
}

/// Checks every record after the clock has stopped: `ERR`s, `LOAD` row
/// counts, and `QUERY` answers against the reference (every
/// [`Workload::check_stride`]-th, plus first and last).  Returns the
/// number of failed ops.
pub fn verify(workload: &Workload, records: &[Record]) -> u64 {
    let mut reference = Reference::default();
    let stride = workload.check_stride();
    let queries = records.iter().filter(|r| matches!(r.op, Op::Query(_))).count();
    let mut nth = 0;
    let mut failed = 0;
    for record in records {
        let reply = &record.reply;
        let good = reply.ok()
            && match &record.op {
                Op::Load { rows, .. } => reply.number("rows") == Some(rows.len() as u64),
                Op::Explain(_) => reply.lines > 0,
                Op::Query(shape) => {
                    nth += 1;
                    let checked = (nth - 1) % stride == 0 || nth == queries;
                    let head = reference::parse(workload.shapes()[*shape].text).head.join(",");
                    reply.field("vars") == Some(head.as_str())
                        && reply.number("n") == Some(reply.lines)
                        && (!checked || {
                            let want = reference.answer(workload, *shape, &record.state);
                            reply.lines == want.n && reply.checksum == want.checksum
                        })
                }
            };
        if !good {
            failed += 1;
            let shape = match record.op {
                Op::Query(shape) | Op::Explain(shape) => workload.shapes()[shape].name,
                Op::Load { rel, .. } => rel,
            };
            eprintln!(
                "{}: round {} {} {shape} failed: `{}`",
                workload.name(),
                record.round,
                record.op.kind(),
                reply.header
            );
        }
    }
    failed
}

fn latencies_ms(records: &[Record], kind: &str) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.op.kind() == kind)
        .map(|r| r.reply.latency.as_secs_f64() * 1e3)
        .collect()
}

/// The `p`-quantile latency of one op kind in ms (0 when the workload has
/// none).
pub fn kind_latency_ms(records: &[Record], kind: &str, p: f64) -> f64 {
    percentile(&mut latencies_ms(records, kind), p)
}

/// Seconds of request latency per round, median over rounds.
pub fn round_median_s(records: &[Record]) -> f64 {
    let mut rounds: BTreeMap<u64, f64> = BTreeMap::new();
    for r in records {
        *rounds.entry(r.round).or_default() += r.reply.latency.as_secs_f64();
    }
    median(&mut rounds.into_values().collect::<Vec<f64>>())
}

/// Rows ingested per second of timed `LOAD` latency.
pub fn load_rows_per_s(records: &[Record]) -> f64 {
    let (mut rows, mut seconds) = (0.0, 0.0);
    for r in records {
        if let Op::Load { rows: loaded, .. } = &r.op {
            rows += loaded.len() as f64;
            seconds += r.reply.latency.as_secs_f64();
        }
    }
    if seconds > 0.0 {
        rows / seconds
    } else {
        0.0
    }
}

/// The end-to-end run of one workload: tracing off, every metric of
/// `BENCHMARK.json`'s `end_to_end`.
pub fn run(bin: &Path, workload: &Workload, seconds: f64, quick: bool) -> io::Result<Outcome> {
    let mut wire_run =
        run_wire(bin, workload, seconds, if quick { 1 } else { SEGMENTS }, Ack::Prompt, None)?;
    let records = &wire_run.records;
    let failed = verify(workload, records);
    let busy_s: f64 = records.iter().map(|r| r.reply.latency.as_secs_f64()).sum();
    let mut query_ms = latencies_ms(records, "QUERY");
    let metrics = vec![
        Metric { name: "query_p50_ms", unit: "ms", value: median(&mut query_ms) },
        Metric { name: "ops_per_s", unit: "1/s", value: records.len() as f64 / busy_s },
        Metric { name: "server_peak_rss_mb", unit: "MB", value: median(&mut wire_run.peak_rss_mb) },
        Metric { name: "setup_s", unit: "s", value: median(&mut wire_run.setup_s) },
    ];
    Ok(Outcome {
        attempted: records.len() as u64,
        failed,
        guard_failures: wire_run.guard_failures,
        metrics,
    })
}
