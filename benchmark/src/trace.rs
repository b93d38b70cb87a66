//! Spans, recorded from outside the program: the benchmark times its own
//! calls into each layer, keeps the spans in memory, and writes them out
//! when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::report::median;

/// One timed call.  `parent` indexes the span that was open when this one
/// started; `op` is the round it belongs to, shared by every span of it.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// The in-memory span log.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), op: 0 }
    }

    /// Spans recorded from now on belong to round `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Times `work` as a span named `name`, nested under the open span.
    pub fn time<T>(&mut self, name: &'static str, work: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        let out = work(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Records a span measured elsewhere (the wire client times itself),
    /// ending now.
    pub fn record(&mut self, name: &'static str, took: Duration) {
        let end_ns = self.now_ns();
        let start_ns = end_ns.saturating_sub(took.as_nanos() as u64);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Seconds spent in spans called `name`, summed per round; one entry
    /// per round that has such a span.  Round 0 is set-up and enters no
    /// statistic.
    pub fn per_round(&self, name: &str) -> Vec<f64> {
        let mut rounds: BTreeMap<u64, f64> = BTreeMap::new();
        for span in self.spans.iter().filter(|s| s.name == name && s.op != 0) {
            *rounds.entry(span.op).or_default() += (span.end_ns - span.start_ns) as f64 / 1e9;
        }
        rounds.into_values().collect()
    }

    /// The median over rounds of [`Tracer::per_round`]; 0 with no spans.
    pub fn round_median_s(&self, name: &str) -> f64 {
        median(&mut self.per_round(name))
    }

    /// What recording one span costs, in seconds: the recorder timing
    /// itself over empty spans.
    pub fn span_cost_s() -> f64 {
        const PROBES: u32 = 20_000;
        let mut probe = Tracer::new();
        let start = Instant::now();
        for _ in 0..PROBES {
            probe.time("probe", |_| ());
        }
        start.elapsed().as_secs_f64() / f64::from(PROBES)
    }

    /// The span file: `{"workload", "environment": {…}, "spans": [{name,
    /// start_ns, end_ns, parent, op}, …]}`.
    pub fn json(&self, workload: &str, environment: &[(String, String)]) -> String {
        let mut out = format!("{{\"workload\": \"{workload}\", \"environment\": {{");
        for (i, (key, value)) in environment.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = value.replace(['"', '\\'], "'");
            let _ = write!(out, "{sep}\"{key}\": \"{value}\"");
        }
        out.push_str("}, \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_sum_per_round() {
        let mut t = Tracer::new();
        t.set_op(1);
        t.time("outer", |t| {
            t.time("inner", |_| ());
            t.time("inner", |_| ());
        });
        t.set_op(2);
        t.time("inner", |_| ());
        t.set_op(0);
        t.time("inner", |_| ());
        assert_eq!(t.len(), 5);
        assert_eq!(t.per_round("inner").len(), 2);
        assert_eq!(t.per_round("outer").len(), 1);
        let json = t.json("w", &[("k".to_string(), "v\"".to_string())]);
        assert!(json.contains("\"parent\": 0, \"op\": 1"));
        assert!(json.contains("\"parent\": null, \"op\": 2"));
        assert!(json.contains("\"k\": \"v'\""));
    }
}
