//! The four workloads: their data (all generated here from `--seed`),
//! their op streams, and the guards that fail a run when a workload stops
//! exercising the layer it exists for.
//!
//! Every workload is a closed loop of *rounds*; a round is the smallest
//! repeating unit of ops, so medians over rounds compare like with like.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::rc::Rc;

use crate::reference::{DbState, Rows};

/// One request of a round.  Shapes index [`Workload::shapes`].
#[derive(Debug, Clone)]
pub enum Op {
    /// A whole `LOAD <rel> 2 … END` block replacing `rel`.
    Load {
        rel: &'static str,
        rows: Rows,
    },
    Query(usize),
    Explain(usize),
}

impl Op {
    /// `LOAD`, `QUERY` or `EXPLAIN`.
    pub fn kind(&self) -> &'static str {
        match self {
            Op::Load { .. } => "LOAD",
            Op::Query(_) => "QUERY",
            Op::Explain(_) => "EXPLAIN",
        }
    }
}

/// A named query text.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub name: &'static str,
    pub text: &'static str,
}

const PLAN_COLD_SHAPES: [Shape; 5] = [
    Shape { name: "c4_proj", text: "Q(X,Y):-R(X,Y),S(Y,Z),T(Z,W),U(W,X)" },
    Shape { name: "c4_chord", text: "Q(X,Y):-R(X,Y),S(Y,Z),T(Z,W),U(W,X),V(X,Z)" },
    Shape { name: "bowtie", text: "Q(A):-R(A,B),S(B,C),T(C,A),U(A,D),V(D,E),W(E,A)" },
    Shape { name: "c5_2chords", text: "Q(A):-R(A,B),S(B,C),T(C,D),U(D,E),V(E,A),W(A,C),P(A,D)" },
    Shape { name: "diamond_tail", text: "Q(A,E):-R(A,B),S(B,C),T(A,C),U(B,D),V(C,D),W(D,E)" },
];
const BOWTIE: usize = 2;
const EXEC_SKEW_SHAPES: [Shape; 1] =
    [Shape { name: "c4_proj", text: "Q(X,Y):-R(X,Y),S(Y,Z),T(Z,W),U(W,X)" }];
const ANSWER_LARGE_SHAPES: [Shape; 1] =
    [Shape { name: "path3_full", text: "Q(A,B,C,D):-R(A,B),S(B,C),T(C,D)" }];
const MIXED_SHAPES: [Shape; 1] =
    [Shape { name: "triangle", text: "Q(A,B,C):-R(A,B),S(B,C),T(A,C)" }];

/// Name and one-line reason of every workload, in run order.
pub const WORKLOADS: [(&str, &str); 4] = [
    ("plan_cold", "planner-bound: every round reloads 7 tiny relations so all 6 plans per round are cache misses"),
    ("exec_skew", "execution-bound: warm adaptive plan over the skewed double-star 4-cycle, 16 degree branches"),
    ("answer_large", "output-bound: a free-connex 3-path whose ~2 MB answer is mostly rendering and wire"),
    ("load_query_mixed", "writes beside reads: each 40k-row LOAD detaches indexes and statistics before a triangle QUERY"),
];

/// splitmix64: the benchmark's own generator, so the inputs of a seed do
/// not change when the repo's vendored `rand` shim does.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Exactly `edges` distinct directed edges over `vertices` vertices.
fn erdos_renyi(rng: &mut Rng, vertices: u64, edges: usize) -> Rows {
    let mut seen = HashSet::with_capacity(edges);
    let mut rows = Vec::with_capacity(edges);
    while rows.len() < edges {
        let row = [rng.below(vertices), rng.below(vertices)];
        if seen.insert(row) {
            rows.push(row);
        }
    }
    Rc::new(rows)
}

/// The §5.1 double star: `half` leaves pointing at a hub and the hub
/// pointing back at each.  The seed picks the vertex labels and the row
/// order; the degree structure — what the workload is about — is fixed.
fn double_star(rng: &mut Rng, half: u64) -> Rows {
    let mut labels = HashSet::new();
    while labels.len() <= half as usize {
        labels.insert(1 + rng.below(1_000_000));
    }
    let mut labels: Vec<u64> = labels.into_iter().collect();
    labels.sort_unstable();
    let hub = labels.swap_remove(rng.below(half + 1) as usize);
    let mut rows: Vec<[u64; 2]> =
        labels.iter().flat_map(|&leaf| [[leaf, hub], [hub, leaf]]).collect();
    shuffle(rng, &mut rows);
    Rc::new(rows)
}

fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// The session's `STATS` counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    PlanCold,
    ExecSkew,
    AnswerLarge,
    LoadQueryMixed,
}

/// One workload under one seed.
#[derive(Clone, Copy)]
pub struct Workload {
    kind: Kind,
    name: &'static str,
    seed: u64,
}

impl Workload {
    pub fn new(name: &str, seed: u64) -> Option<Workload> {
        const KINDS: [Kind; 4] =
            [Kind::PlanCold, Kind::ExecSkew, Kind::AnswerLarge, Kind::LoadQueryMixed];
        let index = WORKLOADS.iter().position(|(n, _)| *n == name)?;
        Some(Workload { kind: KINDS[index], name: WORKLOADS[index].0, seed })
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    pub fn shapes(&self) -> &'static [Shape] {
        match self.kind {
            Kind::PlanCold => &PLAN_COLD_SHAPES,
            Kind::ExecSkew => &EXEC_SKEW_SHAPES,
            Kind::AnswerLarge => &ANSWER_LARGE_SHAPES,
            Kind::LoadQueryMixed => &MIXED_SHAPES,
        }
    }

    /// A generator for one (round, relation) pair: rounds are independent
    /// of how many rounds ran before them.
    fn rng(&self, round: u64, stream: u64) -> Rng {
        let mut rng = Rng(self.seed ^ round.wrapping_mul(0xA076_1D64_78BD_642F) ^ (stream << 56));
        rng.next();
        rng
    }

    /// Set-up ops, in order: initial `LOAD`s, then warm-up requests.  What
    /// they cost is `setup_s`; none of them is timed as an op.
    pub fn setup(&self) -> Vec<Op> {
        match self.kind {
            // Round 0's data warms the process (allocator, Γ₄/Γ₅ LP
            // scaffolds) without pre-planning any timed statistics set.
            Kind::PlanCold => {
                let mut ops = self.plan_cold_loads(0);
                ops.extend([Op::Query(0), Op::Query(1), Op::Query(BOWTIE)]);
                ops
            }
            // One instance under four names, as in the paper: the hub
            // has to be the same vertex in every relation.
            Kind::ExecSkew => {
                let rows = double_star(&mut self.rng(0, 0), 512);
                let mut ops: Vec<Op> = ["R", "S", "T", "U"]
                    .into_iter()
                    .map(|rel| Op::Load { rel, rows: Rc::clone(&rows) })
                    .collect();
                ops.extend([Op::Explain(0), Op::Query(0), Op::Query(0)]);
                ops
            }
            Kind::AnswerLarge => {
                let mut ops = self.erdos_renyi_loads(8000);
                ops.extend([Op::Explain(0), Op::Query(0), Op::Query(0)]);
                ops
            }
            Kind::LoadQueryMixed => {
                let mut ops = self.erdos_renyi_loads(40_000);
                // No EXPLAIN here: a QUERY after it would be served from
                // its cache entry, and this workload promises hits=0.
                ops.push(Op::Query(0));
                ops
            }
        }
    }

    /// Initial `R`, `S`, `T`: independent random graphs over 2000 vertices.
    fn erdos_renyi_loads(&self, edges: usize) -> Vec<Op> {
        ["R", "S", "T"]
            .into_iter()
            .enumerate()
            .map(|(i, rel)| Op::Load {
                rel,
                rows: erdos_renyi(&mut self.rng(0, i as u64), 2000, edges),
            })
            .collect()
    }

    /// Round `r`'s seven relations: 121 + r edges each, so no two rounds
    /// share a statistics set and no plan can be served from the cache.
    ///
    /// LP work depends on the statistics, not on the labels, and varies
    /// two-fold from one random graph to the next.  So the *graphs* of a
    /// round are the same under every seed; the seed relabels their
    /// vertices and reorders their rows.  Cardinalities and degrees — all
    /// the planner sees — repeat, so `lp.pivots` repeats across seeds and a
    /// planner change cannot hide behind a lucky draw.
    fn plan_cold_loads(&self, round: u64) -> Vec<Op> {
        let structure = Workload { seed: 0x5EED, ..*self };
        let mut labels: Vec<u64> = (0..30).collect();
        shuffle(&mut self.rng(round, 7), &mut labels);
        ["R", "S", "T", "U", "V", "W", "P"]
            .into_iter()
            .enumerate()
            .map(|(i, rel)| {
                let graph =
                    erdos_renyi(&mut structure.rng(round, i as u64), 30, 121 + round as usize);
                let mut rows: Vec<[u64; 2]> =
                    graph.iter().map(|&[a, b]| [labels[a as usize], labels[b as usize]]).collect();
                shuffle(&mut self.rng(round, i as u64), &mut rows);
                Op::Load { rel, rows: Rc::new(rows) }
            })
            .collect()
    }

    /// The ops of timed round `round` (1-based; round 0 is set-up data).
    pub fn round(&self, round: u64) -> Vec<Op> {
        match self.kind {
            // QUERYs before the EXPLAIN: a report-path cache entry can
            // serve a later evaluation of the same query, never the
            // reverse, so this order keeps all six plans cold.
            Kind::PlanCold => {
                let mut ops = self.plan_cold_loads(round);
                ops.extend((0..PLAN_COLD_SHAPES.len()).map(Op::Query));
                ops.push(Op::Explain(BOWTIE));
                ops
            }
            Kind::ExecSkew | Kind::AnswerLarge => vec![Op::Query(0)],
            Kind::LoadQueryMixed => {
                // One more edge every round: with a fixed size, two rounds
                // whose maximum degrees coincide would share a plan.
                let rel = ["R", "S", "T"][(round % 3) as usize];
                let rows = erdos_renyi(&mut self.rng(round, 0), 2000, 40_000 + round as usize);
                vec![Op::Load { rel, rows }, Op::Query(0)]
            }
        }
    }

    /// The strategy the set-up `EXPLAIN` must report, where the workload
    /// is only valid under one.
    pub fn required_strategy(&self) -> Option<&'static str> {
        match self.kind {
            Kind::ExecSkew => Some("adaptive"),
            Kind::AnswerLarge => Some("yannakakis"),
            Kind::PlanCold | Kind::LoadQueryMixed => None,
        }
    }

    /// Fails when the session's plan-cache counters show the workload
    /// stopped being what its name says (cold, or warm).
    pub fn check_cache(&self, stats: CacheStats) -> Result<(), String> {
        match self.kind {
            Kind::PlanCold | Kind::LoadQueryMixed if stats.hits != 0 => Err(format!(
                "{}: expected every plan cold, STATS shows hits={}",
                self.name, stats.hits
            )),
            Kind::ExecSkew | Kind::AnswerLarge if stats.misses > 1 => Err(format!(
                "{}: expected a warm plan, STATS shows misses={}",
                self.name, stats.misses
            )),
            _ => Ok(()),
        }
    }

    /// Check every `stride`-th `QUERY` against the reference (plus the
    /// first and last).  Workloads whose database never changes after
    /// set-up need one reference evaluation for all ops; `load_query_mixed`
    /// needs one per checked op at ~50 ms each.
    pub fn check_stride(&self) -> usize {
        if self.kind == Kind::LoadQueryMixed {
            8
        } else {
            1
        }
    }
}

/// The request bytes of an op.
pub fn wire(op: &Op, shapes: &[Shape]) -> Vec<u8> {
    match op {
        Op::Load { rel, rows } => {
            let mut block = format!("LOAD {rel} 2\n");
            for [a, b] in rows.iter() {
                let _ = writeln!(block, "{a} {b}");
            }
            block.push_str("END\n");
            block.into_bytes()
        }
        Op::Query(shape) => format!("QUERY {}\n", shapes[*shape].text).into_bytes(),
        Op::Explain(shape) => format!("EXPLAIN {}\n", shapes[*shape].text).into_bytes(),
    }
}

/// Applies a `LOAD` to the client-side mirror of the session database.
pub fn apply(state: &mut DbState, op: &Op) {
    if let Op::Load { rel, rows } = op {
        state.insert(rel, Rc::clone(rows));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs_and_another_seed_others() {
        for (name, _) in WORKLOADS {
            let bytes = |seed| {
                let w = Workload::new(name, seed).unwrap();
                let ops: Vec<Op> =
                    w.setup().into_iter().chain(w.round(1)).chain(w.round(2)).collect();
                ops.iter().flat_map(|op| wire(op, w.shapes())).collect::<Vec<u8>>()
            };
            assert_eq!(bytes(7), bytes(7), "{name}");
            assert_ne!(bytes(7), bytes(8), "{name}");
        }
    }

    #[test]
    fn plan_cold_rounds_never_repeat_a_cardinality() {
        let w = Workload::new("plan_cold", 1).unwrap();
        for round in 0..4u64 {
            for op in w.round(round) {
                if let Op::Load { rows, .. } = op {
                    assert_eq!(rows.len(), 121 + round as usize);
                }
            }
        }
    }

    #[test]
    fn double_star_has_one_hub() {
        let rows = double_star(&mut Rng(3), 512);
        assert_eq!(rows.len(), 1024);
        let hub = rows
            .iter()
            .filter(|r| r[0] == rows[0][0])
            .count()
            .max(rows.iter().filter(|r| r[0] == rows[0][1]).count());
        assert_eq!(hub, 512);
    }
}
