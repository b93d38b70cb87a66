//! The independent answer check: a naive left-deep hash-join evaluator
//! and the order-insensitive row checksum the client folds over replies.
//!
//! Nothing here calls into the engine.  The evaluator joins the body atoms
//! in the order written, probing a hash index on the already-bound
//! variables, and projects onto the head at the end — quadratic-ish, but
//! every workload's instance is small enough for it.

use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

/// The rows of one binary relation, shared between the ops that load it
/// and the answer checks that read it.
pub type Rows = Rc<Vec<[u64; 2]>>;

/// The client-side mirror of the session database: relation name → rows.
pub type DbState = BTreeMap<&'static str, Rows>;

/// What a correct `QUERY` reply must add up to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    /// Number of distinct answer rows.
    pub n: u64,
    /// Order-insensitive checksum over the rows (see [`Checksum`]).
    pub checksum: u64,
}

/// Folds one value into a row hash.  Column order matters, row order does
/// not: rows are hashed left to right and the row hashes are summed.
fn mix(h: u64, v: u64) -> u64 {
    let h = (h ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^ (h >> 29)
}

const ROW_SEED: u64 = 0x243F_6A88_85A3_08D3;

/// An order-insensitive checksum over rows of integers, fed either whole
/// rows ([`Checksum::row`]) or the raw bytes of a reply body
/// ([`Checksum::bytes`]) — the two must agree, which is the answer check.
#[derive(Debug, Clone, Copy)]
pub struct Checksum {
    sum: u64,
    row: u64,
    value: u64,
    in_number: bool,
}

impl Default for Checksum {
    fn default() -> Self {
        Checksum { sum: 0, row: ROW_SEED, value: 0, in_number: false }
    }
}

impl Checksum {
    /// Adds one row.
    pub fn row(&mut self, values: &[u64]) {
        let h = values.iter().fold(ROW_SEED, |h, &v| mix(h, v));
        self.sum = self.sum.wrapping_add(h);
    }

    /// Adds body bytes (`"1 2\n3 4\n"`), which may stop anywhere: the
    /// parser state carries over to the next call.  Returns the number of
    /// newlines consumed.
    pub fn bytes(&mut self, body: &[u8]) -> u64 {
        let mut lines = 0;
        for &b in body {
            match b {
                b'0'..=b'9' => {
                    self.value = self.value.wrapping_mul(10).wrapping_add(u64::from(b - b'0'));
                    self.in_number = true;
                }
                b'\n' => {
                    if self.in_number {
                        self.row = mix(self.row, self.value);
                    }
                    self.sum = self.sum.wrapping_add(self.row);
                    self.row = ROW_SEED;
                    self.value = 0;
                    self.in_number = false;
                    lines += 1;
                }
                _ => {
                    if self.in_number {
                        self.row = mix(self.row, self.value);
                    }
                    self.value = 0;
                    self.in_number = false;
                }
            }
        }
        lines
    }

    /// The checksum so far.
    pub fn finish(&self) -> u64 {
        self.sum
    }
}

/// A parsed `Q(X,Y) :- R(X,Y), S(Y,Z)`: head variables and body atoms.
pub struct Parsed {
    pub head: Vec<String>,
    pub atoms: Vec<(String, Vec<String>)>,
}

fn application(text: &str) -> (String, Vec<String>) {
    let text = text.trim();
    let (name, args) = text.split_once('(').expect("atom has an argument list");
    let vars = args
        .trim_end_matches(')')
        .split(',')
        .map(|v| v.trim().to_string())
        .filter(|v| !v.is_empty())
        .collect();
    (name.trim().to_string(), vars)
}

/// Parses the benchmark's own query texts (no nesting, no constants).
pub fn parse(text: &str) -> Parsed {
    let (head, body) = text.split_once(":-").expect("query has a `:-`");
    let atoms = body.split("),").map(application).collect();
    Parsed { head: application(head).1, atoms }
}

/// Evaluates `text` over `db` and returns the distinct head rows, sorted.
pub fn rows(text: &str, db: &DbState) -> Vec<Vec<u64>> {
    let query = parse(text);
    let mut bound: Vec<&str> = Vec::new();
    // Partial assignments, flat, `bound.len()` values each.
    let mut tuples: Vec<u64> = Vec::new();
    let mut count = 1usize;
    for (relation, vars) in &query.atoms {
        let empty = Rows::default();
        let rel = db.get(relation.as_str()).unwrap_or(&empty);
        // Positions whose variable is already bound join; the first
        // position of every other variable extends the assignment; a
        // repeat inside the atom filters.
        let mut join: Vec<(usize, usize)> = Vec::new();
        let mut fresh: Vec<usize> = Vec::new();
        let mut repeats: Vec<(usize, usize)> = Vec::new();
        for (pos, var) in vars.iter().enumerate() {
            if let Some(col) = bound.iter().position(|b| b == var) {
                join.push((pos, col));
            } else if let Some(first) = vars[..pos].iter().position(|v| v == var) {
                repeats.push((pos, first));
            } else {
                fresh.push(pos);
            }
        }
        let key_of = |values: &mut dyn Iterator<Item = u64>| values.fold(ROW_SEED, mix);
        let mut index: HashMap<u64, Vec<u32>> = HashMap::new();
        for (i, row) in rel.iter().enumerate() {
            if repeats.iter().all(|&(a, b)| row[a] == row[b]) {
                let key = key_of(&mut join.iter().map(|&(pos, _)| row[pos]));
                index.entry(key).or_default().push(i as u32);
            }
        }
        let stride = bound.len();
        let mut next: Vec<u64> = Vec::new();
        let mut next_count = 0usize;
        for t in 0..count {
            let tuple = &tuples[t * stride..(t + 1) * stride];
            let key = key_of(&mut join.iter().map(|&(_, col)| tuple[col]));
            for &i in index.get(&key).map_or(&[][..], Vec::as_slice) {
                let row = rel[i as usize];
                if join.iter().all(|&(pos, col)| row[pos] == tuple[col]) {
                    next.extend_from_slice(tuple);
                    next.extend(fresh.iter().map(|&pos| row[pos]));
                    next_count += 1;
                }
            }
        }
        bound.extend(fresh.iter().map(|&pos| vars[pos].as_str()));
        tuples = next;
        count = next_count;
    }
    let stride = bound.len();
    let head_cols: Vec<usize> = query
        .head
        .iter()
        .map(|h| bound.iter().position(|b| b == h).expect("head variable occurs in the body"))
        .collect();
    let mut out: Vec<Vec<u64>> =
        (0..count).map(|t| head_cols.iter().map(|&c| tuples[t * stride + c]).collect()).collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// [`rows`] reduced to what the client records per reply.
pub fn answer(text: &str, db: &DbState) -> Answer {
    let rows = rows(text, db);
    let mut checksum = Checksum::default();
    for row in &rows {
        checksum.row(row);
    }
    Answer { n: rows.len() as u64, checksum: checksum.finish() }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db_of(db: &panda_relation::Database) -> DbState {
        let mut state = DbState::new();
        for name in ["R", "S", "T", "U"] {
            let rel = db.relation(name).expect("figure 2 relation");
            state.insert(name, Rc::new(rel.iter().map(|r| [r[0], r[1]]).collect()));
        }
        state
    }

    #[test]
    fn reference_reproduces_figure_2() {
        let db = db_of(&panda_workloads::figure2_db());
        let got = rows("Q(X,Y,Z,W) :- R(X,Y), S(Y,Z), T(Z,W), U(W,X)", &db);
        assert_eq!(got, panda_workloads::paper::figure2_expected_output());
    }

    #[test]
    fn projection_deduplicates_and_repeats_filter() {
        let mut db = DbState::new();
        db.insert("R", Rc::new(vec![[1, 1], [1, 2], [2, 2], [3, 1]]));
        db.insert("S", Rc::new(vec![[1, 7], [2, 7], [2, 8]]));
        assert_eq!(rows("Q(X):-R(X,Y),S(Y,Z)", &db), vec![vec![1], vec![2], vec![3]]);
        assert_eq!(rows("Q(X):-R(X,X)", &db), vec![vec![1], vec![2]]);
    }

    #[test]
    fn byte_checksum_matches_row_checksum_across_chunk_boundaries() {
        let rows = [[12u64, 345], [6, 7], [890, 1]];
        let mut by_row = Checksum::default();
        for row in rows.iter().rev() {
            by_row.row(row);
        }
        let body = b"12 345\n6 7\n890 1\n";
        for split in 0..body.len() {
            let mut by_bytes = Checksum::default();
            let lines = by_bytes.bytes(&body[..split]) + by_bytes.bytes(&body[split..]);
            assert_eq!(lines, 3);
            assert_eq!(by_bytes.finish(), by_row.finish(), "split at {split}");
        }
    }
}
