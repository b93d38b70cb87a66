//! Relational operators: projection, selection, join, semijoin and column
//! reordering — the five that plans call.
//!
//! All operators are positional: a join is specified by pairs of column
//! indices to equate, mirroring how an [`crate::Relation`] is bound to a
//! query atom (column *i* of the relation instance is the *i*-th variable
//! of the atom).  The variable-aware layer lives in `panda-core`.
//!
//! [`join`] and [`semijoin`] probe the build side's cached adjacency
//! `(join columns | rest)` ([`Relation::adjacency`]) by binary search, so
//! repeated joins on the same `(relation, key columns)` pair — the normal
//! case across PANDA's degree branches and Yannakakis' semijoin passes —
//! pay for the sort once, and a join on a base relation's column reuses
//! the split that measuring its degrees already built.
//!
//! Every operator runs on the calling thread.  A parallel engine fans out
//! one level up, over independent work items (generic-join candidates,
//! bag jobs, degree branches), never inside one operator.

// panda-lint: allow-file(P1) -- column indices are validated against
// both arities at the top of join/semijoin before any row is touched.

use std::sync::Arc;

use crate::index::Adjacency;
use crate::relation::{Relation, Tuple, Value};

/// Projects `relation` onto the given columns (in the given order),
/// removing duplicates (first occurrences kept, in input row order).
///
/// Rows are deduplicated in the output buffer itself, by the same sink
/// [`join`] streams into: each projected row is hashed and mapped to its
/// row id there, so no row is allocated or copied outside that buffer.
///
/// # Panics
///
/// Panics if a column index is out of range.
#[must_use]
pub fn project(relation: &Relation, cols: &[usize]) -> Relation {
    for &c in cols {
        assert!(c < relation.arity(), "projection column {c} out of range");
    }
    let mut out = DedupSink::new(cols.len(), relation.len());
    let mut row_buf: Tuple = Tuple::with_capacity(cols.len());
    for row in relation.iter() {
        row_buf.clear();
        row_buf.extend(cols.iter().map(|&c| row[c]));
        out.push(&row_buf);
    }
    out.into_relation()
}

/// Selects the rows satisfying an arbitrary predicate.  Preserves row
/// order.
#[must_use]
pub fn select_where<F: FnMut(&[Value]) -> bool>(relation: &Relation, mut pred: F) -> Relation {
    let mut out = Relation::new(relation.arity());
    for row in relation.iter() {
        if pred(row) {
            out.push_row(row);
        }
    }
    out
}

/// How rows of one side of a join find their matches on the other, the
/// build side: through the build side's cached adjacency `(K | rest)` on
/// its distinct join columns `K`.
struct Probe {
    adjacency: Arc<Adjacency>,
    /// The probe column equated with each key column, in key order.
    probe_cols: Vec<usize>,
    /// Pairs of probe columns equated with the same build column: a probe
    /// row matches only where each pair agrees.
    ties: Vec<(usize, usize)>,
}

impl Probe {
    /// The probe of `build` under `on`; `build_is_left` selects which
    /// component of each pair belongs to the build side.
    fn new(build: &Relation, on: &[(usize, usize)], build_is_left: bool) -> Self {
        let mut pairs: Vec<(usize, usize)> =
            on.iter().map(|&(l, r)| if build_is_left { (l, r) } else { (r, l) }).collect();
        pairs.sort_unstable();
        pairs.dedup();
        let (mut key_cols, mut probe_cols, mut ties) = (Vec::new(), Vec::new(), Vec::new());
        for (i, &(b, p)) in pairs.iter().enumerate() {
            if i > 0 && pairs[i - 1].0 == b {
                ties.push((probe_cols[probe_cols.len() - 1], p));
            } else {
                key_cols.push(b);
                probe_cols.push(p);
            }
        }
        let all: Vec<usize> = (0..build.arity()).collect();
        Probe { adjacency: build.adjacency(&key_cols, &all), probe_cols, ties }
    }

    /// The group of build rows matching `row`, if any; `key` is scratch
    /// space and holds the group's key afterwards.
    fn group(&self, row: &[Value], key: &mut Tuple) -> Option<usize> {
        if self.ties.iter().any(|&(a, b)| row[a] != row[b]) {
            return None;
        }
        key.clear();
        key.extend(self.probe_cols.iter().map(|&c| row[c]));
        self.adjacency.find(key)
    }
}

/// A pass-through hasher for keys that already are 64-bit hashes — avoids
/// hashing a row's hash a second time inside the dedup sink's map.
#[derive(Default, Clone)]
struct PrehashedState;

struct PrehashedHasher(u64);

impl std::hash::BuildHasher for PrehashedState {
    type Hasher = PrehashedHasher;

    fn build_hasher(&self) -> PrehashedHasher {
        PrehashedHasher(0)
    }
}

impl std::hash::Hasher for PrehashedHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("the dedup sink only hashes u64 keys");
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

/// A deduplicating output sink: rows are dropped as they are produced, so
/// duplicates are never materialised.  Rows are appended to a raw flat
/// buffer (no per-row relation bookkeeping) and tracked by their 64-bit
/// hash mapped to a row id — no owned copy of any row is kept outside the
/// buffer itself.  Distinct rows with colliding hashes (vanishingly rare)
/// go to a linearly scanned overflow list.
struct DedupSink {
    arity: usize,
    data: Vec<Value>,
    rows: usize,
    zero_arity_present: bool,
    hasher: std::collections::hash_map::RandomState,
    first_with_hash: std::collections::HashMap<u64, usize, PrehashedState>,
    overflow: Vec<(u64, usize)>,
}

impl DedupSink {
    /// A sink with room for `rows` distinct rows before it reallocates.
    fn new(arity: usize, rows: usize) -> Self {
        DedupSink {
            arity,
            data: Vec::with_capacity(arity * rows),
            rows: 0,
            zero_arity_present: false,
            hasher: std::collections::hash_map::RandomState::new(),
            first_with_hash: std::collections::HashMap::with_capacity_and_hasher(
                if arity == 0 { 0 } else { rows },
                PrehashedState,
            ),
            overflow: Vec::new(),
        }
    }

    fn push(&mut self, row: &[Value]) {
        use std::collections::hash_map::Entry;
        use std::hash::BuildHasher;
        debug_assert_eq!(row.len(), self.arity);
        if self.arity == 0 {
            self.zero_arity_present = true; // a zero-arity relation dedups itself
            return;
        }
        let h = self.hasher.hash_one(row);
        let id = self.rows;
        let arity = self.arity;
        match self.first_with_hash.entry(h) {
            Entry::Vacant(e) => {
                e.insert(id);
            }
            Entry::Occupied(e) => {
                let first = *e.get();
                let row_at = |i: usize| &self.data[i * arity..(i + 1) * arity];
                if row_at(first) == row
                    || self.overflow.iter().any(|&(oh, i)| oh == h && row_at(i) == row)
                {
                    return;
                }
                self.overflow.push((h, id));
            }
        }
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    fn into_relation(self) -> Relation {
        if self.arity == 0 {
            let mut out = Relation::new(0);
            if self.zero_arity_present {
                out.push_row(&[]);
            }
            return out;
        }
        Relation::from_flat(self.arity, self.data)
    }
}

/// Joins `left` and `right` on the column pairs `on = [(lcol, rcol)]`.
///
/// The output schema is all columns of `left` followed by the columns of
/// `right` that are **not** join columns (in their original order), i.e. the
/// natural-join convention once positional columns are bound to variables.
/// The output is deduplicated (streamed — duplicates are dropped as they
/// are produced, never materialised).
///
/// Each probe row looks its key up in the build side's cached adjacency
/// `(join columns | rest)`, and the build rows it meets are that group's
/// distinct rows in sorted order: the output lists probe rows in storage
/// order and, within one, its matches in the build side's sorted order.
///
/// # Panics
///
/// Panics if a column index is out of range.
#[must_use]
pub fn join(left: &Relation, right: &Relation, on: &[(usize, usize)]) -> Relation {
    for &(l, r) in on {
        assert!(l < left.arity(), "left join column {l} out of range");
        assert!(r < right.arity(), "right join column {r} out of range");
    }
    let right_join_cols: Vec<usize> = on.iter().map(|&(_, r)| r).collect();
    let right_keep_cols: Vec<usize> =
        (0..right.arity()).filter(|c| !right_join_cols.contains(c)).collect();
    let out_arity = left.arity() + right_keep_cols.len();
    let build_left = choose_build_left(left, right, on);
    let (build, probe) = if build_left { (left, right) } else { (right, left) };
    let plan = Probe::new(build, on, build_left);
    let adjacency = &plan.adjacency;
    let key_cols = adjacency.key_cols();
    let rest_cols: Vec<usize> = (0..build.arity()).filter(|c| !key_cols.contains(c)).collect();
    let width = rest_cols.len();
    let mut out = DedupSink::new(out_arity, 0);
    let mut row_buf: Tuple = Tuple::with_capacity(out_arity);
    let mut key_buf: Tuple = Tuple::with_capacity(key_cols.len());
    let mut brow: Tuple = vec![0; build.arity()];
    for prow in probe.iter() {
        let Some(group) = plan.group(prow, &mut key_buf) else {
            continue;
        };
        for (&c, &v) in key_cols.iter().zip(&key_buf) {
            brow[c] = v;
        }
        let values = adjacency.values(group);
        for entry in 0..adjacency.degree(group) {
            for (&c, &v) in rest_cols.iter().zip(&values[entry * width..(entry + 1) * width]) {
                brow[c] = v;
            }
            let (lrow, rrow) = if build_left { (&brow[..], prow) } else { (prow, &brow[..]) };
            row_buf.clear();
            row_buf.extend_from_slice(lrow);
            row_buf.extend(right_keep_cols.iter().map(|&c| rrow[c]));
            out.push(&row_buf);
        }
    }
    out.into_relation()
}

/// Chooses the build side: prefer a side whose adjacency on its join
/// columns is already cached; otherwise build on the smaller side and
/// probe with the other.
fn choose_build_left(left: &Relation, right: &Relation, on: &[(usize, usize)]) -> bool {
    let cached = |rel: &Relation, is_left: bool| {
        let cols: Vec<usize> = on.iter().map(|&(l, r)| if is_left { l } else { r }).collect();
        let all: Vec<usize> = (0..rel.arity()).collect();
        rel.try_cached_adjacency(&cols, &all).is_some()
    };
    match (cached(left, true), cached(right, false)) {
        (true, false) => true,
        (false, true) => false,
        _ => left.len() <= right.len(),
    }
}

/// Semijoin: the rows of `left` that have at least one matching row in
/// `right` under the column pairs `on`.  Preserves `left`'s row order;
/// when nothing is filtered the result is an O(1) clone of `left`.
///
/// # Panics
///
/// Panics if a column index is out of range.
#[must_use]
pub fn semijoin(left: &Relation, right: &Relation, on: &[(usize, usize)]) -> Relation {
    for &(l, r) in on {
        assert!(l < left.arity(), "left join column {l} out of range");
        assert!(r < right.arity(), "right join column {r} out of range");
    }
    let plan = Probe::new(right, on, false);
    let mut key_buf: Tuple = Tuple::with_capacity(plan.probe_cols.len());
    let keep: Vec<bool> = left.iter().map(|row| plan.group(row, &mut key_buf).is_some()).collect();
    if keep.iter().all(|&k| k) {
        return left.clone();
    }
    let kept = keep.iter().filter(|&&k| k).count();
    let mut out = Relation::with_capacity(left.arity(), kept);
    for (row, _) in left.iter().zip(&keep).filter(|&(_, &k)| k) {
        out.push_row(row);
    }
    out
}

/// Renames (reorders) columns: output column `i` is input column
/// `permutation[i]`.  Unlike [`project`], duplicates are *not* removed and
/// the permutation may repeat columns.
///
/// # Panics
///
/// Panics if a column index is out of range.
#[must_use]
pub fn reorder(relation: &Relation, permutation: &[usize]) -> Relation {
    for &c in permutation {
        assert!(c < relation.arity(), "reorder column {c} out of range");
    }
    let mut out = Relation::with_capacity(permutation.len(), relation.len());
    let mut buf: Tuple = vec![0; permutation.len()];
    for row in relation.iter() {
        for (o, &c) in permutation.iter().enumerate() {
            buf[o] = row[c];
        }
        out.push_row(&buf);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r_edges() -> Relation {
        Relation::from_rows(2, vec![[1, 2], [2, 3], [3, 1], [2, 4]])
    }

    #[test]
    fn project_dedups() {
        let r = Relation::from_rows(2, vec![[1, 10], [1, 20], [2, 10]]);
        let p = project(&r, &[0]);
        assert_eq!(p.canonical_rows(), vec![vec![1], vec![2]]);
        let swapped = project(&r, &[1, 0]);
        assert_eq!(swapped.canonical_rows(), vec![vec![10, 1], vec![10, 2], vec![20, 1]]);
    }

    #[test]
    fn select_filters_rows() {
        let r = r_edges();
        assert_eq!(select_where(&r, |row| row[0] < row[1]).len(), 3);
    }

    #[test]
    fn join_matches_nested_loop_semantics() {
        // Path query: R(a,b) ⋈ S(b,c).
        let r = Relation::from_rows(2, vec![[1, 2], [2, 3]]);
        let s = Relation::from_rows(2, vec![[2, 5], [2, 6], [3, 7], [9, 9]]);
        let out = join(&r, &s, &[(1, 0)]);
        assert_eq!(out.arity(), 3);
        assert_eq!(out.canonical_rows(), vec![vec![1, 2, 5], vec![1, 2, 6], vec![2, 3, 7]]);
    }

    #[test]
    fn join_on_multiple_columns() {
        let r = Relation::from_rows(3, vec![[1, 2, 3], [1, 2, 4], [5, 6, 7]]);
        let s = Relation::from_rows(3, vec![[1, 2, 100], [5, 5, 100]]);
        let out = join(&r, &s, &[(0, 0), (1, 1)]);
        assert_eq!(out.canonical_rows(), vec![vec![1, 2, 3, 100], vec![1, 2, 4, 100]]);
    }

    #[test]
    fn join_with_duplicate_index_columns() {
        // Both pairs target right column 0: rows must satisfy both equalities.
        let r = Relation::from_rows(2, vec![[1, 1], [1, 2], [3, 3]]);
        let s = Relation::from_rows(1, vec![[1], [3]]);
        let out = join(&r, &s, &[(0, 0), (1, 0)]);
        assert_eq!(out.canonical_rows(), vec![vec![1, 1], vec![3, 3]]);
    }

    #[test]
    fn join_hits_the_cached_adjacency_on_repeat() {
        let r = Relation::from_rows(2, vec![[1, 2], [2, 3]]);
        let s = Relation::from_rows(2, vec![[2, 5], [3, 7]]);
        let first = join(&r, &s, &[(1, 0)]);
        // After one join, one side carries a cached adjacency; the second
        // join must produce identical output through the cached path.
        assert!(
            r.try_cached_adjacency(&[1], &[0]).is_some()
                || s.try_cached_adjacency(&[0], &[1]).is_some(),
            "a join must populate the build side's cache"
        );
        let second = join(&r, &s, &[(1, 0)]);
        assert_eq!(first.canonical_rows(), second.canonical_rows());
    }

    #[test]
    fn semijoin_keeps_matching_rows() {
        let l = r_edges();
        let r = Relation::from_rows(1, vec![[2], [3]]);
        let semi = semijoin(&l, &r, &[(0, 0)]);
        assert_eq!(semi.canonical_rows(), vec![vec![2, 3], vec![2, 4], vec![3, 1]]);
    }

    #[test]
    fn unfiltered_semijoin_shares_storage() {
        let l = r_edges();
        let r = Relation::from_rows(1, vec![[1], [2], [3]]);
        let semi = semijoin(&l, &r, &[(0, 0)]);
        assert!(semi.shares_storage_with(&l), "a no-op semijoin must be an O(1) clone");
    }

    #[test]
    fn reorder_repeats_and_permutes() {
        let r = Relation::from_rows(2, vec![[1, 2]]);
        let out = reorder(&r, &[1, 0, 1]);
        assert_eq!(out.row(0), &[2, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reorder_out_of_range_column_panics() {
        let r = Relation::from_rows(2, vec![[1, 2]]);
        let _ = reorder(&r, &[0, 2]);
    }

    #[test]
    fn join_is_commutative_up_to_column_order() {
        let r = Relation::from_rows(2, vec![[1, 2], [2, 3], [4, 4]]);
        let s = Relation::from_rows(2, vec![[2, 10], [4, 20]]);
        let rs = join(&r, &s, &[(1, 0)]);
        let sr = join(&s, &r, &[(0, 1)]);
        // rs columns: (r0, r1, s1); sr columns: (s0, s1, r0).
        let rs_norm = reorder(&rs, &[0, 1, 2]).canonical_rows();
        let sr_norm = reorder(&sr, &[2, 0, 1]).canonical_rows();
        assert_eq!(rs_norm, sr_norm);
    }
}
