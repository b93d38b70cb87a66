//! The [`Relation`] tuple store.

// panda-lint: allow-file(P1) -- row accesses are bounded by the arity
// invariant every constructor enforces (len % arity == 0).

use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

use crate::index::{Adjacency, IndexCache, SplitKey};

/// A single attribute value.  The engine is value-agnostic; strings and
/// other domains are dictionary-encoded to `u64` by the caller.
pub type Value = u64;

/// An owned tuple.
pub type Tuple = Vec<Value>;

/// A finite relation instance with positional columns.
///
/// Tuples are stored row-major in a single flat vector, `arity` values per
/// row.  The vector is `Arc`-shared: cloning a relation is O(1) and shares
/// both the tuple storage and the relation's cache of
/// [adjacencies](Relation::adjacency),
/// while mutation is copy-on-write (a mutated clone copies the data once
/// and detaches from the shared cache, leaving other clones untouched).
///
/// The relation is a *set* semantically; [`Relation::dedup`] and the
/// set-producing operators enforce this, while bulk-loading methods allow
/// temporary duplicates for speed.
///
/// # Examples
///
/// ```
/// use panda_relation::Relation;
///
/// let mut r = Relation::new(2);
/// r.push_row(&[1, 10]);
/// r.push_row(&[2, 20]);
/// r.push_row(&[1, 10]); // duplicate
/// assert_eq!(r.len(), 3);
/// let r = r.deduped();
/// assert_eq!(r.len(), 2);
/// assert!(r.contains(&[2, 20]));
///
/// // Clones are O(1) and share storage until one side mutates.
/// let snapshot = r.clone();
/// assert!(snapshot.shares_storage_with(&r));
/// ```
#[derive(Clone)]
pub struct Relation {
    arity: usize,
    data: Arc<Vec<Value>>,
    pub(crate) cache: Arc<IndexCache>,
}

impl Relation {
    /// Creates an empty relation with the given number of columns.
    #[must_use]
    pub fn new(arity: usize) -> Self {
        Relation::from_flat(arity, Vec::new())
    }

    /// Creates an empty relation with capacity for `rows` tuples.
    #[must_use]
    pub fn with_capacity(arity: usize, rows: usize) -> Self {
        Relation::from_flat(arity, Vec::with_capacity(arity * rows))
    }

    /// Wraps a flat row-major buffer, `arity` values per row, without
    /// per-row checks — the fast path for producers that assemble whole
    /// rows themselves (operator output sinks, enumerators).
    ///
    /// # Panics
    ///
    /// Panics if `arity` is positive and the buffer's length is not a
    /// multiple of it.  For arity zero the buffer must be empty (no tuple)
    /// or hold one marker value (the empty tuple).
    ///
    /// # Examples
    ///
    /// ```
    /// use panda_relation::Relation;
    ///
    /// let r = Relation::from_flat(2, vec![1, 10, 2, 20]);
    /// assert_eq!(r.row(1), &[2, 20]);
    /// ```
    #[must_use]
    pub fn from_flat(arity: usize, data: Vec<Value>) -> Self {
        assert!(
            if arity == 0 { data.len() <= 1 } else { data.len() % arity == 0 },
            "flat buffer of length {} is not row-aligned for arity {arity}",
            data.len()
        );
        Relation { arity, data: Arc::new(data), cache: Arc::new(IndexCache::default()) }
    }

    /// Builds a relation from an iterator of rows.
    ///
    /// # Panics
    ///
    /// Panics if any row's length differs from `arity`.
    pub fn from_rows<I, R>(arity: usize, rows: I) -> Self
    where
        I: IntoIterator<Item = R>,
        R: AsRef<[Value]>,
    {
        let mut rel = Relation::new(arity);
        for row in rows {
            rel.push_row(row.as_ref());
        }
        rel
    }

    /// The number of columns.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The number of stored tuples (duplicates included if any).
    #[must_use]
    pub fn len(&self) -> usize {
        match self.data.len().checked_div(self.arity) {
            Some(rows) => rows,
            // A zero-arity relation is either empty or the single empty
            // tuple; we encode the latter by a one-element marker vector.
            None => usize::from(!self.data.is_empty()),
        }
    }

    /// `true` iff the relation holds no tuples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` iff `self` and `other` share the same underlying tuple
    /// storage: O(1) clones of each other with no intervening mutation.
    #[must_use]
    pub fn shares_storage_with(&self, other: &Relation) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// A process-local identity of this relation's *storage*: buffer
    /// address, arity, rows.  Two live relations with equal storage ids
    /// hold exactly the same rows (they are O(1) clones of one buffer),
    /// which is what lets the plan layer deduplicate repeated subplans over
    /// shared inputs without comparing tuple data.  The id is only
    /// meaningful while both relations are alive and must never be
    /// persisted.
    #[must_use]
    pub fn storage_id(&self) -> (usize, usize, usize) {
        (Arc::as_ptr(&self.data) as *const u8 as usize, self.arity, self.len())
    }

    /// Detaches this relation from any cache shared with clones.  Called by
    /// every mutating method *before* the data changes: other clones keep
    /// the (still valid) cached structures for the old storage, while this
    /// relation starts from an empty cache.
    fn invalidate_derived(&mut self) {
        if self.cache.is_populated() || Arc::strong_count(&self.cache) > 1 {
            self.cache = Arc::new(IndexCache::default());
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.arity()`.
    pub fn push_row(&mut self, row: &[Value]) {
        assert_eq!(
            row.len(),
            self.arity,
            "pushed a row of length {} into a relation of arity {}",
            row.len(),
            self.arity
        );
        self.invalidate_derived();
        let data = Arc::make_mut(&mut self.data);
        if self.arity == 0 {
            if data.is_empty() {
                data.push(1); // marker: the empty tuple is present
            }
        } else {
            data.extend_from_slice(row);
        }
    }

    /// Returns the `i`-th row.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[must_use]
    pub fn row(&self, i: usize) -> &[Value] {
        assert!(i < self.len(), "row index {i} out of bounds (len {})", self.len());
        if self.arity == 0 {
            &[]
        } else {
            &self.data[i * self.arity..(i + 1) * self.arity]
        }
    }

    /// Iterates over all rows in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &[Value]> + '_ {
        let arity = self.arity;
        let len = self.len();
        let flat: &[Value] = &self.data;
        (0..len).map(
            move |i| {
                if arity == 0 {
                    &[] as &[Value]
                } else {
                    &flat[i * arity..(i + 1) * arity]
                }
            },
        )
    }

    /// Returns `true` iff the relation contains the given row (linear scan;
    /// for repeated probes, [`find`](crate::Adjacency::find) the row in
    /// the cached [`Relation::adjacency`] of all columns).
    #[must_use]
    pub fn contains(&self, row: &[Value]) -> bool {
        self.iter().any(|r| r == row)
    }

    /// Removes duplicate rows in place, keeping the first occurrence of
    /// every row.  When the relation is already duplicate-free this is a
    /// no-op that preserves shared storage and cached adjacencies.
    pub fn dedup(&mut self) {
        if self.arity == 0 || self.len() <= 1 {
            return;
        }
        let out = {
            let flat: &[Value] = &self.data;
            let mut seen: HashSet<&[Value]> = HashSet::with_capacity(self.len());
            let mut out = Vec::with_capacity(flat.len());
            for row in flat.chunks_exact(self.arity) {
                if seen.insert(row) {
                    out.extend_from_slice(row);
                }
            }
            if out.len() == flat.len() {
                return; // duplicate-free: keep shared storage and cache
            }
            out
        };
        self.invalidate_derived();
        self.data = Arc::new(out);
    }

    /// Returns a deduplicated copy.
    #[must_use]
    pub fn deduped(mut self) -> Self {
        self.dedup();
        self
    }

    /// Returns the rows as a sorted, deduplicated vector of owned tuples —
    /// the canonical form used to compare query outputs in tests.
    #[must_use]
    pub fn canonical_rows(&self) -> Vec<Tuple> {
        let cols: Vec<usize> = (0..self.arity).collect();
        self.canonical_row_ids(&cols).into_iter().map(|i| self.row(i).to_vec()).collect()
    }

    /// The canonical order of the rows projected onto `cols`: row ids
    /// sorted lexicographically by their projections, one per distinct
    /// projection (the id of its first occurrence).  The one sort behind
    /// [`Relation::canonical_rows`] and the server's reply rendering.
    ///
    /// One linear pass comes first: when the projections are already
    /// strictly increasing (rows enumerated in order), the answer is
    /// `0..len` and nothing is sorted.  Otherwise, when the projected
    /// values and the row id fit in 128 bits together (dictionary-encoded
    /// values are small), each row is packed into one integer key and the
    /// keys are sorted in place; failing that, the row ids are sorted by
    /// comparing the projections where they lie.
    ///
    /// # Panics
    ///
    /// Panics if a column index is out of range.
    ///
    /// # Examples
    ///
    /// ```
    /// use panda_relation::Relation;
    ///
    /// let r = Relation::from_rows(2, vec![[2, 10], [1, 20], [2, 30], [1, 20]]);
    /// assert_eq!(r.canonical_row_ids(&[1, 0]), vec![0, 1, 2]);
    /// assert_eq!(r.canonical_row_ids(&[0]), vec![1, 0]);
    /// ```
    #[must_use]
    pub fn canonical_row_ids(&self, cols: &[usize]) -> Vec<usize> {
        for &c in cols {
            assert!(c < self.arity, "canonical order column {c} out of range");
        }
        let mut pairs = self.iter().zip(self.iter().skip(1));
        if pairs.all(|(row, next)| projection_cmp(row, next, cols).is_lt()) {
            return (0..self.len()).collect();
        }
        self.sorted_row_ids(cols, &self.column_widths(cols))
    }

    /// The bit width of each of `cols`: that of the OR of the column's
    /// values, so the column's every value fits in it.  The field widths
    /// of every packed projection ([`pack`]).
    pub(crate) fn column_widths(&self, cols: &[usize]) -> Vec<u32> {
        let mut ors = vec![0u64; cols.len()];
        for row in self.iter() {
            for (or, &c) in ors.iter_mut().zip(cols) {
                *or |= row[c];
            }
        }
        ors.iter().map(|or| u64::BITS - or.leading_zeros()).collect()
    }

    /// [`Relation::canonical_row_ids`] without its sortedness pass, given
    /// the [`Relation::column_widths`] of `cols`.
    pub(crate) fn sorted_row_ids(&self, cols: &[usize], widths: &[u32]) -> Vec<usize> {
        let id_bits = usize::BITS - self.len().leading_zeros();
        if widths.iter().sum::<u32>() + id_bits <= u128::BITS {
            // The row id in the least significant bits: integer order is
            // the canonical order, ties by id.
            let mut keys: Vec<u128> = self
                .iter()
                .enumerate()
                .map(|(id, row)| (pack(row, cols, widths) << id_bits) | id as u128)
                .collect();
            keys.sort_unstable();
            keys.dedup_by(|later, kept| *later >> id_bits == *kept >> id_bits);
            let id_mask = (1u128 << id_bits) - 1;
            return keys.into_iter().map(|key| (key & id_mask) as usize).collect();
        }
        let cmp = |a: usize, b: usize| projection_cmp(self.row(a), self.row(b), cols);
        let mut ids: Vec<usize> = (0..self.len()).collect();
        ids.sort_unstable_by(|&a, &b| cmp(a, b).then(a.cmp(&b)));
        ids.dedup_by(|&mut later, &mut kept| cmp(later, kept).is_eq());
        ids
    }

    /// The number of *distinct* rows: the `total` of the cached
    /// adjacency `(first column | rest)`.
    #[must_use]
    pub fn distinct_count(&self) -> usize {
        if self.arity == 0 {
            return self.len();
        }
        let all: Vec<usize> = (0..self.arity).collect();
        self.adjacency(&[0], &all).total()
    }

    /// The number of distinct values of a set of columns (order and
    /// repetition irrelevant): the key count of the cached adjacency
    /// `(cols | rest)`.
    ///
    /// # Panics
    ///
    /// Panics if a column index is out of range.
    #[must_use]
    pub fn distinct_count_of(&self, cols: &[usize]) -> usize {
        let keys = canonical(cols);
        if let Some(&c) = keys.last() {
            assert!(c < self.arity, "count column {c} out of range for arity {}", self.arity);
        }
        if keys.len() == self.arity {
            return self.distinct_count();
        }
        let all: Vec<usize> = (0..self.arity).collect();
        self.adjacency(&keys, &all).num_keys()
    }

    /// Extends this relation with all rows of `other`.
    ///
    /// # Panics
    ///
    /// Panics if the arities differ.
    pub fn extend_from(&mut self, other: &Relation) {
        assert_eq!(self.arity, other.arity, "arity mismatch in extend_from");
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            // Adopt the other side's storage wholesale — O(1), and the
            // shared cache rides along.
            *self = other.clone();
            return;
        }
        self.invalidate_derived();
        let data = Arc::make_mut(&mut self.data);
        if self.arity == 0 {
            if data.is_empty() {
                data.push(1);
            }
        } else {
            data.extend_from_slice(&other.data);
        }
    }

    /// Reserves space for `additional` more rows.  Like every mutating
    /// method this detaches shared derived statistics first: reserving
    /// re-allocates shared storage (new [storage
    /// identity](Relation::storage_id)), and the subsequent writes the
    /// caller is preparing for must start from a clean cache.
    pub fn reserve(&mut self, additional: usize) {
        self.invalidate_derived();
        Arc::make_mut(&mut self.data).reserve(additional * self.arity.max(1));
    }

    /// The cached [`Adjacency`] of `value_cols` given `key_cols`,
    /// building it on first use.  The split is canonicalised first: each
    /// side sorted and deduplicated, and the key columns removed from the
    /// value columns (they are constant within a group), so passing every
    /// column as `value_cols` asks for `(key_cols | rest)`.
    ///
    /// # Panics
    ///
    /// Panics if a column index is out of range.
    ///
    /// # Examples
    ///
    /// ```
    /// use panda_relation::Relation;
    ///
    /// // deg(col 1 | col 0): group 1 has two distinct values, group 2 one.
    /// let r = Relation::from_rows(2, vec![[1, 10], [1, 11], [2, 20]]);
    /// let adj = r.adjacency(&[0], &[1]);
    /// assert_eq!(adj.max_degree(), 2);
    /// assert_eq!(adj.num_keys(), 2);
    /// // Clones share the cached adjacency; `(0 | rest)` is the same split.
    /// assert!(std::sync::Arc::ptr_eq(&adj, &r.clone().adjacency(&[0, 0], &[0, 1])));
    /// ```
    #[must_use]
    pub fn adjacency(&self, key_cols: &[usize], value_cols: &[usize]) -> Arc<Adjacency> {
        self.cache.adjacency(self, split(key_cols, value_cols))
    }

    /// The cached [`Relation::adjacency`] of the same split, if one was
    /// already built — the operator layer prefers a build side that has
    /// one.
    pub(crate) fn try_cached_adjacency(
        &self,
        key_cols: &[usize],
        value_cols: &[usize],
    ) -> Option<Arc<Adjacency>> {
        self.cache.cached_adjacency(&split(key_cols, value_cols))
    }
}

/// The canonical split of [`Relation::adjacency`]: both sides sorted and
/// deduplicated, the key columns removed from the value columns.
fn split(key_cols: &[usize], value_cols: &[usize]) -> SplitKey {
    let keys = canonical(key_cols);
    let mut values = canonical(value_cols);
    values.retain(|c| keys.binary_search(c).is_err());
    (keys, values)
}

/// `row` projected onto `cols` as one integer: column `cols[i]` in
/// `widths[i]` bits (its [`Relation::column_widths`] entry), the first
/// column most significant, so integer order is the lexicographic order of
/// the projections.  The widths must sum to at most 128.
pub(crate) fn pack(row: &[Value], cols: &[usize], widths: &[u32]) -> u128 {
    cols.iter().zip(widths).fold(0u128, |key, (&c, &w)| (key << w) | u128::from(row[c]))
}

/// How `a` and `b` compare lexicographically on the columns `cols`.
fn projection_cmp(a: &[Value], b: &[Value], cols: &[usize]) -> std::cmp::Ordering {
    for &c in cols {
        match a[c].cmp(&b[c]) {
            std::cmp::Ordering::Equal => {}
            unequal => return unequal,
        }
    }
    std::cmp::Ordering::Equal
}

/// `cols` sorted and deduplicated.
fn canonical(cols: &[usize]) -> Vec<usize> {
    let mut cols = cols.to_vec();
    cols.sort_unstable();
    cols.dedup();
    cols
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        // `Arc`'s equality short-circuits on a shared buffer.
        self.arity == other.arity && self.data == other.data
    }
}

impl Eq for Relation {}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Relation(arity={}, rows={})", self.arity, self.len())?;
        const PREVIEW: usize = 8;
        for (i, row) in self.iter().enumerate() {
            if i >= PREVIEW {
                writeln!(f, "  … {} more", self.len() - PREVIEW)?;
                break;
            }
            writeln!(f, "  {row:?}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn push_and_read_rows() {
        let mut r = Relation::new(3);
        r.push_row(&[1, 2, 3]);
        r.push_row(&[4, 5, 6]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.arity(), 3);
        assert_eq!(r.row(0), &[1, 2, 3]);
        assert_eq!(r.row(1), &[4, 5, 6]);
        assert!(!r.is_empty());
        assert!(r.contains(&[4, 5, 6]));
        assert!(!r.contains(&[4, 5, 7]));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn wrong_arity_push_panics() {
        let mut r = Relation::new(2);
        r.push_row(&[1, 2, 3]);
    }

    #[test]
    fn zero_arity_relation_behaves_like_a_boolean() {
        let mut r = Relation::new(0);
        assert!(r.is_empty());
        r.push_row(&[]);
        r.push_row(&[]);
        assert_eq!(r.len(), 1);
        assert_eq!(r.row(0), &[] as &[Value]);
        assert_eq!(r.distinct_count(), 1);
    }

    #[test]
    fn dedup_removes_duplicates_only() {
        let r = Relation::from_rows(2, vec![[1, 1], [2, 2], [1, 1], [3, 3], [2, 2]]);
        let d = r.deduped();
        assert_eq!(d.len(), 3);
        assert_eq!(d.canonical_rows(), vec![vec![1, 1], vec![2, 2], vec![3, 3]]);
    }

    #[test]
    fn distinct_count_and_extend() {
        let mut r = Relation::from_rows(1, vec![[1], [2], [2]]);
        assert_eq!(r.distinct_count(), 2);
        let other = Relation::from_rows(1, vec![[3], [1]]);
        r.extend_from(&other);
        assert_eq!(r.len(), 5);
        assert_eq!(r.distinct_count(), 3);
    }

    #[test]
    fn clones_share_storage_until_mutation() {
        let mut r = Relation::from_rows(2, vec![[1, 2], [3, 4]]);
        let snapshot = r.clone();
        assert!(snapshot.shares_storage_with(&r));
        r.push_row(&[5, 6]);
        assert!(!snapshot.shares_storage_with(&r));
        assert_eq!(snapshot.len(), 2, "the clone must not see the mutation");
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn dedup_of_a_duplicate_free_relation_preserves_sharing() {
        let r = Relation::from_rows(2, vec![[1, 2], [3, 4]]);
        let d = r.clone().deduped();
        assert!(d.shares_storage_with(&r));
    }

    #[test]
    fn extend_from_into_empty_adopts_storage() {
        let other = Relation::from_rows(2, vec![[1, 2], [3, 4]]);
        let mut r = Relation::new(2);
        r.extend_from(&other);
        assert!(r.shares_storage_with(&other));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn storage_id_tracks_sharing() {
        let r = Relation::from_rows(1, vec![[0], [1], [2], [3]]);
        assert_eq!(r.storage_id(), r.clone().storage_id(), "O(1) clones share identity");
        let owned = Relation::from_rows(1, vec![[0], [1], [2], [3]]);
        assert_ne!(owned.storage_id(), r.storage_id(), "distinct buffers differ");
    }

    proptest! {
        #[test]
        fn prop_dedup_is_idempotent(rows in proptest::collection::vec((0u64..20, 0u64..20), 0..60)) {
            let rel = Relation::from_rows(2, rows.iter().map(|(a, b)| [*a, *b]));
            let once = rel.clone().deduped();
            let twice = once.clone().deduped();
            prop_assert_eq!(once.canonical_rows(), twice.canonical_rows());
            prop_assert_eq!(once.len(), rel.distinct_count());
        }

        #[test]
        fn prop_canonical_rows_sorted_unique(rows in proptest::collection::vec((0u64..10, 0u64..10), 0..60)) {
            let rel = Relation::from_rows(2, rows.iter().map(|(a, b)| [*a, *b]));
            let canon = rel.canonical_rows();
            let mut sorted = canon.clone();
            sorted.sort();
            sorted.dedup();
            prop_assert_eq!(canon, sorted);
        }

        #[test]
        fn prop_canonical_row_ids_match_a_sort_of_projections(
            rows in proptest::collection::vec(proptest::collection::vec(0u64..4, 3..4), 0..40),
            wide in 0u64..2,
        ) {
            // `wide` spreads the values over all 64 bits, so three columns
            // no longer pack into 128 bits and the comparison sort runs.
            let scale = if wide == 1 { u64::MAX / 3 } else { 1 };
            let drawn: Vec<Tuple> = rows.iter().map(|r| r.iter().map(|v| v * scale).collect()).collect();
            let mut sorted = drawn.clone();
            sorted.sort();
            sorted.dedup();
            // Sorted, but each row twice in a row: not strictly increasing,
            // so the sort must still run and dedup.
            let doubled: Vec<Tuple> = sorted.iter().flat_map(|r| [r.clone(), r.clone()]).collect();
            let descending: Vec<Tuple> = sorted.iter().rev().cloned().collect();
            let inputs = [("drawn", drawn), ("sorted", sorted), ("doubled", doubled), ("descending", descending)];
            for (shape, rows) in inputs {
                let rel = Relation::from_rows(3, &rows);
                // On `sorted`, `[0, 1, 2]` takes the linear path and the
                // other orders (sorted on all columns, not on `cols`) sort.
                for cols in [&[0, 1, 2][..], &[2, 0][..], &[1, 1][..], &[1][..], &[][..]] {
                    let mut naive: Vec<(Tuple, usize)> = rel
                        .iter()
                        .enumerate()
                        .map(|(id, row)| (cols.iter().map(|&c| row[c]).collect(), id))
                        .collect();
                    naive.sort();
                    naive.dedup_by(|later, kept| later.0 == kept.0);
                    let expected: Vec<usize> = naive.into_iter().map(|(_, id)| id).collect();
                    prop_assert_eq!(rel.canonical_row_ids(cols), expected, "{} cols {:?}", shape, cols);
                }
            }
        }
    }
}
