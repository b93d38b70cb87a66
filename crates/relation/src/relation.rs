//! The [`Relation`] tuple store.

// panda-lint: allow-file(P1) -- row accesses are bounded by the arity
// invariant every constructor enforces (len % arity == 0).

use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

use crate::index::{is_canonical_cols, HashIndex, IndexCache, ValueIndex};
use crate::stats::GroupedDegrees;

/// A single attribute value.  The engine is value-agnostic; strings and
/// other domains are dictionary-encoded to `u64` (see
/// [`crate::Database::intern`]).
pub type Value = u64;

/// An owned tuple.
pub type Tuple = Vec<Value>;

/// A finite relation instance with positional columns.
///
/// Tuples are stored row-major in a single flat vector, `arity` values per
/// row.  The vector is `Arc`-shared: cloning a relation is O(1) and shares
/// both the tuple storage and the relation's [`index cache`](Relation::index_for),
/// while mutation is copy-on-write (a mutated clone copies the data once
/// and detaches from the shared cache, leaving other clones untouched).
///
/// The relation is a *set* semantically; [`Relation::dedup`] and the
/// set-producing operators enforce this, while bulk-loading methods allow
/// temporary duplicates for speed.
///
/// A relation can also be a zero-copy *shard view* over a contiguous row
/// range of a shared buffer (see [`Relation::partitioned`]): shards share
/// the parent's tuple storage and behave like independent relations —
/// mutating a shard copies just its own rows out first.
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
    /// When set, this relation is a shard view over rows
    /// `[start, start + rows)` of `data` (only ever set for arity > 0);
    /// `None` means the whole buffer.  Mutation materialises the view
    /// first (see [`Relation::make_owned`]).
    view: Option<(usize, usize)>,
    cache: Arc<IndexCache>,
}

impl Relation {
    /// Creates an empty relation with the given number of columns.
    #[must_use]
    pub fn new(arity: usize) -> Self {
        Relation {
            arity,
            data: Arc::new(Vec::new()),
            view: None,
            cache: Arc::new(IndexCache::default()),
        }
    }

    /// Creates an empty relation with capacity for `rows` tuples.
    #[must_use]
    pub fn with_capacity(arity: usize, rows: usize) -> Self {
        Relation {
            arity,
            data: Arc::new(Vec::with_capacity(arity * rows)),
            view: None,
            cache: Arc::new(IndexCache::default()),
        }
    }

    /// Wraps an already-validated flat row-major buffer — the fast path for
    /// operator output sinks that assemble rows without per-row checks.
    /// For arity zero the buffer must be the empty-or-marker encoding.
    pub(crate) fn from_flat(arity: usize, data: Vec<Value>) -> Self {
        debug_assert!(
            if arity == 0 { data.len() <= 1 } else { data.len() % arity == 0 },
            "flat buffer of length {} is not row-aligned for arity {arity}",
            data.len()
        );
        Relation { arity, data: Arc::new(data), view: None, cache: Arc::new(IndexCache::default()) }
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
        if let Some((_, rows)) = self.view {
            return rows;
        }
        match self.data.len().checked_div(self.arity) {
            Some(rows) => rows,
            // A zero-arity relation is either empty or the single empty
            // tuple; we encode the latter by a one-element marker vector.
            None => usize::from(!self.data.is_empty()),
        }
    }

    /// The viewed flat row buffer: for a shard view, just its own rows; for
    /// a whole-buffer relation, all of `data`.  Zero-arity relations are
    /// never views, so their marker encoding passes through unchanged.
    fn flat(&self) -> &[Value] {
        match self.view {
            Some((start, rows)) => &self.data[start * self.arity..(start + rows) * self.arity],
            None => &self.data,
        }
    }

    /// Materialises a shard view into its own buffer (a one-time copy of
    /// just this shard's rows).  Called by every mutating method so that
    /// copy-on-write never touches rows outside the view.
    ///
    /// Materialisation changes the relation's [storage
    /// identity](Relation::storage_id), so any derived statistics computed
    /// under the old identity (indexes, distinct counts) are detached
    /// here — not only by the mutating callers — ensuring a mutation path
    /// that reaches `make_owned` directly (e.g. [`Relation::reserve`]) can
    /// never leave a pre-materialisation cache attached to
    /// post-materialisation storage.
    fn make_owned(&mut self) {
        if self.view.is_some() {
            self.invalidate_derived();
            self.data = Arc::new(self.flat().to_vec());
            self.view = None;
        }
    }

    /// `true` iff the relation holds no tuples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` iff `self` and `other` share the same underlying tuple
    /// storage: O(1) clones of each other with no intervening mutation, or
    /// shard views ([`Relation::partitioned`]) over the same buffer.
    #[must_use]
    pub fn shares_storage_with(&self, other: &Relation) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// A process-local identity of this relation's *storage*: the address
    /// of the shared tuple buffer plus the viewed row range.  Two relations
    /// with equal storage ids hold exactly the same rows (they are O(1)
    /// clones or identical shard views of one buffer), which is what lets
    /// the plan layer deduplicate repeated subplans over shared inputs
    /// without comparing tuple data.  The id is only meaningful while both
    /// relations are alive and must never be persisted.
    #[must_use]
    pub fn storage_id(&self) -> (usize, usize, usize) {
        let (start, rows) = self.view.unwrap_or((0, self.len()));
        (Arc::as_ptr(&self.data) as *const u8 as usize, start, rows)
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
        self.make_owned();
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
            &self.flat()[i * self.arity..(i + 1) * self.arity]
        }
    }

    /// Iterates over all rows in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &[Value]> + '_ {
        let arity = self.arity;
        let len = self.len();
        let flat = self.flat();
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
    /// build a [`crate::HashIndex`] for repeated probes).
    #[must_use]
    pub fn contains(&self, row: &[Value]) -> bool {
        self.iter().any(|r| r == row)
    }

    /// Removes duplicate rows in place, keeping the first occurrence of
    /// every row.  When the relation is already duplicate-free this is a
    /// no-op that preserves shared storage and cached indexes.
    pub fn dedup(&mut self) {
        if self.arity == 0 || self.len() <= 1 {
            return;
        }
        let out = {
            let flat = self.flat();
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
        self.view = None;
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
        let mut rows: Vec<Tuple> = self.iter().map(<[Value]>::to_vec).collect();
        rows.sort_unstable();
        rows.dedup();
        rows
    }

    /// The number of *distinct* rows (the count — and only the count — is
    /// cached across repeated calls).
    #[must_use]
    pub fn distinct_count(&self) -> usize {
        if self.arity == 0 {
            return self.len();
        }
        let cols: Vec<usize> = (0..self.arity).collect();
        self.cache.distinct_count(self, &cols)
    }

    /// The number of distinct values of a set of columns (order and
    /// repetition irrelevant; the count is cached across repeated calls).
    ///
    /// # Panics
    ///
    /// Panics if a column index is out of range.
    #[must_use]
    pub fn distinct_count_of(&self, cols: &[usize]) -> usize {
        let mut canonical = cols.to_vec();
        canonical.sort_unstable();
        canonical.dedup();
        for &c in &canonical {
            assert!(c < self.arity, "count column {c} out of range for arity {}", self.arity);
        }
        if self.arity == 0 {
            return self.len();
        }
        self.cache.distinct_count(self, &canonical)
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
        self.make_owned();
        let data = Arc::make_mut(&mut self.data);
        if self.arity == 0 {
            if data.is_empty() {
                data.push(1);
            }
        } else {
            data.extend_from_slice(other.flat());
        }
    }

    /// Reserves space for `additional` more rows.  Like every mutating
    /// method this detaches shared derived statistics first: reserving
    /// re-allocates shared storage (new [storage
    /// identity](Relation::storage_id)), and the subsequent writes the
    /// caller is preparing for must start from a clean cache.
    pub fn reserve(&mut self, additional: usize) {
        self.invalidate_derived();
        self.make_owned();
        Arc::make_mut(&mut self.data).reserve(additional * self.arity.max(1));
    }

    /// The cached hash index on the given canonical (strictly increasing)
    /// key columns, building it on first use.  Clones of this relation
    /// share the cache, so repeated joins on the same `(relation, key
    /// columns)` pair build the index once.
    ///
    /// # Panics
    ///
    /// Panics if `cols` is not strictly increasing or a column is out of
    /// range.
    #[must_use]
    pub fn index_for(&self, cols: &[usize]) -> Arc<HashIndex> {
        assert!(
            is_canonical_cols(cols),
            "index_for requires strictly increasing key columns, got {cols:?}"
        );
        self.cache.index(self, cols)
    }

    /// The cached hash index on the given canonical key columns, if one was
    /// already built — used by the operator layer to prefer an indexed
    /// build side.
    ///
    /// # Examples
    ///
    /// ```
    /// use panda_relation::Relation;
    ///
    /// let r = Relation::from_rows(2, vec![[1, 10], [2, 20]]);
    /// assert!(r.try_cached_index(&[0]).is_none());
    /// let built = r.index_for(&[0]); // builds and caches
    /// let cached = r.try_cached_index(&[0]).unwrap();
    /// assert!(std::sync::Arc::ptr_eq(&built, &cached));
    /// ```
    #[must_use]
    pub fn try_cached_index(&self, cols: &[usize]) -> Option<Arc<HashIndex>> {
        self.cache.cached_index(cols)
    }

    /// The cached [`ValueIndex`] for `value_col` grouped by the canonical
    /// (strictly increasing) `group_cols`, building it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `group_cols` is not strictly increasing or a column is out
    /// of range.
    ///
    /// # Examples
    ///
    /// The candidate values of a generic-join level: distinct, sorted
    /// values of one column per bound prefix.
    ///
    /// ```
    /// use panda_relation::Relation;
    ///
    /// let r = Relation::from_rows(2, vec![[1, 30], [1, 10], [1, 30], [2, 5]]);
    /// let idx = r.value_index(&[0], 1);
    /// assert_eq!(idx.candidates(&[1]), Some(&vec![10, 30]));
    /// assert_eq!(idx.candidates(&[9]), None);
    /// // Clones share the cached index.
    /// assert!(std::sync::Arc::ptr_eq(&idx, &r.clone().value_index(&[0], 1)));
    /// ```
    #[must_use]
    pub fn value_index(&self, group_cols: &[usize], value_col: usize) -> Arc<ValueIndex> {
        assert!(
            is_canonical_cols(group_cols),
            "value_index requires strictly increasing group columns, got {group_cols:?}"
        );
        self.cache.value_index(self, group_cols, value_col)
    }

    /// The cached [`GroupedDegrees`] of `value_cols` given `group_cols`
    /// (column order and repetitions are irrelevant to degrees, so the sets
    /// are canonicalised internally), building it on first use.
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
    /// let gd = r.grouped_degrees(&[0], &[1]);
    /// assert_eq!(gd.max_degree(), 2);
    /// assert_eq!(gd.num_groups(), 2);
    /// assert_eq!(gd.degree_of_row(&[1, 99]), 2);
    /// ```
    #[must_use]
    pub fn grouped_degrees(
        &self,
        group_cols: &[usize],
        value_cols: &[usize],
    ) -> Arc<GroupedDegrees> {
        let canonical = |cols: &[usize]| -> Vec<usize> {
            let mut v = cols.to_vec();
            v.sort_unstable();
            v.dedup();
            v
        };
        let group = canonical(group_cols);
        let value = canonical(value_cols);
        for &c in group.iter().chain(value.iter()) {
            assert!(c < self.arity, "degree column {c} out of range for arity {}", self.arity);
        }
        self.cache.grouped_degrees(self, &group, &value)
    }

    /// Splits the relation into at most `parts` contiguous, balanced shards
    /// that together cover all rows in order.  Shards are **zero-copy
    /// views**: they share the parent's `Arc`-backed tuple storage (no
    /// tuple data is duplicated until a shard is mutated) but start from
    /// their own empty index cache.  Returns an empty vector for an empty relation and a single
    /// O(1) clone when `parts == 1` or the relation has a single row (or
    /// arity zero).
    ///
    /// This is how the parallel execution layer splits data: a probe side
    /// split into shards can be joined shard-by-shard through
    /// [`ordered_map`](crate::fan_out::ordered_map) and re-assembled with
    /// [`Relation::concatenated`],
    /// reproducing the sequential output exactly.
    ///
    /// # Panics
    ///
    /// Panics if `parts == 0`.
    ///
    /// # Examples
    ///
    /// ```
    /// use panda_relation::Relation;
    ///
    /// let r = Relation::from_rows(2, vec![[1, 2], [3, 4], [5, 6], [7, 8], [9, 10]]);
    /// let shards = r.partitioned(2);
    /// assert_eq!(shards.len(), 2);
    /// assert_eq!(shards[0].len() + shards[1].len(), r.len());
    /// // Shards are zero-copy views over the parent's storage …
    /// assert!(shards.iter().all(|s| s.shares_storage_with(&r)));
    /// // … and re-assembling them in order reproduces the original.
    /// assert_eq!(Relation::concatenated(2, &shards), r);
    /// ```
    #[must_use]
    pub fn partitioned(&self, parts: usize) -> Vec<Relation> {
        assert!(parts > 0, "cannot partition a relation into zero shards");
        let len = self.len();
        if len == 0 {
            return Vec::new();
        }
        if parts == 1 || len == 1 || self.arity == 0 {
            return vec![self.clone()];
        }
        let base = self.view.map_or(0, |(start, _)| start);
        let k = parts.min(len);
        let shards: Vec<Relation> = (0..k)
            .map(|i| {
                let lo = len * i / k;
                let hi = len * (i + 1) / k;
                Relation {
                    arity: self.arity,
                    data: Arc::clone(&self.data),
                    view: Some((base + lo, hi - lo)),
                    cache: Arc::new(IndexCache::default()),
                }
            })
            .collect();
        // The shards must tile the parent exactly: re-concatenating them in
        // order is the identity (the determinism contract of the parallel
        // operators that fan out over these shards).
        debug_assert_eq!(shards.iter().map(Relation::len).sum::<usize>(), len);
        debug_assert!(shards.iter().all(|s| s.arity() == self.arity));
        shards
    }

    /// Concatenates shards (in order) into one relation of the given
    /// arity — the merge half of [`Relation::partitioned`].  Rows appear
    /// exactly in shard order, so partitioning and concatenating is the
    /// identity; no deduplication is performed.  When at most one shard is
    /// non-empty the result is an O(1) clone of it (shared storage and
    /// index cache).
    ///
    /// # Panics
    ///
    /// Panics if any shard's arity differs from `arity`.
    #[must_use]
    pub fn concatenated(arity: usize, shards: &[Relation]) -> Relation {
        for shard in shards {
            assert_eq!(shard.arity(), arity, "shard arity mismatch in concatenated");
        }
        let mut non_empty = shards.iter().filter(|s| !s.is_empty());
        let Some(first) = non_empty.next() else { return Relation::new(arity) };
        if non_empty.next().is_none() {
            return first.clone();
        }
        if arity == 0 {
            let mut out = Relation::new(0);
            out.push_row(&[]);
            return out;
        }
        let total: usize = shards.iter().map(|s| s.flat().len()).sum();
        let mut data = Vec::with_capacity(total);
        for shard in shards {
            data.extend_from_slice(shard.flat());
        }
        let out = Relation::from_flat(arity, data);
        // Shard-order merge preserves every row: the concatenation is the
        // identity on the shard sequence, nothing dropped or reordered.
        debug_assert_eq!(out.len(), shards.iter().map(Relation::len).sum::<usize>());
        out
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.arity == other.arity
            && ((Arc::ptr_eq(&self.data, &other.data) && self.view == other.view)
                || self.flat() == other.flat())
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
    fn partitioned_shards_are_zero_copy_and_cover_in_order() {
        let r = Relation::from_rows(2, (0..17u64).map(|i| [i, i * 10]));
        for parts in [1, 2, 3, 5, 17, 40] {
            let shards = r.partitioned(parts);
            assert!(shards.len() <= parts);
            assert!(shards.iter().all(|s| !s.is_empty()), "parts = {parts}");
            assert!(shards.iter().all(|s| s.shares_storage_with(&r)), "parts = {parts}");
            let merged = Relation::concatenated(2, &shards);
            let expected: Vec<Tuple> = r.iter().map(<[Value]>::to_vec).collect();
            let got: Vec<Tuple> = merged.iter().map(<[Value]>::to_vec).collect();
            assert_eq!(got, expected, "parts = {parts}");
        }
        assert!(Relation::new(3).partitioned(4).is_empty());
    }

    #[test]
    fn shard_views_read_only_their_own_rows() {
        let r = Relation::from_rows(1, vec![[0], [1], [2], [3], [4]]);
        let shards = r.partitioned(2);
        assert_eq!(shards[0].canonical_rows(), vec![vec![0], vec![1]]);
        assert_eq!(shards[1].canonical_rows(), vec![vec![2], vec![3], vec![4]]);
        assert_eq!(shards[1].row(0), &[2]);
        assert!(shards[1].contains(&[4]));
        assert!(!shards[1].contains(&[1]));
        assert_eq!(shards[1].distinct_count(), 3);
    }

    #[test]
    fn mutating_a_shard_copies_out_and_detaches() {
        let r = Relation::from_rows(1, vec![[0], [1], [2], [3]]);
        let shards = r.partitioned(2);
        let mut shard = shards[1].clone();
        shard.push_row(&[9]);
        assert!(!shard.shares_storage_with(&r), "mutation must detach the view");
        assert_eq!(shard.canonical_rows(), vec![vec![2], vec![3], vec![9]]);
        // The parent and the sibling shard are untouched.
        assert_eq!(r.len(), 4);
        assert_eq!(shards[0].canonical_rows(), vec![vec![0], vec![1]]);
    }

    #[test]
    fn make_owned_detaches_stale_derived_statistics() {
        // Regression: `reserve` reaches `make_owned` without going through
        // a row-mutating method, so the view materialisation itself must
        // detach derived statistics — a cache built for the old storage
        // identity must never survive onto the new one.
        let r = Relation::from_rows(2, vec![[1, 10], [2, 20], [3, 30], [4, 40]]);
        let mut shard = r.partitioned(2).pop().unwrap();
        let before = shard.storage_id();
        let _ = shard.index_for(&[0]);
        let _ = shard.distinct_count();
        assert!(shard.try_cached_index(&[0]).is_some());
        shard.reserve(8);
        assert_ne!(shard.storage_id(), before, "materialisation re-homes storage");
        assert!(
            shard.try_cached_index(&[0]).is_none(),
            "derived statistics must be detached when the storage identity changes"
        );
        // The rows themselves are intact and re-derived stats are correct.
        assert_eq!(shard.canonical_rows(), vec![vec![3, 30], vec![4, 40]]);
        assert_eq!(shard.distinct_count(), 2);
    }

    #[test]
    fn storage_id_distinguishes_views_and_tracks_sharing() {
        let r = Relation::from_rows(1, vec![[0], [1], [2], [3]]);
        let clone = r.clone();
        assert_eq!(r.storage_id(), clone.storage_id(), "O(1) clones share identity");
        let shards = r.partitioned(2);
        assert_ne!(shards[0].storage_id(), shards[1].storage_id());
        assert_ne!(shards[0].storage_id(), r.storage_id());
        // Equal shard views of the same range agree.
        assert_eq!(shards[1].storage_id(), r.partitioned(2)[1].storage_id());
        let owned = Relation::from_rows(1, vec![[0], [1], [2], [3]]);
        assert_ne!(owned.storage_id(), r.storage_id(), "distinct buffers differ");
    }

    #[test]
    fn shards_can_renest() {
        let r = Relation::from_rows(2, (0..12u64).map(|i| [i / 3, i % 3]));
        let shards = r.partitioned(3);
        for shard in &shards {
            // A shard of a shard composes the view offsets.
            let nested = shard.partitioned(2);
            let merged = Relation::concatenated(2, &nested);
            assert_eq!(merged.canonical_rows(), shard.canonical_rows());
            assert!(nested.iter().all(|s| s.shares_storage_with(&r)));
        }
    }

    #[test]
    fn shard_equality_is_by_viewed_rows() {
        let r = Relation::from_rows(1, vec![[7], [7], [8]]);
        let shards = r.partitioned(3);
        assert_eq!(shards[0], shards[1], "equal single-row views compare equal");
        assert_ne!(shards[0], shards[2]);
        assert_ne!(shards[0], r);
    }

    #[test]
    fn concatenated_single_nonempty_shard_is_a_clone() {
        let r = Relation::from_rows(2, vec![[1, 2], [3, 4]]);
        let merged = Relation::concatenated(2, &[Relation::new(2), r.clone(), Relation::new(2)]);
        assert!(merged.shares_storage_with(&r));
        assert_eq!(Relation::concatenated(2, &[]).len(), 0);
        // Zero-arity concatenation is boolean-or.
        let mut t = Relation::new(0);
        t.push_row(&[]);
        assert_eq!(Relation::concatenated(0, &[t.clone(), t]).len(), 1);
    }

    proptest! {
        #[test]
        fn prop_partition_concat_roundtrips(
            rows in proptest::collection::vec((0u64..30, 0u64..30), 0..80),
            parts in 1usize..9,
        ) {
            let rel = Relation::from_rows(2, rows.iter().map(|(a, b)| [*a, *b]));
            let shards = rel.partitioned(parts);
            let merged = Relation::concatenated(2, &shards);
            let expected: Vec<Tuple> = rel.iter().map(<[Value]>::to_vec).collect();
            let got: Vec<Tuple> = merged.iter().map(<[Value]>::to_vec).collect();
            prop_assert_eq!(got, expected);
            let total: usize = shards.iter().map(Relation::len).sum();
            prop_assert_eq!(total, rel.len());
        }

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
    }
}
