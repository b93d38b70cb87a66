//! Hash indexes over relations, and the per-relation index/degree cache.
//!
//! The PANDA/subw algorithms repeatedly semijoin, join and partition the
//! *same* relations across proof-sequence steps and degree branches.  To
//! avoid rebuilding identical hash tables every time, every [`Relation`]
//! carries an `IndexCache`: a lazily populated map from canonical
//! (sorted, distinct) key-column sets to built indexes.  Because relation
//! storage is `Arc`-shared, an O(1) relation clone shares the cache too —
//! the second join on the same `(relation, key columns)` pair anywhere in
//! the engine is a lookup, not a build.  Mutating a relation detaches it
//! from the shared cache (see `Relation::invalidate_derived`).

// panda-lint: allow-file(P1) -- key columns are canonicalised and
// bounds-checked against the arity before an index is ever built.

use std::collections::HashMap;
// panda-lint: allow(D2) -- the index cache is the one sanctioned use of
// interior mutability in this crate: it memoises *deterministic* derived
// structures, so which thread populates an entry can never change a result.
use std::sync::atomic::{AtomicBool, Ordering};
// panda-lint: allow(D2) -- same cache: Mutex guards lookup tables whose
// contents are a pure function of the relation, never of timing.
use std::sync::{Arc, Mutex, PoisonError};

use crate::relation::{Relation, Tuple, Value};
use crate::stats::GroupedDegrees;

/// A hash index mapping the values of a fixed set of key columns to the row
/// indices that carry them.
///
/// The index borrows nothing from the relation; it stores owned key tuples
/// and row ids, so the relation can be mutated afterwards (at which point
/// the index is stale and should be rebuilt).  Indexes obtained through
/// [`Relation::index_for`] are cached and never stale: mutation detaches
/// the relation from its cache.
///
/// # Examples
///
/// ```
/// use panda_relation::{HashIndex, Relation};
///
/// let r = Relation::from_rows(2, vec![[1, 10], [1, 20], [2, 30]]);
/// let idx = HashIndex::build(&r, &[0]);
/// assert_eq!(idx.probe(&[1]).len(), 2);
/// assert_eq!(idx.probe(&[9]).len(), 0);
/// assert_eq!(idx.num_keys(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct HashIndex {
    key_cols: Vec<usize>,
    map: HashMap<Tuple, Vec<usize>>,
}

impl HashIndex {
    /// Builds an index on `key_cols` of `relation`.
    ///
    /// # Panics
    ///
    /// Panics if any column index is out of range.
    #[must_use]
    pub fn build(relation: &Relation, key_cols: &[usize]) -> Self {
        for &c in key_cols {
            assert!(
                c < relation.arity(),
                "index column {c} out of range for arity {}",
                relation.arity()
            );
        }
        let mut map: HashMap<Tuple, Vec<usize>> = HashMap::with_capacity(relation.len());
        for (i, row) in relation.iter().enumerate() {
            let key: Tuple = key_cols.iter().map(|&c| row[c]).collect();
            map.entry(key).or_default().push(i);
        }
        HashIndex { key_cols: key_cols.to_vec(), map }
    }

    /// The columns this index is keyed on.
    #[must_use]
    pub fn key_cols(&self) -> &[usize] {
        &self.key_cols
    }

    /// Row ids whose key columns equal `key` (empty slice if none).
    #[must_use]
    pub fn probe(&self, key: &[Value]) -> &[usize] {
        self.map.get(key).map_or(&[], Vec::as_slice)
    }

    /// Whether any row carries the given key.
    #[must_use]
    pub fn contains_key(&self, key: &[Value]) -> bool {
        self.map.contains_key(key)
    }

    /// The number of distinct keys.
    #[must_use]
    pub fn num_keys(&self) -> usize {
        self.map.len()
    }

    /// The largest number of rows sharing one key — i.e. the maximum degree
    /// `deg(remaining columns | key columns)` of the indexed relation.
    #[must_use]
    pub fn max_degree(&self) -> usize {
        self.map.values().map(Vec::len).max().unwrap_or(0)
    }

    /// Iterates over `(key, row ids)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, &Vec<usize>)> + '_ {
        self.map.iter()
    }

    /// Extracts the key of `row` according to this index's key columns.
    #[must_use]
    pub fn key_of(&self, row: &[Value]) -> Tuple {
        self.key_cols.iter().map(|&c| row[c]).collect()
    }
}

/// An index from a group of key columns to the *distinct, sorted* values of
/// one value column — the per-level candidate structure of a generic join
/// (the candidates for the level variable given the already-bound prefix).
///
/// Built through [`Relation::value_index`] these are cached alongside hash
/// indexes, so repeated worst-case-optimal joins over a shared relation
/// (e.g. the unpartitioned atoms across PANDA branches) reuse them.
#[derive(Debug, Clone)]
pub struct ValueIndex {
    group_cols: Vec<usize>,
    value_col: usize,
    map: HashMap<Tuple, Vec<Value>>,
}

impl ValueIndex {
    /// Builds the candidate index for `value_col` grouped by `group_cols`.
    ///
    /// # Panics
    ///
    /// Panics if any column index is out of range.
    #[must_use]
    pub fn build(relation: &Relation, group_cols: &[usize], value_col: usize) -> Self {
        for &c in group_cols.iter().chain(std::iter::once(&value_col)) {
            assert!(
                c < relation.arity(),
                "value-index column {c} out of range for arity {}",
                relation.arity()
            );
        }
        let mut map: HashMap<Tuple, Vec<Value>> = HashMap::new();
        for row in relation.iter() {
            let key: Tuple = group_cols.iter().map(|&c| row[c]).collect();
            map.entry(key).or_default().push(row[value_col]);
        }
        // Deduplicate each candidate list once (sorting keeps the per-key
        // work linearithmic even for very heavy keys and enables binary
        // search at probe time).
        for values in map.values_mut() {
            values.sort_unstable();
            values.dedup();
        }
        ValueIndex { group_cols: group_cols.to_vec(), value_col, map }
    }

    /// The group (conditioning) columns.
    #[must_use]
    pub fn group_cols(&self) -> &[usize] {
        &self.group_cols
    }

    /// The value column the candidates are drawn from.
    #[must_use]
    pub fn value_col(&self) -> usize {
        self.value_col
    }

    /// The sorted distinct candidate values for a group key, if any row
    /// carries it.
    #[must_use]
    pub fn candidates(&self, key: &[Value]) -> Option<&Vec<Value>> {
        self.map.get(key)
    }
}

/// `true` iff the slice is strictly increasing — the canonical shape for
/// cached key-column sets.
pub(crate) fn is_canonical_cols(cols: &[usize]) -> bool {
    cols.windows(2).all(|w| w[0] < w[1])
}

/// Cache key for a [`ValueIndex`]: canonical group columns plus the value
/// column.
type ValueKey = (Vec<usize>, usize);

/// Cache key for a [`GroupedDegrees`]: canonical group and value columns.
type DegreeKey = (Vec<usize>, Vec<usize>);

/// The per-relation cache of derived structures: hash indexes and value
/// indexes keyed by canonical (sorted, distinct) column sets, and grouped
/// degree maps keyed by canonical (group, value) column pairs.
///
/// The cache lives behind the relation's storage `Arc`, so O(1) clones
/// share it; interior mutability makes population transparent to callers
/// holding `&Relation`.  Builds happen outside the lock (a racing duplicate
/// build is harmless), and a relaxed "populated" flag lets the mutation
/// path skip allocating a replacement cache when nothing was ever cached.
#[derive(Debug, Default)]
pub(crate) struct IndexCache {
    // panda-lint: allow(D2) -- memoisation only: every cached value is a
    // pure function of the relation's rows, so population order (and the
    // winner of a racing duplicate build) cannot influence any result.
    populated: AtomicBool,
    indexes: Mutex<HashMap<Vec<usize>, Arc<HashIndex>>>,
    values: Mutex<HashMap<ValueKey, Arc<ValueIndex>>>,
    degrees: Mutex<HashMap<DegreeKey, Arc<GroupedDegrees>>>,
    counts: Mutex<HashMap<Vec<usize>, usize>>,
}

impl IndexCache {
    /// Whether any entry was ever inserted (relaxed; used only to decide if
    /// mutation needs to detach from the cache).
    pub(crate) fn is_populated(&self) -> bool {
        self.populated.load(Ordering::Relaxed)
    }

    fn mark_populated(&self) {
        self.populated.store(true, Ordering::Relaxed);
    }

    /// Returns the cached hash index for a canonical column set, if built.
    pub(crate) fn cached_index(&self, cols: &[usize]) -> Option<Arc<HashIndex>> {
        self.indexes.lock().unwrap_or_else(PoisonError::into_inner).get(cols).cloned()
    }

    /// Returns the hash index for a canonical column set, building and
    /// caching it on first use.
    pub(crate) fn index(&self, relation: &Relation, cols: &[usize]) -> Arc<HashIndex> {
        if let Some(idx) = self.cached_index(cols) {
            return idx;
        }
        let built = Arc::new(HashIndex::build(relation, cols));
        self.mark_populated();
        self.indexes
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(cols.to_vec())
            .or_insert(built)
            .clone()
    }

    /// Returns the value index for a canonical group/value column pair,
    /// building and caching it on first use.
    pub(crate) fn value_index(
        &self,
        relation: &Relation,
        group_cols: &[usize],
        value_col: usize,
    ) -> Arc<ValueIndex> {
        let key = (group_cols.to_vec(), value_col);
        if let Some(idx) =
            self.values.lock().unwrap_or_else(PoisonError::into_inner).get(&key).cloned()
        {
            return idx;
        }
        let built = Arc::new(ValueIndex::build(relation, group_cols, value_col));
        self.mark_populated();
        self.values
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(key)
            .or_insert(built)
            .clone()
    }

    /// Returns the number of distinct values of a canonical column set,
    /// computing it transiently (borrowed row refs, nothing retained but
    /// the resulting `usize`) and caching it on first use.
    pub(crate) fn distinct_count(&self, relation: &Relation, cols: &[usize]) -> usize {
        if let Some(&n) = self.counts.lock().unwrap_or_else(PoisonError::into_inner).get(cols) {
            return n;
        }
        let n = if cols.len() == relation.arity() {
            // Full-row count: hash borrowed row slices, no per-row allocation.
            let mut seen: std::collections::HashSet<&[Value]> =
                std::collections::HashSet::with_capacity(relation.len());
            relation.iter().for_each(|row| {
                seen.insert(row);
            });
            seen.len()
        } else {
            let mut seen: std::collections::HashSet<Tuple> =
                std::collections::HashSet::with_capacity(relation.len());
            for row in relation.iter() {
                seen.insert(cols.iter().map(|&c| row[c]).collect());
            }
            seen.len()
        };
        self.mark_populated();
        self.counts.lock().unwrap_or_else(PoisonError::into_inner).insert(cols.to_vec(), n);
        n
    }

    /// Returns the grouped degrees for a canonical group/value column pair,
    /// building and caching them on first use.
    pub(crate) fn grouped_degrees(
        &self,
        relation: &Relation,
        group_cols: &[usize],
        value_cols: &[usize],
    ) -> Arc<GroupedDegrees> {
        let key = (group_cols.to_vec(), value_cols.to_vec());
        if let Some(gd) =
            self.degrees.lock().unwrap_or_else(PoisonError::into_inner).get(&key).cloned()
        {
            return gd;
        }
        let built = Arc::new(GroupedDegrees::compute(relation, group_cols, value_cols));
        self.mark_populated();
        self.degrees
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(key)
            .or_insert(built)
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_probe() {
        let r = Relation::from_rows(3, vec![[1, 10, 100], [1, 20, 200], [2, 10, 300]]);
        let idx = HashIndex::build(&r, &[0, 1]);
        assert_eq!(idx.probe(&[1, 10]), &[0]);
        assert_eq!(idx.probe(&[1, 20]), &[1]);
        assert_eq!(idx.probe(&[2, 10]), &[2]);
        assert!(idx.probe(&[2, 20]).is_empty());
        assert_eq!(idx.num_keys(), 3);
        assert_eq!(idx.max_degree(), 1);
    }

    #[test]
    fn max_degree_reflects_duplicated_keys() {
        let r = Relation::from_rows(2, vec![[1, 1], [1, 2], [1, 3], [2, 4]]);
        let idx = HashIndex::build(&r, &[0]);
        assert_eq!(idx.max_degree(), 3);
        assert_eq!(idx.num_keys(), 2);
        assert!(idx.contains_key(&[2]));
    }

    #[test]
    fn empty_key_groups_everything() {
        let r = Relation::from_rows(2, vec![[1, 1], [2, 2], [3, 3]]);
        let idx = HashIndex::build(&r, &[]);
        assert_eq!(idx.num_keys(), 1);
        assert_eq!(idx.probe(&[]).len(), 3);
        assert_eq!(idx.max_degree(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_column_panics() {
        let r = Relation::new(1);
        let _ = HashIndex::build(&r, &[2]);
    }

    #[test]
    fn key_of_extracts_key_columns() {
        let r = Relation::from_rows(3, vec![[7, 8, 9]]);
        let idx = HashIndex::build(&r, &[2, 0]);
        assert_eq!(idx.key_of(&[7, 8, 9]), vec![9, 7]);
    }

    #[test]
    fn value_index_sorts_and_dedups_candidates() {
        let r = Relation::from_rows(2, vec![[1, 30], [1, 10], [1, 30], [2, 5]]);
        let idx = ValueIndex::build(&r, &[0], 1);
        assert_eq!(idx.candidates(&[1]), Some(&vec![10, 30]));
        assert_eq!(idx.candidates(&[2]), Some(&vec![5]));
        assert_eq!(idx.candidates(&[9]), None);
        assert_eq!(idx.group_cols(), &[0]);
        assert_eq!(idx.value_col(), 1);
    }

    #[test]
    fn cached_index_is_shared_between_clones() {
        let r = Relation::from_rows(2, vec![[1, 10], [2, 20]]);
        let idx1 = r.index_for(&[0]);
        let clone = r.clone();
        let idx2 = clone.index_for(&[0]);
        assert!(Arc::ptr_eq(&idx1, &idx2), "clones must share the index cache");
    }

    #[test]
    fn mutation_detaches_from_the_shared_cache() {
        let mut r = Relation::from_rows(2, vec![[1, 10], [2, 20]]);
        let original = r.clone();
        let before = r.index_for(&[0]);
        r.push_row(&[3, 30]);
        let after = r.index_for(&[0]);
        assert!(!Arc::ptr_eq(&before, &after));
        assert_eq!(after.probe(&[3]).len(), 1);
        // The original clone still sees its (valid) cached index.
        assert!(Arc::ptr_eq(&before, &original.index_for(&[0])));
        assert!(original.index_for(&[0]).probe(&[3]).is_empty());
        // `reserve` writes no row but may re-home the buffer: it must
        // detach a populated cache as well.
        let mut reserved = original.clone();
        let _ = reserved.distinct_count();
        reserved.reserve(8);
        assert!(reserved.try_cached_index(&[0]).is_none());
        assert!(Arc::ptr_eq(&before, &original.index_for(&[0])));
        assert_eq!(reserved.distinct_count(), 2);
    }
}
