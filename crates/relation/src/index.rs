//! The per-relation cache of derived structures: hash indexes for row-id
//! probes, and sorted adjacencies for everything that groups values.
//!
//! The PANDA/subw algorithms repeatedly measure, semijoin, join and
//! partition the *same* relations across proof-sequence steps and degree
//! branches.  To avoid rebuilding identical structures every time, every
//! [`Relation`] carries an `IndexCache`: a lazily populated map from
//! canonical (sorted, distinct) column sets to built structures.  Because
//! relation storage is `Arc`-shared, an O(1) relation clone shares the
//! cache too — the second read of the same `(relation, columns)` pair
//! anywhere in the engine is a lookup, not a build.  Mutating a relation
//! detaches it from the shared cache (see `Relation::invalidate_derived`).
//!
//! An [`Adjacency`] is the sorted-trie level of Leapfrog Triejoin: the
//! rows projected onto key columns `K` then value columns `V`, sorted and
//! deduplicated.  The paper's degree `deg_R(V | K = k)` (Section 3.2) is
//! the length of `k`'s value list, a generic-join level's candidates are
//! one value list (or the key list, when nothing is bound yet), and a
//! distinct count is a number of keys, so one structure per column split
//! serves all three.

// panda-lint: allow-file(P1) -- key columns are canonicalised and
// bounds-checked against the arity before an index is ever built, and an
// adjacency's group ids index its own `offsets`.

use std::collections::HashMap;
// panda-lint: allow(D2) -- the index cache is the one sanctioned use of
// interior mutability in this crate: it memoises *deterministic* derived
// structures, so which thread populates an entry can never change a result.
use std::sync::atomic::{AtomicBool, Ordering};
// panda-lint: allow(D2) -- same cache: Mutex guards lookup tables whose
// contents are a pure function of the relation, never of timing.
use std::sync::{Arc, Mutex, PoisonError};

use crate::relation::{Relation, Tuple, Value};

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
/// assert!(idx.contains_key(&[2]));
/// ```
#[derive(Debug, Clone)]
pub struct HashIndex {
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
        check_cols(relation, key_cols);
        let mut map: HashMap<Tuple, Vec<usize>> = HashMap::with_capacity(relation.len());
        for (i, row) in relation.iter().enumerate() {
            let key: Tuple = key_cols.iter().map(|&c| row[c]).collect();
            map.entry(key).or_default().push(i);
        }
        HashIndex { map }
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
}

/// A relation's distinct rows projected onto key columns `K` followed by
/// value columns `V`, sorted: the distinct `K`-values in ascending order
/// (`keys`), and for each of them its distinct `V`-values in ascending
/// order (one run of `values` per key, delimited by `offsets`).
///
/// The degree `deg_R(V | K = k)` of group `g` is `offsets[g + 1] -
/// offsets[g]`.  Obtain one through [`Relation::adjacency`], which
/// canonicalises the split and caches the result on the relation.
///
/// # Examples
///
/// ```
/// use panda_relation::Relation;
///
/// let r = Relation::from_rows(2, vec![[1, 30], [1, 10], [1, 30], [2, 5]]);
/// let adj = r.adjacency(&[0], &[1]);
/// assert_eq!(adj.keys(), &[1, 2]);
/// let group = adj.find(&[1]).unwrap();
/// assert_eq!(adj.values(group), &[10, 30]);
/// assert_eq!(adj.find(&[9]), None);
/// assert_eq!((adj.max_degree(), adj.total()), (2, 3));
/// ```
#[derive(Debug, Clone)]
pub struct Adjacency {
    key_cols: Vec<usize>,
    value_width: usize,
    /// `key_cols.len()` values per key, keys strictly increasing.
    keys: Vec<Value>,
    /// `num_keys + 1` entry offsets: group `g` is entries
    /// `offsets[g]..offsets[g + 1]`.
    offsets: Vec<usize>,
    /// `value_width` values per entry.
    values: Vec<Value>,
}

impl Adjacency {
    /// Builds the adjacency of canonical `key_cols | value_cols` (each
    /// strictly increasing, disjoint) with one sort of the projected rows.
    fn build(relation: &Relation, key_cols: &[usize], value_cols: &[usize]) -> Self {
        let cols: Vec<usize> = key_cols.iter().chain(value_cols).copied().collect();
        check_cols(relation, &cols);
        let (rows, n) = sorted_distinct(relation, &cols);
        let (k, width) = (key_cols.len(), cols.len());
        let mut keys = Vec::new();
        let mut offsets = vec![0];
        let mut values = Vec::with_capacity(n * value_cols.len());
        for i in 0..n {
            let (key, value) = rows[i * width..(i + 1) * width].split_at(k);
            if i == 0 || key != &rows[(i - 1) * width..(i - 1) * width + k] {
                if i > 0 {
                    offsets.push(i);
                }
                keys.extend_from_slice(key);
            }
            values.extend_from_slice(value);
        }
        if n > 0 {
            offsets.push(n);
        }
        Adjacency {
            key_cols: key_cols.to_vec(),
            value_width: value_cols.len(),
            keys,
            offsets,
            values,
        }
    }

    /// The canonical key columns.
    #[must_use]
    pub fn key_cols(&self) -> &[usize] {
        &self.key_cols
    }

    /// The number of distinct keys: `|π_K R|`.
    #[must_use]
    pub fn num_keys(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The distinct keys in ascending order, flat: `key_cols().len()`
    /// values per key.  With one key column this is the sorted distinct
    /// column.
    #[must_use]
    pub fn keys(&self) -> &[Value] {
        &self.keys
    }

    /// The group id of `key`, if some row carries it (binary search).
    #[must_use]
    pub fn find(&self, key: &[Value]) -> Option<usize> {
        let k = self.key_cols.len();
        let (mut lo, mut hi) = (0, self.num_keys());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.keys[mid * k..(mid + 1) * k].cmp(key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(mid),
            }
        }
        None
    }

    /// The distinct values of group `group` in ascending order, flat:
    /// `value_cols.len()` values per entry.
    #[must_use]
    pub fn values(&self, group: usize) -> &[Value] {
        let width = self.value_width;
        &self.values[self.offsets[group] * width..self.offsets[group + 1] * width]
    }

    /// `deg_R(V | K = key of group)`: the number of distinct values of
    /// group `group`.
    #[must_use]
    pub fn degree(&self, group: usize) -> usize {
        self.offsets[group + 1] - self.offsets[group]
    }

    /// Every group's degree, in key order.
    pub fn degrees(&self) -> impl Iterator<Item = usize> + '_ {
        self.offsets.windows(2).map(|w| w[1] - w[0])
    }

    /// `deg_R(V | K)`: the largest degree (zero for an empty relation).
    #[must_use]
    pub fn max_degree(&self) -> usize {
        self.degrees().max().unwrap_or(0)
    }

    /// The number of distinct `(K, V)` pairs: `|π_{K ∪ V} R|`.
    #[must_use]
    pub fn total(&self) -> usize {
        self.offsets[self.num_keys()]
    }
}

/// Panics unless every column is in range for `relation`.
fn check_cols(relation: &Relation, cols: &[usize]) {
    for &c in cols {
        assert!(c < relation.arity(), "column {c} out of range for arity {}", relation.arity());
    }
}

/// The distinct rows of `relation` projected onto `cols`, sorted, as a flat
/// buffer of `cols.len()` values per row, and their number.
fn sorted_distinct(relation: &Relation, cols: &[usize]) -> (Vec<Value>, usize) {
    match cols.len() {
        0 => (Vec::new(), usize::from(!relation.is_empty())),
        1 => sorted_distinct_fixed::<1>(relation, cols),
        2 => sorted_distinct_fixed::<2>(relation, cols),
        3 => sorted_distinct_fixed::<3>(relation, cols),
        _ => {
            let mut rows: Vec<Tuple> =
                relation.iter().map(|row| cols.iter().map(|&c| row[c]).collect()).collect();
            rows.sort_unstable();
            rows.dedup();
            (rows.concat(), rows.len())
        }
    }
}

/// [`sorted_distinct`] for a fixed width: rows as arrays, no allocation
/// per row.
fn sorted_distinct_fixed<const W: usize>(
    relation: &Relation,
    cols: &[usize],
) -> (Vec<Value>, usize) {
    let mut rows: Vec<[Value; W]> =
        relation.iter().map(|row| std::array::from_fn(|i| row[cols[i]])).collect();
    rows.sort_unstable();
    rows.dedup();
    (rows.concat(), rows.len())
}

/// `true` iff the slice is strictly increasing — the canonical shape for
/// cached key-column sets.
pub(crate) fn is_canonical_cols(cols: &[usize]) -> bool {
    cols.windows(2).all(|w| w[0] < w[1])
}

/// Cache key for an [`Adjacency`]: canonical key and value columns.
type SplitKey = (Vec<usize>, Vec<usize>);

/// The per-relation cache of derived structures: hash indexes keyed by
/// canonical (sorted, distinct) key columns, and adjacencies keyed by
/// canonical (key, value) column pairs.
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
    adjacencies: Mutex<HashMap<SplitKey, Arc<Adjacency>>>,
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

    /// Returns the adjacency for a canonical key/value column pair,
    /// building and caching it on first use.
    pub(crate) fn adjacency(
        &self,
        relation: &Relation,
        key_cols: &[usize],
        value_cols: &[usize],
    ) -> Arc<Adjacency> {
        let key = (key_cols.to_vec(), value_cols.to_vec());
        if let Some(adj) =
            self.adjacencies.lock().unwrap_or_else(PoisonError::into_inner).get(&key).cloned()
        {
            return adj;
        }
        let built = Arc::new(Adjacency::build(relation, key_cols, value_cols));
        self.mark_populated();
        self.adjacencies
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(key)
            .or_insert(built)
            .clone()
    }

    /// The number of cached adjacencies.
    #[cfg(test)]
    pub(crate) fn num_adjacencies(&self) -> usize {
        self.adjacencies.lock().unwrap_or_else(PoisonError::into_inner).len()
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
    }

    #[test]
    fn duplicated_keys_probe_every_row() {
        let r = Relation::from_rows(2, vec![[1, 1], [1, 2], [1, 3], [2, 4]]);
        let idx = HashIndex::build(&r, &[0]);
        assert_eq!(idx.probe(&[1]), &[0, 1, 2]);
        assert!(idx.contains_key(&[2]));
    }

    #[test]
    fn empty_key_groups_everything() {
        let r = Relation::from_rows(2, vec![[1, 1], [2, 2], [3, 3]]);
        let idx = HashIndex::build(&r, &[]);
        assert_eq!(idx.probe(&[]).len(), 3);
        let adj = r.adjacency(&[], &[0, 1]);
        assert_eq!((adj.num_keys(), adj.max_degree(), adj.find(&[])), (1, 3, Some(0)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_column_panics() {
        let r = Relation::new(1);
        let _ = HashIndex::build(&r, &[2]);
    }

    #[test]
    fn adjacency_sorts_and_dedups_each_group() {
        let r = Relation::from_rows(3, vec![[2, 7, 1], [1, 30, 0], [1, 10, 0], [1, 30, 5]]);
        let adj = r.adjacency(&[0], &[1]);
        assert_eq!(adj.keys(), &[1, 2]);
        assert_eq!(adj.values(0), &[10, 30]);
        assert_eq!(adj.values(1), &[7]);
        assert_eq!(adj.degrees().collect::<Vec<_>>(), vec![2, 1]);
        // Two key columns, two value columns: flat, lexicographic.
        let wide = r.adjacency(&[0, 2], &[1]);
        assert_eq!(wide.keys(), &[1, 0, 1, 5, 2, 1]);
        assert_eq!(wide.find(&[1, 5]), Some(1));
        assert_eq!(wide.find(&[1, 1]), None);
        let rest = r.adjacency(&[2], &[0, 1]);
        assert_eq!(rest.values(0), &[1, 10, 1, 30]);
        assert_eq!(rest.total(), 4);
    }

    #[test]
    fn empty_relation_has_no_keys() {
        let adj = Relation::new(2).adjacency(&[0], &[1]);
        assert_eq!((adj.num_keys(), adj.max_degree(), adj.total()), (0, 0, 0));
        assert_eq!(adj.find(&[1]), None);
        assert_eq!(Relation::new(2).adjacency(&[], &[]).find(&[]), None);
    }

    #[test]
    fn cached_index_is_shared_between_clones() {
        let r = Relation::from_rows(2, vec![[1, 10], [2, 20]]);
        let idx1 = r.index_for(&[0]);
        let clone = r.clone();
        let idx2 = clone.index_for(&[0]);
        assert!(Arc::ptr_eq(&idx1, &idx2), "clones must share the index cache");
        let adj = r.adjacency(&[0], &[1]);
        assert!(Arc::ptr_eq(&adj, &clone.adjacency(&[0], &[1])));
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

    #[test]
    fn a_binary_relation_serves_every_grouping_read_from_two_adjacencies() {
        let r = Relation::from_rows(2, vec![[1, 2], [2, 3], [1, 3], [3, 1], [1, 2]]);
        // `StatisticsSet::measure`: both single-column degrees.
        assert_eq!(crate::stats::max_degree(&r, &[0], &[1]), 2);
        assert_eq!(crate::stats::max_degree(&r, &[1], &[0]), 2);
        // Cardinality and the projection cover's distinct counts.
        assert_eq!(r.distinct_count(), 4);
        assert_eq!(r.distinct_count_of(&[0]), 3);
        assert_eq!(r.distinct_count_of(&[1]), 3);
        assert_eq!(r.distinct_count_of(&[1, 0]), 4);
        // The triangle's generic-join levels over `R(A,B)`: `A` unbound
        // reads the keys of `(0 | rest)`, `B` given `A` one value list.
        let top = r.adjacency(&[0], &[0, 1]);
        assert_eq!(top.keys(), &[1, 2, 3]);
        let by_a = r.adjacency(&[0], &[1]);
        assert_eq!(by_a.values(by_a.find(&[1]).unwrap()), &[2, 3]);
        // PANDA's partition on `deg(0 | 1)`.
        assert_eq!(crate::stats::bucket_by_degree(&r, &[1], &[0]).len(), 2);
        assert_eq!(r.cache.num_adjacencies(), 2, "exactly (0|1) and (1|0)");
    }
}
