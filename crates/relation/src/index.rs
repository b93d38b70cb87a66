//! The per-relation cache of derived structures: one sorted adjacency per
//! column split, the one structure every grouping read and every probe of
//! a relation goes through.
//!
//! The PANDA/subw algorithms repeatedly measure, semijoin, join and
//! partition the *same* relations across proof-sequence steps and degree
//! branches.  To avoid rebuilding identical structures every time, every
//! [`Relation`] carries an `IndexCache`: a lazily populated map from
//! canonical (sorted, distinct) column splits to built adjacencies.
//! Because relation storage is `Arc`-shared, an O(1) relation clone shares
//! the cache too — the second read of the same `(relation, split)` pair
//! anywhere in the engine is a lookup, not a build.  Mutating a relation
//! detaches it from the shared cache (see `Relation::invalidate_derived`).
//!
//! An [`Adjacency`] is the sorted-trie level of Leapfrog Triejoin: the
//! rows projected onto key columns `K` then value columns `V`, sorted and
//! deduplicated.  The paper's degree `deg_R(V | K = k)` (Section 3.2) is
//! the length of `k`'s value list, a generic-join level's candidates are
//! one value list (or the key list, when nothing is bound yet), a distinct
//! count is a number of keys, a join or semijoin probes the build side's
//! `(K | rest)` split by binary search on the key, and a FAQ join-tree
//! message holds one semiring element per group of it, so one structure
//! per column split serves them all.
//!
//! A build is one sort.  When the projection onto `K ++ V` fits in 64
//! bits (each column as wide as the OR of its values — dictionary-encoded
//! values are small), every row packs into one `u64` whose integer order
//! is the lexicographic order; the packed rows are sorted, deduplicated
//! and unpacked into keys, offsets and values, with no row id and no
//! second read of the rows.  A wider projection sorts row ids as
//! [`Relation::canonical_row_ids`] does, with the widths already measured,
//! and reads each row through its id.  The widths and the packing are the
//! relation's own (`Relation::column_widths`, `relation::pack`), shared
//! with that sort.
//! With one key column, [`Adjacency::find`] binary-searches the flat keys
//! as integers.

// panda-lint: allow-file(P1) -- an adjacency's columns are bounds-checked
// against the arity by the sort that builds it, and its group ids index its
// own `offsets`.

use std::collections::HashMap;
// panda-lint: allow(D2) -- the index cache is the one sanctioned use of
// interior mutability in this crate: it memoises *deterministic* derived
// structures, so which thread populates an entry can never change a result.
use std::sync::atomic::{AtomicBool, Ordering};
// panda-lint: allow(D2) -- same cache: Mutex guards lookup tables whose
// contents are a pure function of the relation, never of timing.
use std::sync::{Arc, Mutex, PoisonError};

use crate::relation::{pack, Relation, Value};

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
    /// strictly increasing, disjoint) from one sort of the projected rows.
    ///
    /// When the projection's bit widths (a column's is that of the OR of
    /// its values) fit in 64 bits together, each row's projection is
    /// packed into one `u64`, first column most significant, so integer
    /// order is the lexicographic order; the packed rows are sorted and
    /// deduplicated, and keys, offsets and values are unpacked from them.
    /// Wider projections sort row ids instead, as
    /// [`Relation::canonical_row_ids`] of `key_cols ++ value_cols` does
    /// past its sortedness pass, reusing the widths.
    fn build(relation: &Relation, key_cols: &[usize], value_cols: &[usize]) -> Self {
        let cols: Vec<usize> = key_cols.iter().chain(value_cols).copied().collect();
        for &c in &cols {
            assert!(c < relation.arity(), "adjacency column {c} out of range");
        }
        let widths = relation.column_widths(&cols);
        if widths.iter().sum::<u32>() > u64::BITS {
            let ids = relation.sorted_row_ids(&cols, &widths);
            return Self::from_row_ids(relation, key_cols, value_cols, &ids);
        }
        // Each packed row fits its `u64`: the widths sum to at most 64.
        let mut packed: Vec<u64> =
            relation.iter().map(|row| pack(row, &cols, &widths) as u64).collect();
        packed.sort_unstable();
        packed.dedup();
        // Each column's field: its shift from the least significant end and
        // its mask.
        let mut shift = 0;
        let mut fields = vec![(0, 0); cols.len()];
        for (field, &w) in fields.iter_mut().zip(&widths).rev() {
            *field = (shift, u64::MAX.checked_shr(u64::BITS - w).unwrap_or(0));
            shift += w;
        }
        let (key_fields, value_fields) = fields.split_at(key_cols.len());
        let value_bits: u32 = widths[key_cols.len()..].iter().sum();
        let unpack = |p: u64, (shift, mask): (u32, u64)| p.checked_shr(shift).unwrap_or(0) & mask;
        let mut keys = Vec::new();
        let mut offsets = vec![0];
        let mut values = Vec::with_capacity(packed.len() * value_cols.len());
        let mut last_key = None;
        for (i, &p) in packed.iter().enumerate() {
            let key = p.checked_shr(value_bits).unwrap_or(0);
            if last_key != Some(key) {
                if last_key.is_some() {
                    offsets.push(i);
                }
                last_key = Some(key);
                keys.extend(key_fields.iter().map(|&f| unpack(p, f)));
            }
            values.extend(value_fields.iter().map(|&f| unpack(p, f)));
        }
        if !packed.is_empty() {
            offsets.push(packed.len());
        }
        Adjacency {
            key_cols: key_cols.to_vec(),
            value_width: value_cols.len(),
            keys,
            offsets,
            values,
        }
    }

    /// [`Adjacency::build`] for projections wider than 64 bits: `ids` are
    /// the row ids in canonical `key_cols ++ value_cols` order, and each
    /// row is read where it lies.
    fn from_row_ids(
        relation: &Relation,
        key_cols: &[usize],
        value_cols: &[usize],
        ids: &[usize],
    ) -> Self {
        let mut keys = Vec::new();
        let mut offsets = vec![0];
        let mut values = Vec::with_capacity(ids.len() * value_cols.len());
        for (i, &id) in ids.iter().enumerate() {
            let row = relation.row(id);
            if i == 0 || key_cols.iter().any(|&c| relation.row(ids[i - 1])[c] != row[c]) {
                if i > 0 {
                    offsets.push(i);
                }
                keys.extend(key_cols.iter().map(|&c| row[c]));
            }
            values.extend(value_cols.iter().map(|&c| row[c]));
        }
        if !ids.is_empty() {
            offsets.push(ids.len());
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

    /// The group id of `key`, if some row carries it (binary search; with
    /// one key column, over the flat keys themselves).
    #[must_use]
    pub fn find(&self, key: &[Value]) -> Option<usize> {
        let k = self.key_cols.len();
        if let (1, &[key]) = (k, key) {
            let group = self.keys.partition_point(|&v| v < key);
            return (self.keys.get(group) == Some(&key)).then_some(group);
        }
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

/// Cache key for an [`Adjacency`]: canonical key and value columns.
pub(crate) type SplitKey = (Vec<usize>, Vec<usize>);

/// The per-relation cache of derived structures: adjacencies keyed by
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
    adjacencies: Mutex<HashMap<SplitKey, Arc<Adjacency>>>,
}

impl IndexCache {
    /// Whether any entry was ever inserted (relaxed; used only to decide if
    /// mutation needs to detach from the cache).
    pub(crate) fn is_populated(&self) -> bool {
        self.populated.load(Ordering::Relaxed)
    }

    /// Returns the cached adjacency for a canonical key/value column pair,
    /// if one was built.
    pub(crate) fn cached_adjacency(&self, split: &SplitKey) -> Option<Arc<Adjacency>> {
        self.adjacencies.lock().unwrap_or_else(PoisonError::into_inner).get(split).cloned()
    }

    /// Returns the adjacency for a canonical key/value column pair,
    /// building and caching it on first use.
    pub(crate) fn adjacency(&self, relation: &Relation, split: SplitKey) -> Arc<Adjacency> {
        if let Some(adj) = self.cached_adjacency(&split) {
            return adj;
        }
        let built = Arc::new(Adjacency::build(relation, &split.0, &split.1));
        self.populated.store(true, Ordering::Relaxed);
        self.adjacencies
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(split)
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
    use crate::operators;

    #[test]
    fn build_and_probe() {
        let r = Relation::from_rows(3, vec![[1, 10, 100], [1, 20, 200], [2, 10, 300]]);
        let adj = r.adjacency(&[0, 1], &[0, 1, 2]);
        let probe = |key: &[Value]| adj.find(key).map(|g| adj.values(g));
        assert_eq!(probe(&[1, 10]), Some(&[100][..]));
        assert_eq!(probe(&[1, 20]), Some(&[200][..]));
        assert_eq!(probe(&[2, 10]), Some(&[300][..]));
        assert_eq!(probe(&[2, 20]), None);
    }

    #[test]
    fn duplicated_keys_probe_every_row() {
        let r = Relation::from_rows(2, vec![[1, 3], [1, 2], [1, 3], [1, 1], [2, 4]]);
        let adj = r.adjacency(&[0], &[0, 1]);
        assert_eq!(adj.values(adj.find(&[1]).unwrap()), &[1, 2, 3]);
        assert!(adj.find(&[2]).is_some());
    }

    #[test]
    fn empty_key_groups_everything() {
        let r = Relation::from_rows(2, vec![[1, 1], [2, 2], [3, 3], [2, 2]]);
        let adj = r.adjacency(&[], &[0, 1]);
        assert_eq!((adj.num_keys(), adj.max_degree(), adj.find(&[])), (1, 3, Some(0)));
        assert_eq!(adj.values(0), &[1, 1, 2, 2, 3, 3]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_column_panics() {
        let r = Relation::new(1);
        let _ = r.adjacency(&[2], &[0]);
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
        // No key column: one group holding every distinct projection.
        let unkeyed = r.adjacency(&[], &[1]);
        assert_eq!((unkeyed.num_keys(), unkeyed.keys()), (1, &[][..]));
        assert_eq!(unkeyed.values(0), &[7, 10, 30]);
        // Four columns whose values need 45 bits each do not pack into a
        // 128-bit key: the rows are sorted by comparing them in place.
        let big = 1u64 << 44;
        let r = Relation::from_rows(
            4,
            vec![
                [2, big + 2, big, big + 1],
                [1, big + 5, big, big],
                [2, big + 2, big, big + 1],
                [1, big, big + 9, big],
                [1, big + 5, big, big],
            ],
        );
        let adj = r.adjacency(&[0], &[0, 1, 2, 3]);
        assert_eq!(adj.keys(), &[1, 2]);
        assert_eq!(adj.values(0), &[big, big + 9, big, big + 5, big, big]);
        assert_eq!(adj.values(1), &[big + 2, big, big + 1]);
        assert_eq!((adj.total(), r.distinct_count()), (3, 3));
        let by_tail = r.adjacency(&[2, 3], &[1]);
        assert_eq!(by_tail.keys(), &[big, big, big, big + 1, big + 9, big]);
        assert_eq!(by_tail.values(0), &[big + 5]);
    }

    #[test]
    fn a_zero_column_beside_a_full_width_one_packs() {
        // Widths 0 and 64: the zero column's field lies 64 bits up.
        let r = Relation::from_rows(2, vec![[0, u64::MAX], [0, 5], [0, u64::MAX]]);
        let adj = r.adjacency(&[0], &[1]);
        assert_eq!((adj.keys(), adj.values(0)), (&[0][..], &[5, u64::MAX][..]));
        let adj = r.adjacency(&[1], &[0]);
        assert_eq!(adj.keys(), &[5, u64::MAX]);
        assert_eq!((adj.find(&[u64::MAX]), adj.values(1)), (Some(1), &[0][..]));
    }

    #[test]
    fn empty_relation_has_no_keys() {
        let adj = Relation::new(2).adjacency(&[0], &[1]);
        assert_eq!((adj.num_keys(), adj.max_degree(), adj.total()), (0, 0, 0));
        assert_eq!(adj.find(&[1]), None);
        assert_eq!(Relation::new(2).adjacency(&[], &[]).find(&[]), None);
    }

    #[test]
    fn cached_adjacency_is_shared_between_clones() {
        let r = Relation::from_rows(2, vec![[1, 10], [2, 20]]);
        let clone = r.clone();
        assert!(r.try_cached_adjacency(&[0], &[1]).is_none());
        let adj = r.adjacency(&[0], &[1]);
        assert!(Arc::ptr_eq(&adj, &clone.try_cached_adjacency(&[0], &[1]).unwrap()));
        assert!(Arc::ptr_eq(&adj, &clone.adjacency(&[0], &[1])));
    }

    #[test]
    fn mutation_detaches_from_the_shared_cache() {
        let mut r = Relation::from_rows(2, vec![[1, 10], [2, 20]]);
        let original = r.clone();
        let before = r.adjacency(&[0], &[1]);
        r.push_row(&[3, 30]);
        let after = r.adjacency(&[0], &[1]);
        assert!(!Arc::ptr_eq(&before, &after));
        assert!(after.find(&[3]).is_some());
        // The original clone still sees its (valid) cached adjacency.
        assert!(Arc::ptr_eq(&before, &original.adjacency(&[0], &[1])));
        assert!(original.adjacency(&[0], &[1]).find(&[3]).is_none());
        // `reserve` writes no row but may re-home the buffer: it must
        // detach a populated cache as well.
        let mut reserved = original.clone();
        let _ = reserved.distinct_count();
        reserved.reserve(8);
        assert!(reserved.try_cached_adjacency(&[0], &[1]).is_none());
        assert!(Arc::ptr_eq(&before, &original.adjacency(&[0], &[1])));
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
        // A join on each column, with `r` as the build side (the probe
        // side is larger), and a semijoin filtered by `r`.
        let probe = Relation::from_rows(1, vec![[1], [2], [3], [4], [5], [6]]);
        assert_eq!(operators::join(&r, &probe, &[(0, 0)]).len(), 4);
        assert_eq!(operators::join(&r, &probe, &[(1, 0)]).len(), 4);
        assert_eq!(operators::semijoin(&probe, &r, &[(0, 1)]).len(), 3);
        assert_eq!(r.cache.num_adjacencies(), 2, "exactly (0|1) and (1|0)");
    }
}
