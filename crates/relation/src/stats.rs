//! Degree statistics and degree-based partitioning.
//!
//! The paper's statistics abstraction (Section 3.2) is the *degree
//! constraint* `deg_R(Y | X) ≤ N_{Y|X}`: for every fixed assignment of the
//! columns `X`, the number of distinct `Y`-values is bounded.  This module
//! measures those degrees on concrete relation instances, and implements
//! the partitioning primitive the PANDA algorithm relies on (Section 8.2):
//! **power-of-two degree bucketing**, which produces `O(log N)` buckets
//! within which degrees are uniform up to a factor of two — the
//! "uniformization" that turns worst-case bounds into per-branch costs.
//!
//! Every measurement reads one cached [`Adjacency`](crate::Adjacency)
//! per column split, obtained via [`Relation::adjacency`]: a degree is
//! the length of a group's value list, so repeated measurements of the
//! same `(relation, group, value)` triple — ubiquitous in the adaptive
//! plan's per-branch costing — are offset differences on a structure
//! built once.  A bucketing is cached beside the adjacencies, so every
//! degree branch and every request that partitions the same relation on
//! the same split reads the same bucket relations.

// panda-lint: allow-file(P1) -- group ids come from the adjacency's own
// `find`, and every row's key occurs in its relation's adjacency.

use std::sync::Arc;

use crate::relation::{split, Relation};

/// One bucket of a power-of-two degree bucketing.
#[derive(Debug, Clone)]
pub struct DegreeBucket {
    /// Lower bound (inclusive) on the per-group degree in this bucket.
    pub degree_lo: usize,
    /// Upper bound (inclusive) on the per-group degree in this bucket.
    pub degree_hi: usize,
    /// The tuples of the original relation whose group falls in the bucket.
    pub relation: Relation,
    /// Number of distinct group values in the bucket.
    pub num_groups: usize,
}

/// The maximum degree `deg_R(Y | X)` of `value_cols` given `group_cols`.
///
/// Duplicate rows are ignored (degrees are about *distinct* values, per the
/// paper's definition `deg_R(Y|X=x) = |π_Y σ_{X=x} R|`).
#[must_use]
pub fn max_degree(relation: &Relation, group_cols: &[usize], value_cols: &[usize]) -> usize {
    relation.adjacency(group_cols, value_cols).max_degree()
}

/// The number of distinct values of a set of columns (see
/// [`Relation::distinct_count_of`]).
#[must_use]
pub fn distinct_count(relation: &Relation, cols: &[usize]) -> usize {
    relation.distinct_count_of(cols)
}

/// The inclusive upper end of the power-of-two degree bucket starting at
/// `2^j`, saturating instead of overflowing for the top bucket.
fn bucket_hi(j: u32) -> usize {
    match 1usize.checked_shl(j + 1) {
        Some(v) => v - 1,
        None => usize::MAX,
    }
}

/// `floor(log2(degree))`: the power-of-two bucket a degree falls in.
fn bucket_of(degree: usize) -> u32 {
    debug_assert!(degree >= 1);
    usize::BITS - 1 - degree.leading_zeros()
}

/// Buckets `relation` by the degree of its groups into power-of-two ranges
/// `[2^j, 2^{j+1})`.  Buckets are returned in increasing degree order and
/// empty buckets are omitted; together they partition the relation's rows,
/// and each bucket keeps its rows in the input's order.
///
/// The split is canonicalised as [`Relation::adjacency`]'s is, and the
/// buckets are cached on the relation: a second call on the same split,
/// from any clone, returns the same bucket relations (same
/// [storage](Relation::storage_id), same caches).  When all groups fall in
/// one bucket, that bucket's relation is an O(1) clone of the input
/// (shared storage, shared index cache), and nothing is stored: the clone
/// would keep its own cache alive.
#[must_use]
pub fn bucket_by_degree(
    relation: &Relation,
    group_cols: &[usize],
    value_cols: &[usize],
) -> Arc<[DegreeBucket]> {
    if relation.is_empty() {
        return Arc::new([]);
    }
    let split = split(group_cols, value_cols);
    if let Some(buckets) = relation.cache.cached_buckets(&split) {
        return buckets;
    }
    let adj = relation.cache.adjacency(relation, split.clone());
    let lo = bucket_of(adj.degrees().min().unwrap_or(1));
    let hi = bucket_of(adj.max_degree());
    let bucket = |j: u32, relation: Relation, num_groups: usize| DegreeBucket {
        degree_lo: 1usize << j,
        degree_hi: bucket_hi(j),
        relation,
        num_groups,
    };
    if lo == hi {
        return Arc::new([bucket(lo, relation.clone(), adj.num_keys())]);
    }
    let mut parts: Vec<(Relation, usize)> =
        (lo..=hi).map(|_| (Relation::new(relation.arity()), 0)).collect();
    for degree in adj.degrees() {
        parts[(bucket_of(degree) - lo) as usize].1 += 1;
    }
    let mut key = Vec::with_capacity(adj.key_cols().len());
    for row in relation.iter() {
        key.clear();
        key.extend(adj.key_cols().iter().map(|&c| row[c]));
        let group = adj.find(&key).expect("every row's key is in its relation's adjacency");
        parts[(bucket_of(adj.degree(group)) - lo) as usize].0.push_row(row);
    }
    let built = (lo..=hi)
        .zip(parts)
        .filter(|(_, (_, num_groups))| *num_groups > 0)
        .map(|(j, (relation, num_groups))| bucket(j, relation, num_groups))
        .collect();
    relation.cache.insert_buckets(split, built)
}

/// Returns every degree value observed per group, sorted descending.
/// Useful for computing ℓ_k norms of degree sequences (Section 9.2).
#[must_use]
pub fn degree_sequence(
    relation: &Relation,
    group_cols: &[usize],
    value_cols: &[usize],
) -> Vec<usize> {
    let mut seq: Vec<usize> = relation.adjacency(group_cols, value_cols).degrees().collect();
    seq.sort_unstable_by(|a, b| b.cmp(a));
    seq
}

/// The ℓ_k norm of the degree sequence of `value_cols` given `group_cols`,
/// as a floating point number (`k = 0` is interpreted as ℓ_∞, i.e. the max
/// degree).  See Eq. (72) of the paper.
#[must_use]
pub fn lp_norm_of_degree_sequence(
    relation: &Relation,
    group_cols: &[usize],
    value_cols: &[usize],
    k: u32,
) -> f64 {
    let seq = degree_sequence(relation, group_cols, value_cols);
    if k == 0 {
        return seq.first().copied().unwrap_or(0) as f64;
    }
    let sum: f64 = seq.iter().map(|&d| (d as f64).powi(k as i32)).sum();
    sum.powf(1.0 / f64::from(k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn skewed() -> Relation {
        // y=1 has degree 4, y=2 degree 2, y=3 degree 1.
        Relation::from_rows(2, vec![[1, 10], [1, 11], [1, 12], [1, 13], [2, 20], [2, 21], [3, 30]])
    }

    #[test]
    fn degree_counts_basic() {
        let r = skewed();
        let adj = r.adjacency(&[0], &[1]);
        assert_eq!(adj.num_keys(), 3);
        assert_eq!(adj.max_degree(), 4);
        assert_eq!(adj.total(), 7);
        assert_eq!(max_degree(&r, &[0], &[1]), 4);
        assert_eq!(max_degree(&r, &[1], &[0]), 1);
    }

    #[test]
    fn degree_ignores_duplicate_rows() {
        let r = Relation::from_rows(2, vec![[1, 10], [1, 10], [1, 11]]);
        assert_eq!(max_degree(&r, &[0], &[1]), 2);
    }

    #[test]
    fn cardinality_is_degree_with_empty_condition() {
        let r = skewed();
        let adj = r.adjacency(&[], &[0, 1]);
        assert_eq!(adj.max_degree(), 7);
        assert_eq!(adj.num_keys(), 1);
        assert_eq!(distinct_count(&r, &[0]), 3);
        assert_eq!(distinct_count(&r, &[0, 1]), 7);
    }

    #[test]
    fn adjacency_is_order_and_repetition_invariant() {
        let r = Relation::from_rows(3, vec![[1, 10, 5], [1, 11, 5], [2, 20, 6]]);
        let a = r.adjacency(&[0, 2], &[1]);
        let b = r.clone().adjacency(&[2, 0, 0], &[1, 1]);
        assert!(std::sync::Arc::ptr_eq(&a, &b), "one cached adjacency per canonical split");
        assert_eq!(a.key_cols(), &[0, 2]);
        assert_eq!(a.num_keys(), 2);
        assert_eq!(a.degrees().min(), Some(1));
        assert_eq!(a.max_degree(), 2);
        assert_eq!(a.find(&[1, 5]).map(|g| a.degree(g)), Some(2));
        assert_eq!(a.find(&[9, 9]), None);
    }

    #[test]
    fn bucketing_partitions_and_bounds_degrees() {
        let r = skewed();
        let buckets = bucket_by_degree(&r, &[0], &[1]);
        let total: usize = buckets.iter().map(|b| b.relation.len()).sum();
        assert_eq!(total, r.len());
        for b in buckets.iter() {
            let d = max_degree(&b.relation, &[0], &[1]);
            assert!(
                d >= b.degree_lo && d <= b.degree_hi,
                "degree {d} outside [{}, {}]",
                b.degree_lo,
                b.degree_hi
            );
        }
        // degrees 4, 2, 1 land in buckets [4,7], [2,3], [1,1].
        assert_eq!(buckets.len(), 3);
        assert_eq!(buckets[0].degree_lo, 1);
        assert_eq!(buckets[1].degree_lo, 2);
        assert_eq!(buckets[2].degree_lo, 4);
    }

    #[test]
    fn single_bucket_shares_storage() {
        // All groups have degree 1 → one bucket, O(1) clone.
        let r = Relation::from_rows(2, vec![[1, 10], [2, 20], [3, 30]]);
        let buckets = bucket_by_degree(&r, &[0], &[1]);
        assert_eq!(buckets.len(), 1);
        assert!(buckets[0].relation.shares_storage_with(&r));
        assert_eq!(buckets[0].num_groups, 3);
    }

    #[test]
    fn a_repeated_bucketing_returns_the_same_storage() {
        let r = skewed();
        let ids = |buckets: &[DegreeBucket]| -> Vec<_> {
            buckets.iter().map(|b| b.relation.storage_id()).collect()
        };
        let first = bucket_by_degree(&r, &[0], &[1]);
        // A clone shares the cache; `[0, 0] | [0, 1]` is the same split.
        let again = bucket_by_degree(&r.clone(), &[0, 0], &[0, 1]);
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!(ids(&first), ids(&again));
        // Another split is another entry.
        assert_eq!(bucket_by_degree(&r, &[1], &[0]).len(), 1);
        assert!(Arc::ptr_eq(&first, &bucket_by_degree(&r, &[0], &[1])));
    }

    #[test]
    fn mutation_detaches_the_cached_buckets() {
        let original = skewed();
        let before = bucket_by_degree(&original, &[0], &[1]);
        let mut pushed = original.clone();
        pushed.push_row(&[3, 31]);
        let after = bucket_by_degree(&pushed, &[0], &[1]);
        assert!(!Arc::ptr_eq(&before, &after));
        // Group 3 now has degree 2: it joins group 2's bucket.
        assert_eq!(after.iter().map(|b| b.num_groups).collect::<Vec<_>>(), vec![2, 1]);
        let mut reserved = original.clone();
        reserved.reserve(8);
        assert!(reserved.cache.cached_buckets(&split(&[0], &[1])).is_none());
        // The original still reads its own (valid) buckets.
        assert!(Arc::ptr_eq(&before, &bucket_by_degree(&original, &[0], &[1])));
    }

    #[test]
    fn dropping_a_relation_frees_its_buckets() {
        let r = skewed();
        let cache = Arc::downgrade(&r.cache);
        let buckets = bucket_by_degree(&r, &[0], &[1]);
        let stored = Arc::downgrade(&buckets);
        let bucket_cache = Arc::downgrade(&buckets[0].relation.cache);
        let _ = bucket_by_degree(&buckets[2].relation, &[1], &[0]);
        drop((r, buckets));
        assert!(cache.upgrade().is_none(), "the relation's cache is freed");
        assert!(stored.upgrade().is_none(), "so are its buckets");
        assert!(bucket_cache.upgrade().is_none(), "and their caches");
        // One bucket is a clone of the relation, kept by no cache.
        let single = Relation::from_rows(2, vec![[1, 10], [2, 20]]);
        let cache = Arc::downgrade(&single.cache);
        let buckets = bucket_by_degree(&single, &[0], &[1]);
        assert!(Arc::ptr_eq(&buckets[0].relation.cache, &single.cache));
        drop((single, buckets));
        assert!(cache.upgrade().is_none(), "a single bucket makes no cycle");
    }

    #[test]
    fn a_warm_second_partition_builds_nothing() {
        // What an adaptive bind does with each relation of the double
        // star: bucket on both directions, then read every bucket's
        // adjacencies.
        let star: Vec<[u64; 2]> =
            (0..8).map(|i| [0, i]).chain((1..8).map(|i| [i, 0])).chain([[5, 6], [6, 5]]).collect();
        let r = Relation::from_rows(2, star);
        let bind = || {
            let mut leaves = Vec::new();
            for first in bucket_by_degree(&r, &[0], &[1]).iter() {
                for second in bucket_by_degree(&first.relation, &[1], &[0]).iter() {
                    let _ = second.relation.adjacency(&[0], &[1]);
                    let _ = second.relation.adjacency(&[1], &[0]);
                    leaves.push(second.relation.storage_id());
                }
            }
            leaves
        };
        let start = crate::index::builds::so_far();
        let cold = bind();
        let warm = crate::index::builds::so_far();
        assert!(warm.0 > start.0 && warm.1 > start.1, "the cold bind builds");
        assert_eq!(bind(), cold, "the warm bind reads the same bucket relations");
        assert_eq!(crate::index::builds::so_far(), warm, "and builds nothing");
    }

    #[test]
    fn bucket_hi_saturates_at_the_top() {
        assert_eq!(bucket_hi(0), 1);
        assert_eq!(bucket_hi(2), 7);
        assert_eq!(bucket_hi(usize::BITS - 1), usize::MAX);
    }

    #[test]
    fn degree_sequence_and_lp_norms() {
        let r = skewed();
        assert_eq!(degree_sequence(&r, &[0], &[1]), vec![4, 2, 1]);
        let linf = lp_norm_of_degree_sequence(&r, &[0], &[1], 0);
        assert!((linf - 4.0).abs() < 1e-9);
        let l1 = lp_norm_of_degree_sequence(&r, &[0], &[1], 1);
        assert!((l1 - 7.0).abs() < 1e-9);
        let l2 = lp_norm_of_degree_sequence(&r, &[0], &[1], 2);
        assert!((l2 - (16.0f64 + 4.0 + 1.0).sqrt()).abs() < 1e-9);
    }

    proptest! {
        #[test]
        fn prop_buckets_partition_rows(rows in proptest::collection::vec((0u64..15, 0u64..40), 1..120)) {
            let rel = Relation::from_rows(2, rows.iter().map(|(a, b)| [*a, *b])).deduped();
            let buckets = bucket_by_degree(&rel, &[0], &[1]);
            let total: usize = buckets.iter().map(|b| b.relation.len()).sum();
            prop_assert_eq!(total, rel.len());
            for b in buckets.iter() {
                let d = max_degree(&b.relation, &[0], &[1]);
                prop_assert!(d <= b.degree_hi);
                prop_assert!(max_degree(&b.relation, &[0], &[1]) >= 1);
                // A bucket keeps the input's rows of its groups, in order.
                let groups: std::collections::BTreeSet<u64> =
                    b.relation.iter().map(|r| r[0]).collect();
                prop_assert_eq!(groups.len(), b.num_groups);
                let expected: Vec<&[u64]> =
                    rel.iter().filter(|r| groups.contains(&r[0])).collect();
                prop_assert_eq!(b.relation.iter().collect::<Vec<_>>(), expected);
            }
        }
    }
}
