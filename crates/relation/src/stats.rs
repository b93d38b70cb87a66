//! Degree statistics and degree-based partitioning.
//!
//! The paper's statistics abstraction (Section 3.2) is the *degree
//! constraint* `deg_R(Y | X) ≤ N_{Y|X}`: for every fixed assignment of the
//! columns `X`, the number of distinct `Y`-values is bounded.  This module
//! measures those degrees on concrete relation instances, and implements
//! the two partitioning primitives the PANDA algorithm relies on
//! (Section 8.2):
//!
//! * **heavy/light splitting** at a threshold (e.g. `deg_S(Z|Y=y) ≤ √N`),
//! * **power-of-two degree bucketing**, which produces `O(log N)` buckets
//!   within which degrees are uniform up to a factor of two — the
//!   "uniformization" that turns worst-case bounds into per-branch costs.
//!
//! All measurements go through one shared [`GroupedDegrees`] map (group →
//! number of distinct value-tuples), obtained via
//! [`Relation::grouped_degrees`] so repeated measurements of the same
//! `(relation, group, value)` triple — ubiquitous in the adaptive plan's
//! per-branch costing — are served from the relation's cache.

// panda-lint: allow-file(P1) -- degree vectors are sized to the group
// columns they were built from two lines earlier.

use std::collections::{HashMap, HashSet};

use crate::relation::{Relation, Tuple, Value};

/// The per-group distinct-value counts of a relation for one split of its
/// columns into group columns `X` and value columns `Y`: for every distinct
/// `X`-value, the number of distinct `Y`-values co-occurring with it
/// (`deg_R(Y|X=x) = |π_Y σ_{X=x} R|`).  Duplicate rows are ignored.
///
/// The column sets are canonical (sorted, deduplicated) — degrees do not
/// depend on column order or repetition — which is what lets one computed
/// map serve [`degree_profile`], [`split_heavy_light`],
/// [`bucket_by_degree`] and [`degree_sequence`] alike, cached on the
/// relation via [`Relation::grouped_degrees`].
#[derive(Debug, Clone)]
pub struct GroupedDegrees {
    group_cols: Vec<usize>,
    value_cols: Vec<usize>,
    degrees: HashMap<Tuple, usize>,
    max_degree: usize,
    min_degree: usize,
    total: usize,
}

impl GroupedDegrees {
    /// Measures the degrees on a relation.  `group_cols` and `value_cols`
    /// must already be canonical (strictly increasing); use
    /// [`Relation::grouped_degrees`] to canonicalise and cache.
    ///
    /// Hash order never reaches an ordered sink here: the degrees map and
    /// the max/min/total folds are order-insensitive.
    #[must_use]
    pub(crate) fn compute(relation: &Relation, group_cols: &[usize], value_cols: &[usize]) -> Self {
        let degrees: HashMap<Tuple, usize> = match (group_cols, value_cols) {
            (_, []) => {
                // Every group has exactly one distinct (empty) value-tuple, so
                // this degenerates to a distinct count over the group columns —
                // no per-group set needed.
                let mut degrees = HashMap::with_capacity(relation.len());
                for row in relation.iter() {
                    let key: Tuple = group_cols.iter().map(|&c| row[c]).collect();
                    degrees.entry(key).or_insert(1);
                }
                degrees
            }
            (&[g], &[v]) => {
                // deg(v | g), the shape every binary atom is measured in:
                // per-group sets keyed by the bare values, no `Tuple` per row.
                let mut groups: HashMap<Value, HashSet<Value>> = HashMap::new();
                for row in relation.iter() {
                    groups.entry(row[g]).or_default().insert(row[v]);
                }
                groups
                    .into_iter()
                    .map(|(key, values)| (vec![key], values.len()))
                    .collect::<HashMap<_, _>>()
            }
            _ => {
                let mut groups: HashMap<Tuple, HashSet<Tuple>> = HashMap::new();
                for row in relation.iter() {
                    let key: Tuple = group_cols.iter().map(|&c| row[c]).collect();
                    let value: Tuple = value_cols.iter().map(|&c| row[c]).collect();
                    groups.entry(key).or_default().insert(value);
                }
                groups
                    .into_iter()
                    .map(|(key, values)| (key, values.len()))
                    .collect::<HashMap<_, _>>()
            }
        };
        let mut max_degree = 0;
        let mut min_degree = usize::MAX;
        let mut total = 0;
        for &d in degrees.values() {
            max_degree = max_degree.max(d);
            min_degree = min_degree.min(d);
            total += d;
        }
        if degrees.is_empty() {
            min_degree = 0;
        }
        GroupedDegrees {
            group_cols: group_cols.to_vec(),
            value_cols: value_cols.to_vec(),
            degrees,
            max_degree,
            min_degree,
            total,
        }
    }

    /// The canonical group (conditioning) columns.
    #[must_use]
    pub fn group_cols(&self) -> &[usize] {
        &self.group_cols
    }

    /// The canonical value columns.
    #[must_use]
    pub fn value_cols(&self) -> &[usize] {
        &self.value_cols
    }

    /// Number of distinct group values.
    #[must_use]
    pub fn num_groups(&self) -> usize {
        self.degrees.len()
    }

    /// Maximum over groups of the number of distinct value-tuples, i.e.
    /// `deg_R(Y | X)`.
    #[must_use]
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// Minimum over groups of the number of distinct value-tuples (zero for
    /// an empty relation).
    #[must_use]
    pub fn min_degree(&self) -> usize {
        self.min_degree
    }

    /// Total number of distinct `(X, Y)` pairs.
    #[must_use]
    pub fn total(&self) -> usize {
        self.total
    }

    /// The degree of the group the given row belongs to (zero if the row's
    /// group does not occur, i.e. the row is not from this relation).
    #[must_use]
    pub fn degree_of_row(&self, row: &[Value]) -> usize {
        let key: Tuple = self.group_cols.iter().map(|&c| row[c]).collect();
        self.degrees.get(&key).copied().unwrap_or(0)
    }

    /// Every degree value observed per group, sorted descending.
    #[must_use]
    pub fn sequence_desc(&self) -> Vec<usize> {
        let mut seq: Vec<usize> = self.degrees.values().copied().collect();
        seq.sort_unstable_by(|a, b| b.cmp(a));
        seq
    }
}

/// The measured degree profile of a relation with respect to a split of its
/// columns into group columns `X` and value columns `Y`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegreeProfile {
    /// The group (conditioning) columns `X`.
    pub group_cols: Vec<usize>,
    /// The value columns `Y`.
    pub value_cols: Vec<usize>,
    /// Number of distinct `X`-values.
    pub num_groups: usize,
    /// Maximum over groups of the number of distinct `Y`-values, i.e.
    /// `deg_R(Y | X)`.
    pub max_degree: usize,
    /// Total number of distinct `(X, Y)` pairs.
    pub total: usize,
}

impl DegreeProfile {
    /// Average degree (total / groups), rounded up; zero for an empty
    /// relation.
    #[must_use]
    pub fn avg_degree_ceil(&self) -> usize {
        if self.num_groups == 0 {
            0
        } else {
            self.total.div_ceil(self.num_groups)
        }
    }
}

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

/// Measures the degree of `value_cols` given `group_cols` in `relation`.
///
/// Duplicate rows are ignored (degrees are about *distinct* values, per the
/// paper's definition `deg_R(Y|X=x) = |π_Y σ_{X=x} R|`).
#[must_use]
pub fn degree_profile(
    relation: &Relation,
    group_cols: &[usize],
    value_cols: &[usize],
) -> DegreeProfile {
    let gd = relation.grouped_degrees(group_cols, value_cols);
    DegreeProfile {
        group_cols: group_cols.to_vec(),
        value_cols: value_cols.to_vec(),
        num_groups: gd.num_groups(),
        max_degree: gd.max_degree(),
        total: gd.total(),
    }
}

/// The maximum degree `deg_R(Y | X)`; convenience wrapper around
/// [`Relation::grouped_degrees`].
#[must_use]
pub fn max_degree(relation: &Relation, group_cols: &[usize], value_cols: &[usize]) -> usize {
    relation.grouped_degrees(group_cols, value_cols).max_degree()
}

/// The number of distinct values of a set of columns.  Only the resulting
/// count is cached on the relation (see [`Relation::distinct_count_of`]).
#[must_use]
pub fn distinct_count(relation: &Relation, cols: &[usize]) -> usize {
    relation.distinct_count_of(cols)
}

/// Splits `relation` into `(light, heavy)` parts: a tuple goes to `heavy`
/// iff its group value has strictly more than `threshold` distinct
/// value-column assignments.  This is the partitioning used in the paper's
/// running example (`deg_S(Z|Y=y) ≤ √N` vs `> √N`, Section 8.2).
///
/// When one side is empty the other is an O(1) clone of the input (shared
/// storage, shared index cache).
#[must_use]
pub fn split_heavy_light(
    relation: &Relation,
    group_cols: &[usize],
    value_cols: &[usize],
    threshold: usize,
) -> (Relation, Relation) {
    let gd = relation.grouped_degrees(group_cols, value_cols);
    if gd.max_degree() <= threshold {
        return (relation.clone(), Relation::new(relation.arity()));
    }
    if gd.min_degree() > threshold {
        return (Relation::new(relation.arity()), relation.clone());
    }
    let mut light = Relation::new(relation.arity());
    let mut heavy = Relation::new(relation.arity());
    for row in relation.iter() {
        if gd.degree_of_row(row) > threshold {
            heavy.push_row(row);
        } else {
            light.push_row(row);
        }
    }
    (light, heavy)
}

/// The inclusive upper end of the power-of-two degree bucket starting at
/// `2^j`, saturating instead of overflowing for the top bucket.
fn bucket_hi(j: u32) -> usize {
    match 1usize.checked_shl(j + 1) {
        Some(v) => v - 1,
        None => usize::MAX,
    }
}

/// Buckets `relation` by the degree of its groups into power-of-two ranges
/// `[2^j, 2^{j+1})`.  Buckets are returned in increasing degree order and
/// empty buckets are omitted; together they partition the relation's rows.
///
/// When all groups fall in one bucket, that bucket's relation is an O(1)
/// clone of the input (shared storage, shared index cache).
#[must_use]
pub fn bucket_by_degree(
    relation: &Relation,
    group_cols: &[usize],
    value_cols: &[usize],
) -> Vec<DegreeBucket> {
    if relation.is_empty() {
        return Vec::new();
    }
    let gd = relation.grouped_degrees(group_cols, value_cols);
    let bucket_of = |degree: usize| -> u32 {
        debug_assert!(degree >= 1);
        usize::BITS - 1 - degree.leading_zeros() // floor(log2(degree))
    };
    let lo_bucket = bucket_of(gd.min_degree());
    let hi_bucket = bucket_of(gd.max_degree());
    if lo_bucket == hi_bucket {
        return vec![DegreeBucket {
            degree_lo: 1usize << lo_bucket,
            degree_hi: bucket_hi(lo_bucket),
            relation: relation.clone(),
            num_groups: gd.num_groups(),
        }];
    }
    let mut buckets: HashMap<u32, (Relation, HashSet<Tuple>)> = HashMap::new();
    for row in relation.iter() {
        let degree = gd.degree_of_row(row);
        let bucket_id = bucket_of(degree);
        let key: Tuple = gd.group_cols().iter().map(|&c| row[c]).collect();
        let entry = buckets
            .entry(bucket_id)
            .or_insert_with(|| (Relation::new(relation.arity()), HashSet::new()));
        entry.0.push_row(row);
        entry.1.insert(key);
    }
    let mut out: Vec<DegreeBucket> = buckets
        .into_iter()
        .map(|(j, (rel, groups))| DegreeBucket {
            degree_lo: 1usize << j,
            degree_hi: bucket_hi(j),
            relation: rel,
            num_groups: groups.len(),
        })
        .collect();
    out.sort_by_key(|b| b.degree_lo);
    out
}

/// Returns every degree value observed per group, sorted descending.
/// Useful for computing ℓ_k norms of degree sequences (Section 9.2).
#[must_use]
pub fn degree_sequence(
    relation: &Relation,
    group_cols: &[usize],
    value_cols: &[usize],
) -> Vec<usize> {
    relation.grouped_degrees(group_cols, value_cols).sequence_desc()
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
    use crate::index::HashIndex;
    use proptest::prelude::*;

    fn skewed() -> Relation {
        // y=1 has degree 4, y=2 degree 2, y=3 degree 1.
        Relation::from_rows(2, vec![[1, 10], [1, 11], [1, 12], [1, 13], [2, 20], [2, 21], [3, 30]])
    }

    #[test]
    fn degree_profile_basic() {
        let r = skewed();
        let p = degree_profile(&r, &[0], &[1]);
        assert_eq!(p.num_groups, 3);
        assert_eq!(p.max_degree, 4);
        assert_eq!(p.total, 7);
        assert_eq!(p.avg_degree_ceil(), 3);
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
        let p = degree_profile(&r, &[], &[0, 1]);
        assert_eq!(p.max_degree, 7);
        assert_eq!(p.num_groups, 1);
        assert_eq!(distinct_count(&r, &[0]), 3);
        assert_eq!(distinct_count(&r, &[0, 1]), 7);
    }

    #[test]
    fn grouped_degrees_is_order_and_repetition_invariant() {
        let r = Relation::from_rows(3, vec![[1, 10, 5], [1, 11, 5], [2, 20, 6]]);
        let a = r.grouped_degrees(&[0, 2], &[1]);
        let b = r.grouped_degrees(&[2, 0, 0], &[1, 1]);
        assert_eq!(a.group_cols(), b.group_cols());
        assert_eq!(a.max_degree(), b.max_degree());
        assert_eq!(a.num_groups(), 2);
        assert_eq!(a.min_degree(), 1);
        assert_eq!(a.max_degree(), 2);
        assert_eq!(a.degree_of_row(&[1, 99, 5]), 2);
        assert_eq!(a.degree_of_row(&[9, 0, 9]), 0);
    }

    #[test]
    fn grouped_degrees_is_cached_on_the_relation() {
        let r = skewed();
        let a = r.grouped_degrees(&[0], &[1]);
        let b = r.clone().grouped_degrees(&[0], &[1]);
        assert!(std::sync::Arc::ptr_eq(&a, &b), "clones must share the degree cache");
    }

    #[test]
    fn heavy_light_split_partitions_rows() {
        let r = skewed();
        let (light, heavy) = split_heavy_light(&r, &[0], &[1], 2);
        assert_eq!(light.len() + heavy.len(), r.len());
        // group 1 (degree 4) is heavy, groups 2 and 3 light.
        assert_eq!(heavy.len(), 4);
        assert_eq!(light.len(), 3);
        assert!(heavy.iter().all(|row| row[0] == 1));
    }

    #[test]
    fn heavy_light_split_fast_paths_share_storage() {
        let r = skewed();
        let (light, heavy) = split_heavy_light(&r, &[0], &[1], 100);
        assert!(light.shares_storage_with(&r), "all-light split must be an O(1) clone");
        assert!(heavy.is_empty());
        let (light, heavy) = split_heavy_light(&r, &[0], &[1], 0);
        assert!(heavy.shares_storage_with(&r), "all-heavy split must be an O(1) clone");
        assert!(light.is_empty());
    }

    #[test]
    fn bucketing_partitions_and_bounds_degrees() {
        let r = skewed();
        let buckets = bucket_by_degree(&r, &[0], &[1]);
        let total: usize = buckets.iter().map(|b| b.relation.len()).sum();
        assert_eq!(total, r.len());
        for b in &buckets {
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

    /// Builds an index and reports `max_degree` through it, to cross-check
    /// [`degree_profile`] against [`HashIndex`].
    fn max_degree_via_index(relation: &Relation, group_cols: &[usize]) -> usize {
        HashIndex::build(relation, group_cols).max_degree()
    }

    #[test]
    fn index_and_profile_agree() {
        let r = skewed();
        assert_eq!(max_degree_via_index(&r, &[0]), max_degree(&r, &[0], &[1]));
    }

    proptest! {
        #[test]
        fn prop_buckets_partition_rows(rows in proptest::collection::vec((0u64..15, 0u64..40), 1..120)) {
            let rel = Relation::from_rows(2, rows.iter().map(|(a, b)| [*a, *b])).deduped();
            let buckets = bucket_by_degree(&rel, &[0], &[1]);
            let total: usize = buckets.iter().map(|b| b.relation.len()).sum();
            prop_assert_eq!(total, rel.len());
            for b in &buckets {
                let d = max_degree(&b.relation, &[0], &[1]);
                prop_assert!(d <= b.degree_hi);
                prop_assert!(max_degree(&b.relation, &[0], &[1]) >= 1);
            }
        }

        #[test]
        fn prop_heavy_light_respects_threshold(
            rows in proptest::collection::vec((0u64..10, 0u64..30), 1..100),
            threshold in 1usize..6,
        ) {
            let rel = Relation::from_rows(2, rows.iter().map(|(a, b)| [*a, *b])).deduped();
            let (light, heavy) = split_heavy_light(&rel, &[0], &[1], threshold);
            prop_assert_eq!(light.len() + heavy.len(), rel.len());
            if !light.is_empty() {
                prop_assert!(max_degree(&light, &[0], &[1]) <= threshold);
            }
            // every heavy group has degree > threshold in the original.
            let heavy_groups: std::collections::HashSet<u64> = heavy.iter().map(|r| r[0]).collect();
            for g in heavy_groups {
                let mut vals = std::collections::HashSet::new();
                for row in rel.iter() {
                    if row[0] == g { vals.insert(row[1]); }
                }
                prop_assert!(vals.len() > threshold);
            }
        }
    }
}
