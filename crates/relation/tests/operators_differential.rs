//! Differential tests for the operator layer: every join-shaped operator is
//! checked against a naive nested-loop reference on random inputs, with
//! and without the build side's adjacency already cached — and the
//! projection against a first-occurrence `HashSet` reference, row order
//! included.

use std::collections::HashSet;

use panda_relation::{operators, stats, Relation, Tuple, Value};
use proptest::prelude::*;

/// Nested-loop reference join: all columns of `left` followed by the
/// non-join columns of `right`, as a canonical (sorted, unique) row set.
fn naive_join(left: &Relation, right: &Relation, on: &[(usize, usize)]) -> Vec<Tuple> {
    let right_join_cols: Vec<usize> = on.iter().map(|&(_, r)| r).collect();
    let right_keep_cols: Vec<usize> =
        (0..right.arity()).filter(|c| !right_join_cols.contains(c)).collect();
    let mut rows = Vec::new();
    for lrow in left.iter() {
        for rrow in right.iter() {
            if on.iter().all(|&(l, r)| lrow[l] == rrow[r]) {
                let mut row: Tuple = lrow.to_vec();
                row.extend(right_keep_cols.iter().map(|&c| rrow[c]));
                rows.push(row);
            }
        }
    }
    rows.sort();
    rows.dedup();
    rows
}

fn naive_semijoin(left: &Relation, right: &Relation, on: &[(usize, usize)]) -> Vec<Tuple> {
    let mut rows: Vec<Tuple> = left
        .iter()
        .filter(|lrow| right.iter().any(|rrow| on.iter().all(|&(l, r)| lrow[l] == rrow[r])))
        .map(<[Value]>::to_vec)
        .collect();
    rows.sort();
    rows.dedup();
    rows
}

/// Reference projection: each row's projection, kept the first time it is
/// seen, in input order.
fn naive_project(rel: &Relation, cols: &[usize]) -> Vec<Tuple> {
    let mut seen: HashSet<Tuple> = HashSet::new();
    rel.iter()
        .map(|row| cols.iter().map(|&c| row[c]).collect::<Tuple>())
        .filter(|projected| seen.insert(projected.clone()))
        .collect()
}

fn rel_from(arity: usize, rows: &[Vec<Value>]) -> Relation {
    Relation::from_rows(arity, rows.iter().map(Vec::as_slice))
}

/// Strategy: rows for a relation of the given arity over a small domain
/// (small domains force key collisions, the interesting case).
fn rows_strategy(arity: usize, max_rows: usize) -> impl Strategy<Value = Vec<Vec<Value>>> {
    proptest::collection::vec(proptest::collection::vec(0u64..6, arity..arity + 1), 0..max_rows)
}

proptest! {
    #[test]
    fn prop_join_matches_nested_loop(
        lrows in rows_strategy(2, 40),
        rrows in rows_strategy(2, 40),
        lcol in 0usize..2,
        rcol in 0usize..2,
    ) {
        let left = rel_from(2, &lrows);
        let right = rel_from(2, &rrows);
        let on = [(lcol, rcol)];
        let expected = naive_join(&left, &right, &on);
        prop_assert_eq!(operators::join(&left, &right, &on).canonical_rows(), expected);
    }

    #[test]
    fn prop_join_on_two_columns_matches_nested_loop(
        lrows in rows_strategy(3, 30),
        rrows in rows_strategy(2, 30),
    ) {
        let left = rel_from(3, &lrows);
        let right = rel_from(2, &rrows);
        let on = [(0, 0), (2, 1)];
        let expected = naive_join(&left, &right, &on);
        prop_assert_eq!(operators::join(&left, &right, &on).canonical_rows(), expected);
    }

    #[test]
    fn prop_join_with_empty_on_is_cartesian(
        lrows in rows_strategy(2, 15),
        rrows in rows_strategy(1, 15),
    ) {
        let left = rel_from(2, &lrows);
        let right = rel_from(1, &rrows);
        let expected = naive_join(&left, &right, &[]);
        prop_assert_eq!(operators::join(&left, &right, &[]).canonical_rows(), expected);
    }

    #[test]
    fn prop_cached_and_fresh_index_paths_agree(
        lrows in rows_strategy(3, 30),
        rrows in rows_strategy(3, 30),
        on in proptest::collection::vec((0usize..3, 0usize..3), 0..4),
    ) {
        // Repeats on either side of `on` (one column equated with several)
        // are in the strategy's range.  Each operator runs three ways:
        // cold, with the left side's `(K | rest)` adjacency pre-warmed, and
        // with the right side's pre-warmed, which flips the build side.
        let expected = (
            naive_join(&rel_from(3, &lrows), &rel_from(3, &rrows), &on),
            naive_semijoin(&rel_from(3, &lrows), &rel_from(3, &rrows), &on),
        );
        let lcols: Vec<usize> = on.iter().map(|&(l, _)| l).collect();
        let rcols: Vec<usize> = on.iter().map(|&(_, r)| r).collect();
        for warm in ["cold", "left", "right"] {
            let left = rel_from(3, &lrows);
            let right = rel_from(3, &rrows);
            match warm {
                "left" => drop(left.adjacency(&lcols, &[0, 1, 2])),
                "right" => drop(right.adjacency(&rcols, &[0, 1, 2])),
                _ => {}
            }
            let got = (
                operators::join(&left, &right, &on).canonical_rows(),
                operators::semijoin(&left, &right, &on).canonical_rows(),
            );
            prop_assert_eq!(&got, &expected, "{} on {:?}", warm, on);
        }
    }

    #[test]
    fn prop_semijoin_matches_nested_loop(
        lrows in rows_strategy(2, 40),
        rrows in rows_strategy(2, 40),
        lcol in 0usize..2,
        rcol in 0usize..2,
    ) {
        let left = rel_from(2, &lrows).deduped();
        let right = rel_from(2, &rrows);
        let on = [(lcol, rcol)];
        prop_assert_eq!(
            operators::semijoin(&left, &right, &on).canonical_rows(),
            naive_semijoin(&left, &right, &on)
        );
    }

    #[test]
    fn prop_project_matches_first_occurrence_dedup(
        rows in rows_strategy(3, 40),
        cols in proptest::collection::vec(0usize..3, 0..5),
    ) {
        // Duplicate rows, the empty input, repeated and permuted columns
        // and the zero-column output are all in the strategies' ranges.
        let rel = rel_from(3, &rows);
        let out = operators::project(&rel, &cols);
        prop_assert_eq!(out.arity(), cols.len());
        let got: Vec<Tuple> = out.iter().map(<[Value]>::to_vec).collect();
        prop_assert_eq!(got, naive_project(&rel, &cols), "cols {:?}", cols);
    }

}

proptest! {
    #[test]
    fn prop_adjacency_degrees_match_naive_count(rows in rows_strategy(3, 50)) {
        use std::collections::{BTreeMap, BTreeSet};
        // Duplicate rows and the empty relation are both in the strategy's
        // range.  The splits cover one and two key columns, one and two
        // value columns, no key column and no value column.
        let r = rel_from(3, &rows);
        for (g, v) in [
            (&[0][..], &[1][..]),
            (&[2][..], &[0][..]),
            (&[0][..], &[1, 2][..]),
            (&[0, 1][..], &[2][..]),
            (&[][..], &[0, 1, 2][..]),
            (&[0][..], &[][..]),
            (&[1, 2][..], &[][..]),
        ] {
            let pick =
                |row: &[Value], cols: &[usize]| -> Tuple { cols.iter().map(|&c| row[c]).collect() };
            let mut naive: BTreeMap<Tuple, BTreeSet<Tuple>> = BTreeMap::new();
            for row in r.iter() {
                naive.entry(pick(row, g)).or_default().insert(pick(row, v));
            }
            let adj = r.adjacency(g, v);
            let degree_of_row =
                |row: &[Value]| adj.find(&pick(row, g)).map_or(0, |k| adj.degree(k));
            let mut seq: Vec<usize> = naive.values().map(BTreeSet::len).collect();
            seq.sort_unstable_by(|a, b| b.cmp(a));
            prop_assert_eq!(adj.num_keys(), naive.len(), "groups deg({:?} | {:?})", v, g);
            prop_assert_eq!(adj.max_degree(), seq.first().copied().unwrap_or(0));
            prop_assert_eq!(adj.degrees().min().unwrap_or(0), seq.last().copied().unwrap_or(0));
            prop_assert_eq!(adj.total(), seq.iter().sum::<usize>());
            prop_assert_eq!(stats::degree_sequence(&r, g, v), seq, "deg({:?} | {:?})", v, g);
            for row in r.iter() {
                prop_assert_eq!(degree_of_row(row), naive[&pick(row, g)].len());
            }
            // 9 is outside the value domain: an absent group has degree 0.
            if !g.is_empty() {
                prop_assert_eq!(degree_of_row(&[9, 9, 9]), 0);
            }
            // The keys and each group's values are the naive map, in order.
            let keys: Vec<Value> = naive.keys().flatten().copied().collect();
            prop_assert_eq!(adj.keys(), &keys[..]);
            for (k, values) in naive.values().enumerate() {
                let values: Vec<Value> = values.iter().flatten().copied().collect();
                prop_assert_eq!(adj.values(k), &values[..]);
            }
        }
    }
}

#[test]
fn zero_arity_relations_through_all_operators() {
    let truthy = {
        let mut r = Relation::new(0);
        r.push_row(&[]);
        r
    };
    let falsy = Relation::new(0);
    let data = Relation::from_rows(2, vec![[1, 2], [3, 4]]);

    // Joining with the zero-arity "true" is the identity; with "false" it
    // is empty — in both argument orders, through the hash path.
    assert_eq!(operators::join(&data, &truthy, &[]).canonical_rows(), data.canonical_rows());
    assert_eq!(operators::join(&truthy, &data, &[]).len(), 2);
    assert!(operators::join(&data, &falsy, &[]).is_empty());
    assert!(operators::join(&falsy, &data, &[]).is_empty());

    // Zero-arity × zero-arity behaves like Boolean conjunction.
    assert_eq!(operators::join(&truthy, &truthy, &[]).len(), 1);
    assert!(operators::join(&truthy, &falsy, &[]).is_empty());

    // Semijoin with an empty `on` tests the other side's non-emptiness.
    assert_eq!(operators::semijoin(&data, &truthy, &[]).len(), 2);
    assert!(operators::semijoin(&data, &falsy, &[]).is_empty());
}

#[test]
fn projection_of_zero_columns_is_boolean() {
    let data = Relation::from_rows(2, vec![[1, 2], [3, 4]]);
    let p = operators::project(&data, &[]);
    assert_eq!(p.arity(), 0);
    assert_eq!(p.len(), 1);
    let empty = Relation::new(2);
    assert!(operators::project(&empty, &[]).is_empty());
}

/// Every canonical split `(K | V)` of `0..arity`: `K` and `V` disjoint,
/// each strictly increasing, either possibly empty.
fn every_split(arity: usize) -> Vec<(Vec<usize>, Vec<usize>)> {
    let cols = |mask: usize| -> Vec<usize> { (0..arity).filter(|c| mask >> c & 1 == 1).collect() };
    let mut splits = Vec::new();
    for k in 0..1usize << arity {
        for v in 0..1usize << arity {
            if k & v == 0 {
                splits.push((cols(k), cols(v)));
            }
        }
    }
    splits
}

proptest! {
    #[test]
    fn prop_packed_and_wide_adjacencies_match_a_map_of_sets(
        arity in 1usize..5,
        kinds in proptest::collection::vec(0u8..3, 4..5),
        rows in proptest::collection::vec(proptest::collection::vec(0u64..6, 4..5), 0..40),
    ) {
        use std::collections::{BTreeMap, BTreeSet};
        // Column `c` holds small values (< 2^10), values at 2^44 or values
        // near 2^64, so a split's projection fits in 64 bits (packed) or
        // not (row ids) depending on its columns; duplicate rows and the
        // empty relation are in range.
        let value = |c: usize, v: Value| match kinds[c] {
            0 => v,
            1 => (1 << 44) + v,
            _ => u64::MAX - v,
        };
        let rows: Vec<Vec<Value>> = rows
            .iter()
            .map(|row| row.iter().take(arity).enumerate().map(|(c, &v)| value(c, v)).collect())
            .collect();
        let r = rel_from(arity, &rows);
        for (g, v) in every_split(arity) {
            let pick =
                |row: &[Value], cols: &[usize]| -> Tuple { cols.iter().map(|&c| row[c]).collect() };
            let mut naive: BTreeMap<Tuple, BTreeSet<Tuple>> = BTreeMap::new();
            for row in r.iter() {
                naive.entry(pick(row, &g)).or_default().insert(pick(row, &v));
            }
            let adj = r.adjacency(&g, &v);
            let keys: Vec<Value> = naive.keys().flatten().copied().collect();
            prop_assert_eq!(adj.keys(), &keys[..], "keys of ({:?} | {:?})", g, v);
            prop_assert_eq!(adj.num_keys(), naive.len());
            prop_assert_eq!(adj.total(), naive.values().map(BTreeSet::len).sum::<usize>());
            for (group, (key, values)) in naive.iter().enumerate() {
                prop_assert_eq!(adj.find(key), Some(group), "find {:?} in ({:?} | {:?})", key, g, v);
                prop_assert_eq!(adj.degree(group), values.len());
                let values: Vec<Value> = values.iter().flatten().copied().collect();
                prop_assert_eq!(adj.values(group), &values[..], "({:?} | {:?})", g, v);
            }
            // 7 is in no column's domain: no group carries it.
            if !g.is_empty() {
                prop_assert_eq!(adj.find(&vec![7; g.len()]), None);
            }
        }
    }
}
