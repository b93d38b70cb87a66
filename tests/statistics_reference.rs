//! Statistics reference: `StatisticsSet::measure` against degrees counted
//! naively here, and the EXPLAIN bytes those statistics produce.
//!
//! The root `cargo test` does not run the member-crate suites, so this is
//! where tier-1 sees `panda-relation`'s degree measurement
//! (`GroupedDegrees::compute`, whose `deg(v | g)` branch every binary atom
//! goes through) end to end: the paper's two small instances, measured by
//! the engine and counted by hand, must give the same statistics set and
//! the same plan text.

use std::collections::{BTreeMap, BTreeSet};

use panda::prelude::*;
use panda::workloads::{double_star_db, figure2_db, four_cycle_projected};

/// `max_x |{y : (x, y) ∈ rows}|` over distinct pairs — `deg(y | x)`.
fn naive_max_degree(pairs: impl Iterator<Item = (u64, u64)>) -> u64 {
    let mut groups: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    for (x, y) in pairs {
        groups.entry(x).or_default().insert(y);
    }
    groups.values().map(BTreeSet::len).max().unwrap_or(0) as u64
}

/// What `StatisticsSet::measure` documents for a query of binary atoms:
/// per atom its distinct-row cardinality and both single-variable degree
/// constraints, in base `‖D‖`.
fn naive_statistics(query: &ConjunctiveQuery, db: &Database) -> StatisticsSet {
    let mut expected = StatisticsSet::new(db.total_tuples() as u64);
    for atom in query.atoms() {
        let rel = db.relation(&atom.relation).expect("every atom has its relation");
        assert_eq!(atom.arity(), 2, "the reference counts binary atoms only");
        let (a, b) = (VarSet::singleton(atom.vars[0]), VarSet::singleton(atom.vars[1]));
        let rows: BTreeSet<(u64, u64)> = rel.iter().map(|row| (row[0], row[1])).collect();
        expected.add_cardinality(atom.relation.clone(), a.union(b), rows.len() as u64);
        let forward = naive_max_degree(rows.iter().copied());
        let backward = naive_max_degree(rows.iter().map(|&(x, y)| (y, x)));
        expected.add_degree(atom.relation.clone(), a, b, forward);
        expected.add_degree(atom.relation.clone(), b, a, backward);
    }
    expected
}

fn sorted_by_label(stats: &StatisticsSet) -> Vec<Statistic> {
    let mut v = stats.stats().to_vec();
    v.sort_by(|x, y| x.label.cmp(&y.label));
    v
}

#[test]
fn measured_statistics_match_a_naive_count() {
    let query = four_cycle_projected();
    for (label, db) in [("figure2", figure2_db()), ("double_star", double_star_db(8))] {
        let measured = StatisticsSet::measure(&query, &db);
        let expected = naive_statistics(&query, &db);
        assert_eq!(measured.base(), expected.base(), "{label}: base is ‖D‖");
        assert_eq!(sorted_by_label(&measured), sorted_by_label(&expected), "{label}");
    }
    // The numbers themselves, so a reference that drifts with the engine
    // cannot hide a change: the star's hub has degree `half` both ways.
    let star = StatisticsSet::measure(&query, &double_star_db(8));
    let counts: Vec<u64> = star.for_guard("R").iter().map(|s| s.count).collect();
    assert_eq!(counts, vec![16, 8, 8]);
}

/// EXPLAIN of the projected 4-cycle over the §5.1 double star (`half` = 8)
/// with measured statistics.  The bytes were recorded at commit 44f5a00,
/// before `GroupedDegrees::compute` gained its single-column branch; a
/// change to how degrees are counted must not move them.
const DOUBLE_STAR_EXPLAIN: &str = concat!(
    "query: Q(X,Y) :- R(X,Y), S(Y,Z), T(Z,W), U(W,X)\n",
    "strategy: adaptive\n",
    "selected: adaptive\n",
    "rule: subw-gap\n",
    "reason: subw_below_fhtw\n",
    "widths: fhtw = 7/6, subw = 1\n",
    "branches: 16\n",
    "downgrades: (none)\n",
    "branch bounds:\n",
    "  {X,Y,Z} | {X,Y,W}: 1 (certified)\n",
    "  {X,Y,Z} | {Y,Z,W}: 1 (certified)\n",
    "  {X,Y,W} | {X,Z,W}: 1 (certified)\n",
    "  {X,Z,W} | {Y,Z,W}: 1 (certified)\n",
    "materialised subplans:\n",
    "  {X,Y,Z}: R * S (3 scans, materialised once)\n",
    "  {Y,Z,W}: S * T (2 scans, materialised once)\n",
    "  {Y,Z,W}: S * T (2 scans, materialised once)\n",
    "  {X,Y,Z}: R * S (3 scans, materialised once)\n",
    "  {X,Y,Z}: R * S (3 scans, materialised once)\n",
);

#[test]
fn explain_over_the_double_star_is_byte_stable() {
    let explain = Panda::new(four_cycle_projected()).explain(&double_star_db(8)).unwrap();
    assert_eq!(explain.to_string(), DOUBLE_STAR_EXPLAIN);
}
