//! Statistics reference: `StatisticsSet::measure` against degrees counted
//! naively here, and the EXPLAIN bytes those statistics produce.
//!
//! The root `cargo test` does not run the member-crate suites, so this is
//! where tier-1 sees `panda-relation`'s degree measurement end to end: every
//! degree and cardinality is read off a sorted adjacency
//! (`Relation::adjacency`), one or two key columns at a time.  The paper's
//! two small instances, a ternary atom and an empty relation, measured by
//! the engine and counted by hand, must give the same statistics set, and
//! the double star the same plan text.

use std::collections::{BTreeMap, BTreeSet};

use panda::prelude::*;
use panda::workloads::{double_star_db, figure2_db, four_cycle_projected};

/// `max_x |{y : (x, y) ∈ rows}|` over distinct rows — `deg(y | x)` — for
/// `x` the columns in `cond` and `y` the other columns.
fn naive_degree(rows: &BTreeSet<Vec<u64>>, cond: &[usize]) -> u64 {
    let mut groups: BTreeMap<Vec<u64>, BTreeSet<Vec<u64>>> = BTreeMap::new();
    for row in rows {
        let (x, y): (Vec<_>, Vec<_>) = row.iter().enumerate().partition(|(i, _)| cond.contains(i));
        groups
            .entry(x.into_iter().map(|(_, v)| *v).collect())
            .or_default()
            .insert(y.into_iter().map(|(_, v)| *v).collect());
    }
    groups.values().map(BTreeSet::len).max().unwrap_or(0) as u64
}

/// What `StatisticsSet::measure` documents: per atom its distinct-row
/// cardinality and its degrees conditioned on each single variable and on
/// each (arity−1)-subset of its variables, every count clamped to at
/// least 1, in base `‖D‖`.
fn naive_statistics(query: &ConjunctiveQuery, db: &Database) -> StatisticsSet {
    let mut expected = StatisticsSet::new((db.total_tuples() as u64).max(2));
    for atom in query.atoms() {
        let rel = db.relation(&atom.relation).expect("every atom has its relation");
        let rows: BTreeSet<Vec<u64>> = rel.iter().map(<[u64]>::to_vec).collect();
        let vars = atom.var_set();
        expected.add_cardinality(atom.relation.clone(), vars, (rows.len() as u64).max(1));
        let arity = atom.arity();
        let sizes: BTreeSet<usize> = [1, arity - 1].into_iter().filter(|&k| k >= 1).collect();
        for mask in 0..1usize << arity {
            let cond: Vec<usize> = (0..arity).filter(|&i| mask >> i & 1 == 1).collect();
            if !sizes.contains(&cond.len()) {
                continue;
            }
            let cond_vars: VarSet = cond.iter().map(|&i| atom.vars[i]).collect();
            let degree = naive_degree(&rows, &cond).max(1);
            expected.add_degree(
                atom.relation.clone(),
                cond_vars,
                vars.difference(cond_vars),
                degree,
            );
        }
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

#[test]
fn ternary_and_empty_atoms_measure_like_a_naive_count() {
    let query = parse_query("Q(A,B,C,D) :- P(A,B,C), R(C,D), E(A,D)").unwrap();
    let mut db = Database::new();
    // Skewed and with duplicate rows: `i` in 0..10 occurs twice.
    let p = (0..40u64).chain(0..10).map(|i| [i % 3, i % 4, i % 7 / (1 + i % 2)]);
    db.insert("P", Relation::from_rows(3, p));
    db.insert("R", Relation::from_rows(2, (0..20u64).map(|i| [i % 4, i % 6])));
    db.insert("E", Relation::new(2));
    let measured = StatisticsSet::measure(&query, &db);
    let expected = naive_statistics(&query, &db);
    assert_eq!(measured.base(), expected.base(), "base is ‖D‖");
    assert_eq!(sorted_by_label(&measured), sorted_by_label(&expected));
    // The ternary atom: its cardinality, then degrees given `{A}`, `{B}`,
    // `{A,B}`, `{C}`, `{A,C}`, `{B,C}`.  The empty atom clamps to 1.
    let counts =
        |guard: &str| -> Vec<u64> { measured.for_guard(guard).iter().map(|s| s.count).collect() };
    assert_eq!(counts("P"), vec![40, 14, 10, 4, 9, 3, 3]);
    assert_eq!(counts("E"), vec![1, 1, 1]);
}

/// EXPLAIN of the projected 4-cycle over the §5.1 double star (`half` = 8)
/// with measured statistics.  The bytes were recorded at commit 44f5a00,
/// when degrees were counted in per-group hash sets; neither the sorted
/// adjacency that counts them now nor any later change to how degrees are
/// counted may move them.  The `materialised subplans:` section lists the
/// bag jobs two or more branches share; it grew from 5 to 12 jobs when
/// degree buckets were cached on their relation, so that equal buckets
/// became one instance and more bag jobs became equal.
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
    "  {X,Y,W}: R * U (3 scans, materialised once)\n",
    "  {Y,Z,W}: S * T (2 scans, materialised once)\n",
    "  {X,Y,Z}: R * S (3 scans, materialised once)\n",
    "  {X,Z,W}: T * U (3 scans, materialised once)\n",
    "  {X,Z,W}: T * U (3 scans, materialised once)\n",
    "  {X,Z,W}: T * U (3 scans, materialised once)\n",
    "  {Y,Z,W}: S * T (3 scans, materialised once)\n",
    "  {X,Y,W}: R * U (2 scans, materialised once)\n",
    "  {Y,Z,W}: S * T (2 scans, materialised once)\n",
    "  {X,Y,W}: R * U (2 scans, materialised once)\n",
    "  {X,Y,Z}: R * S (3 scans, materialised once)\n",
    "  {X,Y,Z}: R * S (3 scans, materialised once)\n",
);

#[test]
fn explain_over_the_double_star_is_byte_stable() {
    let explain = Panda::new(four_cycle_projected()).explain(&double_star_db(8)).unwrap();
    assert_eq!(explain.to_string(), DOUBLE_STAR_EXPLAIN);
}
