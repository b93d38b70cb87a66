//! Strategy-selection conformance suite: one scenario test per selector
//! rule, one per fail-soft downgrade edge, plus property-based coverage of
//! the report invariants and of result bit-identity under downgrades.
//!
//! The selector (see `docs/ARCHITECTURE.md`, "Strategy selection") walks a
//! fixed rule list — explicit override, acyclic fast path, subw/fhtw gap,
//! TD fallback, generic default — and every budget violation downgrades
//! one-way down the ladder `Adaptive → StaticTd → BinaryJoin`.  These
//! tests pin each rule and each edge by constructing the exact input that
//! triggers it, then assert the machine-readable metadata (`rule`,
//! `reason`, `downgrades`) *and* that the executed plan still computes the
//! correct relation.

use panda::config::{Engine, Parallelism};
use panda::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_graph_db(names: &[&str], n: u64, edges: usize, seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    for name in names {
        let rel = panda::relation::Relation::from_rows(
            2,
            (0..edges).map(|_| [rng.gen_range(0..n), rng.gen_range(0..n)]),
        )
        .deduped();
        db.insert(*name, rel);
    }
    db
}

/// The 4-cycle statistics under which `subw = 3/2 < 2 = fhtw` (Eq. 23).
fn gap_stats(query: &ConjunctiveQuery) -> StatisticsSet {
    StatisticsSet::identical_cardinalities(query, 1 << 12)
}

fn canonical(rel: &VarRelation, query: &ConjunctiveQuery) -> Vec<Vec<u64>> {
    rel.canonical_rows_ordered(&query.free_vars().to_vec())
}

// ---------------------------------------------------------------------------
// One scenario per selector rule.
// ---------------------------------------------------------------------------

#[test]
fn rule_1_explicit_override_steps_aside() {
    // The gap rule would pick Adaptive here; an explicit request wins and
    // the selector records that it stepped aside.
    let query = panda::workloads::four_cycle_projected();
    let db = panda::workloads::double_star_db(16);
    let stats = gap_stats(&query);
    let panda = Panda::new(query).with_statistics(stats);
    let report = panda.plan_report_for(&db, EvaluationStrategy::BinaryJoin).unwrap();
    assert_eq!(report.rule, SelectorRule::ExplicitOverride);
    assert_eq!(report.reason, ReasonCode::ExplicitStrategy);
    assert_eq!(report.strategy, EvaluationStrategy::BinaryJoin);
    assert_eq!(report.selected, EvaluationStrategy::BinaryJoin);
    assert!(report.downgrades.is_empty());
    // EXPLAIN still shows the widths the override renounced.
    assert_eq!(report.fhtw, Some(Rat::from_int(2)));
    assert_eq!(report.subw, Some(Rat::new(3, 2)));
}

#[test]
fn rule_2_acyclic_fast_path_picks_yannakakis_without_lps() {
    let query = parse_query("Q(A,B) :- R(A,B), S(B,C)").unwrap();
    let db = random_graph_db(&["R", "S"], 20, 80, 2);
    let report = Panda::new(query).plan_report(&db).unwrap();
    assert_eq!(report.rule, SelectorRule::AcyclicFastPath);
    assert_eq!(report.reason, ReasonCode::AcyclicFreeConnex);
    assert_eq!(report.strategy, EvaluationStrategy::Yannakakis);
    assert_eq!(report.selected, EvaluationStrategy::Yannakakis);
    assert!(report.downgrades.is_empty());
    assert_eq!(report.branch_count, 1);
}

#[test]
fn rule_3_subw_gap_picks_the_adaptive_plan() {
    let query = panda::workloads::four_cycle_projected();
    let db = panda::workloads::double_star_db(16);
    let report =
        Panda::new(query.clone()).with_statistics(gap_stats(&query)).plan_report(&db).unwrap();
    assert_eq!(report.rule, SelectorRule::SubwGap);
    assert_eq!(report.reason, ReasonCode::SubwBelowFhtw);
    assert_eq!(report.strategy, EvaluationStrategy::Adaptive);
    assert!(report.downgrades.is_empty());
    assert_eq!(report.fhtw, Some(Rat::from_int(2)));
    assert_eq!(report.subw, Some(Rat::new(3, 2)));
    // The gap rule's evidence: one certified bound per bag selector, each
    // at or below the submodular width, each verifying as a Shannon flow.
    assert!(!report.branch_bounds.is_empty());
    for bound in &report.branch_bounds {
        assert!(bound.log_bound <= Rat::new(3, 2));
        bound.certificate.verify_identity().expect("certificate must verify");
    }
}

#[test]
fn rule_4_td_fallback_when_widths_show_no_gap() {
    // Acyclic but not free-connex: rule 2 passes, and the only free-connex
    // decomposition is trivial, so subw == fhtw and rule 4 fires.
    let query = parse_query("Q(X,Y) :- R(X,Z), S(Z,Y)").unwrap();
    let db = random_graph_db(&["R", "S"], 20, 80, 3);
    let report = Panda::new(query).plan_report(&db).unwrap();
    assert_eq!(report.rule, SelectorRule::TdFallback);
    assert_eq!(report.reason, ReasonCode::NoWidthGap);
    assert_eq!(report.strategy, EvaluationStrategy::StaticTd);
    assert!(report.downgrades.is_empty());
    assert_eq!(report.fhtw, report.subw);
}

#[test]
fn rule_5_generic_default_when_no_width_exists() {
    // An empty statistics set leaves every width unbounded: no width rule
    // can fire and the selector lands on the generic worst-case join.
    let query = panda::workloads::four_cycle_projected();
    let db = panda::workloads::double_star_db(8);
    let report =
        Panda::new(query.clone()).with_statistics(StatisticsSet::new(2)).plan_report(&db).unwrap();
    assert_eq!(report.rule, SelectorRule::GenericDefault);
    assert_eq!(report.reason, ReasonCode::WidthsUnavailable);
    assert_eq!(report.strategy, EvaluationStrategy::GenericJoin);
    assert!(report.downgrades.is_empty());
    assert_eq!(report.fhtw, None);
    assert_eq!(report.subw, None);
    // The plan still runs and is still correct.
    let got = Panda::new(query.clone()).with_statistics(StatisticsSet::new(2)).evaluate(&db);
    let want = Panda::new(query.clone()).evaluate_with(&db, EvaluationStrategy::GenericJoin);
    assert_eq!(canonical(&got, &query), canonical(&want, &query));
}

// ---------------------------------------------------------------------------
// One scenario per fail-soft downgrade edge.
// ---------------------------------------------------------------------------

/// Measures the sequential pivot cost of the budgeted planning chains on
/// the 4-cycle: `(pivots for fhtw alone, pivots for fhtw + subw)`.  The
/// budgets in the downgrade tests are calibrated from these measured
/// numbers instead of hard-coding pivot counts that would rot whenever the
/// solver changes.
fn measured_pivot_costs(query: &ConjunctiveQuery, stats: &StatisticsSet) -> (u64, u64) {
    let tds = TreeDecomposition::enumerate(query);
    let mut fhtw_budget = panda::entropy::PivotBudget::unlimited();
    panda::entropy::fhtw_with_tds_budgeted(query, &tds, stats, &mut fhtw_budget)
        .expect("unbudgeted fhtw must succeed");
    let mut total_budget = panda::entropy::PivotBudget::unlimited();
    panda::entropy::fhtw_with_tds_budgeted(query, &tds, stats, &mut total_budget)
        .expect("unbudgeted fhtw must succeed");
    panda::entropy::subw_with_tds_budgeted(query, &tds, stats, &mut total_budget)
        .expect("unbudgeted subw must succeed");
    (fhtw_budget.used(), total_budget.used())
}

#[test]
fn downgrade_lp_budget_exhausted_during_subw_falls_back_to_static_td() {
    let query = panda::workloads::four_cycle_projected();
    let db = panda::workloads::double_star_db(16);
    let stats = gap_stats(&query);
    let (fhtw_pivots, total_pivots) = measured_pivot_costs(&query, &stats);
    assert!(
        total_pivots > fhtw_pivots + 1,
        "calibration: subw must cost more than one pivot (fhtw {fhtw_pivots}, total {total_pivots})"
    );
    // Enough budget to finish fhtw, one pivot short of starting subw in
    // earnest: the budget dies mid-subw and the selection falls back to the
    // best single-TD plan that fhtw already paid for.
    let budgets = Budgets::unlimited().with_lp_pivot_budget(fhtw_pivots + 1);
    let panda = Panda::new(query.clone()).with_statistics(stats.clone()).with_budgets(budgets);
    let report = panda.plan_report(&db).unwrap();
    assert_eq!(report.rule, SelectorRule::SubwGap);
    assert_eq!(report.reason, ReasonCode::LpBudgetExhausted);
    assert_eq!(report.selected, EvaluationStrategy::Adaptive);
    assert_eq!(report.strategy, EvaluationStrategy::StaticTd);
    assert_eq!(
        report.downgrades,
        vec![Downgrade {
            from: EvaluationStrategy::Adaptive,
            to: EvaluationStrategy::StaticTd,
            reason: ReasonCode::LpBudgetExhausted,
        }]
    );
    assert_eq!(report.fhtw, Some(Rat::from_int(2)));
    assert_eq!(report.subw, None, "subw never finished");
    assert_eq!(report.lp_pivots_used, Some(fhtw_pivots + 1), "the whole budget was consumed");
    // Static bag bounds are reported with the certificates the fhtw chain
    // already extracted and verified: the downgrade spends no extra pivots.
    assert!(!report.branch_bounds.is_empty());
    for bound in &report.branch_bounds {
        bound.certificate.verify_identity().expect("certificate must verify");
        assert_eq!(bound.certificate.log_bound(), bound.log_bound);
    }
    // The downgraded plan returns the identical relation.
    let reference = Panda::new(query.clone()).with_statistics(stats.clone()).evaluate(&db);
    let got = panda.evaluate(&db);
    assert_eq!(canonical(&got, &query), canonical(&reference, &query));
}

#[test]
fn lp_budget_exhausted_during_fhtw_is_a_selection_not_a_downgrade() {
    let query = panda::workloads::four_cycle_projected();
    let db = panda::workloads::double_star_db(16);
    let stats = gap_stats(&query);
    // One pivot is never enough for the first bag LP: the budget dies
    // before any width is known, so nothing richer was ever selected —
    // the generic default is a *selection* with a budget reason, and the
    // downgrade list stays empty (downgrades ⟺ selected ≠ executed).
    let budgets = Budgets::unlimited().with_lp_pivot_budget(1);
    let panda = Panda::new(query.clone()).with_statistics(stats.clone()).with_budgets(budgets);
    let report = panda.plan_report(&db).unwrap();
    assert_eq!(report.rule, SelectorRule::GenericDefault);
    assert_eq!(report.reason, ReasonCode::LpBudgetExhausted);
    assert_eq!(report.selected, EvaluationStrategy::GenericJoin);
    assert_eq!(report.strategy, EvaluationStrategy::GenericJoin);
    assert!(report.downgrades.is_empty());
    assert_eq!(report.fhtw, None);
    assert_eq!(report.lp_pivots_used, Some(1));
    let reference = Panda::new(query.clone()).with_statistics(stats).evaluate(&db);
    assert_eq!(canonical(&panda.evaluate(&db), &query), canonical(&reference, &query));
}

#[test]
fn within_budget_planning_is_identical_to_unbudgeted_planning() {
    let query = panda::workloads::four_cycle_projected();
    let db = panda::workloads::double_star_db(16);
    let stats = gap_stats(&query);
    let (_, total_pivots) = measured_pivot_costs(&query, &stats);
    let unbudgeted =
        Panda::new(query.clone()).with_statistics(stats.clone()).plan_report(&db).unwrap();
    let budgeted = Panda::new(query.clone())
        .with_statistics(stats)
        .with_budgets(Budgets::unlimited().with_lp_pivot_budget(total_pivots))
        .plan_report(&db)
        .unwrap();
    // A budget that is never exhausted changes nothing but the usage
    // counter: same rule, same reason, same widths, same certificates.
    assert_eq!(budgeted.rule, unbudgeted.rule);
    assert_eq!(budgeted.reason, unbudgeted.reason);
    assert_eq!(budgeted.strategy, unbudgeted.strategy);
    assert_eq!(budgeted.downgrades, unbudgeted.downgrades);
    assert_eq!(budgeted.fhtw, unbudgeted.fhtw);
    assert_eq!(budgeted.subw, unbudgeted.subw);
    assert_eq!(budgeted.partitions, unbudgeted.partitions);
    assert_eq!(budgeted.branch_bounds, unbudgeted.branch_bounds);
    assert_eq!(budgeted.lp_pivots_used, Some(total_pivots));
    assert_eq!(unbudgeted.lp_pivots_used, None);
}

// ---------------------------------------------------------------------------
// One planning budget: "no limit" is a limit of `u64::MAX`, not a second path.
// ---------------------------------------------------------------------------

#[test]
fn width_chains_poll_the_token_of_an_unlimited_budget() {
    use panda::entropy::{fhtw_with_tds_budgeted, subw_with_tds_budgeted, BoundError, PivotBudget};
    let query = panda::workloads::four_cycle_projected();
    let stats = gap_stats(&query);
    let tds = TreeDecomposition::enumerate(&query);
    let cancelled = CancelToken::new();
    cancelled.cancel();
    let mut budget = PivotBudget::unlimited().with_cancel_token(cancelled);
    let fhtw_err = fhtw_with_tds_budgeted(&query, &tds, &stats, &mut budget).unwrap_err();
    assert_eq!(fhtw_err, BoundError::Cancelled);
    let subw_err = subw_with_tds_budgeted(&query, &tds, &stats, &mut budget).unwrap_err();
    assert_eq!(subw_err, BoundError::Cancelled);
    assert_eq!(budget.used(), 0, "the poll comes before the first pivot and costs none");
}

#[test]
fn unlimited_width_chains_equal_the_conveniences_field_for_field() {
    use panda::entropy::{fhtw_with_tds_budgeted, subw_with_tds_budgeted, PivotBudget};
    let query = panda::workloads::four_cycle_projected();
    let stats = gap_stats(&query);
    let tds = TreeDecomposition::enumerate(&query);
    let mut budget = PivotBudget::unlimited().with_cancel_token(CancelToken::new());

    let chain = fhtw_with_tds_budgeted(&query, &tds, &stats, &mut budget).unwrap();
    let plain = fhtw(&query, &stats).unwrap();
    assert_eq!((chain.value, chain.best), (plain.value, plain.best));
    assert_eq!(chain.per_td, plain.per_td);

    let chain = subw_with_tds_budgeted(&query, &tds, &stats, &mut budget).unwrap();
    let plain = subw(&query, &stats).unwrap();
    assert_eq!(chain.value, plain.value);
    assert_eq!(chain.tds, plain.tds);
    assert_eq!(chain.per_selector.len(), plain.per_selector.len());
    for (c, p) in chain.per_selector.iter().zip(&plain.per_selector) {
        assert_eq!(c.selector.bags(), p.selector.bags());
        assert_eq!(c.report, p.report, "bound and certificate");
    }
    assert!(budget.used() > 0 && !budget.is_exhausted());
}

#[test]
fn only_a_configured_limit_puts_the_pivot_count_in_the_report() {
    let query = panda::workloads::four_cycle_projected();
    let db = panda::workloads::double_star_db(16);
    let stats = gap_stats(&query);
    let (_, total_pivots) = measured_pivot_costs(&query, &stats);
    let planner = Panda::new(query).with_statistics(stats);
    let no_limit = planner.plan_report(&db).unwrap();
    let max_limit = planner
        .clone()
        .with_budgets(Budgets::unlimited().with_lp_pivot_budget(u64::MAX))
        .plan_report(&db)
        .unwrap();
    assert_eq!(no_limit.lp_pivots_used, None);
    assert_eq!(max_limit.lp_pivots_used, Some(total_pivots));
    assert_eq!((max_limit.fhtw, max_limit.subw), (no_limit.fhtw, no_limit.subw));
    assert_eq!(max_limit.strategy, no_limit.strategy);
    assert_eq!(max_limit.branch_bounds, no_limit.branch_bounds);
}

#[test]
fn downgrade_branch_budget_exceeded_falls_back_to_binary_join() {
    let query = panda::workloads::four_cycle_projected();
    // The double star has mixed degrees, so the adaptive plan fans out
    // into several branches; a branch budget of 1 cannot hold it.
    let db = panda::workloads::double_star_db(24);
    let stats = gap_stats(&query);
    let unbudgeted =
        Panda::new(query.clone()).with_statistics(stats.clone()).plan_report(&db).unwrap();
    assert!(unbudgeted.branch_count > 1, "calibration: the instance must fan out");
    let budgets = Budgets::unlimited().with_branch_budget(1);
    let panda = Panda::new(query.clone()).with_statistics(stats.clone()).with_budgets(budgets);
    let report = panda.plan_report(&db).unwrap();
    assert_eq!(report.rule, SelectorRule::SubwGap);
    assert_eq!(report.reason, ReasonCode::SubwBelowFhtw);
    assert_eq!(report.selected, EvaluationStrategy::Adaptive);
    assert_eq!(report.strategy, EvaluationStrategy::BinaryJoin);
    assert_eq!(
        report.downgrades,
        vec![Downgrade {
            from: EvaluationStrategy::Adaptive,
            to: EvaluationStrategy::BinaryJoin,
            reason: ReasonCode::BranchBudgetExceeded,
        }]
    );
    assert_eq!(report.branch_count, unbudgeted.branch_count, "the triggering count is reported");
    let reference = Panda::new(query.clone()).with_statistics(stats).evaluate(&db);
    assert_eq!(canonical(&panda.evaluate(&db), &query), canonical(&reference, &query));
}

#[test]
fn downgrade_memory_budget_exceeded_falls_back_to_binary_join() {
    // Static case: the no-gap query downgrades StaticTd → BinaryJoin.
    let query = parse_query("Q(X,Y) :- R(X,Z), S(Z,Y)").unwrap();
    let db = random_graph_db(&["R", "S"], 20, 80, 7);
    let budgets = Budgets::unlimited().with_memory_rows_budget(1);
    let panda = Panda::new(query.clone()).with_budgets(budgets);
    let report = panda.plan_report(&db).unwrap();
    assert_eq!(report.rule, SelectorRule::TdFallback);
    assert_eq!(report.selected, EvaluationStrategy::StaticTd);
    assert_eq!(report.strategy, EvaluationStrategy::BinaryJoin);
    assert_eq!(
        report.downgrades,
        vec![Downgrade {
            from: EvaluationStrategy::StaticTd,
            to: EvaluationStrategy::BinaryJoin,
            reason: ReasonCode::MemoryBudgetExceeded,
        }]
    );
    let reference = Panda::new(query.clone()).evaluate(&db);
    assert_eq!(canonical(&panda.evaluate(&db), &query), canonical(&reference, &query));

    // Adaptive case: the gap query downgrades Adaptive → BinaryJoin.
    let query = panda::workloads::four_cycle_projected();
    let db = panda::workloads::double_star_db(16);
    let stats = gap_stats(&query);
    let panda = Panda::new(query.clone()).with_statistics(stats.clone()).with_budgets(budgets);
    let report = panda.plan_report(&db).unwrap();
    assert_eq!(report.selected, EvaluationStrategy::Adaptive);
    assert_eq!(report.strategy, EvaluationStrategy::BinaryJoin);
    assert_eq!(report.downgrades.len(), 1);
    assert_eq!(report.downgrades[0].reason, ReasonCode::MemoryBudgetExceeded);
    let reference = Panda::new(query.clone()).with_statistics(stats).evaluate(&db);
    assert_eq!(canonical(&panda.evaluate(&db), &query), canonical(&reference, &query));
}

#[test]
fn downgrades_chain_lp_budget_then_memory_budget() {
    // Both budgets bite: the LP budget dies mid-subw (Adaptive → StaticTd)
    // and the static plan's bags then blow the memory budget (StaticTd →
    // BinaryJoin).  The chain is recorded in application order and links up.
    let query = panda::workloads::four_cycle_projected();
    let db = panda::workloads::double_star_db(16);
    let stats = gap_stats(&query);
    let (fhtw_pivots, _) = measured_pivot_costs(&query, &stats);
    let budgets =
        Budgets::unlimited().with_lp_pivot_budget(fhtw_pivots + 1).with_memory_rows_budget(1);
    let panda = Panda::new(query.clone()).with_statistics(stats.clone()).with_budgets(budgets);
    let report = panda.plan_report(&db).unwrap();
    assert_eq!(report.selected, EvaluationStrategy::Adaptive);
    assert_eq!(report.strategy, EvaluationStrategy::BinaryJoin);
    assert_eq!(
        report.downgrades,
        vec![
            Downgrade {
                from: EvaluationStrategy::Adaptive,
                to: EvaluationStrategy::StaticTd,
                reason: ReasonCode::LpBudgetExhausted,
            },
            Downgrade {
                from: EvaluationStrategy::StaticTd,
                to: EvaluationStrategy::BinaryJoin,
                reason: ReasonCode::MemoryBudgetExceeded,
            },
        ]
    );
    let reference = Panda::new(query.clone()).with_statistics(stats).evaluate(&db);
    assert_eq!(canonical(&panda.evaluate(&db), &query), canonical(&reference, &query));
}

// ---------------------------------------------------------------------------
// Rules 3/4 decide `subw` against `fhtw`: the full chain's answer, fewer LPs.
// ---------------------------------------------------------------------------

/// Asserts that `subw_against_fhtw` gives the full chain's value, its
/// complete certificate list when there is a gap and one verified witness
/// at `fhtw` otherwise, and that the Auto plan picks the gap rule exactly
/// when the full chain shows a gap, charging the `fhtw` chain plus the
/// decision and nothing else.
fn assert_decision_matches_full_chain(
    label: &str,
    query: &ConjunctiveQuery,
    stats: &StatisticsSet,
    db: &Database,
) {
    use panda::entropy::{
        fhtw_with_tds_budgeted, subw_against_fhtw, subw_with_tds_budgeted, PivotBudget,
    };
    let tds = TreeDecomposition::enumerate(query);
    let mut fhtw_budget = PivotBudget::unlimited();
    let fhtw = fhtw_with_tds_budgeted(query, &tds, stats, &mut fhtw_budget).unwrap();
    let full = subw_with_tds_budgeted(query, &tds, stats, &mut PivotBudget::unlimited()).unwrap();
    let mut decision_budget = PivotBudget::unlimited();
    let decided = subw_against_fhtw(query, &tds, stats, &fhtw, &mut decision_budget).unwrap();
    assert_eq!(decided.value, full.value, "{label}: value");
    let gap = full.value < fhtw.value;
    if gap {
        assert_eq!(decided.per_selector.len(), full.per_selector.len(), "{label}");
        for (d, f) in decided.per_selector.iter().zip(&full.per_selector) {
            assert_eq!(d.selector, f.selector, "{label}: selector");
            assert_eq!(d.report, f.report, "{label}: bound and certificate");
        }
    } else {
        assert_eq!(decided.per_selector.len(), 1, "{label}: one witness");
        let witness = &decided.per_selector[0].report;
        witness.flow.verify_identity().expect("the witness verifies");
        assert_eq!(witness.log_bound, fhtw.value, "{label}: witness");
    }

    let planner = Panda::new(query.clone()).with_statistics(stats.clone());
    let report = planner
        .clone()
        .with_budgets(Budgets::unlimited().with_lp_pivot_budget(u64::MAX))
        .plan_report(db)
        .unwrap();
    assert_eq!(report.rule == SelectorRule::SubwGap, gap, "{label}: rule {}", report.rule);
    assert_eq!((report.fhtw, report.subw), (Some(fhtw.value), Some(full.value)), "{label}");
    assert_eq!(
        report.lp_pivots_used,
        Some(fhtw_budget.used() + decision_budget.used()),
        "{label}: pivots"
    );
    // The informational `subw` beside an explicit static plan is decided too.
    let explicit = planner.plan_report_for(db, EvaluationStrategy::StaticTd).unwrap();
    assert_eq!(explicit.subw, Some(full.value), "{label}: informational subw");
}

fn two_row_db() -> Database {
    let mut db = Database::new();
    db.insert("R", panda::relation::Relation::from_rows(2, vec![[1, 2], [2, 1]]));
    db
}

#[test]
fn deciding_subw_against_fhtw_equals_the_full_chain() {
    use panda::workloads::{double_star_db, erdos_renyi_db, four_cycle_projected};
    for seed in 1..=3 {
        let db = erdos_renyi_db(&["R", "S", "T", "U", "V", "W", "P"], 30, 121, seed);
        for text in PLAN_COLD_SHAPES {
            let query = parse_query(text).unwrap();
            let stats = StatisticsSet::measure(&query, &db);
            assert_decision_matches_full_chain(&format!("{text} / {seed}"), &query, &stats, &db);
        }
    }
    let c4 = four_cycle_projected();
    let star = double_star_db(16);
    assert_decision_matches_full_chain("4-cycle under S□", &c4, &gap_stats(&c4), &star);
    for db in [star, double_star_db(64)] {
        let stats = StatisticsSet::measure(&c4, &db);
        assert_decision_matches_full_chain("4-cycle / double star", &c4, &stats, &db);
    }
    let triangle = parse_query("Q(A,B,C) :- R(A,B), R(B,C), R(C,A)").unwrap();
    let db = two_row_db();
    let stats = StatisticsSet::measure(&triangle, &db);
    assert_decision_matches_full_chain("triangle / two rows", &triangle, &stats, &db);
}

#[test]
fn the_four_path_decision_skips_to_its_one_candidate() {
    let query = parse_query("Q(A,E) :- R(A,B), S(B,C), T(C,D), U(D,E)").unwrap();
    let db = panda::workloads::erdos_renyi_db(&["R", "S", "T", "U"], 30, 120, 7);
    let stats = StatisticsSet::measure(&query, &db);
    assert_decision_matches_full_chain("4-path", &query, &stats, &db);
}

#[test]
fn the_five_cycle_over_two_rows_is_decided_by_its_first_selector() {
    let query = parse_query("Q(A,B) :- R(A,B), R(B,C), R(C,D), R(D,E), R(E,A)").unwrap();
    let db = two_row_db();
    let stats = StatisticsSet::measure(&query, &db);
    assert_decision_matches_full_chain("5-cycle", &query, &stats, &db);
}

// ---------------------------------------------------------------------------
// The simplex kernel's pivot path, pinned.
// ---------------------------------------------------------------------------

/// MD5 (RFC 1321) of `bytes` as lowercase hex: pins a whole EXPLAIN text
/// in one table cell without a hashing dependency.
fn md5_hex(bytes: &[u8]) -> String {
    const SHIFTS: [u32; 16] = [7, 12, 17, 22, 5, 9, 14, 20, 4, 11, 16, 23, 6, 10, 15, 21];
    let k: Vec<u32> =
        (1..=64).map(|i| (f64::from(i).sin().abs() * 4_294_967_296.0) as u32).collect();
    let mut data = bytes.to_vec();
    data.push(0x80);
    while data.len() % 64 != 56 {
        data.push(0);
    }
    data.extend_from_slice(&((bytes.len() as u64).wrapping_mul(8)).to_le_bytes());
    let mut state: [u32; 4] = [0x6745_2301, 0xefcd_ab89, 0x98ba_dcfe, 0x1032_5476];
    for block in data.chunks(64) {
        let m: Vec<u32> =
            block.chunks(4).map(|w| u32::from_le_bytes([w[0], w[1], w[2], w[3]])).collect();
        let [mut a, mut b, mut c, mut d] = state;
        for i in 0..64 {
            let (f, g) = match i / 16 {
                0 => ((b & c) | (!b & d), i),
                1 => ((d & b) | (!d & c), (5 * i + 1) % 16),
                2 => (b ^ c ^ d, (3 * i + 5) % 16),
                _ => (c ^ (b | !d), (7 * i) % 16),
            };
            let f = f.wrapping_add(a).wrapping_add(k[i]).wrapping_add(m[g]);
            a = d;
            d = c;
            c = b;
            b = b.wrapping_add(f.rotate_left(SHIFTS[(i / 16) * 4 + i % 4]));
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d]) {
            *s = s.wrapping_add(v);
        }
    }
    state.iter().flat_map(|s| s.to_le_bytes()).map(|byte| format!("{byte:02x}")).collect()
}

/// `plan_cold`'s five shapes, as the repo benchmark sends them.
const PLAN_COLD_SHAPES: [&str; 5] = [
    "Q(X,Y) :- R(X,Y), S(Y,Z), T(Z,W), U(W,X)",
    "Q(X,Y) :- R(X,Y), S(Y,Z), T(Z,W), U(W,X), V(X,Z)",
    "Q(A) :- R(A,B), S(B,C), T(C,A), U(A,D), V(D,E), W(E,A)",
    "Q(A) :- R(A,B), S(B,C), T(C,D), U(D,E), V(E,A), W(A,C), P(A,D)",
    "Q(A,E) :- R(A,B), S(B,C), T(A,C), U(B,D), V(C,D), W(D,E)",
];

#[test]
fn auto_plans_keep_their_pivot_counts_and_explain_bytes() {
    use panda::workloads::{double_star_db, erdos_renyi_db, four_cycle_projected};
    assert_eq!(md5_hex(b""), "d41d8cd98f00b204e9800998ecf8427e");
    assert_eq!(
        md5_hex(b"The quick brown fox jumps over the lazy dog"),
        "9e107d9d372bb6826bd81d3542a419d6"
    );
    // (label, `lp_pivots_used`, md5 of the EXPLAIN text).  Every simplex
    // pivot choice compares exact rationals, so a kernel change that
    // computes the same numbers differently keeps this table; one that
    // moves a single pivot does not.
    let pinned: [(&str, u64, &str); 16] = [
        ("c4_proj / 1", 50, "134f291dd74339503185dfe242d13afd"),
        ("c4_chord / 1", 33, "0af9b892d581edeb65666e9c8e153165"),
        ("bowtie / 1", 57, "590687e17ce291837c17282a0d7417c7"),
        ("c5_2chords / 1", 71, "201415a324fdfc098b80492761bd29a3"),
        ("diamond_tail / 1", 122, "1a03da09f0716b1d144bab3ff8007ce9"),
        ("c4_proj / 2", 48, "8d9e4469e1a2c97333962eb2ca5dea95"),
        ("c4_chord / 2", 35, "e7240083efac923e830d6092dafb3338"),
        ("bowtie / 2", 61, "41024bd280b48b76de0612c4cf85026f"),
        ("c5_2chords / 2", 76, "3ef5797ef6c20d3b3153b28c746bc8b0"),
        ("diamond_tail / 2", 121, "f689ed46473a07c0856fe9c24ebeba00"),
        ("c4_proj / 3", 54, "1b43032cf4494dd40d443f5b508f11be"),
        ("c4_chord / 3", 36, "54d77beea4b0b722135003367ce2c4c1"),
        ("bowtie / 3", 58, "2be5f3e7badc51fdafbb55699c58d95e"),
        ("c5_2chords / 3", 69, "868238d10fa1b73eaf2cc6cb487f4af0"),
        ("diamond_tail / 3", 142, "bd00e322e28e0b614de6bc68aacc7071"),
        ("4-cycle / double_star_db(64)", 50, "20a6481780ee30c38d5ea73d3ccfa656"),
    ];
    let names = ["c4_proj", "c4_chord", "bowtie", "c5_2chords", "diamond_tail"];
    let mut cases = Vec::new();
    for seed in 1..=3 {
        let db = erdos_renyi_db(&["R", "S", "T", "U", "V", "W", "P"], 30, 121, seed);
        for (name, text) in names.iter().zip(PLAN_COLD_SHAPES) {
            cases.push((format!("{name} / {seed}"), parse_query(text).unwrap(), db.clone()));
        }
    }
    cases.push((
        "4-cycle / double_star_db(64)".to_string(),
        four_cycle_projected(),
        double_star_db(64),
    ));
    let observed: Vec<(String, u64, String)> = cases
        .into_iter()
        .map(|(label, query, db)| {
            let explain = Panda::new(query)
                .with_budgets(Budgets::unlimited().with_lp_pivot_budget(u64::MAX))
                .explain(&db)
                .unwrap();
            let report = &explain.report;
            if label.starts_with("4-cycle") {
                // The adaptive plan: the decision runs the full `subw` chain.
                assert_eq!(report.rule, SelectorRule::SubwGap, "{label}");
            }
            let pivots = report.lp_pivots_used.expect("a configured limit reports pivots");
            (label, pivots, md5_hex(explain.to_string().as_bytes()))
        })
        .collect();
    let expected: Vec<(String, u64, String)> = pinned
        .iter()
        .map(|&(label, pivots, md5)| (label.to_string(), pivots, md5.to_string()))
        .collect();
    assert_eq!(observed, expected);
}

// ---------------------------------------------------------------------------
// Explicit strategies never downgrade: budgets surface as structured errors.
// ---------------------------------------------------------------------------

#[test]
fn explicit_strategies_surface_budget_errors_instead_of_downgrading() {
    let query = panda::workloads::four_cycle_projected();
    let db = panda::workloads::double_star_db(8);
    let budgets = Budgets::unlimited().with_lp_pivot_budget(1);
    let panda = Panda::new(query).with_budgets(budgets);
    for strategy in [EvaluationStrategy::StaticTd, EvaluationStrategy::Adaptive] {
        let err = panda
            .try_evaluate_with(&db, strategy)
            .expect_err("one pivot cannot plan a width-based strategy");
        assert_eq!(
            err,
            StrategyError::BudgetExceeded { strategy, reason: ReasonCode::LpBudgetExhausted }
        );
    }
    // Strategies that plan without LPs are untouched by the pivot budget.
    for strategy in [EvaluationStrategy::GenericJoin, EvaluationStrategy::BinaryJoin] {
        assert!(panda.try_evaluate_with(&db, strategy).is_ok(), "{strategy:?}");
    }
}

#[test]
fn explicit_strategies_surface_unavailable_tds_instead_of_substituting() {
    // Empty statistics leave every width unbounded: an explicit StaticTd
    // or Adaptive request has no decomposition to run and must say so
    // rather than silently running some other plan.
    let query = panda::workloads::four_cycle_projected();
    let db = panda::workloads::double_star_db(8);
    let panda = Panda::new(query).with_statistics(StatisticsSet::new(2));
    for strategy in [EvaluationStrategy::StaticTd, EvaluationStrategy::Adaptive] {
        let err = panda.try_evaluate_with(&db, strategy).expect_err("no width exists");
        assert!(
            matches!(err, StrategyError::TdUnavailable { strategy: s, .. } if s == strategy),
            "unexpected error for {strategy:?}: {err}"
        );
    }
}

#[test]
fn strategy_error_display_is_stable_for_every_variant() {
    let cyclic = StrategyError::CyclicYannakakis;
    assert_eq!(cyclic.to_string(), "Yannakakis requires an acyclic query");

    let unavailable = StrategyError::TdUnavailable {
        strategy: EvaluationStrategy::StaticTd,
        source: panda::entropy::BoundError::Unbounded,
    };
    let text = unavailable.to_string();
    assert!(
        text.contains("no tree decomposition could be costed for static-td"),
        "unexpected Display: {text}"
    );

    let exceeded = StrategyError::BudgetExceeded {
        strategy: EvaluationStrategy::Adaptive,
        reason: ReasonCode::LpBudgetExhausted,
    };
    let text = exceeded.to_string();
    assert!(
        text.contains("budget exceeded (lp_budget_exhausted) while planning adaptive"),
        "unexpected Display: {text}"
    );
}

// ---------------------------------------------------------------------------
// Property-based coverage.
// ---------------------------------------------------------------------------

/// The query pool the properties draw from: free-connex acyclic, acyclic
/// non-free-connex, and two cyclic queries.
fn query_pool(idx: usize) -> ConjunctiveQuery {
    match idx % 4 {
        0 => parse_query("Q(A,B) :- R(A,B), S(B,C)").unwrap(),
        1 => parse_query("Q(X,Y) :- R(X,Z), S(Z,Y)").unwrap(),
        2 => panda::workloads::triangle_query(),
        _ => panda::workloads::four_cycle_projected(),
    }
}

fn ladder_rank(strategy: EvaluationStrategy) -> Option<u8> {
    match strategy {
        EvaluationStrategy::Adaptive => Some(2),
        EvaluationStrategy::StaticTd => Some(1),
        EvaluationStrategy::BinaryJoin => Some(0),
        _ => None,
    }
}

/// The report invariants every selection must satisfy, whatever fired.
fn check_report_invariants(report: &PlanReport, budgets: Budgets) {
    // Auto never reports the explicit-override rule.
    assert_ne!(report.rule, SelectorRule::ExplicitOverride);
    // Downgrades are recorded iff selected and executed differ, and the
    // chain links selected to executed without gaps.
    assert_eq!(report.selected != report.strategy, !report.downgrades.is_empty());
    if let (Some(first), Some(last)) = (report.downgrades.first(), report.downgrades.last()) {
        assert_eq!(first.from, report.selected);
        assert_eq!(last.to, report.strategy);
    }
    for pair in report.downgrades.windows(2) {
        assert_eq!(pair[0].to, pair[1].from);
    }
    // Downgrades only move down the ladder, and each one names a budget
    // that is actually configured.
    for d in &report.downgrades {
        let from = ladder_rank(d.from).expect("downgrade source is on the ladder");
        let to = ladder_rank(d.to).expect("downgrade target is on the ladder");
        assert!(from > to, "downgrades are one-way: {:?}", d);
        let configured = match d.reason {
            ReasonCode::LpBudgetExhausted => budgets.lp_pivot_budget.is_some(),
            ReasonCode::BranchBudgetExceeded => budgets.branch_budget.is_some(),
            ReasonCode::MemoryBudgetExceeded => budgets.memory_rows_budget.is_some(),
            _ => false,
        };
        assert!(configured, "downgrade reason {:?} without a matching budget", d.reason);
    }
    // Rule/reason/strategy consistency.
    match report.rule {
        SelectorRule::ExplicitOverride => unreachable!("checked above"),
        SelectorRule::AcyclicFastPath => {
            assert_eq!(report.reason, ReasonCode::AcyclicFreeConnex);
            assert_eq!(report.selected, EvaluationStrategy::Yannakakis);
        }
        SelectorRule::SubwGap => {
            assert_eq!(report.selected, EvaluationStrategy::Adaptive);
            match report.reason {
                ReasonCode::SubwBelowFhtw => {
                    let (Some(subw), Some(fhtw)) = (report.subw, report.fhtw) else {
                        panic!("gap rule without widths")
                    };
                    assert!(subw < fhtw);
                }
                ReasonCode::LpBudgetExhausted => assert_eq!(report.subw, None),
                other => panic!("impossible gap-rule reason {other:?}"),
            }
        }
        SelectorRule::TdFallback => {
            assert_eq!(report.selected, EvaluationStrategy::StaticTd);
            if report.reason == ReasonCode::NoWidthGap {
                assert_eq!(report.subw, report.fhtw);
            }
        }
        SelectorRule::GenericDefault => {
            assert_eq!(report.selected, EvaluationStrategy::GenericJoin);
            assert!(matches!(
                report.reason,
                ReasonCode::WidthsUnavailable | ReasonCode::LpBudgetExhausted
            ));
            assert_eq!(report.fhtw, None);
        }
    }
    // Budget accounting: pivots are only reported when a pivot budget was
    // set, and never exceed it.
    match (budgets.lp_pivot_budget, report.lp_pivots_used) {
        (None, used) => assert_eq!(used, None),
        (Some(limit), Some(used)) => assert!(used <= limit),
        // The acyclic fast path never opens the budget.
        (Some(_), None) => assert_eq!(report.rule, SelectorRule::AcyclicFastPath),
    }
    // An adaptive plan that survived the branch budget fits inside it.
    if report.strategy == EvaluationStrategy::Adaptive {
        if let Some(cap) = budgets.branch_budget {
            assert!(report.branch_count <= cap);
        }
    }
    assert!(report.branch_count >= 1);
}

proptest! {
    // Every selection's reason codes are consistent with its inputs, for
    // random data and every budget combination.
    #[test]
    fn prop_reason_codes_are_consistent_with_inputs(
        qidx in 0usize..4,
        edges in proptest::collection::vec((0u64..10, 0u64..10), 1..80),
        seed in 0u64..1000,
        lp_budget in proptest::option::of(1u64..2000),
        branch_budget in proptest::option::of(1usize..8),
        memory_budget in proptest::option::of(1u64..500),
    ) {
        let query = query_pool(qidx);
        let db = random_graph_db(&["R", "S", "T", "U"], 10, edges.len(), seed);
        let budgets = Budgets {
            lp_pivot_budget: lp_budget,
            branch_budget,
            memory_rows_budget: memory_budget,
        };
        let report = Panda::new(query).with_budgets(budgets).plan_report(&db).unwrap();
        check_report_invariants(&report, budgets);
    }

    // Bit-identity under downgrades: whatever the budgets force, the
    // answer relation is identical to the unbudgeted reference, under both
    // engines.
    #[test]
    fn prop_downgraded_plans_return_identical_results(
        qidx in 0usize..4,
        n in 4u64..12,
        edges in 10usize..80,
        seed in 0u64..1000,
        lp_budget in proptest::option::of(1u64..2000),
        branch_budget in proptest::option::of(1usize..8),
        memory_budget in proptest::option::of(1u64..500),
    ) {
        let query = query_pool(qidx);
        let db = random_graph_db(&["R", "S", "T", "U"], n, edges, seed);
        let budgets = Budgets {
            lp_pivot_budget: lp_budget,
            branch_budget,
            memory_rows_budget: memory_budget,
        };
        let reference = Panda::new(query.clone())
            .with_engine(Engine::Sequential)
            .evaluate(&db);
        let reference = canonical(&reference, &query);
        for engine in [Engine::Sequential, Engine::Parallel(Parallelism::threads(4))] {
            let got = Panda::new(query.clone())
                .with_engine(engine)
                .with_budgets(budgets)
                .evaluate(&db);
            prop_assert_eq!(canonical(&got, &query), reference.clone());
        }
    }

    // The facade differential property: every strategy that accepts the
    // query returns the identical relation.
    #[test]
    fn prop_all_accepting_strategies_agree(
        qidx in 0usize..4,
        n in 4u64..12,
        edges in 10usize..80,
        seed in 0u64..1000,
    ) {
        let query = query_pool(qidx);
        let db = random_graph_db(&["R", "S", "T", "U"], n, edges, seed);
        let panda = Panda::new(query.clone()).with_engine(Engine::Sequential);
        let reference =
            canonical(&panda.evaluate_with(&db, EvaluationStrategy::GenericJoin), &query);
        for strategy in [
            EvaluationStrategy::Auto,
            EvaluationStrategy::Yannakakis,
            EvaluationStrategy::StaticTd,
            EvaluationStrategy::Adaptive,
            EvaluationStrategy::BinaryJoin,
        ] {
            match panda.try_evaluate_with(&db, strategy) {
                Ok(result) => prop_assert_eq!(
                    canonical(&result, &query),
                    reference.clone(),
                    "strategy {:?}",
                    strategy
                ),
                Err(StrategyError::CyclicYannakakis) => {
                    prop_assert_eq!(strategy, EvaluationStrategy::Yannakakis);
                    prop_assert!(!panda.is_free_connex_acyclic());
                }
                Err(other) => {
                    panic!("strategy {strategy:?} rejected an unbudgeted query: {other}")
                }
            }
        }
    }
}
