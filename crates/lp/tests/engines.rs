//! Differential and edge-case tests for the two simplex engines.
//!
//! The revised engine (`LinearProgram::solve`) must return bit-for-bit
//! the same outcome — objective, primal point *and* dual values — as the
//! dense-tableau reference (`solve_dense`) on every program, because the
//! entropy crate reads Shannon-flow certificates straight off the duals.
//! These tests pin that equivalence on textbook cycling/degenerate LPs,
//! infeasible and unbounded programs, warm-started solves, and random
//! small LPs via proptest.

use panda_lp::{Basis, CancelToken, ConstraintOp, LinearProgram, LpError, LpOutcome, PivotBudget};
use panda_rational::Rat;
use proptest::collection;
use proptest::prelude::*;

fn r(n: i128) -> Rat {
    Rat::from_int(n)
}

/// Solves with both engines and asserts bitwise agreement; returns the
/// shared outcome.
fn solve_both(lp: &LinearProgram) -> LpOutcome {
    let dense = lp.solve_dense().expect("dense solve");
    let revised = lp.solve().expect("revised solve");
    assert_eq!(dense, revised, "engines disagree");
    if let LpOutcome::Optimal(s) = &revised {
        assert!(
            s.certificate_violations(lp).is_empty(),
            "invalid certificate: {:?}",
            s.certificate_violations(lp)
        );
    }
    revised
}

/// A warm-startable solve nobody limits.
fn warm_solve(lp: &LinearProgram, hint: Option<Basis>) -> (LpOutcome, Option<Basis>) {
    lp.solve_warm(hint, &mut PivotBudget::unlimited()).expect("revised solve")
}

/// Beale's classic cycling example: Dantzig pricing with naive tie-breaks
/// cycles forever on this LP; the automatic switch to Bland's rule must
/// terminate it, in both engines, at the optimum 1/20.
#[test]
fn beale_cycling_example_terminates_at_the_known_optimum() {
    let mut lp = LinearProgram::new(4);
    lp.set_objective(vec![Rat::new(3, 4), r(-150), Rat::new(1, 50), r(-6)]);
    lp.add_constraint(
        vec![(0, Rat::new(1, 4)), (1, r(-60)), (2, Rat::new(-1, 25)), (3, r(9))],
        ConstraintOp::Le,
        Rat::ZERO,
    );
    lp.add_constraint(
        vec![(0, Rat::new(1, 2)), (1, r(-90)), (2, Rat::new(-1, 50)), (3, r(3))],
        ConstraintOp::Le,
        Rat::ZERO,
    );
    lp.add_constraint(vec![(2, Rat::ONE)], ConstraintOp::Le, Rat::ONE);
    let LpOutcome::Optimal(s) = solve_both(&lp) else {
        panic!("Beale's example has a finite optimum");
    };
    assert_eq!(s.objective, Rat::new(1, 20));
    assert_eq!(s.primal, vec![Rat::new(1, 25), Rat::ZERO, Rat::ONE, Rat::ZERO]);
}

/// A heavily degenerate LP: every pairwise-difference constraint passes
/// through the origin, so most pivots make no progress.  Both engines must
/// agree pivot-for-pivot and terminate.
#[test]
fn degenerate_origin_fan_terminates_identically() {
    let n = 4usize;
    let mut lp = LinearProgram::new(n);
    lp.set_objective((0..n).map(|i| r(i as i128 + 1)).collect());
    for a in 0..n {
        for b in 0..n {
            if a != b {
                lp.add_constraint(vec![(a, Rat::ONE), (b, -Rat::ONE)], ConstraintOp::Le, Rat::ZERO);
            }
        }
    }
    lp.add_constraint((0..n).map(|i| (i, Rat::ONE)).collect(), ConstraintOp::Le, r(8));
    let LpOutcome::Optimal(s) = solve_both(&lp) else { panic!("bounded and feasible") };
    // All variables forced equal, summing to 8.
    assert_eq!(s.objective, r(20));
}

#[test]
fn infeasible_equalities_detected_by_both_engines() {
    let mut lp = LinearProgram::new(2);
    lp.set_objective(vec![Rat::ONE, Rat::ONE]);
    lp.add_constraint(vec![(0, Rat::ONE), (1, Rat::ONE)], ConstraintOp::Eq, r(5));
    lp.add_constraint(vec![(0, Rat::ONE), (1, Rat::ONE)], ConstraintOp::Eq, r(3));
    assert_eq!(solve_both(&lp), LpOutcome::Infeasible);
}

#[test]
fn infeasible_ge_band_detected_by_both_engines() {
    let mut lp = LinearProgram::new(1);
    lp.set_objective(vec![Rat::ONE]);
    lp.add_constraint(vec![(0, Rat::ONE)], ConstraintOp::Ge, r(7));
    lp.add_constraint(vec![(0, Rat::ONE)], ConstraintOp::Le, r(2));
    assert_eq!(solve_both(&lp), LpOutcome::Infeasible);
}

#[test]
fn unbounded_with_ge_constraints_detected_by_both_engines() {
    let mut lp = LinearProgram::new(2);
    lp.set_objective(vec![Rat::ONE, Rat::ONE]);
    lp.add_constraint(vec![(0, Rat::ONE), (1, -Rat::ONE)], ConstraintOp::Ge, r(1));
    assert_eq!(solve_both(&lp), LpOutcome::Unbounded);
}

#[test]
fn iteration_limit_is_an_error_not_a_panic() {
    // The limit cannot be hit by a real program (Bland's rule terminates),
    // so pin the error type's shape and rendering instead.
    let err = LpError::IterationLimit(200_000);
    assert_eq!(err.to_string(), "simplex exceeded the iteration limit of 200000");
    assert_eq!(err.clone(), LpError::IterationLimit(200_000));
}

#[test]
fn warm_start_skips_phase_one_and_matches_the_cold_objective() {
    // Two LPs with identical constraints, different objectives — the shape
    // `fhtw` produces when it re-targets the same Γ_n scaffold per bag.
    let build = |obj: Vec<Rat>| {
        let mut lp = LinearProgram::new(3);
        lp.set_objective(obj);
        lp.add_constraint(vec![(0, Rat::ONE), (1, Rat::ONE)], ConstraintOp::Ge, r(2));
        lp.add_constraint(
            vec![(0, Rat::ONE), (1, Rat::ONE), (2, Rat::ONE)],
            ConstraintOp::Le,
            r(6),
        );
        lp.add_constraint(vec![(1, Rat::ONE), (2, Rat::ONE)], ConstraintOp::Le, r(4));
        lp
    };
    let first = build(vec![Rat::ONE, Rat::ZERO, Rat::ZERO]);
    let (outcome, basis) = warm_solve(&first, None);
    let cold_first = first.solve().unwrap();
    assert_eq!(outcome, cold_first, "warm API without a hint is a cold solve");
    let basis = basis.expect("optimal solve returns a basis");

    let second = build(vec![Rat::ZERO, Rat::ZERO, Rat::ONE]);
    let (warm, _) = warm_solve(&second, Some(basis));
    let warm = warm.expect_optimal("warm");
    let cold = second.solve().unwrap().expect_optimal("cold");
    // A degenerate optimum may pick a different basis, but the optimal
    // value is unique and the certificate must still verify.
    assert_eq!(warm.objective, cold.objective);
    assert!(warm.certificate_violations(&second).is_empty());
}

#[test]
fn the_pivot_loop_counts_exhausts_and_cancels_without_changing_a_solve() {
    let mut lp = LinearProgram::new(3);
    lp.set_objective(vec![Rat::ONE, Rat::ZERO, Rat::ONE]);
    lp.add_constraint(vec![(0, Rat::ONE), (1, Rat::ONE)], ConstraintOp::Ge, r(2));
    lp.add_constraint(vec![(0, Rat::ONE), (1, Rat::ONE), (2, Rat::ONE)], ConstraintOp::Le, r(6));
    lp.add_constraint(vec![(1, Rat::ONE), (2, Rat::ONE)], ConstraintOp::Le, r(4));

    let mut free = PivotBudget::unlimited();
    let (reference, _) = lp.solve_warm(None, &mut free).unwrap();
    let pivots = free.used();
    assert!(pivots > 1, "the program needs both phases");
    assert_eq!(reference, lp.solve().unwrap());

    // Exactly enough pivots: the same outcome, bit for bit.
    let mut exact = PivotBudget::new(pivots);
    assert_eq!(lp.solve_warm(None, &mut exact).unwrap().0, reference);
    assert!(exact.is_exhausted());
    // One short: the solve stops at the limit, having spent all of it.
    let mut short = PivotBudget::new(pivots - 1);
    let err = lp.solve_warm(None, &mut short).unwrap_err();
    assert_eq!(err, LpError::PivotBudgetExhausted { limit: pivots - 1 });
    assert_eq!(short.used(), pivots - 1);
    // A fired token stops an unlimited solve before its first pivot.
    let token = CancelToken::new();
    token.cancel();
    let mut cancelled = PivotBudget::unlimited().with_cancel_token(token);
    assert_eq!(lp.solve_warm(None, &mut cancelled).unwrap_err(), LpError::Cancelled);
    assert_eq!(cancelled.used(), 0);
}

#[test]
fn incompatible_warm_hint_falls_back_to_the_cold_path() {
    let mut small = LinearProgram::new(1);
    small.set_objective(vec![Rat::ONE]);
    small.add_constraint(vec![(0, Rat::ONE)], ConstraintOp::Le, r(3));
    let (_, basis) = warm_solve(&small, None);
    let basis = basis.unwrap();

    let mut other = LinearProgram::new(2);
    other.set_objective(vec![Rat::ONE, Rat::ONE]);
    other.add_constraint(vec![(0, Rat::ONE), (1, Rat::ONE)], ConstraintOp::Le, r(5));
    let (with_hint, _) = warm_solve(&other, Some(basis));
    assert_eq!(with_hint, other.solve().unwrap(), "stale hint must not change the result");
}

#[test]
fn warm_hint_with_a_basic_artificial_is_rejected() {
    // A duplicate equality leaves an artificial basic (at zero) on the
    // redundant row, so the returned basis contains an artificial column.
    // Fed to a same-shaped program whose second row is *independent*, a
    // naive install would let phase 2 drive that artificial positive and
    // report an infeasible point as optimal; the hint must be rejected.
    let mut first = LinearProgram::new(2);
    first.set_objective(vec![Rat::ZERO, Rat::ONE]);
    first.add_constraint(vec![(0, Rat::ONE), (1, Rat::ONE)], ConstraintOp::Eq, r(2));
    first.add_constraint(vec![(0, Rat::ONE), (1, Rat::ONE)], ConstraintOp::Eq, r(2));
    let (_, basis) = warm_solve(&first, None);

    let mut second = LinearProgram::new(2);
    second.set_objective(vec![Rat::ZERO, Rat::ONE]);
    second.add_constraint(vec![(0, Rat::ONE), (1, Rat::ONE)], ConstraintOp::Eq, r(2));
    second.add_constraint(vec![(0, Rat::ONE), (1, -Rat::ONE)], ConstraintOp::Eq, r(2));
    let (warm, _) = warm_solve(&second, basis);
    let cold = second.solve().unwrap();
    assert_eq!(warm, cold);
    let s = warm.expect_optimal("x=2, y=0 is the unique feasible point");
    assert_eq!(s.primal, vec![r(2), Rat::ZERO]);
}

#[test]
fn infeasible_warm_hint_falls_back_to_the_cold_path() {
    // Same shape, but the carried basis is infeasible for the new rhs.
    let build = |rhs: i128| {
        let mut lp = LinearProgram::new(2);
        lp.set_objective(vec![Rat::ONE, Rat::ZERO]);
        lp.add_constraint(vec![(0, Rat::ONE), (1, Rat::ONE)], ConstraintOp::Ge, r(rhs));
        lp.add_constraint(vec![(0, Rat::ONE)], ConstraintOp::Le, r(10));
        lp.add_constraint(vec![(1, Rat::ONE)], ConstraintOp::Le, r(10));
        lp
    };
    let (_, basis) = warm_solve(&build(1), None);
    let loose = build(-30); // flips the row normalisation: hint may not fit
    let (warm, _) = warm_solve(&loose, basis);
    assert_eq!(warm, loose.solve().unwrap());
}

/// A random program in the shape of a Γ_n LP: every row is `≤ b` with
/// `b ≥ 0` (kind 0), `≥ 0` (kind 1) or `≥ b` with `b > 0` (kind 2).  With
/// `negate_ge_zero`, each `≥ 0` row `a·x ≥ 0` is stated as `−a·x ≤ 0`
/// instead.
fn slack_form_lp(
    objective: &[i128],
    rows: &[(usize, i128, Vec<i128>)],
    negate_ge_zero: bool,
) -> LinearProgram {
    let n = objective.len();
    let mut lp = LinearProgram::new(n);
    lp.set_objective(objective.iter().map(|&c| r(c)).collect());
    for (kind, b, coeffs) in rows {
        let coeffs: Vec<(usize, Rat)> =
            coeffs.iter().enumerate().map(|(i, &c)| (i % n, r(c))).collect();
        match kind {
            0 => lp.add_constraint(coeffs, ConstraintOp::Le, r(*b)),
            1 if negate_ge_zero => lp.add_constraint(
                coeffs.into_iter().map(|(j, c)| (j, -c)).collect(),
                ConstraintOp::Le,
                Rat::ZERO,
            ),
            1 => lp.add_constraint(coeffs, ConstraintOp::Ge, Rat::ZERO),
            _ => lp.add_constraint(coeffs, ConstraintOp::Ge, r(*b + 1)),
        };
    }
    lp
}

/// A `≥ 0` row takes a slack, not an artificial: a program whose rows are
/// all `≤ b` (b ≥ 0) or `≥ 0` starts at x = 0 and never pivots an
/// artificial, so a cone like this one is solved in phase 2 alone.
#[test]
fn ge_zero_rows_start_feasible_at_the_origin() {
    // maximise x + y  s.t.  x − y ≥ 0, y ≥ 0 (as a row), x ≤ 3
    let mut lp = LinearProgram::new(2);
    lp.set_objective(vec![Rat::ONE, Rat::ONE]);
    lp.add_constraint(vec![(0, Rat::ONE), (1, -Rat::ONE)], ConstraintOp::Ge, Rat::ZERO);
    lp.add_constraint(vec![(1, Rat::ONE)], ConstraintOp::Ge, Rat::ZERO);
    lp.add_constraint(vec![(0, Rat::ONE)], ConstraintOp::Le, r(3));
    let mut budget = PivotBudget::unlimited();
    let (outcome, _) = lp.solve_warm(None, &mut budget).unwrap();
    assert_eq!(outcome, solve_both(&lp));
    let s = outcome.expect_optimal("bounded by x ≤ 3 and y ≤ x");
    assert_eq!(s.objective, r(6));
    // x enters, then y: two phase-2 pivots, and no phase 1 before them.
    assert_eq!(budget.used(), 2);
    assert_eq!(s.duals, vec![-Rat::ONE, Rat::ZERO, r(2)]);
}

proptest! {
    // Programs in the Γ_n shape (`≤ b` with b ≥ 0, `≥ 0`, `≥ b` with
    // b > 0): the two engines stay bit-identical, and a `≥ 0` row gives
    // the same optimum, primal point, dual (with its sign flipped) and
    // final basis whether it is stated as `a·x ≥ 0` or as `−a·x ≤ 0`.
    #[test]
    fn prop_ge_zero_rows_solve_as_their_negated_le_rows(
        objective in collection::vec(-3i128..4, 1..4),
        rows in collection::vec(
            (0usize..3, 0i128..10, collection::vec(-3i128..4, 1..5)),
            1..7,
        ),
    ) {
        let lp = slack_form_lp(&objective, &rows, false);
        let dense = lp.solve_dense().unwrap();
        let (revised, basis) = warm_solve(&lp, None);
        prop_assert_eq!(&dense, &revised);

        let negated = slack_form_lp(&objective, &rows, true);
        prop_assert_eq!(&negated.solve_dense().unwrap(), &negated.solve().unwrap());
        let (negated_outcome, negated_basis) = warm_solve(&negated, None);
        prop_assert_eq!(&negated_basis, &basis);
        match (revised, negated_outcome) {
            (LpOutcome::Optimal(s), LpOutcome::Optimal(t)) => {
                prop_assert_eq!(s.objective, t.objective);
                prop_assert_eq!(&s.primal, &t.primal);
                for (i, (kind, _, _)) in rows.iter().enumerate() {
                    let expected = if *kind == 1 { -s.duals[i] } else { s.duals[i] };
                    prop_assert_eq!(t.duals[i], expected, "row {}", i);
                }
                prop_assert!(s.certificate_violations(&lp).is_empty());
                prop_assert!(t.certificate_violations(&negated).is_empty());
            }
            (s, t) => prop_assert_eq!(s, t),
        }
    }

    // Random small LPs: both engines must return bitwise-identical
    // outcomes (objective, primal and duals), and optimal certificates
    // must pass the full audit — primal feasibility, dual feasibility,
    // sign conventions and strong duality.
    #[test]
    fn prop_engines_agree_bitwise_on_random_lps(
        objective in collection::vec(-3i128..4, 1..4),
        rows in collection::vec(
            (0usize..3, -6i128..10, collection::vec(-3i128..4, 1..5)),
            1..7,
        ),
    ) {
        let n = objective.len();
        let mut lp = LinearProgram::new(n);
        lp.set_objective(objective.iter().map(|&c| Rat::from_int(c)).collect());
        for (op, rhs, coeffs) in &rows {
            let op = match op {
                0 => ConstraintOp::Le,
                1 => ConstraintOp::Ge,
                _ => ConstraintOp::Eq,
            };
            let coeffs: Vec<(usize, Rat)> = coeffs
                .iter()
                .enumerate()
                .map(|(i, &c)| (i % n, Rat::from_int(c)))
                .collect();
            lp.add_constraint(coeffs, op, Rat::from_int(*rhs));
        }
        let dense = lp.solve_dense().unwrap();
        let revised = lp.solve().unwrap();
        prop_assert_eq!(&dense, &revised);
        if let LpOutcome::Optimal(s) = revised {
            let violations = s.certificate_violations(&lp);
            prop_assert!(violations.is_empty(), "bad certificate: {violations:?}");
        }
    }

    // Warm-starting from a random compatible basis hint never changes the
    // optimal objective value.
    #[test]
    fn prop_warm_start_preserves_the_objective(
        objective in collection::vec(-3i128..4, 2..4),
        second_objective in collection::vec(-3i128..4, 2..4),
        rows in collection::vec(
            (0usize..2, 0i128..10, collection::vec(-2i128..4, 1..5)),
            1..6,
        ),
    ) {
        let n = objective.len().min(second_objective.len());
        let build = |obj: &[i128]| {
            let mut lp = LinearProgram::new(n);
            lp.set_objective(obj.iter().take(n).map(|&c| Rat::from_int(c)).collect());
            for (op, rhs, coeffs) in &rows {
                let op = if *op == 0 { ConstraintOp::Le } else { ConstraintOp::Ge };
                let coeffs: Vec<(usize, Rat)> = coeffs
                    .iter()
                    .enumerate()
                    .map(|(i, &c)| (i % n, Rat::from_int(c)))
                    .collect();
                lp.add_constraint(coeffs, op, Rat::from_int(*rhs));
            }
            lp
        };
        let first = build(&objective);
        let (_, basis) = warm_solve(&first, None);
        let second = build(&second_objective);
        let (warm, _) = warm_solve(&second, basis);
        let cold = second.solve().unwrap();
        match (warm, cold) {
            (LpOutcome::Optimal(w), LpOutcome::Optimal(c)) => {
                prop_assert_eq!(w.objective, c.objective);
                prop_assert!(w.certificate_violations(&second).is_empty());
            }
            (w, c) => prop_assert_eq!(w, c),
        }
    }
}
