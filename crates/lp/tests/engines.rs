//! Differential and edge-case tests for the two simplex engines.
//!
//! The revised engine (`LinearProgram::solve`) must return bit-for-bit
//! the same outcome — objective, primal point *and* dual values — as the
//! dense-tableau reference (`solve_dense`) on every program, because the
//! entropy crate reads Shannon-flow certificates straight off the duals.
//! These tests pin that equivalence on textbook cycling/degenerate LPs,
//! unbounded programs, warm-started solves, and random small programs
//! `A x ≤ b`, `b ≥ 0` via proptest.

use panda_lp::{Basis, CancelToken, LinearProgram, LpError, LpOutcome, PivotBudget};
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
        Rat::ZERO,
    );
    lp.add_constraint(
        vec![(0, Rat::new(1, 2)), (1, r(-90)), (2, Rat::new(-1, 50)), (3, r(3))],
        Rat::ZERO,
    );
    lp.add_constraint(vec![(2, Rat::ONE)], Rat::ONE);
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
                lp.add_constraint(vec![(a, Rat::ONE), (b, -Rat::ONE)], Rat::ZERO);
            }
        }
    }
    lp.add_constraint((0..n).map(|i| (i, Rat::ONE)).collect(), r(8));
    let LpOutcome::Optimal(s) = solve_both(&lp) else { panic!("bounded and feasible") };
    // All variables forced equal, summing to 8.
    assert_eq!(s.objective, r(20));
}

#[test]
fn unbounded_program_detected_by_both_engines() {
    // maximise x + y  s.t.  y − x ≤ 1: x = y grows without limit.
    let mut lp = LinearProgram::new(2);
    lp.set_objective(vec![Rat::ONE, Rat::ONE]);
    lp.add_constraint(vec![(0, -Rat::ONE), (1, Rat::ONE)], r(1));
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

/// `x − y ≤ 2, x + y + z ≤ 6, y + z ≤ 4` under the given objective.
fn three_rows(objective: Vec<Rat>) -> LinearProgram {
    let mut lp = LinearProgram::new(3);
    lp.set_objective(objective);
    lp.add_constraint(vec![(0, Rat::ONE), (1, -Rat::ONE)], r(2));
    lp.add_constraint(vec![(0, Rat::ONE), (1, Rat::ONE), (2, Rat::ONE)], r(6));
    lp.add_constraint(vec![(1, Rat::ONE), (2, Rat::ONE)], r(4));
    lp
}

#[test]
fn warm_start_matches_the_cold_objective() {
    // Two LPs with identical constraints, different objectives — the shape
    // `fhtw` produces when it re-targets the same Γ_n scaffold per bag.
    let build = three_rows;
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
    let lp = three_rows(vec![Rat::ONE, Rat::ZERO, Rat::ONE]);

    let mut free = PivotBudget::unlimited();
    let (reference, _) = lp.solve_warm(None, &mut free).unwrap();
    let pivots = free.used();
    assert!(pivots > 1, "the program needs two pivots at least");
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
    small.add_constraint(vec![(0, Rat::ONE)], r(3));
    let (_, basis) = warm_solve(&small, None);
    let basis = basis.unwrap();

    let mut other = LinearProgram::new(2);
    other.set_objective(vec![Rat::ONE, Rat::ONE]);
    other.add_constraint(vec![(0, Rat::ONE), (1, Rat::ONE)], r(5));
    let (with_hint, _) = warm_solve(&other, Some(basis));
    assert_eq!(with_hint, other.solve().unwrap(), "stale hint must not change the result");
}

#[test]
fn infeasible_warm_hint_falls_back_to_the_cold_path() {
    // Same shape, but the carried basis is infeasible for the new rhs.
    let build = |rhs: i128| {
        let mut lp = LinearProgram::new(2);
        lp.set_objective(vec![Rat::ONE, Rat::ZERO]);
        lp.add_constraint(vec![(0, Rat::ONE), (1, -Rat::ONE)], r(rhs));
        lp.add_constraint(vec![(0, Rat::ONE)], r(10));
        lp.add_constraint(vec![(1, Rat::ONE)], r(10));
        lp
    };
    // At rhs 1 the optimum x = 10 has x and y basic (y = 9) beside the
    // slack of y ≤ 10; at rhs 30 that basis puts y at x − 30 = −20.
    let (_, basis) = warm_solve(&build(1), None);
    let loose = build(30);
    let (warm, _) = warm_solve(&loose, basis);
    let cold = loose.solve().unwrap();
    assert_eq!(warm, cold);
    assert_eq!(cold.expect_optimal("bounded by x ≤ 10").primal, vec![r(10), Rat::ZERO]);
}

/// A random program over `objective.len()` variables with one row
/// `a·x ≤ max(b, 0)` per `(b, a)`, coefficient `k` of `a` on variable
/// `k mod n`.
fn random_lp(objective: &[i128], rows: &[(i128, Vec<i128>)]) -> LinearProgram {
    let n = objective.len();
    let mut lp = LinearProgram::new(n);
    lp.set_objective(objective.iter().map(|&c| r(c)).collect());
    for (b, coeffs) in rows {
        let coeffs = coeffs.iter().enumerate().map(|(i, &c)| (i % n, r(c))).collect();
        lp.add_constraint(coeffs, r((*b).max(0)));
    }
    lp
}

proptest! {
    // Random small programs `A x ≤ b`, `b ≥ 0` (about a third of the
    // rows `≤ 0`, like the cone rows of a Γ_n LP): both engines must
    // return bitwise-identical outcomes (objective, primal and duals), and
    // optimal certificates must pass the full audit — primal feasibility,
    // dual feasibility, sign conventions and strong duality.
    #[test]
    fn prop_engines_agree_bitwise_on_random_lps(
        objective in collection::vec(-3i128..4, 1..4),
        rows in collection::vec((-4i128..10, collection::vec(-3i128..4, 1..5)), 1..7),
    ) {
        let lp = random_lp(&objective, &rows);
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
        rows in collection::vec((-4i128..10, collection::vec(-2i128..4, 1..5)), 1..6),
    ) {
        let n = objective.len().min(second_objective.len());
        let first = random_lp(&objective[..n], &rows);
        let (_, basis) = warm_solve(&first, None);
        let second = random_lp(&second_objective[..n], &rows);
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
