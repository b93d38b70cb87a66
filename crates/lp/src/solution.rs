//! Solver outcomes and optimality certificates.

use panda_rational::Rat;

use crate::problem::LinearProgram;

/// The result of solving a linear program.  The origin is feasible for
/// every [`LinearProgram`], so a solve either reaches an optimum or finds
/// the objective unbounded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LpOutcome {
    /// An optimal solution was found.
    Optimal(Solution),
    /// The objective is unbounded above on the feasible region.
    Unbounded,
}

impl LpOutcome {
    /// Returns the contained solution, panicking otherwise.  Convenient in
    /// code paths where unboundedness indicates a bug.
    #[must_use]
    #[track_caller]
    pub fn expect_optimal(self, context: &str) -> Solution {
        match self {
            LpOutcome::Optimal(s) => s,
            LpOutcome::Unbounded => panic!("{context}: LP unexpectedly unbounded"),
        }
    }

    /// Returns the contained solution if optimal.
    #[cfg(test)]
    pub(crate) fn optimal(self) -> Option<Solution> {
        match self {
            LpOutcome::Optimal(s) => Some(s),
            _ => None,
        }
    }
}

/// An optimal primal/dual pair.
///
/// # Dual sign conventions
///
/// `duals[i]` is the multiplier of constraint `i` *as it was stated* in the
/// [`LinearProgram`], satisfying:
///
/// 1. **strong duality** — `Σ_i duals[i] · rhs_i == objective`,
/// 2. **dual feasibility** — for every variable `j`,
///    `Σ_i duals[i] · a_ij ≥ c_j`,
/// 3. **signs** — every `duals[i] ≥ 0`.
///
/// These are exactly the properties the entropy crate needs to read off a
/// Shannon-flow inequality (Lemma 6.1 of the paper) from the submodular
/// width LP.
///
/// # Example
///
/// ```
/// use panda_lp::LinearProgram;
/// use panda_rational::Rat;
///
/// // maximise x  subject to  x ≤ 3, y − x ≤ 1
/// let mut lp = LinearProgram::new(2);
/// lp.set_objective(vec![Rat::ONE, Rat::ZERO]);
/// lp.add_constraint(vec![(0, Rat::ONE)], Rat::from_int(3));
/// lp.add_constraint(vec![(0, -Rat::ONE), (1, Rat::ONE)], Rat::ONE);
/// let solution = lp.solve().unwrap().expect_optimal("example");
/// assert_eq!(solution.objective, Rat::from_int(3));
/// // Strong duality: Σ duals[i] · rhs_i == objective, with the binding
/// // first constraint carrying multiplier 1 and the slack second one 0.
/// assert_eq!(solution.duals, vec![Rat::ONE, Rat::ZERO]);
/// assert!(solution.certificate_violations(&lp).is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Solution {
    /// Optimal objective value.
    pub objective: Rat,
    /// Optimal values of the structural variables.
    pub primal: Vec<Rat>,
    /// Dual values, one per constraint, with the conventions above.
    pub duals: Vec<Rat>,
}

impl Solution {
    /// Audits the solution against the program it came from: primal
    /// feasibility, dual feasibility, sign conventions and strong duality.
    /// Returns a list of human-readable violations (empty when the
    /// certificate is valid).  Intended for tests and debug assertions.
    #[must_use]
    pub fn certificate_violations(&self, lp: &LinearProgram) -> Vec<String> {
        let mut violations = Vec::new();
        if !lp.is_feasible(&self.primal) {
            violations.push("primal point is infeasible".to_string());
        }
        if lp.objective_at(&self.primal) != self.objective {
            violations.push("objective value does not match the primal point".to_string());
        }
        if self.duals.len() != lp.num_constraints() {
            violations.push("dual vector length mismatch".to_string());
            return violations;
        }
        // Strong duality.
        let dual_value: Rat =
            self.duals.iter().zip(lp.constraints()).map(|(d, c)| *d * c.rhs).sum();
        if dual_value != self.objective {
            violations.push(format!(
                "strong duality violated: dual value {dual_value} != objective {}",
                self.objective
            ));
        }
        // Sign conventions.
        for (i, d) in self.duals.iter().enumerate() {
            if d.is_negative() {
                violations.push(format!("dual {i} has the wrong sign: {d}"));
            }
        }
        // Dual feasibility per variable.
        let mut column_totals = vec![Rat::ZERO; lp.num_vars()];
        for (d, c) in self.duals.iter().zip(lp.constraints()) {
            for (j, coeff) in &c.coeffs {
                // panda-lint: allow(P1) -- constraint coefficients are
                // validated against `num_vars` at LP construction, and
                // `column_totals` has exactly `num_vars` entries.
                column_totals[*j] += *d * *coeff;
            }
        }
        for (j, (total, obj)) in column_totals.iter().zip(lp.objective()).enumerate() {
            if *total < *obj {
                violations
                    .push(format!("dual feasibility violated on variable {j}: {total} < {obj}"));
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinearProgram;

    fn solve(lp: &LinearProgram) -> Solution {
        lp.solve().unwrap().expect_optimal("test")
    }

    #[test]
    fn textbook_maximisation_with_known_duals() {
        // max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(vec![Rat::from_int(3), Rat::from_int(5)]);
        lp.add_constraint(vec![(0, Rat::ONE)], Rat::from_int(4));
        lp.add_constraint(vec![(1, Rat::from_int(2))], Rat::from_int(12));
        lp.add_constraint(vec![(0, Rat::from_int(3)), (1, Rat::from_int(2))], Rat::from_int(18));
        let s = solve(&lp);
        assert_eq!(s.objective, Rat::from_int(36));
        assert_eq!(s.primal, vec![Rat::from_int(2), Rat::from_int(6)]);
        assert_eq!(s.duals, vec![Rat::ZERO, Rat::new(3, 2), Rat::ONE]);
        assert!(s.certificate_violations(&lp).is_empty());
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Many redundant constraints through the origin; Bland's rule must
        // prevent cycling.
        let mut lp = LinearProgram::new(3);
        lp.set_objective(vec![Rat::ONE, Rat::ONE, Rat::ONE]);
        for a in 0..3usize {
            for b in 0..3usize {
                if a != b {
                    lp.add_constraint(vec![(a, Rat::ONE), (b, -Rat::ONE)], Rat::ZERO);
                }
            }
        }
        lp.add_constraint(vec![(0, Rat::ONE), (1, Rat::ONE), (2, Rat::ONE)], Rat::from_int(9));
        let s = solve(&lp);
        assert_eq!(s.objective, Rat::from_int(9));
        assert!(s.certificate_violations(&lp).is_empty());
    }

    #[test]
    fn unbounded_detected() {
        let mut lp = LinearProgram::new(2);
        lp.set_objective(vec![Rat::ONE, Rat::ZERO]);
        lp.add_constraint(vec![(1, Rat::ONE)], Rat::from_int(3));
        assert_eq!(lp.solve().unwrap(), LpOutcome::Unbounded);
    }

    #[test]
    fn fractional_optimum_is_exact() {
        // max t s.t. t ≤ x, t ≤ y, x + y ≤ 3  ⇒  t = 3/2.
        let mut lp = LinearProgram::new(3);
        lp.set_objective(vec![Rat::ONE, Rat::ZERO, Rat::ZERO]);
        lp.add_constraint(vec![(0, Rat::ONE), (1, -Rat::ONE)], Rat::ZERO);
        lp.add_constraint(vec![(0, Rat::ONE), (2, -Rat::ONE)], Rat::ZERO);
        lp.add_constraint(vec![(1, Rat::ONE), (2, Rat::ONE)], Rat::from_int(3));
        let s = solve(&lp);
        assert_eq!(s.objective, Rat::new(3, 2));
        assert!(s.certificate_violations(&lp).is_empty());
    }

    #[test]
    fn zero_objective_is_fine() {
        let mut lp = LinearProgram::new(2);
        lp.add_constraint(vec![(0, Rat::ONE), (1, Rat::ONE)], Rat::from_int(4));
        let s = solve(&lp);
        assert_eq!(s.objective, Rat::ZERO);
        assert!(s.certificate_violations(&lp).is_empty());
    }
}
