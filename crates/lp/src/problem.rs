//! Linear-program construction.

use panda_rational::Rat;

use crate::revised::{Factor, RevisedSimplex};
use crate::simplex::Simplex;
use crate::solution::LpOutcome;
use crate::LpError;

/// An opaque warm-start token: the optimal basis of a completed
/// revised-simplex solve, returned by [`LinearProgram::solve_warm`], with
/// that solve's factorisation.
///
/// Feeding it back into `solve_warm` on a *structurally compatible*
/// program (same variable and constraint counts — e.g. the Γ_n LPs of two
/// bag selectors with equally many target rows) starts the solve from that
/// basis instead of the all-slack one when the basis is still exactly
/// feasible (`B⁻¹b ≥ 0`).  When every basic column of the new program
/// equals the old one, the carried inverse is reused as it stands;
/// otherwise the basis is refactorised.  Compatibility and
/// exact feasibility are verified before use; an unusable hint silently
/// falls back to the cold solve, so a stale token can cost time but never
/// correctness.
///
/// Two bases are equal when they name the same columns: the factorisation
/// is a cache of those columns' inverse and does not enter the comparison.
#[derive(Debug, Clone)]
pub struct Basis {
    pub(crate) cols: Vec<usize>,
    pub(crate) num_cols: usize,
    pub(crate) factor: Option<Factor>,
}

impl PartialEq for Basis {
    fn eq(&self, other: &Self) -> bool {
        self.cols == other.cols && self.num_cols == other.num_cols
    }
}

impl Eq for Basis {}

/// A single linear constraint `a · x ≤ b` stored sparsely, with `b ≥ 0`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Constraint {
    /// Sparse coefficient list `(variable index, coefficient)`.
    pub coeffs: Vec<(usize, Rat)>,
    /// The right-hand side, never negative.
    pub rhs: Rat,
}

impl Constraint {
    /// Evaluates the left-hand side on a point.
    #[must_use]
    pub(crate) fn lhs_at(&self, point: &[Rat]) -> Rat {
        self.coeffs.iter().map(|(j, c)| *c * point.get(*j).copied().unwrap_or(Rat::ZERO)).sum()
    }

    /// Returns `true` iff the point satisfies the constraint exactly.
    #[must_use]
    pub(crate) fn is_satisfied_by(&self, point: &[Rat]) -> bool {
        self.lhs_at(point) <= self.rhs
    }
}

/// A linear program `maximise c · x  subject to  A x ≤ b, x ≥ 0`, with
/// `b ≥ 0`.
///
/// This is the one form every LP of the entropy crate takes: the variables
/// (entropy values and the auxiliary `t` of the submodular-width LP) are
/// non-negative, and each row is a statistic `≤ log N` with `log N ≥ 0`, a
/// target row `t − h(B) ≤ 0` or a negated elemental row `−expr_e(h) ≤ 0`.
/// Since `b ≥ 0`, the origin is feasible and every solve starts from the
/// all-slack basis: no program is infeasible.
#[derive(Debug, Clone)]
pub struct LinearProgram {
    num_vars: usize,
    objective: Vec<Rat>,
    constraints: Vec<Constraint>,
}

impl LinearProgram {
    /// Creates a program with `num_vars` non-negative variables and a zero
    /// objective.
    #[must_use]
    pub fn new(num_vars: usize) -> Self {
        LinearProgram { num_vars, objective: vec![Rat::ZERO; num_vars], constraints: Vec::new() }
    }

    /// Number of variables.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of constraints added so far.
    #[must_use]
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// The constraints added so far.
    #[must_use]
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// The dense objective vector.
    #[must_use]
    pub fn objective(&self) -> &[Rat] {
        &self.objective
    }

    /// Sets the (maximisation) objective from a dense coefficient vector.
    ///
    /// # Panics
    ///
    /// If the length does not match the variable count.
    pub fn set_objective(&mut self, coeffs: Vec<Rat>) -> &mut Self {
        assert_eq!(
            coeffs.len(),
            self.num_vars,
            "objective has {} coefficients but the program has {} variables",
            coeffs.len(),
            self.num_vars
        );
        self.objective = coeffs;
        self
    }

    /// Sets a single objective coefficient.
    ///
    /// # Panics
    ///
    /// If `var` is not a variable of the program.
    pub fn set_objective_coeff(&mut self, var: usize, coeff: Rat) -> &mut Self {
        assert!(var < self.num_vars, "variable {var} out of range");
        // panda-lint: allow(P1) -- in range by the assert directly above.
        self.objective[var] = coeff;
        self
    }

    /// Adds the constraint `a · x ≤ rhs`, with `a` given sparsely as
    /// `(variable, coefficient)` pairs.  Duplicate variable entries are
    /// summed.  Returns the constraint index, which identifies the
    /// constraint's dual value in [`crate::Solution`].
    ///
    /// # Panics
    ///
    /// If a coefficient names a variable outside the program, or if `rhs`
    /// is negative: the solver starts every program at the origin, which
    /// is feasible exactly when every right-hand side is non-negative.
    pub fn add_constraint(&mut self, coeffs: Vec<(usize, Rat)>, rhs: Rat) -> usize {
        for (j, _) in &coeffs {
            assert!(
                *j < self.num_vars,
                "constraint references variable {j} but the program has {} variables",
                self.num_vars
            );
        }
        assert!(!rhs.is_negative(), "constraint has a negative right-hand side {rhs}");
        // Merge duplicates so the dense tableau rows stay canonical.
        let mut merged: Vec<(usize, Rat)> = Vec::with_capacity(coeffs.len());
        for (j, c) in coeffs {
            if let Some(entry) = merged.iter_mut().find(|(k, _)| *k == j) {
                entry.1 += c;
            } else {
                merged.push((j, c));
            }
        }
        merged.retain(|(_, c)| !c.is_zero());
        self.constraints.push(Constraint { coeffs: merged, rhs });
        self.constraints.len() - 1
    }

    /// Solves the program with the simplex method (the sparse revised
    /// engine), starting from the all-slack basis.
    ///
    /// ```
    /// use panda_lp::LinearProgram;
    /// use panda_rational::Rat;
    ///
    /// // maximise x + y  subject to  2x + y ≤ 4, x + 3y ≤ 6, x,y ≥ 0
    /// let mut lp = LinearProgram::new(2);
    /// lp.set_objective(vec![Rat::ONE, Rat::ONE]);
    /// lp.add_constraint(vec![(0, Rat::from_int(2)), (1, Rat::ONE)], Rat::from_int(4));
    /// lp.add_constraint(vec![(0, Rat::ONE), (1, Rat::from_int(3))], Rat::from_int(6));
    /// let solution = lp.solve().unwrap().expect_optimal("doc");
    /// assert_eq!(solution.objective, Rat::new(14, 5));
    /// assert!(solution.certificate_violations(&lp).is_empty());
    /// ```
    pub fn solve(&self) -> Result<LpOutcome, LpError> {
        self.solve_warm(None, &mut crate::PivotBudget::unlimited()).map(|(outcome, _)| outcome)
    }

    /// Solves the program with the dense-tableau reference engine: the
    /// same method and pivot rules, rewriting the full
    /// `m × (n + m)` tableau per pivot.  Returns bit-for-bit the same
    /// outcome as [`LinearProgram::solve`], duals included; it is the
    /// differential reference of `crates/lp/tests/engines.rs` and of the
    /// Γ-corpus test in `panda-entropy`, not an engine to choose.
    pub fn solve_dense(&self) -> Result<LpOutcome, LpError> {
        Simplex::new(self).run()
    }

    /// Solves with the revised engine, optionally warm-starting from the
    /// final [`Basis`] of a previous solve, and returns the outcome
    /// together with this solve's final basis (when one exists) for
    /// chaining across a family of related programs.
    ///
    /// The hint is taken by value: its factorisation moves into this solve
    /// and on into the returned basis, so a chain keeps one basis inverse
    /// alive, not one per link.  It is used only if it is structurally
    /// compatible with this program and still *exactly* feasible (checked
    /// over the rationals); otherwise the cold solve runs.  Note that a
    /// warm-started solve may reach a different optimal basis than a cold
    /// one when the optimum is degenerate, so the dual certificate can
    /// legitimately differ; the objective value cannot.
    ///
    /// Every pivot is charged to `budget`, which a chain of solves shares
    /// ([`PivotBudget::unlimited`](crate::PivotBudget::unlimited) when
    /// nothing limits it).  The solve aborts with
    /// [`LpError::PivotBudgetExhausted`](crate::LpError::PivotBudgetExhausted)
    /// once the budget runs out and with
    /// [`LpError::Cancelled`](crate::LpError::Cancelled) once its token
    /// fires; the budget only counts, it never alters a pivot decision, so
    /// a solve that completes is bit-for-bit the same under any limit.
    /// Only the revised engine is budgeted — the dense tableau is the
    /// auditable reference and stays parameter-free.
    pub fn solve_warm(
        &self,
        hint: Option<Basis>,
        budget: &mut crate::PivotBudget,
    ) -> Result<(LpOutcome, Option<Basis>), LpError> {
        RevisedSimplex::new(self).run_warm(hint, budget)
    }

    /// Checks whether a point is feasible (satisfies every constraint and
    /// non-negativity).  Useful in tests and for auditing LP certificates.
    #[must_use]
    pub(crate) fn is_feasible(&self, point: &[Rat]) -> bool {
        point.len() == self.num_vars
            && point.iter().all(|v| !v.is_negative())
            && self.constraints.iter().all(|c| c.is_satisfied_by(point))
    }

    /// Evaluates the objective at a point.
    #[must_use]
    pub(crate) fn objective_at(&self, point: &[Rat]) -> Rat {
        self.objective.iter().zip(point.iter()).map(|(c, x)| *c * *x).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merges_duplicate_coefficients() {
        let mut lp = LinearProgram::new(2);
        lp.add_constraint(
            vec![(0, Rat::ONE), (0, Rat::ONE), (1, Rat::from_int(2))],
            Rat::from_int(5),
        );
        let c = &lp.constraints()[0];
        assert_eq!(c.coeffs.len(), 2);
        assert!(c.coeffs.contains(&(0, Rat::from_int(2))));
    }

    #[test]
    fn drops_zero_coefficients() {
        let mut lp = LinearProgram::new(2);
        lp.add_constraint(vec![(0, Rat::ONE), (0, -Rat::ONE), (1, Rat::ONE)], Rat::from_int(5));
        assert_eq!(lp.constraints()[0].coeffs, vec![(1, Rat::ONE)]);
    }

    #[test]
    fn feasibility_check() {
        let mut lp = LinearProgram::new(2);
        lp.set_objective(vec![Rat::ONE, Rat::ONE]);
        lp.add_constraint(vec![(0, Rat::ONE), (1, Rat::ONE)], Rat::from_int(3));
        assert!(lp.is_feasible(&[Rat::ONE, Rat::ONE]));
        assert!(!lp.is_feasible(&[Rat::from_int(2), Rat::from_int(2)]));
        assert!(!lp.is_feasible(&[-Rat::ONE, Rat::ZERO]));
        assert_eq!(lp.objective_at(&[Rat::ONE, Rat::from_int(2)]), Rat::from_int(3));
    }

    #[test]
    #[should_panic(expected = "references variable")]
    fn out_of_range_variable_panics() {
        let mut lp = LinearProgram::new(1);
        lp.add_constraint(vec![(3, Rat::ONE)], Rat::ONE);
    }

    #[test]
    #[should_panic(expected = "negative right-hand side")]
    fn negative_rhs_panics() {
        let mut lp = LinearProgram::new(1);
        lp.add_constraint(vec![(0, -Rat::ONE)], Rat::from_int(-3));
    }
}
