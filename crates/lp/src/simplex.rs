//! The dense-tableau simplex method over exact rationals, and the
//! standard form both engines share: the structural columns plus one slack
//! per row, starting from the all-slack basis.

// panda-lint: allow-file(P1) -- dense tableau kernel: every row/column
// index is bounded by the tableau dimensions fixed at construction;
// Option-threading each access would bury the pivoting arithmetic.

use panda_rational::Rat;

use crate::problem::LinearProgram;
use crate::solution::{LpOutcome, Solution};
use crate::LpError;

/// Hard cap on simplex pivots; far larger than anything the paper's LPs
/// need.  Both engines return [`LpError::IterationLimit`] (they never
/// panic) if a bug or a pathological input exhausts it.
pub(crate) const ITERATION_LIMIT: usize = 200_000;

/// The standard form both engines are built from: the program's `A x ≤ b`
/// with one slack column per row — structural columns first, then the
/// slack of row `i` at column `num_vars + i` — and the all-slack basis,
/// feasible because `b ≥ 0`.
///
/// The engines' bit-for-bit equivalence (identical bases, optima and
/// duals) requires them to see the *same* standard form; constructing it
/// once here means a future change to it cannot silently apply to one
/// engine and not the other.
pub(crate) struct StandardForm {
    /// Sparse columns, `num_cols` of them.
    pub(crate) cols: Vec<Vec<(usize, Rat)>>,
    /// The right-hand side `b ≥ 0`.
    pub(crate) rhs: Vec<Rat>,
    /// Initial basic column of each row: its slack.
    pub(crate) basis: Vec<usize>,
    /// Total number of structural + slack columns.
    pub(crate) num_cols: usize,
}

impl StandardForm {
    pub(crate) fn new(lp: &LinearProgram) -> Self {
        let n = lp.num_vars();
        let num_cols = n + lp.num_constraints();
        let mut cols: Vec<Vec<(usize, Rat)>> = vec![Vec::new(); num_cols];
        for (i, c) in lp.constraints().iter().enumerate() {
            for &(j, coeff) in &c.coeffs {
                cols[j].push((i, coeff));
            }
            cols[n + i].push((i, Rat::ONE));
        }
        StandardForm {
            cols,
            rhs: lp.constraints().iter().map(|c| c.rhs).collect(),
            basis: (n..num_cols).collect(),
            num_cols,
        }
    }
}

/// The working state of a simplex solve.
pub(crate) struct Simplex<'a> {
    lp: &'a LinearProgram,
    /// Dense tableau: `rows × (num_cols + 1)`, last column is the RHS.
    tableau: Vec<Vec<Rat>>,
    /// Basic variable (column index) of each row.
    basis: Vec<usize>,
    /// Total number of structural + slack columns.
    num_cols: usize,
    /// Number of structural (user) variables.
    num_structural: usize,
}

impl<'a> Simplex<'a> {
    pub(crate) fn new(lp: &'a LinearProgram) -> Self {
        let form = StandardForm::new(lp);
        let m = lp.num_constraints();
        let mut tableau = vec![vec![Rat::ZERO; form.num_cols + 1]; m];
        for (j, col) in form.cols.iter().enumerate() {
            for &(i, v) in col {
                tableau[i][j] = v;
            }
        }
        for (i, &b) in form.rhs.iter().enumerate() {
            tableau[i][form.num_cols] = b;
        }
        Simplex {
            lp,
            tableau,
            basis: form.basis,
            num_cols: form.num_cols,
            num_structural: lp.num_vars(),
        }
    }

    pub(crate) fn run(mut self) -> Result<LpOutcome, LpError> {
        let mut cost = vec![Rat::ZERO; self.num_cols];
        cost[..self.num_structural].copy_from_slice(self.lp.objective());
        match self.optimize(&cost)? {
            Stop::Unbounded => Ok(LpOutcome::Unbounded),
            Stop::Optimal => {
                let objective = self.current_objective(&cost);
                let primal = self.extract_primal();
                let duals = self.extract_duals(&cost);
                Ok(LpOutcome::Optimal(Solution { objective, primal, duals }))
            }
        }
    }

    /// Runs the simplex iterations for the given cost vector.
    fn optimize(&mut self, cost: &[Rat]) -> Result<Stop, LpError> {
        // Reduced-cost row: c_j − c_B · B⁻¹ A_j, maintained incrementally.
        // It starts as the cost itself: the initial basis is all slacks,
        // which cost nothing.
        let mut reduced = cost.to_vec();
        let bland_threshold = 4 * (self.tableau.len() + self.num_cols) + 64;
        for iteration in 0..ITERATION_LIMIT {
            let use_bland = iteration >= bland_threshold;
            let entering = self.choose_entering(&reduced, use_bland);
            let Some(entering) = entering else {
                return Ok(Stop::Optimal);
            };
            let Some(leaving_row) = self.choose_leaving(entering) else {
                return Ok(Stop::Unbounded);
            };
            self.pivot(leaving_row, entering);
            // Update the reduced-cost row with the pivoted row (the zip
            // excludes the tableau's trailing RHS column).
            let scale = reduced[entering];
            if !scale.is_zero() {
                for (r, &t) in reduced.iter_mut().zip(&self.tableau[leaving_row]) {
                    *r -= scale * t;
                }
            }
            reduced[entering] = Rat::ZERO;
        }
        Err(LpError::IterationLimit(ITERATION_LIMIT))
    }

    fn choose_entering(&self, reduced: &[Rat], use_bland: bool) -> Option<usize> {
        let candidates =
            reduced.iter().enumerate().take(self.num_cols).filter(|(_, r)| r.is_positive());
        if use_bland {
            candidates.map(|(j, _)| j).next()
        } else {
            // Dantzig: the largest reduced cost, first index on ties.
            let mut best: Option<(usize, Rat)> = None;
            for (j, &r) in candidates {
                match &best {
                    Some((_, v)) if *v >= r => {}
                    _ => best = Some((j, r)),
                }
            }
            best.map(|(j, _)| j)
        }
    }

    fn choose_leaving(&self, entering: usize) -> Option<usize> {
        let rhs_col = self.num_cols;
        let mut best: Option<(usize, Rat)> = None;
        for i in 0..self.tableau.len() {
            let coeff = self.tableau[i][entering];
            if coeff.is_positive() {
                let ratio = self.tableau[i][rhs_col] / coeff;
                let better = match &best {
                    None => true,
                    Some((row, r)) => {
                        ratio < *r || (ratio == *r && self.basis[i] < self.basis[*row])
                    }
                };
                if better {
                    best = Some((i, ratio));
                }
            }
        }
        best.map(|(i, _)| i)
    }

    fn pivot(&mut self, row: usize, col: usize) {
        let pivot = self.tableau[row][col];
        debug_assert!(!pivot.is_zero(), "pivot element must be non-zero");
        let inv = pivot.recip();
        for value in self.tableau[row].iter_mut() {
            *value *= inv;
        }
        for i in 0..self.tableau.len() {
            if i == row {
                continue;
            }
            let factor = self.tableau[i][col];
            if factor.is_zero() {
                continue;
            }
            for j in 0..=self.num_cols {
                let delta = factor * self.tableau[row][j];
                self.tableau[i][j] -= delta;
            }
        }
        self.basis[row] = col;
    }

    fn current_objective(&self, cost: &[Rat]) -> Rat {
        let rhs_col = self.num_cols;
        self.basis.iter().enumerate().map(|(i, &b)| cost[b] * self.tableau[i][rhs_col]).sum()
    }

    fn extract_primal(&self) -> Vec<Rat> {
        let rhs_col = self.num_cols;
        let mut primal = vec![Rat::ZERO; self.num_structural];
        for (i, &b) in self.basis.iter().enumerate() {
            if b < self.num_structural {
                primal[b] = self.tableau[i][rhs_col];
            }
        }
        primal
    }

    /// Recovers the dual values `y = c_B · B⁻¹` by reading, for each row,
    /// the tableau column of its slack (the slacks formed an identity in
    /// the initial tableau, so the final tableau stores the corresponding
    /// columns of `B⁻¹`).
    fn extract_duals(&self, cost: &[Rat]) -> Vec<Rat> {
        (self.num_structural..self.num_cols)
            .map(|slack| {
                let mut y = Rat::ZERO;
                for (r, &b) in self.basis.iter().enumerate() {
                    if !cost[b].is_zero() {
                        y += cost[b] * self.tableau[r][slack];
                    }
                }
                y
            })
            .collect()
    }
}

/// Where a pivot loop stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stop {
    Optimal,
    Unbounded,
}
