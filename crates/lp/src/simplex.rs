//! The two-phase dense-tableau simplex method over exact rationals, and
//! the standard form both engines share.  Only `≥` rows with a positive
//! right-hand side and `=` rows carry artificials (a `≥ 0` row takes a
//! slack), so a program without them — every Γ_n LP — skips phase 1.

// panda-lint: allow-file(P1) -- dense tableau kernel: every row/column
// index is bounded by the tableau dimensions fixed at construction;
// Option-threading each access would bury the pivoting arithmetic.

use panda_rational::Rat;

use crate::problem::{Constraint, ConstraintOp, LinearProgram};
use crate::solution::{LpOutcome, Solution};
use crate::LpError;

/// Hard cap on simplex pivots; far larger than anything the paper's LPs
/// need.  Both engines return [`LpError::IterationLimit`] (they never
/// panic) if a bug or a pathological input exhausts it.
pub(crate) const ITERATION_LIMIT: usize = 200_000;

/// Per-row bookkeeping connecting standard-form rows back to the user's
/// constraints.  Shared with the revised engine so both solvers normalise
/// rows — and therefore recover duals — identically.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RowInfo {
    /// `true` if the row was multiplied by −1: to make its right-hand side
    /// non-negative, or to turn `a·x ≥ 0` into a slack row `−a·x ≤ 0`.
    pub(crate) flipped: bool,
    /// Column index of the variable that is basic in this row in the
    /// *initial* tableau (a slack or an artificial).  Reading this column of
    /// the final tableau yields the corresponding column of `B⁻¹`, which is
    /// how dual values are recovered.
    pub(crate) initial_basic_col: usize,
}

/// The shared standard-form normalisation both engines are built from —
/// the single source of truth for row flipping (negative right-hand sides
/// and `≥ 0` rows), the column layout (structural variables first, then
/// slacks/surpluses in row order, then artificials in row order) and the
/// initial all-slack/artificial basis.
///
/// The engines' bit-for-bit equivalence (identical bases, optima and
/// duals) requires them to see the *same* standard form; constructing it
/// once here means a future change to the normalisation cannot silently
/// apply to one engine and not the other.
pub(crate) struct StandardForm {
    /// Sparse sign-adjusted columns, `num_cols` of them.
    pub(crate) cols: Vec<Vec<(usize, Rat)>>,
    /// Normalised (non-negative) right-hand side.
    pub(crate) rhs: Vec<Rat>,
    /// Initial basic column of each row (its slack or artificial).
    pub(crate) basis: Vec<usize>,
    /// Total number of structural + slack/surplus + artificial columns.
    pub(crate) num_cols: usize,
    /// Columns that are artificial variables (barred from entering in
    /// phase 2).
    pub(crate) artificial_cols: Vec<usize>,
    pub(crate) row_info: Vec<RowInfo>,
}

impl StandardForm {
    pub(crate) fn new(lp: &LinearProgram) -> Self {
        let m = lp.num_constraints();
        let n = lp.num_vars();

        // First pass: count how many slack/surplus and artificial columns
        // are needed so column indexes can be assigned up front.
        let mut num_slack = 0usize;
        let mut num_artificial = 0usize;
        for c in lp.constraints() {
            let flipped = is_flipped(c);
            let op = effective_op(c.op, flipped);
            match op {
                ConstraintOp::Le => num_slack += 1,
                ConstraintOp::Ge => {
                    num_slack += 1; // surplus
                    num_artificial += 1;
                }
                ConstraintOp::Eq => num_artificial += 1,
            }
        }

        let num_cols = n + num_slack + num_artificial;
        let mut cols: Vec<Vec<(usize, Rat)>> = vec![Vec::new(); num_cols];
        let mut rhs = vec![Rat::ZERO; m];
        let mut basis = vec![0usize; m];
        let mut row_info = Vec::with_capacity(m);
        let mut artificial_cols = Vec::with_capacity(num_artificial);

        let mut next_slack = n;
        let mut next_artificial = n + num_slack;

        for (i, c) in lp.constraints().iter().enumerate() {
            let flipped = is_flipped(c);
            let sign = if flipped { -Rat::ONE } else { Rat::ONE };
            for (j, coeff) in &c.coeffs {
                cols[*j].push((i, *coeff * sign));
            }
            rhs[i] = c.rhs * sign;
            let op = effective_op(c.op, flipped);
            let initial_basic_col = match op {
                ConstraintOp::Le => {
                    let col = next_slack;
                    next_slack += 1;
                    cols[col].push((i, Rat::ONE));
                    basis[i] = col;
                    col
                }
                ConstraintOp::Ge => {
                    let surplus = next_slack;
                    next_slack += 1;
                    cols[surplus].push((i, -Rat::ONE));
                    let art = next_artificial;
                    next_artificial += 1;
                    cols[art].push((i, Rat::ONE));
                    artificial_cols.push(art);
                    basis[i] = art;
                    art
                }
                ConstraintOp::Eq => {
                    let art = next_artificial;
                    next_artificial += 1;
                    cols[art].push((i, Rat::ONE));
                    artificial_cols.push(art);
                    basis[i] = art;
                    art
                }
            };
            row_info.push(RowInfo { flipped, initial_basic_col });
        }

        StandardForm { cols, rhs, basis, num_cols, artificial_cols, row_info }
    }
}

/// The working state of a simplex solve.
pub(crate) struct Simplex<'a> {
    lp: &'a LinearProgram,
    /// Dense tableau: `rows × (num_cols + 1)`, last column is the RHS.
    tableau: Vec<Vec<Rat>>,
    /// Basic variable (column index) of each row.
    basis: Vec<usize>,
    /// Total number of structural + slack/surplus + artificial columns.
    num_cols: usize,
    /// Number of structural (user) variables.
    num_structural: usize,
    /// Columns that are artificial variables (barred from entering in
    /// phase 2).
    artificial_cols: Vec<usize>,
    row_info: Vec<RowInfo>,
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
            artificial_cols: form.artificial_cols,
            row_info: form.row_info,
        }
    }

    pub(crate) fn run(mut self) -> Result<LpOutcome, LpError> {
        // Phase 1: drive the artificial variables to zero.
        if !self.artificial_cols.is_empty() {
            let mut phase1_cost = vec![Rat::ZERO; self.num_cols];
            for &a in &self.artificial_cols {
                phase1_cost[a] = -Rat::ONE;
            }
            let outcome = self.optimize(&phase1_cost, /*bar_artificials=*/ false)?;
            debug_assert!(
                !matches!(outcome, Phase::Unbounded),
                "phase 1 objective is bounded above by zero"
            );
            let phase1_value = self.current_objective(&phase1_cost);
            if phase1_value.is_negative() {
                return Ok(LpOutcome::Infeasible);
            }
            self.pivot_out_basic_artificials();
        }

        // Phase 2: optimise the real objective.
        let mut cost = vec![Rat::ZERO; self.num_cols];
        cost[..self.num_structural].copy_from_slice(self.lp.objective());
        match self.optimize(&cost, /*bar_artificials=*/ true)? {
            Phase::Unbounded => Ok(LpOutcome::Unbounded),
            Phase::Optimal => {
                let objective = self.current_objective(&cost);
                let primal = self.extract_primal();
                let duals = self.extract_duals(&cost);
                Ok(LpOutcome::Optimal(Solution { objective, primal, duals }))
            }
        }
    }

    /// Runs the simplex iterations for the given cost vector.
    fn optimize(&mut self, cost: &[Rat], bar_artificials: bool) -> Result<Phase, LpError> {
        // Reduced-cost row: c_j − c_B · B⁻¹ A_j, maintained incrementally.
        let mut reduced = cost.to_vec();
        for (i, &b) in self.basis.iter().enumerate() {
            if !cost[b].is_zero() {
                let scale = cost[b];
                // The zip excludes the tableau's trailing RHS column.
                for (r, &t) in reduced.iter_mut().zip(&self.tableau[i]) {
                    *r -= scale * t;
                }
            }
        }

        let bland_threshold = 4 * (self.tableau.len() + self.num_cols) + 64;
        for iteration in 0..ITERATION_LIMIT {
            let use_bland = iteration >= bland_threshold;
            let entering = self.choose_entering(&reduced, bar_artificials, use_bland);
            let Some(entering) = entering else {
                return Ok(Phase::Optimal);
            };
            let Some(leaving_row) = self.choose_leaving(entering) else {
                return Ok(Phase::Unbounded);
            };
            self.pivot(leaving_row, entering);
            // Update the reduced-cost row with the pivoted row.
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

    fn choose_entering(
        &self,
        reduced: &[Rat],
        bar_artificials: bool,
        use_bland: bool,
    ) -> Option<usize> {
        let is_candidate = |j: usize, r: &Rat| -> bool {
            if bar_artificials && self.artificial_cols.contains(&j) {
                return false;
            }
            r.is_positive()
        };
        let candidates =
            reduced.iter().enumerate().take(self.num_cols).filter(|&(j, r)| is_candidate(j, r));
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

    /// Removes artificial variables from the basis after phase 1 whenever a
    /// structural or slack column with a non-zero entry exists in the row.
    /// Rows whose artificial cannot be pivoted out are redundant and remain
    /// with the artificial basic at value zero.
    fn pivot_out_basic_artificials(&mut self) {
        for row in 0..self.tableau.len() {
            if !self.artificial_cols.contains(&self.basis[row]) {
                continue;
            }
            let col = (0..self.num_cols)
                .find(|&j| !self.artificial_cols.contains(&j) && !self.tableau[row][j].is_zero());
            if let Some(col) = col {
                self.pivot(row, col);
            }
        }
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
    /// the tableau column of the variable that was basic in that row in the
    /// initial tableau (those columns formed an identity, so the final
    /// tableau stores the corresponding columns of `B⁻¹`).
    fn extract_duals(&self, cost: &[Rat]) -> Vec<Rat> {
        let m = self.tableau.len();
        let mut duals = vec![Rat::ZERO; m];
        for (i, info) in self.row_info.iter().enumerate() {
            let mut y = Rat::ZERO;
            for (r, &b) in self.basis.iter().enumerate() {
                if !cost[b].is_zero() {
                    y += cost[b] * self.tableau[r][info.initial_basic_col];
                }
            }
            duals[i] = if info.flipped { -y } else { y };
        }
        duals
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    Optimal,
    Unbounded,
}

/// Whether a constraint is multiplied by −1 in the standard form: when
/// its right-hand side is negative, and when it reads `a·x ≥ 0`, which
/// then needs a slack (basic at zero) instead of a surplus and an
/// artificial.
fn is_flipped(c: &Constraint) -> bool {
    c.rhs.is_negative() || (c.rhs.is_zero() && c.op == ConstraintOp::Ge)
}

pub(crate) fn effective_op(op: ConstraintOp, flipped: bool) -> ConstraintOp {
    if !flipped {
        return op;
    }
    match op {
        ConstraintOp::Le => ConstraintOp::Ge,
        ConstraintOp::Ge => ConstraintOp::Le,
        ConstraintOp::Eq => ConstraintOp::Eq,
    }
}
