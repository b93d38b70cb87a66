//! The sparse revised simplex method over exact rationals.
//!
//! This engine solves the same standard form as the dense tableau in
//! [`crate::simplex`] — `A x + s = b` with `b ≥ 0`, from the all-slack
//! basis — and follows the *identical* pivot rules: the same Dantzig
//! pricing with the same switch to Bland's rule and the same ratio-test
//! tie-breaking.  Because every pivot decision is made on exact rational
//! quantities that both engines compute identically, the two visit the
//! same sequence of bases and return bit-for-bit identical optima and
//! duals; the dense tableau is kept as the auditable reference
//! implementation (see
//! [`LinearProgram::solve_dense`](crate::LinearProgram::solve_dense)).
//!
//! What changes is the representation, and with it the per-pivot cost:
//!
//! * the constraint matrix is stored as **sparse columns**
//!   (`Vec<(row, Rat)>`) and never modified — the polymatroid LPs this
//!   workspace produces have 2–4 nonzeros per row, so `nnz(A) ≈ 4m` while
//!   the dense tableau is `m × (n + m)`,
//! * the basis inverse is kept in **product form**: a dense snapshot
//!   `B₀⁻¹` from the last refactorisation plus one sparse *eta* vector per
//!   pivot since, applied by [`BasisInverse::ftran`]/[`BasisInverse::btran`],
//! * pricing runs once per solve — the duals `y = c_B B⁻¹` with one BTRAN,
//!   then one sparse dot product per column — and each pivot then updates
//!   the reduced costs from the pivot row `ρ_r = e_r B⁻¹` (one BTRAN of a
//!   unit vector, one sparse dot per column): the dense tableau's
//!   reduced-cost row update without the dense rows.  Debug builds check
//!   the updated costs against a fresh pricing at the optimum,
//! * the basic solution `x_B = B⁻¹ b` is updated incrementally per pivot.
//!
//! The eta file is periodically collapsed ([`BasisInverse::invert`]) by
//! exactly inverting the current basis matrix with Gauss–Jordan
//! elimination, which bounds the FTRAN/BTRAN cost and keeps the rational
//! entries at tableau-entry magnitudes (quotients of basis subdeterminants).
//! A finished solve hands its inverse on inside the returned [`Basis`]
//! ([`Factor`]), and a warm start whose basic columns are unchanged
//! installs it without inverting anything.

// panda-lint: allow-file(P1) -- revised-simplex kernel: basis, eta and
// column indices are invariants of the pivoting automaton (every index
// is minted by the same iteration that sized its vector), and the
// overflow-guard expects are the crate's loud-abort policy.

use panda_rational::Rat;

use crate::budget::PivotBudget;
use crate::problem::{Basis, LinearProgram};
use crate::simplex::{StandardForm, Stop, ITERATION_LIMIT};
use crate::solution::{LpOutcome, Solution};
use crate::LpError;

/// Collapse the eta file into a fresh dense `B⁻¹` snapshot after this many
/// pivots.  Tuned for the workspace's polymatroid LPs (~100 rows): long
/// enough that the `O(m³)` refactorisation amortises away, short enough
/// that FTRAN/BTRAN stay proportional to `m`.
const REFACTOR_EVERY: usize = 64;

/// One pivot's eta vector.  If `w = B_old⁻¹ a_entering` and the pivot row
/// is `r`, then `B_new = B_old · E` with `E = I + (w − e_r) e_rᵀ`, and
/// `E⁻¹` is applied in `O(nnz(w))`.
#[derive(Clone)]
struct Eta {
    /// The pivot row `r`.
    row: usize,
    /// Non-zero entries of `w`, including the pivot element `(r, w_r)`.
    entries: Vec<(usize, Rat)>,
    /// The pivot element `w_r`, cached.
    pivot: Rat,
}

/// Product-form representation of the basis inverse:
/// `B⁻¹ = E_k⁻¹ ⋯ E_1⁻¹ B₀⁻¹`.
#[derive(Clone)]
struct BasisInverse {
    m: usize,
    /// Dense `B₀⁻¹` from the last refactorisation; `None` means identity
    /// (the initial all-slack basis).
    base: Option<Vec<Vec<Rat>>>,
    etas: Vec<Eta>,
}

impl BasisInverse {
    fn identity(m: usize) -> Self {
        BasisInverse { m, base: None, etas: Vec::new() }
    }

    /// FTRAN: `v ← B⁻¹ v`, skipping etas whose pivot-row entry is zero.
    fn ftran(&self, v: &mut [Rat]) {
        if let Some(base) = &self.base {
            let mut out = vec![Rat::ZERO; self.m];
            for (j, &vj) in v.iter().enumerate() {
                if vj.is_zero() {
                    continue;
                }
                for (i, out_i) in out.iter_mut().enumerate() {
                    let b = base[i][j];
                    if !b.is_zero() {
                        *out_i += b * vj;
                    }
                }
            }
            v.copy_from_slice(&out);
        }
        for eta in &self.etas {
            let vr = v[eta.row];
            if vr.is_zero() {
                continue;
            }
            let t = vr / eta.pivot;
            for &(i, w) in &eta.entries {
                if i == eta.row {
                    v[i] = t;
                } else {
                    v[i] -= w * t;
                }
            }
        }
    }

    /// BTRAN: `y ← y B⁻¹` (etas applied newest-first, then the snapshot).
    fn btran(&self, y: &mut [Rat]) {
        for eta in self.etas.iter().rev() {
            let mut acc = Rat::ZERO;
            for &(i, w) in &eta.entries {
                if i != eta.row && !y[i].is_zero() {
                    acc += y[i] * w;
                }
            }
            y[eta.row] = (y[eta.row] - acc) / eta.pivot;
        }
        if let Some(base) = &self.base {
            let mut out = vec![Rat::ZERO; self.m];
            for (i, &yi) in y.iter().enumerate() {
                if yi.is_zero() {
                    continue;
                }
                for (j, out_j) in out.iter_mut().enumerate() {
                    let b = base[i][j];
                    if !b.is_zero() {
                        *out_j += yi * b;
                    }
                }
            }
            y.copy_from_slice(&out);
        }
    }

    /// Exactly inverts a basis matrix, given by its sparse columns, with
    /// Gauss–Jordan elimination: a fresh snapshot with an empty eta file.
    /// Returns `None` if the columns are singular, which can only happen
    /// for a caller-supplied warm-start basis — pivoting preserves
    /// nonsingularity.
    fn invert(basis_columns: &[&[(usize, Rat)]]) -> Option<Self> {
        let m = basis_columns.len();
        let mut a = vec![vec![Rat::ZERO; m]; m];
        for (col, entries) in basis_columns.iter().enumerate() {
            for &(row, v) in *entries {
                a[row][col] = v;
            }
        }
        let mut inv: Vec<Vec<Rat>> = (0..m)
            .map(|i| {
                let mut row = vec![Rat::ZERO; m];
                row[i] = Rat::ONE;
                row
            })
            .collect();
        for col in 0..m {
            let p = (col..m).find(|&r| !a[r][col].is_zero())?;
            a.swap(col, p);
            inv.swap(col, p);
            let d = a[col][col].recip();
            if d != Rat::ONE {
                for v in &mut a[col] {
                    if !v.is_zero() {
                        *v *= d;
                    }
                }
                for v in &mut inv[col] {
                    if !v.is_zero() {
                        *v *= d;
                    }
                }
            }
            // The pivot row is final at this point; clone it once per
            // column, not once per eliminated row.
            let (pivot_row_a, pivot_row_inv) = (a[col].clone(), inv[col].clone());
            for r in 0..m {
                if r == col {
                    continue;
                }
                let factor = a[r][col];
                if factor.is_zero() {
                    continue;
                }
                for (j, &pv) in pivot_row_a.iter().enumerate() {
                    if !pv.is_zero() {
                        a[r][j] -= factor * pv;
                    }
                }
                for (j, &pv) in pivot_row_inv.iter().enumerate() {
                    if !pv.is_zero() {
                        inv[r][j] -= factor * pv;
                    }
                }
            }
        }
        Some(BasisInverse { m, base: Some(inv), etas: Vec::new() })
    }
}

/// The factorisation a finished solve hands to the next one inside its
/// [`Basis`]: the final basis inverse and the basic columns it inverts, in
/// row order.  A program whose basic columns are these same columns has
/// the same basis matrix, so the inverse is exact for it as it stands.
#[derive(Clone)]
pub(crate) struct Factor {
    inv: BasisInverse,
    columns: Vec<Vec<(usize, Rat)>>,
}

impl Factor {
    /// Whether this is the inverse of the basis that `basis` names among
    /// the columns of `matrix`.
    fn inverts(&self, basis: &[usize], matrix: &[Vec<(usize, Rat)>]) -> bool {
        self.columns.len() == basis.len()
            && self.columns.iter().zip(basis).all(|(column, &b)| *column == matrix[b])
    }
}

impl std::fmt::Debug for Factor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Factor")
            .field("rows", &self.inv.m)
            .field("dense_snapshot", &self.inv.base.is_some())
            .field("etas", &self.inv.etas.len())
            .finish()
    }
}

/// The dot product `v · a_j` of a dense row vector with one sparse column.
fn row_entry(v: &[Rat], col: &[(usize, Rat)]) -> Rat {
    let mut entry = Rat::ZERO;
    for &(i, a) in col {
        if !v[i].is_zero() {
            entry += v[i] * a;
        }
    }
    entry
}

/// The working state of a revised-simplex solve.
pub(crate) struct RevisedSimplex<'a> {
    lp: &'a LinearProgram,
    /// Sparse columns of the standard-form matrix, `num_cols` of them.
    cols: Vec<Vec<(usize, Rat)>>,
    /// Normalised (non-negative) right-hand side `b`.
    rhs: Vec<Rat>,
    /// Basic variable (column index) of each row.
    basis: Vec<usize>,
    /// `in_basis[j]` iff column `j` is currently basic.
    in_basis: Vec<bool>,
    /// Current basic values `x_B = B⁻¹ b`, maintained incrementally.
    x_b: Vec<Rat>,
    inv: BasisInverse,
    num_cols: usize,
    num_structural: usize,
}

impl<'a> RevisedSimplex<'a> {
    pub(crate) fn new(lp: &'a LinearProgram) -> Self {
        // Both engines are built from the one shared normalisation, so
        // their column layouts — and hence their pivot paths — cannot
        // drift apart.
        let form = StandardForm::new(lp);
        let m = lp.num_constraints();
        let mut in_basis = vec![false; form.num_cols];
        for &b in &form.basis {
            in_basis[b] = true;
        }
        RevisedSimplex {
            lp,
            cols: form.cols,
            x_b: form.rhs.clone(),
            rhs: form.rhs,
            basis: form.basis,
            in_basis,
            inv: BasisInverse::identity(m),
            num_cols: form.num_cols,
            num_structural: lp.num_vars(),
        }
    }

    /// Runs the solve from the all-slack basis, or from a carried-over
    /// basis when it fits (see [`LinearProgram::solve_warm`]), and returns
    /// the final basis, with its factorisation, for the next solve in the
    /// family.
    ///
    /// Every pivot consumes one unit of `budget` and the solve aborts with
    /// [`LpError::PivotBudgetExhausted`] once it runs out, so solves that
    /// finish visit the identical basis sequence under any limit.
    pub(crate) fn run_warm(
        mut self,
        hint: Option<Basis>,
        budget: &mut PivotBudget,
    ) -> Result<(LpOutcome, Option<Basis>), LpError> {
        // A hint that does not fit leaves the all-slack start in place.
        if let Some(hint) = hint {
            self.try_install_basis(hint);
        }
        let mut cost = vec![Rat::ZERO; self.num_cols];
        cost[..self.num_structural].copy_from_slice(self.lp.objective());
        match self.optimize(&cost, budget)? {
            Stop::Unbounded => Ok((LpOutcome::Unbounded, None)),
            Stop::Optimal => {
                let objective = self.current_objective(&cost);
                let primal = self.extract_primal();
                let duals = self.duals_vector(&cost);
                // The basic columns are distinct, so each can be moved out
                // of this (finished) solve's matrix.
                let mut cols = self.cols;
                let columns = self.basis.iter().map(|&b| std::mem::take(&mut cols[b])).collect();
                let factor = Some(Factor { inv: self.inv, columns });
                let basis = Basis { cols: self.basis, num_cols: self.num_cols, factor };
                Ok((LpOutcome::Optimal(Solution { objective, primal, duals }), Some(basis)))
            }
        }
    }

    /// Attempts to install a warm-start basis: the hint must have the same
    /// standard-form shape, name each row a distinct column, be
    /// nonsingular, and be exactly feasible (`B⁻¹b ≥ 0`: a basis that was
    /// optimal for another right-hand side need not be feasible for this
    /// one).  Returns `false` — leaving the initial all-slack state intact —
    /// on any mismatch.
    ///
    /// When the hint's [`Factor`] inverts exactly this program's basic
    /// columns (the `fhtw` chain, where only the objective moves, or a
    /// selector step whose changed target columns are all nonbasic), its
    /// inverse is taken over as it stands; otherwise the basis is
    /// refactorised.  Both are the exact `B⁻¹`, so the choice moves no
    /// pivot, only the Gauss–Jordan pass.
    fn try_install_basis(&mut self, hint: Basis) -> bool {
        let m = self.basis.len();
        if hint.num_cols != self.num_cols || hint.cols.len() != m {
            return false;
        }
        let mut seen = vec![false; self.num_cols];
        for &col in &hint.cols {
            if col >= self.num_cols || seen[col] {
                return false;
            }
            seen[col] = true;
        }
        let Basis { cols, factor, .. } = hint;
        let carried = factor.filter(|factor| factor.inverts(&cols, &self.cols));
        let inv = match carried {
            Some(factor) => factor.inv,
            None => {
                let basis_columns: Vec<&[(usize, Rat)]> =
                    cols.iter().map(|&b| self.cols[b].as_slice()).collect();
                let Some(inv) = BasisInverse::invert(&basis_columns) else {
                    return false;
                };
                inv
            }
        };
        let mut x_b = self.rhs.clone();
        inv.ftran(&mut x_b);
        if x_b.iter().any(Rat::is_negative) {
            return false;
        }
        self.inv = inv;
        self.x_b = x_b;
        self.in_basis = vec![false; self.num_cols];
        for &col in &cols {
            self.in_basis[col] = true;
        }
        self.basis = cols;
        true
    }

    /// Runs the simplex iterations for the given cost vector, charging one
    /// unit of `budget` per pivot applied.
    ///
    /// The reduced costs are priced once, when the loop starts, and then
    /// updated across each pivot from the pivot row
    /// ([`RevisedSimplex::update_reduced_costs`]).  Exact arithmetic makes
    /// the updated values equal to a fresh pricing, so every pivot choice
    /// is the one a re-pricing engine would make.
    fn optimize(&mut self, cost: &[Rat], budget: &mut PivotBudget) -> Result<Stop, LpError> {
        let m = self.basis.len();
        let bland_threshold = 4 * (m + self.num_cols) + 64;
        let mut reduced = self.price(cost);
        for iteration in 0..ITERATION_LIMIT {
            let use_bland = iteration >= bland_threshold;
            let entering = self.choose_entering(&reduced, use_bland);
            let Some(entering) = entering else {
                debug_assert_eq!(
                    reduced,
                    self.price(cost),
                    "updated reduced costs must equal a fresh pricing"
                );
                return Ok(Stop::Optimal);
            };
            let w = self.transformed_column(entering);
            let Some(leaving_row) = self.choose_leaving(&w) else {
                return Ok(Stop::Unbounded);
            };
            if budget.is_cancelled() {
                return Err(LpError::Cancelled);
            }
            if !budget.consume() {
                return Err(LpError::PivotBudgetExhausted { limit: budget.limit() });
            }
            self.update_reduced_costs(&mut reduced, leaving_row, entering, &w);
            self.pivot(leaving_row, entering, &w);
        }
        Err(LpError::IterationLimit(ITERATION_LIMIT))
    }

    /// Prices every nonbasic column: `d_j = c_j − y · a_j` with the
    /// simplex multipliers `y = c_B B⁻¹` (one BTRAN, then one sparse dot
    /// per column).  A basic column's reduced cost is zero.
    fn price(&self, cost: &[Rat]) -> Vec<Rat> {
        let y = self.duals_vector(cost);
        let mut reduced = vec![Rat::ZERO; self.num_cols];
        for (j, d) in reduced.iter_mut().enumerate() {
            if !self.in_basis[j] {
                *d = cost[j] - row_entry(&y, &self.cols[j]);
            }
        }
        reduced
    }

    /// Carries the reduced costs across the pivot on (`row`, `entering`)
    /// with `w = B⁻¹ a_entering`, before the pivot is applied: with the
    /// pivot row `ρ_r = e_r B⁻¹` (one BTRAN of a unit vector) and
    /// `α_rj = ρ_r · a_j`, every nonbasic column loses
    /// `(d_q / w_r) · α_rj`.  The entering column's cost becomes zero and
    /// the leaving column's `−d_q / w_r` (its `α_rj` is one).  This is the
    /// dense tableau's reduced-cost row update, read off sparse columns.
    fn update_reduced_costs(&self, reduced: &mut [Rat], row: usize, entering: usize, w: &[Rat]) {
        let step = reduced[entering] / w[row];
        let rho = self.inverse_row(row);
        for (j, d) in reduced.iter_mut().enumerate() {
            if j == entering || self.in_basis[j] {
                continue;
            }
            let alpha = row_entry(&rho, &self.cols[j]);
            if !alpha.is_zero() {
                *d -= step * alpha;
            }
        }
        reduced[entering] = Rat::ZERO;
        reduced[self.basis[row]] = -step;
    }

    /// The simplex multipliers `y = c_B B⁻¹` (one BTRAN).
    fn duals_vector(&self, cost: &[Rat]) -> Vec<Rat> {
        let mut y: Vec<Rat> = self.basis.iter().map(|&b| cost[b]).collect();
        self.inv.btran(&mut y);
        y
    }

    /// Row `r` of the basis inverse, `e_r B⁻¹` (one BTRAN of a unit vector).
    fn inverse_row(&self, row: usize) -> Vec<Rat> {
        let mut rho = vec![Rat::ZERO; self.basis.len()];
        rho[row] = Rat::ONE;
        self.inv.btran(&mut rho);
        rho
    }

    /// Entering-column choice, mirroring the dense engine: Dantzig's
    /// largest-reduced-cost rule (first index on ties) with a switch to
    /// Bland's smallest-index rule.  Basic columns are skipped outright —
    /// their reduced cost is identically zero, never positive.
    fn choose_entering(&self, reduced: &[Rat], use_bland: bool) -> Option<usize> {
        let mut best: Option<(usize, Rat)> = None;
        for (j, &d) in reduced.iter().enumerate() {
            if self.in_basis[j] || !d.is_positive() {
                continue;
            }
            if use_bland {
                return Some(j);
            }
            match &best {
                Some((_, v)) if *v >= d => {}
                _ => best = Some((j, d)),
            }
        }
        best.map(|(j, _)| j)
    }

    /// Ratio test over `w = B⁻¹ a_entering`, with the dense engine's
    /// tie-break: smallest ratio, then smallest basic-variable index.
    fn choose_leaving(&self, w: &[Rat]) -> Option<usize> {
        let mut best: Option<(usize, Rat)> = None;
        for (i, coeff) in w.iter().enumerate() {
            if coeff.is_positive() {
                let ratio = self.x_b[i] / *coeff;
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

    /// `B⁻¹ a_j` (one FTRAN of the sparse column scattered dense).
    fn transformed_column(&self, j: usize) -> Vec<Rat> {
        let mut w = vec![Rat::ZERO; self.basis.len()];
        for &(i, v) in &self.cols[j] {
            w[i] = v;
        }
        self.inv.ftran(&mut w);
        w
    }

    /// Applies one pivot: updates `x_B`, the basis, and the eta file, and
    /// refactorises when the file grows past [`REFACTOR_EVERY`].
    fn pivot(&mut self, row: usize, col: usize, w: &[Rat]) {
        let pivot = w[row];
        debug_assert!(!pivot.is_zero(), "pivot element must be non-zero");
        let t = self.x_b[row] / pivot;
        for (i, wi) in w.iter().enumerate() {
            if i == row {
                self.x_b[i] = t;
            } else if !wi.is_zero() && !t.is_zero() {
                self.x_b[i] -= *wi * t;
            }
        }
        let entries: Vec<(usize, Rat)> =
            w.iter().enumerate().filter(|(_, v)| !v.is_zero()).map(|(i, v)| (i, *v)).collect();
        self.inv.etas.push(Eta { row, entries, pivot });
        self.in_basis[self.basis[row]] = false;
        self.in_basis[col] = true;
        self.basis[row] = col;
        if self.inv.etas.len() >= REFACTOR_EVERY {
            let basis_columns: Vec<&[(usize, Rat)]> =
                self.basis.iter().map(|&b| self.cols[b].as_slice()).collect();
            // Free the old inverse and its etas before building the new
            // one, so a solve never holds two dense inverses at once.
            self.inv = BasisInverse::identity(self.basis.len());
            self.inv =
                BasisInverse::invert(&basis_columns).expect("pivoting keeps the basis nonsingular");
            debug_assert_eq!(self.x_b, {
                let mut v = self.rhs.clone();
                self.inv.ftran(&mut v);
                v
            });
        }
    }

    fn current_objective(&self, cost: &[Rat]) -> Rat {
        self.basis
            .iter()
            .zip(&self.x_b)
            .filter(|(&b, _)| !cost[b].is_zero())
            .map(|(&b, x)| cost[b] * *x)
            .sum()
    }

    fn extract_primal(&self) -> Vec<Rat> {
        let mut primal = vec![Rat::ZERO; self.num_structural];
        for (i, &b) in self.basis.iter().enumerate() {
            if b < self.num_structural {
                primal[b] = self.x_b[i];
            }
        }
        primal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `max h(target)` over Γ₃ (subsets as bitmasks, `h(S)` at index
    /// `S − 1`) with `h(AB), h(BC), h(AC) ≤ 1`, each elemental row
    /// `expr(h) ≥ 0` stated as `−expr(h) ≤ 0`.  `scale` multiplies the
    /// `h(ABC)` coefficient of the first monotonicity row, so a scale other
    /// than 1 changes exactly one coefficient of the `h(ABC)` column.
    fn gamma3(target: usize, scale: i128) -> LinearProgram {
        let h = |s: usize| s - 1;
        let mut lp = LinearProgram::new(7);
        lp.set_objective_coeff(h(target), Rat::ONE);
        for pair in [0b011, 0b110, 0b101] {
            lp.add_constraint(vec![(h(pair), Rat::ONE)], Rat::ONE);
        }
        for i in 0..3 {
            let coeff = if i == 0 { Rat::from_int(-scale) } else { -Rat::ONE };
            let rest = 0b111 & !(1 << i);
            lp.add_constraint(vec![(h(0b111), coeff), (h(rest), Rat::ONE)], Rat::ZERO);
        }
        for (i, j) in [(0, 1), (0, 2), (1, 2)] {
            let (a, b) = (1 << i, 1 << j);
            for k in [0, 0b111 & !(a | b)] {
                let mut coeffs =
                    vec![(h(k | a), -Rat::ONE), (h(k | b), -Rat::ONE), (h(k | a | b), Rat::ONE)];
                if k != 0 {
                    coeffs.push((h(k), Rat::ONE));
                }
                lp.add_constraint(coeffs, Rat::ZERO);
            }
        }
        lp
    }

    /// Whether installing `hint` in `lp` reuses its inverse instead of
    /// refactorising.
    fn factor_fits(hint: &Basis, lp: &LinearProgram) -> bool {
        let factor = hint.factor.as_ref().expect("an optimal solve carries its factor");
        factor.inverts(&hint.cols, &StandardForm::new(lp).cols)
    }

    fn solve_counted(lp: &LinearProgram, hint: Option<Basis>) -> (LpOutcome, Option<Basis>, u64) {
        let mut budget = PivotBudget::unlimited();
        let (outcome, basis) = RevisedSimplex::new(lp).run_warm(hint, &mut budget).unwrap();
        (outcome, basis, budget.used())
    }

    #[test]
    fn a_carried_factor_changes_nothing_but_the_refactorisation() {
        let (_, first, _) = solve_counted(&gamma3(0b111, 1), None);
        let mut hint = first.expect("optimal");
        // The fhtw chain's shape: the same rows, only the objective moves.
        for target in [0b011, 0b001, 0b110, 0b111, 0b100, 0b101, 0b010] {
            let lp = gamma3(target, 1);
            assert!(factor_fits(&hint, &lp), "target {target:#b}");
            let stripped = Basis { factor: None, ..hint.clone() };
            let (carried, carried_basis, carried_pivots) = solve_counted(&lp, Some(hint));
            let (refactored, refactored_basis, refactored_pivots) =
                solve_counted(&lp, Some(stripped));
            assert_eq!(carried, refactored, "target {target:#b}");
            assert_eq!(carried_basis, refactored_basis, "target {target:#b}");
            assert_eq!(carried_pivots, refactored_pivots, "target {target:#b}");
            assert_eq!(
                carried.optimal().unwrap().objective,
                lp.solve().unwrap().optimal().unwrap().objective
            );
            hint = carried_basis.expect("optimal");
        }
    }

    #[test]
    fn a_factor_of_other_columns_is_refactorised() {
        let (_, first, _) = solve_counted(&gamma3(0b111, 1), None);
        let hint = first.expect("optimal");
        // h(ABC) is basic at the optimum (it is 3/2), and its column now
        // differs in one coefficient.
        let perturbed = gamma3(0b111, 2);
        assert!(hint.cols.contains(&(0b111 - 1)));
        assert!(!factor_fits(&hint, &perturbed));

        let mut engine = RevisedSimplex::new(&perturbed);
        assert!(engine.try_install_basis(hint.clone()), "the refactorised basis is feasible");
        let mut x_b = engine.rhs.clone();
        let basis_columns: Vec<&[(usize, Rat)]> =
            engine.basis.iter().map(|&b| engine.cols[b].as_slice()).collect();
        BasisInverse::invert(&basis_columns).expect("nonsingular").ftran(&mut x_b);
        assert_eq!(engine.x_b, x_b, "x_B comes from the new matrix, not the carried inverse");

        let (warm, _, _) = solve_counted(&perturbed, Some(hint));
        let warm = warm.expect_optimal("warm");
        let cold = perturbed.solve().unwrap().expect_optimal("cold");
        assert_eq!(warm.objective, cold.objective);
        assert!(warm.certificate_violations(&perturbed).is_empty());
    }
}
