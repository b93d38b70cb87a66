//! An exact linear-programming solver for `panda-rs`.
//!
//! Every width notion in the paper — the polymatroid bound (Theorem 4.1),
//! the fractional hypertree width (Eq. 22), the submodular width (Eq. 41)
//! and the ω-submodular width (Sec. 9.3) — is a small linear program over
//! the polymatroid cone Γ_n.  Their *dual* optimal solutions are the
//! Shannon-flow inequalities (Lemma 6.1) from which PANDA derives its query
//! plans, so the duals must be exact rational numbers, not floats.
//!
//! This crate implements the primal simplex method over
//! [`panda_rational::Rat`] for one form of program:
//!
//! * maximise `c · x` subject to `A x ≤ b`, `x ≥ 0`, with `b ≥ 0` — every
//!   polymatroid LP has this form (statistics rows `≤ log N` with
//!   `log N ≥ 0`, target rows `t − h(B) ≤ 0`, elemental rows
//!   `−expr_e(h) ≤ 0`), so each solve starts feasible from the all-slack
//!   basis at `x = 0` and no program is infeasible,
//! * Dantzig pricing with an automatic switch to Bland's rule so the many
//!   degenerate rows of polymatroid LPs cannot cause cycling,
//! * exact dual values recovered by solving `Bᵀy = c_B` over the final
//!   basis, with the sign conventions documented on [`Solution::duals`].
//!
//! Two implementations of the method exist:
//!
//! * the **sparse revised simplex** behind [`LinearProgram::solve`] and
//!   [`LinearProgram::solve_warm`] (warm-startable from a [`Basis`] that
//!   carries its factorisation, every pivot charged to a [`PivotBudget`])
//!   stores the constraint matrix as sparse columns and maintains a
//!   product-form basis inverse (dense snapshot + eta file) updated per
//!   pivot.  It prices the columns once and then carries the reduced
//!   costs across each pivot from one row of the basis inverse, so
//!   per-iteration work scales with the matrix nonzeros — the
//!   polymatroid LPs of `subw` on 5+-variable queries have 2–4 nonzeros
//!   per row, which is where the speedup over the tableau comes from;
//! * the **dense tableau** behind [`LinearProgram::solve_dense`] rewrites
//!   the full `m × (n + m)` tableau per pivot and is kept as the simple,
//!   auditable reference the tests compare against.
//!
//! Both engines follow identical pivot rules on exact rational data, so
//! they visit the same bases and return bit-for-bit identical optima *and*
//! duals; the test suite checks this differentially on the paper's LP
//! corpus and on random programs.
//!
//! # Example
//!
//! ```
//! use panda_lp::{LinearProgram, LpOutcome};
//! use panda_rational::Rat;
//!
//! // maximise 3x + 5y  subject to  x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18, x,y ≥ 0
//! let mut lp = LinearProgram::new(2);
//! lp.set_objective(vec![Rat::from_int(3), Rat::from_int(5)]);
//! lp.add_constraint(vec![(0, Rat::ONE)], Rat::from_int(4));
//! lp.add_constraint(vec![(1, Rat::from_int(2))], Rat::from_int(12));
//! lp.add_constraint(vec![(0, Rat::from_int(3)), (1, Rat::from_int(2))], Rat::from_int(18));
//! let solution = match lp.solve().unwrap() {
//!     LpOutcome::Optimal(s) => s,
//!     other => panic!("unexpected outcome: {other:?}"),
//! };
//! assert_eq!(solution.objective, Rat::from_int(36));
//! assert_eq!(solution.primal[0], Rat::from_int(2));
//! assert_eq!(solution.primal[1], Rat::from_int(6));
//! ```

// Every public item in this crate must be documented; broken or missing
// docs fail CI via the `cargo doc` job (RUSTDOCFLAGS="-D warnings").
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
mod problem;
mod revised;
mod simplex;
mod solution;

pub use budget::{CancelToken, PivotBudget};
pub use problem::{Basis, Constraint, LinearProgram};
pub use solution::{LpOutcome, Solution};

// Compile-time thread-safety guarantee.  A server request plans on a
// worker thread while the connection's TCP reader holds a clone of the
// `CancelToken` inside the request's `PivotBudget` and fires it on
// `CANCEL`, so the budget and its token cross threads.  The other solver
// artifacts are plain owned rational data; pinning them `Send + Sync` too
// keeps an `Rc` or a `Cell` from creeping into anything a request hands
// between threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<LinearProgram>();
    assert_send_sync::<Basis>();
    assert_send_sync::<Solution>();
    assert_send_sync::<LpOutcome>();
    assert_send_sync::<LpError>();
    assert_send_sync::<PivotBudget>();
    assert_send_sync::<CancelToken>();
};

/// Errors reported by the solver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LpError {
    /// The simplex iteration limit was exceeded (should not happen with
    /// Bland's rule; indicates a bug or a pathological input).
    IterationLimit(usize),
    /// A caller-supplied [`PivotBudget`] ran out before the solve reached
    /// optimality.  Unlike [`LpError::IterationLimit`] this is an expected,
    /// recoverable outcome: the caller asked for bounded work and should
    /// fall back to a cheaper plan.
    PivotBudgetExhausted {
        /// The budget's total pivot allowance.
        limit: u64,
    },
    /// A [`CancelToken`] attached to the solve's [`PivotBudget`] was
    /// cancelled.  Like [`LpError::PivotBudgetExhausted`] this is expected
    /// and recoverable — but it must never be absorbed into a fail-soft
    /// fallback: the caller asked for the work to *stop*, not to be
    /// replaced by cheaper work.
    Cancelled,
}

impl std::fmt::Display for LpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LpError::IterationLimit(limit) => {
                write!(f, "simplex exceeded the iteration limit of {limit}")
            }
            LpError::PivotBudgetExhausted { limit } => {
                write!(f, "pivot budget of {limit} exhausted before reaching optimality")
            }
            LpError::Cancelled => {
                write!(f, "the solve was cancelled before reaching optimality")
            }
        }
    }
}

impl std::error::Error for LpError {}
