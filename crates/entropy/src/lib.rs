//! Information-theoretic cardinality bounds and width measures.
//!
//! This crate implements the "optimizer brain" of the PANDA framework
//! (Sections 3–6 and 9 of the paper):
//!
//! * [`Statistic`] / [`StatisticsSet`] — degree constraints
//!   `deg_R(Y|X) ≤ N_{Y|X}` (cardinality constraints and functional
//!   dependencies as special cases) and ℓ_k-norm constraints on degree
//!   sequences (Section 9.2), together with helpers that *measure* them on a
//!   concrete database instance,
//! * [`Elemental`] — the elemental Shannon inequalities generating the
//!   polymatroid cone Γ_n,
//! * [`polymatroid_bound`] — the polymatroid bound of a conjunctive query
//!   (Theorem 4.1), with the AGM bound as the all-cardinalities special
//!   case ([`agm_bound`]),
//! * [`ddr_polymatroid_bound`] — the polymatroid bound of a disjunctive
//!   datalog rule (Theorem 5.1),
//! * [`fhtw`] / [`subw`] — the fractional hypertree width (Eq. 22) and the
//!   submodular width (Eq. 41) generalized to arbitrary statistics and
//!   arbitrary (non-Boolean) CQs,
//! * [`ShannonFlow`] — the dual certificate of each bound: a Shannon-flow
//!   inequality (Lemma 6.1) together with an explicit witness as a
//!   non-negative combination of elemental inequalities, which
//!   `panda-proof` turns into a proof sequence and `panda-core` turns into
//!   a query plan,
//! * [`mm`] — the information-theoretic matrix-multiplication cost term
//!   `MM(X;Y;Z)` and the ω-submodular width of the 4-cycle (Section 9.3).
//!
//! Everything is computed exactly over rationals; the LP solver is
//! `panda-lp`.
//!
//! `docs/NOTATION.md` at the workspace root maps the paper's notation
//! (Γ_n, subw, fhtw, DDR bounds, ℓ_k-norms) onto the items of this
//! crate; `docs/ARCHITECTURE.md` places it in the execution flow.

// Every public item in this crate must be documented; broken or missing
// docs fail CI via the `cargo doc` job (RUSTDOCFLAGS="-D warnings").
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod constraints;
pub mod elemental;
pub mod mm;
pub mod shannon;
pub mod varspace;

pub use bounds::{
    agm_bound, ddr_polymatroid_bound, fhtw, fhtw_with_tds_budgeted, polymatroid_bound, subw,
    subw_against_fhtw, subw_with_tds_budgeted, BoundError, BoundReport, FhtwReport, SelectorBound,
    SubwReport,
};
pub use constraints::{exact_log, StatKind, Statistic, StatisticsSet};
pub use elemental::Elemental;
// Planning budgets live in `panda-lp` (the pivot loop is what they bound);
// re-exported here so `panda-core` and callers above it need no direct
// solver dependency to hand a width chain its budget.
pub use mm::{mm_cost_log, omega_subw_square, MATRIX_MULT_OMEGA};
pub use panda_lp::{CancelToken, PivotBudget};
pub use shannon::{CondTerm, IntegralShannonFlow, ShannonFlow};
pub use varspace::EntropyVarSpace;
