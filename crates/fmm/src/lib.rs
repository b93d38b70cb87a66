//! Matrix-multiplication substrate for the ω-submodular width extension
//! (Section 9.3 of the paper).
//!
//! The paper adds matrix multiplication as an extra operator to PANDA's
//! plan space: eliminating a variable `Y` from two binary atoms `R(X,Y)`,
//! `S(Y,Z)` can be done either by a combinatorial join (cost `h(XYZ)`) or
//! by multiplying the Boolean adjacency matrices (cost `MM(X;Y;Z)`,
//! Eq. 78).  This crate provides the data-plane side of that choice:
//!
//! * [`BoolMatrix`] — a dense bit-packed Boolean matrix with word-parallel
//!   multiplication,
//! * [`detect_four_cycle_fmm`] — the matrix-product Boolean 4-cycle
//!   detector that experiment E12 compares against
//!   [`detect_four_cycle_join`], a hash-join pipeline,
//! * the ω-subw *values* themselves live in `panda_entropy::mm`.

#![forbid(unsafe_code)]
pub mod detect;
pub mod matrix;

pub use detect::{detect_four_cycle_fmm, detect_four_cycle_join};
pub use matrix::BoolMatrix;
