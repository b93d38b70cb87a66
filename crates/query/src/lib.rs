//! Query representation for `panda-rs`.
//!
//! This crate contains the purely *syntactic* side of the PANDA framework
//! (Sections 3.1 and 3.4 of the paper):
//!
//! * [`Var`] and [`VarSet`] — query variables and bitset variable sets,
//! * [`Atom`] and [`ConjunctiveQuery`] — conjunctive queries with free
//!   variables, plus a small datalog-style [`parser`],
//! * [`Hypergraph`] — the query hypergraph, GYO reduction, acyclicity and
//!   join-tree construction,
//! * [`TreeDecomposition`] — tree decompositions, validity checking,
//!   free-connexity, and enumeration of the non-redundant free-connex TDs
//!   of a query via elimination orders (the set `TD(Q)` of the paper),
//! * [`DisjunctiveRule`] and [`BagSelector`] — disjunctive datalog rules
//!   (Section 5.1) and the bag selectors `BS(Q)` used to rewrite an
//!   adaptive query plan into a conjunction of DDRs (Eq. 32–34), of which
//!   only the minimal transversals of the TDs' bag sets can attain `subw`
//!   (Eq. 41).
//!
//! Everything here is independent of data; the relational substrate lives
//! in `panda-relation` and the two are tied together by `panda-core`.
//! `docs/NOTATION.md` at the workspace root maps the paper's notation
//! onto these types.

// Every public item in this crate must be documented; broken or missing
// docs fail CI via the `cargo doc` job (RUSTDOCFLAGS="-D warnings").
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cq;
pub mod ddr;
pub mod hypergraph;
pub mod parser;
pub mod td;
pub mod var;

pub use cq::{Atom, ConjunctiveQuery};
pub use ddr::{BagSelector, DisjunctiveRule};
pub use hypergraph::{Hypergraph, JoinTree};
pub use parser::{parse_query, parse_statement, ParseError, Parsed};
pub use td::TreeDecomposition;
pub use var::{Var, VarSet};
