//! In-memory relational engine for `panda-rs`.
//!
//! This crate is the data-plane substrate that every evaluation algorithm
//! in the workspace (Yannakakis, worst-case-optimal joins, static
//! tree-decomposition plans, PANDA's adaptive plans) runs on.  It provides:
//!
//! * [`Relation`] — a flat tuple store over `u64` values with positional
//!   columns,
//! * [`Database`] — a named collection of relations (one per relation
//!   symbol of a query),
//! * the relational operators plans call — projection, selection, natural
//!   join on column pairs, semijoin and column reordering — in
//!   [`operators`],
//! * the shared per-relation cache in [`index`]: sorted adjacencies
//!   ([`Relation::adjacency`]), the one structure that degrees,
//!   generic-join candidates, distinct counts, every join and semijoin
//!   probe and every FAQ message all read — relation storage is
//!   `Arc`-shared and copy-on-write, so O(1) relation clones share them
//!   across every consumer of the same data,
//! * degree statistics and power-of-two degree bucketing in [`stats`] —
//!   the measurements that feed degree constraints (Section 3.2 of the
//!   paper) and PANDA's data partitioning (Section 8),
//! * commutative semirings in [`semiring`] for FAQ-style aggregate
//!   queries (Section 9.1), which `panda-core`'s `faq` evaluates over
//!   these relations.
//!
//! Values are plain `u64`s: the paper's queries range over abstract
//! domains, and dictionary-encoding strings to integers is standard
//! practice in analytic engines; the encoding happens before data reaches
//! a [`Database`].
//!
//! For the parallel execution layer, [`fan_out::ordered_map`] is the one
//! place the workspace's engine spawns threads: a pure function mapped
//! over a slice, results merged in input order.  The operators themselves
//! are sequential and a [`Relation`] is one whole buffer: the evaluators
//! fan out over independent work items, never inside a join.  See
//! `docs/ARCHITECTURE.md` at the workspace root for how they drive this.

// Every public item in this crate must be documented; broken or missing
// docs fail CI via the `cargo doc` job (RUSTDOCFLAGS="-D warnings").
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod database;
pub mod fan_out;
pub mod index;
pub mod operators;
pub mod relation;
pub mod semiring;
pub mod stats;

pub use database::Database;
pub use index::Adjacency;
pub use relation::{Relation, Tuple, Value};
pub use semiring::{BoolSemiring, CountingSemiring, MaxMinSemiring, MinPlusSemiring, Semiring};
pub use stats::DegreeBucket;
