//! The PANDA query engine: turning information-theoretic bounds into query
//! plans.
//!
//! This crate ties the whole workspace together (Sections 4, 5 and 8 of the
//! paper):
//!
//! * [`VarRelation`] — a relation whose columns are bound to query
//!   variables; the common currency of every evaluator,
//! * [`GenericJoin`] — a worst-case-optimal join (the AGM-bound runtime of
//!   Section 2.1) used to materialise bags,
//! * [`yannakakis`] — the classic linear-time algorithm for free-connex
//!   acyclic queries (the final step of every static or adaptive plan,
//!   Eq. 12/29),
//! * [`StaticTdPlan`] — the single-tree-decomposition (fhtw) plan of
//!   Section 4,
//! * [`DdrEvaluator`] — evaluation of disjunctive datalog rules with
//!   degree-based data partitioning (Section 8.2),
//! * [`PandaEvaluator`] — the adaptive multi-TD plan of Section 5: the
//!   proof-sequence decompositions decide which degrees to partition on,
//!   every branch is re-costed, and the cheapest decomposition evaluates
//!   it,
//! * [`BinaryJoinPlan`] — a textbook binary-join baseline,
//! * [`faq`] — FAQ / semiring aggregate evaluation over join trees
//!   (Section 9.1),
//! * [`Panda`] — the end-to-end facade: `Panda::new(query).evaluate(&db)`,
//! * [`selector`] — the deterministic, rule-ordered strategy selector
//!   behind [`EvaluationStrategy::Auto`], with machine-readable
//!   [`ReasonCode`]s, observable [`PlanReport`]s/[`Explain`] output, and
//!   fail-soft [`Downgrade`]s under the configured [`Budgets`],
//! * [`config`] — the [`Engine`]/[`Parallelism`] knob: evaluation is
//!   sequential by default and opt-in parallel (deterministic —
//!   bit-identical outputs at any thread count, because every parallel
//!   region is one [`panda_relation::fan_out::ordered_map`] call), chosen
//!   by the caller per evaluator (the binaries map `PANDA_THREADS` onto it
//!   in their `main`) — and the [`Budgets`] for deterministic
//!   planning/execution resource caps.  Planning itself never fans out:
//!   every request builds one `PivotBudget` (the configured pivot limit,
//!   or an unlimited one) that carries its [`CancelToken`] through both
//!   width chains down to the pivot loop, so limits and `CANCEL` bind at
//!   the same pivot at every thread count.
//!
//! See `docs/ARCHITECTURE.md` at the workspace root for the execution
//! flow and the paper-section → module map, and `docs/NOTATION.md` for
//! the paper-notation glossary.

// Every public item in this crate must be documented; broken or missing
// docs fail CI via the `cargo doc` job (RUSTDOCFLAGS="-D warnings").
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binary;
pub mod binding;
pub mod config;
mod cursor;
pub mod ddr_eval;
pub mod faq;
pub mod generic_join;
pub mod materialize;
pub mod panda;
pub mod plan_cache;
pub mod plans;
pub mod selector;
pub mod yannakakis;

pub use binary::BinaryJoinPlan;
pub use binding::VarRelation;
// The cooperative cancellation token lives in `panda-lp` (the pivot loop
// is its polling point); re-exported here because serving layers attach it
// through the `Panda` facade.
pub use config::{Budgets, Engine, Parallelism};
pub use ddr_eval::{DdrEvaluator, DdrModel};
pub use generic_join::GenericJoin;
pub use materialize::MaterializedSubplan;
pub use panda::{EvaluationStrategy, Explain, Panda, PlanReport, StrategyError};
pub use panda_entropy::CancelToken;
pub use plan_cache::{plan_cache_clear, plan_cache_stats, PlanCacheStats, PLAN_CACHE_CAP};
pub use plans::{PandaEvaluator, StaticTdPlan};
pub use selector::{BranchBound, Downgrade, ReasonCode, SelectorRule};
pub use yannakakis::yannakakis_free_connex;
