//! # panda — information-theoretic query optimization and evaluation
//!
//! `panda` is a from-scratch Rust implementation of the **PANDA**
//! framework described in *"Query Optimization and Evaluation via
//! Information Theory: A Tutorial"* (Abo Khamis, Ngo, Suciu; PODS 2026):
//! worst-case cardinality bounds from information theory (the AGM and
//! polymatroid bounds), the width measures built on them (fractional
//! hypertree width, submodular width, ω-submodular width), Shannon-flow
//! inequalities with machine-checked proof sequences, and query evaluation
//! algorithms — static single-tree-decomposition plans, adaptive
//! multi-decomposition plans with degree-based data partitioning,
//! worst-case-optimal joins, Yannakakis, and semiring aggregates.
//!
//! This crate is an umbrella that re-exports the workspace members:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`rational`] | `panda-rational` | exact rational arithmetic |
//! | [`lp`] | `panda-lp` | exact simplex LP solver with duals |
//! | [`relation`] | `panda-relation` | relations, operators, degree statistics, semirings |
//! | [`query`] | `panda-query` | CQs, hypergraphs, tree decompositions, DDRs |
//! | [`entropy`] | `panda-entropy` | degree/ℓ_p constraints, polymatroid bounds, fhtw, subw, Shannon flows |
//! | [`proof`] | `panda-proof` | proof sequences and the Reset Lemma |
//! | [`core`] | `panda-core` | the evaluators: WCOJ, Yannakakis, static and adaptive plans, DDRs, FAQ |
//! | [`fmm`] | `panda-fmm` | Boolean/counting matrix multiplication, FMM-based detection |
//! | [`workloads`] | `panda-workloads` | the paper's instances and random workload generators |
//!
//! Two workspace-level documents complement the rustdoc: [`docs/ARCHITECTURE.md`]
//! (crate dependency map, execution flow, paper-section → module table) and
//! [`docs/NOTATION.md`] (a glossary from the paper's notation — subw, fhtw,
//! Γ_n, DDRs, heavy/light, AGM — to the types implementing each).
//!
//! [`docs/ARCHITECTURE.md`]: https://github.com/panda-rs/panda/blob/main/docs/ARCHITECTURE.md
//! [`docs/NOTATION.md`]: https://github.com/panda-rs/panda/blob/main/docs/NOTATION.md
//!
//! Evaluation is sequential by default; the [`config`] module (re-exported
//! from `panda-core`) holds the opt-in [`config::Engine`] /
//! [`config::Parallelism`] knob, passed in by the caller (only the
//! `panda-server` and `panda-shell` binaries read `PANDA_THREADS`).
//! Parallel execution is deterministic: every parallel region is
//! one [`relation::fan_out::ordered_map`] call, which merges in input
//! order, so outputs are bit-identical to sequential at any thread count.
//!
//! # Quickstart
//!
//! ```
//! use panda::prelude::*;
//!
//! // The paper's running example: the projected 4-cycle query (Eq. 2).
//! let query = parse_query("Q(X,Y) :- R(X,Y), S(Y,Z), T(Z,W), U(W,X)").unwrap();
//!
//! // Its widths under identical cardinality constraints (Eq. 23):
//! let stats = StatisticsSet::identical_cardinalities(&query, 1_000_000);
//! assert_eq!(fhtw(&query, &stats).unwrap().value, Rat::from_int(2));
//! assert_eq!(subw(&query, &stats).unwrap().value, Rat::new(3, 2));
//!
//! // Evaluate it on the example instance of Figure 2.
//! let db = panda::workloads::figure2_db();
//! let answer = Panda::new(query).evaluate(&db);
//! assert_eq!(answer.len(), 2); // (1,p) and (1,q) extend to 4-cycles
//! ```

#![forbid(unsafe_code)]
pub use panda_core as core;
pub use panda_core::config;
pub use panda_entropy as entropy;
pub use panda_fmm as fmm;
pub use panda_lp as lp;
pub use panda_proof as proof;
pub use panda_query as query;
pub use panda_rational as rational;
pub use panda_relation as relation;
pub use panda_server as server;
pub use panda_shell as shell;
pub use panda_workloads as workloads;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use panda_core::{
        plan_cache_clear, plan_cache_stats, BinaryJoinPlan, BranchBound, Budgets, CancelToken,
        DdrEvaluator, Downgrade, Engine, EvaluationStrategy, Explain, GenericJoin,
        MaterializedSubplan, Panda, PandaEvaluator, Parallelism, PlanCacheStats, PlanReport,
        ReasonCode, SelectorRule, StaticTdPlan, StrategyError, VarRelation,
    };
    pub use panda_entropy::{
        agm_bound, ddr_polymatroid_bound, fhtw, polymatroid_bound, subw, ShannonFlow, Statistic,
        StatisticsSet,
    };
    pub use panda_proof::{ProofSequence, ProofStep, TermIdentity};
    pub use panda_query::{
        parse_query, parse_statement, Atom, BagSelector, ConjunctiveQuery, DisjunctiveRule, Parsed,
        TreeDecomposition, Var, VarSet,
    };
    pub use panda_rational::Rat;
    pub use panda_relation::{Database, Relation};
}
