//! Request configuration: the sequential/parallel [`Engine`] knob and the
//! deterministic [`Budgets`].
//!
//! Every evaluator in this crate runs **sequentially by default**
//! ([`Engine::Sequential`]); parallelism is strictly opt-in and always
//! passed in by the caller (`Panda::new(q).with_engine(Engine::Parallel(
//! Parallelism::threads(4)))`, or the `engine` argument of an evaluator's
//! `evaluate`).
//! Nothing in this library reads the environment: the `panda-server` and
//! `panda-shell` binaries read `PANDA_THREADS` once in `main`, parse it
//! with [`Engine::from_setting`] and hand the engine down.
//!
//! Parallel execution is **deterministic**: work is split into contiguous
//! chunks whose results are merged back in input order, so the output of
//! every evaluator is bit-identical to its sequential output at any thread
//! count (the workspace's `parallel_determinism` suite pins this).  What
//! parallelism changes is wall-clock time only — never answers, plans or
//! row order.  Planning never fans out: the width LP chains run on the
//! calling thread under the request's one [`PivotBudget`], so the pivot at
//! which a limit or a `CANCEL` stops them is the same at every thread
//! count.

use std::num::NonZeroUsize;

use panda_entropy::{CancelToken, PivotBudget};

/// How many worker threads parallel stages may use.
///
/// A plain positive thread count; [`Parallelism::auto`] resolves to the
/// machine's available parallelism at construction time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Parallelism(NonZeroUsize);

impl Parallelism {
    /// A fixed thread count; `n` is clamped up to at least 1.
    #[must_use]
    pub fn threads(n: usize) -> Self {
        Parallelism(NonZeroUsize::new(n).unwrap_or(NonZeroUsize::MIN))
    }

    /// The machine's available parallelism (at least 1).
    #[must_use]
    pub fn auto() -> Self {
        Parallelism(std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN))
    }

    /// The thread count.
    #[must_use]
    pub fn get(self) -> usize {
        self.0.get()
    }
}

/// The execution engine used by the evaluators.
///
/// [`Engine::Sequential`] is the default; [`Engine::Parallel`] fans
/// independent work units out over a fixed number of threads and merges the
/// results in input order ([`panda_relation::fan_out::ordered_map`]),
/// producing bit-identical outputs.  There are two kinds of unit: a generic
/// join's top-level branches, and a bound plan's bag jobs and then its
/// branches — the one executor behind static plans, adaptive plans and
/// DDRs, which spends the threads across its branches when it has more than
/// one and inside its joins otherwise.  Single operators, and so the
/// binary-join baseline, always run on the calling thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Engine {
    /// Evaluate everything on the calling thread (the default).
    #[default]
    Sequential,
    /// Evaluate independent work units on up to the given number of threads.
    Parallel(Parallelism),
}

impl Engine {
    /// The engine a `PANDA_THREADS` value selects (`None` = unset):
    ///
    /// * unset, empty, `1`, or unparsable — [`Engine::Sequential`],
    /// * `0` or `auto` — [`Engine::Parallel`] at the machine's available
    ///   parallelism,
    /// * `n > 1` — [`Engine::Parallel`] with `n` threads.
    ///
    /// Surrounding whitespace is ignored.  A pure parser: reading the
    /// variable is the job of a binary's `main`.
    #[must_use]
    pub fn from_setting(value: Option<&str>) -> Self {
        let Some(value) = value.map(str::trim) else { return Engine::Sequential };
        if value.eq_ignore_ascii_case("auto") {
            return Engine::Parallel(Parallelism::auto());
        }
        match value.parse::<usize>() {
            Ok(0) => Engine::Parallel(Parallelism::auto()),
            Ok(1) | Err(_) => Engine::Sequential,
            Ok(n) => Engine::Parallel(Parallelism::threads(n)),
        }
    }

    /// The number of worker threads this engine may use (1 when
    /// sequential).
    #[must_use]
    pub fn threads(self) -> usize {
        match self {
            Engine::Sequential => 1,
            Engine::Parallel(p) => p.get(),
        }
    }
}

/// Deterministic resource budgets for planning and strategy selection.
///
/// All budgets are **unlimited by default** and every one is counted in a
/// machine-independent unit — simplex *pivots*, branch *counts*, estimated
/// *rows* — never wall-clock time, so a budgeted run makes the identical
/// decisions on every machine, at every thread count, on every run (the
/// workspace's D3 lint keeps clocks out of library code for exactly this
/// reason).
///
/// Under [`EvaluationStrategy::Auto`](crate::EvaluationStrategy::Auto) an
/// exceeded budget triggers a **one-way fail-soft downgrade** to a cheaper
/// strategy, recorded in the
/// [`PlanReport`](crate::PlanReport)'s
/// [`Downgrade`](crate::Downgrade) list.  An explicit strategy has no
/// fallback: an exhausted pivot budget surfaces as
/// [`StrategyError::BudgetExceeded`](crate::StrategyError::BudgetExceeded),
/// the branch budget caps an adaptive plan's fan-out, and the memory budget
/// is not checked.
///
/// ```
/// use panda_core::Budgets;
///
/// let budgets = Budgets::default()          // everything unlimited
///     .with_lp_pivot_budget(10_000)         // total simplex pivots spent planning
///     .with_branch_budget(64)               // adaptive-plan branch fan-out
///     .with_memory_rows_budget(1_000_000);  // estimated peak bag-materialisation rows
/// assert_eq!(budgets.lp_pivot_budget, Some(10_000));
/// assert_eq!(budgets.branch_budget, Some(64));
/// assert_eq!(budgets.memory_rows_budget, Some(1_000_000));
/// assert!(!budgets.is_unlimited());
/// assert!(Budgets::default().is_unlimited());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Budgets {
    /// Cap on the total number of simplex pivots spent on planning LPs
    /// (the fhtw/subw chains), shared across the whole selection.  `None`
    /// means unlimited.
    pub lp_pivot_budget: Option<u64>,
    /// Cap on the number of degree branches the adaptive plan may fan out
    /// into.  `None` means unlimited (the evaluator's own structural cap
    /// still applies).
    pub branch_budget: Option<usize>,
    /// Cap on the *estimated* peak number of rows a bag-materialising plan
    /// (static or adaptive) may build, from the planner's deterministic
    /// cardinality estimates.  `None` means unlimited.
    pub memory_rows_budget: Option<u64>,
}

impl Budgets {
    /// All budgets unlimited (the default).
    #[must_use]
    pub fn unlimited() -> Self {
        Budgets::default()
    }

    /// Sets the LP pivot budget.
    #[must_use]
    pub fn with_lp_pivot_budget(mut self, pivots: u64) -> Self {
        self.lp_pivot_budget = Some(pivots);
        self
    }

    /// Sets the branch budget.
    #[must_use]
    pub fn with_branch_budget(mut self, branches: usize) -> Self {
        self.branch_budget = Some(branches);
        self
    }

    /// Sets the memory (estimated rows) budget.
    #[must_use]
    pub fn with_memory_rows_budget(mut self, rows: u64) -> Self {
        self.memory_rows_budget = Some(rows);
        self
    }

    /// The one [`PivotBudget`] of a planning request: the configured pivot
    /// limit, or [`PivotBudget::unlimited`] when none is set, carrying the
    /// request's cancel token either way — so `CANCEL` binds at the next
    /// pivot whether or not a limit does.
    #[must_use]
    pub(crate) fn pivot_budget(&self, cancel: &CancelToken) -> PivotBudget {
        self.lp_pivot_budget
            .map_or_else(PivotBudget::unlimited, PivotBudget::new)
            .with_cancel_token(cancel.clone())
    }

    /// `true` iff no budget is set.
    #[must_use]
    pub fn is_unlimited(&self) -> bool {
        self.lp_pivot_budget.is_none()
            && self.branch_budget.is_none()
            && self.memory_rows_budget.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_default_to_unlimited_and_compose() {
        let b = Budgets::unlimited();
        assert!(b.is_unlimited());
        let b = b.with_lp_pivot_budget(5).with_branch_budget(2);
        assert_eq!(
            b,
            Budgets { lp_pivot_budget: Some(5), branch_budget: Some(2), memory_rows_budget: None }
        );
        assert!(!b.is_unlimited());
        assert!(!Budgets::default().with_memory_rows_budget(10).is_unlimited());
    }

    #[test]
    fn sequential_is_the_default_with_one_thread() {
        assert_eq!(Engine::default(), Engine::Sequential);
        assert_eq!(Engine::Sequential.threads(), 1);
    }

    #[test]
    fn parallelism_clamps_and_reports_threads() {
        assert_eq!(Parallelism::threads(0).get(), 1);
        assert_eq!(Parallelism::threads(4).get(), 4);
        assert!(Parallelism::auto().get() >= 1);
        let engine = Engine::Parallel(Parallelism::threads(4));
        assert_eq!(engine.threads(), 4);
    }

    #[test]
    fn panda_threads_values_select_the_documented_engine() {
        let auto = Engine::Parallel(Parallelism::auto());
        let cases = [
            (None, Engine::Sequential),
            (Some(""), Engine::Sequential),
            (Some("1"), Engine::Sequential),
            (Some("0"), auto),
            (Some("auto"), auto),
            (Some(" AUTO "), auto),
            (Some("4"), Engine::Parallel(Parallelism::threads(4))),
            (Some("x"), Engine::Sequential),
        ];
        for (value, expected) in cases {
            assert_eq!(Engine::from_setting(value), expected, "PANDA_THREADS = {value:?}");
        }
    }
}
