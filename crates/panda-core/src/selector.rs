//! The deterministic, rule-ordered strategy selector behind
//! [`EvaluationStrategy::Auto`].
//!
//! Selection walks a fixed rule list — first match wins — and records
//! *which* rule fired and *why* as machine-readable [`ReasonCode`]s:
//!
//! 1. **Explicit override** ([`SelectorRule::ExplicitOverride`]) — the
//!    caller named a strategy; the selector plans only what it runs
//!    (`fhtw` for `StaticTd`, `fhtw` and the full `subw` chain for
//!    `Adaptive`).
//! 2. **Acyclic fast path** ([`SelectorRule::AcyclicFastPath`]) — the
//!    query is free-connex acyclic, so Yannakakis runs in `O(N + OUT)`
//!    without solving a single LP.
//! 3. **Width gap** ([`SelectorRule::SubwGap`]) — `subw < fhtw`
//!    strictly, so the adaptive multi-TD plan beats every single
//!    decomposition (the PANDA case, Section 5 of the paper).
//! 4. **TD fallback** ([`SelectorRule::TdFallback`]) — widths exist but
//!    show no gap; the best single-TD (fhtw) plan is optimal among the
//!    decomposition plans.
//! 5. **Generic default** ([`SelectorRule::GenericDefault`]) — no width
//!    is available (unbounded statistics, the LP budget died before
//!    `fhtw` finished, or the query has more variables than `TD(Q)` is
//!    enumerated for); a worst-case optimal generic join needs no
//!    planning at all.
//!
//! Rules 3 and 4 need one bit of `subw`, so `subw` is decided against the
//! `fhtw` report ([`panda_entropy::subw_against_fhtw`]).  `subw ≤ fhtw`
//! always, so the first selector whose bound reaches `fhtw` proves rule 4.
//! A single-bag selector is read off the `fhtw` chain without an LP.
//! Selectors whose bags all have `fhtw`-chain bounds at or above `fhtw`
//! are the only ones that can reach it, so those are solved and the others
//! are skipped.  Rule 3 gets the full chain's report, whose every selector
//! flow the adaptive plan reads.
//!
//! Budgets ([`Budgets`]) turn unbounded planning or
//! execution blow-ups into **one-way fail-soft downgrades**, each recorded
//! as a [`Downgrade`] with its own reason code:
//!
//! * LP pivot budget exhausted *during `subw`* (`fhtw` already known) —
//!   selected `Adaptive`, executed `StaticTd` on fhtw's best
//!   decomposition ([`ReasonCode::LpBudgetExhausted`]);
//! * LP pivot budget exhausted *during `fhtw`* — no width rule can fire,
//!   so selection lands on the generic default (a selection reason, not a
//!   downgrade: nothing richer was ever selected);
//! * adaptive branch fan-out above the branch budget — selected
//!   `Adaptive`, executed `BinaryJoin`
//!   ([`ReasonCode::BranchBudgetExceeded`]);
//! * estimated peak bag-materialisation rows above the memory budget —
//!   executed `BinaryJoin` ([`ReasonCode::MemoryBudgetExceeded`]).
//!
//! Downgrades only ever move *down* the ladder `Adaptive → StaticTd →
//! BinaryJoin`; a downgraded plan still returns bit-identical results
//! (every strategy computes the same relation), it just renounces the
//! width guarantee.  Explicit strategies never downgrade, since the caller
//! left no fallback: an exhausted pivot budget is their error
//! ([`StrategyError::BudgetExceeded`](crate::StrategyError::BudgetExceeded),
//! or that [`BoundError`] from EXPLAIN), the branch budget caps an adaptive
//! plan's fan-out, and the memory budget is not checked.
//!
//! Planning is split where the paper splits it.  `select` reads only the
//! query, the statistics, the budgets, the requested strategy and whether
//! widths were asked for — the plan cache's key (plus the cancel token,
//! which can only abort) — so the `Selection` it returns (rule, reason,
//! widths, decompositions, the adaptive evaluator and its partitions, the
//! LP-budget downgrade) is a function of that key and is what the cache
//! stores.  The data enters in `bind`, once per request after the cache
//! lookup: it builds the adaptive plan's degree branches and bag jobs
//! ([`crate::materialize`]) and applies the two budgets that read the data
//! — branches and memory — so a downgrade they force is decided on this
//! request's data, cold or warm.
//!
//! Everything here is deterministic and engine-independent: widths are
//! exact rationals, both width chains run on the calling thread under the
//! request's one [`PivotBudget`] (the `subw` chain's Shannon flows seed the
//! adaptive partitions, so its shape must not depend on a thread count),
//! and budgets count pivots/branches/rows — never wall-clock time.  Where
//! `subw` is decided against `fhtw` — rules 3/4, and the informational
//! `subw` an EXPLAIN shows beside a known `fhtw` — the reported value is
//! the full chain's, and so is the certificate list whenever `subw < fhtw`.
//! With no gap, the list is the one selector that witnesses `subw = fhtw`.

use panda_entropy::{
    BoundError, BoundReport, CancelToken, FhtwReport, PivotBudget, ShannonFlow, StatisticsSet,
    SubwReport,
};
use panda_query::hypergraph::is_acyclic;
use panda_query::td::MAX_ENUMERATION_VARS;
use panda_query::{ConjunctiveQuery, TreeDecomposition, VarSet};
use panda_rational::Rat;
use panda_relation::Database;

use crate::config::Budgets;
use crate::materialize::BoundPlan;
use crate::panda::EvaluationStrategy;
use crate::plans::{estimate_bag_size, PandaEvaluator};

/// Which selector rule chose the strategy (rules are tried in this order;
/// first match wins).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectorRule {
    /// Rule 1: the caller requested a specific strategy.
    ExplicitOverride,
    /// Rule 2: the query is free-connex acyclic — Yannakakis, no LPs.
    AcyclicFastPath,
    /// Rule 3: `subw < fhtw` strictly — the adaptive multi-TD plan.
    SubwGap,
    /// Rule 4: widths computed but no gap — the best single-TD plan.
    TdFallback,
    /// Rule 5: no width available — the generic worst-case optimal join.
    GenericDefault,
}

impl SelectorRule {
    /// A stable machine-readable name (also the EXPLAIN spelling).
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            SelectorRule::ExplicitOverride => "explicit-override",
            SelectorRule::AcyclicFastPath => "acyclic-fast-path",
            SelectorRule::SubwGap => "subw-gap",
            SelectorRule::TdFallback => "td-fallback",
            SelectorRule::GenericDefault => "generic-default",
        }
    }
}

impl std::fmt::Display for SelectorRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.code())
    }
}

/// A machine-readable reason attached to every selection and every
/// downgrade.  The `code()` strings are stable output (pinned by the
/// EXPLAIN byte-stability job in CI); add codes, never repurpose them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReasonCode {
    /// The caller requested this strategy explicitly.
    ExplicitStrategy,
    /// The query is acyclic and free-connex.
    AcyclicFreeConnex,
    /// `subw < fhtw` strictly under the planning statistics.
    SubwBelowFhtw,
    /// Widths computed but `subw == fhtw`: no adaptive advantage.
    NoWidthGap,
    /// No finite width exists (the statistics leave the output unbounded).
    WidthsUnavailable,
    /// The query has more variables than `TD(Q)` is enumerated for.
    TooManyVariables,
    /// The LP pivot budget ran out mid-planning.
    LpBudgetExhausted,
    /// The adaptive plan's branch fan-out exceeded the branch budget.
    BranchBudgetExceeded,
    /// The estimated peak bag-materialisation rows exceeded the memory
    /// budget.
    MemoryBudgetExceeded,
    /// The selection was served from the cross-query plan cache.
    PlanCacheHit,
    /// The selection was planned cold and inserted into the plan cache.
    PlanCacheMiss,
    /// Inserting this selection evicted the least-recently-used cache
    /// entry.
    PlanCacheEvict,
}

impl ReasonCode {
    /// A stable machine-readable code string.
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            ReasonCode::ExplicitStrategy => "explicit_strategy",
            ReasonCode::AcyclicFreeConnex => "acyclic_free_connex",
            ReasonCode::SubwBelowFhtw => "subw_below_fhtw",
            ReasonCode::NoWidthGap => "no_width_gap",
            ReasonCode::WidthsUnavailable => "widths_unavailable",
            ReasonCode::TooManyVariables => "too_many_variables",
            ReasonCode::LpBudgetExhausted => "lp_budget_exhausted",
            ReasonCode::BranchBudgetExceeded => "branch_budget_exceeded",
            ReasonCode::MemoryBudgetExceeded => "memory_budget_exceeded",
            ReasonCode::PlanCacheHit => "plan_cache_hit",
            ReasonCode::PlanCacheMiss => "plan_cache_miss",
            ReasonCode::PlanCacheEvict => "plan_cache_evict",
        }
    }
}

impl std::fmt::Display for ReasonCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.code())
    }
}

/// One fail-soft downgrade applied after selection: the strategy the rules
/// chose could not run within the configured [`Budgets`],
/// so a cheaper one ran instead.  Downgrades are one-way (`Adaptive →
/// StaticTd → BinaryJoin`) and each carries the [`ReasonCode`] of the
/// budget that forced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Downgrade {
    /// The strategy given up.
    pub from: EvaluationStrategy,
    /// The strategy executed instead.
    pub to: EvaluationStrategy,
    /// Which budget forced the downgrade.
    pub reason: ReasonCode,
}

/// One branch's width bound in a [`PlanReport`](crate::PlanReport):
/// the bags the branch covers, its log-scale bound, and the Shannon-flow
/// certificate proving the bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchBound {
    /// The bags this branch covers: one bag per entry for a static plan,
    /// a whole bag selector for an adaptive DDR branch.
    pub bags: Vec<VarSet>,
    /// The branch's bound in `log_N` scale.
    pub log_bound: Rat,
    /// The machine-verified dual certificate the width chain extracted
    /// with the bound — the same LP solve, so every bound carries one.
    pub certificate: ShannonFlow,
}

/// The full outcome of one selection: what fired, what was selected, what
/// will execute before the data is seen, and every planning artifact worth
/// reusing at execution time (so planning work is never done twice).  As
/// planned and cached, no field depends on the data: a selection is a
/// function of its plan-cache key, and [`bind`] applies a copy of it to a
/// request's data.
#[derive(Debug, Clone)]
pub(crate) struct Selection {
    pub rule: SelectorRule,
    pub reason: ReasonCode,
    pub selected: EvaluationStrategy,
    /// What executes: after planning, and on a request's copy after
    /// [`bind`] too.
    pub executed: EvaluationStrategy,
    /// The LP-budget downgrade planning forced, if any; on a request's
    /// copy, followed by those [`bind`] forced.
    pub downgrades: Vec<Downgrade>,
    pub fhtw: Option<FhtwReport>,
    pub subw: Option<SubwReport>,
    pub tds: Vec<TreeDecomposition>,
    /// fhtw's best decomposition, when fhtw completed.
    pub best_td: Option<TreeDecomposition>,
    /// The fully planned adaptive evaluator, when `Adaptive` was selected.
    pub evaluator: Option<PandaEvaluator>,
    /// Simplex pivots consumed by planning, when a pivot limit was set.
    pub lp_pivots_used: Option<u64>,
}

impl Selection {
    pub(crate) fn new(
        rule: SelectorRule,
        reason: ReasonCode,
        strategy: EvaluationStrategy,
    ) -> Self {
        Selection {
            rule,
            reason,
            selected: strategy,
            executed: strategy,
            downgrades: Vec::new(),
            fhtw: None,
            subw: None,
            tds: Vec::new(),
            best_td: None,
            evaluator: None,
            lp_pivots_used: None,
        }
    }

    fn downgrade_to(&mut self, to: EvaluationStrategy, reason: ReasonCode) {
        self.downgrades.push(Downgrade { from: self.executed, to, reason });
        self.executed = to;
    }
}

/// What binding a [`Selection`] to one request's data produced besides its
/// downgrades: the static or adaptive plan bound to its branches, and the
/// branch count the report shows (1 for every single-plan strategy and
/// after a memory-budget downgrade; after a branch-budget downgrade, the
/// count that triggered it).
#[derive(Debug)]
pub(crate) struct Binding {
    pub branch_count: usize,
    pub plan: Option<BoundPlan>,
}

/// `true` iff the query is acyclic *and* free-connex (Section 3.4): both
/// the body hypergraph and the body-plus-head hypergraph are acyclic.
#[must_use]
pub(crate) fn free_connex_acyclic(query: &ConjunctiveQuery) -> bool {
    let mut edges = query.edges();
    let acyclic = is_acyclic(&edges);
    edges.push(query.free_vars());
    acyclic && is_acyclic(&edges)
}

/// The planner's deterministic estimate of the peak bag-materialisation
/// size of a single-TD plan: the largest per-bag estimate over the
/// decomposition (the same estimator the adaptive branch cost model uses).
fn peak_bag_rows(query: &ConjunctiveQuery, db: &Database, td: &TreeDecomposition) -> f64 {
    td.bags().iter().map(|&bag| estimate_bag_size(query.atoms(), db, bag)).fold(0.0_f64, f64::max)
}

/// Binds a selection to the request's data — the one planning step that
/// reads the [`Database`], run on the request's own copy of the selection
/// after the plan-cache lookup, on the report and the evaluation path
/// alike.  An adaptive selection is bound to its degree branches
/// ([`PandaEvaluator::bind`]), a static one to the whole input under the
/// best decomposition (one branch); then the budgets that read the data
/// apply, in the ladder's order, each as a downgrade of `selection`:
///
/// * a branch count above the branch budget downgrades the adaptive plan
///   to a binary join;
/// * an estimated peak bag size above the memory budget downgrades a
///   bag-materialising plan (static or adaptive) to a binary join, which
///   materialises only pairwise join results and the output.  The estimate
///   is the largest per-bag estimate of the best decomposition over the
///   whole database, which upper-bounds every branch (branch databases are
///   subsets of the input), so one check covers both strategies.
///   `BinaryJoin` and `GenericJoin` are the ladder's floor and are never
///   memory-checked; Yannakakis is linear in input plus output and is
///   exempt by construction.
///
/// An explicit request is never downgraded: its branch budget caps the
/// adaptive plan's `max_branches`, and its memory budget is not checked.
pub(crate) fn bind(
    selection: &mut Selection,
    query: &ConjunctiveQuery,
    db: &Database,
    budgets: Budgets,
) -> Binding {
    let explicit = selection.rule == SelectorRule::ExplicitOverride;
    if let (true, Some(evaluator), Some(cap)) =
        (explicit, selection.evaluator.as_mut(), budgets.branch_budget)
    {
        evaluator.max_branches = evaluator.max_branches.min(cap);
    }
    let adaptive = selection.executed == EvaluationStrategy::Adaptive;
    let plan = match (&selection.evaluator, &selection.best_td) {
        (Some(evaluator), _) if adaptive => Some(evaluator.bind(query, db)),
        (_, Some(td)) if selection.executed == EvaluationStrategy::StaticTd => {
            Some(BoundPlan::for_query(query, [(db, td)]))
        }
        _ => None,
    };
    let mut branch_count = plan.as_ref().map_or(1, BoundPlan::branch_count);
    if !explicit && adaptive && budgets.branch_budget.is_some_and(|cap| branch_count > cap) {
        selection.downgrade_to(EvaluationStrategy::BinaryJoin, ReasonCode::BranchBudgetExceeded);
    }
    let bags_checked = !explicit
        && matches!(
            selection.executed,
            EvaluationStrategy::StaticTd | EvaluationStrategy::Adaptive
        );
    if let (true, Some(limit), Some(td)) =
        (bags_checked, budgets.memory_rows_budget, selection.best_td.as_ref())
    {
        if peak_bag_rows(query, db, td) > limit as f64 {
            selection
                .downgrade_to(EvaluationStrategy::BinaryJoin, ReasonCode::MemoryBudgetExceeded);
            branch_count = 1;
        }
    }
    Binding { branch_count, plan }
}

/// Solves the widths `selection` still lacks over `TD(Q)`, charging
/// `budget`: `fhtw`, then `subw` when `with_subw`.  A `required` width is
/// what the requested strategy runs, so every error propagates, and a
/// required `subw` is the full chain, whose every selector flow the
/// adaptive plan reads.  Otherwise it is informational — EXPLAIN shows it
/// though no decision rests on it — and only [`BoundError::Cancelled`]
/// propagates; any other error leaves it absent.  A query over more than
/// [`MAX_ENUMERATION_VARS`] variables has no `TD(Q)`: its widths are
/// [`BoundError::TooManyVariables`].  An informational `subw`
/// beside a known `fhtw` is only its value, so it is decided against `fhtw`
/// ([`panda_entropy::subw_against_fhtw`]).
fn solve_widths(
    selection: &mut Selection,
    query: &ConjunctiveQuery,
    stats: &StatisticsSet,
    budget: &mut PivotBudget,
    with_subw: bool,
    required: bool,
) -> Result<(), BoundError> {
    fn kept<T>(width: Result<T, BoundError>, required: bool) -> Result<Option<T>, BoundError> {
        match width {
            Err(e) if required || e == BoundError::Cancelled => Err(e),
            other => Ok(other.ok()),
        }
    }
    if selection.tds.is_empty() {
        if query.num_vars() > MAX_ENUMERATION_VARS {
            let error = BoundError::TooManyVariables(query.num_vars());
            return if required { Err(error) } else { Ok(()) };
        }
        selection.tds = TreeDecomposition::enumerate(query);
    }
    let tds = &selection.tds;
    if selection.fhtw.is_none() {
        let fhtw = panda_entropy::fhtw_with_tds_budgeted(query, tds, stats, budget);
        if let Some(report) = kept(fhtw, required)? {
            selection.best_td = Some(report.best_td().clone());
            selection.fhtw = Some(report);
        }
    }
    if with_subw && selection.subw.is_none() {
        let subw = match &selection.fhtw {
            Some(fhtw) if !required => {
                panda_entropy::subw_against_fhtw(query, tds, stats, fhtw, budget)
            }
            _ => panda_entropy::subw_with_tds_budgeted(query, tds, stats, budget),
        };
        selection.subw = kept(subw, required)?;
    }
    Ok(())
}

/// Whether `requested` plans from the statistics: `Auto` and the
/// width-based strategies do; Yannakakis and the two joins run off the data.
pub(crate) fn plans(requested: EvaluationStrategy) -> bool {
    matches!(
        requested,
        EvaluationStrategy::Auto | EvaluationStrategy::StaticTd | EvaluationStrategy::Adaptive
    )
}

/// Runs the selector: walks the rule list in order, applies the budgets,
/// and returns the full [`Selection`].
///
/// `want_widths` is set by the EXPLAIN path
/// ([`Panda::plan_report`](crate::Panda::plan_report)) to attach
/// informational widths on paths that do not compute them for the decision
/// itself; the evaluation path leaves it off so e.g. acyclic queries never
/// solve an LP.
///
/// Under `Auto` only [`BoundError::Solver`] — an LP solver *bug* — and
/// [`BoundError::Cancelled`] propagate as errors; `Unbounded` and
/// `PivotBudgetExhausted` are absorbed into the selection as fallbacks or
/// downgrades (that is the fail-soft contract).  Cancellation is
/// deliberately *not* fail-soft: the caller asked for the work to stop,
/// not for a cheaper plan to run instead.  Under an explicit strategy
/// every planning error propagates.
///
/// `cancel` rides on the request's one [`PivotBudget`] — the configured
/// pivot limit, or an unlimited one — and is polled at every pivot, so a
/// fired token aborts planning at the next pivot whether or not a limit is
/// set.
pub(crate) fn select(
    query: &ConjunctiveQuery,
    stats: &StatisticsSet,
    budgets: Budgets,
    requested: EvaluationStrategy,
    want_widths: bool,
    cancel: &CancelToken,
) -> Result<Selection, BoundError> {
    // The report shows the pivot count only when a limit was asked for.
    let pivots_used = |budget: &PivotBudget| budgets.lp_pivot_budget.map(|_| budget.used());
    let mut informational = PivotBudget::unlimited().with_cancel_token(cancel.clone());

    // Rule 1: explicit override — plan what the named strategy runs; the
    // caller left no fallback, so nothing here is fail-soft.
    if requested != EvaluationStrategy::Auto {
        let mut selection =
            Selection::new(SelectorRule::ExplicitOverride, ReasonCode::ExplicitStrategy, requested);
        if plans(requested) {
            let mut budget = budgets.pivot_budget(cancel);
            let adaptive = requested == EvaluationStrategy::Adaptive;
            solve_widths(&mut selection, query, stats, &mut budget, adaptive, true)?;
            if let (Some(fhtw), Some(subw)) = (&selection.fhtw, &selection.subw) {
                selection.evaluator = Some(PandaEvaluator::from_reports(query, subw, fhtw));
            }
            selection.lp_pivots_used = pivots_used(&budget);
        }
        if want_widths {
            solve_widths(&mut selection, query, stats, &mut informational, true, false)?;
        }
        return Ok(selection);
    }

    // Rule 2: acyclic fast path — no LP is solved.
    if free_connex_acyclic(query) {
        let mut selection = Selection::new(
            SelectorRule::AcyclicFastPath,
            ReasonCode::AcyclicFreeConnex,
            EvaluationStrategy::Yannakakis,
        );
        if want_widths {
            solve_widths(&mut selection, query, stats, &mut informational, true, false)?;
        }
        return Ok(selection);
    }

    if query.num_vars() > MAX_ENUMERATION_VARS {
        // Rule 5: no width over `TD(Q)` can be computed.
        return Ok(Selection::new(
            SelectorRule::GenericDefault,
            ReasonCode::TooManyVariables,
            EvaluationStrategy::GenericJoin,
        ));
    }
    let tds = TreeDecomposition::enumerate(query);
    let mut budget = budgets.pivot_budget(cancel);

    let fhtw_report = match panda_entropy::fhtw_with_tds_budgeted(query, &tds, stats, &mut budget) {
        Ok(report) => report,
        Err(BoundError::Unbounded) => {
            // Rule 5: no finite width exists.
            let mut selection = Selection::new(
                SelectorRule::GenericDefault,
                ReasonCode::WidthsUnavailable,
                EvaluationStrategy::GenericJoin,
            );
            selection.tds = tds;
            selection.lp_pivots_used = pivots_used(&budget);
            return Ok(selection);
        }
        Err(BoundError::PivotBudgetExhausted) => {
            // Rule 5: the budget died before any width was known, so no
            // width rule can fire and nothing richer was ever selected —
            // this is a selection reason, not a downgrade.
            let mut selection = Selection::new(
                SelectorRule::GenericDefault,
                ReasonCode::LpBudgetExhausted,
                EvaluationStrategy::GenericJoin,
            );
            selection.tds = tds;
            selection.lp_pivots_used = pivots_used(&budget);
            return Ok(selection);
        }
        Err(e) => return Err(e),
    };

    let subw_result =
        panda_entropy::subw_against_fhtw(query, &tds, stats, &fhtw_report, &mut budget);
    let lp_pivots_used = pivots_used(&budget);

    let mut selection = match subw_result {
        Ok(subw_report) if subw_report.value < fhtw_report.value => {
            // Rule 3: strict width gap — the adaptive plan.
            let mut selection = Selection::new(
                SelectorRule::SubwGap,
                ReasonCode::SubwBelowFhtw,
                EvaluationStrategy::Adaptive,
            );
            selection.evaluator =
                Some(PandaEvaluator::from_reports(query, &subw_report, &fhtw_report));
            selection.best_td = Some(fhtw_report.best_td().clone());
            selection.subw = Some(subw_report);
            selection.fhtw = Some(fhtw_report);
            selection
        }
        Ok(subw_report) => {
            // Rule 4: widths agree — the best single-TD plan.
            let mut selection = Selection::new(
                SelectorRule::TdFallback,
                ReasonCode::NoWidthGap,
                EvaluationStrategy::StaticTd,
            );
            selection.best_td = Some(fhtw_report.best_td().clone());
            selection.subw = Some(subw_report);
            selection.fhtw = Some(fhtw_report);
            selection
        }
        Err(BoundError::PivotBudgetExhausted) => {
            // Downgrade: fhtw is known but the budget died inside subw.
            // The gap rule was being evaluated (its candidate is the
            // adaptive plan), so record Adaptive as selected and fall back
            // to the best single-TD plan fhtw already paid for.
            let mut selection = Selection::new(
                SelectorRule::SubwGap,
                ReasonCode::LpBudgetExhausted,
                EvaluationStrategy::Adaptive,
            );
            selection.downgrade_to(EvaluationStrategy::StaticTd, ReasonCode::LpBudgetExhausted);
            selection.best_td = Some(fhtw_report.best_td().clone());
            selection.fhtw = Some(fhtw_report);
            selection
        }
        Err(BoundError::Unbounded) => {
            // Cannot happen when fhtw is finite (subw ≤ fhtw pointwise),
            // but stay fail-soft: the single-TD plan is still sound.
            let mut selection = Selection::new(
                SelectorRule::TdFallback,
                ReasonCode::WidthsUnavailable,
                EvaluationStrategy::StaticTd,
            );
            selection.best_td = Some(fhtw_report.best_td().clone());
            selection.fhtw = Some(fhtw_report);
            selection
        }
        Err(e) => return Err(e),
    };

    selection.tds = tds;
    selection.lp_pivots_used = lp_pivots_used;
    Ok(selection)
}

/// Builds the per-branch width bounds for a report from the selection
/// alone: each bound is read off the width chain that planned it, with the
/// certificate that chain extracted and verified, so no LP is solved here.
///
/// * Adaptive: one [`BranchBound`] per bag selector of the `subw` chain.
/// * Static (selected, or adaptive downgraded by the LP budget before
///   `subw` finished): one per bag of fhtw's best decomposition.
/// * Yannakakis / generic / binary plans carry no width bounds.
pub(crate) fn branch_bounds_for(selection: &Selection) -> Vec<BranchBound> {
    let bound = |bags: &[VarSet], report: &BoundReport| BranchBound {
        bags: bags.to_vec(),
        log_bound: report.log_bound,
        certificate: report.flow.clone(),
    };
    match (selection.selected, &selection.subw, &selection.fhtw) {
        (EvaluationStrategy::Adaptive, Some(subw), _) => {
            subw.per_selector.iter().map(|sel| bound(sel.selector.bags(), &sel.report)).collect()
        }
        (EvaluationStrategy::Adaptive | EvaluationStrategy::StaticTd, _, Some(fhtw)) => fhtw
            .per_td
            .get(fhtw.best)
            .into_iter()
            .flat_map(|(_, _, per_bag)| per_bag)
            .map(|(bag, report)| bound(&[*bag], report))
            .collect(),
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panda_query::parse_query;

    #[test]
    fn a_fired_token_stops_planning_with_no_pivot_limit_configured() {
        // With no `BUDGET pivots=` the request's budget is unlimited, and
        // it is still what polls the token.
        let q = parse_query("Q(X,Y) :- R(X,Y), S(Y,Z), T(Z,W), U(W,X)").unwrap();
        let stats = StatisticsSet::identical_cardinalities(&q, 1 << 12);
        let plan = |requested, want_widths, cancel: &CancelToken| {
            select(&q, &stats, Budgets::default(), requested, want_widths, cancel)
        };
        let fired = CancelToken::new();
        fired.cancel();
        // A strategy that plans solves width LPs on both paths.
        for requested in
            [EvaluationStrategy::Auto, EvaluationStrategy::StaticTd, EvaluationStrategy::Adaptive]
        {
            for want_widths in [true, false] {
                let live = plan(requested, want_widths, &CancelToken::new()).unwrap();
                assert_eq!(live.lp_pivots_used, None, "no limit configured, none reported");
                assert!(live.fhtw.is_some() && live.best_td.is_some());
                assert_eq!(
                    plan(requested, want_widths, &fired).unwrap_err(),
                    BoundError::Cancelled
                );
            }
        }
        // One that plans nothing solves them only for the report.
        let generic = EvaluationStrategy::GenericJoin;
        assert_eq!(plan(generic, true, &fired).unwrap_err(), BoundError::Cancelled);
        assert!(plan(generic, false, &fired).is_ok());
    }

    #[test]
    fn informational_widths_absorb_every_error_but_cancellation() {
        // Only R is constrained, so both widths are unbounded: absent from
        // the selection, not an error.
        let q = parse_query("Q(X,Y) :- R(X,Y), S(Y,Z), T(Z,W), U(W,X)").unwrap();
        let mut stats = StatisticsSet::new(1000);
        stats.add_cardinality("R", q.atoms()[0].var_set(), 1000);
        let selection = select(
            &q,
            &stats,
            Budgets::default(),
            EvaluationStrategy::BinaryJoin,
            true,
            &CancelToken::new(),
        )
        .unwrap();
        assert!(selection.fhtw.is_none() && selection.subw.is_none());
        assert_eq!(selection.tds.len(), 2);
    }
}
