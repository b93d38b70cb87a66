//! The end-to-end PANDA facade.
//!
//! [`Panda`] bundles the whole pipeline of the paper: given a conjunctive
//! query and (measured or supplied) statistics it computes the width
//! measures, picks a strategy through the deterministic rule-ordered
//! selector ([`crate::selector`]), and evaluates the query:
//!
//! * free-connex acyclic queries run Yannakakis directly (`O(N + OUT)`),
//! * cyclic queries whose submodular width is strictly below their
//!   fractional hypertree width run the adaptive multi-TD plan
//!   ([`crate::PandaEvaluator`]),
//! * other cyclic queries run the best single-TD plan
//!   ([`crate::StaticTdPlan`]),
//! * queries with no finite width run a generic worst-case optimal join.
//!
//! Every selection is observable: [`Panda::plan_report`] returns the
//! [`PlanReport`] — selected and executed strategy, the selector rule and
//! [`ReasonCode`] that fired, per-branch width bounds with their
//! Shannon-flow certificates, branch counts, and any fail-soft
//! [`Downgrade`]s forced by the configured [`Budgets`] — and
//! [`Panda::explain`] renders it as a stable, human-readable EXPLAIN.

use panda_entropy::{BoundError, CancelToken, StatisticsSet};
use panda_query::{ConjunctiveQuery, TreeDecomposition};
use panda_rational::Rat;
use panda_relation::Database;

use crate::binary::BinaryJoinPlan;
use crate::binding::VarRelation;
use crate::config::{Budgets, Engine};
use crate::generic_join::GenericJoin;
use crate::materialize::MaterializedSubplan;
use crate::plan_cache;
use crate::plans::PartitionSpec;
use crate::selector::{self, Binding, BranchBound, Downgrade, ReasonCode, Selection, SelectorRule};
use crate::yannakakis::yannakakis_query;

/// The evaluation strategies exposed by [`Panda`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvaluationStrategy {
    /// Choose automatically from the query structure and statistics.
    Auto,
    /// Yannakakis over the atoms (requires an acyclic query).
    Yannakakis,
    /// The best single-tree-decomposition (fhtw) plan.
    StaticTd,
    /// The adaptive multi-tree-decomposition (submodular width) plan.
    Adaptive,
    /// A single worst-case-optimal join over all atoms.
    GenericJoin,
    /// A greedy binary-join plan (the classical baseline).
    BinaryJoin,
}

impl EvaluationStrategy {
    /// A stable machine-readable name (the EXPLAIN spelling).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EvaluationStrategy::Auto => "auto",
            EvaluationStrategy::Yannakakis => "yannakakis",
            EvaluationStrategy::StaticTd => "static-td",
            EvaluationStrategy::Adaptive => "adaptive",
            EvaluationStrategy::GenericJoin => "generic-join",
            EvaluationStrategy::BinaryJoin => "binary-join",
        }
    }
}

impl std::fmt::Display for EvaluationStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A report of the planning decisions for a query: what the selector
/// chose, why, what will actually run, and the width bounds (with their
/// certificates) backing the choice.
///
/// Every field is deterministic and engine-independent: the same query,
/// statistics, data and budgets produce the identical report under any
/// [`Engine`] (pinned by `tests/parallel_determinism.rs`).
#[derive(Debug, Clone)]
pub struct PlanReport {
    /// The strategy that will actually execute (after any downgrades).
    pub strategy: EvaluationStrategy,
    /// The strategy the selector rules chose (before downgrades); equal to
    /// [`PlanReport::strategy`] unless [`PlanReport::downgrades`] is
    /// non-empty.
    pub selected: EvaluationStrategy,
    /// Which selector rule fired.
    pub rule: SelectorRule,
    /// Why the rule fired (machine-readable).
    pub reason: ReasonCode,
    /// The fail-soft downgrades applied, in the order they were applied;
    /// empty when the selected strategy runs as-is.
    pub downgrades: Vec<Downgrade>,
    /// The fractional hypertree width, when it was computed.
    pub fhtw: Option<Rat>,
    /// The submodular width, when it was computed.
    pub subw: Option<Rat>,
    /// The free-connex tree decompositions considered.
    pub tds: Vec<TreeDecomposition>,
    /// The degree partitions the adaptive plan uses (empty for other
    /// strategies).
    pub partitions: Vec<PartitionSpec>,
    /// Number of degree branches the plan fans out into on this request's
    /// data (1 for single-plan strategies and after a memory-budget
    /// downgrade; for a branch-budget downgrade, the count that triggered
    /// it).  The branches are built from the data the report was asked
    /// for, after the plan-cache lookup, so a plan cached for another
    /// database with equal statistics reports this database's count.
    pub branch_count: usize,
    /// Per-branch width bounds with their Shannon-flow certificates: one
    /// per bag selector for the adaptive plan, one per bag of the best
    /// decomposition for the static plan (also after an LP-budget
    /// downgrade), empty otherwise.  Each certificate is the one the width
    /// chain extracted and verified while planning, so building a report
    /// solves no LP and a warm report costs no pivots.
    pub branch_bounds: Vec<BranchBound>,
    /// Simplex pivots consumed by planning, when an LP pivot limit was
    /// configured (the pivots are counted either way; the report stays
    /// silent about them unless a limit was asked for).
    pub lp_pivots_used: Option<u64>,
    /// Subplans the adaptive plan materialises once and scans from several
    /// of this request's degree branches ([`MaterializedSubplan`]), in
    /// deterministic first-seen order; empty for plans that build no
    /// branches.  Read off the bag jobs the plan, bound to this data,
    /// executes, so it is part of the report's bit-identity contract
    /// (identical warm or cold, at any thread count).
    pub materializations: Vec<MaterializedSubplan>,
    /// How the plan cache participated in this report:
    /// [`ReasonCode::PlanCacheHit`], or [`ReasonCode::PlanCacheMiss`] (plus
    /// [`ReasonCode::PlanCacheEvict`] when the insert evicted an entry).
    ///
    /// This field is **process-state telemetry**, not plan content: it is
    /// deliberately excluded from the [`Explain`] rendering and from the
    /// report bit-identity contract (a warm report differs from its cold
    /// twin in exactly this field).
    pub cache_events: Vec<ReasonCode>,
}

/// A [`PlanReport`] bundled with the query's variable names, rendered by
/// its `Display` impl as a stable, line-oriented EXPLAIN (the byte-stable
/// output pinned by CI's `explain` example job).
///
/// ```
/// use panda_core::Panda;
/// use panda_query::parse_query;
/// use panda_relation::{Database, Relation};
///
/// let q = parse_query("Q(A,B) :- R(A,B), S(B,C)").unwrap();
/// let mut db = Database::new();
/// db.insert("R", Relation::from_rows(2, vec![[1, 2]]));
/// db.insert("S", Relation::from_rows(2, vec![[2, 3]]));
/// let explain = Panda::new(q).explain(&db).unwrap();
/// let text = explain.to_string();
/// assert!(text.contains("strategy: yannakakis"));
/// assert!(text.contains("rule: acyclic-fast-path"));
/// assert!(text.contains("reason: acyclic_free_connex"));
/// ```
#[derive(Debug, Clone)]
pub struct Explain {
    /// The underlying report.
    pub report: PlanReport,
    /// The query's variable names, for rendering bags.
    pub names: Vec<String>,
    /// The query text, as parsed.
    pub query: String,
}

impl std::fmt::Display for Explain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let r = &self.report;
        writeln!(f, "query: {}", self.query)?;
        writeln!(f, "strategy: {}", r.strategy)?;
        writeln!(f, "selected: {}", r.selected)?;
        writeln!(f, "rule: {}", r.rule)?;
        writeln!(f, "reason: {}", r.reason)?;
        match (r.fhtw, r.subw) {
            (Some(fhtw), Some(subw)) => writeln!(f, "widths: fhtw = {fhtw}, subw = {subw}")?,
            (Some(fhtw), None) => writeln!(f, "widths: fhtw = {fhtw}, subw = (not computed)")?,
            (None, _) => writeln!(f, "widths: (not computed)")?,
        }
        writeln!(f, "branches: {}", r.branch_count)?;
        if let Some(pivots) = r.lp_pivots_used {
            writeln!(f, "lp pivots used: {pivots}")?;
        }
        if r.downgrades.is_empty() {
            writeln!(f, "downgrades: (none)")?;
        } else {
            writeln!(f, "downgrades:")?;
            for d in &r.downgrades {
                writeln!(f, "  {} -> {} [{}]", d.from, d.to, d.reason)?;
            }
        }
        if !r.branch_bounds.is_empty() {
            writeln!(f, "branch bounds:")?;
            for bound in &r.branch_bounds {
                let bags: Vec<String> =
                    bound.bags.iter().map(|b| b.display_with(&self.names)).collect();
                writeln!(f, "  {}: {} (certified)", bags.join(" | "), bound.log_bound)?;
            }
        }
        // Cache events are deliberately NOT rendered: EXPLAIN output is
        // byte-stable across cold and warm runs, while cache events are
        // process state.
        if !r.materializations.is_empty() {
            writeln!(f, "materialised subplans:")?;
            for m in &r.materializations {
                writeln!(
                    f,
                    "  {}: {} ({} scans, materialised once)",
                    m.bag.display_with(&self.names),
                    m.relations.join(" * "),
                    m.num_scans
                )?;
            }
        }
        Ok(())
    }
}

/// Why [`Panda::try_evaluate_with`] could not run the requested strategy.
///
/// `Auto` never surfaces the budget and availability variants — it
/// downgrades fail-soft instead (see [`crate::selector`]); these errors
/// belong to *explicit* strategy requests, which leave no fallback.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StrategyError {
    /// [`EvaluationStrategy::Yannakakis`] was requested for a cyclic query.
    CyclicYannakakis,
    /// The requested strategy needs a costed tree decomposition and none
    /// could be produced (unbounded statistics, or an LP solver failure).
    TdUnavailable {
        /// The strategy that was requested.
        strategy: EvaluationStrategy,
        /// The width-computation error.
        source: BoundError,
    },
    /// The pivot budget ran out while planning an explicit strategy, which
    /// has no fallback to downgrade to (use `Auto` for fail-soft
    /// downgrades); no other budget raises it.
    BudgetExceeded {
        /// The strategy that was requested.
        strategy: EvaluationStrategy,
        /// Which budget was exceeded.
        reason: ReasonCode,
    },
    /// The attached [`CancelToken`] was cancelled before or during the
    /// request.  Unlike budget exhaustion this is never absorbed fail-soft
    /// — a cancelled request aborts under `Auto` too — and it is a
    /// property of the *request*, not the plan: retrying with a fresh
    /// token re-plans (or serves the cached plan) normally.
    Cancelled {
        /// The strategy that was requested.
        strategy: EvaluationStrategy,
    },
}

impl std::fmt::Display for StrategyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StrategyError::CyclicYannakakis => {
                write!(f, "Yannakakis requires an acyclic query")
            }
            StrategyError::TdUnavailable { strategy, source } => {
                write!(f, "no tree decomposition could be costed for {strategy}: {source}")
            }
            StrategyError::BudgetExceeded { strategy, reason } => {
                write!(
                    f,
                    "budget exceeded ({reason}) while planning {strategy}, which has no \
                     fallback (Auto downgrades fail-soft instead)"
                )
            }
            StrategyError::Cancelled { strategy } => {
                write!(f, "the request was cancelled while running {strategy}")
            }
        }
    }
}

impl std::error::Error for StrategyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StrategyError::TdUnavailable { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// The end-to-end query evaluator.
#[derive(Debug, Clone)]
pub struct Panda {
    query: ConjunctiveQuery,
    statistics: Option<StatisticsSet>,
    engine: Engine,
    budgets: Budgets,
    cancel: CancelToken,
}

impl Panda {
    /// Creates an evaluator for a query.  Statistics are measured from the
    /// data at evaluation time unless supplied with
    /// [`Panda::with_statistics`]; the execution engine is
    /// [`Engine::Sequential`] unless set with [`Panda::with_engine`]; all
    /// [`Budgets`] are unlimited unless set with [`Panda::with_budgets`].
    #[must_use]
    pub fn new(query: ConjunctiveQuery) -> Self {
        Panda {
            query,
            statistics: None,
            engine: Engine::Sequential,
            budgets: Budgets::default(),
            cancel: CancelToken::new(),
        }
    }

    /// Uses the given statistics for planning instead of measuring them.
    #[must_use]
    pub fn with_statistics(mut self, statistics: StatisticsSet) -> Self {
        self.statistics = Some(statistics);
        self
    }

    /// Uses the given execution engine.  Parallel engines change
    /// wall-clock time only: outputs are bit-identical to sequential
    /// evaluation at any thread count, and planning (strategy choice,
    /// reason codes, partitions, branch structure) is engine-independent.
    #[must_use]
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Uses the given [`Budgets`].  Under `Auto` an exceeded budget
    /// triggers a fail-soft downgrade recorded in the [`PlanReport`].  An
    /// explicit strategy's exhausted pivot budget is a
    /// [`StrategyError::BudgetExceeded`]; its branch budget caps an adaptive
    /// plan's fan-out and its memory budget is not checked.
    #[must_use]
    pub fn with_budgets(mut self, budgets: Budgets) -> Self {
        self.budgets = budgets;
        self
    }

    /// Attaches a cooperative [`CancelToken`] checked at the start of every
    /// planning and evaluation request and polled at every simplex pivot
    /// during planning (it rides on the request's one pivot budget, which
    /// is unlimited when no limit is configured).  Without this call the
    /// evaluator holds a token of its own that nothing ever fires.
    ///
    /// Cancellation is **cooperative and best-effort**: work that completes
    /// before the next poll returns its normal, bit-identical result, and a
    /// never-cancelled token changes nothing at all (polls consume no
    /// budget).  When the token fires mid-request, planning aborts with
    /// [`BoundError::Cancelled`] / [`StrategyError::Cancelled`] and nothing
    /// is inserted into the plan cache, so the cache never holds partial
    /// state.  Unlike budgets, cancellation is never absorbed into a
    /// fail-soft downgrade — `Auto` aborts too.
    #[must_use]
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// The configured execution engine.
    #[must_use]
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// The configured budgets.
    #[must_use]
    pub fn budgets(&self) -> Budgets {
        self.budgets
    }

    /// The query being evaluated.
    #[must_use]
    pub fn query(&self) -> &ConjunctiveQuery {
        &self.query
    }

    fn stats_for(&self, db: &Database) -> StatisticsSet {
        self.statistics.clone().unwrap_or_else(|| StatisticsSet::measure(&self.query, db))
    }

    /// `true` iff the query is acyclic *and* free-connex, i.e. eligible for
    /// the direct Yannakakis fast path (Section 3.4).
    #[must_use]
    pub fn is_free_connex_acyclic(&self) -> bool {
        selector::free_connex_acyclic(&self.query)
    }

    /// Builds the full [`PlanReport`] from a completed selection and its
    /// binding to the request's data.
    fn report_from(
        &self,
        selection: Selection,
        binding: Binding,
        cache_events: Vec<ReasonCode>,
    ) -> PlanReport {
        let branch_bounds = selector::branch_bounds_for(&selection);
        let partitions =
            selection.evaluator.as_ref().map(|e| e.partitions.clone()).unwrap_or_default();
        PlanReport {
            strategy: selection.executed,
            selected: selection.selected,
            rule: selection.rule,
            reason: selection.reason,
            downgrades: selection.downgrades,
            fhtw: selection.fhtw.as_ref().map(|r| r.value),
            subw: selection.subw.as_ref().map(|r| r.value),
            tds: selection.tds,
            partitions,
            branch_count: binding.branch_count,
            branch_bounds,
            lp_pivots_used: selection.lp_pivots_used,
            materializations: binding
                .plan
                .map_or_else(Vec::new, |plan| plan.materializations(self.query.atoms())),
            cache_events,
        }
    }

    /// The one request path of every strategy, shared by the report and
    /// the evaluation path: the selector through the cross-query plan
    /// cache, then [`selector::bind`] to `db`.  A hit skips planning (all
    /// width LPs and certificate chains) and serves the cached
    /// [`Selection`]; a miss plans as usual and populates the cache.
    /// Returns the bound selection plus the cache events that occurred, in
    /// order.  `stats` is `None` only on the evaluation path of a strategy
    /// that plans nothing ([`selector::plans`]), which therefore measures
    /// no statistics and records no cache event.
    ///
    /// The key (`plan_cache::PlanKey::new`) is the query as parsed, the
    /// statistics the planner would consume, the budgets, the requested
    /// strategy and `want_widths`; the evaluation path also accepts the
    /// key's report-path twin.  Thread count is deliberately excluded:
    /// planning is engine-independent (`tests/parallel_determinism.rs`
    /// pins it), so a plan cached under one engine serves every other
    /// bit-identically.
    fn plan_request(
        &self,
        db: &Database,
        stats: Option<&StatisticsSet>,
        requested: EvaluationStrategy,
        want_widths: bool,
    ) -> Result<(Selection, Binding, Vec<ReasonCode>), BoundError> {
        let Some(stats) = stats else {
            let mut selection = Selection::new(
                SelectorRule::ExplicitOverride,
                ReasonCode::ExplicitStrategy,
                requested,
            );
            let binding = selector::bind(&mut selection, &self.query, db, self.budgets);
            return Ok((selection, binding, Vec::new()));
        };
        let key =
            plan_cache::PlanKey::new(&self.query, stats, self.budgets, requested, want_widths);
        // The evaluation path can also be served by the report-path entry:
        // a plan with widths is a superset of a plan without, so
        // explain-then-evaluate plans exactly once.
        let fallback = (!want_widths).then(|| key.report_twin());
        let (mut selection, events) = match plan_cache::lookup(&key, fallback.as_ref()) {
            Some(selection) => (selection, vec![ReasonCode::PlanCacheHit]),
            None => {
                let selection = selector::select(
                    &self.query,
                    stats,
                    self.budgets,
                    requested,
                    want_widths,
                    &self.cancel,
                )?;
                // Only completed selections reach the cache: a cancelled
                // (or otherwise failed) plan returned above leaves the
                // cache untouched.
                let mut events = vec![ReasonCode::PlanCacheMiss];
                if plan_cache::insert(key, &selection) {
                    events.push(ReasonCode::PlanCacheEvict);
                }
                (selection, events)
            }
        };
        let binding = selector::bind(&mut selection, &self.query, db, self.budgets);
        Ok((selection, binding, events))
    }

    /// Produces the planning report for the automatic strategy choice on
    /// the given database: the selector rule and reason that fired, the
    /// widths, per-branch bounds with certificates, branch counts, and any
    /// budget downgrades.
    ///
    /// Deterministic and engine-independent: planning runs on the calling
    /// thread whatever the engine (the `subw` chain's Shannon flows seed
    /// the adaptive partitions and the reported certificates, so its shape
    /// must not depend on a thread count).  Only an LP solver *bug* and a
    /// fired [`CancelToken`] surface as errors; unbounded widths and
    /// exhausted budgets are absorbed into the selection fail-soft.
    pub fn plan_report(&self, db: &Database) -> Result<PlanReport, BoundError> {
        self.plan_report_for(db, EvaluationStrategy::Auto)
    }

    /// [`Panda::plan_report`] for any strategy request: the plan
    /// [`Panda::try_evaluate_with`] runs, failing exactly when planning
    /// fails there, with the widths it did not need attached.
    pub fn plan_report_for(
        &self,
        db: &Database,
        strategy: EvaluationStrategy,
    ) -> Result<PlanReport, BoundError> {
        if self.cancel.is_cancelled() {
            return Err(BoundError::Cancelled);
        }
        let stats = self.stats_for(db);
        let (selection, binding, cache_events) =
            self.plan_request(db, Some(&stats), strategy, /*want_widths=*/ true)?;
        Ok(self.report_from(selection, binding, cache_events))
    }

    /// [`Panda::plan_report`] rendered for humans: returns the [`Explain`]
    /// wrapper whose `Display` output is stable line-oriented text.
    pub fn explain(&self, db: &Database) -> Result<Explain, BoundError> {
        self.explain_with(db, EvaluationStrategy::Auto)
    }

    /// [`Panda::explain`] for any strategy request.
    pub fn explain_with(
        &self,
        db: &Database,
        strategy: EvaluationStrategy,
    ) -> Result<Explain, BoundError> {
        let report = self.plan_report_for(db, strategy)?;
        Ok(Explain {
            report,
            names: self.query.var_names().to_vec(),
            query: self.query.to_string(),
        })
    }

    /// Evaluates the query with the automatically chosen strategy.
    #[must_use]
    pub fn evaluate(&self, db: &Database) -> VarRelation {
        self.evaluate_with(db, EvaluationStrategy::Auto)
    }

    /// Evaluates the query with an explicit strategy.
    ///
    /// # Panics
    ///
    /// Panics if the strategy cannot run — `Yannakakis` on a cyclic query,
    /// a width-based plan whose statistics leave the output unbounded, or
    /// the pivot budget exhausted while planning one — use
    /// [`Panda::try_evaluate_with`] for the non-panicking form.
    #[must_use]
    pub fn evaluate_with(&self, db: &Database, strategy: EvaluationStrategy) -> VarRelation {
        match self.try_evaluate_with(db, strategy) {
            Ok(result) => result,
            // panda-lint: allow(P1) -- the panic is this method's
            // documented contract; the graceful path is `try_evaluate_with`.
            Err(e) => panic!("{e}"),
        }
    }

    /// Evaluates the query with an explicit strategy, reporting structural
    /// mismatches (a cyclic query under `Yannakakis`), unavailable tree
    /// decompositions, and exceeded budgets as structured errors instead of
    /// panicking or silently substituting a different plan.
    pub fn try_evaluate_with(
        &self,
        db: &Database,
        strategy: EvaluationStrategy,
    ) -> Result<VarRelation, StrategyError> {
        self.try_evaluate_with_events(db, strategy).map(|(result, _events)| result)
    }

    /// [`Panda::try_evaluate_with`] that also reports the plan-cache events
    /// of the request (in order), so serving layers can account cache
    /// hits, misses and evictions per session.
    ///
    /// Every strategy that plans (`Auto`, `StaticTd`, `Adaptive`) consults
    /// the cross-query plan cache; the others report no events.  Like
    /// [`PlanReport::cache_events`] these are process-state telemetry, not
    /// part of the result's bit-identity contract.
    pub fn try_evaluate_with_events(
        &self,
        db: &Database,
        strategy: EvaluationStrategy,
    ) -> Result<(VarRelation, Vec<ReasonCode>), StrategyError> {
        if self.cancel.is_cancelled() {
            return Err(StrategyError::Cancelled { strategy });
        }
        let stats = selector::plans(strategy).then(|| self.stats_for(db));
        let (selection, binding, cache_events) = self
            .plan_request(db, stats.as_ref(), strategy, /*want_widths=*/ false)
            .map_err(|source| self.planning_error(strategy, source))?;
        Ok((self.execute(db, &selection, binding)?, cache_events))
    }

    /// Maps a planning [`BoundError`] to the matching [`StrategyError`]
    /// (under `Auto` only a cancel or a solver bug gets this far).
    fn planning_error(&self, strategy: EvaluationStrategy, source: BoundError) -> StrategyError {
        match source {
            BoundError::PivotBudgetExhausted => {
                StrategyError::BudgetExceeded { strategy, reason: ReasonCode::LpBudgetExhausted }
            }
            BoundError::Cancelled => StrategyError::Cancelled { strategy },
            source => StrategyError::TdUnavailable { strategy, source },
        }
    }

    /// Runs the strategy a bound [`Selection`] settled on: a static or
    /// adaptive plan runs the plan [`selector::bind`] already bound to its
    /// branches, so no LP is solved and no branch is built twice.
    fn execute(
        &self,
        db: &Database,
        selection: &Selection,
        binding: Binding,
    ) -> Result<VarRelation, StrategyError> {
        match (selection.executed, binding.plan) {
            // Under `Auto` the acyclic fast-path rule verified free-connexity;
            // an explicit request may name a cyclic query.
            (EvaluationStrategy::Yannakakis, _) => {
                yannakakis_query(&self.query, db).ok_or(StrategyError::CyclicYannakakis)
            }
            (EvaluationStrategy::StaticTd | EvaluationStrategy::Adaptive, Some(plan)) => {
                Ok(plan.evaluate(self.query.free_vars(), self.engine))
            }
            (EvaluationStrategy::BinaryJoin, _) => {
                Ok(BinaryJoinPlan::new().evaluate(&self.query, db))
            }
            // `GenericJoin`: `Auto` never executes it, and a width-based
            // strategy always carries its bound plan.
            _ => Ok(GenericJoin::evaluate_with_engine(&self.query, db, self.engine)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panda_query::{parse_query, Var};
    use panda_relation::Relation;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_db(n: u64, edges: usize, seed: u64) -> Database {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut db = Database::new();
        for name in ["R", "S", "T", "U"] {
            db.insert(
                name,
                Relation::from_rows(
                    2,
                    (0..edges).map(|_| [rng.gen_range(0..n), rng.gen_range(0..n)]),
                )
                .deduped(),
            );
        }
        db
    }

    #[test]
    fn auto_strategy_picks_yannakakis_for_free_connex_acyclic_queries() {
        // Q(A,B) over the 2-path is free-connex; Q(A,C) over the same body
        // is the classic non-free-connex example (its head atom closes a
        // triangle with the body).
        let q = parse_query("Q(A,B) :- R(A,B), S(B,C)").unwrap();
        let panda =
            Panda::new(q.clone()).with_statistics(StatisticsSet::identical_cardinalities(&q, 1000));
        assert!(panda.is_free_connex_acyclic());
        let db = random_db(10, 40, 1);
        let report = panda.plan_report(&db).unwrap();
        assert_eq!(report.strategy, EvaluationStrategy::Yannakakis);
        assert_eq!(report.rule, SelectorRule::AcyclicFastPath);
        assert_eq!(report.reason, ReasonCode::AcyclicFreeConnex);
        assert_eq!(report.fhtw, Some(Rat::ONE));
        assert!(report.downgrades.is_empty());

        let not_fc = parse_query("Q(A,C) :- R(A,B), S(B,C)").unwrap();
        assert!(!Panda::new(not_fc).is_free_connex_acyclic());
    }

    #[test]
    fn auto_strategy_picks_adaptive_for_the_four_cycle() {
        let q = parse_query("Q(X,Y) :- R(X,Y), S(Y,Z), T(Z,W), U(W,X)").unwrap();
        let panda = Panda::new(q.clone())
            .with_statistics(StatisticsSet::identical_cardinalities(&q, 1 << 12));
        let db = random_db(10, 50, 2);
        let report = panda.plan_report(&db).unwrap();
        assert_eq!(report.strategy, EvaluationStrategy::Adaptive);
        assert_eq!(report.selected, EvaluationStrategy::Adaptive);
        assert_eq!(report.rule, SelectorRule::SubwGap);
        assert_eq!(report.reason, ReasonCode::SubwBelowFhtw);
        assert_eq!(report.fhtw, Some(Rat::from_int(2)));
        assert_eq!(report.subw, Some(Rat::new(3, 2)));
        assert_eq!(report.tds.len(), 2);
        assert!(!report.partitions.is_empty());
        assert!(report.branch_count >= 1);
        // One bound per bag selector, each carrying its verified flow.
        assert!(!report.branch_bounds.is_empty());
        for bound in &report.branch_bounds {
            assert!(bound.log_bound <= Rat::new(3, 2));
            bound.certificate.verify_identity().unwrap();
        }
    }

    #[test]
    fn a_non_free_connex_projection_uses_a_static_plan() {
        // Q(X,Y) :- R(X,Z), S(Z,Y) is acyclic but not free-connex; the only
        // free-connex TD is the trivial one, so subw = fhtw and the static
        // plan is chosen.
        let q = parse_query("Q(X,Y) :- R(X,Z), S(Z,Y)").unwrap();
        let panda = Panda::new(q);
        assert!(!panda.is_free_connex_acyclic());
        let db = random_db(10, 40, 3);
        let report = panda.plan_report(&db).unwrap();
        assert_eq!(report.strategy, EvaluationStrategy::StaticTd);
        assert_eq!(report.rule, SelectorRule::TdFallback);
        assert_eq!(report.reason, ReasonCode::NoWidthGap);
        // Static branch bounds cover the best TD's bags, certified.
        assert!(!report.branch_bounds.is_empty());
        for bound in &report.branch_bounds {
            assert_eq!(bound.bags.len(), 1);
            bound.certificate.verify_identity().unwrap();
        }
    }

    #[test]
    fn all_strategies_agree_on_the_four_cycle() {
        let q = parse_query("Q(X,Y) :- R(X,Y), S(Y,Z), T(Z,W), U(W,X)").unwrap();
        let panda = Panda::new(q.clone());
        let db = random_db(9, 45, 4);
        let order: Vec<Var> = q.free_vars().to_vec();
        let reference = panda
            .evaluate_with(&db, EvaluationStrategy::GenericJoin)
            .canonical_rows_ordered(&order);
        for strategy in [
            EvaluationStrategy::Auto,
            EvaluationStrategy::StaticTd,
            EvaluationStrategy::Adaptive,
            EvaluationStrategy::BinaryJoin,
        ] {
            let got = panda.evaluate_with(&db, strategy).canonical_rows_ordered(&order);
            assert_eq!(got, reference, "strategy {strategy:?}");
        }
    }

    #[test]
    fn all_strategies_agree_on_an_acyclic_query() {
        let q = parse_query("Q(A,C) :- R(A,B), S(B,C), T(C,D)").unwrap();
        let panda = Panda::new(q.clone());
        let db = random_db(12, 50, 5);
        let order: Vec<Var> = q.free_vars().to_vec();
        let reference = panda
            .evaluate_with(&db, EvaluationStrategy::GenericJoin)
            .canonical_rows_ordered(&order);
        for strategy in [
            EvaluationStrategy::Auto,
            EvaluationStrategy::Yannakakis,
            EvaluationStrategy::StaticTd,
            EvaluationStrategy::BinaryJoin,
        ] {
            let got = panda.evaluate_with(&db, strategy).canonical_rows_ordered(&order);
            assert_eq!(got, reference, "strategy {strategy:?}");
        }
    }

    #[test]
    #[should_panic(expected = "acyclic")]
    fn yannakakis_on_a_cyclic_query_panics() {
        let q = parse_query("Tri() :- R(A,B), S(B,C), T(C,A)").unwrap();
        let db = random_db(5, 10, 6);
        let _ = Panda::new(q).evaluate_with(&db, EvaluationStrategy::Yannakakis);
    }

    #[test]
    fn try_evaluate_reports_cyclic_yannakakis_gracefully() {
        let q = parse_query("Tri() :- R(A,B), S(B,C), T(C,A)").unwrap();
        let db = random_db(5, 10, 6);
        let panda = Panda::new(q);
        let err = panda
            .try_evaluate_with(&db, EvaluationStrategy::Yannakakis)
            .expect_err("cyclic query must not run Yannakakis");
        assert!(matches!(err, StrategyError::CyclicYannakakis));
        assert!(err.to_string().contains("acyclic"));
        // Every other strategy still succeeds on the same input, and Auto
        // routes around the cycle rather than surfacing the error.
        for strategy in [
            EvaluationStrategy::Auto,
            EvaluationStrategy::GenericJoin,
            EvaluationStrategy::BinaryJoin,
        ] {
            assert!(panda.try_evaluate_with(&db, strategy).is_ok(), "strategy {strategy:?}");
        }
    }

    #[test]
    fn a_cancelled_token_aborts_requests_with_structured_errors() {
        let q = parse_query("Q(X,Y) :- R(X,Y), S(Y,Z), T(Z,W), U(W,X)").unwrap();
        let db = random_db(9, 45, 7);
        let token = CancelToken::new();
        let panda = Panda::new(q).with_cancel_token(token.clone());

        // An un-cancelled token changes nothing: results and reports are
        // bit-identical to a token-free evaluator.
        let plain = Panda::new(panda.query().clone());
        let order: Vec<Var> = panda.query().free_vars().to_vec();
        assert_eq!(
            panda.evaluate(&db).canonical_rows_ordered(&order),
            plain.evaluate(&db).canonical_rows_ordered(&order),
        );
        assert_eq!(
            panda.explain(&db).unwrap().to_string(),
            plain.explain(&db).unwrap().to_string(),
        );

        // Once the token fires, every entry point reports cancellation —
        // including Auto, which never absorbs a cancel into a downgrade.
        token.cancel();
        for strategy in [
            EvaluationStrategy::Auto,
            EvaluationStrategy::Yannakakis,
            EvaluationStrategy::GenericJoin,
        ] {
            let err = panda.try_evaluate_with(&db, strategy).expect_err("cancelled");
            assert_eq!(err, StrategyError::Cancelled { strategy });
            assert!(err.to_string().contains("cancelled"));
        }
        assert!(matches!(panda.plan_report(&db), Err(BoundError::Cancelled)));

        // Cancellation is per-token, not per-query: a fresh evaluator for
        // the same query still runs normally.
        assert!(plain.try_evaluate_with(&db, EvaluationStrategy::Auto).is_ok());
    }

    #[test]
    fn a_mid_planning_cancel_aborts_at_the_next_pivot() {
        // `Panda`'s entry check answers a token that fired before the
        // request; a token that fires *during* planning is met by the
        // selector at the next pivot of every strategy that plans, with no
        // pivot limit configured.
        let q = parse_query("Q(X,Y) :- R(X,Y), S(Y,Z), T(Z,W), U(W,X)").unwrap();
        let stats = StatisticsSet::identical_cardinalities(&q, 1 << 12);
        let live = CancelToken::new();
        let select =
            |strategy, budgets| selector::select(&q, &stats, budgets, strategy, false, &live);
        let planning =
            [EvaluationStrategy::Auto, EvaluationStrategy::StaticTd, EvaluationStrategy::Adaptive];
        for strategy in planning {
            assert!(select(strategy, Budgets::default()).is_ok());
        }

        live.cancel();
        for strategy in planning {
            assert_eq!(select(strategy, Budgets::default()).unwrap_err(), BoundError::Cancelled);
            // The poll comes before a pivot is charged: with no pivot to
            // spend, the answer is still the cancel, not the budget.
            let none = Budgets::default().with_lp_pivot_budget(0);
            assert_eq!(select(strategy, none).unwrap_err(), BoundError::Cancelled);
        }
    }

    #[test]
    fn strategy_names_are_stable() {
        assert_eq!(EvaluationStrategy::Auto.name(), "auto");
        assert_eq!(EvaluationStrategy::Adaptive.to_string(), "adaptive");
        assert_eq!(EvaluationStrategy::StaticTd.to_string(), "static-td");
    }
}
