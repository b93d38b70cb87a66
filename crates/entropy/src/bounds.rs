//! The polymatroid bound, the DDR bound, and the width measures.
//!
//! All of these are linear programs over the polymatroid cone constrained
//! by the input statistics (`h ⊨ S, Γ_n` in the paper's notation):
//!
//! * [`polymatroid_bound`] — `max h(F)` (Theorem 4.1, right-most term),
//! * [`ddr_polymatroid_bound`] — `max min_B h(B)` (Theorem 5.1),
//! * [`fhtw`] — `min_T max_{B ∈ bags(T)} max_h h(B)` (Eq. 22),
//! * [`subw`] — `max_{B ∈ BS(Q)} max_h min_{B ∈ B} h(B)` (Eq. 41), over
//!   the minimal transversals of the TDs' bag sets, the only selectors
//!   that can attain the maximum,
//! * [`agm_bound`] — the all-cardinalities special case of the polymatroid
//!   bound (the AGM bound / fractional edge cover).
//!
//! Every bound comes back as a [`BoundReport`] carrying the optimal value
//! *and* the dual certificate as a verified [`ShannonFlow`].
//!
//! The two width chains are where planning spends its pivots, so each
//! exists once and takes the request's [`PivotBudget`]:
//! [`fhtw_with_tds_budgeted`] and [`subw_with_tds_budgeted`] charge every
//! pivot to it and poll its cancel token there; [`fhtw`] and [`subw`] are
//! the same chains under [`PivotBudget::unlimited`].
//!
//! A planner that already holds the `fhtw` report asks `subw` one
//! question, `subw < fhtw`?  [`subw_against_fhtw`] answers it with the
//! exact `subw` and runs the selector chain only as far as the answer
//! needs.  When `subw = fhtw`, it stops at the first selector that reaches
//! `fhtw`, which on a single-TD query is read off the `fhtw` chain without
//! an LP.  When `subw < fhtw`, it returns the full chain's report.

// panda-lint: allow-file(P1) -- LP variable ids are minted by the
// Γ-LP builder in this module, so objective/constraint lookups are
// in range by construction.

use std::collections::BTreeMap;

use panda_lp::{Basis, LinearProgram, LpError, LpOutcome, PivotBudget};
use panda_query::{BagSelector, ConjunctiveQuery, TreeDecomposition, VarSet};
use panda_rational::Rat;

use crate::constraints::{StatKind, Statistic, StatisticsSet};
use crate::elemental::Elemental;
use crate::shannon::ShannonFlow;
use crate::varspace::EntropyVarSpace;

/// Errors produced by the bound computations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoundError {
    /// The statistics do not bound the target: the LP is unbounded, i.e.
    /// the worst-case output size is infinite (e.g. a variable not covered
    /// by any constraint).
    Unbounded,
    /// The underlying LP solver failed (iteration limit); indicates a bug.
    Solver(String),
    /// The caller-supplied [`PivotBudget`] ran out before the bound (or the
    /// chain of bounds) was computed.  Unlike [`BoundError::Solver`] this is
    /// an expected, recoverable outcome: the caller asked for bounded
    /// planning work and should fall back to a cheaper plan.
    PivotBudgetExhausted,
    /// A [`CancelToken`](panda_lp::CancelToken) attached to the supplied
    /// [`PivotBudget`] was cancelled mid-computation.  Expected and
    /// recoverable, but — unlike [`BoundError::PivotBudgetExhausted`] —
    /// never absorbed into a fail-soft fallback: the caller asked for the
    /// work to stop, not for a cheaper substitute.
    Cancelled,
    /// The query has more variables than `TD(Q)` is enumerated for
    /// ([`MAX_ENUMERATION_VARS`](panda_query::td::MAX_ENUMERATION_VARS)),
    /// so no width over it can be computed.
    TooManyVariables(usize),
}

impl std::fmt::Display for BoundError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BoundError::Unbounded => write!(
                f,
                "the statistics do not bound the target (the polymatroid LP is unbounded)"
            ),
            BoundError::Solver(msg) => write!(f, "LP solver failure: {msg}"),
            BoundError::PivotBudgetExhausted => {
                write!(f, "the LP pivot budget was exhausted before the bound was computed")
            }
            BoundError::Cancelled => {
                write!(f, "the computation was cancelled before the bound was computed")
            }
            BoundError::TooManyVariables(vars) => write!(
                f,
                "the query has {vars} variables; tree decompositions are enumerated for at most {}",
                panda_query::td::MAX_ENUMERATION_VARS
            ),
        }
    }
}

impl std::error::Error for BoundError {}

/// The result of one bound computation: the optimal log-scale value and the
/// Shannon-flow certificate extracted from the LP dual.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundReport {
    /// The bound in `log_N` scale (the exponent of `N`), e.g. `3/2`.
    pub log_bound: Rat,
    /// The dual certificate.
    pub flow: ShannonFlow,
}

impl BoundReport {
    /// The bound in tuples: `Π_c N_c^{w_c}` (Theorem 6.2).
    #[must_use]
    pub fn tuple_bound(&self) -> f64 {
        self.flow.tuple_bound()
    }
}

/// One tree decomposition's cost inside a [`FhtwReport`]:
/// `(decomposition, cost, per-bag bounds)`, each bag's bound with the
/// verified Shannon-flow certificate its LP produced.
pub type TdCost = (TreeDecomposition, Rat, Vec<(VarSet, BoundReport)>);

/// The fractional-hypertree-width report (Eq. 22).
#[derive(Debug, Clone)]
pub struct FhtwReport {
    /// `fhtw(Q, S)`.
    pub value: Rat,
    /// Index (into `per_td`) of a decomposition achieving the minimum.
    pub best: usize,
    /// Per-TD costs.
    pub per_td: Vec<TdCost>,
}

impl FhtwReport {
    /// The optimal (single-TD) decomposition.
    #[must_use]
    pub fn best_td(&self) -> &TreeDecomposition {
        &self.per_td[self.best].0
    }
}

/// The bound of one bag selector inside a [`SubwReport`].
#[derive(Debug, Clone)]
pub struct SelectorBound {
    /// The bag selector.
    pub selector: BagSelector,
    /// The DDR bound report for this selector.
    pub report: BoundReport,
}

/// The submodular-width report (Eq. 41).
#[derive(Debug, Clone)]
pub struct SubwReport {
    /// `subw(Q, S)`.
    pub value: Rat,
    /// The tree decompositions used (`TD(Q)`).
    pub tds: Vec<TreeDecomposition>,
    /// The DDR bounds of the bag selectors in `BS(Q)` that can attain
    /// Eq. 41's maximum: the minimal transversals of the TDs' bag sets
    /// ([`BagSelector::enumerate`]).  From
    /// [`subw_with_tds_budgeted`], one per selector.  From
    /// [`subw_against_fhtw`], the same complete list whenever
    /// `value < fhtw`; otherwise the one selector that witnesses
    /// `subw = fhtw`.
    pub per_selector: Vec<SelectorBound>,
}

impl SubwReport {
    /// The report over `tds` whose value is the largest selector bound.
    fn new(tds: &[TreeDecomposition], per_selector: Vec<SelectorBound>) -> Self {
        let value = per_selector.iter().map(|sel| sel.report.log_bound).max().unwrap_or(Rat::ZERO);
        SubwReport { value, tds: tds.to_vec(), per_selector }
    }

    /// The selector attaining the maximum (the "hardest" DDR).
    #[must_use]
    pub fn hardest(&self) -> &SelectorBound {
        self.per_selector
            .iter()
            .max_by(|a, b| a.report.log_bound.cmp(&b.report.log_bound))
            .expect("a submodular width report always has at least one selector")
    }
}

/// The target-independent part of a Γ_n LP: the entropy variable space,
/// the statistics rows and the elemental Shannon rows with their sparse
/// coefficients, all pre-derived so that instantiating a concrete LP is a
/// matter of replaying stored rows instead of re-enumerating the
/// `O(n² · 2ⁿ)` elemental inequalities.
///
/// `subw` solves one LP per minimal transversal of the TDs' bag sets —
/// 21 of them for the 5-cycle (Eq. 41) — and `fhtw` one per distinct bag,
/// all over the same `(universe, statistics)` scaffold, so each chain
/// builds it once up front and every LP of the chain replays it.  A single
/// bound builds its own.
struct GammaScaffold {
    space: EntropyVarSpace,
    /// Per-statistic `(sparse coefficients, rhs)` of the `≤` rows.
    stat_rows: Vec<(Vec<(usize, Rat)>, Rat)>,
    /// Elemental inequalities `expr_e(h) ≥ 0`, each with the sparse
    /// coefficients of its row `−expr_e(h) ≤ 0`.
    elementals: Vec<(Elemental, Vec<(usize, Rat)>)>,
}

impl GammaScaffold {
    fn build(universe: VarSet, stats: &StatisticsSet) -> Self {
        let space = EntropyVarSpace::new(universe);

        // Statistics rows (h ⊨ S), Eq. (8) and Eq. (73).
        let mut stat_rows = Vec::with_capacity(stats.len());
        for stat in stats.stats() {
            let mut coeffs: Vec<(usize, Rat)> = Vec::with_capacity(3);
            match stat.kind {
                StatKind::Degree { cond, subj } => {
                    space.add_conditional_term(&mut coeffs, cond, subj, Rat::ONE);
                }
                StatKind::LpNorm { cond, subj, k } => {
                    // (1/k)·h(X) + h(XY) − h(X) ≤ log value.
                    let joint = cond.union(subj);
                    if !joint.is_empty() {
                        coeffs.push((space.index_of(joint), Rat::ONE));
                    }
                    if !cond.is_empty() {
                        coeffs.push((space.index_of(cond), Rat::new(1, i128::from(k)) - Rat::ONE));
                    }
                }
            }
            stat_rows.push((coeffs, stat.log_value));
        }

        // Elemental Shannon inequalities `expr_e(h) ≥ 0`, as `−expr_e(h) ≤ 0`.
        let elementals = Elemental::enumerate(universe)
            .into_iter()
            .map(|elemental| {
                let coeffs: Vec<(usize, Rat)> = elemental
                    .coefficients()
                    .into_iter()
                    .map(|(s, c)| (space.index_of(s), Rat::from_int(-i128::from(c))))
                    .collect();
                (elemental, coeffs)
            })
            .collect();

        GammaScaffold { space, stat_rows, elementals }
    }
}

/// Internal: the Γ_n-plus-statistics LP with bookkeeping for dual
/// extraction.
struct GammaLp {
    space: EntropyVarSpace,
    lp: LinearProgram,
    stat_rows: Vec<usize>,
    elemental_rows: Vec<(usize, Elemental)>,
    /// `(row, bag)` rows of the form `t − h(B) ≤ 0` (empty when a single
    /// target is maximised directly).
    target_rows: Vec<(usize, VarSet)>,
    /// Index of the auxiliary `t` variable, if any.
    t_var: Option<usize>,
}

impl GammaLp {
    /// Builds the LP `max h(target)` (single target) or `max t` with
    /// `t ≤ h(B)` for every target (DDR form), subject to `h ⊨ S, Γ_n`,
    /// instantiated from `scaffold`, in the row order statistics, targets,
    /// elementals.  Every row is `≤ log N` (with `log N ≥ 0`),
    /// `t − h(B) ≤ 0` or `−expr_e(h) ≤ 0`, the one form the solver takes,
    /// so a cold solve starts at `h = 0` from the all-slack basis.
    /// Warm-started solves ([`GammaLp::solve_warm`] with a hint)
    /// may reach a different optimal basis when the optimum is degenerate —
    /// Γ_n LPs routinely are — so their certificates can legitimately
    /// differ; every certificate is still verified by
    /// `ShannonFlow::verify_identity` before it is returned, and the
    /// optimal *value* never changes.
    fn build(scaffold: &GammaScaffold, targets: &[VarSet]) -> Self {
        assert!(!targets.is_empty(), "at least one target set is required");
        let universe = scaffold.space.universe();
        for t in targets {
            assert!(
                t.is_subset_of(universe),
                "target {t:?} is not contained in the universe {universe:?}"
            );
            assert!(!t.is_empty(), "target sets must be non-empty");
        }
        let space = scaffold.space.clone();
        let use_t = targets.len() > 1;
        let num_vars = space.num_lp_vars() + usize::from(use_t);
        let t_var = use_t.then_some(space.num_lp_vars());
        let mut lp = LinearProgram::new(num_vars);

        // Objective.
        if let Some(t) = t_var {
            lp.set_objective_coeff(t, Rat::ONE);
        } else {
            lp.set_objective_coeff(space.index_of(targets[0]), Rat::ONE);
        }

        // Statistics rows, replayed from the scaffold.
        let mut stat_rows = Vec::with_capacity(scaffold.stat_rows.len());
        for (coeffs, rhs) in &scaffold.stat_rows {
            let row = lp.add_constraint(coeffs.clone(), *rhs);
            stat_rows.push(row);
        }

        // Target rows `t − h(B) ≤ 0`.
        let mut target_rows = Vec::new();
        if let Some(t) = t_var {
            for &bag in targets {
                let row = lp.add_constraint(
                    vec![(t, Rat::ONE), (space.index_of(bag), -Rat::ONE)],
                    Rat::ZERO,
                );
                target_rows.push((row, bag));
            }
        }

        // Elemental rows, replayed from the scaffold.
        let mut elemental_rows = Vec::with_capacity(scaffold.elementals.len());
        for (elemental, coeffs) in &scaffold.elementals {
            let row = lp.add_constraint(coeffs.clone(), Rat::ZERO);
            elemental_rows.push((row, *elemental));
        }

        GammaLp { space, lp, stat_rows, elemental_rows, target_rows, t_var }
    }

    /// Solves the LP and converts the dual into a verified [`ShannonFlow`].
    fn solve(&self, stats: &StatisticsSet, targets: &[VarSet]) -> Result<BoundReport, BoundError> {
        self.solve_warm(stats, targets, None, &mut PivotBudget::unlimited())
            .map(|(report, _)| report)
    }

    /// Like [`GammaLp::solve`], but optionally warm-starting from the final
    /// basis of a structurally compatible previous solve (same universe and
    /// statistics, same number of target rows) and returning this solve's
    /// basis for the next LP in the family.  `subw` chains selector LPs
    /// this way and `fhtw` chains per-bag LPs (whose constraints are
    /// *identical* — only the objective moves): the solve starts from the
    /// carried basis instead of `h = 0` whenever that basis is still
    /// exactly feasible, and takes over its factorisation as it stands
    /// when its basic columns are unchanged (the whole `fhtw` chain).
    ///
    /// Every simplex pivot is charged to `budget`; the solve aborts with
    /// [`BoundError::PivotBudgetExhausted`] once it runs out and with
    /// [`BoundError::Cancelled`] once its token fires.
    fn solve_warm(
        &self,
        stats: &StatisticsSet,
        targets: &[VarSet],
        hint: Option<Basis>,
        budget: &mut PivotBudget,
    ) -> Result<(BoundReport, Option<Basis>), BoundError> {
        let (outcome, basis) = self.lp.solve_warm(hint, budget).map_err(|e| match e {
            LpError::PivotBudgetExhausted { .. } => BoundError::PivotBudgetExhausted,
            LpError::Cancelled => BoundError::Cancelled,
            other => BoundError::Solver(other.to_string()),
        })?;
        let solution = match outcome {
            LpOutcome::Optimal(s) => s,
            LpOutcome::Unbounded => return Err(BoundError::Unbounded),
        };

        // λ: multipliers of the target rows (or 1 on the single target).
        let targets_with_lambda: Vec<(VarSet, Rat)> = if self.t_var.is_some() {
            self.target_rows
                .iter()
                .map(|(row, bag)| (*bag, solution.duals[*row]))
                .filter(|(_, l)| !l.is_zero())
                .collect()
        } else {
            vec![(targets[0], Rat::ONE)]
        };

        // w: multipliers of the statistics rows.
        let sources: Vec<(Statistic, Rat)> = self
            .stat_rows
            .iter()
            .zip(stats.stats())
            .map(|(row, stat)| (stat.clone(), solution.duals[*row]))
            .filter(|(_, w)| !w.is_zero())
            .collect();

        // μ: multipliers of the elemental rows `−expr_e(h) ≤ 0`.
        let witness: Vec<(Elemental, Rat)> = self
            .elemental_rows
            .iter()
            .map(|(row, e)| (*e, solution.duals[*row]))
            .filter(|(_, mu)| !mu.is_zero())
            .collect();

        // Residuals: per-subset slack of the dual-feasibility rows, which
        // corresponds to unused `h(S) ≥ 0` capacity.
        let mut flow = ShannonFlow {
            universe: self.space.universe(),
            targets: targets_with_lambda,
            sources,
            witness,
            residuals: Vec::new(),
        };
        flow.residuals = residuals_for(&flow, &self.space);
        if let Err(e) = flow.verify_identity() {
            return Err(BoundError::Solver(format!(
                "extracted Shannon flow failed verification: {e}"
            )));
        }

        Ok((BoundReport { log_bound: solution.objective, flow }, basis))
    }
}

/// Computes the per-subset residuals `r_S ≥ 0` that close the identity
/// `Σ w_c h(Y_c|X_c) = Σ λ_B h(B) + Σ μ_e expr_e + Σ r_S h(S)`.
fn residuals_for(flow: &ShannonFlow, space: &EntropyVarSpace) -> Vec<(VarSet, Rat)> {
    let mut residuals = Vec::new();
    for s in space.subsets() {
        let mut lhs = Rat::ZERO;
        for (stat, w) in &flow.sources {
            match stat.kind {
                StatKind::Degree { cond, subj } => {
                    if cond.union(subj) == s {
                        lhs += *w;
                    }
                    if cond == s {
                        lhs -= *w;
                    }
                }
                StatKind::LpNorm { cond, subj, k } => {
                    if cond.union(subj) == s {
                        lhs += *w;
                    }
                    if cond == s {
                        lhs += *w * (Rat::new(1, i128::from(k)) - Rat::ONE);
                    }
                }
            }
        }
        let mut rhs = Rat::ZERO;
        for (b, l) in &flow.targets {
            if *b == s {
                rhs += *l;
            }
        }
        for (e, mu) in &flow.witness {
            for (set, c) in e.coefficients() {
                if set == s {
                    rhs += *mu * Rat::from_int(i128::from(c));
                }
            }
        }
        let r = lhs - rhs;
        if !r.is_zero() {
            residuals.push((s, r));
        }
    }
    residuals
}

/// The polymatroid bound of a conjunctive-query output (Theorem 4.1):
/// `max { h(target) : h ⊨ S, Γ_n }` over the given variable universe.
///
/// # Example
///
/// The triangle query under cardinality constraints recovers the AGM
/// exponent `3/2` (Section 4.3):
///
/// ```
/// use panda_entropy::{polymatroid_bound, StatisticsSet};
/// use panda_query::parse_query;
/// use panda_rational::Rat;
///
/// let q = parse_query("Tri(A,B,C) :- R(A,B), S(B,C), T(A,C)").unwrap();
/// let stats = StatisticsSet::identical_cardinalities(&q, 10_000);
/// let report = polymatroid_bound(q.all_vars(), q.all_vars(), &stats).unwrap();
/// assert_eq!(report.log_bound, Rat::new(3, 2));
/// // The dual certificate is a machine-verified Shannon-flow inequality.
/// report.flow.verify_identity().unwrap();
/// ```
pub fn polymatroid_bound(
    target: VarSet,
    universe: VarSet,
    stats: &StatisticsSet,
) -> Result<BoundReport, BoundError> {
    let lp = GammaLp::build(&GammaScaffold::build(universe, stats), &[target]);
    lp.solve(stats, &[target])
}

/// The polymatroid bound of a disjunctive datalog rule (Theorem 5.1):
/// `max { min_B h(B) : h ⊨ S, Γ_n }`.
///
/// # Example
///
/// The DDR of Eq. (38) — the 4-cycle split into two triangle bags — has
/// the bound `3/2` under identical cardinalities (Eq. 45):
///
/// ```
/// use panda_entropy::{ddr_polymatroid_bound, StatisticsSet};
/// use panda_query::parse_query;
/// use panda_rational::Rat;
///
/// let q = parse_query("Q(X,Y) :- R(X,Y), S(Y,Z), T(Z,W), U(W,X)").unwrap();
/// let stats = StatisticsSet::identical_cardinalities(&q, 1000);
/// let xyz = q.atoms()[0].var_set().union(q.atoms()[1].var_set());
/// let yzw = q.atoms()[1].var_set().union(q.atoms()[2].var_set());
/// let report = ddr_polymatroid_bound(&[xyz, yzw], q.all_vars(), &stats).unwrap();
/// assert_eq!(report.log_bound, Rat::new(3, 2));
/// ```
pub fn ddr_polymatroid_bound(
    targets: &[VarSet],
    universe: VarSet,
    stats: &StatisticsSet,
) -> Result<BoundReport, BoundError> {
    let lp = GammaLp::build(&GammaScaffold::build(universe, stats), targets);
    lp.solve(stats, targets)
}

/// The AGM bound of a query under per-relation cardinalities: the
/// polymatroid bound with only cardinality constraints, which the paper
/// notes collapses to the fractional edge cover bound and is tight.
///
/// `sizes` maps relation symbols to their cardinalities; atoms missing from
/// the map are given size `base`.  The target is the full variable set.
///
/// # Example
///
/// ```
/// use panda_entropy::agm_bound;
/// use panda_query::parse_query;
/// use panda_rational::Rat;
///
/// let q = parse_query("Tri(A,B,C) :- R(A,B), S(B,C), T(A,C)").unwrap();
/// let report = agm_bound(&q, &[], 10_000).unwrap();
/// assert_eq!(report.log_bound, Rat::new(3, 2)); // |output| ≤ N^{3/2}
/// ```
pub fn agm_bound(
    query: &ConjunctiveQuery,
    sizes: &[(&str, u64)],
    base: u64,
) -> Result<BoundReport, BoundError> {
    let mut stats = StatisticsSet::new(base.max(2));
    for atom in query.atoms() {
        let size = sizes.iter().find(|(name, _)| *name == atom.relation).map_or(base, |(_, s)| *s);
        stats.add_cardinality(atom.relation.clone(), atom.var_set(), size);
    }
    polymatroid_bound(query.all_vars(), query.all_vars(), &stats)
}

/// The fractional hypertree width of a query under statistics (Eq. 22),
/// using the query's enumerated free-connex tree decompositions.
///
/// # Example
///
/// Section 4.3: `fhtw(Q□, S□) = 2` for the 4-cycle, while its submodular
/// width ([`subw`]) is only `3/2` — the gap PANDA's adaptive plans exploit:
///
/// ```
/// use panda_entropy::{fhtw, subw, StatisticsSet};
/// use panda_query::parse_query;
/// use panda_rational::Rat;
///
/// let q = parse_query("Q(X,Y) :- R(X,Y), S(Y,Z), T(Z,W), U(W,X)").unwrap();
/// let stats = StatisticsSet::identical_cardinalities(&q, 1 << 20);
/// assert_eq!(fhtw(&q, &stats).unwrap().value, Rat::from_int(2));
/// assert_eq!(subw(&q, &stats).unwrap().value, Rat::new(3, 2));
/// ```
pub fn fhtw(query: &ConjunctiveQuery, stats: &StatisticsSet) -> Result<FhtwReport, BoundError> {
    let tds = TreeDecomposition::enumerate(query);
    fhtw_with_tds_budgeted(query, &tds, stats, &mut PivotBudget::unlimited())
}

/// [`fhtw`] over an explicit set of tree decompositions, with every
/// simplex pivot of the per-bag LP chain charged to a shared
/// [`PivotBudget`]; aborts with [`BoundError::PivotBudgetExhausted`] once
/// the budget runs out and with [`BoundError::Cancelled`] once its token
/// fires.  The budget counts pivots, it never alters one, so a chain that
/// completes returns bit-for-bit the same report under any limit.  A bag
/// shared by several decompositions is solved once, where it first occurs,
/// and every decomposition's entry for it carries that report.
///
/// # Panics
///
/// Panics if `tds` is empty.
pub fn fhtw_with_tds_budgeted(
    query: &ConjunctiveQuery,
    tds: &[TreeDecomposition],
    stats: &StatisticsSet,
    budget: &mut PivotBudget,
) -> Result<FhtwReport, BoundError> {
    let scaffold = GammaScaffold::build(query.all_vars(), stats);
    let mut per_td: Vec<TdCost> = Vec::with_capacity(tds.len());
    // Each distinct bag is solved once, at its first occurrence; later
    // occurrences reuse that report.  Per-bag LPs share every constraint
    // (only the objective moves), so each solve warm-starts from the
    // previous solve's optimal basis.
    let mut solved: BTreeMap<VarSet, BoundReport> = BTreeMap::new();
    let mut carried: Option<Basis> = None;
    for td in tds {
        let mut worst = Rat::ZERO;
        let mut per_bag = Vec::with_capacity(td.num_bags());
        for &bag in td.bags() {
            let report = match solved.get(&bag) {
                Some(report) => report.clone(),
                None => {
                    let lp = GammaLp::build(&scaffold, &[bag]);
                    let (report, basis) = lp.solve_warm(stats, &[bag], carried.take(), budget)?;
                    // An Ok solve is always Optimal here, and Optimal
                    // always carries a basis.
                    carried = basis;
                    solved.insert(bag, report.clone());
                    report
                }
            };
            worst = worst.max(report.log_bound);
            per_bag.push((bag, report));
        }
        per_td.push((td.clone(), worst, per_bag));
    }
    // The first decomposition of minimum cost is the best one.
    let best = per_td
        .iter()
        .enumerate()
        .min_by(|a, b| a.1 .1.cmp(&b.1 .1))
        .map(|(i, _)| i)
        .expect("fhtw requires at least one tree decomposition");
    Ok(FhtwReport { value: per_td[best].1, best, per_td })
}

/// The submodular width of a query under statistics (Eq. 41), using the
/// query's enumerated free-connex tree decompositions.
pub fn subw(query: &ConjunctiveQuery, stats: &StatisticsSet) -> Result<SubwReport, BoundError> {
    let tds = TreeDecomposition::enumerate(query);
    subw_with_tds_budgeted(query, &tds, stats, &mut PivotBudget::unlimited())
}

/// [`subw`] over an explicit set of tree decompositions, with every
/// simplex pivot of the selector LP chain charged to a shared
/// [`PivotBudget`]; aborts with [`BoundError::PivotBudgetExhausted`] once
/// the budget runs out and with [`BoundError::Cancelled`] once its token
/// fires.  A chain that completes returns bit-for-bit the same report
/// under any limit.  The chain is sequential by design: its per-selector
/// Shannon flows seed the adaptive partitions, so its shape must not
/// depend on a thread count.
///
/// # Panics
///
/// Panics if `tds` is empty.
pub fn subw_with_tds_budgeted(
    query: &ConjunctiveQuery,
    tds: &[TreeDecomposition],
    stats: &StatisticsSet,
    budget: &mut PivotBudget,
) -> Result<SubwReport, BoundError> {
    assert!(!tds.is_empty(), "subw requires at least one tree decomposition");
    let scaffold = GammaScaffold::build(query.all_vars(), stats);
    let per_selector = selector_chain(&scaffold, stats, BagSelector::enumerate(tds), None, budget)?;
    Ok(SubwReport::new(tds, per_selector))
}

/// [`subw`] when `fhtw` — the `fhtw` chain's report over the same `tds`
/// and `stats` — is already known, for the one question the selector asks:
/// is `subw < fhtw`?  The value is exact either way; only the evidence
/// differs.  Since `subw ≤ fhtw` always holds, one selector whose bound
/// reaches `fhtw` settles `subw = fhtw`, and a selector `S` can reach it
/// only if its upper bound `UB(S) = min_{B ∈ S} h*(B)` does, where `h*(B)`
/// is bag `B`'s bound, already solved by the `fhtw` chain.  Three steps:
///
/// 1. A selector of one bag `{B}` with `h*(B) = fhtw` is its own witness:
///    its LP *is* that bag's LP, so its report is the `fhtw` chain's, and
///    no LP is solved.
/// 2. Otherwise the selectors with `UB(S) ≥ fhtw` are solved in the full
///    chain's order and warm-start chain, stopping at the first whose bound
///    reaches `fhtw`: the report holds that one witness.
/// 3. If none does, `subw < fhtw`.  When step 2 skipped no selector it was
///    the full chain, and its report is kept; otherwise the full chain runs.
///    Either way [`SubwReport::per_selector`] is the complete list of
///    [`subw_with_tds_budgeted`], bit for bit, because the adaptive plan
///    needs every selector's flow.
///
/// Pivots and the cancel token are charged to `budget` as in
/// [`subw_with_tds_budgeted`].
///
/// # Panics
///
/// Panics if `tds` is empty.
pub fn subw_against_fhtw(
    query: &ConjunctiveQuery,
    tds: &[TreeDecomposition],
    stats: &StatisticsSet,
    fhtw: &FhtwReport,
    budget: &mut PivotBudget,
) -> Result<SubwReport, BoundError> {
    assert!(!tds.is_empty(), "subw requires at least one tree decomposition");
    let selectors = BagSelector::enumerate(tds);
    let bag_bound = |bag: VarSet| {
        fhtw.per_td
            .iter()
            .flat_map(|(_, _, per_bag)| per_bag)
            .find(|(b, _)| *b == bag)
            .map(|(_, report)| report)
    };
    let reaches = |report: &BoundReport| report.log_bound >= fhtw.value;

    let singleton = selectors.iter().find_map(|selector| match selector.bags() {
        [bag] => bag_bound(*bag)
            .filter(|report| reaches(report))
            .map(|report| SelectorBound { selector: selector.clone(), report: report.clone() }),
        _ => None,
    });
    if let Some(witness) = singleton {
        return Ok(SubwReport::new(tds, vec![witness]));
    }

    // A bag the fhtw chain did not solve leaves its selector a candidate.
    let candidates: Vec<BagSelector> = selectors
        .iter()
        .filter(|selector| selector.bags().iter().all(|&bag| bag_bound(bag).map_or(true, reaches)))
        .cloned()
        .collect();
    let skipped_none = candidates.len() == selectors.len();
    let scaffold = GammaScaffold::build(query.all_vars(), stats);
    let pass = selector_chain(&scaffold, stats, candidates, Some(fhtw.value), budget)?;
    if let Some(witness) = pass.last().filter(|last| reaches(&last.report)) {
        return Ok(SubwReport::new(tds, vec![witness.clone()]));
    }
    if skipped_none {
        return Ok(SubwReport::new(tds, pass));
    }
    let per_selector = selector_chain(&scaffold, stats, selectors, None, budget)?;
    Ok(SubwReport::new(tds, per_selector))
}

/// The selector LP chain: solves `selectors` in order over `scaffold`,
/// charging `budget`, and stops after the first selector whose bound
/// reaches `stop_at`, if one is given.  Selector LPs share the Γ_n
/// scaffold and differ only in their target rows; consecutive selectors
/// with equally many bags are structurally compatible, so the optimal
/// basis carries over whenever it is still feasible, with its
/// factorisation when the changed target columns are all nonbasic.
fn selector_chain(
    scaffold: &GammaScaffold,
    stats: &StatisticsSet,
    selectors: Vec<BagSelector>,
    stop_at: Option<Rat>,
    budget: &mut PivotBudget,
) -> Result<Vec<SelectorBound>, BoundError> {
    let mut per_selector = Vec::with_capacity(selectors.len());
    let mut carried: Option<Basis> = None;
    for selector in selectors {
        let lp = GammaLp::build(scaffold, selector.bags());
        let (report, basis) = lp.solve_warm(stats, selector.bags(), carried.take(), budget)?;
        // An Ok solve is always Optimal here, and Optimal always carries a
        // basis.
        carried = basis;
        let stop = stop_at.is_some_and(|target| report.log_bound >= target);
        per_selector.push(SelectorBound { selector, report });
        if stop {
            break;
        }
    }
    Ok(per_selector)
}

#[cfg(test)]
mod tests {
    use super::*;
    use panda_query::{parse_query, Var};

    fn vs(vars: &[u32]) -> VarSet {
        vars.iter().map(|&v| Var(v)).collect()
    }

    fn four_cycle() -> ConjunctiveQuery {
        parse_query("Q(X,Y) :- R(X,Y), S(Y,Z), T(Z,W), U(W,X)").unwrap()
    }

    fn s_square(n: u64) -> StatisticsSet {
        StatisticsSet::identical_cardinalities(&four_cycle(), n)
    }

    #[test]
    fn triangle_agm_bound_is_three_halves() {
        let q = parse_query("Tri(A,B,C) :- R(A,B), S(B,C), T(A,C)").unwrap();
        let n = 10_000;
        let report = agm_bound(&q, &[("R", n), ("S", n), ("T", n)], n).unwrap();
        assert_eq!(report.log_bound, Rat::new(3, 2));
        let expected = (n as f64).powf(1.5);
        assert!((report.tuple_bound() - expected).abs() / expected < 1e-6);
        report.flow.verify_identity().unwrap();
        assert_eq!(report.flow.lambda_total(), Rat::ONE);
    }

    #[test]
    fn four_cycle_agm_bound_is_two() {
        let q = four_cycle().with_free(vs(&[0, 1, 2, 3]));
        let report = agm_bound(&q, &[], 1000).unwrap();
        assert_eq!(report.log_bound, Rat::from_int(2));
        report.flow.verify_identity().unwrap();
    }

    #[test]
    fn single_bag_bounds_of_the_four_cycle_are_two() {
        // Section 4.3: max h(XYZ) = max h(ZWX) = 2 under S□.
        let stats = s_square(1000);
        let universe = vs(&[0, 1, 2, 3]);
        for bag in [vs(&[0, 1, 2]), vs(&[0, 2, 3]), vs(&[1, 2, 3]), vs(&[0, 1, 3])] {
            let report = polymatroid_bound(bag, universe, &stats).unwrap();
            assert_eq!(report.log_bound, Rat::from_int(2), "bag {bag:?}");
            report.flow.verify_identity().unwrap();
        }
    }

    #[test]
    fn fhtw_of_the_four_cycle_is_two() {
        // Section 4.3: fhtw(Q□, S□) = 2.
        let q = four_cycle();
        let stats = s_square(1000);
        let report = fhtw(&q, &stats).unwrap();
        assert_eq!(report.value, Rat::from_int(2));
        assert_eq!(report.per_td.len(), 2);
        for (_, cost, _) in &report.per_td {
            assert_eq!(*cost, Rat::from_int(2));
        }
        assert_eq!(report.best_td().num_bags(), 2);
    }

    #[test]
    fn fhtw_chain_certificates_match_cold_per_bag_solves() {
        // The chain's warm-started per-bag reports are the certificates a
        // static plan ships; a cold solve of each bag is the reference.
        for text in [
            "Q(X,Y) :- R(X,Y), S(Y,Z), T(Z,W), U(W,X)",
            "Tri(A,B,C) :- R(A,B), S(B,C), T(A,C)",
            "Q(A) :- R(A,B), S(B,C), T(C,A), U(A,D), V(D,E), W(E,A)",
        ] {
            let q = parse_query(text).unwrap();
            let stats = StatisticsSet::identical_cardinalities(&q, 1000);
            let report = fhtw(&q, &stats).unwrap();
            for (_, _, per_bag) in &report.per_td {
                for (bag, bound) in per_bag {
                    bound.flow.verify_identity().unwrap();
                    assert_eq!(bound.flow.log_bound(), bound.log_bound, "{text}: {bag:?}");
                    let cold = polymatroid_bound(*bag, q.all_vars(), &stats).unwrap();
                    assert_eq!(bound.log_bound, cold.log_bound, "{text}: {bag:?}");
                }
            }
        }
    }

    #[test]
    fn ddr_bound_of_eq38_is_three_halves() {
        // Eq. (45)/(61): max min(h(XYZ), h(YZW)) = 3/2 under S□.
        let stats = s_square(1000);
        let universe = vs(&[0, 1, 2, 3]);
        let report =
            ddr_polymatroid_bound(&[vs(&[0, 1, 2]), vs(&[1, 2, 3])], universe, &stats).unwrap();
        assert_eq!(report.log_bound, Rat::new(3, 2));
        let flow = &report.flow;
        flow.verify_identity().unwrap();
        assert_eq!(flow.lambda_total(), Rat::ONE);
        // Eq. (55): λ = (1/2, 1/2); Σ w = 3/2 with the U-relation unused.
        assert_eq!(flow.targets.len(), 2);
        assert!(flow.targets.iter().all(|(_, l)| *l == Rat::new(1, 2)));
        let total_w: Rat = flow.sources.iter().map(|(_, w)| *w).sum();
        assert_eq!(total_w, Rat::new(3, 2));
        assert_eq!(flow.weight_of("|U| ≤ 1000"), Rat::ZERO);
        // The bound in tuples is N^{3/2} (Eq. 61).
        let expected = 1000f64.powf(1.5);
        assert!((report.tuple_bound() - expected).abs() / expected < 1e-9);
    }

    #[test]
    fn subw_of_the_four_cycle_is_three_halves() {
        // Eq. (44): subw(Q□, S□) = 3/2, attained by all four bag selectors.
        let q = four_cycle();
        let stats = s_square(1000);
        let report = subw(&q, &stats).unwrap();
        assert_eq!(report.value, Rat::new(3, 2));
        assert_eq!(report.per_selector.len(), 4);
        for sel in &report.per_selector {
            assert_eq!(sel.report.log_bound, Rat::new(3, 2));
            sel.report.flow.verify_identity().unwrap();
        }
        assert_eq!(report.hardest().report.log_bound, Rat::new(3, 2));
        // subw ≤ fhtw (Section 6).
        let f = fhtw(&q, &stats).unwrap();
        assert!(report.value <= f.value);
    }

    #[test]
    fn boolean_four_cycle_has_the_same_widths() {
        let q = parse_query("Q() :- R(X,Y), S(Y,Z), T(Z,W), U(W,X)").unwrap();
        let stats = StatisticsSet::identical_cardinalities(&q, 1 << 20);
        assert_eq!(subw(&q, &stats).unwrap().value, Rat::new(3, 2));
        assert_eq!(fhtw(&q, &stats).unwrap().value, Rat::from_int(2));
    }

    #[test]
    fn functional_dependencies_tighten_the_full_four_cycle_bound() {
        // S_full of Eq. (16) with C = 1 (a hard FD both ways): the paper's
        // Shannon inequality (20) gives h(XYZW) ≤ 3/2.
        let q = four_cycle().with_free(vs(&[0, 1, 2, 3]));
        let n: u64 = 1 << 20;
        let (x, w) = (Var(0), Var(3));
        let mut stats = StatisticsSet::identical_cardinalities(&q, n);
        stats.add_functional_dependency("U", VarSet::singleton(w), VarSet::singleton(x));
        stats.add_functional_dependency("U", VarSet::singleton(x), VarSet::singleton(w));
        let report = polymatroid_bound(q.all_vars(), q.all_vars(), &stats).unwrap();
        assert_eq!(report.log_bound, Rat::new(3, 2));
        report.flow.verify_identity().unwrap();
        // Without the FDs the bound is the AGM bound 2.
        let plain = polymatroid_bound(
            q.all_vars(),
            q.all_vars(),
            &StatisticsSet::identical_cardinalities(&q, n),
        )
        .unwrap();
        assert_eq!(plain.log_bound, Rat::from_int(2));
    }

    #[test]
    fn lp_norm_constraints_tighten_bounds() {
        // Section 9.2 / Cauchy–Schwarz: for the 2-path join R(X,Y) ⋈ S(Y,Z)
        // with ℓ2-norm bounds √N on the degree sequences of the *join*
        // variable — ‖deg_R(X|Y=y)‖₂ ≤ √N and ‖deg_S(Z|Y=y)‖₂ ≤ √N — the
        // output bound drops from the AGM value N² to N, because
        // h(XYZ) ≤ ½h(Y)+h(X|Y) + ½h(Y)+h(Z|Y) ≤ 1.
        let q = parse_query("P(X,Y,Z) :- R(X,Y), S(Y,Z)").unwrap();
        let n: u64 = 1 << 20;
        let x = q.var_by_name("X").unwrap();
        let y = q.var_by_name("Y").unwrap();
        let z = q.var_by_name("Z").unwrap();
        let mut stats = StatisticsSet::identical_cardinalities(&q, n);
        let plain = polymatroid_bound(q.all_vars(), q.all_vars(), &stats).unwrap();
        assert_eq!(plain.log_bound, Rat::from_int(2));
        stats.add_lp_norm("R", VarSet::singleton(y), VarSet::singleton(x), 2, 1 << 10);
        stats.add_lp_norm("S", VarSet::singleton(y), VarSet::singleton(z), 2, 1 << 10);
        let tightened = polymatroid_bound(q.all_vars(), q.all_vars(), &stats).unwrap();
        assert_eq!(tightened.log_bound, Rat::ONE);
        tightened.flow.verify_identity().unwrap();
    }

    #[test]
    fn unbounded_when_a_variable_is_unconstrained() {
        let q = parse_query("Q(X,Y) :- R(X), S(Y)").unwrap();
        let mut stats = StatisticsSet::new(100);
        stats.add_cardinality("R", VarSet::singleton(Var(0)), 100);
        // S's variable Y is unconstrained ⇒ the output can be arbitrarily large.
        let err = polymatroid_bound(q.all_vars(), q.all_vars(), &stats).unwrap_err();
        assert_eq!(err, BoundError::Unbounded);
    }

    #[test]
    fn acyclic_query_fhtw_is_one() {
        let q = parse_query("P(A,B,C) :- R(A,B), S(B,C)").unwrap();
        let stats = StatisticsSet::identical_cardinalities(&q, 4096);
        let report = fhtw(&q, &stats).unwrap();
        assert_eq!(report.value, Rat::ONE);
        let s = subw(&q, &stats).unwrap();
        assert_eq!(s.value, Rat::ONE);
    }

    #[test]
    fn revised_and_dense_engines_agree_bitwise_on_the_gamma_corpus() {
        // The acceptance bar for the revised engine: bit-for-bit identical
        // rational optima *and duals* to the dense reference on every
        // Γ_n LP the paper's queries produce — the duals are what the
        // Shannon-flow extraction reads, so "close" is not good enough.
        let four = four_cycle();
        let universe4 = vs(&[0, 1, 2, 3]);
        let mut cases: Vec<(VarSet, StatisticsSet, Vec<VarSet>)> = Vec::new();
        // Single-bag polymatroid bounds under S□.
        for bag in [vs(&[0, 1, 2]), vs(&[0, 2, 3]), vs(&[1, 2, 3]), vs(&[0, 1, 2, 3])] {
            cases.push((universe4, s_square(1000), vec![bag]));
        }
        // The DDR of Eq. (38) and a three-target variant.
        cases.push((universe4, s_square(1000), vec![vs(&[0, 1, 2]), vs(&[1, 2, 3])]));
        cases.push((
            universe4,
            s_square(1000),
            vec![vs(&[0, 1, 2]), vs(&[1, 2, 3]), vs(&[0, 2, 3])],
        ));
        // S_full of Eq. (16): functional dependencies and a √N degree.
        let mut s_full = StatisticsSet::identical_cardinalities(&four, 1 << 20);
        s_full.add_functional_dependency("U", VarSet::singleton(Var(3)), VarSet::singleton(Var(0)));
        s_full.add_degree("U", VarSet::singleton(Var(0)), VarSet::singleton(Var(3)), 1 << 10);
        cases.push((universe4, s_full, vec![universe4]));
        // ℓ₂-norm statistics (Section 9.2) on the 2-path join.
        let two_path = parse_query("P(X,Y,Z) :- R(X,Y), S(Y,Z)").unwrap();
        let mut s_norm = StatisticsSet::identical_cardinalities(&two_path, 1 << 20);
        s_norm.add_lp_norm("R", VarSet::singleton(Var(1)), VarSet::singleton(Var(0)), 2, 1 << 10);
        s_norm.add_lp_norm("S", VarSet::singleton(Var(1)), VarSet::singleton(Var(2)), 2, 1 << 10);
        cases.push((two_path.all_vars(), s_norm, vec![two_path.all_vars()]));

        for (universe, stats, targets) in cases {
            let gamma = GammaLp::build(&GammaScaffold::build(universe, &stats), &targets);
            let dense = gamma.lp.solve_dense().unwrap();
            let revised = gamma.lp.solve().unwrap();
            assert_eq!(dense, revised, "engines diverge on targets {targets:?}");
        }
    }

    #[test]
    fn warm_started_selector_chain_matches_cold_bounds() {
        // subw threads a basis across selector LPs; the optimal values must
        // be identical to cold per-selector solves.
        let q = four_cycle();
        let stats = s_square(1000);
        let report = subw(&q, &stats).unwrap();
        for sel in &report.per_selector {
            let cold = ddr_polymatroid_bound(sel.selector.bags(), q.all_vars(), &stats).unwrap();
            assert_eq!(cold.log_bound, sel.report.log_bound);
            sel.report.flow.verify_identity().unwrap();
        }
    }

    /// Asserts that deciding `subw` against `fhtw` gives the full chain's
    /// value, its complete certificate list when there is a gap, and
    /// otherwise one verified witness at `fhtw`.  A single-TD query decides
    /// without an LP.
    fn assert_decision_matches_full_chain(
        label: &str,
        q: &ConjunctiveQuery,
        stats: &StatisticsSet,
    ) {
        let tds = TreeDecomposition::enumerate(q);
        let fhtw = fhtw_with_tds_budgeted(q, &tds, stats, &mut PivotBudget::unlimited()).unwrap();
        let full = subw_with_tds_budgeted(q, &tds, stats, &mut PivotBudget::unlimited()).unwrap();
        let mut budget = PivotBudget::unlimited();
        let decided = subw_against_fhtw(q, &tds, stats, &fhtw, &mut budget).unwrap();
        assert_eq!(decided.value, full.value, "{label}: value");
        assert_eq!(decided.tds, full.tds, "{label}: decompositions");
        if decided.value < fhtw.value {
            assert_eq!(decided.per_selector.len(), full.per_selector.len(), "{label}");
            for (d, f) in decided.per_selector.iter().zip(&full.per_selector) {
                assert_eq!(d.selector, f.selector, "{label}: selector");
                assert_eq!(d.report, f.report, "{label}: bound and certificate");
            }
        } else {
            let [witness] = decided.per_selector.as_slice() else {
                panic!("{label}: one witness expected, got {}", decided.per_selector.len())
            };
            witness.report.flow.verify_identity().unwrap();
            assert_eq!(witness.report.log_bound, fhtw.value, "{label}: witness");
        }
        if tds.len() == 1 {
            assert_eq!(budget.used(), 0, "{label}: a single-TD decision solves no LP");
        }
    }

    fn two_rows() -> panda_relation::Database {
        let mut db = panda_relation::Database::new();
        db.insert("R", panda_relation::Relation::from_rows(2, vec![[1, 2], [2, 1]]));
        db
    }

    #[test]
    fn deciding_subw_against_fhtw_equals_the_full_chain() {
        use panda_workloads::{double_star_db, erdos_renyi_db, four_cycle_projected};
        let shapes = [
            "Q(X,Y) :- R(X,Y), S(Y,Z), T(Z,W), U(W,X)",
            "Q(X,Y) :- R(X,Y), S(Y,Z), T(Z,W), U(W,X), V(X,Z)",
            "Q(A) :- R(A,B), S(B,C), T(C,A), U(A,D), V(D,E), W(E,A)",
            "Q(A) :- R(A,B), S(B,C), T(C,D), U(D,E), V(E,A), W(A,C), P(A,D)",
            "Q(A,E) :- R(A,B), S(B,C), T(A,C), U(B,D), V(C,D), W(D,E)",
        ];
        for seed in 1..=3 {
            let db = erdos_renyi_db(&["R", "S", "T", "U", "V", "W", "P"], 30, 121, seed);
            for text in shapes {
                let q = parse_query(text).unwrap();
                let stats = StatisticsSet::measure(&q, &db);
                assert_decision_matches_full_chain(&format!("{text} / {seed}"), &q, &stats);
            }
        }
        let c4 = four_cycle_projected();
        assert_decision_matches_full_chain("4-cycle under S□", &c4, &s_square(1 << 12));
        for half in [16, 64] {
            let stats = StatisticsSet::measure(&c4, &double_star_db(half));
            assert_decision_matches_full_chain(&format!("4-cycle / star {half}"), &c4, &stats);
        }
        let triangle = parse_query("Q(A,B,C) :- R(A,B), R(B,C), R(C,A)").unwrap();
        let stats = StatisticsSet::measure(&triangle, &two_rows());
        assert_decision_matches_full_chain("triangle / two rows", &triangle, &stats);
    }

    #[test]
    fn the_four_path_decision_skips_to_its_one_candidate() {
        let q = parse_query("Q(A,E) :- R(A,B), S(B,C), T(C,D), U(D,E)").unwrap();
        let db = panda_workloads::erdos_renyi_db(&["R", "S", "T", "U"], 30, 120, 7);
        assert_decision_matches_full_chain("4-path", &q, &StatisticsSet::measure(&q, &db));
    }

    #[test]
    fn the_five_cycle_over_two_rows_is_decided_by_its_first_selector() {
        let q = parse_query("Q(A,B) :- R(A,B), R(B,C), R(C,D), R(D,E), R(E,A)").unwrap();
        assert_decision_matches_full_chain("5-cycle", &q, &StatisticsSet::measure(&q, &two_rows()));
    }

    #[test]
    fn the_five_cycle_fhtw_chain_starts_at_h_zero() {
        // Every row of a Γ_n LP is `≤ b` with `b ≥ 0`, so each LP of the
        // chain starts from the all-slack basis (h = 0); a solver that
        // first searched for a feasible point elsewhere took 753 pivots
        // here.
        // The 5 TDs list 15 bags, 10 of them distinct; each distinct bag's
        // LP is solved once.
        let q = parse_query("Q(A,B) :- R(A,B), S(B,C), T(C,D), U(D,E), V(E,A)").unwrap();
        let stats = StatisticsSet::identical_cardinalities(&q, 1000);
        let tds = TreeDecomposition::enumerate(&q);
        let mut budget = PivotBudget::unlimited();
        let report = fhtw_with_tds_budgeted(&q, &tds, &stats, &mut budget).unwrap();
        assert_eq!(report.value, Rat::from_int(2));
        assert_eq!(report.per_td.iter().map(|(_, _, per_bag)| per_bag.len()).sum::<usize>(), 15);
        assert_eq!(budget.used(), 154);
    }

    #[test]
    fn bound_report_flows_are_integralisable() {
        let stats = s_square(1000);
        let universe = vs(&[0, 1, 2, 3]);
        let report =
            ddr_polymatroid_bound(&[vs(&[0, 1, 2]), vs(&[1, 2, 3])], universe, &stats).unwrap();
        let integral = report.flow.to_integral().unwrap();
        integral.verify_identity().unwrap();
        assert!(integral.scale >= 1);
        assert_eq!(integral.num_target_occurrences() % integral.targets.len() as u64, 0);
    }
}
