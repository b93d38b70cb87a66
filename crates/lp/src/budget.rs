//! Deterministic pivot-count budgets.
//!
//! PANDA's planner solves *chains* of polymatroid LPs (one per tree
//! decomposition, bag or bag selector), and on adversarial queries the
//! number of selectors — and hence the total simplex work — can blow up.
//! A budget bounds that work so callers can downgrade to a cheaper plan
//! instead of stalling.
//!
//! The unit is **pivots, never wall-clock time**: the pivot sequence of the
//! exact-rational simplex is a pure function of the program, so a budget of
//! `k` pivots aborts at exactly the same point on every machine, at every
//! thread count, on every run.  (A wall-clock budget would reintroduce the
//! nondeterminism the workspace's D3 lint exists to keep out of library
//! code.)
//!
//! A single [`PivotBudget`] is threaded by `&mut` through a whole chain of
//! [`solve_warm`](crate::LinearProgram::solve_warm) calls, so the budget
//! bounds the *total* work of the chain, not each solve separately.  Every
//! solve has one: "no budget" is [`PivotBudget::unlimited`], a limit of
//! `u64::MAX` that no chain can reach, so there is no unbudgeted pivot
//! loop beside the budgeted one.
//!
//! The budget counters double as the library's **cancellation points**: a
//! [`CancelToken`] attached with [`PivotBudget::with_cancel_token`] is
//! polled wherever a pivot would be consumed — never a wall clock, so the
//! serving layer's cooperative cancellation rides the same deterministic
//! counters as the budgets themselves, whether or not a limit is set.

// panda-lint: allow(D2) -- the one-way cooperative cancel flag below:
// observing it can only *abort* a solve with a structured error, never
// change a completed result, so scheduling order cannot reach an output.
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared, one-way cooperative cancellation flag.
///
/// A token starts un-cancelled; [`CancelToken::cancel`] flips it, forever.
/// Attached to a [`PivotBudget`] via [`PivotBudget::with_cancel_token`],
/// the flag is polled at the budget's own counting points (every pivot of
/// a solve), so a cancelled token makes the solve abort with
/// [`LpError::Cancelled`](crate::LpError::Cancelled) at the next pivot.
///
/// Cancellation is **cooperative and best-effort**: a solve that finishes
/// before the next poll completes normally, and the completed result is
/// identical to an uncancelled run (the flag can only abort work, never
/// alter it).  That property is what keeps the flag deterministic-safe:
/// outputs remain bit-reproducible functions of the inputs; the only
/// scheduling-dependent observable is *whether* a run its owner asked to
/// stop did stop early — exactly the observable the owner requested.
///
/// ```
/// use panda_lp::CancelToken;
///
/// let token = CancelToken::new();
/// assert!(!token.is_cancelled());
/// let shared = token.clone(); // clones observe the same flag
/// shared.cancel();
/// assert!(token.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    // panda-lint: allow(D2) -- see the module-level justification above:
    // the flag is one-way and can only abort, never reorder or rewrite.
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// Creates a fresh, un-cancelled token.
    #[must_use]
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation.  One-way: there is no `uncancel`.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// `true` once [`CancelToken::cancel`] has been called on this token
    /// or any clone of it.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// A deterministic budget on simplex pivots, shared across a chain of
/// solves.
///
/// Each pivot of a solve consumes one unit; when the budget runs
/// out the solve aborts with
/// [`LpError::PivotBudgetExhausted`](crate::LpError::PivotBudgetExhausted)
/// instead of continuing to optimality.  [`PivotBudget::used`] reports how
/// many pivots the chain has consumed so far, which callers surface for
/// observability.
///
/// A [`CancelToken`] may be attached with
/// [`PivotBudget::with_cancel_token`]: the budget then doubles as the
/// solve's cancellation point — the token is polled at every pivot, and a
/// cancelled token aborts the solve with
/// [`LpError::Cancelled`](crate::LpError::Cancelled) *without* consuming
/// the pivot.  Polling costs no budget, so a token that is never
/// cancelled leaves the pivot sequence — and hence the result — exactly
/// as if no token were attached.
///
/// Equality compares the deterministic counters (`limit`, `used`) only;
/// an attached cancel token is runtime plumbing, not budget state.
///
/// ```
/// use panda_lp::PivotBudget;
///
/// let budget = PivotBudget::new(1_000);
/// assert_eq!(budget.limit(), 1_000);
/// assert_eq!(budget.used(), 0);
/// assert_eq!(budget.remaining(), 1_000);
/// assert!(!budget.is_exhausted());
/// ```
#[derive(Debug, Clone)]
pub struct PivotBudget {
    limit: u64,
    used: u64,
    cancel: Option<CancelToken>,
}

impl PartialEq for PivotBudget {
    fn eq(&self, other: &Self) -> bool {
        self.limit == other.limit && self.used == other.used
    }
}

impl Eq for PivotBudget {}

impl PivotBudget {
    /// Creates a budget allowing `limit` pivots in total.
    #[must_use]
    pub fn new(limit: u64) -> Self {
        PivotBudget { limit, used: 0, cancel: None }
    }

    /// The budget of a solve nobody limited: `u64::MAX` pivots, which no
    /// chain reaches, so it only counts — and, with a token attached,
    /// still cancels.
    #[must_use]
    pub fn unlimited() -> Self {
        PivotBudget::new(u64::MAX)
    }

    /// Attaches a cooperative [`CancelToken`], polled at every pivot.
    #[must_use]
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// `true` iff an attached [`CancelToken`] has been cancelled.  Always
    /// `false` when no token is attached.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// The total number of pivots this budget allows.
    #[must_use]
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// Pivots consumed so far across every solve this budget was passed to.
    #[must_use]
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Pivots still available.
    #[must_use]
    pub fn remaining(&self) -> u64 {
        self.limit.saturating_sub(self.used)
    }

    /// `true` once every pivot has been consumed.
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        self.used >= self.limit
    }

    /// Consumes one pivot; returns `false` (consuming nothing) when the
    /// budget is already exhausted.
    pub(crate) fn consume(&mut self) -> bool {
        if self.used >= self.limit {
            return false;
        }
        self.used += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_down_and_refuses_past_the_limit() {
        let mut b = PivotBudget::new(2);
        assert!(b.consume());
        assert!(b.consume());
        assert!(!b.consume());
        assert!(b.is_exhausted());
        assert_eq!(b.used(), 2);
        assert_eq!(b.remaining(), 0);
    }

    #[test]
    fn zero_budget_is_exhausted_immediately() {
        let mut b = PivotBudget::new(0);
        assert!(b.is_exhausted());
        assert!(!b.consume());
        assert_eq!(b.used(), 0);
    }

    #[test]
    fn cancel_tokens_are_shared_and_one_way() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!token.is_cancelled() && !clone.is_cancelled());
        clone.cancel();
        assert!(token.is_cancelled() && clone.is_cancelled());
    }

    #[test]
    fn budget_polls_its_token_without_consuming_pivots() {
        let token = CancelToken::new();
        let mut b = PivotBudget::new(10).with_cancel_token(token.clone());
        assert!(!b.is_cancelled());
        assert!(b.consume());
        token.cancel();
        assert!(b.is_cancelled());
        // Polling the token never consumed a pivot.
        assert_eq!(b.used(), 1);
        // Equality ignores the attached token: only the counters matter.
        assert_eq!(b, PivotBudget { limit: 10, used: 1, cancel: None });
    }
}
