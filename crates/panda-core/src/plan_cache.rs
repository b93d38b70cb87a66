//! The cross-query plan cache.
//!
//! Planning a cyclic query is LP work — the fhtw/subw chains dominate
//! end-to-end time on small and medium inputs — and it is a pure function
//! of `(query structure, statistics, budgets, requested strategy)`: the
//! selector never sees the data.  This module caches completed
//! (crate-internal) `Selection`s process-wide under exactly that key, so a
//! repeated (or structurally-isomorphic — see [`crate::fingerprint`]) query
//! skips straight to binding, the per-request step that applies the plan
//! to the request's data (branches, shared subplans, the branch and memory
//! budgets).  An entry therefore serves any database with equal
//! statistics, each bound to its own data.  Explicit requests are cached
//! like `Auto`; only evaluating one that plans nothing skips the cache.
//!
//! **Key.**  The canonical query encoding (renaming-invariant), the
//! canonical statistics encoding
//! ([`canonical_statistics_encoding`](crate::fingerprint::canonical_statistics_encoding):
//! label-free, renaming-invariant, derived from the exact
//! [`StatisticsSet`](panda_entropy::StatisticsSet) the planner consumes),
//! the [`Budgets`], the requested [`EvaluationStrategy`], and the
//! `want_widths` flag.  The thread count is not in the key because the
//! selector never receives it: planning runs on the calling thread under
//! the request's one pivot budget, so a plan built under one
//! [`Engine`](crate::Engine) *is* the plan built under any other.  The
//! request's cancel token is not in the key either: a token can only
//! abort planning, and an aborted selection never reaches the cache.
//!
//! **Serving.**  A hit whose entry was inserted by a query with the *same*
//! variable numbering (the common case: the same query re-run, a query
//! differing only in variable/query names, or a body-atom permutation
//! preserving the variables' first-occurrence order) serves the cached
//! selection as-is — byte-identical to what a
//! cold `select` would return, so warm execution, reports and EXPLAIN
//! renderings are bit-identical to cold ones.  A hit across a genuinely
//! different numbering (isomorphic queries whose variables first occur in
//! different orders) is served on the evaluation path by renaming the
//! cached plan's execution artifacts (decompositions, degree partitions)
//! through the canonical bijection; the width *reports* are dropped from
//! the renamed copy (execution never reads them) and report-path
//! (`want_widths`) entries key on the exact numbering instead, so every
//! served report is always in the query's own variables.
//!
//! **Eviction.**  Deterministic least-recently-used by access *count*
//! ticks — never wall-clock time (the workspace D3 lint bans clocks) — in
//! a capacity-bounded ([`PLAN_CACHE_CAP`]) linear-scan store, so cache
//! behaviour is a pure function of the request sequence.
//!
//! The cache is always on: the cold path is the code every miss runs, and
//! the `plan_cache_differential` suite pins cold/warm bit-identity.

// panda-lint: allow(D2) -- the import feeds the plan cache below: pure
// memoisation of deterministic selections (see `PLAN_CACHE`).
use std::sync::{Arc, Mutex, PoisonError};

use panda_query::{TreeDecomposition, Var, VarSet};

use crate::config::Budgets;
use crate::fingerprint::rename_set;
use crate::panda::EvaluationStrategy;
use crate::plans::{PandaEvaluator, PartitionSpec};
use crate::selector::Selection;

/// Capacity of the process-wide plan cache (entries).  Eviction is
/// deterministic LRU by access count.
pub const PLAN_CACHE_CAP: usize = 64;

/// The cache key — see the module docs for what is included and why the
/// thread count is not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PlanKey {
    /// Canonical query encoding ([`crate::fingerprint::canonicalize_query`]).
    pub(crate) canon: Vec<u8>,
    /// For report-path (`want_widths`) entries: the exact canonical
    /// renaming, so reports — which embed variable sets in certificates —
    /// are only ever served to the numbering that built them.
    pub(crate) exact: Option<Vec<u32>>,
    /// Canonical statistics encoding
    /// ([`crate::fingerprint::canonical_statistics_encoding`]).
    pub(crate) stats: Vec<u8>,
    /// The planning budgets (they shape downgrades, hence the plan).
    pub(crate) budgets: Budgets,
    /// The requested strategy (rule 1 plans only what it names).
    pub(crate) requested: EvaluationStrategy,
    /// Whether informational widths were requested (the report path).
    pub(crate) want_widths: bool,
}

struct Slot {
    /// The canonical renaming of the query that inserted the entry.
    renaming: Vec<u32>,
    selection: Arc<Selection>,
    last_used: u64,
}

struct CacheState {
    entries: Vec<(PlanKey, Slot)>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

// panda-lint: allow(D2) -- memoisation only: a selection is a pure
// function of its key (the selector is deterministic and
// engine-independent), so whichever thread populates a slot, every reader
// observes an identical plan; eviction affects only cost, never results.
static PLAN_CACHE: Mutex<CacheState> =
    Mutex::new(CacheState { entries: Vec::new(), tick: 0, hits: 0, misses: 0, evictions: 0 });

fn lock() -> std::sync::MutexGuard<'static, CacheState> {
    // panda-lint: allow(D2) -- see PLAN_CACHE: pure memoisation.
    PLAN_CACHE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Looks up a selection, refreshing its LRU position.  `renaming` is the
/// *current* query's canonical renaming; an entry inserted under a
/// different numbering is served renamed (evaluation-path entries only —
/// see the module docs).
///
/// `fallback` is an optional second key tried when `key` is absent — the
/// evaluation path passes its report-path twin, whose entries carry
/// strictly more information (widths) than execution needs, so an
/// explain-then-evaluate sequence plans exactly once.  One lookup counts
/// one hit or one miss regardless of which tier served it.
pub(crate) fn lookup(
    key: &PlanKey,
    fallback: Option<&PlanKey>,
    renaming: &[u32],
) -> Option<Selection> {
    let mut cache = lock();
    let found = cache
        .entries
        .iter()
        .position(|(k, _)| k == key)
        .or_else(|| fallback.and_then(|f| cache.entries.iter().position(|(k, _)| k == f)));
    let Some(pos) = found else {
        cache.misses += 1;
        return None;
    };
    cache.tick += 1;
    let tick = cache.tick;
    cache.hits += 1;
    // panda-lint: allow(P1) -- `pos` was produced by `position` on this
    // very vector under the same lock.
    let slot = &mut cache.entries[pos].1;
    slot.last_used = tick;
    if slot.renaming == renaming {
        Some((*slot.selection).clone())
    } else {
        Some(rename_selection(&slot.selection, &compose(&slot.renaming, renaming)))
    }
}

/// Inserts a freshly planned selection, evicting the least-recently-used
/// entry if the cache is full.  Returns `true` iff an eviction happened.
pub(crate) fn insert(key: PlanKey, renaming: Vec<u32>, selection: &Selection) -> bool {
    let mut cache = lock();
    cache.tick += 1;
    let tick = cache.tick;
    if let Some(pos) = cache.entries.iter().position(|(k, _)| *k == key) {
        // A concurrent planner raced us; refresh the slot (both planned
        // the identical selection) without evicting.
        // panda-lint: allow(P1) -- `pos` was produced by `position` on
        // this very vector under the same lock.
        let slot = &mut cache.entries[pos].1;
        slot.last_used = tick;
        return false;
    }
    let mut evicted = false;
    if cache.entries.len() >= PLAN_CACHE_CAP {
        // Deterministic LRU: ticks are unique, so the minimum is unique.
        let victim = cache
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, (_, slot))| slot.last_used)
            .map(|(i, _)| i)
            // panda-lint: allow(P1) -- guarded by the `len() >= CAP` check
            // with `CAP > 0`, so the vector is non-empty here.
            .expect("cache is non-empty at capacity");
        cache.entries.remove(victim);
        cache.evictions += 1;
        evicted = true;
    }
    cache
        .entries
        .push((key, Slot { renaming, selection: Arc::new(selection.clone()), last_used: tick }));
    evicted
}

/// `sigma[v]` maps the cached query's variable `v` to the current query's
/// variable with the same canonical id.
fn compose(cached: &[u32], current: &[u32]) -> Vec<u32> {
    let mut inverse = vec![0u32; current.len()];
    for (var, &canonical) in current.iter().enumerate() {
        // panda-lint: allow(P1) -- both slices are canonical renamings of
        // the same canonical encoding: bijections on `0..len`, so every
        // canonical id indexes in range.
        inverse[canonical as usize] = var as u32;
    }
    // panda-lint: allow(P1) -- see above: canonical ids are `< len`.
    cached.iter().map(|&canonical| inverse[canonical as usize]).collect()
}

/// Renames a cached selection's execution artifacts into the current
/// query's variables.  Width reports are dropped (they are only consumed
/// by the report path, whose entries never take this branch).
fn rename_selection(selection: &Selection, sigma: &[u32]) -> Selection {
    let set = |s: VarSet| rename_set(s, sigma);
    let td =
        |t: &TreeDecomposition| TreeDecomposition::new(t.bags().iter().map(|&b| set(b)).collect());
    // panda-lint: allow(P1) -- `sigma` has one slot per query variable and
    // plan artifacts only mention query variables.
    let vars = |vs: &[Var]| vs.iter().map(|v| Var(sigma[v.index()])).collect();
    Selection {
        rule: selection.rule,
        reason: selection.reason,
        selected: selection.selected,
        executed: selection.executed,
        downgrades: selection.downgrades.clone(),
        fhtw: None,
        subw: None,
        tds: selection.tds.iter().map(td).collect(),
        best_td: selection.best_td.as_ref().map(td),
        evaluator: selection.evaluator.as_ref().map(|e| PandaEvaluator {
            tds: e.tds.iter().map(td).collect(),
            partitions: e
                .partitions
                .iter()
                .map(|p| PartitionSpec {
                    relation: p.relation.clone(),
                    group_vars: vars(&p.group_vars),
                    value_vars: vars(&p.value_vars),
                })
                .collect(),
            max_branches: e.max_branches,
        }),
        lp_pivots_used: selection.lp_pivots_used,
    }
}

/// A snapshot of the plan cache's counters and size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that fell through to cold planning.
    pub misses: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Entries currently cached.
    pub entries: usize,
}

/// Reads the plan cache counters — process-wide observability for tests,
/// benches and operators.
#[must_use]
pub fn plan_cache_stats() -> PlanCacheStats {
    let cache = lock();
    PlanCacheStats {
        hits: cache.hits,
        misses: cache.misses,
        evictions: cache.evictions,
        entries: cache.entries.len(),
    }
}

/// Empties the plan cache and resets its counters.  Results are never
/// affected (a cleared cache merely re-plans); tests and benches use this
/// to measure cold/warm behaviour from a known state.
pub fn plan_cache_clear() {
    let mut cache = lock();
    cache.entries.clear();
    cache.tick = 0;
    cache.hits = 0;
    cache.misses = 0;
    cache.evictions = 0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selector::{ReasonCode, SelectorRule};

    // These tests exercise only the pure helpers: the shared cache itself
    // is pinned end-to-end (cold/warm bit-identity, isomorphic hits, LRU
    // eviction order) by `tests/plan_cache_differential.rs`, which can
    // serialise access to the process-wide state.

    #[test]
    fn compose_maps_cached_variables_onto_current_ones() {
        // cached: v0→c2, v1→c0, v2→c1;  current: v0→c0, v1→c1, v2→c2.
        let sigma = compose(&[2, 0, 1], &[0, 1, 2]);
        // cached v0 has canonical id 2 = current v2, and so on.
        assert_eq!(sigma, vec![2, 0, 1]);
        // Composing a renaming with itself is the identity.
        assert_eq!(compose(&[2, 0, 1], &[2, 0, 1]), vec![0, 1, 2]);
    }

    #[test]
    fn rename_selection_renames_artifacts_and_drops_widths() {
        let mut selection = Selection::new(
            SelectorRule::SubwGap,
            ReasonCode::SubwBelowFhtw,
            EvaluationStrategy::Adaptive,
        );
        let bag: VarSet = [Var(0), Var(1)].into_iter().collect();
        selection.tds = vec![TreeDecomposition::new(vec![bag])];
        selection.best_td = Some(TreeDecomposition::new(vec![bag]));
        let renamed = rename_selection(&selection, &[1, 2, 0]);
        let expected: VarSet = [Var(1), Var(2)].into_iter().collect();
        assert_eq!(renamed.tds[0].bags(), &[expected]);
        assert_eq!(renamed.best_td.unwrap().bags(), &[expected]);
        assert!(renamed.fhtw.is_none() && renamed.subw.is_none());
        assert_eq!(renamed.rule, SelectorRule::SubwGap);
    }
}
