//! The cross-query plan cache.
//!
//! Planning a cyclic query is LP work — the fhtw/subw chains dominate
//! end-to-end time on small and medium inputs — and it is a pure function
//! of `(query structure, statistics, budgets, requested strategy)`: the
//! selector never sees the data.  This module caches completed
//! (crate-internal) `Selection`s process-wide under exactly that key, so a
//! repeated query skips straight to binding, the per-request step that
//! applies the plan to the request's data (branches, shared subplans, the
//! branch and memory budgets).  An entry therefore serves any database
//! with equal statistics, each bound to its own data.  Explicit requests
//! are cached like `Auto`; only evaluating one that plans nothing skips
//! the cache.
//!
//! **Key.**  `PlanKey::new` builds the whole key from the query as parsed:
//! the variable count, the free set and the sorted atoms (relation symbol
//! plus variable ids); the [`StatisticsSet`] the planner consumes, under
//! the same ids, sorted and without its labels; the [`Budgets`]; the
//! requested [`EvaluationStrategy`]; and the `want_widths` flag.  The
//! query name and the variable names are left out, so a repeated query
//! hits whatever its names, and so does a body-atom permutation that keeps
//! the order in which the variables first occur.  An isomorphic query
//! whose variables are numbered differently is a different key and plans
//! cold.  A hit serves the cached selection as-is, byte-identical to what
//! a cold `select` would return, so warm rows, reports and EXPLAIN
//! renderings are bit-identical to cold ones.  The evaluation path also
//! accepts the key's report-path twin (`PlanKey::report_twin`), whose plan
//! carries strictly more (the widths), so `EXPLAIN` then `QUERY` plans
//! once.
//!
//! The thread count is not in the key because the selector never receives
//! it: planning runs on the calling thread under the request's one pivot
//! budget, so a plan built under one [`Engine`](crate::Engine) *is* the
//! plan built under any other.  The request's cancel token is not in the
//! key either: a token can only abort planning, and an aborted selection
//! never reaches the cache.
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

use panda_entropy::{StatKind, StatisticsSet};
use panda_query::ConjunctiveQuery;

use crate::config::Budgets;
use crate::panda::EvaluationStrategy;
use crate::selector::Selection;

/// Capacity of the process-wide plan cache (entries).  Eviction is
/// deterministic LRU by access count.
pub const PLAN_CACHE_CAP: usize = 64;

/// The cache key — see the module docs for what is included and why the
/// thread count is not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PlanKey {
    /// The query's structure: variable count, free set, sorted atoms.
    query: Vec<u8>,
    /// The statistics under the query's variable ids, sorted, label-free.
    stats: Vec<u8>,
    /// The planning budgets (they shape downgrades, hence the plan).
    budgets: Budgets,
    /// The requested strategy (rule 1 plans only what it names).
    requested: EvaluationStrategy,
    /// Whether informational widths were requested (the report path).
    want_widths: bool,
}

impl PlanKey {
    /// The key of one planning request.
    pub(crate) fn new(
        query: &ConjunctiveQuery,
        stats: &StatisticsSet,
        budgets: Budgets,
        requested: EvaluationStrategy,
        want_widths: bool,
    ) -> Self {
        PlanKey {
            query: encode_query(query),
            stats: encode_statistics(stats),
            budgets,
            requested,
            want_widths,
        }
    }

    /// The same request on the report path: its plan carries the widths
    /// on top of everything evaluation reads.
    pub(crate) fn report_twin(&self) -> Self {
        PlanKey { want_widths: true, ..self.clone() }
    }
}

/// The variable count, the free set, then the sorted atoms, each its
/// relation symbol, arity and variable ids.  The query name and the
/// variable names never influence a plan and are left out.
fn encode_query(query: &ConjunctiveQuery) -> Vec<u8> {
    let mut out = vec![query.num_vars() as u8];
    out.extend_from_slice(&query.free_vars().bits().to_le_bytes());
    let mut atoms: Vec<Vec<u8>> = query
        .atoms()
        .iter()
        .map(|atom| {
            let mut enc: Vec<u8> = atom.relation.as_bytes().to_vec();
            enc.push(0);
            enc.push(atom.arity() as u8);
            enc.extend(atom.vars.iter().map(|v| v.index() as u8));
            enc
        })
        .collect();
    atoms.sort();
    for atom in atoms {
        out.push(0xff);
        out.extend_from_slice(&atom);
    }
    out
}

/// The log base, then the sorted per-constraint encodings (guard symbol,
/// kind, variable sets, count, exact log value).  The human-readable
/// `label` is left out: it never influences planning.
fn encode_statistics(stats: &StatisticsSet) -> Vec<u8> {
    let mut out = stats.base().to_le_bytes().to_vec();
    let mut encoded: Vec<Vec<u8>> = stats
        .stats()
        .iter()
        .map(|stat| {
            let mut enc: Vec<u8> = Vec::new();
            match &stat.guard {
                Some(g) => {
                    enc.push(1);
                    enc.extend_from_slice(g.as_bytes());
                }
                None => enc.push(0),
            }
            enc.push(0);
            match stat.kind {
                StatKind::Degree { cond, subj } => {
                    enc.push(1);
                    enc.extend_from_slice(&cond.bits().to_le_bytes());
                    enc.extend_from_slice(&subj.bits().to_le_bytes());
                }
                StatKind::LpNorm { cond, subj, k } => {
                    enc.push(2);
                    enc.extend_from_slice(&cond.bits().to_le_bytes());
                    enc.extend_from_slice(&subj.bits().to_le_bytes());
                    enc.extend_from_slice(&k.to_le_bytes());
                }
            }
            enc.extend_from_slice(&stat.count.to_le_bytes());
            enc.extend_from_slice(&stat.log_value.numer().to_le_bytes());
            enc.extend_from_slice(&stat.log_value.denom().to_le_bytes());
            enc
        })
        .collect();
    encoded.sort();
    for enc in encoded {
        out.push(0xff);
        out.extend_from_slice(&enc);
    }
    out
}

struct Slot {
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

/// Looks up a selection, refreshing its LRU position.
///
/// `fallback` is an optional second key tried when `key` is absent — the
/// evaluation path passes its report-path twin, whose entries carry
/// strictly more information (widths) than execution needs, so an
/// explain-then-evaluate sequence plans exactly once.  One lookup counts
/// one hit or one miss regardless of which tier served it.
pub(crate) fn lookup(key: &PlanKey, fallback: Option<&PlanKey>) -> Option<Selection> {
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
    Some((*slot.selection).clone())
}

/// Inserts a freshly planned selection, evicting the least-recently-used
/// entry if the cache is full.  Returns `true` iff an eviction happened.
pub(crate) fn insert(key: PlanKey, selection: &Selection) -> bool {
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
    cache.entries.push((key, Slot { selection: Arc::new(selection.clone()), last_used: tick }));
    evicted
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
