//! D2 — no parallelism or synchronisation primitives outside the
//! ordered fan-out.
//!
//! The engine's bit-identical-at-any-thread-count guarantee holds because
//! *all* of its parallelism is funnelled through
//! `panda_relation::fan_out::ordered_map` (contiguous chunks, results
//! merged in input order).  A stray `std::thread::spawn`, channel or
//! ad-hoc atomic counter re-introduces scheduling order as an observable,
//! so any use of those primitives must either live in
//! `panda_core::config` (thread-count discovery, exempt by policy) or
//! carry an explicit justification that scheduling order cannot reach an
//! output — as `fan_out.rs` itself does, file-wide.

use crate::diagnostics::{Diagnostic, Rule};
use crate::parse::FileContext;

/// Sync primitives whose bare type name is banned.
const BANNED_TYPES: [&str; 17] = [
    "Mutex",
    "RwLock",
    "Condvar",
    "Barrier",
    "AtomicBool",
    "AtomicUsize",
    "AtomicIsize",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicPtr",
    "mpsc",
];

/// Files exempt from D2 by policy.
fn exempt(ctx: &FileContext) -> bool {
    let p = ctx.path.to_string_lossy().replace('\\', "/");
    p.ends_with("crates/panda-core/src/config.rs")
}

/// Scans for banned primitives and `std::thread` paths.
pub fn check(ctx: &FileContext, diags: &mut Vec<Diagnostic>) {
    if exempt(ctx) {
        return;
    }
    let toks = &ctx.tokens;
    for (i, t) in toks.iter().enumerate() {
        if BANNED_TYPES.iter().any(|b| t.is_ident(b)) {
            ctx.report(
                Rule::D2,
                i,
                format!(
                    "`{}` is a scheduling-order hazard: all parallelism must go through \
                     panda_relation::fan_out::ordered_map",
                    t.text
                ),
                diags,
            );
            continue;
        }
        // `thread::spawn`, `thread::scope`, `std::thread`, … — any
        // `thread` path segment outside the sanctioned modules.
        if t.is_ident("thread") {
            let after = toks.get(i + 1).zip(toks.get(i + 2));
            let before = i.checked_sub(2).and_then(|j| toks.get(j).zip(toks.get(j + 1)));
            let path_after = after.is_some_and(|(a, b)| a.is_punct(':') && b.is_punct(':'));
            let path_before = before.is_some_and(|(a, b)| a.is_ident("std") && b.is_punct(':'));
            if path_after || path_before {
                ctx.report(
                    Rule::D2,
                    i,
                    "`std::thread` is off-limits: fan work out through \
                     panda_relation::fan_out::ordered_map so merge order stays input-ordered"
                        .into(),
                    diags,
                );
            }
        }
    }
}
