//! D3 — no wall-clock or entropy sources in result paths.
//!
//! LP optima, proof sequences and join outputs are bit-reproducible
//! functions of (query, statistics, data).  `Instant::now()` feeding a
//! heuristic, or an unseeded RNG feeding anything, silently turns a
//! reproducible artifact into a flaky one.  Timing belongs in the bench
//! crate (`crates/bench`, exempt wholesale), benches, tests and examples;
//! seeded randomness in library code must carry a justification stating
//! why it is deterministic.
//!
//! Ambient configuration is nondeterminism of the same kind: a library
//! function that reads `env::var` answers differently in two processes
//! given the same arguments.  Only a binary's entry point (`src/main.rs`,
//! `src/bin/**`) may read the environment, and it passes what it read down
//! as a value.

use crate::diagnostics::{Diagnostic, Rule};
use crate::parse::{FileContext, Role};

/// Identifiers that read the wall clock or ambient entropy.
const BANNED: [&str; 5] = ["Instant", "SystemTime", "UNIX_EPOCH", "thread_rng", "from_entropy"];

/// Scans non-bench, non-test library code for clock/entropy identifiers,
/// `rand` paths and environment reads.
pub fn check(ctx: &FileContext, diags: &mut Vec<Diagnostic>) {
    if ctx.bench_crate || ctx.role != Role::Src {
        return;
    }
    let path = ctx.path.to_string_lossy().replace('\\', "/");
    let binary_entry = path.ends_with("src/main.rs") || path.contains("src/bin/");
    let toks = &ctx.tokens;
    for (i, t) in toks.iter().enumerate() {
        if ctx.in_test_span(t.line) {
            continue;
        }
        if BANNED.iter().any(|b| t.is_ident(b)) {
            ctx.report(
                Rule::D3,
                i,
                format!(
                    "`{}` reads the clock or ambient entropy — results must be \
                     reproducible functions of (query, statistics, data); timing \
                     belongs in crates/bench",
                    t.text
                ),
                diags,
            );
            continue;
        }
        // `env::var(…)` / `env::var_os(…)` outside a binary's entry point.
        if !binary_entry
            && t.is_ident("env")
            && toks.get(i + 1).is_some_and(|a| a.is_punct(':'))
            && toks.get(i + 2).is_some_and(|b| b.is_punct(':'))
            && toks.get(i + 3).is_some_and(|v| v.is_ident("var") || v.is_ident("var_os"))
        {
            ctx.report(
                Rule::D3,
                i,
                "environment read in library code: ambient configuration makes results \
                 depend on the process, not the arguments — read it in `main` and pass \
                 the value down"
                    .into(),
                diags,
            );
            continue;
        }
        // `rand::…` paths and `use rand` imports.
        if t.is_ident("rand") {
            let path_after = toks
                .get(i + 1)
                .zip(toks.get(i + 2))
                .is_some_and(|(a, b)| a.is_punct(':') && b.is_punct(':'));
            let after_use = i > 0 && toks.get(i - 1).is_some_and(|t| t.is_ident("use"));
            if path_after || after_use {
                ctx.report(
                    Rule::D3,
                    i,
                    "`rand` in library code: randomness must not reach result paths — \
                     if the RNG is deterministically seeded, say so in an allow(D3) \
                     justification"
                        .into(),
                    diags,
                );
            }
        }
    }
}
