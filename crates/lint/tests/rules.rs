//! Fixture corpus: every rule fires on its `fail/` fixtures and stays
//! silent on the `pass/` corpus; allow directives suppress; multi-line
//! statement spans anchor correctly.
//!
//! Fixtures are analysed under synthetic workspace paths so the fixture
//! directory itself (excluded from real walks) never matters:
//! `crates/demo/src/lib.rs` for crate-root rules, `…/src/util.rs` for the
//! rest.

#![forbid(unsafe_code)]

use panda_lint::{analyze_str, Rule};
use std::path::Path;

/// Reads a fixture file from `tests/fixtures/`.
fn fixture(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(rel);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()))
}

/// Lines (1-based) on which `rule` fired for the given fixture analysed
/// under `as_path`.
fn lines_for(rule: Rule, as_path: &str, rel: &str) -> Vec<usize> {
    analyze_str(as_path, &fixture(rel))
        .into_iter()
        .filter(|d| d.rule == rule)
        .map(|d| d.line)
        .collect()
}

// ---------------------------------------------------------------- D1 ----

#[test]
fn d1_fires_on_iter_collect() {
    let lines = lines_for(Rule::D1, "crates/demo/src/util.rs", "fail/d1_iter_collect.rs");
    assert_eq!(lines, vec![5, 9, 15], "keys().collect, iter().collect::<Vec>, extend");
}

#[test]
fn d1_fires_on_for_loop_push() {
    let lines = lines_for(Rule::D1, "crates/demo/src/util.rs", "fail/d1_for_push.rs");
    assert_eq!(lines, vec![7, 16], "one hit per unsorted loop");
}

#[test]
fn d1_multiline_statement_has_full_span() {
    let diags = analyze_str("crates/demo/src/util.rs", &fixture("fail/d1_multiline.rs"));
    let d1: Vec<_> = diags.iter().filter(|d| d.rule == Rule::D1).collect();
    assert_eq!(d1.len(), 1, "exactly one finding for the chained statement");
    let d = d1[0];
    assert_eq!(d.line, 6, "anchored at the iterated name");
    assert!(d.span_start <= 6 && d.span_end >= 10, "span covers the whole chain: {d:?}");
}

#[test]
fn d1_silent_on_sanitised_corpus() {
    assert_eq!(lines_for(Rule::D1, "crates/demo/src/util.rs", "pass/d1_sanitised.rs"), vec![]);
}

#[test]
fn d1_fires_on_hash_ordered_cache_eviction() {
    // The plan-cache hazard: eviction order derived from iterating the
    // cache's key map is seed-dependent, so identical runs could evict
    // different plans and report diverging hit/miss reason codes.  This
    // pins why `plan_cache.rs` keeps its entries in a Vec and picks
    // victims by recency tick.
    let lines = lines_for(Rule::D1, "crates/demo/src/util.rs", "fail/d1_cache_eviction.rs");
    assert_eq!(lines, vec![18, 24], "keys().collect eviction order, for-loop eviction queue");
}

#[test]
fn d1_silent_on_tick_ordered_eviction() {
    // The deterministic counterpart: min-by-tick victim selection and a
    // sorted key listing never expose hash order.
    let diags =
        analyze_str("crates/demo/src/util.rs", &fixture("pass/d1_cache_eviction_sorted.rs"));
    assert!(diags.is_empty(), "tick-ordered eviction must lint clean: {diags:?}");
}

// ---------------------------------------------------------------- D2 ----

#[test]
fn d2_fires_on_each_primitive() {
    let lines = lines_for(Rule::D2, "crates/demo/src/util.rs", "fail/d2_primitives.rs");
    assert_eq!(lines, vec![2, 3, 6, 10, 11], "atomic, mutex, spawn, and both fields");
}

#[test]
fn d2_exempts_the_config_module() {
    // The same source analysed under the sanctioned path is clean.
    let src = fixture("fail/d2_primitives.rs");
    let diags = analyze_str("crates/panda-core/src/config.rs", &src);
    assert!(diags.iter().all(|d| d.rule != Rule::D2), "config.rs is D2-exempt by policy");
}

#[test]
fn d2_accepts_the_justified_server_idiom() {
    // The serving layer's exact shape — atomic cancel flag, mutex/condvar
    // bounded queue, reader thread — lints clean because every primitive
    // carries a scheduling justification.
    let diags = analyze_str("crates/server/src/serve.rs", &fixture("pass/d2_server_session.rs"));
    assert!(diags.is_empty(), "justified server idiom must lint clean: {diags:?}");
}

#[test]
fn d2_directives_in_the_server_idiom_are_load_bearing() {
    // Stripping the justifications must re-fire D2 on every primitive:
    // the pass fixture is clean because of the directives, not because
    // the rule misses the serving idiom.
    let stripped: String = fixture("pass/d2_server_session.rs")
        .lines()
        .filter(|l| !l.contains("panda-lint:"))
        .collect::<Vec<_>>()
        .join("\n");
    let d2: Vec<_> = analyze_str("crates/server/src/serve.rs", &stripped)
        .into_iter()
        .filter(|d| d.rule == Rule::D2)
        .collect();
    assert!(d2.len() >= 5, "imports, both struct fields and the spawn must all fire: {d2:?}");
}

// ---------------------------------------------------------------- D3 ----

#[test]
fn d3_fires_on_clock_and_rand() {
    let lines = lines_for(Rule::D3, "crates/demo/src/util.rs", "fail/d3_clock_and_rand.rs");
    assert_eq!(lines, vec![2, 5, 10], "use Instant, Instant::now, rand::");
}

#[test]
fn d3_silent_on_pivot_count_budgets() {
    // The LP solver's budget loops (`while pivots < budget`) count units
    // of work deterministically — nothing for D3 to flag.  This pins the
    // shape used by `panda-lp`'s `PivotBudget` so a future D3 extension
    // cannot accidentally outlaw the budget subsystem.
    let diags = analyze_str("crates/demo/src/util.rs", &fixture("pass/d3_pivot_budget.rs"));
    assert!(
        diags.iter().all(|d| d.rule != Rule::D3),
        "pivot-count budgets must not trip D3: {diags:?}"
    );
}

#[test]
fn d3_fires_on_a_wall_clock_request_timeout() {
    // The serving-layer hazard: an Instant-based request deadline makes
    // the abort point wall-clock-dependent, so identical scripts could
    // produce different transcripts.  Cancellation must stay counter-based
    // (CancelToken polled at pivot counters) — D3 fires on both clock
    // touches in the unjustified timeout.
    let lines = lines_for(Rule::D3, "crates/server/src/session.rs", "fail/d3_server_instant.rs");
    assert_eq!(lines, vec![6, 9], "use Instant, Instant::now");
}

#[test]
fn d3_fires_on_wall_clock_budgets_in_library_code() {
    // The flip side: a budget implemented as an `Instant` deadline is
    // still a clock read, and library code must not carry it no matter
    // what it is called.
    let lines = lines_for(Rule::D3, "crates/demo/src/util.rs", "fail/d3_instant_budget.rs");
    assert_eq!(lines, vec![4, 7], "use Instant, Instant::now");
}

#[test]
fn d3_fires_on_environment_reads_in_library_code() {
    // Ambient configuration is the same hazard as a clock: the library
    // answers differently in two processes given the same arguments.
    let lines = lines_for(Rule::D3, "crates/demo/src/util.rs", "fail/d3_library_env.rs");
    assert_eq!(lines, vec![7, 12], "env::var, env::var_os");
}

#[test]
fn d3_lets_binary_entry_points_read_the_environment() {
    // The same read in `src/main.rs` or `src/bin/**` is where it belongs.
    let src = fixture("fail/d3_library_env.rs");
    for path in ["crates/demo/src/main.rs", "crates/demo/src/bin/tool.rs"] {
        let diags = analyze_str(path, &src);
        assert!(diags.iter().all(|d| d.rule != Rule::D3), "{path}: {diags:?}");
    }
    let diags = analyze_str("crates/demo/src/main.rs", &fixture("pass/d3_main_reads_env.rs"));
    assert!(diags.is_empty(), "a main.rs reading PANDA_THREADS must lint clean: {diags:?}");
}

#[test]
fn d3_exempts_bench_tests_and_examples() {
    let src = fixture("fail/d3_clock_and_rand.rs");
    for path in [
        "crates/bench/src/lib.rs",
        "crates/demo/tests/t.rs",
        "examples/quickstart.rs",
        "crates/demo/benches/b.rs",
    ] {
        let diags = analyze_str(path, &src);
        assert!(
            diags.iter().all(|d| d.rule != Rule::D3),
            "{path} must be D3-exempt, got {diags:?}"
        );
    }
}

// ---------------------------------------------------------------- P1 ----

#[test]
fn p1_fires_on_unwrap_expect_indexing() {
    let lines = lines_for(Rule::P1, "crates/demo/src/util.rs", "fail/p1_panics.rs");
    assert_eq!(lines, vec![3, 4, 5, 12], "unwrap, expect, index, multi-line index");
}

#[test]
fn p1_multiline_span_covers_the_chain() {
    let diags = analyze_str("crates/demo/src/util.rs", &fixture("fail/p1_panics.rs"));
    let mid = diags.iter().find(|d| d.rule == Rule::P1 && d.line == 12).expect("mid-chain hit");
    assert!(mid.span_start <= 10 && mid.span_end >= 14, "span is the whole statement: {mid:?}");
}

#[test]
fn p1_exempt_in_non_library_crates() {
    let src = fixture("fail/p1_panics.rs");
    for path in ["crates/bench/src/lib.rs", "crates/workloads/src/util.rs"] {
        let diags = analyze_str(path, &src);
        assert!(diags.iter().all(|d| d.rule != Rule::P1), "{path} is not a library crate");
    }
}

// ---------------------------------------------------------------- S1 ----

#[test]
fn s1_fires_on_missing_forbid() {
    let lines = lines_for(Rule::S1, "crates/demo/src/lib.rs", "fail/s1_missing_forbid.rs");
    assert_eq!(lines.len(), 1, "crate root without forbid(unsafe_code)");
}

#[test]
fn s1_only_checks_crate_roots() {
    let src = fixture("fail/s1_missing_forbid.rs");
    let diags = analyze_str("crates/demo/src/util.rs", &src);
    assert!(diags.iter().all(|d| d.rule != Rule::S1));
}

#[test]
fn s1_satisfied_by_the_attribute() {
    let diags = analyze_str("crates/demo/src/lib.rs", &fixture("pass/clean_library.rs"));
    assert!(diags.iter().all(|d| d.rule != Rule::S1));
}

// ---------------------------------------------------------------- L0 ----

#[test]
fn l0_fires_on_malformed_directives() {
    let lines = lines_for(Rule::L0, "crates/demo/src/lib.rs", "fail/l0_bad_directives.rs");
    assert_eq!(lines, vec![4, 9, 12], "missing justification, unknown rule, empty list");
}

// ------------------------------------------------------ suppression ----

#[test]
fn allow_directives_suppress_line_trailing_and_multiline() {
    let diags = analyze_str("crates/demo/src/util.rs", &fixture("pass/allow_suppression.rs"));
    assert!(diags.is_empty(), "all violations are justified: {diags:?}");
}

#[test]
fn allow_file_suppresses_the_whole_file() {
    let diags = analyze_str("crates/demo/src/util.rs", &fixture("pass/allow_file_wide.rs"));
    assert!(diags.is_empty(), "file-wide allow covers the dense kernel: {diags:?}");
}

#[test]
fn allow_without_directive_still_fires() {
    // Sanity: the pass corpus minus its directives is NOT clean — strip
    // them and the violations resurface.
    let stripped: String = fixture("pass/allow_suppression.rs")
        .lines()
        .filter(|l| !l.contains("panda-lint:"))
        .collect::<Vec<_>>()
        .join("\n");
    let diags = analyze_str("crates/demo/src/util.rs", &stripped);
    assert!(
        diags.iter().any(|d| d.rule == Rule::P1) && diags.iter().any(|d| d.rule == Rule::D1),
        "directives were load-bearing: {diags:?}"
    );
}

// ----------------------------------------------------------- corpus ----

#[test]
fn every_fail_fixture_fires_and_every_pass_fixture_is_clean() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    for (sub, want_clean) in [("pass", true), ("fail", false)] {
        let mut entries: Vec<_> = std::fs::read_dir(dir.join(sub))
            .expect("fixture dir")
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        assert!(!entries.is_empty(), "fixture corpus must not be empty");
        for path in entries {
            let src = std::fs::read_to_string(&path).expect("fixture readable");
            let name = path.file_name().map(|n| n.to_string_lossy()).unwrap_or_default();
            let as_path = if name.starts_with("s1_") {
                "crates/demo/src/lib.rs"
            } else if name.contains("_main_") {
                "crates/demo/src/main.rs"
            } else {
                "crates/demo/src/util.rs"
            };
            let diags = analyze_str(as_path, &src);
            if want_clean {
                assert!(diags.is_empty(), "{} must lint clean, got {diags:?}", path.display());
            } else {
                assert!(!diags.is_empty(), "{} must produce findings", path.display());
            }
        }
    }
}

#[test]
fn rule_catalogue_is_stable() {
    // The rule set is part of the tool's contract with docs/LINTS.md.
    let codes: Vec<&str> = Rule::ALL.iter().map(|r| r.code()).collect();
    assert_eq!(codes, ["D1", "D2", "D3", "P1", "S1", "L0"]);
    assert!(Rule::P1.advisory_by_default());
    assert!(!Rule::D1.advisory_by_default());
}

#[test]
fn fail_fixtures_cover_every_rule() {
    // Acceptance criterion: each rule has at least one failing fixture.
    let mut covered = Vec::new();
    for rel in [
        "fail/d1_iter_collect.rs",
        "fail/d2_primitives.rs",
        "fail/d3_clock_and_rand.rs",
        "fail/p1_panics.rs",
        "fail/s1_missing_forbid.rs",
        "fail/l0_bad_directives.rs",
    ] {
        let as_path =
            if rel.contains("s1_") { "crates/demo/src/lib.rs" } else { "crates/demo/src/util.rs" };
        covered.extend(rules_fired_at(as_path, rel));
    }
    for rule in Rule::ALL {
        assert!(covered.contains(&rule), "no failing fixture covers {rule}");
    }
}

/// Like [`rules_fired`] but with an explicit path.
fn rules_fired_at(as_path: &str, rel: &str) -> Vec<Rule> {
    analyze_str(as_path, &fixture(rel)).into_iter().map(|d| d.rule).collect()
}
