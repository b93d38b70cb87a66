//! Protocol conformance: golden request/response transcripts for every
//! command, error, downgrade and cancellation path of `panda-server`.
//!
//! Transcripts are asserted byte for byte.  Responses never encode the
//! engine, so [`transcript`] replays every golden script through a second
//! session built with `Engine::Parallel(4)` and requires the same bytes;
//! the one response that depends on cache temperature (`STATS`) is
//! asserted on a single pass.
//!
//! Relation names are unique per test: the plan cache is process-wide and
//! the tests run concurrently, so distinct cache keys are what keep each
//! test's hit/miss accounting deterministic.

use panda::config::{Engine, Parallelism};
use panda::prelude::*;
use panda::server::session::Session;
use panda::server::{body_lines, Reply};

/// Runs a script through a sequential session and again through a
/// four-thread one, asserts the two transcripts are the same bytes, and
/// returns them.
fn transcript(lines: &[&str]) -> Vec<String> {
    let sequential = replay(Session::new(), lines);
    let parallel = replay(Session::with_engine(Engine::Parallel(Parallelism::threads(4))), lines);
    assert_eq!(parallel, sequential, "the transcript must not depend on the engine");
    sequential
}

/// Runs a scripted session line by line, collecting all response lines and
/// asserting the framing invariant (`lines=` announces the body exactly).
fn replay(mut session: Session, lines: &[&str]) -> Vec<String> {
    let mut out = Vec::new();
    for line in lines {
        let reply = session.handle_line(line);
        check_framing(&reply);
        out.extend(reply.lines);
    }
    out
}

fn check_framing(reply: &Reply) {
    if let Some(header) = reply.lines.iter().next() {
        assert!(
            header.starts_with("OK") || header.starts_with("ERR"),
            "header must start with OK/ERR: {header}"
        );
        assert_eq!(
            body_lines(header),
            reply.lines.len() - 1,
            "lines= must announce the body exactly: {:?}",
            reply.lines
        );
        // `len()` counts the `'\n'` on the wire, so every line must end in one.
        assert_eq!(reply.lines.as_bytes().last(), Some(&b'\n'), "{:?}", reply.lines);
    }
}

#[test]
fn golden_basic_commands() {
    assert_eq!(
        transcript(&["PING", "CLEAR", "STRATEGY", "STRATEGY adaptive", "STRATEGY"]),
        vec![
            "OK pong",
            "OK cleared",
            "OK strategy=auto",
            "OK strategy=adaptive",
            "OK strategy=adaptive",
        ]
    );
}

#[test]
fn golden_budget_state_machine() {
    assert_eq!(
        transcript(&[
            "BUDGET",
            "BUDGET pivots=100 branches=4 rows=1000000",
            "BUDGET branches=none",
            "BUDGET",
        ]),
        vec![
            "OK budgets pivots=none branches=none rows=none",
            "OK budgets pivots=100 branches=4 rows=1000000",
            "OK budgets pivots=100 branches=none rows=1000000",
            "OK budgets pivots=100 branches=none rows=1000000",
        ]
    );
}

#[test]
fn golden_load_query_rows() {
    assert_eq!(
        transcript(&[
            "LOAD PaR 2",
            "1 2",
            "2 3",
            "1 2", // duplicate: deduped on END
            "END",
            "LOAD PaS 2",
            "2 10",
            "3 11",
            "END",
            "QUERY Q(A,C) :- PaR(A,B), PaS(B,C)",
            // Rows are rendered in canonical variable order, independent of
            // the head's syntactic order — same bytes for Q(C,A).
            "QUERY Q(C,A) :- PaR(A,B), PaS(B,C)",
        ]),
        vec![
            "OK loaded rel=PaR rows=2",
            "OK loaded rel=PaS rows=2",
            "OK rows n=2 vars=A,C lines=2",
            "1 10",
            "2 11",
            "OK rows n=2 vars=A,C lines=2",
            "1 10",
            "2 11",
        ]
    );
}

#[test]
fn golden_boolean_queries() {
    assert_eq!(
        transcript(&[
            "LOAD PbE 2",
            "1 2",
            "2 3",
            "1 3",
            "END",
            "QUERY Tri() :- PbE(A,B), PbE(B,C), PbE(A,C)",
            "QUERY Q() :- PbE(X,X)",
        ]),
        vec![
            "OK loaded rel=PbE rows=3",
            "OK rows n=1 vars=() lines=1",
            "true",
            "OK rows n=0 vars=() lines=1",
            "false",
        ]
    );
}

/// A self-join under an adaptive plan: each atom over the repeated symbol
/// is partitioned on its own.  A hub with 12 two-way spokes plus a 4-cycle
/// and one chord, 29 rows; `auto` plans it adaptive, and partitioning the
/// symbol once for all four atoms used to drop every combination of
/// tuples from different degree buckets (4 rows instead of 28).
#[test]
fn golden_an_adaptive_self_join_answers_what_the_generic_join_answers() {
    let cycle = "QUERY Q(X,Y) :- PsR(X,Y), PsR(Y,Z), PsR(Z,W), PsR(W,X)";
    let mut script = vec!["LOAD PsR 2".to_string()];
    for leaf in 2..=13 {
        script.push(format!("1 {leaf}"));
        script.push(format!("{leaf} 1"));
    }
    script.extend(["20 21", "21 22", "22 23", "23 20", "2 3", "END"].map(String::from));
    script.push(cycle.replace("QUERY", "EXPLAIN"));
    script.push(cycle.to_string());
    script.push("STRATEGY generic-join".to_string());
    script.push(cycle.to_string());
    let lines: Vec<&str> = script.iter().map(String::as_str).collect();
    let out = transcript(&lines);
    assert_eq!(out[0], "OK loaded rel=PsR rows=29");
    assert!(out.iter().any(|line| line == "strategy: adaptive"), "{out:?}");
    assert!(!out.iter().any(|line| line == "branches: 1"), "{out:?}");
    let strategy = out.iter().position(|line| line == "OK strategy=generic-join").unwrap();
    let auto = out.iter().position(|line| line.starts_with("OK rows")).unwrap();
    assert_eq!(out[auto], "OK rows n=28 vars=X,Y lines=28");
    assert_eq!(out[auto..strategy], out[strategy + 1..]);
}

#[test]
fn golden_error_responses() {
    assert_eq!(
        transcript(&[
            "FROBNICATE",
            "#x PING",
            "LOAD bad-name 2",
            "LOAD PcR 0",
            "BUDGET pivots=soon",
            "STATS SOMETIMES",
            "CANCEL tomorrow",
            "END",
            "QUERY Q(A)",
            "QUERY Q(A) :- R(A",
        ]),
        vec![
            "ERR unknown_command unknown command `FROBNICATE`",
            "ERR malformed_request request tag `#x` is not an integer",
            "ERR malformed_request invalid relation name `bad-name`",
            "ERR malformed_request invalid arity `0` (want 1..=32)",
            "ERR malformed_request budget value `soon` is neither an integer nor `none`",
            "ERR malformed_request unknown STATS argument `SOMETIMES`",
            "ERR malformed_request CANCEL needs an integer id, got `tomorrow`",
            "ERR malformed_request END outside a LOAD block",
            "ERR parse_error query parse error: missing `:-` separator",
            "ERR parse_error query parse error: expected `)` at the end of `R(A`",
        ]
    );
}

#[test]
fn golden_load_error_poisons_and_discards() {
    assert_eq!(
        transcript(&["LOAD PdR 2", "1 2", "1 nope", "3 4 5", "END", "QUERY Q(A,B) :- PdR(A,B)",]),
        vec![
            "ERR load_error non-integer value `nope` in LOAD PdR",
            // The block was discarded, so the query sees no relation — an
            // unknown relation binds as empty.
            "OK rows n=0 vars=A,B lines=0",
        ]
    );
}

#[test]
fn golden_strategy_errors() {
    assert_eq!(
        transcript(&[
            "LOAD PeR 2",
            "1 2",
            "2 1",
            "END",
            "STRATEGY yannakakis",
            "QUERY Tri() :- PeR(A,B), PeR(B,C), PeR(C,A)",
        ]),
        vec![
            "OK loaded rel=PeR rows=2",
            "OK strategy=yannakakis",
            "ERR cyclic_yannakakis Yannakakis requires an acyclic query",
        ]
    );
}

#[test]
fn golden_budget_exceeded_under_explicit_strategy() {
    assert_eq!(
        transcript(&[
            "LOAD PfR 2",
            "1 2",
            "END",
            "LOAD PfS 2",
            "2 3",
            "END",
            "LOAD PfT 2",
            "3 4",
            "END",
            "LOAD PfU 2",
            "4 1",
            "END",
            "STRATEGY adaptive",
            "BUDGET pivots=1",
            "QUERY Q(X,Y) :- PfR(X,Y), PfS(Y,Z), PfT(Z,W), PfU(W,X)",
        ]),
        vec![
            "OK loaded rel=PfR rows=1",
            "OK loaded rel=PfS rows=1",
            "OK loaded rel=PfT rows=1",
            "OK loaded rel=PfU rows=1",
            "OK strategy=adaptive",
            "OK budgets pivots=1 branches=none rows=none",
            "ERR budget_exceeded reason=lp_budget_exhausted budget exceeded \
             (lp_budget_exhausted) while planning adaptive, which has no fallback \
             (Auto downgrades fail-soft instead)",
        ]
    );
}

#[test]
fn golden_downgrade_appears_in_explain() {
    // Under Auto the same exhausted pivot budget downgrades fail-soft: the
    // wire EXPLAIN records the lp_budget_exhausted reason and the
    // generic-join fallback, byte for byte.
    assert_eq!(
        transcript(&[
            "LOAD PgR 2",
            "1 2",
            "END",
            "LOAD PgS 2",
            "2 3",
            "END",
            "LOAD PgT 2",
            "3 4",
            "END",
            "LOAD PgU 2",
            "4 1",
            "END",
            "BUDGET pivots=1",
            "EXPLAIN Q(X,Y) :- PgR(X,Y), PgS(Y,Z), PgT(Z,W), PgU(W,X)",
        ]),
        vec![
            "OK loaded rel=PgR rows=1",
            "OK loaded rel=PgS rows=1",
            "OK loaded rel=PgT rows=1",
            "OK loaded rel=PgU rows=1",
            "OK budgets pivots=1 branches=none rows=none",
            "OK explain lines=9",
            "query: Q(X,Y) :- PgR(X,Y), PgS(Y,Z), PgT(Z,W), PgU(W,X)",
            "strategy: generic-join",
            "selected: generic-join",
            "rule: generic-default",
            "reason: lp_budget_exhausted",
            "widths: (not computed)",
            "branches: 1",
            "lp pivots used: 1",
            "downgrades: (none)",
        ]
    );
}

/// The rows of the equal-statistics 4-cycle pair: a double star with 16
/// leaves a side plus 8 matching edges (`A`), or the same with 4 of those
/// edges turned into a star (`B`).  Both measure 40 rows and max-degree 16
/// each way; `B` adds a degree-4 bucket.
fn equal_statistics_rows(star: bool) -> Vec<String> {
    let mut rows = Vec::new();
    for leaf in 2..18 {
        rows.push(format!("{leaf} 1"));
        rows.push(format!("1 {leaf}"));
    }
    if star {
        for j in 0..4 {
            rows.push(format!("{} {}", 100 + j, 200 + j));
            rows.push(format!("300 {}", 400 + j));
        }
    } else {
        rows.extend((0..8).map(|j| format!("{} {}", 100 + j, 200 + j)));
    }
    rows
}

#[test]
fn golden_explain_binds_each_instance_under_a_shared_plan() {
    // A and B have equal statistics, so B's EXPLAIN is served A's cached
    // plan; its branches, shared subplans and the branch budget must still
    // come from B's data — the bytes a fresh process gives for B alone.
    let explain = "EXPLAIN Q(X,Y) :- PmR(X,Y), PmS(Y,Z), PmT(Z,W), PmU(W,X)";
    let mut script = vec!["BUDGET branches=81".to_string()];
    for star in [false, true] {
        for name in ["PmR", "PmS", "PmT", "PmU"] {
            script.push(format!("LOAD {name} 2"));
            script.extend(equal_statistics_rows(star));
            script.push("END".to_string());
        }
        script.push(explain.to_string());
    }
    let script: Vec<&str> = script.iter().map(String::as_str).collect();
    assert_eq!(
        transcript(&script),
        vec![
            "OK budgets pivots=none branches=81 rows=none",
            "OK loaded rel=PmR rows=40",
            "OK loaded rel=PmS rows=40",
            "OK loaded rel=PmT rows=40",
            "OK loaded rel=PmU rows=40",
            "OK explain lines=44",
            "query: Q(X,Y) :- PmR(X,Y), PmS(Y,Z), PmT(Z,W), PmU(W,X)",
            "strategy: adaptive",
            "selected: adaptive",
            "rule: subw-gap",
            "reason: subw_below_fhtw",
            "widths: fhtw = 19893/15625, subw = 34071/31250",
            "branches: 81",
            "downgrades: (none)",
            "branch bounds:",
            "  {X,Y,Z} | {X,Y,W}: 34071/31250 (certified)",
            "  {X,Y,Z} | {Y,Z,W}: 34071/31250 (certified)",
            "  {X,Y,W} | {X,Z,W}: 34071/31250 (certified)",
            "  {X,Z,W} | {Y,Z,W}: 34071/31250 (certified)",
            "materialised subplans:",
            "  {X,Y,Z}: PmR * PmS (7 scans, materialised once)",
            "  {X,Z,W}: PmT * PmU (7 scans, materialised once)",
            "  {X,Z,W}: PmT * PmU (7 scans, materialised once)",
            "  {X,Z,W}: PmT * PmU (8 scans, materialised once)",
            "  {X,Z,W}: PmT * PmU (7 scans, materialised once)",
            "  {X,Y,W}: PmR * PmU (3 scans, materialised once)",
            "  {Y,Z,W}: PmS * PmT (3 scans, materialised once)",
            "  {X,Z,W}: PmT * PmU (8 scans, materialised once)",
            "  {X,Z,W}: PmT * PmU (8 scans, materialised once)",
            "  {X,Z,W}: PmT * PmU (8 scans, materialised once)",
            "  {X,Y,W}: PmR * PmU (2 scans, materialised once)",
            "  {Y,Z,W}: PmS * PmT (2 scans, materialised once)",
            "  {X,Y,Z}: PmR * PmS (8 scans, materialised once)",
            "  {Y,Z,W}: PmS * PmT (4 scans, materialised once)",
            "  {X,Z,W}: PmT * PmU (5 scans, materialised once)",
            "  {X,Y,Z}: PmR * PmS (7 scans, materialised once)",
            "  {Y,Z,W}: PmS * PmT (5 scans, materialised once)",
            "  {Y,Z,W}: PmS * PmT (4 scans, materialised once)",
            "  {X,Y,Z}: PmR * PmS (7 scans, materialised once)",
            "  {X,Y,W}: PmR * PmU (5 scans, materialised once)",
            "  {X,Y,W}: PmR * PmU (4 scans, materialised once)",
            "  {X,Y,Z}: PmR * PmS (8 scans, materialised once)",
            "  {X,Y,W}: PmR * PmU (3 scans, materialised once)",
            "  {Y,Z,W}: PmS * PmT (3 scans, materialised once)",
            "  {X,Y,Z}: PmR * PmS (8 scans, materialised once)",
            "  {X,Y,W}: PmR * PmU (4 scans, materialised once)",
            "  {X,Y,W}: PmR * PmU (2 scans, materialised once)",
            "  {Y,Z,W}: PmS * PmT (2 scans, materialised once)",
            "  {X,Y,Z}: PmR * PmS (5 scans, materialised once)",
            "  {X,Y,Z}: PmR * PmS (8 scans, materialised once)",
            "OK loaded rel=PmR rows=40",
            "OK loaded rel=PmS rows=40",
            "OK loaded rel=PmT rows=40",
            "OK loaded rel=PmU rows=40",
            "OK explain lines=67",
            "query: Q(X,Y) :- PmR(X,Y), PmS(Y,Z), PmT(Z,W), PmU(W,X)",
            "strategy: binary-join",
            "selected: adaptive",
            "rule: subw-gap",
            "reason: subw_below_fhtw",
            "widths: fhtw = 19893/15625, subw = 34071/31250",
            "branches: 256",
            "downgrades:",
            "  adaptive -> binary-join [branch_budget_exceeded]",
            "branch bounds:",
            "  {X,Y,Z} | {X,Y,W}: 34071/31250 (certified)",
            "  {X,Y,Z} | {Y,Z,W}: 34071/31250 (certified)",
            "  {X,Y,W} | {X,Z,W}: 34071/31250 (certified)",
            "  {X,Z,W} | {Y,Z,W}: 34071/31250 (certified)",
            "materialised subplans:",
            "  {X,Y,Z}: PmR * PmS (14 scans, materialised once)",
            "  {X,Z,W}: PmT * PmU (14 scans, materialised once)",
            "  {X,Z,W}: PmT * PmU (14 scans, materialised once)",
            "  {X,Z,W}: PmT * PmU (14 scans, materialised once)",
            "  {X,Z,W}: PmT * PmU (15 scans, materialised once)",
            "  {X,Z,W}: PmT * PmU (14 scans, materialised once)",
            "  {X,Z,W}: PmT * PmU (14 scans, materialised once)",
            "  {X,Y,W}: PmR * PmU (4 scans, materialised once)",
            "  {Y,Z,W}: PmS * PmT (4 scans, materialised once)",
            "  {X,Z,W}: PmT * PmU (15 scans, materialised once)",
            "  {X,Z,W}: PmT * PmU (14 scans, materialised once)",
            "  {X,Z,W}: PmT * PmU (14 scans, materialised once)",
            "  {X,Z,W}: PmT * PmU (14 scans, materialised once)",
            "  {X,Z,W}: PmT * PmU (15 scans, materialised once)",
            "  {X,Z,W}: PmT * PmU (15 scans, materialised once)",
            "  {X,Z,W}: PmT * PmU (15 scans, materialised once)",
            "  {X,Z,W}: PmT * PmU (15 scans, materialised once)",
            "  {X,Y,W}: PmR * PmU (3 scans, materialised once)",
            "  {Y,Z,W}: PmS * PmT (3 scans, materialised once)",
            "  {X,Y,Z}: PmR * PmS (15 scans, materialised once)",
            "  {Y,Z,W}: PmS * PmT (6 scans, materialised once)",
            "  {X,Z,W}: PmT * PmU (7 scans, materialised once)",
            "  {X,Y,Z}: PmR * PmS (14 scans, materialised once)",
            "  {Y,Z,W}: PmS * PmT (4 scans, materialised once)",
            "  {Y,Z,W}: PmS * PmT (3 scans, materialised once)",
            "  {X,Y,Z}: PmR * PmS (14 scans, materialised once)",
            "  {Y,Z,W}: PmS * PmT (7 scans, materialised once)",
            "  {Y,Z,W}: PmS * PmT (6 scans, materialised once)",
            "  {X,Y,Z}: PmR * PmS (14 scans, materialised once)",
            "  {X,Y,W}: PmR * PmU (7 scans, materialised once)",
            "  {X,Y,W}: PmR * PmU (6 scans, materialised once)",
            "  {X,Y,Z}: PmR * PmS (15 scans, materialised once)",
            "  {X,Y,Z}: PmR * PmS (14 scans, materialised once)",
            "  {X,Y,W}: PmR * PmU (4 scans, materialised once)",
            "  {Y,Z,W}: PmS * PmT (4 scans, materialised once)",
            "  {X,Y,W}: PmR * PmU (4 scans, materialised once)",
            "  {Y,Z,W}: PmS * PmT (4 scans, materialised once)",
            "  {X,Y,Z}: PmR * PmS (14 scans, materialised once)",
            "  {X,Y,W}: PmR * PmU (4 scans, materialised once)",
            "  {X,Y,W}: PmR * PmU (3 scans, materialised once)",
            "  {X,Y,Z}: PmR * PmS (15 scans, materialised once)",
            "  {X,Y,Z}: PmR * PmS (14 scans, materialised once)",
            "  {X,Y,Z}: PmR * PmS (14 scans, materialised once)",
            "  {X,Y,Z}: PmR * PmS (15 scans, materialised once)",
            "  {X,Y,W}: PmR * PmU (6 scans, materialised once)",
            "  {X,Y,W}: PmR * PmU (3 scans, materialised once)",
            "  {Y,Z,W}: PmS * PmT (3 scans, materialised once)",
            "  {X,Y,W}: PmR * PmU (3 scans, materialised once)",
            "  {X,Y,Z}: PmR * PmS (7 scans, materialised once)",
            "  {Y,Z,W}: PmS * PmT (3 scans, materialised once)",
            "  {X,Y,Z}: PmR * PmS (15 scans, materialised once)",
            "  {X,Y,Z}: PmR * PmS (15 scans, materialised once)",
        ]
    );
}

/// `LOAD` blocks putting the 16-leaf double star (32 rows) under each name.
fn double_star_loads(names: &[&str]) -> Vec<String> {
    let mut script = Vec::new();
    for name in names {
        script.push(format!("LOAD {name} 2"));
        for leaf in 2..18 {
            script.push(format!("{leaf} 1"));
            script.push(format!("1 {leaf}"));
        }
        script.push("END".to_string());
    }
    script
}

#[test]
fn golden_explain_is_byte_stable_when_asked_again_and_after_a_reload() {
    // WHEN the same adaptive EXPLAIN is asked twice (the second binds from
    // the relations' cached degree buckets), and again after a LOAD of the
    // same rows (fresh relations, their buckets built anew), THEN all
    // three replies are the same bytes, shared subplans included.
    let explain = "EXPLAIN Q(X,Y) :- PwR(X,Y), PwS(Y,Z), PwT(Z,W), PwU(W,X)";
    let loads = double_star_loads(&["PwR", "PwS", "PwT", "PwU"]);
    let mut script = loads.clone();
    script.extend([explain.to_string(), explain.to_string()]);
    script.extend(loads);
    script.push(explain.to_string());
    let script: Vec<&str> = script.iter().map(String::as_str).collect();
    let out = transcript(&script);
    let reply = &out[4..31];
    assert_eq!(reply[0], "OK explain lines=26");
    assert!(reply.contains(&"branches: 16".to_string()), "{reply:?}");
    assert_eq!(&out[31..58], reply, "asked again");
    assert_eq!(out[58..62].iter().filter(|l| l.starts_with("OK loaded")).count(), 4);
    assert_eq!(&out[62..], reply, "after a reload of the same rows");
}

#[test]
fn golden_explicit_adaptive_explains_the_plan_its_query_runs() {
    // An explicit strategy plans through the selector, the plan cache and
    // the binding `Auto` uses, so its EXPLAIN shows the branches and shared
    // subplans its QUERY runs — `Auto`'s, but for the rule — and the branch
    // budget caps them instead of downgrading.
    let explain = "EXPLAIN Q(X,Y) :- PnR(X,Y), PnS(Y,Z), PnT(Z,W), PnU(W,X)";
    let mut script = double_star_loads(&["PnR", "PnS", "PnT", "PnU"]);
    script.extend(
        [explain, "STRATEGY adaptive", explain, "BUDGET branches=2", explain].map(String::from),
    );
    let script: Vec<&str> = script.iter().map(String::as_str).collect();
    let out = transcript(&script);
    let auto = &out[4..31];
    let explicit = &out[32..59];
    assert_eq!(auto[4..6], ["rule: subw-gap", "reason: subw_below_fhtw"]);
    assert_eq!([&auto[..4], &auto[6..]].concat(), [&explicit[..4], &explicit[6..]].concat());
    assert_eq!(
        explicit,
        [
            "OK explain lines=26",
            "query: Q(X,Y) :- PnR(X,Y), PnS(Y,Z), PnT(Z,W), PnU(W,X)",
            "strategy: adaptive",
            "selected: adaptive",
            "rule: explicit-override",
            "reason: explicit_strategy",
            "widths: fhtw = 257143/200000, subw = 1071429/1000000",
            "branches: 16",
            "downgrades: (none)",
            "branch bounds:",
            "  {X,Y,Z} | {X,Y,W}: 1071429/1000000 (certified)",
            "  {X,Y,Z} | {Y,Z,W}: 1071429/1000000 (certified)",
            "  {X,Y,W} | {X,Z,W}: 1071429/1000000 (certified)",
            "  {X,Z,W} | {Y,Z,W}: 1071429/1000000 (certified)",
            "materialised subplans:",
            "  {X,Y,W}: PnR * PnU (3 scans, materialised once)",
            "  {Y,Z,W}: PnS * PnT (2 scans, materialised once)",
            "  {X,Y,Z}: PnR * PnS (3 scans, materialised once)",
            "  {X,Z,W}: PnT * PnU (3 scans, materialised once)",
            "  {X,Z,W}: PnT * PnU (3 scans, materialised once)",
            "  {X,Z,W}: PnT * PnU (3 scans, materialised once)",
            "  {Y,Z,W}: PnS * PnT (3 scans, materialised once)",
            "  {X,Y,W}: PnR * PnU (2 scans, materialised once)",
            "  {Y,Z,W}: PnS * PnT (2 scans, materialised once)",
            "  {X,Y,W}: PnR * PnU (2 scans, materialised once)",
            "  {X,Y,Z}: PnR * PnS (3 scans, materialised once)",
            "  {X,Y,Z}: PnR * PnS (3 scans, materialised once)",
        ]
    );
    assert_eq!(
        out[59..],
        [
            "OK budgets pivots=none branches=2 rows=none",
            "OK explain lines=15",
            "query: Q(X,Y) :- PnR(X,Y), PnS(Y,Z), PnT(Z,W), PnU(W,X)",
            "strategy: adaptive",
            "selected: adaptive",
            "rule: explicit-override",
            "reason: explicit_strategy",
            "widths: fhtw = 257143/200000, subw = 1071429/1000000",
            "branches: 2",
            "downgrades: (none)",
            "branch bounds:",
            "  {X,Y,Z} | {X,Y,W}: 1071429/1000000 (certified)",
            "  {X,Y,Z} | {Y,Z,W}: 1071429/1000000 (certified)",
            "  {X,Y,W} | {X,Z,W}: 1071429/1000000 (certified)",
            "  {X,Z,W} | {Y,Z,W}: 1071429/1000000 (certified)",
            "materialised subplans:",
            "  {X,Z,W}: PnT * PnU (2 scans, materialised once)",
        ]
    );
}

#[test]
fn golden_an_lp_budget_downgrade_ships_the_fhtw_chains_certificates() {
    // A pivot budget one past the fhtw chain dies inside subw: the plan
    // downgrades to fhtw's best decomposition, whose bag bounds carry the
    // certificates that chain already verified.  The threshold is measured
    // on the statistics the session will measure, not hard-coded.
    let query = "Q(X,Y) :- PdR(X,Y), PdS(Y,Z), PdT(Z,W), PdU(W,X)";
    let star = panda::workloads::double_star_db(16).relation("R").unwrap().clone();
    let mut db = Database::new();
    for name in ["PdR", "PdS", "PdT", "PdU"] {
        db.insert(name, star.clone());
    }
    let parsed = parse_query(query).unwrap();
    let stats = StatisticsSet::measure(&parsed, &db);
    let tds = TreeDecomposition::enumerate(&parsed);
    let mut probe = panda::entropy::PivotBudget::unlimited();
    panda::entropy::fhtw_with_tds_budgeted(&parsed, &tds, &stats, &mut probe).unwrap();
    let pivots = probe.used() + 1;

    let mut script = double_star_loads(&["PdR", "PdS", "PdT", "PdU"]);
    script.push(format!("BUDGET pivots={pivots}"));
    script.push(format!("EXPLAIN {query}"));
    let script: Vec<&str> = script.iter().map(String::as_str).collect();
    let out = transcript(&script);
    assert_eq!(out[4], format!("OK budgets pivots={pivots} branches=none rows=none"));
    assert_eq!(
        out[5..],
        [
            "OK explain lines=13".to_string(),
            format!("query: {query}"),
            "strategy: static-td".to_string(),
            "selected: adaptive".to_string(),
            "rule: subw-gap".to_string(),
            "reason: lp_budget_exhausted".to_string(),
            "widths: fhtw = 257143/200000, subw = (not computed)".to_string(),
            "branches: 1".to_string(),
            format!("lp pivots used: {pivots}"),
            "downgrades:".to_string(),
            "  adaptive -> static-td [lp_budget_exhausted]".to_string(),
            "branch bounds:".to_string(),
            "  {X,Y,Z}: 257143/200000 (certified)".to_string(),
            "  {X,Z,W}: 257143/200000 (certified)".to_string(),
        ]
    );
}

/// Loads `db` (whose relations the query names), then sends `BUDGET
/// pivots=P` and `EXPLAIN query`, where `P` is four times the pivots of the
/// `fhtw` chain on the statistics the session will measure.  Returns the
/// EXPLAIN reply and the pivots the plan is expected to use: the `fhtw`
/// chain's plus those of deciding `subw` against it.
fn explain_under_four_fhtw_chains(query: &str, db: &Database) -> (Vec<String>, u64) {
    use panda::entropy::{fhtw_with_tds_budgeted, subw_against_fhtw, PivotBudget};
    let parsed = parse_query(query).unwrap();
    let stats = StatisticsSet::measure(&parsed, db);
    let tds = TreeDecomposition::enumerate(&parsed);
    let mut probe = PivotBudget::unlimited();
    let fhtw = fhtw_with_tds_budgeted(&parsed, &tds, &stats, &mut probe).unwrap();
    let pivots = 4 * probe.used();
    subw_against_fhtw(&parsed, &tds, &stats, &fhtw, &mut probe).unwrap();

    let mut script = Vec::new();
    for name in db.relation_names() {
        let rel = db.relation(&name).unwrap();
        script.push(format!("LOAD {name} {}", rel.arity()));
        for row in rel.canonical_rows() {
            script.push(row.iter().map(u64::to_string).collect::<Vec<_>>().join(" "));
        }
        script.push("END".to_string());
    }
    script.push(format!("BUDGET pivots={pivots}"));
    script.push(format!("EXPLAIN {query}"));
    let script: Vec<&str> = script.iter().map(String::as_str).collect();
    let out = transcript(&script);
    // One reply line per LOAD block, then the BUDGET reply.
    let loads = db.relation_names().len();
    assert_eq!(out[loads], format!("OK budgets pivots={pivots} branches=none rows=none"));
    (out[loads + 1..].to_vec(), probe.used())
}

#[test]
fn golden_a_five_cycle_over_two_rows_plans_within_four_fhtw_chains() {
    // WHEN a 5-cycle over a two-row relation is explained under a pivot
    // budget of four fhtw chains, THEN its first selector LP proves
    // subw = fhtw = 1: the static plan is chosen on the width rule, not
    // forced by an exhausted budget inside the 21-LP subw chain.
    let query = "Q(A,B) :- PwR(A,B), PwR(B,C), PwR(C,D), PwR(D,E), PwR(E,A)";
    let mut db = Database::new();
    db.insert("PwR", Relation::from_rows(2, vec![[1, 2], [2, 1]]));
    let (explain, pivots) = explain_under_four_fhtw_chains(query, &db);
    assert_eq!(
        explain,
        [
            "OK explain lines=13".to_string(),
            format!("query: {query}"),
            "strategy: static-td".to_string(),
            "selected: static-td".to_string(),
            "rule: td-fallback".to_string(),
            "reason: no_width_gap".to_string(),
            "widths: fhtw = 1, subw = 1".to_string(),
            "branches: 1".to_string(),
            format!("lp pivots used: {pivots}"),
            "downgrades: (none)".to_string(),
            "branch bounds:".to_string(),
            "  {A,B,C}: 1 (certified)".to_string(),
            "  {A,C,D}: 1 (certified)".to_string(),
            "  {A,D,E}: 1 (certified)".to_string(),
        ]
    );
}

#[test]
fn golden_a_four_path_plans_within_four_fhtw_chains() {
    // WHEN the non-free-connex 4-path is explained under a pivot budget of
    // four fhtw chains, THEN the one selector that can reach fhtw is solved
    // alone and proves subw = fhtw, where the full chain needs 21 LPs.
    let query = "Q(A,E) :- PvR(A,B), PvS(B,C), PvT(C,D), PvU(D,E)";
    let random = panda::workloads::erdos_renyi_db(&["R", "S", "T", "U"], 30, 120, 7);
    let mut db = Database::new();
    for name in ["R", "S", "T", "U"] {
        db.insert(format!("Pv{name}"), random.relation(name).unwrap().clone());
    }
    let (explain, pivots) = explain_under_four_fhtw_chains(query, &db);
    assert_eq!(
        explain,
        [
            "OK explain lines=13".to_string(),
            format!("query: {query}"),
            "strategy: static-td".to_string(),
            "selected: static-td".to_string(),
            "rule: td-fallback".to_string(),
            "reason: no_width_gap".to_string(),
            "widths: fhtw = 1543213/1000000, subw = 1543213/1000000".to_string(),
            "branches: 1".to_string(),
            format!("lp pivots used: {pivots}"),
            "downgrades: (none)".to_string(),
            "branch bounds:".to_string(),
            "  {A,B,C}: 55489/50000 (certified)".to_string(),
            "  {A,C,D}: 1473841/1000000 (certified)".to_string(),
            "  {A,D,E}: 1543213/1000000 (certified)".to_string(),
        ]
    );
}

#[test]
fn golden_a_five_path_and_a_six_cycle_over_two_rows_plan_over_minimal_selectors() {
    // WHEN a two-row relation is loaded, THEN the 5-path QUERY answers
    // and the 6-cycle EXPLAIN proves fhtw = subw = 1.  Each query's 14
    // TDs admit 2.7·10⁸ choices of one bag each, too many to hold in
    // memory; the planner enumerates only the 174 minimal transversals.
    let query = "QUERY Q(A,F) :- PxR(A,B), PxR(B,C), PxR(C,D), PxR(D,E), PxR(E,F)";
    let cycle = "Q(A,B) :- PxR(A,B), PxR(B,C), PxR(C,D), PxR(D,E), PxR(E,F), PxR(F,A)";
    let (explain, query_line) = (format!("EXPLAIN {cycle}"), format!("query: {cycle}"));
    assert_eq!(
        transcript(&["LOAD PxR 2", "1 2", "2 1", "END", query, &explain]),
        vec![
            "OK loaded rel=PxR rows=2",
            "OK rows n=2 vars=A,F lines=2",
            "1 2",
            "2 1",
            "OK explain lines=13",
            &query_line,
            "strategy: static-td",
            "selected: static-td",
            "rule: td-fallback",
            "reason: no_width_gap",
            "widths: fhtw = 1, subw = 1",
            "branches: 1",
            "downgrades: (none)",
            "branch bounds:",
            "  {A,B,C}: 1 (certified)",
            "  {A,C,D}: 1 (certified)",
            "  {A,D,E}: 1 (certified)",
            "  {A,E,F}: 1 (certified)",
        ]
    );
}

#[test]
fn golden_explicit_plans_are_cached_like_auto() {
    // One pass: a second session would find the plan cached.
    let query = "QUERY Q(A,B,C) :- PoE(A,B), PoE(B,C), PoE(C,A)";
    let out = replay(
        Session::new(),
        &["LOAD PoE 2", "1 2", "2 3", "3 1", "END", "STRATEGY static-td", query, query, "STATS"],
    );
    assert_eq!(
        out.last().map(String::as_str),
        Some("OK stats hits=1 misses=1 evictions=0 bypasses=0")
    );
}

#[test]
fn golden_explicit_explain_fails_where_its_query_fails() {
    let q = "Q(X,Y) :- PpR(X,Y), PpR(Y,Z), PpR(Z,W), PpR(W,X)";
    let (explain, query) = (format!("EXPLAIN {q}"), format!("QUERY {q}"));
    assert_eq!(
        transcript(&[
            "LOAD PpR 2",
            "1 2",
            "2 1",
            "END",
            "STRATEGY adaptive",
            "BUDGET pivots=1",
            &explain,
            &query
        ]),
        vec![
            "OK loaded rel=PpR rows=2",
            "OK strategy=adaptive",
            "OK budgets pivots=1 branches=none rows=none",
            "ERR budget_exceeded reason=lp_budget_exhausted the LP pivot budget was exhausted \
             before the bound was computed",
            "ERR budget_exceeded reason=lp_budget_exhausted budget exceeded \
             (lp_budget_exhausted) while planning adaptive, which has no fallback \
             (Auto downgrades fail-soft instead)",
        ]
    );
}

#[test]
fn golden_a_strategy_that_plans_nothing_is_not_cached() {
    let query = "QUERY Q(A,B,C) :- PqE(A,B), PqE(B,C), PqE(C,A)";
    let out = replay(
        Session::new(),
        &["LOAD PqE 2", "1 2", "2 3", "3 1", "END", "STRATEGY generic-join", query, query, "STATS"],
    );
    assert_eq!(
        out.last().map(String::as_str),
        Some("OK stats hits=0 misses=0 evictions=0 bypasses=0")
    );
}

#[test]
fn golden_the_memory_budget_is_not_checked_under_an_explicit_strategy() {
    // `Auto` downgrades the same plan to a binary join; the explicit
    // request runs the static plan it named and says so.
    let q = "Q(A,B,C) :- PrE(A,B), PrE(B,C), PrE(C,A)";
    let (query, explain) = (format!("QUERY {q}"), format!("EXPLAIN {q}"));
    assert_eq!(
        transcript(&[
            "LOAD PrE 2",
            "1 2",
            "2 3",
            "3 1",
            "1 3",
            "END",
            "STRATEGY static-td",
            "BUDGET rows=1",
            &query,
            &explain,
            "STRATEGY auto",
            &explain,
        ]),
        vec![
            "OK loaded rel=PrE rows=4",
            "OK strategy=static-td",
            "OK budgets pivots=none branches=none rows=1",
            "OK rows n=3 vars=A,B,C lines=3",
            "1 2 3",
            "2 3 1",
            "3 1 2",
            "OK explain lines=10",
            "query: Q(A,B,C) :- PrE(A,B), PrE(B,C), PrE(C,A)",
            "strategy: static-td",
            "selected: static-td",
            "rule: explicit-override",
            "reason: explicit_strategy",
            "widths: fhtw = 3/2, subw = 3/2",
            "branches: 1",
            "downgrades: (none)",
            "branch bounds:",
            "  {A,B,C}: 3/2 (certified)",
            "OK strategy=auto",
            "OK explain lines=11",
            "query: Q(A,B,C) :- PrE(A,B), PrE(B,C), PrE(C,A)",
            "strategy: binary-join",
            "selected: static-td",
            "rule: td-fallback",
            "reason: no_width_gap",
            "widths: fhtw = 3/2, subw = 3/2",
            "branches: 1",
            "downgrades:",
            "  static-td -> binary-join [memory_budget_exceeded]",
            "branch bounds:",
            "  {A,B,C}: 3/2 (certified)",
        ]
    );
}

#[test]
fn golden_cancellation_lifecycle() {
    assert_eq!(
        transcript(&[
            "LOAD PhR 2",
            "1 2",
            "END",
            "CANCEL 7",
            "#7 QUERY Q(A,B) :- PhR(A,B)",
            "CANCEL 7",
            "#8 QUERY Q(A,B) :- PhR(A,B)",
            "CANCEL 8",
        ]),
        vec![
            "OK loaded rel=PhR rows=1",
            "OK cancel id=7 state=pending",
            "ERR cancelled request #7 was cancelled before it started",
            "OK cancel id=7 state=done",
            "OK rows n=1 vars=A,B lines=1",
            "1 2",
            "OK cancel id=8 state=done",
        ]
    );
}

#[test]
fn golden_a_request_that_panics_answers_internal_and_the_session_keeps_serving() {
    // WHEN a request panics inside the library (a one-column atom over a
    // two-column relation: the binding asserts the arities agree), THEN
    // it is answered `ERR internal`, its tag counts as done, and the
    // session answers the next requests.
    assert_eq!(
        transcript(&[
            "LOAD PzR 2",
            "1 2",
            "2 1",
            "END",
            "#5 QUERY Q(A) :- PzR(A)",
            "CANCEL 5",
            "QUERY Q(A,B) :- PzR(A,B)",
            "PING",
        ]),
        vec![
            "OK loaded rel=PzR rows=2",
            "ERR internal the request panicked: assertion `left == right` failed: atom PzR/1 \
             is bound to a stored relation of arity 2   left: 2  right: 1",
            "OK cancel id=5 state=done",
            "OK rows n=2 vars=A,B lines=2",
            "1 2",
            "2 1",
            "OK pong",
        ]
    );
}

/// A path over `n` variables `V0 … V(n-1)` of the `PyR` edges, its
/// endpoints free.
fn long_path(verb: &str, n: usize) -> String {
    let atoms: Vec<String> = (1..n).map(|i| format!("PyR(V{},V{i})", i - 1)).collect();
    format!("{verb} Q(V0,V{}) :- {}", n - 1, atoms.join(", "))
}

#[test]
fn golden_a_query_past_nine_variables_runs_the_generic_join_under_auto() {
    // WHEN the 10-variable path with free endpoints (acyclic, not
    // free-connex, so Auto would plan widths over `TD(Q)`) is explained
    // and queried under `auto`, THEN no decomposition is enumerated: the
    // generic default answers with reason `too_many_variables`, and its
    // rows are the generic join's.  A shorter path still plans widths.
    let mut script = ["LOAD PyR 2", "1 2", "2 1", "2 3", "END"].map(String::from).to_vec();
    script.extend([long_path("EXPLAIN", 10), long_path("QUERY", 10)]);
    script.extend(["STRATEGY generic-join".to_string(), long_path("QUERY", 10)]);
    script.extend(["STRATEGY auto".to_string(), long_path("EXPLAIN", 4)]);
    let script: Vec<&str> = script.iter().map(String::as_str).collect();
    let out = transcript(&script);
    let rows = ["OK rows n=3 vars=V0,V9 lines=3", "1 2", "2 1", "2 3"];
    assert_eq!(
        out[..14],
        [
            ["OK loaded rel=PyR rows=3", "OK explain lines=8"].as_slice(),
            &[&long_path("query:", 10)[..]],
            &[
                "strategy: generic-join",
                "selected: generic-join",
                "rule: generic-default",
                "reason: too_many_variables",
                "widths: (not computed)",
                "branches: 1",
                "downgrades: (none)",
            ],
            &rows,
        ]
        .concat()
    );
    assert_eq!(out[14..19], [&["OK strategy=generic-join"][..], &rows].concat());
    assert_eq!(out[19], "OK strategy=auto");
    assert!(out[20..].iter().any(|line| line == "rule: td-fallback"), "{out:?}");
}

#[test]
fn golden_an_explicit_width_strategy_past_nine_variables_answers_td_unavailable() {
    // WHEN `static-td` or `adaptive` is named for the 10-variable path,
    // THEN QUERY and EXPLAIN answer `ERR td_unavailable` (the strategy
    // leaves no fallback), and the session keeps serving.
    let mut script = ["LOAD PxR 2", "1 2", "END"].map(String::from).to_vec();
    for strategy in ["static-td", "adaptive"] {
        script.push(format!("STRATEGY {strategy}"));
        script.push(long_path("QUERY", 10).replace("PyR", "PxR"));
        script.push(long_path("EXPLAIN", 10).replace("PyR", "PxR"));
    }
    script.push("PING".to_string());
    let script: Vec<&str> = script.iter().map(String::as_str).collect();
    let limit = "the query has 10 variables; tree decompositions are enumerated for at most 9";
    assert_eq!(
        transcript(&script),
        vec![
            "OK loaded rel=PxR rows=1".to_string(),
            "OK strategy=static-td".to_string(),
            format!(
                "ERR td_unavailable no tree decomposition could be costed for static-td: {limit}"
            ),
            format!("ERR td_unavailable {limit}"),
            "OK strategy=adaptive".to_string(),
            format!(
                "ERR td_unavailable no tree decomposition could be costed for adaptive: {limit}"
            ),
            format!("ERR td_unavailable {limit}"),
            "OK pong".to_string(),
        ]
    );
}

#[test]
fn golden_quit() {
    let mut session = Session::new();
    let reply = session.handle_line("QUIT");
    assert_eq!(reply.lines.iter().collect::<Vec<_>>(), vec!["OK bye"]);
    assert!(reply.quit);
}

#[test]
fn stats_account_the_sessions_own_cache_traffic() {
    // Unique relation names give this test its own plan-cache keys, so
    // the second identical query is deterministically a hit.  One pass
    // only: a second session would find both plans cached.
    let out = replay(
        Session::new(),
        &[
            "LOAD PiR 2",
            "1 2",
            "END",
            "LOAD PiS 2",
            "2 3",
            "END",
            "QUERY Q(X,Z) :- PiR(X,Y), PiS(Y,Z)",
            "QUERY Q(X,Z) :- PiR(X,Y), PiS(Y,Z)",
            "STATS",
        ],
    );
    let stats = out.last().cloned().unwrap_or_default();
    assert_eq!(stats, "OK stats hits=1 misses=1 evictions=0 bypasses=0");
    let global = transcript(&["STATS GLOBAL"]);
    assert_eq!(global.len(), 1);
    assert!(global[0].starts_with("OK stats-global hits="), "{global:?}");
}

#[test]
fn wire_explain_is_byte_identical_to_the_library_path() {
    // The acceptance criterion of the serving layer: EXPLAIN over the wire
    // is the identical bytes of `Panda::explain`, for an acyclic query, a
    // static plan and the adaptive 4-cycle.
    let mut db = Database::new();
    db.insert("PjR", Relation::from_rows(2, vec![[1, 2], [2, 3], [3, 1]]));
    db.insert("PjS", Relation::from_rows(2, vec![[2, 4], [3, 5]]));
    db.insert("PjT", Relation::from_rows(2, vec![[4, 6], [5, 6]]));
    db.insert("PjU", Relation::from_rows(2, vec![[6, 1]]));

    let mut session = Session::new();
    let mut load = Vec::new();
    for name in db.relation_names() {
        let rel = db.relation(&name).unwrap();
        load.push(format!("LOAD {name} {}", rel.arity()));
        for row in rel.canonical_rows() {
            let cells: Vec<String> = row.iter().map(u64::to_string).collect();
            load.push(cells.join(" "));
        }
        load.push("END".to_string());
    }
    for line in &load {
        session.handle_line(line);
    }

    for text in [
        "Q(A,B) :- PjR(A,B), PjS(B,C)",
        "Q(A,C) :- PjR(A,B), PjS(B,C)",
        "Q(X,Y) :- PjR(X,Y), PjS(Y,Z), PjT(Z,W), PjU(W,X)",
        "Q() :- PjR(A,B), PjR(B,C), PjR(C,A)",
    ] {
        let reply = session.handle_line(&format!("EXPLAIN {text}"));
        check_framing(&reply);
        let wire_body = reply.lines.iter().skip(1).collect::<Vec<_>>().join("\n");
        let library = Panda::new(parse_query(text).unwrap()).explain(&db).unwrap().to_string();
        assert_eq!(wire_body, library.trim_end_matches('\n'), "EXPLAIN diverges for {text}");
    }
}

#[test]
fn transcripts_are_identical_on_a_warm_rerun() {
    // Replaying the same script in a fresh session must give the same
    // bytes even though the process-wide plan cache is now warm — row
    // output and EXPLAIN never depend on cache state.
    let script = [
        "LOAD PkR 2",
        "1 2",
        "2 3",
        "3 4",
        "END",
        "LOAD PkS 2",
        "2 5",
        "3 6",
        "END",
        "QUERY Q(A,C) :- PkR(A,B), PkS(B,C)",
        "EXPLAIN Q(A,C) :- PkR(A,B), PkS(B,C)",
        "STRATEGY generic-join",
        "QUERY Q(A,C) :- PkR(A,B), PkS(B,C)",
    ];
    let cold = transcript(&script);
    let warm = transcript(&script);
    assert_eq!(cold, warm);
}
