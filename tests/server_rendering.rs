//! Rendering differential: every `QUERY` reply of `panda-server` against a
//! reference rendering of the in-process answer, on random small databases
//! under every strategy.
//!
//! The reference renders through the library's test-facing path instead
//! of the session's: the header, then
//! [`VarRelation::canonical_rows_ordered`] (a projection, then the rows),
//! sorted by the standard library, with each row's values joined by single
//! spaces.
//!
//! This is its own test binary, not a part of `server_protocol.rs`: the
//! plan cache is process-wide and holds 64 entries, and the databases here
//! plan more distinct statistics sets than that, which would evict the
//! entries whose hits and misses the golden transcripts there pin.

use panda::prelude::*;
use panda::server::body_lines;
use panda::server::session::Session;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every strategy a session accepts, in `STRATEGY` spelling order.
const STRATEGIES: [EvaluationStrategy; 6] = [
    EvaluationStrategy::Auto,
    EvaluationStrategy::Yannakakis,
    EvaluationStrategy::StaticTd,
    EvaluationStrategy::Adaptive,
    EvaluationStrategy::GenericJoin,
    EvaluationStrategy::BinaryJoin,
];

/// The reference rendering of a `QUERY` answer: the header, then the rows
/// of [`VarRelation::canonical_rows_ordered`] on the free variables, each
/// one's values joined by single spaces.
fn reference_rendering(query: &ConjunctiveQuery, result: &VarRelation) -> Vec<String> {
    if query.is_boolean() {
        let truth = if result.is_empty() { "false" } else { "true" };
        return vec![format!("OK rows n={} vars=() lines=1", result.len()), truth.to_string()];
    }
    let order: Vec<Var> = query.free_vars().to_vec();
    let names: Vec<&str> = order.iter().map(|v| query.var_names()[v.0 as usize].as_str()).collect();
    let mut rows = result.canonical_rows_ordered(&order);
    // Sorted again by the standard library, so that the reference order
    // does not rest on `Relation::canonical_row_ids`, which both share.
    rows.sort();
    rows.dedup();
    let mut lines =
        vec![format!("OK rows n={} vars={} lines={}", rows.len(), names.join(","), rows.len())];
    lines.extend(
        rows.iter().map(|row| row.iter().map(u64::to_string).collect::<Vec<_>>().join(" ")),
    );
    lines
}

#[test]
fn query_replies_render_the_reference_rows_under_every_strategy() {
    let queries = [
        // Free variables listed out of atom order.
        "Q(C,A) :- PxR(A,B), PxS(B,C)",
        // A projection.
        "Q(B) :- PxR(A,B), PxS(B,C), PxT(C,D)",
        // A cycle.
        "Q(A,B,C) :- PxR(A,B), PxS(B,C), PxT(C,A)",
        // A Boolean query.
        "Q() :- PxR(A,B), PxS(B,C), PxT(C,A)",
        // The full 3-path: the answer comes out of Yannakakis in the
        // canonical order, and the renderer sorts nothing.
        "Q(A,B,C,D) :- PxR(A,B), PxS(B,C), PxT(C,D)",
        // Its head reversed: variables are numbered by their first
        // occurrence in the body, so the columns stay `A,B,C,D`.
        "Q(D,C,B,A) :- PxR(A,B), PxS(B,C), PxT(C,D)",
        // A free-centre star: every arm is a factor of its own.
        "Q(A,B,C,D) :- PxR(A,B), PxS(A,C), PxT(A,D)",
        // A private non-free variable, `C`, whose atom adds no column.
        "Q(A,B,D) :- PxR(A,B), PxS(B,C), PxT(B,D)",
        // A tree whose preorder writes `E` before `D`: the rows come out
        // unsorted, and the renderer's sort puts them in order.
        "Q(A,B,C,D,E) :- PxR(A,B), PxS(B,C), PxR(A,D), PxT(C,E)",
    ];
    let mut rows_rendered = 0;
    for seed in 0..6u64 {
        // WHEN a session loads a random small database (duplicate rows
        // included, which `END` drops) ...
        let mut rng = StdRng::seed_from_u64(seed);
        let mut session = Session::new();
        let mut db = Database::new();
        for name in ["PxR", "PxS", "PxT"] {
            let rows: Vec<[u64; 2]> = (0..rng.gen_range(0..14))
                .map(|_| [rng.gen_range(0..5), rng.gen_range(0..5)])
                .collect();
            session.handle_line(&format!("LOAD {name} 2"));
            for [a, b] in &rows {
                session.handle_line(&format!("{a} {b}"));
            }
            session.handle_line("END");
            db.insert(name, Relation::from_rows(2, rows).deduped());
        }
        for strategy in STRATEGIES {
            session.handle_line(&format!("STRATEGY {}", strategy.name()));
            for text in queries {
                // ... and asks each query under each strategy,
                let reply = session.handle_line(&format!("QUERY {text}"));
                // (`lines=` announces the body exactly, answer or error.)
                assert_eq!(body_lines(&reply.lines[0]), reply.lines.len() - 1, "{:?}", reply.lines);
                let panda = Panda::new(parse_query(text).unwrap());
                match panda.try_evaluate_with(&db, strategy) {
                    // THEN an answer is the reference rendering of the
                    // in-process result, byte for byte,
                    Ok(result) => {
                        let expected = reference_rendering(panda.query(), &result);
                        assert_eq!(reply.lines, expected, "seed {seed} {strategy} {text}");
                        // AND `n=` counts the body it heads.
                        let n: usize = reply.lines[0]
                            .split_whitespace()
                            .find_map(|field| field.strip_prefix("n="))
                            .and_then(|n| n.parse().ok())
                            .unwrap();
                        let body = reply.lines.len() - 1;
                        assert!(n == body || panda.query().is_boolean(), "{:?}", reply.lines);
                        rows_rendered += body;
                    }
                    // THEN a strategy that cannot run the query answers
                    // an error instead.
                    Err(err) => {
                        assert!(reply.lines[0].starts_with("ERR"), "{err}: {:?}", reply.lines)
                    }
                }
            }
        }
    }
    assert!(rows_rendered > 100, "the databases must give the renderer rows to order");
}
