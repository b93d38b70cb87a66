//! Fuzzing the serving layer's parsers: arbitrary input must never panic
//! the wire parser, the session state machine or the resumable statement
//! parser — every outcome is a structured response.
//!
//! Four properties:
//!
//! 1. raw byte soup through [`Session::handle_line`] never panics and
//!    every reply keeps the framing invariant (`lines=` on the header
//!    announces the body exactly; errors are one line);
//! 2. keyword-shaped token soup through [`parse_request`] is total —
//!    `Ok(request)` or a single-line `ERR <code> ...`, nothing else;
//! 3. chunking is transparent to [`parse_statement`]: draining a script
//!    fed in arbitrary pieces yields the same statements and errors as
//!    draining it whole (the shell's incremental input path);
//! 4. differential: `QUERY` through a session returns exactly the rows the
//!    library returns for the same database and query.
//!
//! The vendored proptest shim is deterministic (fixed seed), so failures
//! reproduce exactly; `PROPTEST_CASES` scales the case count.

use panda::prelude::*;
use panda::server::session::Session;
use panda::server::{body_lines, parse_request, Reply};
use proptest::collection;
use proptest::prelude::*;

/// The framing invariant every reply must satisfy, fuzz or not.
fn framing_ok(reply: &Reply) -> Result<(), String> {
    let Some(header) = reply.lines.iter().next() else {
        return Ok(()); // silent replies (blank lines, LOAD data) are legal
    };
    if !header.starts_with("OK") && !header.starts_with("ERR") {
        return Err(format!("header is neither OK nor ERR: {header}"));
    }
    if header.starts_with("ERR") && reply.lines.len() != 1 {
        return Err(format!("ERR must be a single line: {:?}", reply.lines));
    }
    if body_lines(header) != reply.lines.len() - 1 {
        return Err(format!("lines= does not match the body: {:?}", reply.lines));
    }
    // `len()` counts the `'\n'` on the wire; a buffer that does not end in
    // one holds an unterminated line that count misses.
    if reply.lines.as_bytes().last() != Some(&b'\n') {
        return Err(format!("the reply bytes must end in a newline: {:?}", reply.lines));
    }
    Ok(())
}

proptest! {
    #[test]
    fn raw_bytes_never_panic_the_session(
        lines in collection::vec(collection::vec(0u8..255, 0..48), 0..24)
    ) {
        let mut session = Session::new();
        for bytes in &lines {
            let text = String::from_utf8_lossy(bytes).into_owned();
            let reply = session.handle_line(&text);
            if let Err(msg) = framing_ok(&reply) {
                prop_assert!(false, "{} for input {:?}", msg, text);
            }
        }
        // Whatever the soup did (it may have opened a LOAD block), the
        // session must still be usable: close any block, then ping.
        let _ = session.handle_line("END");
        let pong = session.handle_line("PING");
        prop_assert_eq!(pong.lines.iter().collect::<Vec<_>>(), vec!["OK pong"]);
    }
}

/// Tokens biased towards the protocol's grammar so the fuzz reaches deep
/// branches (tags, budgets, arities) instead of bouncing off
/// `unknown_command`.  The shim has no string strategies, so lines are
/// assembled by sampling indices into this pool.
const TOKEN_POOL: &[&str] = &[
    "PING",
    "LOAD",
    "END",
    "CLEAR",
    "QUERY",
    "EXPLAIN",
    "STRATEGY",
    "BUDGET",
    "STATS",
    "CANCEL",
    "QUIT",
    "GLOBAL",
    "#1",
    "#99",
    "#x",
    "#",
    "FzTok",
    "fz_tok",
    "bad-name",
    "0",
    "1",
    "2",
    "32",
    "33",
    "18446744073709551615",
    "18446744073709551616",
    "pivots=1",
    "pivots=none",
    "pivots=",
    "rows=soon",
    "branches=4",
    "=",
    "auto",
    "adaptive",
    "yannakakis",
    "static-td",
    "generic-join",
    "binary-join",
    "warp-drive",
    "Q(A,B)",
    ":-",
    "R(A,B),",
    "S(B,C)",
    "Q(A",
    ",",
    "(",
    ")",
    ";",
    "--",
    "\u{1F47E}",
    "\t",
    "",
];

proptest! {
    #[test]
    fn token_soup_keeps_the_wire_parser_total(
        lines in collection::vec(collection::vec(0usize..50, 0..7), 0..24)
    ) {
        let mut session = Session::new();
        for picks in &lines {
            let line = picks
                .iter()
                .map(|&i| TOKEN_POOL.get(i).copied().unwrap_or("PING"))
                .collect::<Vec<_>>()
                .join(" ");
            // The parser is total: a request or a one-line structured error.
            if let Err(err) = parse_request(&line) {
                let rendered = err.render();
                prop_assert!(rendered.starts_with("ERR "), "{rendered}");
                prop_assert!(!rendered.contains('\n'), "{rendered}");
            }
            // And the session absorbs the same line without panicking.
            let reply = session.handle_line(&line);
            if let Err(msg) = framing_ok(&reply) {
                prop_assert!(false, "{} for input {:?}", msg, line);
            }
        }
    }
}

/// Statements biased towards parser edge cases: valid queries, malformed
/// fragments, blanks and comment-ish garbage.  ASCII only, so chunk splits
/// at arbitrary byte offsets stay on character boundaries.
const STATEMENT_POOL: &[&str] = &[
    "Q(A,B) :- FzR(A,B)",
    "Q(A,C) :- FzR(A,B), FzS(B,C)",
    "Q() :- FzR(X,X)",
    "Q(A,B) :- FzR(A,B", // malformed: unclosed paren
    "Q(A,B)",            // malformed: no body
    "   ",               // blank: skipped, not an error
    "!! garbage !!",
];

/// Fully drains `buffer` through [`parse_statement`], returning each
/// statement (`Ok`) or parse error (`Err`) in order.
fn drain(buffer: &mut String) -> Vec<Result<String, String>> {
    let mut out = Vec::new();
    loop {
        match parse_statement(buffer) {
            Parsed::Incomplete => return out,
            Parsed::Statement { query, consumed } => {
                out.push(Ok(query.to_string()));
                buffer.drain(..consumed);
            }
            Parsed::Malformed { error, consumed } => {
                out.push(Err(error.to_string()));
                buffer.drain(..consumed);
            }
        }
    }
}

proptest! {
    #[test]
    fn chunking_is_transparent_to_parse_statement(
        picks in collection::vec((0usize..7, 0usize..2), 0..10),
        cuts in collection::vec(0usize..97, 0..12)
    ) {
        // Assemble a script from the pool, alternating the two terminators.
        let mut script = String::new();
        for &(i, term) in &picks {
            script.push_str(STATEMENT_POOL.get(i).copied().unwrap_or(""));
            script.push(if term == 0 { ';' } else { '\n' });
        }

        // Reference: drain the whole script at once.
        let mut whole = script.clone();
        let reference = drain(&mut whole);

        // Chunked: split the script at the (sorted, deduped) cut offsets
        // and drain after every chunk, carrying the remainder forward.
        let mut offsets: Vec<usize> =
            cuts.iter().map(|&c| c * script.len() / 97).collect();
        offsets.sort_unstable();
        offsets.dedup();
        offsets.retain(|&o| o > 0 && o < script.len());
        let mut chunked = Vec::new();
        let mut buffer = String::new();
        let mut start = 0;
        for &end in offsets.iter().chain(std::iter::once(&script.len())) {
            buffer.push_str(script.get(start..end).unwrap_or(""));
            chunked.extend(drain(&mut buffer));
            start = end;
        }

        prop_assert_eq!(chunked, reference);
        prop_assert!(
            matches!(parse_statement(&buffer), Parsed::Incomplete),
            "fully drained buffers must stay incomplete: {:?}", buffer
        );
    }
}

proptest! {
    #[test]
    fn session_queries_agree_with_the_library(
        r_rows in collection::vec((0u64..6, 0u64..6), 0..12),
        s_rows in collection::vec((0u64..6, 0u64..6), 0..12),
        shape in 0usize..5
    ) {
        let queries = [
            "Q(A,B) :- FzR(A,B)",
            "Q(A,C) :- FzR(A,B), FzS(B,C)",
            "Q(A,B,C) :- FzR(A,B), FzS(B,C)",
            "Q(X,Y) :- FzR(X,Y), FzS(Y,X)",
            "Q(A,B,C) :- FzR(A,B), FzR(B,C), FzR(A,C)",
        ];
        let text = queries.get(shape).copied().unwrap_or(queries[0]);

        // The library reference.
        let mut db = Database::new();
        db.insert("FzR", Relation::from_rows(2, r_rows.iter().map(|&(a, b)| [a, b])));
        db.insert("FzS", Relation::from_rows(2, s_rows.iter().map(|&(a, b)| [a, b])));
        let query = parse_query(text).unwrap();
        let vars = query.free_vars().to_vec();
        let answer = Panda::new(query).evaluate(&db);
        let expected: Vec<String> = answer
            .canonical_rows_ordered(&vars)
            .iter()
            .map(|row| row.iter().map(u64::to_string).collect::<Vec<_>>().join(" "))
            .collect();

        // The same data through the wire.
        let mut session = Session::new();
        for (name, rows) in [("FzR", &r_rows), ("FzS", &s_rows)] {
            session.handle_line(&format!("LOAD {name} 2"));
            for &(a, b) in rows.iter() {
                session.handle_line(&format!("{a} {b}"));
            }
            session.handle_line("END");
        }
        let reply = session.handle_line(&format!("QUERY {text}"));
        if let Err(msg) = framing_ok(&reply) {
            prop_assert!(false, "{msg}");
        }
        let header = reply.lines.iter().next().unwrap_or_default().to_string();
        prop_assert!(
            header.starts_with(&format!("OK rows n={} ", expected.len())),
            "header {:?} disagrees with {} library rows", header, expected.len()
        );
        prop_assert_eq!(reply.lines.iter().skip(1).collect::<Vec<_>>(), &expected[..]);
    }
}
