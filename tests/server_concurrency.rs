//! Concurrent-session determinism: N clients hammering one TCP server get
//! byte-for-byte the transcripts a sequential in-process [`Session`] gives
//! for the same scripts — concurrency, shared plan cache, backpressure and
//! a warm cache must all be invisible in the bytes.
//!
//! The one deliberately racy path, out-of-band `CANCEL`, is tested for its
//! *envelope* instead: the target request answers either its full correct
//! result or `ERR cancelled`, the ack names a legal state, and the session
//! keeps serving afterwards.
//!
//! This binary runs in the CI matrix (engines × thread counts) and in the
//! plan-cache-off job, covering cache-on and cache-off modes.

// panda-lint: allow-file(D2) -- this test IS the concurrency harness for
// the serving layer: it needs real client threads against a real TCP
// server to exercise the reader/worker hand-off.  Determinism is the
// property under test, not a casualty: every assertion compares against a
// sequential reference transcript.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use panda::server::session::Session;
use panda::server::{body_lines, serve, ServeOptions, QUEUE_CAP};

/// Boots a server on an ephemeral port and leaves it accepting in a
/// detached thread for the lifetime of the test process.
fn spawn_server() -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    thread::spawn(move || {
        let _ = serve(&listener, ServeOptions::default());
    });
    addr
}

/// How long a client waits for bytes before the test fails instead of
/// hanging: a wedged connection is a failure, not a stuck CI job.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// Runs a script over one TCP connection, fully pipelined: writes every
/// request, half-closes, and reads response lines until the server closes.
fn run_client(addr: std::net::SocketAddr, script: &[String]) -> Vec<String> {
    let mut payload = String::new();
    for line in script {
        payload.push_str(line);
        payload.push('\n');
    }
    run_raw(addr, payload.as_bytes())
}

/// [`run_client`] for a payload that is already bytes (and need not be
/// UTF-8).  The writer is a thread of its own: the server stops reading
/// when its queue is full, so a large script can only be written while
/// the responses are being read.
fn run_raw(addr: std::net::SocketAddr, payload: &[u8]) -> Vec<String> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(CLIENT_TIMEOUT)).expect("set read timeout");
    let mut writer = stream.try_clone().expect("clone stream");
    let reader = BufReader::new(stream);
    thread::scope(|scope| {
        scope.spawn(move || {
            writer.write_all(payload).expect("write script");
            let _ = stream_shutdown_write(&writer);
        });
        let mut out = Vec::new();
        for line in reader.lines() {
            out.push(line.expect("read response line"));
        }
        out
    })
}

fn stream_shutdown_write(stream: &TcpStream) -> std::io::Result<()> {
    stream.shutdown(Shutdown::Write)
}

/// The sequential reference: the same script through a fresh in-process
/// session, no sockets and no threads.
fn reference(script: &[String]) -> Vec<String> {
    let mut session = Session::new();
    let mut out = Vec::new();
    for line in script {
        let reply = session.handle_line(line);
        out.extend(reply.lines);
        if reply.quit {
            break;
        }
    }
    out
}

fn s(lines: &[&str]) -> Vec<String> {
    lines.iter().map(ToString::to_string).collect()
}

/// Six deliberately different workloads: happy-path joins, EXPLAIN,
/// strategy switches, budget downgrades and structured errors, so the
/// interleaving mixes cheap and expensive requests and error paths.
fn workloads(tag: usize) -> Vec<String> {
    let base = [
        s(&[
            "LOAD CcR 2",
            "1 2",
            "2 3",
            "3 4",
            "END",
            "LOAD CcS 2",
            "2 9",
            "3 9",
            "END",
            "QUERY Q(A,C) :- CcR(A,B), CcS(B,C)",
            "EXPLAIN Q(A,C) :- CcR(A,B), CcS(B,C)",
        ]),
        s(&[
            "LOAD CcE 2",
            "1 2",
            "2 3",
            "1 3",
            "END",
            "QUERY Tri() :- CcE(A,B), CcE(B,C), CcE(A,C)",
            "STRATEGY generic-join",
            "QUERY Q(A,B,C) :- CcE(A,B), CcE(B,C), CcE(A,C)",
        ]),
        s(&[
            "LOAD CcX 2",
            "1 2",
            "END",
            "LOAD CcY 2",
            "2 3",
            "END",
            "LOAD CcZ 2",
            "3 4",
            "END",
            "LOAD CcW 2",
            "4 1",
            "END",
            "BUDGET pivots=1",
            "EXPLAIN Q(X,Y) :- CcX(X,Y), CcY(Y,Z), CcZ(Z,W), CcW(W,X)",
            "QUERY Q(X,Y) :- CcX(X,Y), CcY(Y,Z), CcZ(Z,W), CcW(W,X)",
        ]),
        s(&[
            "LOAD CcC 2",
            "1 2",
            "2 1",
            "END",
            "STRATEGY yannakakis",
            "QUERY Tri() :- CcC(A,B), CcC(B,C), CcC(C,A)",
            "STRATEGY auto",
            "QUERY Q(A,B) :- CcC(A,B)",
        ]),
        s(&[
            "PING",
            "QUERY nonsense",
            "LOAD CcB 2",
            "1 oops",
            "END",
            "QUERY Q(A,B) :- CcB(A,B)",
            "BUDGET pivots=zero",
            "PING",
        ]),
        s(&[
            "LOAD CcP 3",
            "1 2 3",
            "4 5 6",
            "END",
            "QUERY Q(A,B,C) :- CcP(A,B,C)",
            "STRATEGY binary-join",
            "QUERY Q(A,C) :- CcP(A,B,C)",
        ]),
    ];
    base.get(tag % base.len()).cloned().unwrap_or_default()
}

#[test]
fn concurrent_clients_match_the_sequential_reference() {
    let addr = spawn_server();
    let scripts: Vec<Vec<String>> = (0..6).map(workloads).collect();
    let expected: Vec<Vec<String>> = scripts.iter().map(|sc| reference(sc)).collect();

    // Cold pass: all six clients at once, then a warm pass to pin that a
    // warm process-wide plan cache changes no bytes.
    for pass in ["cold", "warm"] {
        let handles: Vec<_> = scripts
            .iter()
            .cloned()
            .map(|script| thread::spawn(move || run_client(addr, &script)))
            .collect();
        for (i, handle) in handles.into_iter().enumerate() {
            let transcript = handle.join().expect("client thread");
            assert_eq!(
                transcript, expected[i],
                "{pass} client {i} diverged from the sequential reference"
            );
        }
    }
}

#[test]
fn backpressure_preserves_order_beyond_the_queue_capacity() {
    // 5× the bounded queue, fully pipelined: the reader must block, not
    // drop or reorder, so the response stream is exactly N pongs.
    let addr = spawn_server();
    let n = QUEUE_CAP * 5;
    let script: Vec<String> = (0..n).map(|_| "PING".to_string()).collect();
    let transcript = run_client(addr, &script);
    assert_eq!(transcript, vec!["OK pong".to_string(); n]);
}

#[test]
fn oversized_lines_resync_at_the_next_newline() {
    let addr = spawn_server();
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut payload = Vec::new();
    payload.extend_from_slice(b"PING\n");
    payload.extend_from_slice(&vec![b'x'; 80 * 1024]);
    payload.extend_from_slice(b"\nPING\n");
    writer.write_all(&payload).expect("write");
    let _ = stream.shutdown(Shutdown::Write);
    let mut text = String::new();
    BufReader::new(stream).read_to_string(&mut text).expect("read");
    // The line_too_long error is written by the reader out-of-band, so its
    // position relative to the pongs is not pinned — the multiset is.
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "framing must resync after the oversized line: {lines:?}");
    assert_eq!(lines.iter().filter(|l| **l == "OK pong").count(), 2, "{lines:?}");
    assert_eq!(
        lines.iter().filter(|l| l.starts_with("ERR line_too_long")).count(),
        1,
        "oversized line must be answered with a structured error: {lines:?}"
    );
}

/// Splits a raw response-line stream into framed replies using the
/// protocol's own `lines=` rule.
fn frame(lines: &[String]) -> Vec<Vec<String>> {
    let mut out = Vec::new();
    let mut i = 0;
    while let Some(header) = lines.get(i) {
        let body = body_lines(header);
        out.push(lines.get(i..=i + body).map(<[String]>::to_vec).unwrap_or_default());
        i += body + 1;
    }
    out
}

/// One block of racy `CANCEL`s against an adaptive triangle query, with
/// the `BUDGET` line of the session given or left out.
fn cancel_race_rounds(budget_line: &[&str]) {
    // The cancel itself is racy (queued / inflight / already done); the
    // *outcome* must not be: the target answers its full correct result or
    // `ERR cancelled`, and the session keeps serving either way.
    let addr = spawn_server();
    for round in 0..25 {
        // Explicit plans are cached and relation names are part of the plan
        // key, so a relation of its own keeps every round's planning cold:
        // each round can meet the `CANCEL` at a pivot.
        let rel = format!("Cn{round}R");
        let header = format!("LOAD {rel} 2");
        let load = [header.as_str(), "1 2", "2 3", "3 1", "END"];
        let target = format!("QUERY Q(A,B,C) :- {rel}(A,B), {rel}(B,C), {rel}(C,A)");
        let tagged = format!("#1 {target}");
        let tail_query = format!("QUERY Q(A,B) :- {rel}(A,B)");
        let script = s(&[
            &load[..],
            budget_line,
            &["STRATEGY adaptive", &tagged, "CANCEL 1", "STRATEGY auto", &tail_query],
        ]
        .concat());
        let transcript = run_client(addr, &script);
        // The references run in this process after the client, so they
        // cannot warm the plan cache the server plans against.
        // The follow-up query's exact bytes, from a session that never cancels.
        let tail_expected = reference(&s(&[&load[..], &[tail_query.as_str()]].concat()));
        let tail_expected = &tail_expected[1..]; // drop the LOAD ack
        let full_expected =
            reference(&s(&[&load[..], budget_line, &["STRATEGY adaptive", &target]].concat()));
        // The target's success reply follows one ack per set-up command.
        let full_expected = &full_expected[2 + budget_line.len()..];

        let replies = frame(&transcript);
        // LOAD (+ BUDGET) + STRATEGY, target, cancel ack, STRATEGY, tail.
        assert_eq!(replies.len(), 6 + budget_line.len(), "round {round}: {transcript:?}");
        // The ack may interleave anywhere between whole replies (the
        // reader writes it out-of-band), so classify by content.
        let mut target = None;
        let mut ack = None;
        let mut tail = None;
        for reply in &replies {
            let header = reply.first().map(String::as_str).unwrap_or_default();
            if header.starts_with("OK cancel id=1") {
                ack = Some(reply.clone());
            } else if reply[..] == *tail_expected {
                tail = Some(reply.clone());
            } else if reply[..] == *full_expected || header.starts_with("ERR cancelled") {
                target = Some(reply.clone());
            }
        }
        let target =
            target.unwrap_or_else(|| panic!("round {round}: no target reply in {transcript:?}"));
        let ack = ack.unwrap_or_else(|| panic!("round {round}: no cancel ack in {transcript:?}"));
        let tail = tail.unwrap_or_else(|| panic!("round {round}: no tail reply in {transcript:?}"));

        // Envelope for the racy target: all-or-nothing.
        if target[0].starts_with("OK") {
            assert_eq!(&target[..], full_expected, "round {round}: partial result leaked");
        } else {
            assert!(
                target[0].starts_with("ERR cancelled "),
                "round {round}: unexpected target error {target:?}"
            );
        }
        // The ack names one of the legal states.
        let legal = ["queued", "inflight", "done", "pending"]
            .iter()
            .any(|st| ack[0] == format!("OK cancel id=1 state={st}"));
        assert!(legal, "round {round}: bad ack {ack:?}");
        // The session survives: the follow-up is byte-exact.
        assert_eq!(&tail[..], tail_expected, "round {round}");
    }
}

#[test]
fn mid_query_cancel_is_race_free_in_outcome() {
    cancel_race_rounds(&["BUDGET pivots=10000"]);
}

#[test]
fn mid_query_cancel_is_race_free_without_a_pivot_limit() {
    // The token rides on the request's unlimited budget, so an in-flight
    // `CANCEL` binds at the next pivot with no `BUDGET` line sent.
    cancel_race_rounds(&[]);
}

#[test]
fn a_session_after_cancellation_still_caches_and_explains() {
    // Cancellation must not poison the process-wide plan cache: after a
    // cancelled request, the same query from a fresh connection must give
    // the exact sequential-reference bytes.
    let addr = spawn_server();
    let cancel_script = s(&[
        "LOAD CpR 2",
        "1 2",
        "2 3",
        "END",
        "#5 QUERY Q(A,C) :- CpR(A,B), CpR(B,C)",
        "CANCEL 5",
    ]);
    let _ = run_client(addr, &cancel_script);
    let follow_script = s(&[
        "LOAD CpR 2",
        "1 2",
        "2 3",
        "END",
        "QUERY Q(A,C) :- CpR(A,B), CpR(B,C)",
        "EXPLAIN Q(A,C) :- CpR(A,B), CpR(B,C)",
    ]);
    assert_eq!(run_client(addr, &follow_script), reference(&follow_script));
}

// ---- chunked LOAD blocks: how many lines travel together is invisible ----

/// `LOAD <rel> 2`, `rows` distinct 16-byte rows, `END`: more than
/// `rows / 4096` chunks of 64 KiB when it arrives faster than it is read.
fn block(rel: &str, rows: usize) -> Vec<String> {
    let mut script = vec![format!("LOAD {rel} 2")];
    script.extend((0..rows).map(|i| format!("{} {}", 1_000_000 + i, 2_000_000 + i)));
    script.push("END".to_string());
    script
}

#[test]
fn a_block_spanning_several_chunks_loads_every_row() {
    // ~320 KiB of rows, then the whole relation back: a row cut, dropped or
    // doubled at a chunk boundary would show in the answer.
    let mut script = block("CkBig", 20_000);
    script.push("QUERY Q(A,B) :- CkBig(A,B)".to_string());
    let expected = reference(&script);
    assert_eq!(expected.first().map(String::as_str), Some("OK loaded rel=CkBig rows=20000"));
    assert_eq!(run_client(spawn_server(), &script), expected);
}

#[test]
fn a_row_poisoned_in_the_first_chunk_is_reported_at_end() {
    let mut script = block("CkBad", 20_000);
    script[10] = "7 seven".to_string();
    script.extend(block("CkBad", 3));
    script.push("QUERY Q(A,B) :- CkBad(A,B)".to_string());
    let expected = reference(&script);
    assert_eq!(
        expected.first().map(String::as_str),
        Some("ERR load_error non-integer value `seven` in LOAD CkBad")
    );
    assert_eq!(run_client(spawn_server(), &script), expected);
}

#[test]
fn a_cancel_line_inside_a_block_is_answered_and_the_block_still_loads() {
    // Tag 99 names no request, so the ack is the session's in-order
    // `pending`, not a racy out-of-band one.
    let mut script = block("CkCan", 6_000);
    script.insert(3_000, "CANCEL 99".to_string());
    script.insert(5, "#4 CANCEL 98".to_string());
    let expected = reference(&script);
    assert_eq!(
        expected,
        s(&[
            "OK cancel id=98 state=pending",
            "OK cancel id=99 state=pending",
            "OK loaded rel=CkCan rows=6000"
        ])
    );
    assert_eq!(run_client(spawn_server(), &script), expected);
}

#[test]
fn lines_after_a_header_that_opened_no_block_are_answered_one_by_one() {
    // The reader takes `#7 LOAD CkNo 2` for the start of a block; the
    // session, which answers it `ERR cancelled`, does not.  Nor does it for
    // a header the reader also rejects.
    let numeric = ["1 2", "3 4", "", "5 6", "END", "PING"];
    for header in [&["CANCEL 7", "#7 LOAD CkNo 2"][..], &["LOAD CkNo 0"]] {
        let script = s(&[header, &numeric[..]].concat());
        let expected = reference(&script);
        assert_eq!(expected.len(), header.len() + 5, "one answer per non-blank line");
        assert_eq!(run_client(spawn_server(), &script), expected);
    }
    // Commands in such a run of lines are commands, `QUIT` included.
    let script =
        s(&["CANCEL 7", "#7 LOAD CkNo 2", "PING", "LOAD CkYes 1", "5", "END", "QUIT", "9"]);
    let expected = reference(&script);
    assert_eq!(expected[2..], s(&["OK pong", "OK loaded rel=CkYes rows=1", "OK bye"]));
    assert_eq!(run_client(spawn_server(), &script), expected);
}

#[test]
fn a_client_that_waits_for_each_answer_is_never_kept_waiting_by_a_chunk() {
    // Closed loop: nothing is sent until the last line was answered, so a
    // reader that held `PING` back for an `END` that never comes would hang.
    let stream = TcpStream::connect(spawn_server()).expect("connect");
    stream.set_read_timeout(Some(CLIENT_TIMEOUT)).expect("set read timeout");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut session = Session::new();
    let script =
        ["CANCEL 7", "#7 LOAD CkNo 2", "PING", "STATS", "LOAD CkYes 1", "5", "CANCEL 8", "END"];
    for line in script {
        writer.write_all(format!("{line}\n").as_bytes()).expect("write request");
        for expected in session.handle_line(line).lines {
            let mut answer = String::new();
            reader.read_line(&mut answer).expect("an answer before the timeout");
            assert_eq!(answer.trim_end(), expected, "answer to {line:?}");
        }
    }
}

#[test]
fn blank_padded_and_crlf_lines_inside_a_block() {
    let script = s(&[
        "LOAD CkPad 2\r",
        "1 2\r",
        "",
        "   ",
        "  3   4  \r",
        "\t5\t6",
        "  END  \r",
        "QUERY Q(A,B) :- CkPad(A,B)\r",
    ]);
    assert_eq!(run_client(spawn_server(), &script), reference(&script));
}

#[test]
fn eof_in_the_middle_of_a_block_discards_it_quietly() {
    let mut script = s(&["PING"]);
    script.extend(block("CkEof", 9_000));
    script.pop(); // no END
    assert_eq!(run_client(spawn_server(), &script), s(&["OK pong"]));
}

#[test]
fn quit_queued_behind_a_block_is_answered_after_it() {
    let mut script = block("CkQuit", 9_000);
    script.push("QUIT".to_string());
    assert_eq!(
        run_client(spawn_server(), &script),
        s(&["OK loaded rel=CkQuit rows=9000", "OK bye"])
    );
}

#[test]
fn a_block_sent_line_by_line_matches_the_reference() {
    // The opposite of pipelining: every line its own segment, so chunks end
    // wherever the reader happens to run dry.
    let mut script = block("CkDrip", 300);
    script.insert(100, "CANCEL 99".to_string());
    script.push("QUERY Q(A) :- CkDrip(A,B)".to_string());
    let stream = TcpStream::connect(spawn_server()).expect("connect");
    stream.set_nodelay(true).expect("set nodelay");
    stream.set_read_timeout(Some(CLIENT_TIMEOUT)).expect("set read timeout");
    let mut writer = stream.try_clone().expect("clone stream");
    for line in &script {
        writer.write_all(format!("{line}\n").as_bytes()).expect("write line");
    }
    let _ = stream_shutdown_write(&writer);
    let transcript: Vec<String> =
        BufReader::new(stream).lines().map(|line| line.expect("read response line")).collect();
    assert_eq!(transcript, reference(&script));
}

#[test]
fn backpressure_preserves_order_around_a_block_of_more_chunks_than_the_queue_holds() {
    // More than QUEUE_CAP chunks of 64 KiB (> 4 MiB) between the pings: the
    // reader must block on the full queue, not drop or reorder a chunk.
    let rows = (QUEUE_CAP + 8) * 4096;
    let pings = vec!["PING".to_string(); QUEUE_CAP];
    let script = [pings.clone(), block("CkWide", rows), pings].concat();
    assert!(script.iter().map(|line| line.len() + 1).sum::<usize>() > QUEUE_CAP * 64 * 1024);
    let mut expected = vec!["OK pong".to_string(); QUEUE_CAP];
    expected.push(format!("OK loaded rel=CkWide rows={rows}"));
    expected.extend(vec!["OK pong".to_string(); QUEUE_CAP]);
    assert_eq!(run_client(spawn_server(), &script), expected);
}

// ---- a connection ends or answers; it never wedges ----

#[test]
fn bytes_that_are_not_utf8_are_answered_in_order() {
    // Outside a block the line is an unknown command, inside one a bad row.
    let payload = b"PING\n\xff\xfe\nPING\nLOAD CkRaw 2\n1 2\n3 \xff\nEND\nPING\n";
    let script: Vec<String> =
        String::from_utf8_lossy(payload).lines().map(ToString::to_string).collect();
    let expected = reference(&script);
    assert_eq!(
        expected,
        s(&[
            "OK pong",
            "ERR unknown_command unknown command `\u{fffd}\u{fffd}`",
            "OK pong",
            "ERR load_error non-integer value `\u{fffd}` in LOAD CkRaw",
            "OK pong"
        ])
    );
    assert_eq!(run_raw(spawn_server(), payload), expected);
}

#[test]
fn a_request_that_panics_is_answered_and_the_connection_keeps_serving() {
    // Closed loop, as a client that waits for every answer: a worker that
    // died with the request would leave the next read hanging.
    let addr = spawn_server();
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(CLIENT_TIMEOUT)).expect("set read timeout");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    // A one-column atom over a two-column relation: the binding asserts
    // that the arities agree.
    let cycle = "QUERY Q(A) :- CkBoom(A)";
    // (request line, whether it is answered)
    let script = [
        ("LOAD CkBoom 2", false),
        ("1 2", false),
        ("2 1", false),
        ("END", true),
        (cycle, true),
        ("PING", true),
    ];
    let mut answers = Vec::new();
    for (line, answered) in script {
        writer.write_all(format!("{line}\n").as_bytes()).expect("write request");
        if answered {
            let mut answer = String::new();
            reader.read_line(&mut answer).expect("an answer before the timeout");
            answers.push(answer.trim_end().to_string());
        }
    }
    assert_eq!(answers.len(), 3, "{answers:?}");
    assert_eq!(answers[0], "OK loaded rel=CkBoom rows=2");
    assert!(answers[1].starts_with("ERR internal "), "{answers:?}");
    assert_eq!(answers[2], "OK pong");
    // Other connections were never affected.
    assert_eq!(run_client(addr, &s(&["PING"])), s(&["OK pong"]));
}

#[test]
fn a_reset_connection_ends_the_serve_loop() {
    // The client leaves with an answer unread, which resets the
    // connection under the reader.  `serve` with `once` returns only when
    // both halves of the connection are done.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    let (done, served) = mpsc::channel();
    thread::spawn(move || {
        let _ = serve(&listener, ServeOptions { once: true, ..ServeOptions::default() });
        let _ = done.send(());
    });
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(CLIENT_TIMEOUT)).expect("set read timeout");
    let mut oversized = vec![b'x'; 80 * 1024];
    oversized.push(b'\n');
    stream.write_all(&oversized).expect("write");
    // The reader has answered (`ERR line_too_long …`); take one byte of it.
    stream.read_exact(&mut [0u8; 1]).expect("first byte of the answer");
    drop(stream);
    served.recv_timeout(CLIENT_TIMEOUT).expect("the serve loop ends when its connection is reset");
}
