//! Transports: the concurrent TCP serve loop and the sequential stdio loop.
//!
//! Each TCP connection gets its own [`Session`] plus two threads: a
//! *reader* that takes lines off the socket and a *worker* that drains
//! them through [`Session::handle_line_with`] in arrival order.  The
//! hand-off queue is **bounded**: a full queue blocks the reader (and,
//! through TCP flow control, the client) instead of dropping or reordering
//! requests, so backpressure never changes the response stream — each
//! client's responses are the same bytes it would get from an unloaded
//! server, just later.
//!
//! # One hand-off per request, not per line
//!
//! A hand-off is a mutex acquisition and a condvar wake-up, which costs
//! more than parsing a row.  So the rows of a `LOAD` block do not cross the
//! queue one by one: after a well-formed `LOAD` header the reader gathers
//! the header and the lines that follow into a **chunk job**, which it
//! hands over when
//!
//! * a bare `END` closes the block,
//! * the next line would take the chunk past [`MAX_LINE_BYTES`] — so a
//!   queued job is at most 64 KiB of request text whether it is one maximal
//!   line or a chunk of short ones, and the queue holds at most
//!   [`QUEUE_CAP`] × 64 KiB exactly as it did when every line was a job,
//! * a `CANCEL` line arrives (the chunk goes first, then the cancel is
//!   handled as anywhere else), or
//! * the socket has nothing more to give: the reader never blocks in a
//!   read while it holds lines back, so a client that waits for an answer
//!   before it sends its next line sees the timing it always saw.
//!
//! Chunking carries no meaning.  Inside a chunk the reader looks at a line
//! only through [`classify_block_line`] — the very function the session
//! uses, so the two cannot disagree about where a block ends — and never
//! parses it as a request.  The worker feeds a chunk to the session line by
//! line, in order, and writes each response as it comes: the session sees
//! the same sequence of `handle_line_with` calls as if every line had
//! travelled alone.  The reader can be wrong about a block being open (a
//! tagged header that was cancelled before it arrived is answered `ERR
//! cancelled` and opens nothing); the lines it then gathers are simply
//! commands that shared a hand-off, each still answered on its own.
//!
//! # Cancellation
//!
//! The one deliberately racy command is `CANCEL <id>`: the reader handles
//! it out-of-band so it can reach a request that is already executing.  A
//! queued or in-flight target has its [`CancelToken`] fired and the ack is
//! written immediately (it may interleave *between* whole responses —
//! never inside one); an unknown id falls through to the session, whose
//! pending/done answer is deterministic.  The chunks of a block carry the
//! tag and token of its header.  Scripted conformance transcripts
//! therefore avoid out-of-band `CANCEL`; everything else on a single
//! connection is bit-reproducible.
//!
//! # Writing
//!
//! Sockets run with `TCP_NODELAY` and a response is written with one
//! `write_all` of the buffer the session rendered it into
//! ([`crate::session::Lines::as_bytes`]), copied nowhere first: there is
//! nothing for Nagle's algorithm to coalesce, and no second piece that
//! waits for a delayed acknowledgement of the first.  The stdio loop
//! writes the same buffer.

// panda-lint: allow-file(D2) -- this file IS the serving layer's
// scheduler: the mutex/condvar pair implements the bounded FIFO hand-off
// between the reader and the worker, and per-request CancelTokens are
// one-way abort flags.  Requests are executed strictly in arrival order by
// a single worker per connection, so scheduling can delay responses but
// never reorder or rewrite them; the determinism contract is pinned by
// tests/server_concurrency.rs.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;

use panda_core::{CancelToken, Engine};

use crate::protocol::{
    classify_block_line, parse_request, BlockLine, Command, ErrorCode, Request, WireError,
    MAX_LINE_BYTES,
};
use crate::session::Session;

/// How many jobs — single request lines, or chunks of a `LOAD` block — may
/// wait between the reader and the worker of one connection before the
/// reader stops reading (backpressure).
pub const QUEUE_CAP: usize = 64;

/// Options for [`serve`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeOptions {
    /// Serve a single connection, then return (used by tests and CI).
    pub once: bool,
    /// The engine every session's requests run under (sequential by
    /// default; the binary maps `PANDA_THREADS` onto it).
    pub engine: Engine,
}

/// One hand-off from the reader to the worker: a request line, or a chunk
/// of consecutive lines of a `LOAD` block (each newline-terminated, at most
/// [`MAX_LINE_BYTES`] bytes in all) under the tag and token of the block's
/// header.
struct Job {
    text: String,
    id: Option<u64>,
    cancel: CancelToken,
}

#[derive(Default)]
struct ConnState {
    queue: VecDeque<Job>,
    inflight: Option<(Option<u64>, CancelToken)>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<ConnState>,
    ready: Condvar,
    space: Condvar,
}

/// Locks a mutex, recovering the guard from a poisoned lock (a panicking
/// peer thread must not wedge the connection).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Writes one whole response — its lines, each newline-terminated, as the
/// session rendered them into one buffer — with one `write_all`, so it
/// leaves as one burst of segments instead of pieces that each wait for
/// the last one's acknowledgement.
fn write_reply(writer: &Mutex<TcpStream>, bytes: &[u8]) -> io::Result<()> {
    if bytes.is_empty() {
        return Ok(());
    }
    lock(writer).write_all(bytes)
}

/// Hands `job` to the worker, blocking while the queue is full; an error
/// when the connection shut down instead.
fn enqueue(shared: &Shared, job: Job) -> io::Result<()> {
    let mut st = lock(&shared.state);
    while st.queue.len() >= QUEUE_CAP && !st.shutdown {
        st = shared.space.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
    }
    if st.shutdown {
        return Err(io::Error::new(io::ErrorKind::ConnectionAborted, "connection shut down"));
    }
    st.queue.push_back(job);
    shared.ready.notify_all();
    Ok(())
}

/// Hands over the lines gathered in `chunk`, if any, leaving it empty.
fn flush_chunk(shared: &Shared, chunk: &mut Job) -> io::Result<()> {
    if chunk.text.is_empty() {
        return Ok(());
    }
    let text = std::mem::take(&mut chunk.text);
    enqueue(shared, Job { text, id: chunk.id, cancel: chunk.cancel.clone() })
}

/// The reader half: reads request lines, answers oversized lines and
/// out-of-band cancels directly, gathers a `LOAD` block into chunk jobs and
/// enqueues every other line as a job of its own, blocking while the queue
/// is full.  However it ends — EOF, an I/O error, the worker gone — it
/// tells the worker to drain the queue and stop.
fn reader_loop(stream: TcpStream, shared: &Shared, writer: &Mutex<TcpStream>) -> io::Result<()> {
    let result = read_requests(stream, shared, writer);
    lock(&shared.state).shutdown = true;
    shared.ready.notify_all();
    result
}

fn read_requests(stream: TcpStream, shared: &Shared, writer: &Mutex<TcpStream>) -> io::Result<()> {
    // Room for a whole chunk: a block that arrives faster than it is read
    // then travels in chunks of MAX_LINE_BYTES, not of the default 8 KiB.
    let mut reader = BufReader::with_capacity(MAX_LINE_BYTES, stream);
    let mut raw = Vec::new();
    // The lines gathered since the last hand-off, while the last line
    // queued ahead of them was a well-formed `LOAD` header with no `END`
    // after it.  Whether the session opened a block for that header is not
    // the reader's business: the worker feeds the lines through it one by
    // one either way.
    let mut chunk: Option<Job> = None;
    loop {
        // Nothing waits here while the client waits for its answer: before
        // the read below can block, whatever was gathered is handed over.
        if reader.buffer().is_empty() {
            if let Some(open) = &mut chunk {
                flush_chunk(shared, open)?;
            }
        }
        raw.clear();
        // take() bounds how much one line can buffer; a line that hits the
        // cap without a newline is answered and the remainder drained.
        let mut limited = io::Read::take(&mut reader, (MAX_LINE_BYTES + 2) as u64);
        if limited.read_until(b'\n', &mut raw)? == 0 {
            return Ok(());
        }
        if raw.len() > MAX_LINE_BYTES && !raw.ends_with(b"\n") {
            // Drain the rest of the oversized line so framing resyncs at
            // the next newline.
            let mut rest = Vec::new();
            reader.read_until(b'\n', &mut rest)?;
        }
        // Bytes that are not UTF-8 decode to U+FFFD, and the line is
        // answered in order like any other that is no command and no row.
        let line = String::from_utf8_lossy(&raw);
        if line.len() > MAX_LINE_BYTES {
            let err = WireError::new(
                ErrorCode::LineTooLong,
                format!("request line exceeds {MAX_LINE_BYTES} bytes"),
            );
            write_reply(writer, format!("{}\n", err.render()).as_bytes())?;
            continue;
        }
        let line = line.trim_end_matches(['\r', '\n']);
        if let Some(open) = &mut chunk {
            let kind = classify_block_line(line);
            if !matches!(kind, BlockLine::Cancel(_)) {
                if open.text.len() + line.len() + 1 > MAX_LINE_BYTES {
                    flush_chunk(shared, open)?;
                }
                open.text.push_str(line);
                open.text.push('\n');
                if kind == BlockLine::End {
                    flush_chunk(shared, open)?;
                    chunk = None;
                }
                continue;
            }
            // A cancel is handled below as the command it is, behind the
            // lines that arrived before it.
            flush_chunk(shared, open)?;
        }
        // One parse serves the cancel check, the job's tag and the `LOAD`
        // header check.
        let request = parse_request(line).ok();
        // Out-of-band cancellation: reach queued and in-flight requests.
        if let Some(Request { command: Command::Cancel { id }, .. }) = request {
            let state = {
                let st = lock(&shared.state);
                if let Some(job) = st.queue.iter().find(|j| j.id == Some(id)) {
                    job.cancel.cancel();
                    Some("queued")
                } else if let Some((Some(inflight), token)) = st.inflight.as_ref() {
                    if *inflight == id {
                        token.cancel();
                        Some("inflight")
                    } else {
                        None
                    }
                } else {
                    None
                }
            };
            if let Some(state) = state {
                write_reply(writer, format!("OK cancel id={id} state={state}\n").as_bytes())?;
                continue;
            }
            // Unknown here: the session answers pending/done in order.
        }
        let is_load_header = matches!(request, Some(Request { command: Command::Load { .. }, .. }));
        let id = request.and_then(|r| r.id);
        let mut job = Job { text: line.to_string(), id, cancel: CancelToken::new() };
        if is_load_header {
            // The header travels with the lines that follow it.
            job.text.push('\n');
            chunk = Some(job);
        } else {
            enqueue(shared, job)?;
        }
    }
}

/// The worker half: executes requests strictly in arrival order through
/// the shared [`Session`] semantics and writes whole responses.  A chunk
/// job is fed to the session line by line, exactly as if every line had
/// been handed over on its own.
fn worker_loop(
    stream: &TcpStream,
    shared: &Shared,
    writer: &Mutex<TcpStream>,
    engine: Engine,
) -> io::Result<()> {
    let mut session = Session::with_engine(engine);
    loop {
        let job = {
            let mut st = lock(&shared.state);
            loop {
                if let Some(job) = st.queue.pop_front() {
                    shared.space.notify_all();
                    st.inflight = Some((job.id, job.cancel.clone()));
                    break job;
                }
                if st.shutdown {
                    return Ok(());
                }
                st = shared.ready.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        let mut quit = false;
        for line in job.text.lines() {
            let reply = session.handle_line_with(line, Some(&job.cancel));
            write_reply(writer, reply.lines.as_bytes())?;
            if reply.quit {
                quit = true;
                break;
            }
        }
        {
            let mut st = lock(&shared.state);
            st.inflight = None;
            if quit {
                st.shutdown = true;
            }
            shared.ready.notify_all();
            shared.space.notify_all();
        }
        if quit {
            let _ = stream.shutdown(Shutdown::Both);
            return Ok(());
        }
    }
}

/// Serves one accepted connection to completion (QUIT or EOF), its
/// session running under `engine`.
pub fn serve_connection(stream: TcpStream, engine: Engine) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let writer = Arc::new(Mutex::new(stream.try_clone()?));
    let shared = Arc::new(Shared {
        state: Mutex::new(ConnState::default()),
        ready: Condvar::new(),
        space: Condvar::new(),
    });
    let read_stream = stream.try_clone()?;
    let reader = {
        let shared = Arc::clone(&shared);
        let writer = Arc::clone(&writer);
        // panda-lint: allow(D2) -- one reader thread per connection; see
        // the file header for why this cannot affect response content.
        thread::spawn(move || {
            let _ = reader_loop(read_stream, &shared, &writer);
        })
    };
    let worker_result = worker_loop(&stream, &shared, &writer, engine);
    // Unblock and join the reader: close the socket (stops a blocked read)
    // and wake any wait on the queue.
    let _ = stream.shutdown(Shutdown::Both);
    {
        let mut st = lock(&shared.state);
        st.shutdown = true;
        shared.ready.notify_all();
        shared.space.notify_all();
    }
    let _ = reader.join();
    worker_result
}

/// Accepts and serves connections on `listener`.  Each connection runs its
/// own session concurrently; with [`ServeOptions::once`] the first
/// connection is served to completion and the function returns.
pub fn serve(listener: &TcpListener, options: ServeOptions) -> io::Result<()> {
    for stream in listener.incoming() {
        let stream = stream?;
        if options.once {
            return serve_connection(stream, options.engine);
        }
        // panda-lint: allow(D2) -- one handler thread per connection;
        // sessions share no mutable state (the plan cache is already
        // internally synchronised and order-insensitive by construction).
        thread::spawn(move || {
            let _ = serve_connection(stream, options.engine);
        });
    }
    Ok(())
}

/// Serves a single session over stdin/stdout, strictly sequentially: the
/// deterministic reference transport (no transport threads, no
/// out-of-band cancel).  The session runs under `engine`.
pub fn serve_stdio(engine: Engine) -> io::Result<()> {
    serve_lines(io::stdin().lock(), BufWriter::new(io::stdout().lock()), engine)
}

/// The stdio loop over any byte stream: one session, each line answered
/// before the next is read.  Bytes that are not UTF-8 decode to U+FFFD, as
/// on TCP, so such a line is answered in order instead of ending the
/// stream.
pub(crate) fn serve_lines(
    mut input: impl BufRead,
    mut out: impl Write,
    engine: Engine,
) -> io::Result<()> {
    let mut session = Session::with_engine(engine);
    let mut raw = Vec::new();
    loop {
        raw.clear();
        if input.read_until(b'\n', &mut raw)? == 0 {
            return out.flush();
        }
        let reply = session.handle_line(&String::from_utf8_lossy(&raw));
        out.write_all(reply.lines.as_bytes())?;
        out.flush()?;
        if reply.quit {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stdio_answers_bytes_that_are_not_utf8_in_order() {
        let mut out = Vec::new();
        serve_lines(&b"PING\n\xff\xfe\nPING\n"[..], &mut out, Engine::Sequential).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "OK pong\nERR unknown_command unknown command `\u{fffd}\u{fffd}`\nOK pong\n"
        );
    }

    #[test]
    fn stdio_answers_a_panicking_request_and_keeps_serving() {
        // A one-column atom over a two-column relation: the binding
        // asserts that the arities agree.
        let input = "LOAD R 2\n1 2\n2 1\nEND\nQUERY Q(A) :- R(A)\nPING\n";
        let mut out = Vec::new();
        serve_lines(input.as_bytes(), &mut out, Engine::Sequential).unwrap();
        let out = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3, "{out}");
        assert_eq!(lines[0], "OK loaded rel=R rows=2");
        assert!(lines[1].starts_with("ERR internal "), "{out}");
        assert_eq!(lines[2], "OK pong");
    }
}
