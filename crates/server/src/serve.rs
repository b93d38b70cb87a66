//! Transports: the concurrent TCP serve loop and the sequential stdio loop.
//!
//! Each TCP connection gets its own [`Session`] plus two threads: a
//! *reader* that parses lines off the socket and a *worker* that drains
//! them through [`Session::handle_line_with`] in arrival order.  The
//! hand-off queue is **bounded**: a full queue blocks the reader (and,
//! through TCP flow control, the client) instead of dropping or reordering
//! requests, so backpressure never changes the response stream — each
//! client's responses are the same bytes it would get from an unloaded
//! server, just later.
//!
//! The one deliberately racy command is `CANCEL <id>`: the reader handles
//! it out-of-band so it can reach a request that is already executing.  A
//! queued or in-flight target has its [`CancelToken`] fired and the ack is
//! written immediately (it may interleave *between* whole responses —
//! never inside one); an unknown id falls through to the session, whose
//! pending/done answer is deterministic.  Scripted conformance transcripts
//! therefore avoid out-of-band `CANCEL`; everything else on a single
//! connection is bit-reproducible.

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

use crate::protocol::{parse_request, Command, ErrorCode, WireError, MAX_LINE_BYTES};
use crate::session::{Reply, Session};

/// How many parsed requests may wait between the reader and the worker of
/// one connection before the reader stops reading (backpressure).
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

struct Job {
    line: String,
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

fn write_reply(writer: &Mutex<BufWriter<TcpStream>>, lines: &[String]) -> io::Result<()> {
    let mut w = lock(writer);
    for line in lines {
        w.write_all(line.as_bytes())?;
        w.write_all(b"\n")?;
    }
    w.flush()
}

/// The reader half: reads request lines, answers oversized lines and
/// out-of-band cancels directly, and enqueues everything else for the
/// worker, blocking while the queue is full.
fn reader_loop(
    stream: TcpStream,
    shared: &Shared,
    writer: &Mutex<BufWriter<TcpStream>>,
) -> io::Result<()> {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        // take() bounds how much one line can buffer; a line that hits the
        // cap without a newline is answered and the remainder drained.
        let mut limited = io::Read::take(&mut reader, (MAX_LINE_BYTES + 2) as u64);
        let n = limited.read_line(&mut line)?;
        if n == 0 {
            break;
        }
        if line.len() > MAX_LINE_BYTES {
            // Drain the rest of the oversized line so framing resyncs at
            // the next newline.
            if !line.ends_with('\n') {
                let mut rest = Vec::new();
                reader.read_until(b'\n', &mut rest)?;
            }
            let err = WireError::new(
                ErrorCode::LineTooLong,
                format!("request line exceeds {MAX_LINE_BYTES} bytes"),
            );
            write_reply(writer, &[err.render()])?;
            continue;
        }
        let trimmed = line.trim_end_matches(['\r', '\n']);
        // One parse serves the cancel check and the job's tag.
        let request = parse_request(trimmed).ok();
        // Out-of-band cancellation: reach queued and in-flight requests.
        if let Some(req) = &request {
            if let Command::Cancel { id } = req.command {
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
                    write_reply(writer, &[format!("OK cancel id={id} state={state}")])?;
                    continue;
                }
                // Unknown here: the session answers pending/done in order.
            }
        }
        let id = request.and_then(|r| r.id);
        let job = Job { line: trimmed.to_string(), id, cancel: CancelToken::new() };
        let mut st = lock(&shared.state);
        while st.queue.len() >= QUEUE_CAP && !st.shutdown {
            st = shared.space.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        if st.shutdown {
            break;
        }
        st.queue.push_back(job);
        shared.ready.notify_all();
    }
    // EOF: let the worker drain the queue, then stop.
    let mut st = lock(&shared.state);
    st.shutdown = true;
    shared.ready.notify_all();
    Ok(())
}

/// The worker half: executes requests strictly in arrival order through
/// the shared [`Session`] semantics and writes whole responses.
fn worker_loop(
    stream: &TcpStream,
    shared: &Shared,
    writer: &Mutex<BufWriter<TcpStream>>,
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
        let reply: Reply = session.handle_line_with(&job.line, Some(&job.cancel));
        write_reply(writer, &reply.lines)?;
        {
            let mut st = lock(&shared.state);
            st.inflight = None;
            if reply.quit {
                st.shutdown = true;
            }
            shared.ready.notify_all();
            shared.space.notify_all();
        }
        if reply.quit {
            let _ = stream.shutdown(Shutdown::Both);
            return Ok(());
        }
    }
}

/// Serves one accepted connection to completion (QUIT or EOF), its
/// session running under `engine`.
pub fn serve_connection(stream: TcpStream, engine: Engine) -> io::Result<()> {
    let writer = Arc::new(Mutex::new(BufWriter::new(stream.try_clone()?)));
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
    let stdin = io::stdin();
    let stdout = io::stdout();
    let mut out = BufWriter::new(stdout.lock());
    let mut session = Session::with_engine(engine);
    let mut line = String::new();
    loop {
        line.clear();
        let n = stdin.lock().read_line(&mut line)?;
        if n == 0 {
            return out.flush();
        }
        let reply = session.handle_line(&line);
        for l in &reply.lines {
            out.write_all(l.as_bytes())?;
            out.write_all(b"\n")?;
        }
        out.flush()?;
        if reply.quit {
            return Ok(());
        }
    }
}
