//! `panda-server`: a long-lived serving front-end for the PANDA engine.
//!
//! The server exposes the [`panda_core::Panda`] facade through a
//! line-oriented, human-typable protocol over TCP or stdio (dependency
//! free: `std` networking only).  Each connection owns a [`session::Session`]
//! — a private [`panda_relation::Database`], an evaluation strategy and
//! per-request [`panda_core::Budgets`] — and drives the same
//! parse → bind → plan → execute pipeline as the library:
//!
//! ```text
//! LOAD R 2          -- open a data block (rows until END)
//! 1 2
//! 2 3
//! END               -- OK loaded rel=R rows=2
//! QUERY Q(A,B) :- R(A,B)
//!                   -- OK rows n=2 vars=A,B lines=2   (+ 2 row lines)
//! EXPLAIN Q(A,B) :- R(A,B)
//!                   -- OK explain lines=<n>  (+ byte-stable EXPLAIN text)
//! ```
//!
//! Design invariants, shared with the rest of the workspace:
//!
//! * **Determinism** — responses are pure functions of the session's
//!   request history.  Rows arrive in canonical order, EXPLAIN bodies are
//!   byte-identical to [`panda_core::Panda::explain`], and transcripts are
//!   stable across engines, thread counts, runs and transports
//!   (`tests/server_protocol.rs`, `tests/server_concurrency.rs`).
//! * **Cooperative, counter-based cancellation** — `CANCEL <id>` fires a
//!   [`panda_core::CancelToken`] polled at the planner's deterministic
//!   pivot counters, never a wall clock (the D3 lint's contract).  A
//!   cancelled request answers `ERR cancelled`; the session survives.
//! * **Backpressure, not load shedding** — the per-connection request
//!   queue is bounded and a full queue blocks the reader, so an overloaded
//!   server delays responses but never drops, reorders or rewrites them.
//! * **Structured errors** — every failure is `ERR <code> <message>` with
//!   a stable [`protocol::ErrorCode`] mirroring the library's
//!   [`panda_core::StrategyError`] and reason codes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod protocol;
pub mod serve;
pub mod session;

// The engine type `ServeOptions` and `Session::with_engine` take.
pub use panda_core::Engine;
pub use protocol::{body_lines, parse_request, Command, ErrorCode, Request, WireError};
pub use serve::{serve, serve_connection, serve_stdio, ServeOptions, QUEUE_CAP};
pub use session::{log_panics_on_one_line, Lines, Reply, Session, SessionCacheStats};
