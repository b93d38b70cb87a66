//! The `panda-server` binary: serve the PANDA engine over TCP or stdio.
//!
//! ```text
//! panda-server --listen 127.0.0.1:4860   # TCP; prints `listening on <addr>`
//! panda-server --listen 127.0.0.1:0      # pick a free port (printed)
//! panda-server --stdio                   # one sequential session on stdio
//! panda-server --listen ... --once       # serve one connection, then exit
//! ```
//!
//! `PANDA_THREADS` (read here, once, and nowhere in the libraries) selects
//! the engine every session runs under; see
//! [`panda_core::Engine::from_setting`] for the accepted values.

#![forbid(unsafe_code)]

use std::io::Write;
use std::net::TcpListener;
use std::process::ExitCode;

use panda_core::Engine;
use panda_server::serve::{serve, serve_stdio, ServeOptions};

const USAGE: &str = "usage: panda-server [--listen <addr>] [--stdio] [--once]";

/// Freed heap the allocator keeps mapped for the next request, per arena.
const RETAINED_HEAP_BYTES: usize = 32 << 20;

/// Keeps a request's freed buffers mapped for the next request.
///
/// A large `QUERY` (a 128k-row answer) allocates and frees tens of
/// megabytes of flat buffers.  glibc's default thresholds hand that memory
/// back to the kernel when the request ends, so the next request faults
/// every page in again (~5 000 minor faults a request), and on a virtual
/// machine whose balloon reclaims free pages each fault costs whatever the
/// host is doing at the time.  Freeing one block above the mmap threshold
/// (and at most 32 MiB) lifts that threshold to the block's size and the
/// heap-trim threshold to twice it (mallopt(3), "dynamic mmap threshold"),
/// so up to [`RETAINED_HEAP_BYTES`] of free heap stay mapped.  Other
/// allocators ignore the hint.
fn keep_freed_heap_mapped() {
    drop(std::hint::black_box(Vec::<u8>::with_capacity(RETAINED_HEAP_BYTES / 2)));
}

fn main() -> ExitCode {
    panda_server::log_panics_on_one_line("panda-server");
    keep_freed_heap_mapped();
    let mut listen: Option<String> = None;
    let mut stdio = false;
    let mut once = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => match args.next() {
                Some(addr) => listen = Some(addr),
                None => {
                    eprintln!("--listen needs an address\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--stdio" => stdio = true,
            "--once" => once = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}`\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let engine = Engine::from_setting(std::env::var("PANDA_THREADS").ok().as_deref());
    if stdio {
        return match serve_stdio(engine) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("panda-server: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let addr = listen.unwrap_or_else(|| "127.0.0.1:0".to_string());
    let listener = match TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("panda-server: cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match listener.local_addr() {
        Ok(local) => {
            // Announce the bound address (port 0 resolves here) so scripts
            // can connect; flush so readers see it before the first accept.
            println!("listening on {local}");
            let _ = std::io::stdout().flush();
        }
        Err(e) => {
            eprintln!("panda-server: {e}");
            return ExitCode::FAILURE;
        }
    }
    match serve(&listener, ServeOptions { once, engine }) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("panda-server: {e}");
            ExitCode::FAILURE
        }
    }
}
