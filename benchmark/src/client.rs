//! The front door: a `panda-server` child process and one closed-loop TCP
//! client that is cheap enough not to be what gets measured.
//!
//! Replies are read in 64 KiB chunks; newlines are counted and the answer
//! checksum folded as the bytes arrive, so a 2 MB reply costs the client a
//! few milliseconds and no per-line allocation.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::linux::net::TcpStreamExt;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::reference::Checksum;

const CHUNK: usize = 64 * 1024;

fn protocol_error(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

/// A running `panda-server --listen 127.0.0.1:0`.  The server has no
/// shutdown command, so dropping this kills the child and waits for it.
pub struct Server {
    child: Child,
    addr: String,
}

impl Server {
    /// Spawns the server binary and waits for its `listening on <addr>`.
    pub fn spawn(bin: &Path) -> io::Result<Server> {
        let child = Command::new(bin)
            .args(["--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        // Owned by `server` from here on, so every early return reaps it.
        let mut server = Server { child, addr: String::new() };
        let stdout = server.child.stdout.take().expect("stdout was piped");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line)?;
        match line.trim().strip_prefix("listening on ") {
            Some(addr) => server.addr = addr.to_string(),
            None => return Err(protocol_error(format!("server announced `{}`", line.trim()))),
        }
        Ok(server)
    }

    /// The child's peak resident set (`VmHWM`) so far, in MB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| protocol_error("no VmHWM in /proc status"))
    }

    /// Opens the one connection this benchmark uses.
    pub fn connect(&self, ack: Ack) -> io::Result<Client> {
        Client::connect(&self.addr, ack)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One reply, reduced to what the checks need.
#[derive(Debug, Clone, Default)]
pub struct Reply {
    /// The header line (`OK rows n=2 vars=X,Y lines=2`, `ERR …`).
    pub header: String,
    /// Body lines read (equals the header's `lines=`).
    pub lines: u64,
    /// Checksum folded over the body (meaningful for `QUERY` replies).
    pub checksum: u64,
    /// Header plus body bytes.
    pub bytes: u64,
    /// The body text, kept only when the caller asked for it.
    pub body: String,
    /// Request line written → last reply byte read.
    pub latency: Duration,
}

impl Reply {
    /// `true` for an `OK …` header.
    pub fn ok(&self) -> bool {
        self.header.starts_with("OK")
    }

    /// The value of a `key=value` header field.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.header.split_whitespace().find_map(|f| f.strip_prefix(key)?.strip_prefix('='))
    }

    /// A numeric header field (`n=`, `rows=`, `hits=` …).
    pub fn number(&self, key: &str) -> Option<u64> {
        self.field(key)?.parse().ok()
    }
}

/// When the client's kernel acknowledges what it receives.
///
/// The server writes a reply in 8 KiB pieces on a socket without
/// `TCP_NODELAY`, so every piece after the first waits for the previous
/// one to be acknowledged — and a default client delays that
/// acknowledgement by up to 40 ms.  Which request of a round eats the
/// stall depends on kernel heuristics and flips between identical runs
/// (`load_query_mixed`: 52 ms or 91 ms `QUERY`s, the pair's sum constant),
/// so no latency measured through it is steady.  Every measurement is
/// therefore taken with `Prompt`; `wire.delayed_ack_round_s` keeps the
/// stall visible by replaying a few rounds with `Delayed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ack {
    /// `TCP_QUICKACK`, re-armed after every read (the kernel clears it).
    Prompt,
    /// The kernel default, as `panda-shell` or any plain client has it.
    Delayed,
}

/// A closed-loop client: one request in flight, ever.
pub struct Client {
    stream: TcpStream,
    chunk: Vec<u8>,
    ack: Ack,
}

impl Client {
    pub fn connect(addr: &str, ack: Ack) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A wedged server must fail the run, not hang it past the driver's limit.
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        Ok(Client { stream, chunk: vec![0; CHUNK], ack })
    }

    /// Writes `request` (one line, or a whole `LOAD … END` block) and
    /// reads the one reply it produces.  `keep_body` retains the body text
    /// (EXPLAIN, STATS); row bodies are only counted and checksummed.
    pub fn request(&mut self, request: &[u8], keep_body: bool) -> io::Result<Reply> {
        let start = Instant::now();
        self.stream.write_all(request)?;
        let mut reply = Reply::default();
        let mut header: Vec<u8> = Vec::new();
        let mut body_lines: Option<u64> = None;
        let mut checksum = Checksum::default();
        loop {
            if self.ack == Ack::Prompt {
                self.stream.set_quickack(true)?;
            }
            let n = self.stream.read(&mut self.chunk)?;
            if n == 0 {
                return Err(protocol_error("server closed the connection mid-reply"));
            }
            reply.bytes += n as u64;
            let mut rest = &self.chunk[..n];
            if body_lines.is_none() {
                match rest.iter().position(|&b| b == b'\n') {
                    Some(end) => {
                        header.extend_from_slice(&rest[..end]);
                        rest = &rest[end + 1..];
                        reply.header = String::from_utf8_lossy(&header).into_owned();
                        let lines = if reply.ok() { reply.number("lines").unwrap_or(0) } else { 0 };
                        body_lines = Some(lines);
                    }
                    None => {
                        header.extend_from_slice(rest);
                        continue;
                    }
                }
            }
            reply.lines += checksum.bytes(rest);
            if keep_body {
                reply.body.push_str(&String::from_utf8_lossy(rest));
            }
            match body_lines {
                Some(want) if reply.lines == want => break,
                Some(want) if reply.lines > want => {
                    return Err(protocol_error("reply ran past its announced length"))
                }
                _ => {}
            }
        }
        reply.checksum = checksum.finish();
        reply.latency = start.elapsed();
        Ok(reply)
    }
}

/// The client's own cost of reading a reply of this size: `reply` is
/// replayed through a loopback socket by a writer thread and read back
/// with [`Client::request`]'s loop.  Median seconds over `reps`.
pub fn read_cost_s(reply: &[u8], reps: usize) -> io::Result<f64> {
    let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?.to_string();
    let mut times = Vec::with_capacity(reps);
    std::thread::scope(|scope| -> io::Result<()> {
        let writer = scope.spawn(|| -> io::Result<()> {
            let (mut peer, _) = listener.accept()?;
            let mut trigger = [0u8; 1];
            for _ in 0..reps {
                peer.read_exact(&mut trigger)?;
                peer.write_all(reply)?;
            }
            Ok(())
        });
        let mut client = Client::connect(&addr, Ack::Prompt)?;
        for _ in 0..reps {
            times.push(client.request(b"\n", false)?.latency.as_secs_f64());
        }
        writer.join().expect("loopback writer does not panic")
    })?;
    Ok(crate::report::median(&mut times))
}
