//! `panda-shell`: a REPL and script runner for the PANDA engine.
//!
//! The shell reads a small command language and drives the serving
//! protocol ([`panda_server::protocol`]) against one of two backends:
//!
//! * **embedded** (the default) — an in-process [`panda_server::Session`],
//!   no server required;
//! * **connected** (`--connect <addr>`) — a TCP connection to a running
//!   `panda-server`.
//!
//! Both backends speak the identical protocol through the identical
//! session semantics, so a script replayed against either produces the
//! same transcript byte for byte (CI's serve-replay job diffs exactly
//! that).
//!
//! Input language:
//!
//! * a bare datalog query (`Q(X,Y) :- R(X,Y), S(Y,Z)`) evaluates; it may
//!   span lines — statements are assembled with the resumable
//!   [`panda_query::parse_statement`], `;` always terminates, a complete
//!   single line runs immediately, and a blank line flushes a pending
//!   buffer;
//! * protocol commands pass through verbatim (`EXPLAIN <query>`,
//!   `LOAD R 2` … `END`, `STRATEGY adaptive`, `BUDGET pivots=100`,
//!   `STATS`, `PING`, `CANCEL <id>`, `QUIT`);
//! * metacommands: `\q` quits, `\stats` / `\stats global` show plan-cache
//!   counters, `\strategy [name]`, `\budget <fields>`, `\load <file>` and
//!   `\i <file>` runs a script file.
//!
//! The prompt is printed only when stdin is an interactive terminal, so
//! piped and scripted transcripts stay clean and deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::TcpStream;

use panda_query::{parse_statement, Parsed};
use panda_server::protocol::{body_lines, classify_block_line, parse_request, BlockLine, Command};
use panda_server::session::Session;
use panda_server::Engine;

/// Where shell input is executed: in-process or over TCP.
pub enum ShellBackend {
    /// An in-process [`Session`] (no server needed).
    Embedded(Box<Session>),
    /// A TCP connection to a `panda-server`.
    Connected(Connection),
}

/// A live protocol connection to a `panda-server`.
pub struct Connection {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    in_load: bool,
}

impl ShellBackend {
    /// An embedded backend over a fresh session running under `engine`.
    #[must_use]
    pub fn embedded(engine: Engine) -> ShellBackend {
        ShellBackend::Embedded(Box::new(Session::with_engine(engine)))
    }

    /// Connects to a `panda-server` at `addr` (e.g. `127.0.0.1:4860`).
    /// Requests are sent when a reply is awaited, on a `TCP_NODELAY`
    /// socket, so a `LOAD` block leaves in buffered writes.
    pub fn connect(addr: &str) -> io::Result<ShellBackend> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(ShellBackend::Connected(Connection {
            reader,
            writer: BufWriter::new(stream),
            in_load: false,
        }))
    }

    /// Sends one protocol line and returns its response lines plus whether
    /// the session ended.  Mirrors the session's framing exactly: lines
    /// that produce no response (blank lines, `LOAD` openers, data rows)
    /// return no lines, everything else returns a header plus the body the
    /// header's `lines=` field announces.
    fn request(&mut self, line: &str) -> io::Result<(Vec<String>, bool)> {
        match self {
            ShellBackend::Embedded(session) => {
                let reply = session.handle_line(line);
                Ok((reply.lines, reply.quit))
            }
            ShellBackend::Connected(conn) => conn.request(line),
        }
    }
}

impl Connection {
    /// Whether the server will answer this line at all — the client-side
    /// mirror of the session's `LOAD` block state machine.
    fn expects_response(&mut self, line: &str) -> bool {
        if self.in_load {
            // The session's own classifier: CANCEL stays a command even
            // inside a data block.
            return match classify_block_line(line) {
                BlockLine::Data => false,
                BlockLine::End => {
                    self.in_load = false;
                    true
                }
                BlockLine::Cancel(_) => true,
            };
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            return false;
        }
        if let Ok(req) = parse_request(trimmed) {
            if matches!(req.command, Command::Load { .. }) {
                self.in_load = true;
                return false;
            }
        }
        true
    }

    fn request(&mut self, line: &str) -> io::Result<(Vec<String>, bool)> {
        let expects = self.expects_response(line);
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        if !expects {
            return Ok((Vec::new(), false));
        }
        self.writer.flush()?;
        let mut header = String::new();
        if self.reader.read_line(&mut header)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-response",
            ));
        }
        let header = header.trim_end_matches(['\r', '\n']).to_string();
        let body = body_lines(&header);
        let quit = header == "OK bye";
        let mut lines = Vec::with_capacity(body + 1);
        lines.push(header);
        for _ in 0..body {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-body",
                ));
            }
            lines.push(line.trim_end_matches(['\r', '\n']).to_string());
        }
        Ok((lines, quit))
    }
}

/// The protocol keywords the shell passes through verbatim.
const PASSTHROUGH: [&str; 11] = [
    "PING", "LOAD", "END", "CLEAR", "QUERY", "EXPLAIN", "STRATEGY", "BUDGET", "STATS", "CANCEL",
    "QUIT",
];

/// The shell: input-language handling over a [`ShellBackend`].
pub struct Shell {
    backend: ShellBackend,
    /// Partial query statement accumulated across lines, `;`-terminated
    /// via [`parse_statement`] (newlines are joined as spaces).
    query_buffer: String,
    /// Mirrors the backend's `LOAD` block state so data rows pass through
    /// instead of being treated as query text.
    in_load: bool,
}

impl Shell {
    /// A shell over the given backend.
    #[must_use]
    pub fn new(backend: ShellBackend) -> Shell {
        Shell { backend, query_buffer: String::new(), in_load: false }
    }

    /// `true` while a multi-line query statement is pending.
    #[must_use]
    pub fn has_pending_input(&self) -> bool {
        self.in_load || !self.query_buffer.trim().is_empty()
    }

    fn send(&mut self, line: &str, out: &mut impl Write) -> io::Result<bool> {
        let (lines, quit) = self.backend.request(line)?;
        for l in &lines {
            out.write_all(l.as_bytes())?;
            out.write_all(b"\n")?;
        }
        Ok(quit)
    }

    /// Drains every statement [`parse_statement`] finds in the buffer and
    /// runs it as a `QUERY`; malformed statements are sent too so the
    /// session renders its structured `ERR parse_error` (one error path,
    /// identical in every mode).
    fn drain_statements(&mut self, out: &mut impl Write) -> io::Result<bool> {
        loop {
            match parse_statement(&self.query_buffer) {
                Parsed::Statement { consumed, .. } | Parsed::Malformed { consumed, .. } => {
                    let statement: String = self.query_buffer.drain(..consumed).collect();
                    let text = statement.trim().trim_end_matches(';').trim();
                    if !text.is_empty() && self.send(&format!("QUERY {text}"), out)? {
                        return Ok(true);
                    }
                }
                Parsed::Incomplete => return Ok(false),
            }
        }
    }

    fn handle_metacommand(&mut self, line: &str, out: &mut impl Write) -> io::Result<bool> {
        let (name, args) = match line.find(char::is_whitespace) {
            Some(i) => {
                let (n, a) = line.split_at(i);
                (n, a.trim())
            }
            None => (line, ""),
        };
        match name {
            "\\q" | "\\quit" => self.send("QUIT", out),
            "\\stats" if args == "global" => self.send("STATS GLOBAL", out),
            "\\stats" => self.send("STATS", out),
            "\\strategy" if args.is_empty() => self.send("STRATEGY", out),
            "\\strategy" => self.send(&format!("STRATEGY {args}"), out),
            "\\budget" => self.send(&format!("BUDGET {args}"), out),
            "\\i" | "\\load" => {
                if args.is_empty() {
                    writeln!(out, "ERR malformed_request {name} needs a file path")?;
                    return Ok(false);
                }
                match std::fs::File::open(args).and_then(read_all) {
                    Ok(script) => self.run_script(&script, out),
                    Err(e) => {
                        writeln!(out, "ERR malformed_request cannot read `{args}`: {e}")?;
                        Ok(false)
                    }
                }
            }
            other => {
                writeln!(out, "ERR unknown_command unknown metacommand `{other}`")?;
                Ok(false)
            }
        }
    }

    /// Processes one input line, writing any responses to `out`.  Returns
    /// `true` when the session ended (`\q` / `QUIT`).
    pub fn process_line(&mut self, raw: &str, out: &mut impl Write) -> io::Result<bool> {
        let line = raw.trim_end_matches(['\r', '\n']);
        if self.in_load {
            if line.trim() == "END" {
                self.in_load = false;
            }
            return self.send(line, out);
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            // A blank line flushes a pending query buffer (the escape
            // hatch for a statement the user decides not to finish).
            if !self.query_buffer.trim().is_empty() {
                self.query_buffer.push(';');
                return self.drain_statements(out);
            }
            return Ok(false);
        }
        if let Some(meta) = trimmed.strip_prefix('\\') {
            let _ = meta; // (documented spelling keeps the backslash)
            return self.handle_metacommand(trimmed, out);
        }
        let keyword = trimmed.split_whitespace().next().unwrap_or_default();
        if PASSTHROUGH.contains(&keyword) {
            if keyword == "LOAD" && parse_request(trimmed).is_ok() {
                self.in_load = true;
            }
            return self.send(trimmed, out);
        }
        // Query text: join continuation lines with spaces so `;` (or a
        // line that already parses) is what completes a statement.
        self.query_buffer.push_str(line);
        self.query_buffer.push(' ');
        if self.drain_statements(out)? {
            return Ok(true);
        }
        // No `;` yet — accept a line that already forms a complete query.
        let pending = self.query_buffer.trim().to_string();
        if !pending.is_empty() && panda_query::parse_query(&pending).is_ok() {
            self.query_buffer.clear();
            return self.send(&format!("QUERY {pending}"), out);
        }
        Ok(false)
    }

    /// Runs a whole script (the `\i` / `--script` path).  Returns `true`
    /// when the script ended the session.
    pub fn run_script(&mut self, script: &str, out: &mut impl Write) -> io::Result<bool> {
        for line in script.lines() {
            if self.process_line(line, out)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// The interactive loop: reads `input` to EOF (or `\q`), writing
    /// responses — and, when `prompt` is set, a `panda>` prompt — to
    /// `out`.  Bytes that are not UTF-8 decode to U+FFFD, as on the wire.
    pub fn repl(
        &mut self,
        input: &mut impl BufRead,
        out: &mut impl Write,
        prompt: bool,
    ) -> io::Result<()> {
        let mut raw = Vec::new();
        loop {
            if prompt {
                let p = if self.has_pending_input() { "  ...> " } else { "panda> " };
                out.write_all(p.as_bytes())?;
                out.flush()?;
            }
            raw.clear();
            if input.read_until(b'\n', &mut raw)? == 0 {
                return out.flush();
            }
            if self.process_line(&String::from_utf8_lossy(&raw), out)? {
                return out.flush();
            }
            out.flush()?;
        }
    }
}

/// Reads a whole script — a file, or stdin for `--script -` — to a
/// string; bytes that are not UTF-8 decode to U+FFFD, as on the wire.
pub fn read_all(mut input: impl Read) -> io::Result<String> {
    let mut bytes = Vec::new();
    input.read_to_end(&mut bytes)?;
    Ok(String::from_utf8_lossy(&bytes).into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_embedded(script: &str) -> String {
        let mut shell = Shell::new(ShellBackend::embedded(Engine::Sequential));
        let mut out = Vec::new();
        shell.run_script(script, &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn queries_and_passthrough_commands_share_one_transcript() {
        let transcript = run_embedded("LOAD R 2\n1 2\n2 3\nEND\nPING\nQ(A,B) :- R(A,B)\nSTATS\n");
        // The stats line's exact counters depend on the process-wide plan
        // cache shared with concurrently running tests; assert its shape.
        let (head, stats) = transcript.split_at(transcript.find("OK stats").unwrap_or_default());
        assert_eq!(
            head,
            "OK loaded rel=R rows=2\nOK pong\nOK rows n=2 vars=A,B lines=2\n1 2\n2 3\n"
        );
        assert!(stats.starts_with("OK stats hits="), "{stats}");
    }

    #[test]
    fn multi_line_statements_assemble_and_semicolons_split() {
        let transcript = run_embedded("LOAD R 2\n1 2\nEND\nQ(A,B) :-\nR(A,B);Q2() :- R(A,B);\n");
        assert_eq!(
            transcript,
            "OK loaded rel=R rows=1\nOK rows n=1 vars=A,B lines=1\n1 2\n\
             OK rows n=1 vars=() lines=1\ntrue\n"
        );
    }

    #[test]
    fn a_blank_line_flushes_a_pending_statement() {
        let transcript = run_embedded("Q(A,B) :- R(A,B,\n\n");
        assert!(transcript.starts_with("ERR parse_error"), "{transcript}");
    }

    #[test]
    fn metacommands_map_to_protocol_requests() {
        let transcript = run_embedded("\\strategy binary-join\n\\budget pivots=9\n\\stats\n");
        assert_eq!(
            transcript,
            "OK strategy=binary-join\nOK budgets pivots=9 branches=none rows=none\n\
             OK stats hits=0 misses=0 evictions=0 bypasses=0\n"
        );
        let transcript = run_embedded("\\frobnicate\n");
        assert!(transcript.starts_with("ERR unknown_command"), "{transcript}");
    }

    #[test]
    fn bytes_that_are_not_utf8_do_not_end_the_input() {
        // The undecodable line is query text to the shell (it buffers it
        // as an incomplete statement); what matters is that the PINGs on
        // either side are both answered.
        let input = b"PING\n\xff\xfe\nPING\n";
        let mut shell = Shell::new(ShellBackend::embedded(Engine::Sequential));
        let mut out = Vec::new();
        shell.repl(&mut &input[..], &mut out, false).unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), "OK pong\nOK pong\n");
        let script = read_all(&input[..]).unwrap();
        assert_eq!(run_embedded(&script), "OK pong\nOK pong\n");
    }

    #[test]
    fn a_connected_shell_buffers_on_a_nodelay_socket_and_matches_the_embedded_transcript() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let options = panda_server::ServeOptions { once: true, ..Default::default() };
        // panda-lint: allow(D2) -- the server under test; only its replies are compared.
        let server = std::thread::spawn(move || panda_server::serve(&listener, options));
        let backend = ShellBackend::connect(&addr).unwrap();
        let nodelay = |conn: &Connection| conn.writer.get_ref().nodelay().unwrap();
        assert!(matches!(&backend, ShellBackend::Connected(conn) if nodelay(conn)));
        let script = "LOAD ShR 2\n1 2\n2 3\n3 4\n4 1\nEND\nQ(A,C) :- ShR(A,B), ShR(B,C)\n\\q\n";
        let mut out = Vec::new();
        assert!(Shell::new(backend).run_script(script, &mut out).unwrap());
        assert_eq!(String::from_utf8(out).unwrap(), run_embedded(script));
        server.join().unwrap().unwrap();
    }

    #[test]
    fn quit_ends_the_script() {
        let mut shell = Shell::new(ShellBackend::embedded(Engine::Sequential));
        let mut out = Vec::new();
        let quit = shell.run_script("\\q\nPING\n", &mut out).unwrap();
        assert!(quit);
        assert_eq!(String::from_utf8(out).unwrap(), "OK bye\n");
    }
}
