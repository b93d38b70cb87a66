//! The server binary keeps a large request's freed buffers mapped: serving
//! the same 128k-row `QUERY` again takes its memory from the heap, not from
//! fresh pages.  Linux with glibc only (the check reads `/proc`, and the
//! threshold it pins is glibc's).
#![cfg(all(target_os = "linux", target_env = "gnu"))]

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};

/// Kills the server when the test ends, passing or not.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The child's minor page faults so far (`/proc/<pid>/stat` field 10).
fn minor_faults(pid: u32) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap();
    let after_name = stat.rsplit_once(')').unwrap().1;
    after_name.split_whitespace().nth(7).unwrap().parse().unwrap()
}

/// Sends one request and reads its whole reply; returns the header.
fn request(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, text: &str) -> String {
    stream.write_all(text.as_bytes()).unwrap();
    let mut header = String::new();
    reader.read_line(&mut header).unwrap();
    let lines: usize = header
        .split_whitespace()
        .find_map(|f| f.strip_prefix("lines="))
        .map_or(0, |n| n.parse().unwrap());
    let mut line = Vec::new();
    for _ in 0..lines {
        line.clear();
        reader.read_until(b'\n', &mut line).unwrap();
    }
    header.trim_end().to_string()
}

/// `edges` distinct edges over `vertices` vertices, from a fixed LCG.
fn random_edges(vertices: u64, edges: usize) -> BTreeSet<(u64, u64)> {
    let mut state = 0x2545_F491_4F6C_DD1D_u64;
    let mut next = || {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) % vertices
    };
    let mut out = BTreeSet::new();
    while out.len() < edges {
        out.insert((next(), next()));
    }
    out
}

#[test]
fn a_repeated_large_query_reuses_the_heap_instead_of_faulting_fresh_pages() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_panda-server"))
        .args(["--listen", "127.0.0.1:0", "--once"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    let stdout = child.stdout.take().unwrap();
    let server = Server(child);
    let mut announce = String::new();
    BufReader::new(stdout).read_line(&mut announce).unwrap();
    let addr = announce.trim().strip_prefix("listening on ").unwrap().to_string();
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    let mut load = String::from("LOAD R 2\n");
    for (a, b) in random_edges(2000, 8000) {
        load.push_str(&format!("{a} {b}\n"));
    }
    load.push_str("END\n");
    assert_eq!(request(&mut stream, &mut reader, &load), "OK loaded rel=R rows=8000");

    // WHEN the same 3-path QUERY is served twice to warm the heap, then
    // three more times
    let query = "QUERY Q(A,B,C,D) :- R(A,B), R(B,C), R(C,D)\n";
    let first = request(&mut stream, &mut reader, query);
    assert!(first.starts_with("OK rows n="), "{first}");
    let rows: usize = first.split_whitespace().nth(2).unwrap()["n=".len()..].parse().unwrap();
    assert!(rows > 100_000, "the answer should take megabytes: {first}");
    assert_eq!(request(&mut stream, &mut reader, query), first);
    let before = minor_faults(server.0.id());
    for _ in 0..3 {
        assert_eq!(request(&mut stream, &mut reader, query), first);
    }
    let faults = minor_faults(server.0.id()) - before;

    // THEN the three together fault in fewer fresh pages than one request
    // uses (~5 000 when its buffers go back to the kernel after every
    // request): their memory comes from the heap the first two left mapped.
    assert!(faults < 4096, "{faults} minor faults serving a {rows}-row QUERY three more times");
}
