//! A request that panics inside the library costs the server's stderr one
//! line, not a report and a backtrace, and the session keeps serving.

use std::io::Write;
use std::process::{Command, Stdio};

#[test]
fn a_panicking_request_logs_one_stderr_line() {
    // WHEN a one-column atom is bound to a two-column relation (the
    // binding asserts the arities agree), THEN stdout answers `ERR
    // internal` and then the next request, and stderr holds one line.
    let mut child = Command::new(env!("CARGO_BIN_EXE_panda-server"))
        .arg("--stdio")
        .env("RUST_BACKTRACE", "1")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn panda-server");
    let script = "LOAD R 2\n1 2\nEND\nQUERY Q(A) :- R(A)\nPING\n";
    child.stdin.take().expect("stdin").write_all(script.as_bytes()).expect("write script");
    let output = child.wait_with_output().expect("wait for panda-server");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
    let stdout: Vec<&str> = stdout.lines().collect();
    assert_eq!(stdout.len(), 3, "{stdout:?}");
    assert!(stdout[1].starts_with("ERR internal the request panicked: "), "{stdout:?}");
    assert_eq!(stdout[2], "OK pong");
    let stderr = String::from_utf8(output.stderr).expect("utf-8 stderr");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.starts_with("panda-server: panicked at crates/"), "{stderr}");
    assert!(stderr.contains("is bound to a stored relation of arity 2"), "{stderr}");
}
