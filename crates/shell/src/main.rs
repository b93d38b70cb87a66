//! The `panda-shell` binary.
//!
//! ```text
//! panda-shell                         # embedded engine, interactive REPL
//! panda-shell --connect 127.0.0.1:4860  # drive a running panda-server
//! panda-shell --script session.panda  # replay a script, print transcript
//! ```
//!
//! `PANDA_THREADS` (read here, once) selects the embedded session's engine;
//! a connected shell runs on whatever engine the server was started with.

#![forbid(unsafe_code)]

use std::io::{self, BufRead, IsTerminal, Write};
use std::process::ExitCode;

use panda_server::Engine;
use panda_shell::{Shell, ShellBackend};

const USAGE: &str = "usage: panda-shell [--connect <addr>] [--script <file>]";

fn run() -> io::Result<ExitCode> {
    let mut connect: Option<String> = None;
    let mut script: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--connect" => match args.next() {
                Some(addr) => connect = Some(addr),
                None => {
                    eprintln!("--connect needs an address\n{USAGE}");
                    return Ok(ExitCode::FAILURE);
                }
            },
            "--script" => match args.next() {
                Some(path) => script = Some(path),
                None => {
                    eprintln!("--script needs a file\n{USAGE}");
                    return Ok(ExitCode::FAILURE);
                }
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            other => {
                eprintln!("unknown argument `{other}`\n{USAGE}");
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    let backend = match &connect {
        Some(addr) => ShellBackend::connect(addr)?,
        None => {
            let engine = Engine::from_setting(std::env::var("PANDA_THREADS").ok().as_deref());
            ShellBackend::embedded(engine)
        }
    };
    let mut shell = Shell::new(backend);
    let stdout = io::stdout();
    let mut out = stdout.lock();
    if let Some(path) = script {
        let text = if path == "-" {
            panda_shell::read_all(io::stdin().lock())?
        } else {
            panda_shell::read_all(std::fs::File::open(&path)?)?
        };
        shell.run_script(&text, &mut out)?;
        out.flush()?;
        return Ok(ExitCode::SUCCESS);
    }
    let stdin = io::stdin();
    let prompt = stdin.is_terminal();
    let mut input = stdin.lock();
    // `BufRead` for a locked stdin; the REPL reads to EOF or `\q`.
    let mut reader = &mut input as &mut dyn BufRead;
    shell.repl(&mut reader, &mut out, prompt)?;
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    panda_server::log_panics_on_one_line("panda-shell");
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("panda-shell: {e}");
            ExitCode::FAILURE
        }
    }
}
