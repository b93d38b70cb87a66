//! The repo benchmark.  Run from the repo root:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload plan_cold --seed 1 --seconds 12 --trace 0     # what the driver runs
//! cargo run --release --manifest-path benchmark/Cargo.toml -- run --seed 1
//! cargo run --release --manifest-path benchmark/Cargo.toml -- repeat --seed 1
//! ```
//!
//! See `benchmark/README.md` for the workloads, the metrics and how to
//! read the span files.

mod client;
mod e2e;
mod layers;
mod reference;
mod report;
mod trace;
mod traced;
mod workloads;

use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use report::Outcome;
use workloads::{Workload, WORKLOADS};

const USAGE: &str = "usage: panda-benchmark [run|repeat] [--workload <name>] [--seed <n>] \
[--seconds <s>] [--trace 0|1] [--only e2e|trace] [--quick]
  (no subcommand)  one workload, one phase: needs --workload and --trace; the last
                   stdout line is the result as one JSON object
  run              every workload (or --workload), both phases (or --only), as tables
  repeat           the end-to-end set twice; fails when two runs of the same code
                   disagree by more than a metric's bound
  --quick          a smoke run: one set-up, one second per phase
run it from the repo root";

/// How long one phase measures unless `--seconds` says otherwise;
/// `BENCHMARK.json`'s `run_seconds`.
const RUN_SECONDS: f64 = 12.0;

/// End-to-end metrics and the share of the first run's value by which the
/// second may be worse; mirrors `BENCHMARK.json`'s `end_to_end`.
const END_TO_END: [(&str, bool, f64); 4] = [
    ("query_p50_ms", false, 0.25),
    ("ops_per_s", true, 0.25),
    ("server_peak_rss_mb", false, 0.15),
    ("setup_s", false, 0.25),
];

#[derive(PartialEq, Clone, Copy)]
enum Mode {
    Single,
    Run,
    Repeat,
}

struct Args {
    mode: Mode,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    only: Option<bool>,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        mode: Mode::Single,
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: None,
        only: None,
        quick: false,
    };
    let mut seconds_given = false;
    let mut it = std::env::args().skip(1).peekable();
    match it.peek().map(String::as_str) {
        Some("run") => args.mode = Mode::Run,
        Some("repeat") => args.mode = Mode::Repeat,
        _ => {}
    }
    if args.mode != Mode::Single {
        it.next();
    }
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            args.quick = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds =
                    value.parse().ok().filter(|s| (0.0..=600.0).contains(s)).ok_or_else(bad)?;
                seconds_given = true;
            }
            "--trace" => {
                args.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--only" => {
                args.only = Some(match value.as_str() {
                    "e2e" => false,
                    "trace" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if args.quick && !seconds_given {
        args.seconds = 1.0;
    }
    if args.mode == Mode::Single && (args.workload.is_none() || args.trace.is_none()) {
        return Err("without a subcommand, --workload and --trace are required".into());
    }
    Ok(args)
}

/// Builds `panda-server` from the sources in this checkout and returns the
/// binary's path.  Runs on every invocation (a no-op when fresh), so the
/// benchmark can never time a stale server.
fn build_server() -> io::Result<PathBuf> {
    if !Path::new("crates/server/Cargo.toml").is_file() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            "run from the repo root: crates/server/ is not here",
        ));
    }
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            "Cargo.toml",
            "-p",
            "panda-server",
        ])
        .status()?;
    if !status.success() {
        return Err(io::Error::other("building panda-server failed"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    Ok(target.join("release").join("panda-server"))
}

/// What a later A/B under a knob needs to know about this run; written
/// into every span file and printed by `run`/`repeat`.
fn environment() -> Vec<(String, String)> {
    let var = |name: &str| std::env::var(name).unwrap_or_else(|_| "(unset)".into());
    let git = std::fs::read_to_string(".git/HEAD").ok().map(|head| {
        let head = head.trim().to_string();
        match head.strip_prefix("ref: ") {
            Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
                .map_or(head.clone(), |s| s.trim().to_string()),
            None => head,
        }
    });
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    let mut env: Vec<(String, String)> = ["PANDA_THREADS", "PANDA_LAYOUT", "PANDA_PLAN_CACHE"]
        .iter()
        .map(|k| (k.to_string(), var(k)))
        .collect();
    env.push(("git".into(), git.unwrap_or_else(|| "(not a git checkout)".into())));
    env.push(("rustc".into(), rustc.unwrap_or_else(|| "(unknown)".into())));
    env.push((
        "nproc".into(),
        std::thread::available_parallelism().map_or(0, usize::from).to_string(),
    ));
    env
}

fn workload_for(name: &str, seed: u64) -> io::Result<Workload> {
    Workload::new(name, seed).ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, format!("unknown workload `{name}`"))
    })
}

fn run_phase(
    bin: &Path,
    args: &Args,
    name: &str,
    traced: bool,
    env: &[(String, String)],
) -> io::Result<Outcome> {
    let workload = workload_for(name, args.seed)?;
    let outcome = if traced {
        traced::run(bin, &workload, args.seconds, Path::new("benchmark/out"), env)?
    } else {
        e2e::run(bin, &workload, args.seconds, args.quick)?
    };
    for failure in &outcome.guard_failures {
        eprintln!("guard: {failure}");
    }
    Ok(outcome)
}

fn selected(args: &Args) -> Vec<&str> {
    match &args.workload {
        Some(name) => vec![name.as_str()],
        None => WORKLOADS.iter().map(|(name, _)| *name).collect(),
    }
}

/// `run`: tables for people, the JSON line under each.
fn run_all(bin: &Path, args: &Args, env: &[(String, String)]) -> io::Result<bool> {
    let mut all_correct = true;
    for name in selected(args) {
        for traced in [false, true] {
            if args.only.is_some_and(|only| only != traced) {
                continue;
            }
            let outcome = run_phase(bin, args, name, traced, env)?;
            println!(
                "== {name} · {} · seed {} ==",
                if traced { "per layer (s per round)" } else { "end to end" },
                args.seed
            );
            print!("{}", outcome.table());
            println!("{}", outcome.json());
            all_correct &= outcome.correct();
        }
    }
    Ok(all_correct)
}

/// `repeat`: the acceptance check that two runs of the same code agree.
fn repeat(bin: &Path, args: &Args, env: &[(String, String)]) -> io::Result<bool> {
    let mut agree = true;
    for name in selected(args) {
        let first = run_phase(bin, args, name, false, env)?;
        let second = run_phase(bin, args, name, false, env)?;
        agree &= first.correct() && second.correct();
        for (metric, higher_is_better, bound) in END_TO_END {
            let (a, b) =
                (first.metric(metric).unwrap_or(0.0), second.metric(metric).unwrap_or(0.0));
            let worse = if higher_is_better { (a - b) / a } else { (b - a) / a };
            let verdict = if worse > bound { "EXCEEDS" } else { "within" };
            println!(
                "{name:<18} {metric:<20} {a:>14.4} {b:>14.4} {:>+8.2}% {verdict} {:.0}%",
                worse * 100.0,
                bound * 100.0
            );
            agree &= worse <= bound;
        }
    }
    Ok(agree)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = build_server().and_then(|bin| {
        let env = environment();
        if args.mode != Mode::Single {
            for (key, value) in &env {
                println!("# {key} = {value}");
            }
        }
        match args.mode {
            Mode::Single => {
                let name = args.workload.as_deref().expect("checked by parse_args");
                let outcome =
                    run_phase(&bin, &args, name, args.trace.expect("checked by parse_args"), &env)?;
                println!("{}", outcome.json());
                Ok(outcome.correct())
            }
            Mode::Run => run_all(&bin, &args, &env),
            Mode::Repeat => repeat(&bin, &args, &env),
        }
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("panda-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is written by hand; the code is what reports.
    #[test]
    fn benchmark_json_lists_what_the_code_reports() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let flat: String = json.split_whitespace().collect();
        for (name, _) in WORKLOADS {
            assert!(flat.contains(&format!("{{\"name\":\"{name}\",\"why\":")), "workload {name}");
        }
        for (name, higher, bound) in END_TO_END {
            let better = if higher { "higher" } else { "lower" };
            assert!(flat.contains(&format!("\"name\":\"{name}\",")), "end-to-end {name}");
            assert!(
                flat.contains(&format!("\"better\":\"{better}\",\"bound\":{bound}}}")),
                "{name}: {better} {bound}"
            );
        }
        for (name, unit) in traced::PER_LAYER {
            assert!(
                flat.contains(&format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\",")),
                "per-layer {name}"
            );
        }
        let listed = flat.matches("\"name\":").count();
        assert_eq!(listed, WORKLOADS.len() + END_TO_END.len() + traced::PER_LAYER.len());
        assert!(flat.contains(&format!("\"run_seconds\":{RUN_SECONDS}")));
    }
}
