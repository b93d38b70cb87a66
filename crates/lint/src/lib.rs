//! `panda-lint` — workspace-native static analysis for the PANDA engine.
//!
//! The engine's two headline guarantees are *statically fragile*:
//!
//! * parallel execution is bit-identical to sequential at any thread count
//!   (every merge is input-ordered, all parallelism goes through the
//!   ordered fan-out), and
//! * LP optima and dual certificates are bit-identical across engines.
//!
//! One `HashMap` iteration feeding an output, one stray
//! `std::thread::spawn`, or one wall-clock read in a result path silently
//! breaks them — tests catch the breakage only on the inputs they happen
//! to cover.  This crate encodes the invariants as source-level rules and
//! machine-checks every workspace crate:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `D1` | hash iteration order must not reach an ordered sink unsorted |
//! | `D2` | no thread/lock/atomic primitives outside the ordered fan-out |
//! | `D3` | no clock/entropy/environment reads in non-bench, non-test code |
//! | `P1` | `unwrap`/`expect`/indexing in library crates needs justification |
//! | `S1` | every crate root declares `#![forbid(unsafe_code)]` |
//! | `L0` | `panda-lint:` directives themselves must be well-formed |
//!
//! Violations are suppressed case-by-case with an explicit, justified
//! directive (`// panda-lint: allow(D1) -- <why this one is sound>`), or
//! file-wide with `allow-file`.  The full catalogue, with examples, is
//! `docs/LINTS.md`; the fixture corpus under `tests/fixtures/` pins each
//! rule's firing behaviour.
//!
//! The crate is deliberately dependency-free (hand-rolled lexer, no TOML
//! or syntax crates): it is part of the trusted base that gates everything
//! else, including the vendored shims.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allow;
pub mod diagnostics;
pub mod driver;
pub mod lexer;
pub mod parse;
pub mod rules;

pub use diagnostics::{Diagnostic, Rule};
pub use driver::{analyze_source, analyze_workspace};

/// Lints a single source string under a given workspace-relative path —
/// the entry point the fixture tests use.
#[must_use]
pub fn analyze_str(rel_path: &str, src: &str) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    driver::analyze_source(std::path::Path::new(rel_path), src, &mut diags);
    diagnostics::sort(&mut diags);
    diags
}
