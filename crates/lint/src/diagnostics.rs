//! Diagnostics: rule codes, severities and rustc-style rendering.

use std::fmt;
use std::path::PathBuf;

/// The lint rules, one code per invariant (catalogued in `docs/LINTS.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Hash-order leak: `HashMap`/`HashSet` iteration flowing into an
    /// ordered sink without an intervening sort.
    D1,
    /// Parallelism primitive outside the ordered fan-out.
    D2,
    /// Wall-clock or randomness in a result path.
    D3,
    /// Unjustified `unwrap`/`expect`/slice-indexing in a library crate.
    P1,
    /// Missing `#![forbid(unsafe_code)]` in a crate root.
    S1,
    /// Malformed `panda-lint:` directive.
    L0,
}

impl Rule {
    /// Every rule, in catalogue order.
    pub const ALL: [Rule; 6] = [Rule::D1, Rule::D2, Rule::D3, Rule::P1, Rule::S1, Rule::L0];

    /// Parses a rule code as written in an allow directive.
    #[must_use]
    pub fn parse(s: &str) -> Option<Rule> {
        match s {
            "D1" => Some(Rule::D1),
            "D2" => Some(Rule::D2),
            "D3" => Some(Rule::D3),
            "P1" => Some(Rule::P1),
            "S1" => Some(Rule::S1),
            // L0 deliberately unparseable: a malformed directive can not be
            // suppressed by another directive.
            _ => None,
        }
    }

    /// The code as printed in diagnostics (`D1`, …).
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            Rule::D1 => "D1",
            Rule::D2 => "D2",
            Rule::D3 => "D3",
            Rule::P1 => "P1",
            Rule::S1 => "S1",
            Rule::L0 => "L0",
        }
    }

    /// One-line summary for `--list-rules` and `docs/LINTS.md`.
    #[must_use]
    pub fn summary(self) -> &'static str {
        match self {
            Rule::D1 => "HashMap/HashSet iteration must not reach an ordered sink unsorted",
            Rule::D2 => {
                "no thread/lock/atomic primitives outside panda_relation::fan_out::ordered_map \
                 and panda_core::config"
            }
            Rule::D3 => {
                "no Instant/SystemTime/rand in non-bench, non-test code; env::var only in main"
            }
            Rule::P1 => "unwrap/expect/slice-indexing in library crates needs a justification",
            Rule::S1 => "every crate root must declare #![forbid(unsafe_code)]",
            Rule::L0 => "panda-lint directives must be well-formed and justified",
        }
    }

    /// Whether the rule is advisory by default (promoted by `--deny-all`).
    #[must_use]
    pub fn advisory_by_default(self) -> bool {
        matches!(self, Rule::P1)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One finding: a rule violation anchored to a file and statement span.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The violated rule.
    pub rule: Rule,
    /// File the violation is in (workspace-relative when produced by the
    /// workspace driver).
    pub file: PathBuf,
    /// 1-based line the offending token is on.
    pub line: usize,
    /// 1-based first line of the enclosing statement (for multi-line
    /// statements the allow directive may sit anywhere in
    /// `span_start - 1 ..= span_end`).
    pub span_start: usize,
    /// 1-based last line of the enclosing statement.
    pub span_end: usize,
    /// Human explanation of the violation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: error[{}]: {}", self.file.display(), self.line, self.rule, self.message)
    }
}

/// Sorts diagnostics into the canonical reporting order (file, line, rule)
/// — the tool's own output must be deterministic.
pub fn sort(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
}
