//! The wire protocol: request parsing and response framing.
//!
//! The protocol is line-oriented and human-typable.  Every request is one
//! line — an optional `#<id>` tag followed by a command — and every
//! response is a header line, optionally followed by a body whose exact
//! length the header announces in a `lines=<n>` field:
//!
//! ```text
//! -> QUERY Q(X,Y) :- R(X,Y), S(Y,Z)
//! <- OK rows n=2 vars=X,Y lines=2
//! <- 1 2
//! <- 4 5
//! -> BOGUS
//! <- ERR unknown_command unknown command `BOGUS`
//! ```
//!
//! Headers start with `OK` or `ERR`; `ERR` responses are always a single
//! line carrying a stable machine-readable [`ErrorCode`] followed by a
//! human-readable message.  The framing rule — *no body unless the header
//! says `lines=<n>`* — is what lets a client (or the fuzz suite) read
//! responses without heuristics; [`body_lines`] implements it.

use panda_core::EvaluationStrategy;

/// Hard cap on the length of a request line, in bytes.  Longer lines are
/// rejected with [`ErrorCode::LineTooLong`] before any parsing happens, so
/// a misbehaving client cannot make the server buffer unbounded input.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Stable machine-readable error codes, mirroring the library's structured
/// errors ([`panda_core::StrategyError`], [`panda_entropy::BoundError`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The first token is not a known command.
    UnknownCommand,
    /// The command is known but its arguments do not parse.
    MalformedRequest,
    /// The query text does not parse ([`panda_query::ParseError`]).
    ParseError,
    /// A LOAD block failed (bad arity, non-numeric data).
    LoadError,
    /// Yannakakis was requested for a cyclic query.
    CyclicYannakakis,
    /// No tree decomposition could be costed for the requested strategy.
    TdUnavailable,
    /// A configured budget was exceeded under an explicit strategy.
    BudgetExceeded,
    /// The request was cancelled.
    Cancelled,
    /// The LP solver failed (a bug, not an expected outcome).
    SolverError,
    /// The request line exceeded [`MAX_LINE_BYTES`].
    LineTooLong,
    /// The request panicked inside the library (a bug, not an expected
    /// outcome); the session stays usable.
    Internal,
}

impl ErrorCode {
    /// The stable wire spelling.
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            ErrorCode::UnknownCommand => "unknown_command",
            ErrorCode::MalformedRequest => "malformed_request",
            ErrorCode::ParseError => "parse_error",
            ErrorCode::LoadError => "load_error",
            ErrorCode::CyclicYannakakis => "cyclic_yannakakis",
            ErrorCode::TdUnavailable => "td_unavailable",
            ErrorCode::BudgetExceeded => "budget_exceeded",
            ErrorCode::Cancelled => "cancelled",
            ErrorCode::SolverError => "solver_error",
            ErrorCode::LineTooLong => "line_too_long",
            ErrorCode::Internal => "internal",
        }
    }
}

/// A structured wire error: a stable [`ErrorCode`] plus a human-readable
/// message, rendered as the single response line `ERR <code> <message>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// The machine-readable code.
    pub code: ErrorCode,
    /// The human-readable message (single line; newlines are collapsed).
    pub message: String,
}

impl WireError {
    /// Builds an error, collapsing any newlines in the message so the
    /// single-line framing invariant cannot be broken by an error text.
    #[must_use]
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        let message = message.into().replace(['\n', '\r'], " ");
        WireError { code, message }
    }

    /// The response line for this error.
    #[must_use]
    pub fn render(&self) -> String {
        format!("ERR {} {}", self.code.code(), self.message)
    }
}

/// One field of a `BUDGET` request: absent fields keep their current
/// value, `none` clears a budget, a number sets it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetPatch {
    /// New LP pivot budget, when the `pivots=` field was given.
    pub pivots: Option<Option<u64>>,
    /// New branch budget, when the `branches=` field was given.
    pub branches: Option<Option<usize>>,
    /// New memory rows budget, when the `rows=` field was given.
    pub rows: Option<Option<u64>>,
}

/// A parsed command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Liveness check; answers `OK pong`.
    Ping,
    /// Opens a data block for a relation; subsequent lines are rows of
    /// whitespace-separated integers until a bare `END`.
    Load {
        /// The relation name.
        relation: String,
        /// The number of columns per row.
        arity: usize,
    },
    /// Terminates a `LOAD` block.
    End,
    /// Drops every relation in the session database.
    Clear,
    /// Parses, plans and evaluates a conjunctive query.
    Query {
        /// The query text (datalog syntax).
        text: String,
    },
    /// Plans a query and returns the byte-stable EXPLAIN rendering.
    Explain {
        /// The query text (datalog syntax).
        text: String,
    },
    /// Sets (or, with no argument, reports) the session strategy.
    Strategy {
        /// The strategy name, when one was given.
        name: Option<String>,
    },
    /// Patches the session [`panda_core::Budgets`]; always echoes the full
    /// resulting budget state.
    Budget(BudgetPatch),
    /// Session-local plan-cache counters; `STATS GLOBAL` reads the
    /// process-wide counters instead.
    Stats {
        /// `true` for `STATS GLOBAL`.
        global: bool,
    },
    /// Cancels the tagged request `#<id>`, wherever it currently is.
    Cancel {
        /// The tag of the request to cancel.
        id: u64,
    },
    /// Ends the session; answers `OK bye` and closes the connection.
    Quit,
}

/// A request line: an optional `#<id>` tag plus a [`Command`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The request tag, when the line started with `#<id>`.
    pub id: Option<u64>,
    /// The command.
    pub command: Command,
}

fn malformed(message: impl Into<String>) -> WireError {
    WireError::new(ErrorCode::MalformedRequest, message)
}

/// Splits off the first whitespace-delimited token.
fn split_token(text: &str) -> (&str, &str) {
    let text = text.trim_start();
    match text.find(char::is_whitespace) {
        Some(i) => {
            let (head, tail) = text.split_at(i);
            (head, tail.trim_start())
        }
        None => (text, ""),
    }
}

/// Parses the strategy names used on the wire — exactly the stable
/// [`EvaluationStrategy::name`] spellings.
#[must_use]
pub fn strategy_from_name(name: &str) -> Option<EvaluationStrategy> {
    [
        EvaluationStrategy::Auto,
        EvaluationStrategy::Yannakakis,
        EvaluationStrategy::StaticTd,
        EvaluationStrategy::Adaptive,
        EvaluationStrategy::GenericJoin,
        EvaluationStrategy::BinaryJoin,
    ]
    .into_iter()
    .find(|strategy| strategy.name() == name)
}

fn parse_budget_patch(args: &str) -> Result<BudgetPatch, WireError> {
    let mut patch = BudgetPatch { pivots: None, branches: None, rows: None };
    for field in args.split_whitespace() {
        let Some((key, value)) = field.split_once('=') else {
            return Err(malformed(format!("budget field `{field}` is not key=value")));
        };
        let parsed_u64 = if value == "none" {
            None
        } else {
            match value.parse::<u64>() {
                Ok(n) => Some(n),
                Err(_) => {
                    return Err(malformed(format!(
                        "budget value `{value}` is neither an integer nor `none`"
                    )))
                }
            }
        };
        match key {
            "pivots" => patch.pivots = Some(parsed_u64),
            "rows" => patch.rows = Some(parsed_u64),
            "branches" => {
                patch.branches = Some(match parsed_u64 {
                    Some(n) => match usize::try_from(n) {
                        Ok(n) => Some(n),
                        Err(_) => return Err(malformed("branch budget out of range")),
                    },
                    None => None,
                });
            }
            other => return Err(malformed(format!("unknown budget field `{other}`"))),
        }
    }
    Ok(patch)
}

/// Splits a trimmed request line into its raw `#` tag token (when the line
/// starts with `#`), its keyword and the keyword's arguments.
fn split_request(line: &str) -> (Option<&str>, &str, &str) {
    let (tag, rest) = match line.strip_prefix('#') {
        Some(tagged) => {
            let (tag, rest) = split_token(tagged);
            (Some(tag), rest)
        }
        None => (None, line),
    };
    let (keyword, args) = split_token(rest);
    (tag, keyword, args)
}

/// What a line means inside an open `LOAD` block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockLine {
    /// A row of the relation — or anything else that is neither of the two
    /// below, which the session then reports as a bad row.
    Data,
    /// A bare `END` (surrounding blanks allowed): closes the block.
    End,
    /// A well-formed, optionally tagged `CANCEL <id>` — the one command
    /// that stays a command inside a block (its keyword cannot be numeric
    /// data, so reserving it costs nothing).
    Cancel(u64),
}

/// Classifies a line of an open `LOAD` block without parsing it as a
/// request: `END` is one string comparison, and only a line starting with
/// `C` or `#` is looked at further, so a row of integers costs a first-byte
/// check.  `Cancel` is returned for exactly the lines [`parse_request`]
/// parses into [`Command::Cancel`].
///
/// The TCP reader and the session both decide with this function, which is
/// why the reader's idea of where a block ends can never disagree with the
/// session's.
#[must_use]
pub fn classify_block_line(line: &str) -> BlockLine {
    let line = line.trim();
    if line == "END" {
        return BlockLine::End;
    }
    if !line.starts_with(['C', '#']) {
        return BlockLine::Data;
    }
    let (tag, keyword, args) = split_request(line);
    let tag_parses = tag.map_or(true, |tag| tag.parse::<u64>().is_ok());
    match args.parse::<u64>() {
        Ok(id) if keyword == "CANCEL" && tag_parses => BlockLine::Cancel(id),
        _ => BlockLine::Data,
    }
}

/// Parses one request line (already stripped of its trailing newline).
///
/// Blank lines are the caller's concern ([`crate::session::Session`] skips
/// them); everything else either parses into a [`Request`] or yields a
/// structured [`WireError`] that renders as the response.
pub fn parse_request(line: &str) -> Result<Request, WireError> {
    let (tag, keyword, args) = split_request(line.trim());
    let id = match tag {
        Some(tag) => match tag.parse::<u64>() {
            Ok(id) => Some(id),
            Err(_) => return Err(malformed(format!("request tag `#{tag}` is not an integer"))),
        },
        None => None,
    };
    let command = match keyword {
        "PING" => Command::Ping,
        "LOAD" => {
            let (relation, arity_text) = split_token(args);
            if relation.is_empty() || !relation.chars().all(|c| c.is_alphanumeric() || c == '_') {
                return Err(malformed(format!("invalid relation name `{relation}`")));
            }
            let arity = match arity_text.parse::<usize>() {
                Ok(a) if (1..=32).contains(&a) => a,
                _ => return Err(malformed(format!("invalid arity `{arity_text}` (want 1..=32)"))),
            };
            Command::Load { relation: relation.to_string(), arity }
        }
        "END" => Command::End,
        "CLEAR" => Command::Clear,
        "QUERY" => {
            if args.is_empty() {
                return Err(malformed("QUERY needs a query text"));
            }
            Command::Query { text: args.to_string() }
        }
        "EXPLAIN" => {
            if args.is_empty() {
                return Err(malformed("EXPLAIN needs a query text"));
            }
            Command::Explain { text: args.to_string() }
        }
        "STRATEGY" => Command::Strategy { name: (!args.is_empty()).then(|| args.to_string()) },
        "BUDGET" => Command::Budget(parse_budget_patch(args)?),
        "STATS" => match args {
            "" => Command::Stats { global: false },
            "GLOBAL" => Command::Stats { global: true },
            other => return Err(malformed(format!("unknown STATS argument `{other}`"))),
        },
        "CANCEL" => match args.parse::<u64>() {
            Ok(id) => Command::Cancel { id },
            Err(_) => return Err(malformed(format!("CANCEL needs an integer id, got `{args}`"))),
        },
        "QUIT" => Command::Quit,
        other => {
            return Err(WireError::new(
                ErrorCode::UnknownCommand,
                format!("unknown command `{other}`"),
            ))
        }
    };
    Ok(Request { id, command })
}

/// The number of body lines a response header announces: `lines=<n>` on an
/// `OK` header, zero otherwise (including every `ERR` response).  This is
/// the whole framing contract — clients never need look-ahead.
#[must_use]
pub fn body_lines(header: &str) -> usize {
    if !header.starts_with("OK") {
        return 0;
    }
    for field in header.split_whitespace() {
        if let Some(n) = field.strip_prefix("lines=") {
            return n.parse::<usize>().unwrap_or(0);
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_and_commands_parse() {
        let req = parse_request("#42 QUERY Q(X) :- R(X,Y)").unwrap();
        assert_eq!(req.id, Some(42));
        assert_eq!(req.command, Command::Query { text: "Q(X) :- R(X,Y)".to_string() });
        assert_eq!(parse_request("PING").unwrap().command, Command::Ping);
        assert_eq!(parse_request("  QUIT  ").unwrap().command, Command::Quit);
    }

    #[test]
    fn budgets_parse_numbers_and_none() {
        let Command::Budget(patch) =
            parse_request("BUDGET pivots=100 branches=none").unwrap().command
        else {
            panic!("budget command");
        };
        assert_eq!(patch.pivots, Some(Some(100)));
        assert_eq!(patch.branches, Some(None));
        assert_eq!(patch.rows, None);
    }

    #[test]
    fn structured_errors_have_stable_codes() {
        let err = parse_request("FROBNICATE now").unwrap_err();
        assert_eq!(err.code, ErrorCode::UnknownCommand);
        assert_eq!(err.render(), "ERR unknown_command unknown command `FROBNICATE`");
        assert_eq!(parse_request("#x PING").unwrap_err().code, ErrorCode::MalformedRequest);
        assert_eq!(parse_request("LOAD R 0").unwrap_err().code, ErrorCode::MalformedRequest);
        assert_eq!(parse_request("CANCEL soon").unwrap_err().code, ErrorCode::MalformedRequest);
    }

    #[test]
    fn block_lines_are_cancels_exactly_when_they_parse_as_one() {
        for line in [
            "1 2",
            "",
            "  ",
            "END",
            " END\t",
            "END 1",
            "ENDURE",
            "end",
            "CANCEL 7",
            "#3 CANCEL 7",
            "# 3 CANCEL 7",
            "#3CANCEL 7",
            "#x CANCEL 7",
            "# CANCEL 7",
            "CANCEL",
            "CANCEL soon",
            "CANCEL 7 8",
            "CANCEL +7",
            "CANCEL -7",
            "cancel 7",
            "CANCELLED 7",
            " CANCEL  7 ",
            "C",
            "#",
            "LOAD R 2",
            "QUIT",
        ] {
            let expected = match parse_request(line) {
                Ok(Request { command: Command::Cancel { id }, .. }) => BlockLine::Cancel(id),
                _ if line.trim() == "END" => BlockLine::End,
                _ => BlockLine::Data,
            };
            assert_eq!(classify_block_line(line), expected, "line {line:?}");
        }
    }

    #[test]
    fn framing_is_driven_by_the_header() {
        assert_eq!(body_lines("OK rows n=2 vars=X,Y lines=2"), 2);
        assert_eq!(body_lines("OK pong"), 0);
        assert_eq!(body_lines("ERR parse_error lines=9 is data here"), 0);
    }

    #[test]
    fn strategy_names_round_trip() {
        for name in ["auto", "yannakakis", "static-td", "adaptive", "generic-join", "binary-join"] {
            let strategy = strategy_from_name(name).unwrap();
            assert_eq!(strategy.name(), name);
        }
        assert!(strategy_from_name("quantum").is_none());
    }
}
