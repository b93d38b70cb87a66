//! One serving session: a database, a strategy, budgets, and the
//! deterministic request → response state machine.
//!
//! [`Session::handle_line`] is the **single implementation** of the
//! protocol semantics.  The concurrent TCP server ([`mod@crate::serve`]), the
//! stdio mode, the embedded `panda-shell` REPL and the in-process
//! conformance tests all drive this same function, which is what makes
//! their transcripts byte-identical: the serving layer adds transport and
//! scheduling around the session, never behaviour.
//!
//! Responses are pure functions of the session history (the sequence of
//! lines handled so far) plus the two documented exceptions: `STATS
//! GLOBAL` reads process-wide cache counters, and a request whose
//! [`CancelToken`] fires mid-flight answers `ERR cancelled` instead of its
//! normal response.  Everything else — row order, EXPLAIN bytes, error
//! texts — is bit-stable across engines, thread counts and runs.
//!
//! # Inside a `LOAD` block
//!
//! Between a `LOAD` header and its `END` a line is a row, and is never
//! parsed as a request: [`classify_block_line`] picks out the two keywords
//! that stay keywords — a bare `END`, and `CANCEL <id>`, the one command
//! reserved inside a block because its keyword cannot be numeric data —
//! and for a row that is a first-byte check.  Rows are parsed into one
//! reused buffer and pushed straight into the [`Relation`] that `END` will
//! deduplicate and insert, so a row allocates nothing and is stored once.
//!
//! # Rendering a reply
//!
//! A [`Reply`]'s [`Lines`] are one `String` holding every line with its
//! `'\n'`: the bytes a transport writes, as they go on the wire.  A `QUERY` answer writes its header and then each row
//! straight into that buffer, every integer from a stack digit buffer, so
//! rendering allocates nothing per row and the transport writes the
//! buffer as it is.  Callers that want owned lines iterate a `Lines` by
//! value.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

use panda_core::{
    plan_cache_stats, Budgets, CancelToken, Engine, EvaluationStrategy, Panda, ReasonCode,
    StrategyError, VarRelation,
};
use panda_entropy::BoundError;
use panda_query::{parse_query, ConjunctiveQuery, Var};
use panda_relation::{Database, Relation, Value};

use crate::protocol::{
    classify_block_line, parse_request, BlockLine, BudgetPatch, Command, ErrorCode, WireError,
    MAX_LINE_BYTES,
};

/// The response to one request line: zero or more response lines (header
/// first, then exactly the body the header's `lines=` field announces),
/// plus whether the session asked to end.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Reply {
    /// The response lines, in order, rendered into one buffer.  Empty for
    /// blank input lines.
    pub lines: Lines,
    /// `true` after `QUIT`: the transport should close after writing.
    pub quit: bool,
}

impl Reply {
    fn none() -> Reply {
        Reply::default()
    }

    fn line(text: String) -> Reply {
        Reply { lines: Lines::from_line(text), quit: false }
    }

    fn error(err: WireError) -> Reply {
        Reply::line(err.render())
    }
}

/// The lines of one [`Reply`] as the wire carries them: one buffer in
/// which every line ends in `'\n'`.  A transport writes
/// [`Lines::as_bytes`] whole; [`Lines::iter`] reads the lines without
/// their newlines, and iterating by value yields them as owned `String`s.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Lines(String);

impl Lines {
    /// The number of lines: the number of `'\n'` in the buffer.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.bytes().filter(|&b| b == b'\n').count()
    }

    /// Whether there is no line (no response at all).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The lines in order, each without its newline.
    pub fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        self.0.split_terminator('\n')
    }

    /// The wire bytes: every line followed by `'\n'`.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        self.0.as_bytes()
    }

    /// One line, which must hold no newline, ending its own buffer.
    fn from_line(mut text: String) -> Lines {
        text.push('\n');
        Lines(text)
    }

    /// Appends one line, which must hold no newline.
    fn push(&mut self, line: &str) {
        self.0.push_str(line);
        self.0.push('\n');
    }
}

impl IntoIterator for Lines {
    type Item = String;
    type IntoIter = std::vec::IntoIter<String>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter().map(str::to_string).collect::<Vec<_>>().into_iter()
    }
}

/// Session-local plan-cache counters, accumulated from the cache events of
/// this session's own requests (so they are deterministic per session,
/// unlike the process-wide [`plan_cache_stats`] shared by every session).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionCacheStats {
    /// Requests whose plan came from the cross-query plan cache.
    pub hits: u64,
    /// Requests that planned cold and populated the cache.
    pub misses: u64,
    /// Inserts by this session that evicted an entry.
    pub evictions: u64,
}

impl SessionCacheStats {
    fn absorb(&mut self, events: &[ReasonCode]) {
        for event in events {
            match event {
                ReasonCode::PlanCacheHit => self.hits += 1,
                ReasonCode::PlanCacheMiss => self.misses += 1,
                ReasonCode::PlanCacheEvict => self.evictions += 1,
                _ => {}
            }
        }
    }
}

/// An open `LOAD` block: rows accumulate, already in the relation's flat
/// layout, until `END`; the first bad data line poisons the block
/// (remaining lines are still consumed so the stream stays in sync) and
/// `END` then reports the error and discards.
#[derive(Debug, Clone)]
struct LoadState {
    relation: String,
    rows: Relation,
    /// The row being parsed; reused so a data line allocates nothing.
    row: Vec<Value>,
    error: Option<WireError>,
}

impl LoadState {
    /// Takes one data line: a row, a blank line, or the block's first error.
    fn push_line(&mut self, line: &str) {
        if self.error.is_some() {
            return;
        }
        self.row.clear();
        for token in line.split_whitespace() {
            match token.parse::<Value>() {
                Ok(v) => self.row.push(v),
                Err(_) => {
                    self.error = Some(WireError::new(
                        ErrorCode::LoadError,
                        format!("non-integer value `{token}` in LOAD {}", self.relation),
                    ));
                    return;
                }
            }
        }
        if self.row.is_empty() {
            return; // a blank line
        }
        if self.row.len() != self.rows.arity() {
            self.error = Some(WireError::new(
                ErrorCode::LoadError,
                format!(
                    "row has {} values but LOAD {} declared arity {}",
                    self.row.len(),
                    self.relation,
                    self.rows.arity()
                ),
            ));
            return;
        }
        self.rows.push_row(&self.row);
    }
}

/// A serving session.  See the module docs for the determinism contract.
#[derive(Debug, Default)]
pub struct Session {
    db: Database,
    engine: Engine,
    strategy: Option<EvaluationStrategy>,
    budgets: Budgets,
    load: Option<LoadState>,
    /// Tags cancelled before their request arrived: the request, when it
    /// does arrive, answers `ERR cancelled` deterministically.
    pending_cancels: BTreeSet<u64>,
    /// Tags whose request has already been answered.
    done: BTreeSet<u64>,
    stats: SessionCacheStats,
}

impl Session {
    /// A fresh session: empty database, `auto` strategy, unlimited budgets,
    /// sequential engine.
    #[must_use]
    pub fn new() -> Session {
        Session::default()
    }

    /// A fresh session whose requests run under `engine`.  Replies are the
    /// same bytes under every engine; only wall-clock time differs.
    #[must_use]
    pub fn with_engine(engine: Engine) -> Session {
        Session { engine, ..Session::default() }
    }

    /// The session's plan-cache counters (the `STATS` response data).
    #[must_use]
    pub fn cache_stats(&self) -> SessionCacheStats {
        self.stats
    }

    fn strategy(&self) -> EvaluationStrategy {
        self.strategy.unwrap_or(EvaluationStrategy::Auto)
    }

    /// Handles one request line with no external cancellation attached.
    pub fn handle_line(&mut self, raw: &str) -> Reply {
        self.handle_line_with(raw, None)
    }

    /// Handles one request line.  `cancel`, when supplied by a concurrent
    /// transport, is attached to the request's planner so an out-of-band
    /// `CANCEL` can abort it mid-flight.  A request that panics is answered
    /// `ERR internal` (its tag still counts as done) and the session keeps
    /// serving.
    pub fn handle_line_with(&mut self, raw: &str, cancel: Option<&CancelToken>) -> Reply {
        if raw.len() > MAX_LINE_BYTES {
            return Reply::error(WireError::new(
                ErrorCode::LineTooLong,
                format!("request line exceeds {MAX_LINE_BYTES} bytes"),
            ));
        }
        let line = raw.trim_end_matches(['\r', '\n']);
        if let Some(load) = &mut self.load {
            // Inside a block nothing is parsed as a request: a row costs
            // the classifier's first-byte check.
            return match classify_block_line(line) {
                BlockLine::Data => {
                    load.push_line(line);
                    Reply::none()
                }
                BlockLine::End => self.finish_load(),
                BlockLine::Cancel(id) => self.handle_cancel(id),
            };
        }
        if line.trim().is_empty() {
            return Reply::none();
        }
        let request = match parse_request(line) {
            Ok(request) => request,
            Err(err) => return Reply::error(err),
        };
        if let Command::Cancel { id } = request.command {
            return self.handle_cancel(id);
        }
        // A tag cancelled before its request arrived aborts deterministically.
        if let Some(id) = request.id {
            if self.pending_cancels.remove(&id) {
                self.done.insert(id);
                return Reply::error(WireError::new(
                    ErrorCode::Cancelled,
                    format!("request #{id} was cancelled before it started"),
                ));
            }
        }
        // A panic below answers `ERR internal` and leaves the session usable:
        // every transport reaches the library through this one call.
        let command = request.command;
        let dispatch = AssertUnwindSafe(|| match command {
            Command::Ping => Reply::line("OK pong".to_string()),
            Command::Load { relation, arity } => {
                self.load = Some(LoadState {
                    relation,
                    rows: Relation::new(arity),
                    row: Vec::with_capacity(arity),
                    error: None,
                });
                Reply::none()
            }
            Command::End => Reply::error(WireError::new(
                ErrorCode::MalformedRequest,
                "END outside a LOAD block",
            )),
            Command::Clear => {
                self.db = Database::new();
                Reply::line("OK cleared".to_string())
            }
            Command::Query { text } => self.run_query(&text, cancel),
            Command::Explain { text } => self.run_explain(&text, cancel),
            Command::Strategy { name } => self.set_strategy(name.as_deref()),
            Command::Budget(patch) => self.patch_budgets(patch),
            Command::Stats { global } => self.render_stats(global),
            Command::Cancel { .. } => Reply::none(), // handled above
            Command::Quit => Reply { lines: Lines::from_line("OK bye".to_string()), quit: true },
        });
        let reply = catch_unwind(dispatch).unwrap_or_else(|payload| {
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("no message");
            Reply::error(WireError::new(
                ErrorCode::Internal,
                format!("the request panicked: {message}"),
            ))
        });
        if let Some(id) = request.id {
            self.done.insert(id);
        }
        reply
    }

    fn finish_load(&mut self) -> Reply {
        let Some(load) = self.load.take() else {
            return Reply::none(); // unreachable: guarded by the caller
        };
        if let Some(err) = load.error {
            return Reply::error(err);
        }
        let relation = load.rows.deduped();
        let rows = relation.len();
        self.db.insert(&load.relation, relation);
        Reply::line(format!("OK loaded rel={} rows={rows}", load.relation))
    }

    fn handle_cancel(&mut self, id: u64) -> Reply {
        let state = if self.done.contains(&id) {
            "done"
        } else {
            self.pending_cancels.insert(id);
            "pending"
        };
        Reply::line(format!("OK cancel id={id} state={state}"))
    }

    fn panda_for(&self, text: &str, cancel: Option<&CancelToken>) -> Result<Panda, WireError> {
        let query =
            parse_query(text).map_err(|e| WireError::new(ErrorCode::ParseError, e.to_string()))?;
        let mut panda = Panda::new(query).with_engine(self.engine).with_budgets(self.budgets);
        if let Some(token) = cancel {
            panda = panda.with_cancel_token(token.clone());
        }
        Ok(panda)
    }

    fn run_query(&mut self, text: &str, cancel: Option<&CancelToken>) -> Reply {
        let panda = match self.panda_for(text, cancel) {
            Ok(panda) => panda,
            Err(err) => return Reply::error(err),
        };
        match panda.try_evaluate_with_events(&self.db, self.strategy()) {
            Ok((result, events)) => {
                self.stats.absorb(&events);
                render_answer(panda.query(), &result).unwrap_or_else(Reply::error)
            }
            Err(err) => Reply::error(wire_strategy_error(&err)),
        }
    }

    fn run_explain(&mut self, text: &str, cancel: Option<&CancelToken>) -> Reply {
        let panda = match self.panda_for(text, cancel) {
            Ok(panda) => panda,
            Err(err) => return Reply::error(err),
        };
        match panda.explain_with(&self.db, self.strategy()) {
            Ok(explain) => {
                self.stats.absorb(&explain.report.cache_events);
                let text = explain.to_string();
                let mut lines =
                    Lines::from_line(format!("OK explain lines={}", text.lines().count()));
                lines.0.reserve(text.len() + 1);
                for line in text.lines() {
                    lines.push(line);
                }
                Reply { lines, quit: false }
            }
            Err(err) => Reply::error(wire_bound_error(&err)),
        }
    }

    fn set_strategy(&mut self, name: Option<&str>) -> Reply {
        if let Some(name) = name {
            match crate::protocol::strategy_from_name(name) {
                Some(strategy) => self.strategy = Some(strategy),
                None => {
                    return Reply::error(WireError::new(
                        ErrorCode::MalformedRequest,
                        format!("unknown strategy `{name}`"),
                    ))
                }
            }
        }
        Reply::line(format!("OK strategy={}", self.strategy().name()))
    }

    fn patch_budgets(&mut self, patch: BudgetPatch) -> Reply {
        if let Some(pivots) = patch.pivots {
            self.budgets.lp_pivot_budget = pivots;
        }
        if let Some(branches) = patch.branches {
            self.budgets.branch_budget = branches;
        }
        if let Some(rows) = patch.rows {
            self.budgets.memory_rows_budget = rows;
        }
        Reply::line(format!(
            "OK budgets pivots={} branches={} rows={}",
            fmt_opt(self.budgets.lp_pivot_budget),
            fmt_opt(self.budgets.branch_budget.map(|b| b as u64)),
            fmt_opt(self.budgets.memory_rows_budget),
        ))
    }

    fn render_stats(&self, global: bool) -> Reply {
        if global {
            let s = plan_cache_stats();
            return Reply::line(format!(
                "OK stats-global hits={} misses={} evictions={} entries={}",
                s.hits, s.misses, s.evictions, s.entries
            ));
        }
        let s = self.stats;
        // `bypasses=0` is a constant: nothing bypasses the cache, and the
        // wire format is pinned by the golden transcripts.
        Reply::line(format!(
            "OK stats hits={} misses={} evictions={} bypasses=0",
            s.hits, s.misses, s.evictions
        ))
    }
}

/// Renders a `QUERY` answer: the header, then one line per distinct row of
/// `result` on the query's free variables, in canonical order.  That order
/// is one sort of row ids ([`Relation::canonical_row_ids`]), and every
/// line is written straight into the reply's one buffer, each integer
/// from a stack digit buffer, so a row allocates nothing and the answer is
/// copied nowhere else.  A free variable missing from `result` answers
/// `ERR internal`.
fn render_answer(query: &ConjunctiveQuery, result: &VarRelation) -> Result<Reply, WireError> {
    if query.is_boolean() {
        let truth = if result.is_empty() { "false" } else { "true" };
        let mut lines = Lines::from_line(format!("OK rows n={} vars=() lines=1", result.len()));
        lines.push(truth);
        return Ok(Reply { lines, quit: false });
    }
    let order: Vec<Var> = query.free_vars().to_vec();
    let missing =
        || WireError::new(ErrorCode::Internal, "a free variable is missing from the answer");
    let cols: Vec<usize> =
        order.iter().map(|v| result.column_of(*v)).collect::<Option<_>>().ok_or_else(missing)?;
    let names: Vec<&str> = order
        .iter()
        .map(|v| query.var_names().get(v.0 as usize).map_or("?", String::as_str))
        .collect();
    let ids = result.rel.canonical_row_ids(&cols);
    let header = format!("OK rows n={} vars={} lines={}\n", ids.len(), names.join(","), ids.len());
    // The rows are written as bytes, every one ASCII, and checked once at
    // the end: cheaper than a `str` check per value.  At least one digit
    // and one separator per value; small values are the common case, so
    // this is close to the answer's size.
    let mut bytes = header.into_bytes();
    bytes.reserve(ids.len() * cols.len() * 2);
    for id in ids {
        let row = result.rel.row(id);
        // Every `get` is `Some`: `cols` are columns of `result`.
        for (k, value) in cols.iter().filter_map(|&c| row.get(c).copied()).enumerate() {
            if k > 0 {
                bytes.push(b' ');
            }
            push_decimal(&mut bytes, value);
        }
        bytes.push(b'\n');
    }
    let text = String::from_utf8(bytes)
        .map_err(|_| WireError::new(ErrorCode::Internal, "a rendered row is not ASCII"))?;
    Ok(Reply { lines: Lines(text), quit: false })
}

/// Appends `value` in decimal, its digits first written into a stack
/// buffer from the least significant end.
fn push_decimal(out: &mut Vec<u8>, mut value: Value) {
    let mut digits = [0u8; 20]; // u64::MAX has 20 digits
    let mut start = digits.len();
    for slot in digits.iter_mut().rev() {
        *slot = b'0' + (value % 10) as u8;
        start -= 1;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    out.extend_from_slice(digits.get(start..).unwrap_or_default());
}

fn fmt_opt(value: Option<u64>) -> String {
    value.map_or_else(|| "none".to_string(), |n| n.to_string())
}

fn wire_strategy_error(err: &StrategyError) -> WireError {
    match err {
        StrategyError::CyclicYannakakis => {
            WireError::new(ErrorCode::CyclicYannakakis, err.to_string())
        }
        StrategyError::TdUnavailable { source: BoundError::Solver(_), .. } => {
            WireError::new(ErrorCode::SolverError, err.to_string())
        }
        StrategyError::TdUnavailable { .. } => {
            WireError::new(ErrorCode::TdUnavailable, err.to_string())
        }
        StrategyError::BudgetExceeded { reason, .. } => {
            WireError::new(ErrorCode::BudgetExceeded, format!("reason={} {err}", reason.code()))
        }
        StrategyError::Cancelled { .. } => WireError::new(ErrorCode::Cancelled, err.to_string()),
    }
}

fn wire_bound_error(err: &BoundError) -> WireError {
    match err {
        BoundError::Cancelled => WireError::new(ErrorCode::Cancelled, err.to_string()),
        BoundError::PivotBudgetExhausted => {
            WireError::new(ErrorCode::BudgetExceeded, format!("reason=lp_budget_exhausted {err}"))
        }
        BoundError::Solver(_) => WireError::new(ErrorCode::SolverError, err.to_string()),
        BoundError::Unbounded => WireError::new(ErrorCode::TdUnavailable, err.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reply's lines, without their newlines.
    fn lines(reply: &Reply) -> Vec<&str> {
        reply.lines.iter().collect()
    }

    fn feed(session: &mut Session, lines: &[&str]) -> Vec<String> {
        let mut out = Vec::new();
        for line in lines {
            out.extend(session.handle_line(line).lines);
        }
        out
    }

    #[test]
    fn a_session_loads_queries_and_explains() {
        let mut session = Session::new();
        let out = feed(
            &mut session,
            &[
                "PING",
                "LOAD R 2",
                "1 2",
                "2 3",
                "1 2",
                "END",
                "LOAD S 2",
                "2 4",
                "3 5",
                "END",
                "QUERY Q(A,C) :- R(A,B), S(B,C)",
            ],
        );
        assert_eq!(
            out,
            vec![
                "OK pong",
                "OK loaded rel=R rows=2",
                "OK loaded rel=S rows=2",
                "OK rows n=2 vars=A,C lines=2",
                "1 4",
                "2 5",
            ]
        );
        let explain = session.handle_line("EXPLAIN Q(A,B) :- R(A,B), S(B,C)");
        let header = explain.lines.iter().next().unwrap_or_default().to_string();
        assert!(header.starts_with("OK explain lines="), "{header}");
        assert_eq!(crate::protocol::body_lines(&header), explain.lines.len() - 1);
        assert!(explain.lines.iter().any(|l| l == "strategy: yannakakis"));
    }

    #[test]
    fn boolean_queries_answer_true_or_false() {
        let mut session = Session::new();
        feed(&mut session, &["LOAD E 2", "1 2", "2 3", "1 3", "END"]);
        let yes = session.handle_line("QUERY Tri() :- E(A,B), E(B,C), E(A,C)");
        assert_eq!(lines(&yes), vec!["OK rows n=1 vars=() lines=1", "true"]);
        let no = session.handle_line("QUERY Q() :- E(A,A)");
        assert_eq!(lines(&no), vec!["OK rows n=0 vars=() lines=1", "false"]);
    }

    #[test]
    fn an_answer_without_a_free_variable_is_an_internal_error_and_rows_render_canonically() {
        let query = parse_query("Q(B,A) :- R(A,B)").unwrap();
        let rows = Relation::from_rows(2, vec![[20, 1], [3, 0], [20, 1], [1000, 7]]);
        let missing = VarRelation::new(vec![Var(0), Var(2)], rows.clone());
        let reply = render_answer(&query, &missing).unwrap_err().render();
        assert_eq!(reply, "ERR internal a free variable is missing from the answer");
        // Columns bound as (B, A): rendered in variable order (A, B), sorted,
        // duplicates once, zero and multi-digit values intact.
        let answer = VarRelation::new(vec![Var(1), Var(0)], rows);
        assert_eq!(
            lines(&render_answer(&query, &answer).unwrap()),
            vec!["OK rows n=3 vars=A,B lines=3", "0 3", "1 20", "7 1000"]
        );
    }

    /// Checks the framing of a non-empty reply and returns its bytes as
    /// text: the bytes end in `'\n'`, their `'\n'` count is `len()` and
    /// the number of lines `iter()` reads, which is the header's `lines=`
    /// plus one, and collecting the lines by value (what the staged
    /// benchmark replay does) gives header and body.
    fn framed(reply: &Reply) -> String {
        let text = String::from_utf8(reply.lines.as_bytes().to_vec()).unwrap();
        let header = reply.lines.iter().next().unwrap();
        assert!(text.ends_with('\n'), "{text:?}");
        assert_eq!(text.matches('\n').count(), reply.lines.len(), "{text:?}");
        assert_eq!(reply.lines.iter().count(), reply.lines.len(), "{text:?}");
        assert_eq!(reply.lines.len(), crate::protocol::body_lines(header) + 1, "{text:?}");
        let mut collected = Vec::<String>::new();
        collected.extend(reply.lines.clone());
        assert_eq!(collected, text.lines().collect::<Vec<_>>());
        text
    }

    #[test]
    fn the_reply_buffer_renders_the_bytes_format_renders() {
        let mut values: Vec<Value> =
            vec![0, 9, 10, 99, 100, u64::from(u32::MAX), 1 << 44, u64::MAX];
        values.extend((1..20).flat_map(|k| [10u64.pow(k) - 1, 10u64.pow(k)]));
        let rows: Vec<[Value; 2]> =
            values.iter().zip(values.iter().rev()).map(|(&a, &b)| [a, b]).collect();
        let query = parse_query("Q(A,B) :- R(A,B)").unwrap();
        let answer =
            VarRelation::new(vec![Var(0), Var(1)], Relation::from_rows(2, rows.iter().copied()));
        let mut sorted = rows.clone();
        sorted.sort_unstable();
        sorted.dedup();
        let mut expected = format!("OK rows n={0} vars=A,B lines={0}\n", sorted.len());
        for [a, b] in &sorted {
            expected.push_str(&format!("{a} {b}\n"));
        }
        assert_eq!(framed(&render_answer(&query, &answer).unwrap()), expected);

        // An empty answer: the header alone.
        let empty = VarRelation::new(vec![Var(0), Var(1)], Relation::new(2));
        assert_eq!(
            framed(&render_answer(&query, &empty).unwrap()),
            "OK rows n=0 vars=A,B lines=0\n"
        );

        // Boolean answers, and an EXPLAIN, through the session.
        let mut session = Session::new();
        feed(&mut session, &["LOAD R 2", "1 2", "2 3", "END"]);
        let yes = session.handle_line("QUERY T() :- R(A,B), R(B,C)");
        assert_eq!(framed(&yes), "OK rows n=1 vars=() lines=1\ntrue\n");
        let no = session.handle_line("QUERY F() :- R(A,A)");
        assert_eq!(framed(&no), "OK rows n=0 vars=() lines=1\nfalse\n");
        let explain = session.handle_line("EXPLAIN Q(A,C) :- R(A,B), R(B,C)");
        let text = framed(&explain);
        let library = Panda::new(parse_query("Q(A,C) :- R(A,B), R(B,C)").unwrap())
            .explain(&session.db)
            .unwrap()
            .to_string();
        let body: String = library.lines().map(|l| format!("{l}\n")).collect();
        assert_eq!(text, format!("OK explain lines={}\n{body}", library.lines().count()));
    }

    #[test]
    fn load_errors_poison_the_block_and_leave_the_session_usable() {
        let mut session = Session::new();
        let out = feed(&mut session, &["LOAD R 2", "1 2", "1 nope", "3 4", "END"]);
        assert_eq!(out.len(), 1);
        assert!(out.iter().all(|l| l.starts_with("ERR load_error")), "{out:?}");
        // The bad block was discarded; a clean reload works.
        let out = feed(&mut session, &["LOAD R 2", "7 8", "END", "QUERY Q(A,B) :- R(A,B)"]);
        assert_eq!(out, vec!["OK loaded rel=R rows=1", "OK rows n=1 vars=A,B lines=1", "7 8"]);
    }

    #[test]
    fn only_bare_end_and_well_formed_cancel_are_keywords_inside_a_block() {
        // The answers to `LOAD R 2`, `1 2`, the line, `1 2`, `END`, `PING`.
        let bad = |token: &str| {
            vec![format!("ERR load_error non-integer value `{token}` in LOAD R"), "OK pong".into()]
        };
        let cancelled = || {
            vec![
                "OK cancel id=7 state=pending".to_string(),
                "OK loaded rel=R rows=1".into(),
                "OK pong".into(),
            ]
        };
        let closed_early = || {
            vec![
                "OK loaded rel=R rows=1".to_string(),
                "ERR unknown_command unknown command `1`".into(),
                "ERR malformed_request END outside a LOAD block".into(),
                "OK pong".into(),
            ]
        };
        let table: Vec<(&str, Vec<String>)> = vec![
            ("cancel 7", bad("cancel")),
            ("CANCELLED 7", bad("CANCELLED")),
            ("CANCEL", bad("CANCEL")),
            ("CANCEL soon", bad("CANCEL")),
            ("CANCEL 7 8", bad("CANCEL")),
            ("#x CANCEL 7", bad("#x")),
            ("END 1", bad("END")),
            ("ENDURE", bad("ENDURE")),
            ("-1 2", bad("-1")),
            ("CANCEL 7", cancelled()),
            ("CANCEL +7", cancelled()),
            ("#3 CANCEL 7", cancelled()),
            ("# 3 CANCEL 7", cancelled()),
            ("  END  ", closed_early()),
            ("\u{a0}END\u{a0}", closed_early()),
            ("+5 6", vec!["OK loaded rel=R rows=2".into(), "OK pong".into()]),
            ("", vec!["OK loaded rel=R rows=1".into(), "OK pong".into()]),
            ("1\u{a0}2", vec!["OK loaded rel=R rows=1".into(), "OK pong".into()]),
        ];
        for (line, expected) in table {
            let mut session = Session::new();
            let out = feed(&mut session, &["LOAD R 2", "1 2", line, "1 2", "END", "PING"]);
            assert_eq!(out, expected, "line {line:?}");
        }
    }

    #[test]
    fn loaded_counts_duplicate_rows_once() {
        let rows: Vec<String> = (0..1000).map(|i| format!("{} {}", i % 10, i % 7)).collect();
        let mut lines = vec!["LOAD R 2"];
        lines.extend(rows.iter().map(String::as_str));
        lines.push("END");
        let mut session = Session::new();
        assert_eq!(feed(&mut session, &lines), vec!["OK loaded rel=R rows=70"]);
        // What is stored is what `from_rows(..).deduped()` stored: first
        // occurrences, in arrival order.
        let reference = Relation::from_rows(2, (0..1000).map(|i| [i % 10, i % 7])).deduped();
        let in_order = |r: &Relation| r.iter().map(<[Value]>::to_vec).collect::<Vec<_>>();
        assert_eq!(reference.len(), 70);
        assert_eq!(session.db.relation("R").map(in_order), Some(in_order(&reference)));
    }

    #[test]
    fn cancel_before_start_is_deterministic() {
        let mut session = Session::new();
        feed(&mut session, &["LOAD R 2", "1 2", "END"]);
        let ack = session.handle_line("CANCEL 7");
        assert_eq!(lines(&ack), vec!["OK cancel id=7 state=pending"]);
        let reply = session.handle_line("#7 QUERY Q(A,B) :- R(A,B)");
        assert_eq!(reply.lines.len(), 1);
        assert!(reply.lines.iter().all(|l| l.starts_with("ERR cancelled")), "{reply:?}");
        // The tag is now done; cancelling again reports that, and the
        // session still answers queries.
        let ack = session.handle_line("CANCEL 7");
        assert_eq!(lines(&ack), vec!["OK cancel id=7 state=done"]);
        let reply = session.handle_line("#8 QUERY Q(A,B) :- R(A,B)");
        assert_eq!(lines(&reply), vec!["OK rows n=1 vars=A,B lines=1", "1 2"]);
    }

    #[test]
    fn a_fired_token_cancels_the_request_but_not_the_session() {
        let mut session = Session::new();
        feed(&mut session, &["LOAD R 2", "1 2", "END"]);
        let token = CancelToken::new();
        token.cancel();
        let reply = session.handle_line_with("QUERY Q(A,B) :- R(A,B)", Some(&token));
        assert!(reply.lines.iter().all(|l| l.starts_with("ERR cancelled")), "{reply:?}");
        let reply = session.handle_line("QUERY Q(A,B) :- R(A,B)");
        assert_eq!(lines(&reply), vec!["OK rows n=1 vars=A,B lines=1", "1 2"]);
    }

    #[test]
    fn strategy_budget_and_stats_round_trip() {
        let mut session = Session::new();
        assert_eq!(lines(&session.handle_line("STRATEGY")), vec!["OK strategy=auto"]);
        assert_eq!(
            lines(&session.handle_line("STRATEGY generic-join")),
            vec!["OK strategy=generic-join"]
        );
        assert_eq!(
            lines(&session.handle_line("STRATEGY warp-drive")),
            vec!["ERR malformed_request unknown strategy `warp-drive`"]
        );
        assert_eq!(
            lines(&session.handle_line("BUDGET pivots=100 rows=50")),
            vec!["OK budgets pivots=100 branches=none rows=50"]
        );
        assert_eq!(
            lines(&session.handle_line("BUDGET pivots=none")),
            vec!["OK budgets pivots=none branches=none rows=50"]
        );
        let stats = session.handle_line("STATS");
        assert_eq!(lines(&stats), vec!["OK stats hits=0 misses=0 evictions=0 bypasses=0"]);
        let global = session.handle_line("STATS GLOBAL");
        assert_eq!(global.lines.len(), 1);
        assert!(global.lines.iter().all(|l| l.starts_with("OK stats-global hits=")));
    }

    #[test]
    fn quit_sets_the_quit_flag() {
        let mut session = Session::new();
        let reply = session.handle_line("QUIT");
        assert_eq!(lines(&reply), vec!["OK bye"]);
        assert!(reply.quit);
    }

    #[test]
    fn explain_matches_the_library_rendering_byte_for_byte() {
        let mut session = Session::new();
        feed(
            &mut session,
            &[
                "LOAD R 2", "1 2", "2 3", "END", "LOAD S 2", "2 3", "3 4", "END", "LOAD T 2",
                "3 4", "END", "LOAD U 2", "4 1", "END",
            ],
        );
        let text = "Q(X,Y) :- R(X,Y), S(Y,Z), T(Z,W), U(W,X)";
        let reply = session.handle_line(&format!("EXPLAIN {text}"));
        let via_wire: Vec<&str> = reply.lines.iter().skip(1).collect();

        let mut db = Database::new();
        db.insert("R", Relation::from_rows(2, vec![[1, 2], [2, 3]]));
        db.insert("S", Relation::from_rows(2, vec![[2, 3], [3, 4]]));
        db.insert("T", Relation::from_rows(2, vec![[3, 4]]));
        db.insert("U", Relation::from_rows(2, vec![[4, 1]]));
        let library = Panda::new(parse_query(text).unwrap()).explain(&db).unwrap().to_string();
        let library_lines: Vec<String> = library.lines().map(str::to_string).collect();
        assert_eq!(via_wire, library_lines);
    }
}
