//! The flat cursor against a nested-loop oracle.
//!
//! The generic join binds its output variables first and stops at the first
//! witness of the rest, and no engine deduplicates its answer afterwards.
//! These tests check every answer against an evaluator written here over
//! `BTreeSet`s, which calls no engine code, and check that no answer holds a
//! row twice.  The random queries cover projected and Boolean heads,
//! self-joins, a repeated variable `R(X,X)`, a ternary atom, empty relations
//! and relations that keep duplicate rows.

use std::collections::{BTreeMap, BTreeSet};

use panda::config::{Engine, Parallelism};
use panda::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One body atom: its relation symbol and its variables' names.
type OracleAtom = (String, Vec<String>);

/// A body atom as written in a test: symbol and variable names.
type Body<'a> = [(&'a str, &'a [&'a str])];

/// The answer of `head :- atoms` over `tables` by nested loops: every
/// combination of one row per atom that agrees on shared variables,
/// projected onto `head`.
fn oracle(
    atoms: &[OracleAtom],
    tables: &BTreeMap<String, Vec<Vec<u64>>>,
    head: &[String],
) -> BTreeSet<Vec<u64>> {
    let mut answers = BTreeSet::new();
    extend(atoms, tables, head, &BTreeMap::new(), &mut answers);
    answers
}

fn extend(
    atoms: &[OracleAtom],
    tables: &BTreeMap<String, Vec<Vec<u64>>>,
    head: &[String],
    assignment: &BTreeMap<String, u64>,
    answers: &mut BTreeSet<Vec<u64>>,
) {
    let Some(((relation, vars), rest)) = atoms.split_first() else {
        answers.insert(head.iter().map(|v| assignment[v]).collect());
        return;
    };
    let rows: BTreeSet<&Vec<u64>> = tables.get(relation).into_iter().flatten().collect();
    'rows: for row in rows {
        let mut extended = assignment.clone();
        for (var, &value) in vars.iter().zip(row) {
            if *extended.entry(var.clone()).or_insert(value) != value {
                continue 'rows;
            }
        }
        extend(rest, tables, head, &extended, answers);
    }
}

/// An instance: the query text, its atoms for the oracle, and the rows of
/// each relation (duplicates kept).
struct Case {
    text: String,
    atoms: Vec<OracleAtom>,
    tables: BTreeMap<String, Vec<Vec<u64>>>,
}

impl Case {
    fn new(head: &[&str], atoms: &Body, tables: BTreeMap<String, Vec<Vec<u64>>>) -> Self {
        let body: Vec<String> =
            atoms.iter().map(|(r, vars)| format!("{r}({})", vars.join(","))).collect();
        let atoms = atoms
            .iter()
            .map(|(r, vars)| (r.to_string(), vars.iter().map(|v| v.to_string()).collect()))
            .collect();
        Case { text: format!("Q({}) :- {}", head.join(","), body.join(", ")), atoms, tables }
    }

    fn db(&self) -> Database {
        let mut db = Database::new();
        for (name, vars) in &self.atoms {
            db.insert(name.clone(), Relation::from_rows(vars.len(), &self.tables[name]));
        }
        db
    }

    /// Checks `out` against the oracle: the same rows, none twice.
    fn check(&self, query: &ConjunctiveQuery, out: &VarRelation, what: &str) {
        let head: Vec<String> = out.vars.iter().map(|&v| query.var_name(v).to_string()).collect();
        let rows: Vec<Vec<u64>> = out.rel.iter().map(<[u64]>::to_vec).collect();
        let distinct: BTreeSet<Vec<u64>> = rows.iter().cloned().collect();
        assert_eq!(rows.len(), distinct.len(), "{what}: a row twice in {}", self.text);
        assert_eq!(distinct, oracle(&self.atoms, &self.tables, &head), "{what}: {}", self.text);
    }
}

/// A random query on at most five variables: one to four atoms over three
/// binary symbols (so symbols repeat) and one ternary one, variables drawn
/// with repetition (so `R(X,X)` occurs), a head of a random subset of the
/// body's variables; each relation has 0–12 rows over a small domain,
/// duplicates kept.
fn random_case(rng: &mut StdRng) -> Case {
    const VARS: [&str; 5] = ["A", "B", "C", "D", "E"];
    let symbols: [(&str, usize); 4] = [("R", 2), ("S", 2), ("T", 2), ("U", 3)];
    let num_vars = rng.gen_range(1..6usize);
    let mut atoms: Vec<(&str, Vec<&str>)> = Vec::new();
    for _ in 0..rng.gen_range(1..5usize) {
        let (symbol, arity) = symbols[rng.gen_range(0..symbols.len())];
        atoms.push((symbol, (0..arity).map(|_| VARS[rng.gen_range(0..num_vars)]).collect()));
    }
    let mut body_vars: Vec<&str> = atoms.iter().flat_map(|(_, vars)| vars.clone()).collect();
    body_vars.sort_unstable();
    body_vars.dedup();
    let head: Vec<&str> = body_vars.into_iter().filter(|_| rng.gen_bool(0.5)).collect();
    let domain = rng.gen_range(2..5u64);
    let mut tables = BTreeMap::new();
    for (symbol, arity) in symbols {
        let rows = if rng.gen_range(0..6u32) == 0 { 0 } else { rng.gen_range(1..13usize) };
        let rows = (0..rows).map(|_| (0..arity).map(|_| rng.gen_range(0..domain)).collect());
        tables.insert(symbol.to_string(), rows.collect());
    }
    let atoms: Vec<(&str, &[&str])> = atoms.iter().map(|(r, v)| (*r, v.as_slice())).collect();
    Case::new(&head, &atoms, tables)
}

const STRATEGIES: [EvaluationStrategy; 6] = [
    EvaluationStrategy::Auto,
    EvaluationStrategy::Yannakakis,
    EvaluationStrategy::StaticTd,
    EvaluationStrategy::Adaptive,
    EvaluationStrategy::GenericJoin,
    EvaluationStrategy::BinaryJoin,
];

fn engine(threads: usize) -> Engine {
    Engine::Parallel(Parallelism::threads(threads))
}

#[test]
fn the_generic_join_and_every_strategy_answer_what_the_oracle_answers() {
    let mut rng = StdRng::seed_from_u64(43);
    let mut shapes = [0usize; 4]; // Boolean, projected, self-join, repeated variable
    for _ in 0..150 {
        let case = random_case(&mut rng);
        let query = parse_query(&case.text).unwrap();
        let db = case.db();
        shapes[0] += usize::from(query.is_boolean());
        shapes[1] += usize::from(!query.is_boolean() && !query.is_full());
        shapes[2] += usize::from(query.has_self_join());
        shapes[3] += usize::from(query.atoms().iter().any(|a| a.var_set().len() < a.arity()));
        let inputs = VarRelation::bind_all(&query, &db);
        let free = query.free_vars().to_vec();
        for threads in [1, 2, 4] {
            let join = GenericJoin::new(query.all_vars());
            let out = join.join_with_engine(&inputs, &free, engine(threads));
            case.check(&query, &out, &format!("generic join at {threads} threads"));
        }
        for strategy in STRATEGIES {
            match Panda::new(query.clone()).try_evaluate_with(&db, strategy) {
                Ok(out) => case.check(&query, &out, strategy.name()),
                Err(StrategyError::CyclicYannakakis) => {
                    assert_eq!(strategy, EvaluationStrategy::Yannakakis, "{}", case.text)
                }
                Err(e) => panic!("{}: {} failed: {e}", case.text, strategy.name()),
            }
        }
    }
    assert!(shapes.iter().all(|&n| n >= 10), "shapes covered: {shapes:?}");
}

/// A hub with 4–11 random two-way spokes plus 4–15 random edges over 16
/// vertices: a few heavy degrees beside light ones, so adaptive plans
/// split the self-joined relation into several degree buckets.
fn hub_graph(rng: &mut StdRng) -> BTreeMap<String, Vec<Vec<u64>>> {
    let mut rows = Vec::new();
    for _ in 0..rng.gen_range(4..12) {
        let leaf = rng.gen_range(1..16u64);
        rows.extend([vec![0, leaf], vec![leaf, 0]]);
    }
    for _ in 0..rng.gen_range(4..16) {
        rows.push(vec![rng.gen_range(1..16u64), rng.gen_range(1..16u64)]);
    }
    BTreeMap::from([("R".to_string(), rows)])
}

#[test]
fn adaptive_self_joins_answer_what_the_oracle_answers() {
    let shapes: [(&[&str], &Body); 3] = [
        (
            &["X", "Y"],
            &[("R", &["X", "Y"]), ("R", &["Y", "Z"]), ("R", &["Z", "W"]), ("R", &["W", "X"])],
        ),
        (&["X"], &[("R", &["X", "Y"]), ("R", &["Y", "Z"]), ("R", &["Z", "X"])]),
        (&[], &[("R", &["X", "Y"]), ("R", &["Y", "Z"]), ("R", &["Z", "W"]), ("R", &["W", "X"])]),
    ];
    let mut rng = StdRng::seed_from_u64(29);
    let mut split = 0;
    for _ in 0..40 {
        let tables = hub_graph(&mut rng);
        for (head, atoms) in shapes {
            let case = Case::new(head, atoms, tables.clone());
            let query = parse_query(&case.text).unwrap();
            let db = case.db();
            let reference = GenericJoin::evaluate(&query, &db);
            case.check(&query, &reference, "generic join");
            for strategy in [EvaluationStrategy::Auto, EvaluationStrategy::Adaptive] {
                for threads in [1, 2] {
                    let panda = Panda::new(query.clone()).with_engine(engine(threads));
                    let out = panda.try_evaluate_with(&db, strategy).unwrap();
                    let what = format!("{} at {threads} threads", strategy.name());
                    assert_eq!(out.vars, reference.vars, "{what}");
                    case.check(&query, &out, &what);
                }
            }
            let report = Panda::new(query).plan_report_for(&db, EvaluationStrategy::Adaptive);
            split += usize::from(report.unwrap().branch_count > 1);
        }
    }
    assert!(split >= 40, "only {split} adaptive plans split their input");
}

/// `diamond_tail`'s `{A,B,C,D}` bag is read only through `{A,D}`, so its
/// job builds that projection (`materialize.rs` pins the job's rows).  On a
/// dense graph the answer is still the oracle's, and EXPLAIN still names
/// the bag.
#[test]
fn the_diamond_tail_answers_through_its_projected_bag() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut tables = BTreeMap::new();
    for name in ["R", "S", "T", "U", "V", "W"] {
        let edges: BTreeSet<Vec<u64>> =
            (0..420).map(|_| vec![rng.gen_range(0..30u64), rng.gen_range(0..30u64)]).collect();
        tables.insert(name.to_string(), edges.into_iter().collect());
    }
    let atoms: [(&str, &[&str]); 6] = [
        ("R", &["A", "B"]),
        ("S", &["B", "C"]),
        ("T", &["A", "C"]),
        ("U", &["B", "D"]),
        ("V", &["C", "D"]),
        ("W", &["D", "E"]),
    ];
    let case = Case::new(&["A", "E"], &atoms, tables);
    let query = parse_query(&case.text).unwrap();
    let db = case.db();
    for strategy in [EvaluationStrategy::Auto, EvaluationStrategy::StaticTd] {
        case.check(
            &query,
            &Panda::new(query.clone()).evaluate_with(&db, strategy),
            strategy.name(),
        );
    }
    let explain = Panda::new(query).explain(&db).unwrap().to_string();
    assert!(explain.contains("strategy: static-td"), "{explain}");
    assert!(explain.contains("  {A,B,C,D}: "), "{explain}");
}
