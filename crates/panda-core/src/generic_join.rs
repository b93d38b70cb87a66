//! A worst-case-optimal join (generic join).
//!
//! The AGM bound (Section 2.1 of the paper) states that the output of a
//! full CQ under cardinality constraints is at most `Π_R N_R^{x_R}` for any
//! fractional edge cover `x`; *worst-case-optimal* join algorithms run in
//! time proportional to that bound.  [`GenericJoin`] implements the classic
//! variable-at-a-time scheme of Ngo–Porat–Ré–Rudra / "skew strikes back":
//! variables are bound one at a time and the candidate values for each
//! variable are obtained by intersecting, over all atoms containing it, the
//! values compatible with the current partial assignment.
//!
//! The search is one level of `cursor.rs` per variable, each atom read
//! through its relation's cached adjacency from the columns bound before
//! it.  The output variables are bound first; the rest form an existential
//! suffix where the cursor stops at the first witness, so a projection or
//! a Boolean query emits each answer once and never enumerates the
//! witnesses it projects away.  An output variable that shares no atom
//! with those bound before it waits for an existential one linking it, and
//! the cursor deduplicates the rows under that prefix: binding it early
//! would try every `(A,C)` pair of `Q(A,C) :- R(A,B), S(B,C)`.

// panda-lint: allow-file(P1) -- column positions come from each atom's own
// schema, and every occurring variable has a position in the order.

use panda_query::{ConjunctiveQuery, Var, VarSet};
use panda_relation::{Database, Relation};

use crate::binding::VarRelation;
use crate::config::Engine;
use crate::cursor::{Cursor, Level, Reader};

/// A worst-case-optimal join evaluator for (sub)queries.
#[derive(Debug, Clone)]
pub struct GenericJoin {
    /// The search's tie-breaking variable order: a variable sharing an atom
    /// with a bound one goes first, an output one first among those, then
    /// this order.  Defaults to ascending variable index.
    pub variable_order: Vec<Var>,
}

impl GenericJoin {
    /// Creates an evaluator with the default (ascending-index) variable
    /// order over the given variables.
    #[must_use]
    pub fn new(vars: VarSet) -> Self {
        GenericJoin { variable_order: vars.to_vec() }
    }

    /// Creates an evaluator with an explicit variable order.
    #[must_use]
    pub fn with_order(variable_order: Vec<Var>) -> Self {
        GenericJoin { variable_order }
    }

    /// Joins the given bound relations over all variables of the order that
    /// appear in them and projects the result onto `output`, each answer
    /// once.  Equivalent to [`GenericJoin::join_with_engine`] with
    /// [`Engine::Sequential`].
    ///
    /// Variable-free relations are treated as Boolean filters: if any of
    /// them is empty the result is empty.
    ///
    /// # Panics
    ///
    /// Panics if the variable order does not cover every variable occurring
    /// in the inputs (an incomplete order would silently drop those
    /// variables' join constraints and return wrong answers), or if an
    /// output variable does not occur in the join.
    #[must_use]
    pub fn join(&self, inputs: &[VarRelation], output: &[Var]) -> VarRelation {
        self.join_with_engine(inputs, output, Engine::Sequential)
    }

    /// [`GenericJoin::join`] under an explicit [`Engine`].
    ///
    /// Under a parallel engine the **top-level branches** of the
    /// backtracking search — the candidate values of the first output
    /// variable — are split into contiguous chunks evaluated on the
    /// engine's threads, and the chunk outputs are concatenated in
    /// candidate order, so the result is bit-identical to sequential
    /// evaluation at any thread count.
    ///
    /// # Panics
    ///
    /// As [`GenericJoin::join`].
    #[must_use]
    pub fn join_with_engine(
        &self,
        inputs: &[VarRelation],
        output: &[Var],
        engine: Engine,
    ) -> VarRelation {
        // Keep only the order variables that actually occur — but the order
        // must mention every occurring variable.
        let occurring: VarSet = inputs.iter().fold(VarSet::EMPTY, |acc, r| acc.union(r.var_set()));
        let vars: Vec<Var> =
            self.variable_order.iter().copied().filter(|v| occurring.contains(*v)).collect();
        let covered: VarSet = vars.iter().copied().collect();
        assert!(
            occurring.is_subset_of(covered),
            "variable order {:?} does not cover the occurring variables {:?}; the missing \
             variables' join constraints would be dropped",
            self.variable_order,
            occurring.difference(covered).to_vec()
        );
        for out in output {
            assert!(vars.contains(out), "output variable {out:?} does not occur in the join");
        }
        if inputs.iter().any(|r| r.is_empty() && r.vars.is_empty()) {
            return VarRelation::new(output.to_vec(), Relation::new(output.len()));
        }
        if vars.is_empty() {
            return VarRelation::boolean(true); // only non-empty variable-free inputs
        }

        // Output variables first, each sharing an atom with a bound one if one
        // can; else an existential one that does, under which rows repeat.
        let mut order = Vec::new();
        while order.len() < vars.len() {
            let joined = |v: &Var| {
                order.is_empty()
                    || inputs
                        .iter()
                        .any(|r| r.vars.contains(v) && r.vars.iter().any(|w| order.contains(w)))
            };
            let open = vars.iter().filter(|v| !order.contains(*v));
            let v =
                *open.min_by_key(|v| (!joined(v), !output.contains(*v))).expect("an open variable");
            order.push(v);
        }
        let output_levels = order.iter().rposition(|v| output.contains(v)).map_or(0, |i| i + 1);
        let slot = |v: Var| order.iter().position(|w| *w == v).expect("an occurring variable");
        let levels = (0..order.len())
            .map(|depth| {
                let readers = inputs.iter().filter_map(|input| {
                    let column = input.column_of(order[depth])?;
                    let bound: Vec<usize> = (0..input.vars.len())
                        .filter(|&c| order[..depth].contains(&input.vars[c]))
                        .collect();
                    // Nothing bound yet: the level reads the sorted distinct
                    // column, the key list of `(column | rest)`.
                    let adjacency = if bound.is_empty() {
                        input.rel.adjacency(&[column], &(0..input.rel.arity()).collect::<Vec<_>>())
                    } else {
                        input.rel.adjacency(&bound, &[column])
                    };
                    let key = bound.iter().map(|&c| slot(input.vars[c])).collect();
                    Some(Reader { adjacency, key })
                });
                Level { readers: readers.collect(), writes: vec![depth] }
            })
            .collect();
        let cursor =
            Cursor { levels, output_levels, output: output.iter().map(|&v| slot(v)).collect() };
        VarRelation::new(output.to_vec(), cursor.run(engine.threads()))
    }

    /// Evaluates a full or projected conjunctive query with a worst-case
    /// optimal join over all its atoms, returning the answer over the free
    /// variables.  Sequential; see [`GenericJoin::evaluate_with_engine`].
    #[must_use]
    pub fn evaluate(query: &ConjunctiveQuery, db: &Database) -> VarRelation {
        GenericJoin::evaluate_with_engine(query, db, Engine::Sequential)
    }

    /// [`GenericJoin::evaluate`] under an explicit [`Engine`].
    #[must_use]
    pub fn evaluate_with_engine(
        query: &ConjunctiveQuery,
        db: &Database,
        engine: Engine,
    ) -> VarRelation {
        let inputs = VarRelation::bind_all(query, db);
        let join = GenericJoin::new(query.all_vars());
        join.join_with_engine(&inputs, &query.free_vars().to_vec(), engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panda_query::parse_query;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn triangle_db(edges: &[(u64, u64)]) -> Database {
        let mut db = Database::new();
        let rel = Relation::from_rows(2, edges.iter().map(|&(a, b)| [a, b]));
        db.insert("R", rel.clone());
        db.insert("S", rel.clone());
        db.insert("T", rel);
        db
    }

    #[test]
    fn triangle_query_finds_all_triangles() {
        // Triangle on a small graph: edges 1-2, 2-3, 1-3 plus noise.
        let q = parse_query("Tri(A,B,C) :- R(A,B), S(B,C), T(A,C)").unwrap();
        let db = triangle_db(&[(1, 2), (2, 3), (1, 3), (4, 5)]);
        let out = GenericJoin::evaluate(&q, &db);
        assert_eq!(out.rel.canonical_rows(), vec![vec![1, 2, 3]]);
    }

    #[test]
    fn projection_and_boolean_queries() {
        let q = parse_query("Q(A) :- R(A,B), S(B,C)").unwrap();
        let mut db = Database::new();
        db.insert("R", Relation::from_rows(2, vec![[1, 2], [4, 9]]));
        db.insert("S", Relation::from_rows(2, vec![[2, 3], [2, 5]]));
        let out = GenericJoin::evaluate(&q, &db);
        assert_eq!(out.rel.canonical_rows(), vec![vec![1]]);

        let qb = parse_query("Q() :- R(A,B), S(B,C)").unwrap();
        let out = GenericJoin::evaluate(&qb, &db);
        assert_eq!(out.len(), 1); // true
        let empty_db = Database::new();
        let out = GenericJoin::evaluate(&qb, &empty_db);
        assert_eq!(out.len(), 0); // false
    }

    #[test]
    fn four_cycle_matches_nested_loop_semantics() {
        let q = parse_query("Q(X,Y,Z,W) :- R(X,Y), S(Y,Z), T(Z,W), U(W,X)").unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let mut db = Database::new();
        for name in ["R", "S", "T", "U"] {
            let rel = Relation::from_rows(
                2,
                (0..60).map(|_| [rng.gen_range(0..8u64), rng.gen_range(0..8u64)]),
            )
            .deduped();
            db.insert(name, rel);
        }
        let fast = GenericJoin::evaluate(&q, &db);
        // Nested-loop reference.
        let mut expected = Vec::new();
        let r = db.relation("R").unwrap();
        let s = db.relation("S").unwrap();
        let t = db.relation("T").unwrap();
        let u = db.relation("U").unwrap();
        for er in r.iter() {
            for es in s.iter() {
                if er[1] != es[0] {
                    continue;
                }
                for et in t.iter() {
                    if es[1] != et[0] {
                        continue;
                    }
                    for eu in u.iter() {
                        if et[1] == eu[0] && eu[1] == er[0] {
                            expected.push(vec![er[0], er[1], es[1], et[1]]);
                        }
                    }
                }
            }
        }
        expected.sort();
        expected.dedup();
        assert_eq!(fast.rel.canonical_rows(), expected);
    }

    #[test]
    fn custom_variable_order_gives_same_answer() {
        let q = parse_query("Q(X,Y,Z) :- R(X,Y), S(Y,Z), T(X,Z)").unwrap();
        let db = triangle_db(&[(1, 2), (2, 3), (1, 3), (3, 1), (2, 1)]);
        let inputs = VarRelation::bind_all(&q, &db);
        let default = GenericJoin::new(q.all_vars()).join(&inputs, &q.free_vars().to_vec());
        let reversed = GenericJoin::with_order(vec![Var(2), Var(0), Var(1)])
            .join(&inputs, &q.free_vars().to_vec());
        assert_eq!(
            default.canonical_rows_ordered(&[Var(0), Var(1), Var(2)]),
            reversed.canonical_rows_ordered(&[Var(0), Var(1), Var(2)])
        );
    }

    #[test]
    #[should_panic(expected = "does not cover")]
    fn incomplete_variable_order_panics_instead_of_dropping_constraints() {
        // Regression: an order missing an occurring variable used to drop
        // that variable's join constraints silently.  Here Y links R and S;
        // with order [X] the old code returned {1, 4} instead of {1}.
        let r =
            VarRelation::new(vec![Var(0), Var(1)], Relation::from_rows(2, vec![[1, 2], [4, 9]]));
        let s = VarRelation::new(vec![Var(1)], Relation::from_rows(1, vec![[2]]));
        let _ = GenericJoin::with_order(vec![Var(0)]).join(&[r, s], &[Var(0)]);
    }

    #[test]
    fn variable_free_relations_still_act_as_boolean_filters() {
        let r = VarRelation::new(vec![Var(0)], Relation::from_rows(1, vec![[1], [2]]));
        let t = VarRelation::boolean(true);
        let out = GenericJoin::with_order(vec![Var(0)]).join(&[r.clone(), t], &[Var(0)]);
        assert_eq!(out.len(), 2);
        let f = VarRelation::boolean(false);
        let out = GenericJoin::with_order(vec![Var(0)]).join(&[r, f], &[Var(0)]);
        assert_eq!(out.len(), 0);
    }

    #[test]
    fn triangle_output_respects_agm_bound_on_random_graphs() {
        // |output| ≤ N^{3/2} for the triangle query (AGM bound).
        let q = parse_query("Tri(A,B,C) :- R(A,B), S(B,C), T(A,C)").unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..5 {
            let edges: Vec<(u64, u64)> =
                (0..200).map(|_| (rng.gen_range(0..25u64), rng.gen_range(0..25u64))).collect();
            let db = triangle_db(&edges);
            let n = db.relation("R").unwrap().distinct_count() as f64;
            let out = GenericJoin::evaluate(&q, &db);
            assert!((out.len() as f64) <= n.powf(1.5) + 1e-9);
        }
    }

    #[test]
    fn parallel_top_level_split_is_bit_identical_to_sequential() {
        use crate::config::{Engine, Parallelism};
        let q = parse_query("Q(X,Y,Z,W) :- R(X,Y), S(Y,Z), T(Z,W), U(W,X)").unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let mut db = Database::new();
        for name in ["R", "S", "T", "U"] {
            let rel = Relation::from_rows(
                2,
                (0..80).map(|_| [rng.gen_range(0..10u64), rng.gen_range(0..10u64)]),
            )
            .deduped();
            db.insert(name, rel);
        }
        let seq = GenericJoin::evaluate_with_engine(&q, &db, Engine::Sequential);
        for threads in [2, 3, 8] {
            let par = GenericJoin::evaluate_with_engine(
                &q,
                &db,
                Engine::Parallel(Parallelism::threads(threads)),
            );
            assert_eq!(par.vars, seq.vars);
            // Bit-identical: same rows in the same storage order, not just
            // the same set.
            let seq_rows: Vec<Vec<u64>> = seq.rel.iter().map(<[u64]>::to_vec).collect();
            let par_rows: Vec<Vec<u64>> = par.rel.iter().map(<[u64]>::to_vec).collect();
            assert_eq!(par_rows, seq_rows, "threads = {threads}");
        }
    }

    #[test]
    fn a_projection_joins_through_the_variable_linking_its_outputs() {
        // `A` and `C` share no atom: bound first, they would pair every `A`
        // with every `C` (2.5·10⁹ pairs here) before `B` pruned them.
        let q = parse_query("Q(A,C) :- R(A,B), S(B,C)").unwrap();
        let n = 50_000u64;
        let mut db = Database::new();
        db.insert("R", Relation::from_rows(2, (0..n).map(|i| [i, i])));
        db.insert("S", Relation::from_rows(2, (0..n).map(|i| [i, n - i])));
        let out = GenericJoin::evaluate(&q, &db);
        assert_eq!(out.len(), n as usize);
        assert_eq!(out.rel.distinct_count(), n as usize);
    }

    #[test]
    fn cartesian_queries_work() {
        let q = parse_query("Q(A,B) :- R(A), S(B)").unwrap();
        let mut db = Database::new();
        db.insert("R", Relation::from_rows(1, vec![[1], [2]]));
        db.insert("S", Relation::from_rows(1, vec![[7], [8], [9]]));
        let out = GenericJoin::evaluate(&q, &db);
        assert_eq!(out.len(), 6);
    }
}
