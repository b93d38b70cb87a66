//! Functional aggregate queries over semirings (Section 9.1).
//!
//! A FAQ annotates every input tuple with an element of a commutative
//! semiring `(K, ⊕, ⊗)` and asks for `⊕_{assignments} ⊗_{atoms}
//! annotation(atom tuple)`.  Instantiating the semiring yields the Boolean
//! query (∨/∧), the counting query `#CQ` (+/×), minimum-weight matching
//! (min/+), and bottleneck matching (max/min).  Relations are sets: a
//! tuple stored twice is one tuple, annotated once, so counting counts
//! distinct satisfying assignments.
//!
//! An acyclic body is one bottom-up pass of messages over a join tree of
//! its atoms.  A node's message holds one element per group of its
//! relation's cached `(vars shared with the parent | rest)` adjacency
//! ([`panda_relation::Relation::adjacency`]): each distinct row `⊕`-adds
//! `annotation ⊗ Π child messages` into its group, where a child's entry
//! is found by looking the row's values of the child's key up in the
//! child's adjacency, and a miss drops the row.  The root shares nothing
//! with a parent, so its one group is the answer.  No join is
//! materialised.
//!
//! A cyclic body enumerates its full join with the worst-case-optimal
//! join and `⊕`-adds every assignment's product, whatever the semiring.
//! The paper's open problem (Section 10) is that non-idempotent semirings
//! cannot simply reuse PANDA's overlapping partitions.

// panda-lint: allow-file(P1) -- message slots are indexed by join-tree
// node ids, a message's sums by the group ids of the adjacency that
// numbered them, and rows by positions in the variable order that laid
// them out; the join tree visits each child before its parent.

use std::sync::Arc;

use panda_query::hypergraph::join_tree_of;
use panda_query::{ConjunctiveQuery, Var, VarSet};
use panda_relation::{Adjacency, Database, Semiring, Value};

use crate::binding::VarRelation;
use crate::generic_join::GenericJoin;

/// An annotation function: given the relation symbol and a tuple, returns
/// its semiring annotation.
pub type AnnotationFn<'a, S> = dyn Fn(&str, &[Value]) -> <S as Semiring>::Elem + 'a;

/// A join-tree node's message: its `(shared with the parent | rest)`
/// adjacency and one semiring element per group of it.
type Message<S> = (Arc<Adjacency>, Vec<<S as Semiring>::Elem>);

/// Computes the total FAQ aggregate `⊕` over all assignments to *all*
/// variables of `⊗` over the atoms' annotations.
///
/// With [`panda_relation::CountingSemiring`] and the constant annotation 1
/// this is the number of satisfying assignments (the `#CQ` answer for a
/// Boolean head); with [`panda_relation::MinPlusSemiring`] and per-tuple
/// weights it is the minimum total weight of any satisfying assignment.
pub fn faq_total<S: Semiring>(
    query: &ConjunctiveQuery,
    db: &Database,
    annotate: &AnnotationFn<'_, S>,
) -> S::Elem {
    let schemas: Vec<VarSet> = query.atoms().iter().map(panda_query::Atom::var_set).collect();
    let bound = VarRelation::bind_all(query, db);
    let Some(tree) = join_tree_of(&schemas) else {
        return enumerate_full_join::<S>(query, &bound, annotate);
    };
    let mut messages: Vec<Option<Message<S>>> = (0..bound.len()).map(|_| None).collect();
    for &node in &tree.bottom_up {
        let (atom, rel) = (&query.atoms()[node], &bound[node]);
        let shared = tree.parent[node].map_or(VarSet::EMPTY, |parent| schemas[parent]);
        let (key_cols, rest_cols): (Vec<usize>, Vec<usize>) =
            (0..rel.vars.len()).partition(|&c| shared.contains(rel.vars[c]));
        let adjacency = rel.rel.adjacency(&key_cols, &rest_cols);
        // An adjacency row lists the node's variables in this order.
        let order: Vec<Var> = key_cols.iter().chain(&rest_cols).map(|&c| rel.vars[c]).collect();
        // Each child's message, with the positions in `order` of its key.
        let children: Vec<(Message<S>, Vec<usize>)> = tree.children[node]
            .iter()
            .map(|&child| {
                let key = bound[child].vars.iter().filter(|v| schemas[node].contains(**v));
                (messages[child].take().expect("children before parents"), positions(&order, key))
            })
            .collect();
        let atom_positions = positions(&order, &atom.vars);
        let (k, width) = (key_cols.len(), rest_cols.len());
        let (mut row, mut tuple, mut key) = (Vec::new(), Vec::new(), Vec::new());
        let mut sums = vec![S::zero(); adjacency.num_keys()];
        for (group, sum) in sums.iter_mut().enumerate() {
            let values = adjacency.values(group);
            'entry: for entry in 0..adjacency.degree(group) {
                row.clear();
                row.extend_from_slice(&adjacency.keys()[group * k..(group + 1) * k]);
                row.extend_from_slice(&values[entry * width..(entry + 1) * width]);
                tuple.clear();
                tuple.extend(atom_positions.iter().map(|&i| row[i]));
                let mut product = annotate(&atom.relation, &tuple);
                for ((child_adjacency, child_sums), probe) in &children {
                    key.clear();
                    key.extend(probe.iter().map(|&i| row[i]));
                    let Some(child_group) = child_adjacency.find(&key) else {
                        continue 'entry;
                    };
                    product = S::mul(&product, &child_sums[child_group]);
                }
                *sum = S::add(sum, &product);
            }
        }
        messages[node] = Some((adjacency, sums));
    }
    let (_, sums) = messages[tree.root].take().expect("the root is visited last");
    sums.into_iter().next().unwrap_or_else(S::zero)
}

/// The position in `order` of each of `vars`, all of which it lists.
fn positions<'a>(order: &[Var], vars: impl IntoIterator<Item = &'a Var>) -> Vec<usize> {
    vars.into_iter().map(|v| order.iter().position(|w| w == v).expect("variable bound")).collect()
}

/// The cyclic case: `⊕` over every row of the full join of `⊗` over the
/// atoms' annotations, each atom's tuple read from the row by column.
fn enumerate_full_join<S: Semiring>(
    query: &ConjunctiveQuery,
    bound: &[VarRelation],
    annotate: &AnnotationFn<'_, S>,
) -> S::Elem {
    let all = query.all_vars();
    let full = GenericJoin::new(all).join(bound, &all.to_vec());
    let atom_cols: Vec<Vec<usize>> =
        query.atoms().iter().map(|atom| positions(&full.vars, &atom.vars)).collect();
    let mut tuple = Vec::new();
    full.rel.iter().fold(S::zero(), |total, row| {
        let product =
            query.atoms().iter().zip(&atom_cols).fold(S::one(), |product, (atom, cols)| {
                tuple.clear();
                tuple.extend(cols.iter().map(|&c| row[c]));
                S::mul(&product, &annotate(&atom.relation, &tuple))
            });
        S::add(&total, &product)
    })
}

/// Counts the satisfying assignments to all variables of the query body
/// (`#CQ` with a Boolean head), using the counting semiring.
#[must_use]
pub fn count_assignments(query: &ConjunctiveQuery, db: &Database) -> u64 {
    faq_total::<panda_relation::CountingSemiring>(query, db, &|_, _| 1)
}

/// The minimum total weight over satisfying assignments, where each atom
/// tuple's weight is given by `weight` (min-plus semiring);
/// `None` if the query is unsatisfiable.
pub fn min_weight(
    query: &ConjunctiveQuery,
    db: &Database,
    weight: &dyn Fn(&str, &[Value]) -> i64,
) -> Option<i64> {
    let total = faq_total::<panda_relation::MinPlusSemiring>(query, db, weight);
    (total < panda_relation::semiring::MIN_PLUS_INFINITY).then_some(total)
}

/// Boolean satisfiability of the body (any satisfying assignment at all),
/// via the Boolean semiring.
#[must_use]
pub fn is_satisfiable(query: &ConjunctiveQuery, db: &Database) -> bool {
    faq_total::<panda_relation::BoolSemiring>(query, db, &|_, _| true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use panda_query::parse_query;
    use panda_relation::{BoolSemiring, CountingSemiring, MinPlusSemiring, Relation};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn path_db() -> Database {
        let mut db = Database::new();
        db.insert("R", Relation::from_rows(2, vec![[1, 2], [1, 3], [4, 3]]));
        db.insert("S", Relation::from_rows(2, vec![[2, 5], [3, 5], [3, 6]]));
        db
    }

    #[test]
    fn counting_a_path_query() {
        // assignments: (1,2,5), (1,3,5), (1,3,6), (4,3,5), (4,3,6) = 5.
        let q = parse_query("Q() :- R(A,B), S(B,C)").unwrap();
        assert_eq!(count_assignments(&q, &path_db()), 5);
        assert!(is_satisfiable(&q, &path_db()));
    }

    #[test]
    fn counting_agrees_with_enumeration_on_cyclic_queries() {
        let q = parse_query("Q() :- R(X,Y), S(Y,Z), T(Z,W), U(W,X)").unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let mut db = Database::new();
        for name in ["R", "S", "T", "U"] {
            db.insert(
                name,
                Relation::from_rows(
                    2,
                    (0..40).map(|_| [rng.gen_range(0..6u64), rng.gen_range(0..6u64)]),
                )
                .deduped(),
            );
        }
        let count = count_assignments(&q, &db);
        let full = GenericJoin::evaluate(&q.with_free(q.all_vars()), &db);
        assert_eq!(count, full.len() as u64);
    }

    #[test]
    fn counting_semiring_needs_multiplicity_not_idempotence() {
        // Two different B-paths from 1 to 5 must count as 2, not 1.
        let q = parse_query("Q() :- R(A,B), S(B,C)").unwrap();
        let mut db = Database::new();
        db.insert("R", Relation::from_rows(2, vec![[1, 2], [1, 3]]));
        db.insert("S", Relation::from_rows(2, vec![[2, 5], [3, 5]]));
        assert_eq!(count_assignments(&q, &db), 2);
    }

    #[test]
    fn min_weight_path() {
        // Weight of an edge (a,b) is a+b; cheapest 2-path in path_db is
        // 1→2→5 with weight (1+2)+(2+5) = 10.
        let q = parse_query("Q() :- R(A,B), S(B,C)").unwrap();
        let w = |_: &str, row: &[Value]| (row[0] + row[1]) as i64;
        assert_eq!(min_weight(&q, &path_db(), &w), Some(10));
        // Unsatisfiable instance.
        let mut db = path_db();
        db.insert("S", Relation::from_rows(2, vec![[99, 1]]));
        assert_eq!(min_weight(&q, &db, &w), None);
        assert!(!is_satisfiable(&q, &db));
    }

    #[test]
    fn min_weight_four_cycle_matches_brute_force() {
        let q = parse_query("Q() :- R(X,Y), S(Y,Z), T(Z,W), U(W,X)").unwrap();
        let mut rng = StdRng::seed_from_u64(23);
        let mut db = Database::new();
        for name in ["R", "S", "T", "U"] {
            db.insert(
                name,
                Relation::from_rows(
                    2,
                    (0..30).map(|_| [rng.gen_range(0..5u64), rng.gen_range(0..5u64)]),
                )
                .deduped(),
            );
        }
        let w = |_: &str, row: &[Value]| (2 * row[0] + 3 * row[1]) as i64;
        let fast = min_weight(&q, &db, &w);
        // Brute force over the full join.
        let full = GenericJoin::evaluate(&q.with_free(q.all_vars()), &db);
        let brute = full
            .rel
            .iter()
            .map(|row| {
                // row order: X,Y,Z,W
                let (x, y, z, wv) = (row[0], row[1], row[2], row[3]);
                w("R", &[x, y]) + w("S", &[y, z]) + w("T", &[z, wv]) + w("U", &[wv, x])
            })
            .min();
        assert_eq!(fast, brute);
    }

    #[test]
    fn duplicate_rows_count_once() {
        let mut db = Database::new();
        db.insert("R", Relation::from_rows(2, vec![[1, 2], [1, 2], [2, 3], [3, 1]]));
        for (body, distinct) in [
            ("Q() :- R(A,B)", 3),
            ("Q() :- R(A,B), R(B,C)", 3),
            ("Q() :- R(A,B), R(B,C), R(C,A)", 3),
        ] {
            assert_eq!(count_assignments(&parse_query(body).unwrap(), &db), distinct, "{body}");
        }
    }

    /// `⊕` over the rows of the full join of `⊗` over the atoms'
    /// annotations, each atom's tuple looked up by variable.
    fn brute_force<S: Semiring>(
        q: &ConjunctiveQuery,
        db: &Database,
        annotate: &AnnotationFn<'_, S>,
    ) -> S::Elem {
        let full = GenericJoin::evaluate(&q.with_free(q.all_vars()), db);
        full.rel.iter().fold(S::zero(), |total, row| {
            let product = q.atoms().iter().fold(S::one(), |product, atom| {
                let tuple: Vec<Value> =
                    atom.vars.iter().map(|v| row[full.column_of(*v).unwrap()]).collect();
                S::mul(&product, &annotate(&atom.relation, &tuple))
            });
            S::add(&total, &product)
        })
    }

    #[test]
    fn join_tree_messages_match_brute_force() {
        let bodies = [
            "Q() :- R(A,B), S(B,C), T(C,D)",
            "Q() :- R(A,B), S(A,C), T(A,D)",
            "Q() :- W(A,B,C), R(A,D), S(C,E)",
            "Q() :- R(A,B), R(B,C)",
            "Q() :- R(A,B), S(B,C), S(C,C)",
            "Q() :- R(A,B), S(C,D)",
        ];
        let weight = |rel: &str, t: &[Value]| {
            t.iter().enumerate().map(|(i, &v)| (i as i64 + 2) * v as i64).sum::<i64>()
                + rel.len() as i64
        };
        let sat = |_: &str, t: &[Value]| t.iter().sum::<Value>() % 3 != 0;
        for body in bodies {
            let q = parse_query(body).unwrap();
            let schemas: Vec<VarSet> = q.atoms().iter().map(panda_query::Atom::var_set).collect();
            assert!(join_tree_of(&schemas).is_some(), "{body} is acyclic");
            for seed in 0..20 {
                // Values in 0..4 and no dedup: duplicate rows occur.
                let mut rng = StdRng::seed_from_u64(seed);
                let mut db = Database::new();
                for atom in q.atoms() {
                    let rows = (0..12).map(|_| {
                        (0..atom.arity()).map(|_| rng.gen_range(0..4u64)).collect::<Vec<_>>()
                    });
                    db.insert(atom.relation.clone(), Relation::from_rows(atom.arity(), rows));
                }
                let ctx = format!("{body}, seed {seed}");
                let one = |_: &str, _: &[Value]| 1;
                assert_eq!(
                    count_assignments(&q, &db),
                    brute_force::<CountingSemiring>(&q, &db, &one),
                    "{ctx}"
                );
                assert_eq!(
                    faq_total::<MinPlusSemiring>(&q, &db, &weight),
                    brute_force::<MinPlusSemiring>(&q, &db, &weight),
                    "{ctx}"
                );
                assert_eq!(
                    faq_total::<BoolSemiring>(&q, &db, &sat),
                    brute_force::<BoolSemiring>(&q, &db, &sat),
                    "{ctx}"
                );
            }
        }
    }

    #[test]
    fn empty_input_counts_zero() {
        let q = parse_query("Q() :- R(A,B), S(B,C)").unwrap();
        let mut db = Database::new();
        db.insert("R", Relation::new(2));
        db.insert("S", Relation::new(2));
        assert_eq!(count_assignments(&q, &db), 0);
        assert!(!is_satisfiable(&q, &db));
    }
}
