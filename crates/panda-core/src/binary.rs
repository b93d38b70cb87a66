//! A textbook binary-join baseline.
//!
//! This is the "classical query plan" the paper contrasts PANDA against: a
//! greedy left-deep sequence of pairwise joins with projection
//! push-down.  It has no worst-case guarantees — on cyclic queries or
//! skewed data its intermediate results can be quadratically larger than
//! both the AGM bound and the submodular-width bound, which is exactly what
//! experiment E8 measures.
//!
//! It runs on the calling thread whatever the request's engine: a parallel
//! engine's threads belong to the plans it is the baseline for.

use panda_query::{ConjunctiveQuery, Var, VarSet};
use panda_relation::Database;

use crate::binding::VarRelation;
use crate::yannakakis::empty_result;

/// A greedy left-deep binary-join plan.  Intermediate results are
/// projected onto the variables still needed (free variables plus join
/// variables of the remaining atoms) after every join.
#[derive(Debug, Clone, Default)]
pub struct BinaryJoinPlan;

impl BinaryJoinPlan {
    /// Creates the plan.
    #[must_use]
    pub fn new() -> Self {
        BinaryJoinPlan
    }

    /// Evaluates the query with greedy pairwise joins over its atoms: start
    /// from the smallest relation and, at every step, join the smallest
    /// remaining one that shares a variable with the result so far.
    #[must_use]
    pub fn evaluate(&self, query: &ConjunctiveQuery, db: &Database) -> VarRelation {
        left_deep_join(VarRelation::bind_all(query, db), query.free_vars())
    }
}

/// The greedy left-deep join: start from the smallest relation; at every
/// step join the smallest remaining relation that shares a variable with
/// the accumulator (the smallest of all when none does), then project onto
/// the free variables plus the variables the remaining relations still
/// need.  Also the fallback combination of bag relations whose schema is
/// cyclic (no free-connex join tree for Yannakakis).
pub(crate) fn left_deep_join(mut remaining: Vec<VarRelation>, free: VarSet) -> VarRelation {
    if remaining.iter().any(VarRelation::is_empty) {
        return empty_result(free);
    }
    if remaining.is_empty() {
        return VarRelation::boolean(true);
    }
    remaining.sort_by_key(VarRelation::len);
    let mut acc = remaining.remove(0);
    while !remaining.is_empty() {
        let pos = remaining
            .iter()
            .position(|r| !r.var_set().intersect(acc.var_set()).is_empty())
            .unwrap_or(0);
        let next = remaining.remove(pos);
        acc = acc.natural_join(&next);
        let needed: VarSet = remaining.iter().fold(free, |acc_set, r| acc_set.union(r.var_set()));
        acc = acc.project_to_set(acc.var_set().intersect(needed));
    }
    let order: Vec<Var> = free.to_vec();
    acc.project_onto(&order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generic_join::GenericJoin;
    use panda_query::parse_query;
    use panda_relation::Relation;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_db(names: &[&str], n: u64, edges: usize, seed: u64) -> Database {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut db = Database::new();
        for name in names {
            let rel = Relation::from_rows(
                2,
                (0..edges).map(|_| [rng.gen_range(0..n), rng.gen_range(0..n)]),
            )
            .deduped();
            db.insert(*name, rel);
        }
        db
    }

    #[test]
    fn binary_plan_agrees_with_wcoj_on_cyclic_and_acyclic_queries() {
        let queries = [
            "Q(X,Y) :- R(X,Y), S(Y,Z), T(Z,W), U(W,X)",
            "Q(A,B,C) :- R(A,B), S(B,C)",
            "Tri(A,B,C) :- R(A,B), S(B,C), T(A,C)",
            "Q() :- R(A,B), S(B,C), T(C,A)",
        ];
        for (i, text) in queries.iter().enumerate() {
            let q = parse_query(text).unwrap();
            let db = random_db(&["R", "S", "T", "U"], 9, 50, i as u64);
            let expected = GenericJoin::evaluate(&q, &db);
            let got = BinaryJoinPlan::new().evaluate(&q, &db);
            let order: Vec<Var> = q.free_vars().to_vec();
            assert_eq!(
                got.canonical_rows_ordered(&order),
                expected.canonical_rows_ordered(&order),
                "query {text}"
            );
        }
    }

    #[test]
    fn empty_input_short_circuits() {
        let q = parse_query("Q(X,Y) :- R(X,Y), S(Y,Z)").unwrap();
        let mut db = Database::new();
        db.insert("R", Relation::from_rows(2, vec![[1, 2]]));
        db.insert("S", Relation::new(2));
        assert!(BinaryJoinPlan::new().evaluate(&q, &db).is_empty());
    }

    #[test]
    fn disconnected_queries_fall_back_to_products() {
        let q = parse_query("Q(A,B) :- R(A), S(B)").unwrap();
        let mut db = Database::new();
        db.insert("R", Relation::from_rows(1, vec![[1], [2]]));
        db.insert("S", Relation::from_rows(1, vec![[5], [6], [7]]));
        assert_eq!(BinaryJoinPlan::new().evaluate(&q, &db).len(), 6);
    }

    #[test]
    fn left_deep_join_fallback_is_correct() {
        let a =
            VarRelation::new(vec![Var(0), Var(1)], Relation::from_rows(2, vec![[1, 2], [3, 4]]));
        let b =
            VarRelation::new(vec![Var(1), Var(2)], Relation::from_rows(2, vec![[2, 5], [4, 6]]));
        let c = VarRelation::new(vec![Var(2), Var(0)], Relation::from_rows(2, vec![[5, 1]]));
        let out = left_deep_join(vec![a, b, c], VarSet::from_iter([Var(0), Var(2)]));
        assert_eq!(out.rel.canonical_rows(), vec![vec![1, 5]]);
    }
}
