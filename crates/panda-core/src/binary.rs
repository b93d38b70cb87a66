//! A textbook binary-join baseline.
//!
//! This is the "classical query plan" the paper contrasts PANDA against: a
//! greedy left-deep sequence of pairwise hash joins with projection
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

    /// Evaluates the query with greedy pairwise joins: start from the
    /// smallest relation; at every step join with the connected relation
    /// that minimises the estimated intermediate size (estimated as
    /// `|acc| · max-degree of the new attributes`).
    #[must_use]
    pub fn evaluate(&self, query: &ConjunctiveQuery, db: &Database) -> VarRelation {
        let mut remaining = VarRelation::bind_all(query, db);
        if remaining.iter().any(VarRelation::is_empty) {
            return empty_result(query.free_vars());
        }
        if remaining.is_empty() {
            return VarRelation::boolean(true);
        }
        remaining.sort_by_key(VarRelation::len);
        let mut acc = remaining.remove(0);
        while !remaining.is_empty() {
            // Prefer a connected relation; among those, the smallest.
            // panda-lint: allow(P1) -- `i` ranges over `0..remaining.len()`
            // with no mutation until the loop below picks one element.
            let connected: Vec<usize> = (0..remaining.len())
                .filter(|&i| !remaining[i].var_set().intersect(acc.var_set()).is_empty())
                .collect();
            // panda-lint: allow(P1) -- `connected` holds indices into the
            // still-untouched `remaining` vector.
            let pick = connected.into_iter().min_by_key(|&i| remaining[i].len()).unwrap_or(0);
            let next = remaining.remove(pick);
            acc = acc.natural_join(&next);
            let needed: VarSet =
                remaining.iter().fold(query.free_vars(), |acc_set, r| acc_set.union(r.var_set()));
            acc = acc.project_to_set(acc.var_set().intersect(needed));
        }
        let order: Vec<Var> = query.free_vars().to_vec();
        acc.project_onto(&order)
    }
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
}
