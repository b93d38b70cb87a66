//! The paper's own queries, instances and statistics.

use panda_entropy::StatisticsSet;
use panda_query::{parse_query, ConjunctiveQuery, VarSet};
use panda_relation::{Database, Relation};

/// The projected 4-cycle query `Q□(X,Y)` of Eq. (2).
#[must_use]
pub fn four_cycle_projected() -> ConjunctiveQuery {
    parse_query("Q(X,Y) :- R(X,Y), S(Y,Z), T(Z,W), U(W,X)").expect("valid query")
}

/// The full 4-cycle query `Q□^full(X,Y,Z,W)` of Eq. (1).
#[must_use]
pub fn four_cycle_full() -> ConjunctiveQuery {
    parse_query("Qfull(X,Y,Z,W) :- R(X,Y), S(Y,Z), T(Z,W), U(W,X)").expect("valid query")
}

/// The Boolean 4-cycle query `Q□^bool()` of Eq. (76).
#[must_use]
pub fn four_cycle_boolean() -> ConjunctiveQuery {
    parse_query("Qbool() :- R(X,Y), S(Y,Z), T(Z,W), U(W,X)").expect("valid query")
}

/// The triangle query used throughout Section 2 (AGM bound, worst-case
/// optimal joins).
#[must_use]
pub fn triangle_query() -> ConjunctiveQuery {
    parse_query("Tri(A,B,C) :- R(A,B), S(B,C), T(A,C)").expect("valid query")
}

/// The projected 5-cycle query `Q⬠(A,B)` — the natural next instance in the
/// cycle family of Eq. (2).  With five variables its polymatroid LPs have
/// `2⁵ − 1 = 31` entropy variables and ~100 elemental rows, an order of
/// magnitude past the 4-cycle, which makes it the workspace's reference
/// workload for LP-solver performance (`subw` enumerates the 21 minimal
/// transversals of its 5 TDs' bag sets (Eq. 41), each one a Γ₅ LP).
#[must_use]
pub fn five_cycle_projected() -> ConjunctiveQuery {
    parse_query("Q(A,B) :- R(A,B), S(B,C), T(C,D), U(D,E), V(E,A)").expect("valid query")
}

/// The identical-cardinality statistics for the 5-cycle (the `S□` analogue
/// of Eq. (23) with five relations of size `n`).
#[must_use]
pub fn s_pentagon_statistics(n: u64) -> StatisticsSet {
    StatisticsSet::identical_cardinalities(&five_cycle_projected(), n)
}

/// The non-free-connex 2-path projection `Q(X,Y) :- R(X,Z), S(Z,Y)`
/// (Section 3.4's contrast case).
#[must_use]
pub fn two_path_projected() -> ConjunctiveQuery {
    parse_query("Q(X,Y) :- R(X,Z), S(Z,Y)").expect("valid query")
}

/// The example database instance of Figure 2 (page 8):
///
/// ```text
/// R = {(1,p),(1,q),(2,p)}   S = {(p,3),(q,4),(q,5)}
/// T = {(3,i),(5,i),(5,j)}   U = {(i,1),(j,1),(k,2)}
/// ```
///
/// Letters are encoded as `p,q = 101,102`, `i,j,k = 201,202,203`.  The
/// output of `Q□^full` on this instance is exactly the three tuples shown
/// in the figure: `(1,p,3,i)`, `(1,q,5,i)`, `(1,q,5,j)`.
#[must_use]
pub fn figure2_db() -> Database {
    let (p, q) = (101u64, 102u64);
    let (i, j, k) = (201u64, 202u64, 203u64);
    let mut db = Database::new();
    db.insert("R", Relation::from_rows(2, vec![[1, p], [1, q], [2, p]]));
    db.insert("S", Relation::from_rows(2, vec![[p, 3], [q, 4], [q, 5]]));
    db.insert("T", Relation::from_rows(2, vec![[3, i], [5, i], [5, j]]));
    db.insert("U", Relation::from_rows(2, vec![[i, 1], [j, 1], [k, 2]]));
    db
}

/// The expected output of `Q□^full` on [`figure2_db`] (Figure 2, right).
#[must_use]
pub fn figure2_expected_output() -> Vec<Vec<u64>> {
    let (p, q) = (101u64, 102u64);
    let (i, j) = (201u64, 202u64);
    let mut rows = vec![vec![1, p, 3, i], vec![1, q, 5, i], vec![1, q, 5, j]];
    rows.sort();
    rows
}

/// The identical-cardinality statistics `S□` of Eq. (23) for a 4-cycle
/// query whose four relations all have size `n`.
#[must_use]
pub fn s_square_statistics(n: u64) -> StatisticsSet {
    StatisticsSet::identical_cardinalities(&four_cycle_projected(), n)
}

/// The statistics `S□^full` of Eq. (16): all four relations have size `n`,
/// `U` has the functional dependency `W → X`, and `deg_U(W|X) ≤ c`.
#[must_use]
pub fn s_full_statistics(n: u64, c: u64) -> StatisticsSet {
    let q = four_cycle_full();
    let x = q.var_by_name("X").expect("X");
    let w = q.var_by_name("W").expect("W");
    let mut stats = StatisticsSet::identical_cardinalities(&q, n);
    stats.add_functional_dependency("U", VarSet::singleton(w), VarSet::singleton(x));
    stats.add_degree("U", VarSet::singleton(x), VarSet::singleton(w), c);
    stats
}

/// The fhtw-hard "double star" instance of Section 5.1:
/// `R = S = T = U = ([n/2] × {1}) ∪ ({1} × [n/2])`.
///
/// On this instance every single-TD plan materialises an intermediate of
/// size Ω(n²/4), while the adaptive plan (and the DDR of Eq. 38) needs only
/// `O(n^{3/2})`.
#[must_use]
pub fn double_star_db(half: u64) -> Database {
    let mut rel = Relation::new(2);
    for i in 0..half {
        rel.push_row(&[i + 2, 1]);
        rel.push_row(&[1, i + 2]);
    }
    let rel = rel.deduped();
    let mut db = Database::new();
    for name in ["R", "S", "T", "U"] {
        db.insert(name, rel.clone());
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure2_instance_has_the_papers_shape() {
        let db = figure2_db();
        assert_eq!(db.num_relations(), 4);
        for name in ["R", "S", "T", "U"] {
            assert_eq!(db.relation(name).unwrap().len(), 3, "|{name}| = 3 in Figure 2");
        }
        assert_eq!(db.total_tuples(), 12);
        assert_eq!(figure2_expected_output().len(), 3);
    }

    #[test]
    fn paper_queries_have_the_documented_shapes() {
        assert!(four_cycle_full().is_full());
        assert!(four_cycle_boolean().is_boolean());
        let q = four_cycle_projected();
        assert_eq!(q.free_vars().len(), 2);
        assert_eq!(q.atoms().len(), 4);
        assert_eq!(triangle_query().num_vars(), 3);
        assert!(!two_path_projected().is_full());
    }

    #[test]
    fn s_full_statistics_encode_eq16() {
        let stats = s_full_statistics(10_000, 100);
        assert_eq!(stats.len(), 6);
        assert_eq!(stats.base(), 10_000);
        // the FD has log value 0 and the degree bound 100 = √N has ½.
        assert!(stats.stats().iter().any(|s| s.count == 1));
        assert!(stats
            .stats()
            .iter()
            .any(|s| s.count == 100 && s.log_value == panda_rational::Rat::new(1, 2)));
    }

    #[test]
    fn double_star_is_symmetric_and_skewed() {
        let db = double_star_db(10);
        let r = db.relation("R").unwrap();
        assert_eq!(r.len(), 20);
        // vertex 1 has out-degree 10 and in-degree 10; everyone else degree 1.
        let deg1 = panda_relation::stats::max_degree(r, &[0], &[1]);
        assert_eq!(deg1, 10);
    }
}
