//! Tree decompositions: validity, free-connexity and enumeration.
//!
//! A tree decomposition (TD) of a CQ is specified by its set of *bags*
//! (Section 3.4): the bags must form an acyclic hypergraph and every atom
//! must be contained in some bag.  A TD is *free-connex* if adding an extra
//! hyperedge over the free variables keeps the bag hypergraph acyclic; the
//! set `TD(Q)` used by the paper consists of the free-connex TDs only,
//! because those are the ones whose final Yannakakis pass runs in
//! `O(max_B |Q_B| + |Q(F)|)`.
//!
//! [`TreeDecomposition::enumerate`] produces the non-redundant free-connex
//! TDs of a query by running every variable-elimination order, removing
//! contained bags, and pruning dominated decompositions.  For the paper's
//! 4-cycle query this yields exactly the two decompositions of Figure 1.

// panda-lint: allow-file(P1) -- bag and node indices are produced by
// this module's own enumeration; a miss would be an enumeration bug,
// not an input condition.

use std::collections::BTreeSet;

use crate::cq::ConjunctiveQuery;
use crate::hypergraph::{is_acyclic, join_tree_of, Hypergraph, JoinTree};
use crate::var::{Var, VarSet};

/// Practical limit on the number of variables for exhaustive
/// elimination-order enumeration (`9! = 362 880` orders).
pub const MAX_ENUMERATION_VARS: usize = 9;

/// A tree decomposition, represented by its bags.
///
/// The tree structure itself is recoverable from the bags (they form an
/// acyclic hypergraph) via [`TreeDecomposition::join_tree`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TreeDecomposition {
    bags: Vec<VarSet>,
}

impl TreeDecomposition {
    /// Creates a TD from bags, removing duplicate and contained bags and
    /// sorting them into a canonical order.
    #[must_use]
    pub fn new(bags: Vec<VarSet>) -> Self {
        let mut bags = bags;
        bags.sort_unstable();
        bags.dedup();
        // Remove bags contained in other bags (they are redundant).
        let reduced: Vec<VarSet> = bags
            .iter()
            .copied()
            .filter(|b| !bags.iter().any(|other| *b != *other && b.is_subset_of(*other)))
            .collect();
        let mut bags = reduced;
        bags.sort_unstable();
        TreeDecomposition { bags }
    }

    /// The bags.
    #[must_use]
    pub fn bags(&self) -> &[VarSet] {
        &self.bags
    }

    /// Number of bags.
    #[must_use]
    pub fn num_bags(&self) -> usize {
        self.bags.len()
    }

    /// The union of all bags.
    #[must_use]
    pub fn vertices(&self) -> VarSet {
        self.bags.iter().fold(VarSet::EMPTY, |acc, b| acc.union(*b))
    }

    /// `true` iff this is a valid TD of `query`: the bags cover every atom,
    /// cover every variable, and form an acyclic hypergraph.
    #[must_use]
    pub fn is_valid_for(&self, query: &ConjunctiveQuery) -> bool {
        let covers_atoms =
            query.edges().iter().all(|e| self.bags.iter().any(|b| e.is_subset_of(*b)));
        covers_atoms && self.vertices() == query.all_vars() && is_acyclic(&self.bags)
    }

    /// `true` iff the TD is free-connex with respect to the free variables
    /// `free`: the bag hypergraph stays acyclic after adding an edge over
    /// `free` (Section 3.4).
    #[must_use]
    pub fn is_free_connex(&self, free: VarSet) -> bool {
        let mut edges = self.bags.clone();
        edges.push(free);
        is_acyclic(&edges)
    }

    /// A join tree over the bags (always succeeds for a valid TD).
    #[must_use]
    pub fn join_tree(&self) -> Option<JoinTree> {
        join_tree_of(&self.bags)
    }

    /// `true` iff every bag of `self` is contained in some bag of `other`.
    /// In that case `self` is at least as cheap as `other` for every
    /// monotone cost function, so `other` is redundant for width
    /// computations.
    #[must_use]
    pub fn dominates(&self, other: &TreeDecomposition) -> bool {
        self.bags.iter().all(|b| other.bags.iter().any(|ob| b.is_subset_of(*ob)))
    }

    /// Builds the TD induced by a variable elimination order: eliminating
    /// `v` creates the bag `{v} ∪ neighbours(v)` in the current hypergraph
    /// and merges the edges containing `v` (Section 9.3 mentions the
    /// equivalence of variable elimination and tree decompositions).
    #[must_use]
    pub fn from_elimination_order(query: &ConjunctiveQuery, order: &[Var]) -> Self {
        let mut h = Hypergraph::new(query.num_vars(), query.edges());
        let mut bags = Vec::with_capacity(order.len());
        for &v in order {
            bags.push(h.eliminate(v));
        }
        TreeDecomposition::new(bags)
    }

    /// Enumerates the non-redundant free-connex tree decompositions of a
    /// query — the paper's `TD(Q)` — by trying every elimination order,
    /// deduplicating, filtering on validity and free-connexity, and pruning
    /// decompositions dominated by another one.
    ///
    /// # Panics
    ///
    /// Panics if the query has more than [`MAX_ENUMERATION_VARS`] variables;
    /// for larger queries supply decompositions explicitly.
    #[must_use]
    pub fn enumerate(query: &ConjunctiveQuery) -> Vec<TreeDecomposition> {
        assert!(
            query.num_vars() <= MAX_ENUMERATION_VARS,
            "exhaustive TD enumeration is limited to {MAX_ENUMERATION_VARS} variables"
        );
        let mut order: Vec<Var> = query.all_vars().to_vec();
        // Candidates keep their first-seen order; the set only answers
        // membership, in O(log n) where a scan of the list took O(n).
        let mut candidates: Vec<TreeDecomposition> = Vec::new();
        let mut seen: BTreeSet<TreeDecomposition> = BTreeSet::new();
        permute(&mut order, 0, &mut |perm| {
            let td = TreeDecomposition::from_elimination_order(query, perm);
            if !seen.contains(&td) {
                seen.insert(td.clone());
                candidates.push(td);
            }
        });
        candidates.retain(|td| td.is_valid_for(query) && td.is_free_connex(query.free_vars()));
        // Prune dominated TDs: drop T' if some other T (not equal) dominates it.
        let mut keep = vec![true; candidates.len()];
        for i in 0..candidates.len() {
            if !keep[i] {
                continue;
            }
            for j in 0..candidates.len() {
                if i != j
                    && keep[j]
                    && candidates[i].dominates(&candidates[j])
                    && candidates[i] != candidates[j]
                {
                    keep[j] = false;
                }
            }
        }
        let mut result: Vec<TreeDecomposition> = candidates
            .into_iter()
            .zip(keep)
            .filter_map(|(td, k)| if k { Some(td) } else { None })
            .collect();
        result.sort();
        result
    }

    /// Pretty-prints the bags using the query's variable names.
    #[must_use]
    pub fn display_with(&self, query: &ConjunctiveQuery) -> String {
        let parts: Vec<String> =
            self.bags.iter().map(|b| b.display_with(query.var_names())).collect();
        format!("[{}]", parts.join(", "))
    }
}

/// Heap-style recursive permutation enumeration.
fn permute<F: FnMut(&[Var])>(items: &mut [Var], k: usize, visit: &mut F) {
    if k == items.len() {
        visit(items);
        return;
    }
    for i in k..items.len() {
        items.swap(k, i);
        permute(items, k + 1, visit);
        items.swap(k, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    fn vs(vars: &[u32]) -> VarSet {
        vars.iter().map(|&v| Var(v)).collect()
    }

    fn four_cycle() -> ConjunctiveQuery {
        parse_query("Q(X,Y) :- R(X,Y), S(Y,Z), T(Z,W), U(W,X)").unwrap()
    }

    #[test]
    fn figure1_the_four_cycle_has_exactly_two_free_connex_tds() {
        // Reproduces Figure 1 of the paper: TD(Q□) = {T1, T2} with
        // bags(T1) = {XYZ, ZWX} and bags(T2) = {YZW, WXY}.
        let q = four_cycle();
        let tds = TreeDecomposition::enumerate(&q);
        assert_eq!(tds.len(), 2, "expected exactly the two TDs of Figure 1");
        let t1 = TreeDecomposition::new(vec![vs(&[0, 1, 2]), vs(&[2, 3, 0])]);
        let t2 = TreeDecomposition::new(vec![vs(&[1, 2, 3]), vs(&[3, 0, 1])]);
        assert!(tds.contains(&t1));
        assert!(tds.contains(&t2));
    }

    #[test]
    fn boolean_four_cycle_has_the_same_tds() {
        let q = parse_query("Q() :- R(X,Y), S(Y,Z), T(Z,W), U(W,X)").unwrap();
        let tds = TreeDecomposition::enumerate(&q);
        assert_eq!(tds.len(), 2);
    }

    #[test]
    fn construction_removes_contained_bags() {
        let td = TreeDecomposition::new(vec![vs(&[0, 1, 2]), vs(&[0, 1]), vs(&[0, 1, 2])]);
        assert_eq!(td.bags(), &[vs(&[0, 1, 2])]);
        assert_eq!(td.num_bags(), 1);
    }

    #[test]
    fn validity_checks() {
        let q = four_cycle();
        let t1 = TreeDecomposition::new(vec![vs(&[0, 1, 2]), vs(&[2, 3, 0])]);
        assert!(t1.is_valid_for(&q));
        // Missing coverage of atom U(W,X):
        let bad = TreeDecomposition::new(vec![vs(&[0, 1, 2]), vs(&[2, 3])]);
        assert!(!bad.is_valid_for(&q));
        // Cyclic bag structure is not a TD:
        let cyclic =
            TreeDecomposition::new(vec![vs(&[0, 1]), vs(&[1, 2]), vs(&[2, 3]), vs(&[3, 0])]);
        assert!(!cyclic.is_valid_for(&q));
        // Trivial TD is always valid.
        let trivial = TreeDecomposition::new(vec![q.all_vars()]);
        assert!(trivial.is_valid_for(&q));
    }

    #[test]
    fn free_connex_checks_match_the_paper() {
        // T1 and T2 are free-connex for F = {X,Y}; the decomposition with
        // bags {XZ},{YZ} of the 2-path query is not (Section 3.4).
        let t1 = TreeDecomposition::new(vec![vs(&[0, 1, 2]), vs(&[2, 3, 0])]);
        assert!(t1.is_free_connex(vs(&[0, 1])));
        assert!(t1.is_free_connex(VarSet::EMPTY));
        assert!(t1.is_free_connex(vs(&[0, 1, 2, 3])));
        let bad = TreeDecomposition::new(vec![vs(&[0, 2]), vs(&[1, 2])]);
        assert!(!bad.is_free_connex(vs(&[0, 1])));
        assert!(bad.is_free_connex(VarSet::EMPTY));
    }

    #[test]
    fn projection_query_prunes_non_free_connex_tds() {
        // Q(X,Y) :- R(X,Z), S(Z,Y): the decomposition {XZ},{ZY} is a valid
        // TD but not free-connex; only the trivial one survives.
        let q = parse_query("Q(X,Y) :- R(X,Z), S(Z,Y)").unwrap();
        let tds = TreeDecomposition::enumerate(&q);
        assert_eq!(tds.len(), 1);
        assert_eq!(tds[0].bags(), &[q.all_vars()]);
        // The full version keeps the cheaper 2-bag TD instead.
        let q_full = parse_query("Q(X,Z,Y) :- R(X,Z), S(Z,Y)").unwrap();
        let tds_full = TreeDecomposition::enumerate(&q_full);
        assert_eq!(tds_full.len(), 1);
        assert_eq!(tds_full[0].num_bags(), 2);
    }

    #[test]
    fn triangle_query_has_only_the_trivial_td() {
        let q = parse_query("Tri(A,B,C) :- R(A,B), S(B,C), T(A,C)").unwrap();
        let tds = TreeDecomposition::enumerate(&q);
        assert_eq!(tds.len(), 1);
        assert_eq!(tds[0].bags(), &[q.all_vars()]);
    }

    #[test]
    fn acyclic_query_has_its_join_tree_as_a_td() {
        let q = parse_query("Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D)").unwrap();
        let tds = TreeDecomposition::enumerate(&q);
        // The path query's own edges form the best TD.
        assert!(tds.iter().any(|td| td.bags() == [vs(&[0, 1]), vs(&[1, 2]), vs(&[2, 3])]));
        for td in &tds {
            assert!(td.is_valid_for(&q));
            assert!(td.join_tree().is_some());
        }
    }

    #[test]
    fn domination_is_reflexive_and_detects_refinement() {
        let small = TreeDecomposition::new(vec![vs(&[0, 1]), vs(&[1, 2])]);
        let big = TreeDecomposition::new(vec![vs(&[0, 1, 2])]);
        assert!(small.dominates(&big));
        assert!(!big.dominates(&small));
        assert!(small.dominates(&small));
    }

    #[test]
    fn elimination_order_yields_figure1_td() {
        let q = four_cycle();
        // Eliminate Y first, then Z, W, X ⇒ bags {XYZ}, {XZW}, … reduced to T1.
        let td = TreeDecomposition::from_elimination_order(&q, &[Var(1), Var(2), Var(3), Var(0)]);
        assert_eq!(td.bags(), &[vs(&[0, 1, 2]), vs(&[2, 3, 0])]);
        // Eliminate X first ⇒ T2.
        let td2 = TreeDecomposition::from_elimination_order(&q, &[Var(0), Var(1), Var(2), Var(3)]);
        assert_eq!(td2.bags(), &[vs(&[3, 0, 1]), vs(&[1, 2, 3])]);
    }

    /// Every triangulation of the convex polygon `lo, lo + 1, …, hi`, as
    /// triangle lists.
    fn triangulations(lo: u32, hi: u32) -> Vec<Vec<VarSet>> {
        if hi - lo < 2 {
            return vec![Vec::new()];
        }
        let mut all = Vec::new();
        for apex in lo + 1..hi {
            for left in triangulations(lo, apex) {
                for right in triangulations(apex, hi) {
                    let mut bags = vec![vs(&[lo, apex, hi])];
                    bags.extend(left.iter().chain(&right));
                    all.push(bags);
                }
            }
        }
        all
    }

    #[test]
    fn the_tds_of_a_boolean_cycle_are_its_triangulations_in_order() {
        // The n-cycle's decompositions are the Catalan(n − 2) triangulations
        // of the n-gon, one triangle per bag, returned in sorted order.
        for (n, count) in [(6u32, 14), (7, 42)] {
            let body: Vec<String> =
                (0..n).map(|i| format!("R{i}(V{i},V{})", (i + 1) % n)).collect();
            let q = parse_query(&format!("Q() :- {}", body.join(", "))).unwrap();
            let mut expected: Vec<TreeDecomposition> =
                triangulations(0, n - 1).into_iter().map(TreeDecomposition::new).collect();
            expected.sort();
            assert_eq!(expected.len(), count);
            assert_eq!(TreeDecomposition::enumerate(&q), expected, "{n}-cycle");
        }
    }

    #[test]
    fn display_uses_variable_names() {
        let q = four_cycle();
        let t1 = TreeDecomposition::new(vec![vs(&[0, 1, 2]), vs(&[2, 3, 0])]);
        assert_eq!(t1.display_with(&q), "[{X,Y,Z}, {X,Z,W}]");
    }
}
