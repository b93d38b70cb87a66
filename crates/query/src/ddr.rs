//! Disjunctive datalog rules and bag selectors (Section 5.1).
//!
//! An adaptive query plan commits to a *set* of tree decompositions and
//! asks, for every tuple satisfying the body, that at least one TD's bags
//! cover it (rule 28 of the paper).  Rewriting the disjunction-of-
//! conjunctions head into a conjunction-of-disjunctions (Eq. 32) yields one
//! *disjunctive datalog rule* (DDR) per *bag selector* — a choice of one
//! bag from every TD (Eq. 34).  Each DDR is costed by the polymatroid bound
//! of Theorem 5.1, and the maximum over bag selectors is the submodular
//! width (Eq. 41).  A selector that contains another has the lower bound,
//! so only the *minimal transversals* of the TDs' bag sets are enumerated.

use crate::cq::{Atom, ConjunctiveQuery};
use crate::td::TreeDecomposition;
use crate::var::VarSet;

/// A bag selector: a set of bags that hits every tree decomposition of the
/// adaptive plan — one bag chosen from each, each distinct bag kept once
/// (choosing the same bag from two TDs yields the same disjunct twice).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BagSelector {
    bags: Vec<VarSet>,
}

impl BagSelector {
    /// Creates a selector from the chosen bags (deduplicated, sorted).
    #[must_use]
    pub fn new(mut bags: Vec<VarSet>) -> Self {
        bags.sort_unstable();
        bags.dedup();
        BagSelector { bags }
    }

    /// The distinct bags of the selector.
    #[must_use]
    pub fn bags(&self) -> &[VarSet] {
        &self.bags
    }

    /// Number of distinct bags.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bags.len()
    }

    /// `true` iff the selector is empty (only possible with no TDs).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bags.is_empty()
    }

    /// Enumerates the bag selectors that can attain `subw` (Eq. 41): the
    /// *minimal transversals* of the hypergraph whose edges are the given
    /// tree decompositions' bag sets, sorted.  Any other selector of
    /// `BS(Q)` contains one of these, and adding a bag to a selector can
    /// only lower its bound `max_h min_{B ∈ S} h(B)`; likewise a model of
    /// the DDR of a minimal selector is a model of every superset's DDR.
    ///
    /// Berge's algorithm takes one decomposition at a time.  A minimal
    /// transversal of the decompositions seen so far that already hits the
    /// next one stays as it is; one that misses it is extended by each of
    /// its bags, and an extension is kept only if every bag still has a
    /// private decomposition — one that no other bag of the extension
    /// hits.  No transversal is generated twice.
    #[must_use]
    pub fn enumerate(tds: &[TreeDecomposition]) -> Vec<BagSelector> {
        if tds.is_empty() {
            return Vec::new();
        }
        let mut seen: Vec<&[VarSet]> = Vec::with_capacity(tds.len());
        let mut minimal: Vec<Vec<VarSet>> = vec![Vec::new()];
        for td in tds {
            let edge = td.bags();
            let mut next = Vec::with_capacity(minimal.len());
            for partial in minimal {
                if partial.iter().any(|bag| edge.contains(bag)) {
                    next.push(partial);
                    continue;
                }
                for &bag in edge {
                    // `bag` alone hits `edge`; every bag before it needs a
                    // private edge among those seen, one `bag` misses.
                    let stays_minimal = partial.iter().all(|&kept| {
                        seen.iter().any(|earlier| {
                            earlier.contains(&kept)
                                && !earlier.contains(&bag)
                                && partial.iter().filter(|b| earlier.contains(b)).count() == 1
                        })
                    });
                    if stays_minimal {
                        let mut extended = partial.clone();
                        extended.push(bag);
                        next.push(extended);
                    }
                }
            }
            seen.push(edge);
            minimal = next;
        }
        let mut result: Vec<BagSelector> = minimal.into_iter().map(BagSelector::new).collect();
        result.sort();
        result
    }
}

/// A disjunctive datalog rule
/// `⋁_{B ∈ head} Q_B(B)  :-  ⋀_{R(X) ∈ body} R(X)` (Eq. 34).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DisjunctiveRule {
    /// The head disjuncts: each is a set of variables (the schema of one
    /// target relation `Q_B`).
    head: Vec<VarSet>,
    /// The body atoms.
    body: Vec<Atom>,
    /// Variable names (shared with the originating query) for display.
    var_names: Vec<String>,
}

impl DisjunctiveRule {
    /// Creates a DDR from head variable sets and body atoms.
    #[must_use]
    pub fn new(head: Vec<VarSet>, body: Vec<Atom>, var_names: Vec<String>) -> Self {
        let mut head = head;
        head.sort_unstable();
        head.dedup();
        DisjunctiveRule { head, body, var_names }
    }

    /// Builds the DDR of a query for a given bag selector: the head is the
    /// selector's bags, the body is the query's body.
    #[must_use]
    pub fn for_bag_selector(query: &ConjunctiveQuery, selector: &BagSelector) -> Self {
        DisjunctiveRule::new(
            selector.bags().to_vec(),
            query.atoms().to_vec(),
            query.var_names().to_vec(),
        )
    }

    /// The head disjuncts (target schemas).
    #[must_use]
    pub fn head(&self) -> &[VarSet] {
        &self.head
    }

    /// The body atoms.
    #[must_use]
    pub fn body(&self) -> &[Atom] {
        &self.body
    }

    /// Variable names for display.
    #[must_use]
    pub fn var_names(&self) -> &[String] {
        &self.var_names
    }

    /// All body variables.
    #[must_use]
    pub fn body_vars(&self) -> VarSet {
        self.body.iter().fold(VarSet::EMPTY, |acc, a| acc.union(a.var_set()))
    }

    /// `true` iff the rule is simply a conjunctive query (single disjunct).
    #[must_use]
    pub fn is_conjunctive(&self) -> bool {
        self.head.len() == 1
    }

    /// Pretty-prints the rule, e.g.
    /// `A0(X,Y,Z) ∨ A1(Y,Z,W) :- R(X,Y), S(Y,Z), T(Z,W), U(W,X)`.
    #[must_use]
    pub fn display(&self) -> String {
        let head: Vec<String> = self
            .head
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let vars: Vec<&str> = b
                    .iter()
                    .map(|v| self.var_names.get(v.index()).map_or("?", String::as_str))
                    .collect();
                format!("A{i}({})", vars.join(","))
            })
            .collect();
        let body: Vec<String> = self
            .body
            .iter()
            .map(|a| {
                let vars: Vec<&str> = a
                    .vars
                    .iter()
                    .map(|v| self.var_names.get(v.index()).map_or("?", String::as_str))
                    .collect();
                format!("{}({})", a.relation, vars.join(","))
            })
            .collect();
        format!("{} :- {}", head.join(" ∨ "), body.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeSet, HashSet};

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::parser::parse_query;
    use crate::var::Var;

    fn vs(vars: &[u32]) -> VarSet {
        vars.iter().map(|&v| Var(v)).collect()
    }

    fn four_cycle_tds() -> (ConjunctiveQuery, Vec<TreeDecomposition>) {
        let q = parse_query("Q(X,Y) :- R(X,Y), S(Y,Z), T(Z,W), U(W,X)").unwrap();
        let tds = TreeDecomposition::enumerate(&q);
        (q, tds)
    }

    #[test]
    fn four_cycle_has_four_bag_selectors() {
        // Section 5.1: BS(Q□) consists of four bag selectors (one bag from
        // each of the two TDs of Figure 1).
        let (_, tds) = four_cycle_tds();
        let selectors = BagSelector::enumerate(&tds);
        assert_eq!(selectors.len(), 4);
        for s in &selectors {
            assert_eq!(s.len(), 2);
            assert!(!s.is_empty());
        }
        // Each selector pairs one bag of T1 with one bag of T2.
        let t1_bags = [vs(&[0, 1, 2]), vs(&[0, 2, 3])];
        let t2_bags = [vs(&[1, 2, 3]), vs(&[0, 1, 3])];
        for s in &selectors {
            assert!(s.bags().iter().any(|b| t1_bags.contains(b)));
            assert!(s.bags().iter().any(|b| t2_bags.contains(b)));
        }
    }

    /// The reference enumerator: the cross product of one bag per TD, with
    /// each choice kept as the set of its bags (a bitmask over the distinct
    /// bags), filtered to its ⊆-minimal sets and sorted.  Removing a bag
    /// from a choice while the rest still hits every TD gives another
    /// choice (the TDs that chose that bag choose another of the rest), so
    /// a choice contains a smaller one iff it has a bag whose removal
    /// leaves a choice: one lookup per bag instead of a pairwise scan.
    fn minimal_cross_product(tds: &[TreeDecomposition]) -> Vec<BagSelector> {
        if tds.is_empty() {
            return Vec::new();
        }
        let bags: Vec<VarSet> = tds
            .iter()
            .flat_map(TreeDecomposition::bags)
            .copied()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        assert!(bags.len() <= 64, "the oracle's choices are 64-bit masks");
        let bit = |bag: &VarSet| 1u64 << bags.binary_search(bag).unwrap();
        let mut choices: HashSet<u64> = HashSet::from([0]);
        for td in tds {
            choices = choices
                .iter()
                .flat_map(|&partial| td.bags().iter().map(move |bag| partial | bit(bag)))
                .collect();
        }
        let members = |choice: u64| (0..bags.len()).filter(move |i| choice >> i & 1 == 1);
        let mut minimal: Vec<BagSelector> = choices
            .iter()
            .filter(|&&choice| members(choice).all(|i| !choices.contains(&(choice & !(1 << i)))))
            .map(|&choice| BagSelector::new(members(choice).map(|i| bags[i]).collect()))
            .collect();
        minimal.sort();
        minimal
    }

    #[test]
    fn selectors_with_shared_bags_are_merged() {
        // The cross product has 4 choices: {01}+{01} collapses to {01},
        // which {01,12} and {01,23} contain; {12,23} is the other minimal
        // one.
        let td1 = TreeDecomposition::new(vec![vs(&[0, 1]), vs(&[1, 2])]);
        let td2 = TreeDecomposition::new(vec![vs(&[0, 1]), vs(&[2, 3])]);
        let tds = [td1, td2];
        let expected = vec![
            BagSelector::new(vec![vs(&[0, 1])]),
            BagSelector::new(vec![vs(&[1, 2]), vs(&[2, 3])]),
        ];
        assert_eq!(BagSelector::enumerate(&tds), expected);
        assert_eq!(minimal_cross_product(&tds), expected);

        // 4-cycle, 5-cycle, 4-path and 5-path: 4, 21, 21 and 174
        // selectors out of 4, 243, 243 and 2.7·10⁸ choices.
        for (text, count) in [
            ("Q() :- R(A,B), S(B,C), T(C,D), U(D,A)", 4),
            ("Q(A,B) :- R(A,B), S(B,C), T(C,D), U(D,E), V(E,A)", 21),
            ("Q(A,E) :- R(A,B), S(B,C), T(C,D), U(D,E)", 21),
            ("Q(A,F) :- R(A,B), S(B,C), T(C,D), U(D,E), V(E,F)", 174),
        ] {
            let tds = TreeDecomposition::enumerate(&parse_query(text).unwrap());
            let selectors = BagSelector::enumerate(&tds);
            assert_eq!(selectors.len(), count, "{text}");
            assert_eq!(selectors, minimal_cross_product(&tds), "{text}");
        }
    }

    #[test]
    fn selectors_of_random_decomposition_lists_match_the_cross_product() {
        let mut rng = StdRng::seed_from_u64(37);
        for case in 0..500 {
            // Up to 5 TDs of up to 4 bags over 4 variables, so that bags
            // repeat across TDs and contain one another.
            let tds: Vec<TreeDecomposition> = (0..rng.gen_range(1..6))
                .map(|_| {
                    let bags = (0..rng.gen_range(1..5))
                        .map(|_| VarSet::from_bits(rng.gen_range(1..16)))
                        .collect();
                    TreeDecomposition::new(bags)
                })
                .collect();
            assert_eq!(
                BagSelector::enumerate(&tds),
                minimal_cross_product(&tds),
                "case {case}: {tds:?}"
            );
        }
    }

    #[test]
    fn no_tds_gives_no_selectors() {
        assert!(BagSelector::enumerate(&[]).is_empty());
    }

    #[test]
    fn ddr_for_selector_reproduces_eq_38() {
        // The DDR A11(X,Y,Z) ∨ A21(Y,Z,W) :- R(X,Y),S(Y,Z),T(Z,W),U(W,X).
        let (q, _) = four_cycle_tds();
        let selector = BagSelector::new(vec![vs(&[0, 1, 2]), vs(&[1, 2, 3])]);
        let ddr = DisjunctiveRule::for_bag_selector(&q, &selector);
        assert_eq!(ddr.head().len(), 2);
        assert_eq!(ddr.body().len(), 4);
        assert!(!ddr.is_conjunctive());
        assert_eq!(ddr.body_vars(), q.all_vars());
        assert_eq!(ddr.display(), "A0(X,Y,Z) ∨ A1(Y,Z,W) :- R(X,Y), S(Y,Z), T(Z,W), U(W,X)");
    }

    #[test]
    fn single_disjunct_rule_is_conjunctive() {
        let (q, _) = four_cycle_tds();
        let selector = BagSelector::new(vec![q.all_vars()]);
        let ddr = DisjunctiveRule::for_bag_selector(&q, &selector);
        assert!(ddr.is_conjunctive());
    }
}
