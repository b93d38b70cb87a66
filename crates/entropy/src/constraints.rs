//! Degree constraints, ℓ_k-norm constraints, and statistics sets.

use std::collections::BTreeMap;

use panda_query::{ConjunctiveQuery, VarSet};
use panda_rational::Rat;
use panda_relation::{stats as rstats, Database};

/// The kind of a statistic (Section 3.2 and 9.2 of the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatKind {
    /// A degree constraint `deg(subj | cond) ≤ count` on the guard
    /// relation.  With `cond = ∅` this is a cardinality constraint; with
    /// `count = 1` it is a functional dependency `cond → subj`.
    Degree {
        /// The conditioning variables `X`.
        cond: VarSet,
        /// The subject variables `Y`.
        subj: VarSet,
    },
    /// An ℓ_k-norm constraint on the degree sequence
    /// `‖(deg(subj | cond = x))_x‖_k ≤ count` (Eq. 72), contributing the LP
    /// row `(1/k)·h(cond) + h(subj|cond) ≤ log count` (Eq. 73).
    LpNorm {
        /// The conditioning variables `X`.
        cond: VarSet,
        /// The subject variables `Y`.
        subj: VarSet,
        /// The norm index `k ≥ 1`.
        k: u32,
    },
}

impl StatKind {
    /// The conditioning variable set.
    #[must_use]
    pub fn cond(&self) -> VarSet {
        match self {
            StatKind::Degree { cond, .. } | StatKind::LpNorm { cond, .. } => *cond,
        }
    }

    /// The subject variable set.
    #[must_use]
    pub fn subj(&self) -> VarSet {
        match self {
            StatKind::Degree { subj, .. } | StatKind::LpNorm { subj, .. } => *subj,
        }
    }

    /// All variables mentioned by the constraint.
    #[must_use]
    pub fn vars(&self) -> VarSet {
        self.cond().union(self.subj())
    }
}

/// One input statistic: a constraint kind, the guard relation it was
/// asserted on (if any), the numeric bound and its exact logarithm in the
/// base of the enclosing [`StatisticsSet`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Statistic {
    /// Human-readable label used in reports.
    pub label: String,
    /// The constraint kind.
    pub kind: StatKind,
    /// The relation symbol guarding the constraint, when known.  PANDA uses
    /// the guard to know which relation to partition when a proof-sequence
    /// decomposition step applies to this statistic.
    pub guard: Option<String>,
    /// The numeric bound `N_{Y|X}` (or the ℓ_k-norm bound).
    pub count: u64,
    /// `log_N(count)` where `N` is the statistics set's base, as an exact
    /// rational whenever possible.
    pub log_value: Rat,
}

/// Computes `log_base(count)` exactly as a rational `l/m` whenever
/// `count^m == base^l` for small `m`, and falls back to a close rational
/// approximation of the floating-point logarithm otherwise.
///
/// Exactness matters because the widths reported in the paper (e.g. `3/2`)
/// and the Shannon-flow dual coefficients must be exact to be convertible
/// into integral proof sequences.
#[must_use]
pub fn exact_log(base: u64, count: u64) -> Rat {
    assert!(base >= 2, "statistics base must be at least 2");
    if count <= 1 {
        return Rat::ZERO;
    }
    // Try exponents l/m with small denominator m: count^m == base^l.
    for m in 1u32..=6 {
        if let Some(cm) = (count as u128).checked_pow(m) {
            // find l such that base^l == cm
            let mut power: u128 = 1;
            let mut l = 0u32;
            loop {
                match power.cmp(&cm) {
                    std::cmp::Ordering::Equal => return Rat::new(i128::from(l), i128::from(m)),
                    std::cmp::Ordering::Greater => break,
                    std::cmp::Ordering::Less => {
                        power = match power.checked_mul(base as u128) {
                            Some(p) => p,
                            None => break,
                        };
                        l += 1;
                        if l > 512 {
                            break;
                        }
                    }
                }
            }
        }
    }
    // Fallback: rational approximation with denominator 10^6.
    let approx = (count as f64).ln() / (base as f64).ln();
    Rat::new((approx * 1_000_000.0).round() as i128, 1_000_000)
}

/// A set of statistics `S` about a database instance, all expressed in the
/// same logarithmic base `N` (the paper takes `N = ‖D‖`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatisticsSet {
    base: u64,
    stats: Vec<Statistic>,
}

impl StatisticsSet {
    /// Creates an empty statistics set with logarithm base `base`.
    ///
    /// # Panics
    ///
    /// Panics if `base < 2`.
    #[must_use]
    pub fn new(base: u64) -> Self {
        assert!(base >= 2, "statistics base must be at least 2");
        StatisticsSet { base, stats: Vec::new() }
    }

    /// The logarithm base `N`.
    #[must_use]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// The statistics.
    #[must_use]
    pub fn stats(&self) -> &[Statistic] {
        &self.stats
    }

    /// Number of statistics.
    #[must_use]
    pub fn len(&self) -> usize {
        self.stats.len()
    }

    /// `true` iff no statistics have been added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.stats.is_empty()
    }

    /// Adds a raw statistic.  Every other `add_*` method goes through here.
    ///
    /// # Panics
    ///
    /// If `stat.log_value` is negative.  Each statistic becomes an LP row
    /// `… ≤ log_value`, and the LP solver requires a non-negative
    /// right-hand side; a count of 0 or 1 has `log_value` 0
    /// ([`exact_log`]).
    pub fn push(&mut self, stat: Statistic) -> &mut Self {
        assert!(
            !stat.log_value.is_negative(),
            "statistic `{}` has a negative logarithm {}",
            stat.label,
            stat.log_value
        );
        self.stats.push(stat);
        self
    }

    /// Adds a cardinality constraint `|guard| ≤ count` over the variables
    /// `vars`.
    pub fn add_cardinality(
        &mut self,
        guard: impl Into<String>,
        vars: VarSet,
        count: u64,
    ) -> &mut Self {
        let guard = guard.into();
        let stat = Statistic {
            label: format!("|{guard}| ≤ {count}"),
            kind: StatKind::Degree { cond: VarSet::EMPTY, subj: vars },
            guard: Some(guard),
            count,
            log_value: exact_log(self.base, count),
        };
        self.push(stat)
    }

    /// Adds a degree constraint `deg_guard(subj | cond) ≤ count`.
    pub fn add_degree(
        &mut self,
        guard: impl Into<String>,
        cond: VarSet,
        subj: VarSet,
        count: u64,
    ) -> &mut Self {
        let guard = guard.into();
        let stat = Statistic {
            label: format!("deg_{guard}({subj:?}|{cond:?}) ≤ {count}"),
            kind: StatKind::Degree { cond, subj },
            guard: Some(guard),
            count,
            log_value: exact_log(self.base, count),
        };
        self.push(stat)
    }

    /// Adds a functional dependency `cond → subj` on the guard relation
    /// (a degree constraint with bound 1).
    pub fn add_functional_dependency(
        &mut self,
        guard: impl Into<String>,
        cond: VarSet,
        subj: VarSet,
    ) -> &mut Self {
        self.add_degree(guard, cond, subj, 1)
    }

    /// Adds an ℓ_k-norm constraint on the degree sequence of `subj` given
    /// `cond` (Eq. 72/73).
    pub fn add_lp_norm(
        &mut self,
        guard: impl Into<String>,
        cond: VarSet,
        subj: VarSet,
        k: u32,
        count: u64,
    ) -> &mut Self {
        assert!(k >= 1, "ℓ_k norms require k ≥ 1 (use a degree constraint for ℓ_∞)");
        let guard = guard.into();
        let stat = Statistic {
            label: format!("ℓ{k}-norm_{guard}({subj:?}|{cond:?}) ≤ {count}"),
            kind: StatKind::LpNorm { cond, subj, k },
            guard: Some(guard),
            count,
            log_value: exact_log(self.base, count),
        };
        self.push(stat)
    }

    /// The paper's *identical cardinality constraints* `S`: every atom of
    /// the query is bounded by the same size `n` (Section 3.2).
    #[must_use]
    pub fn identical_cardinalities(query: &ConjunctiveQuery, n: u64) -> Self {
        let mut s = StatisticsSet::new(n.max(2));
        for atom in query.atoms() {
            s.add_cardinality(atom.relation.clone(), atom.var_set(), n);
        }
        s
    }

    /// Measures statistics from a concrete database instance: for every
    /// atom, its cardinality, plus the degree constraints conditioned on
    /// each single variable and each (arity−1)-subset of its variables.
    /// The base is `‖D‖` (total tuple count), as in the paper.
    ///
    /// Atoms whose relation is missing from the database are treated as
    /// empty (cardinality 0 is clamped to 1 so logarithms stay defined).
    #[must_use]
    pub fn measure(query: &ConjunctiveQuery, db: &Database) -> Self {
        let base = db.total_tuples().max(2) as u64;
        let mut s = StatisticsSet::new(base);
        for atom in query.atoms() {
            let vars = atom.var_set();
            let (card, degree_subsets) = match db.relation(&atom.relation) {
                Some(rel) => {
                    let mut degrees: BTreeMap<VarSet, u64> = BTreeMap::new();
                    for cond_size in [1usize, atom.arity().saturating_sub(1)] {
                        if cond_size == 0 || cond_size >= atom.arity() {
                            continue;
                        }
                        for cond in VarSet::subsets_of(vars) {
                            if cond.len() != cond_size {
                                continue;
                            }
                            let cond_cols: Vec<usize> = atom
                                .vars
                                .iter()
                                .enumerate()
                                .filter(|(_, v)| cond.contains(**v))
                                .map(|(i, _)| i)
                                .collect();
                            let subj_cols: Vec<usize> = atom
                                .vars
                                .iter()
                                .enumerate()
                                .filter(|(_, v)| !cond.contains(**v))
                                .map(|(i, _)| i)
                                .collect();
                            let d = rstats::max_degree(rel, &cond_cols, &subj_cols) as u64;
                            degrees.insert(cond, d.max(1));
                        }
                    }
                    (rel.distinct_count() as u64, degrees)
                }
                None => (0, BTreeMap::new()),
            };
            s.add_cardinality(atom.relation.clone(), vars, card.max(1));
            for (cond, d) in degree_subsets {
                s.add_degree(atom.relation.clone(), cond, vars.difference(cond), d);
            }
        }
        s
    }

    /// Returns the statistics whose guard is the given relation symbol.
    #[must_use]
    pub fn for_guard(&self, guard: &str) -> Vec<&Statistic> {
        self.stats.iter().filter(|s| s.guard.as_deref() == Some(guard)).collect()
    }

    /// The total size bound implied by summing all cardinality constraints
    /// (an upper bound on `‖D‖`); mainly for reporting.
    #[must_use]
    pub fn sum_of_cardinalities(&self) -> u64 {
        self.stats
            .iter()
            .filter(|s| matches!(s.kind, StatKind::Degree { cond, .. } if cond.is_empty()))
            .map(|s| s.count)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panda_query::{parse_query, Var};
    use panda_relation::Relation;

    fn vs(vars: &[u32]) -> VarSet {
        vars.iter().map(|&v| Var(v)).collect()
    }

    #[test]
    fn exact_log_recovers_integer_and_fractional_exponents() {
        assert_eq!(exact_log(10, 1), Rat::ZERO);
        assert_eq!(exact_log(10, 10), Rat::ONE);
        assert_eq!(exact_log(10, 100), Rat::from_int(2));
        assert_eq!(exact_log(100, 10), Rat::new(1, 2));
        assert_eq!(exact_log(8, 2), Rat::new(1, 3));
        assert_eq!(exact_log(4, 8), Rat::new(3, 2));
        assert_eq!(exact_log(1024, 32), Rat::new(1, 2));
    }

    #[test]
    fn exact_log_falls_back_to_approximation() {
        let v = exact_log(10, 3);
        let expected = 3f64.ln() / 10f64.ln();
        assert!((v.to_f64() - expected).abs() < 1e-5);
    }

    #[test]
    fn building_the_papers_s_full_statistics() {
        // S_full from Eq. (16): all four relations of size N, an FD W → X
        // in U, and deg_U(W|X) ≤ C.
        let n = 10_000u64;
        let c = 100u64;
        let (x, y, z, w) = (Var(0), Var(1), Var(2), Var(3));
        let mut s = StatisticsSet::new(n);
        s.add_cardinality("R", vs(&[0, 1]), n)
            .add_cardinality("S", vs(&[1, 2]), n)
            .add_cardinality("T", vs(&[2, 3]), n)
            .add_cardinality("U", vs(&[3, 0]), n)
            .add_functional_dependency("U", VarSet::singleton(w), VarSet::singleton(x))
            .add_degree("U", VarSet::singleton(x), VarSet::singleton(w), c);
        assert_eq!(s.len(), 6);
        assert_eq!(s.base(), n);
        assert_eq!(s.stats()[0].log_value, Rat::ONE);
        assert_eq!(s.stats()[4].log_value, Rat::ZERO); // FD
        assert_eq!(s.stats()[5].log_value, Rat::new(1, 2)); // C = √N
        assert_eq!(s.for_guard("U").len(), 3);
        assert_eq!(s.sum_of_cardinalities(), 4 * n);
        let _ = (x, y, z);
    }

    #[test]
    fn identical_cardinalities_covers_every_atom() {
        let q = parse_query("Q(X,Y) :- R(X,Y), S(Y,Z), T(Z,W), U(W,X)").unwrap();
        let s = StatisticsSet::identical_cardinalities(&q, 1000);
        assert_eq!(s.len(), 4);
        assert!(s.stats().iter().all(|st| st.log_value == Rat::ONE));
        assert!(s
            .stats()
            .iter()
            .all(|st| matches!(st.kind, StatKind::Degree { cond, .. } if cond.is_empty())));
    }

    #[test]
    fn measuring_statistics_from_data() {
        let q = parse_query("Q(X,Y) :- R(X,Y), S(Y,Z)").unwrap();
        let mut db = Database::new();
        db.insert("R", Relation::from_rows(2, vec![[1, 10], [2, 10], [3, 20]]));
        db.insert("S", Relation::from_rows(2, vec![[10, 5], [10, 6], [10, 7], [20, 5]]));
        let s = StatisticsSet::measure(&q, &db);
        assert_eq!(s.base(), 7);
        // cardinalities for R and S present
        assert!(s.stats().iter().any(|st| st.label.contains("|R| ≤ 3")));
        assert!(s.stats().iter().any(|st| st.label.contains("|S| ≤ 4")));
        // deg_S(Z|Y) = 3 measured
        let y = q.var_by_name("Y").unwrap();
        let z = q.var_by_name("Z").unwrap();
        let found = s.stats().iter().any(|st| {
            st.guard.as_deref() == Some("S")
                && st.kind
                    == StatKind::Degree { cond: VarSet::singleton(y), subj: VarSet::singleton(z) }
                && st.count == 3
        });
        assert!(found, "expected deg_S(Z|Y) = 3 in {:#?}", s.stats());
    }

    #[test]
    fn measure_handles_missing_relations() {
        let q = parse_query("Q(X) :- R(X,Y)").unwrap();
        let db = Database::new();
        let s = StatisticsSet::measure(&q, &db);
        assert!(!s.is_empty());
        assert!(s.stats().iter().all(|st| st.count >= 1));
    }

    #[test]
    fn boundary_statistics_have_log_zero_and_bound_zero() {
        let q = parse_query("Q(X,Y) :- R(X,Y)").unwrap();
        let xy = q.all_vars();
        let mut built = StatisticsSet::new(2);
        built.add_cardinality("R", xy, 0);
        built.add_functional_dependency("R", vs(&[0]), vs(&[1]));
        let mut empty = Database::new();
        empty.insert("R", Relation::new(2));
        let missing = StatisticsSet::measure(&q, &Database::new());
        for stats in [built, missing, StatisticsSet::measure(&q, &empty)] {
            assert!(stats.stats().iter().all(|st| st.log_value == Rat::ZERO), "{stats:?}");
            let report = crate::polymatroid_bound(xy, xy, &stats).unwrap();
            assert_eq!(report.log_bound, Rat::ZERO);
        }
    }

    #[test]
    #[should_panic(expected = "negative logarithm")]
    fn push_rejects_a_negative_log_value() {
        let mut s = StatisticsSet::new(2);
        s.push(Statistic {
            label: "below one".into(),
            kind: StatKind::Degree { cond: VarSet::EMPTY, subj: vs(&[0]) },
            guard: None,
            count: 0,
            log_value: Rat::new(-1, 2),
        });
    }

    #[test]
    fn lp_norm_constraints_record_k() {
        let mut s = StatisticsSet::new(100);
        s.add_lp_norm("R", vs(&[0]), vs(&[1]), 2, 10);
        match &s.stats()[0].kind {
            StatKind::LpNorm { k, .. } => assert_eq!(*k, 2),
            other => panic!("unexpected kind {other:?}"),
        }
        assert_eq!(s.stats()[0].log_value, Rat::new(1, 2));
        assert_eq!(s.stats()[0].kind.vars(), vs(&[0, 1]));
    }

    #[test]
    #[should_panic(expected = "k ≥ 1")]
    fn lp_norm_with_k_zero_panics() {
        let mut s = StatisticsSet::new(100);
        s.add_lp_norm("R", vs(&[0]), vs(&[1]), 0, 10);
    }
}
