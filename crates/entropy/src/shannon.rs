//! Shannon-flow inequalities and their certificates.
//!
//! Lemma 6.1 of the paper shows that the polymatroid bound of a DDR equals
//! the least `Σ_c w_c · log N_c` over non-negative coefficients `(λ, w)`
//! with `‖λ‖₁ = 1` such that the *Shannon-flow inequality*
//!
//! ```text
//!   Σ_B λ_B · h(B)  ≤  Σ_c w_c · h(Y_c | X_c)      for every polymatroid h
//! ```
//!
//! holds.  A [`ShannonFlow`] stores such an inequality together with an
//! explicit *witness*: a non-negative combination of elemental Shannon
//! inequalities and `h(S) ≥ 0` residues whose sum is exactly the difference
//! of the two sides.  The witness is what makes the inequality
//! machine-checkable ([`ShannonFlow::verify_identity`]) and convertible into
//! the integral form ([`IntegralShannonFlow`]) consumed by the
//! proof-sequence construction of `panda-proof` (Section 7).

use std::collections::BTreeMap;

use panda_query::VarSet;
use panda_rational::{common_denominator, Rat};

use crate::constraints::{StatKind, Statistic};
use crate::elemental::Elemental;

/// A conditional entropy term `h(subj | cond)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CondTerm {
    /// The conditioning set `X`.
    pub cond: VarSet,
    /// The subject set `Y` (disjoint from `cond`).
    pub subj: VarSet,
}

impl CondTerm {
    /// Creates a conditional term, removing any overlap of the subject with
    /// the condition.
    #[must_use]
    pub fn new(cond: VarSet, subj: VarSet) -> Self {
        CondTerm { cond, subj: subj.difference(cond) }
    }

    /// `true` iff the term is unconditional (`X = ∅`).
    #[must_use]
    pub fn is_unconditional(&self) -> bool {
        self.cond.is_empty()
    }

    /// The joint set `X ∪ Y`.
    #[must_use]
    pub fn joint(&self) -> VarSet {
        self.cond.union(self.subj)
    }

    /// Pretty-prints the term with variable names.
    #[must_use]
    pub fn display_with(&self, names: &[String]) -> String {
        if self.cond.is_empty() {
            format!("h{}", self.subj.display_with(names))
        } else {
            format!("h({}|{})", self.subj.display_with(names), self.cond.display_with(names))
        }
    }
}

/// A Shannon-flow inequality with rational coefficients and its witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShannonFlow {
    /// The variable universe `V`.
    pub universe: VarSet,
    /// The target coefficients `λ_B > 0` (left-hand side).
    pub targets: Vec<(VarSet, Rat)>,
    /// The source coefficients `w_c > 0`, one per statistic used.
    pub sources: Vec<(Statistic, Rat)>,
    /// The witness: non-negative multipliers on elemental inequalities.
    pub witness: Vec<(Elemental, Rat)>,
    /// Residual non-negativity terms `r_S · h(S)` with `r_S > 0` (equivalent
    /// to monotonicities `h(S) ≥ h(∅)`).
    pub residuals: Vec<(VarSet, Rat)>,
}

impl ShannonFlow {
    /// `Σ_B λ_B` — equals 1 for the flows extracted from width LPs.
    #[must_use]
    pub fn lambda_total(&self) -> Rat {
        self.targets.iter().map(|(_, l)| *l).sum()
    }

    /// The bound in log scale: `Σ_c w_c · log_N N_c` (Theorem 6.2).
    #[must_use]
    pub fn log_bound(&self) -> Rat {
        self.sources.iter().map(|(s, w)| *w * s.log_value).sum()
    }

    /// The bound in tuples: `Π_c N_c^{w_c}` (Theorem 6.2), as `f64`.
    #[must_use]
    pub fn tuple_bound(&self) -> f64 {
        self.sources.iter().map(|(s, w)| (s.count.max(1) as f64).powf(w.to_f64())).product()
    }

    /// The coefficient that statistic `stat_label` carries in this flow
    /// (0 if unused).  Convenient in tests and reports.
    #[must_use]
    pub fn weight_of(&self, stat_label: &str) -> Rat {
        self.sources.iter().filter(|(s, _)| s.label == stat_label).map(|(_, w)| *w).sum()
    }

    /// Collects the per-subset coefficients of the *source* side
    /// `Σ_c w_c h(Y_c|X_c)` (LP-norm constraints contribute
    /// `(1/k)·h(X) + h(Y|X)`).
    fn source_coefficients(&self) -> BTreeMap<VarSet, Rat> {
        let mut coeffs: BTreeMap<VarSet, Rat> = BTreeMap::new();
        let mut add = |set: VarSet, c: Rat| {
            if set.is_empty() || c.is_zero() {
                return;
            }
            *coeffs.entry(set).or_insert(Rat::ZERO) += c;
        };
        for (stat, w) in &self.sources {
            match stat.kind {
                StatKind::Degree { cond, subj } => {
                    add(cond.union(subj), *w);
                    add(cond, -*w);
                }
                StatKind::LpNorm { cond, subj, k } => {
                    add(cond.union(subj), *w);
                    add(cond, *w * (Rat::new(1, i128::from(k)) - Rat::ONE));
                }
            }
        }
        coeffs
    }

    /// Collects the per-subset coefficients of the *certificate* side
    /// `Σ_B λ_B h(B) + Σ_e μ_e expr_e(h) + Σ_S r_S h(S)`.
    fn certificate_coefficients(&self) -> BTreeMap<VarSet, Rat> {
        let mut coeffs: BTreeMap<VarSet, Rat> = BTreeMap::new();
        let mut add = |set: VarSet, c: Rat| {
            if set.is_empty() || c.is_zero() {
                return;
            }
            *coeffs.entry(set).or_insert(Rat::ZERO) += c;
        };
        for (b, l) in &self.targets {
            add(*b, *l);
        }
        for (e, mu) in &self.witness {
            for (s, c) in e.coefficients() {
                add(s, *mu * Rat::from_int(i128::from(c)));
            }
        }
        for (s, r) in &self.residuals {
            add(*s, *r);
        }
        coeffs
    }

    /// Verifies the exact identity
    /// `Σ_c w_c h(Y_c|X_c) ≡ Σ_B λ_B h(B) + Σ_e μ_e expr_e(h) + Σ_S r_S h(S)`
    /// coefficient by coefficient, plus non-negativity of every multiplier.
    /// Because `expr_e(h) ≥ 0` and `h(S) ≥ 0` for every polymatroid, the
    /// identity proves the Shannon-flow inequality.
    pub fn verify_identity(&self) -> Result<(), String> {
        for (_, l) in &self.targets {
            if l.is_negative() {
                return Err("negative target coefficient".to_string());
            }
        }
        for (_, w) in &self.sources {
            if w.is_negative() {
                return Err("negative source coefficient".to_string());
            }
        }
        for (e, mu) in &self.witness {
            if mu.is_negative() {
                return Err("negative witness coefficient".to_string());
            }
            if !e.is_well_formed() {
                return Err(format!("malformed elemental {e:?}"));
            }
        }
        for (_, r) in &self.residuals {
            if r.is_negative() {
                return Err("negative residual coefficient".to_string());
            }
        }
        let lhs = self.source_coefficients();
        let rhs = self.certificate_coefficients();
        let mut all_sets: Vec<VarSet> = lhs.keys().chain(rhs.keys()).copied().collect();
        all_sets.sort();
        all_sets.dedup();
        for s in all_sets {
            let l = lhs.get(&s).copied().unwrap_or(Rat::ZERO);
            let r = rhs.get(&s).copied().unwrap_or(Rat::ZERO);
            if l != r {
                return Err(format!(
                    "identity mismatch at h({s:?}): sources give {l}, certificate gives {r}"
                ));
            }
        }
        Ok(())
    }

    /// Numerically checks the inequality `Σ λ_B h(B) ≤ Σ w_c ⟨stat, h⟩` on an
    /// arbitrary set function (useful as a sanity check against concrete
    /// entropy vectors).
    pub fn check_on<F: Fn(VarSet) -> f64>(&self, h: &F) -> bool {
        let lhs: f64 = self.targets.iter().map(|(b, l)| l.to_f64() * h(*b)).sum();
        let rhs: f64 = self
            .sources
            .iter()
            .map(|(stat, w)| {
                let cond = stat.kind.cond();
                let joint = stat.kind.vars();
                let cond_h = if cond.is_empty() { 0.0 } else { h(cond) };
                let term = match stat.kind {
                    StatKind::Degree { .. } => h(joint) - cond_h,
                    StatKind::LpNorm { k, .. } => cond_h / f64::from(k) + h(joint) - cond_h,
                };
                w.to_f64() * term
            })
            .sum();
        lhs <= rhs + 1e-9
    }

    /// Converts the flow to integral form by clearing denominators
    /// (Section 7: "Every rational Shannon-flow inequality can be converted
    /// to an integral one").  Residual terms become monotonicities to ∅.
    ///
    /// Returns an error if a source statistic with nonzero weight is an
    /// ℓ_k-norm constraint: the proof-sequence machinery of Section 7
    /// operates on degree constraints only (the ℓ_k extension of Section
    /// 9.2 changes the shape of the source terms).  Zero-weight sources are
    /// dropped from the integral flow, so their kind does not matter.
    pub fn to_integral(&self) -> Result<IntegralShannonFlow, String> {
        for (stat, w) in &self.sources {
            if !w.is_zero() && matches!(stat.kind, StatKind::LpNorm { .. }) {
                return Err(format!(
                    "cannot build an integral flow over ℓ_k-norm statistic `{}`",
                    stat.label
                ));
            }
        }
        let mut all: Vec<Rat> = Vec::new();
        all.extend(self.targets.iter().map(|(_, c)| *c));
        all.extend(self.sources.iter().map(|(_, c)| *c));
        all.extend(self.witness.iter().map(|(_, c)| *c));
        all.extend(self.residuals.iter().map(|(_, c)| *c));
        let denom = common_denominator(&all);
        let scale = Rat::from_int(denom);
        let to_int = |c: Rat| -> u64 {
            let v = c * scale;
            debug_assert!(v.is_integer());
            v.numer() as u64
        };
        let targets = self
            .targets
            .iter()
            .filter(|(_, c)| !c.is_zero())
            .map(|(b, c)| (*b, to_int(*c)))
            .collect();
        let sources = self
            .sources
            .iter()
            .filter(|(_, c)| !c.is_zero())
            .map(|(stat, c)| {
                let term = CondTerm::new(stat.kind.cond(), stat.kind.subj());
                (term, to_int(*c), stat.clone())
            })
            .collect();
        let mut witness: Vec<(Elemental, u64)> = self
            .witness
            .iter()
            .filter(|(_, c)| !c.is_zero())
            .map(|(e, c)| (*e, to_int(*c)))
            .collect();
        for (s, r) in &self.residuals {
            if !r.is_zero() {
                witness.push((Elemental::Monotone { from: *s, to: VarSet::EMPTY }, to_int(*r)));
            }
        }
        Ok(IntegralShannonFlow {
            universe: self.universe,
            scale: denom as u64,
            targets,
            sources,
            witness,
        })
    }

    /// Pretty-prints the inequality, e.g.
    /// `1/2·h{X,Y,Z} + 1/2·h{Y,Z,W} ≤ 1/2·h{X,Y} + 1/2·h{Y,Z} + 1/2·h{Z,W}`.
    #[must_use]
    pub fn display_with(&self, names: &[String]) -> String {
        let lhs: Vec<String> =
            self.targets.iter().map(|(b, l)| format!("{l}·h{}", b.display_with(names))).collect();
        let rhs: Vec<String> = self
            .sources
            .iter()
            .map(|(s, w)| {
                let term = CondTerm::new(s.kind.cond(), s.kind.subj());
                format!("{w}·{}", term.display_with(names))
            })
            .collect();
        format!("{} ≤ {}", lhs.join(" + "), rhs.join(" + "))
    }
}

/// A Shannon-flow inequality with *integer* coefficients (Section 7),
/// obtained from a rational one by clearing denominators with `scale`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntegralShannonFlow {
    /// The variable universe.
    pub universe: VarSet,
    /// The common denominator that was multiplied through.
    pub scale: u64,
    /// Target terms with multiplicities: `Σ λ_B h(B)`.
    pub targets: Vec<(VarSet, u64)>,
    /// Source conditional terms with multiplicities and their originating
    /// statistics (always degree constraints).
    pub sources: Vec<(CondTerm, u64, Statistic)>,
    /// Witness elemental inequalities with multiplicities (includes the
    /// residual monotonicities to ∅).
    pub witness: Vec<(Elemental, u64)>,
}

impl IntegralShannonFlow {
    /// Total number of target term occurrences (counted with multiplicity).
    #[must_use]
    pub fn num_target_occurrences(&self) -> u64 {
        self.targets.iter().map(|(_, c)| *c).sum()
    }

    /// Total number of *unconditional* source term occurrences.
    #[must_use]
    pub fn num_unconditional_sources(&self) -> u64 {
        self.sources.iter().filter(|(t, _, _)| t.is_unconditional()).map(|(_, c, _)| *c).sum()
    }

    /// Verifies the integral identity (same as
    /// [`ShannonFlow::verify_identity`], over integers).
    pub fn verify_identity(&self) -> Result<(), String> {
        let mut balance: BTreeMap<VarSet, i128> = BTreeMap::new();
        let mut add = |set: VarSet, c: i128| {
            if set.is_empty() || c == 0 {
                return;
            }
            *balance.entry(set).or_insert(0) += c;
        };
        // sources minus certificate must be identically zero.
        for (term, c, _) in &self.sources {
            add(term.joint(), i128::from(*c));
            add(term.cond, -i128::from(*c));
        }
        for (b, c) in &self.targets {
            add(*b, -i128::from(*c));
        }
        for (e, mu) in &self.witness {
            for (s, coeff) in e.coefficients() {
                add(s, -i128::from(*mu) * i128::from(coeff));
            }
        }
        for (s, v) in balance {
            if v != 0 {
                return Err(format!("integral identity mismatch at {s:?}: residue {v}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panda_query::Var;

    fn vs(vars: &[u32]) -> VarSet {
        vars.iter().map(|&v| Var(v)).collect()
    }

    fn cardinality(guard: &str, vars: VarSet) -> Statistic {
        Statistic {
            label: format!("|{guard}|"),
            kind: StatKind::Degree { cond: VarSet::EMPTY, subj: vars },
            guard: Some(guard.to_string()),
            count: 1000,
            log_value: Rat::ONE,
        }
    }

    /// The paper's Eq. (55): ½h(XYZ) + ½h(YZW) ≤ ½h(XY) + ½h(YZ) + ½h(ZW),
    /// witnessed by ½ of submodularity (X;Z|Y) and ½ of the composite
    /// submodularity h(Y)+h(ZW) ≥ h(YZW), which decomposes into the two
    /// elementals (Y;Z|∅) and (Y;W|Z).
    fn paper_flow() -> ShannonFlow {
        let half = Rat::new(1, 2);
        let (x, y, z, w) = (Var(0), Var(1), Var(2), Var(3));
        ShannonFlow {
            universe: vs(&[0, 1, 2, 3]),
            targets: vec![(vs(&[0, 1, 2]), half), (vs(&[1, 2, 3]), half)],
            sources: vec![
                (cardinality("R", vs(&[0, 1])), half),
                (cardinality("S", vs(&[1, 2])), half),
                (cardinality("T", vs(&[2, 3])), half),
            ],
            witness: vec![
                (Elemental::submodular_vars(x, z, VarSet::singleton(y)), half),
                (Elemental::submodular_vars(y, z, VarSet::EMPTY), half),
                (Elemental::submodular_vars(y, w, VarSet::singleton(z)), half),
            ],
            residuals: Vec::new(),
        }
    }

    #[test]
    fn eq55_verifies_and_bounds_n_to_three_halves() {
        let flow = paper_flow();
        flow.verify_identity().expect("Eq. (55) must verify");
        assert_eq!(flow.lambda_total(), Rat::ONE);
        assert_eq!(flow.log_bound(), Rat::new(3, 2));
        let expected = 1000f64.powf(1.5);
        assert!((flow.tuple_bound() - expected).abs() / expected < 1e-9);
        assert_eq!(flow.weight_of("|R|"), Rat::new(1, 2));
        assert_eq!(flow.weight_of("|U|"), Rat::ZERO);
    }

    #[test]
    fn broken_identity_is_rejected() {
        let mut flow = paper_flow();
        flow.witness.pop();
        assert!(flow.verify_identity().is_err());
        let mut flow2 = paper_flow();
        flow2.sources[0].1 = Rat::new(1, 4);
        assert!(flow2.verify_identity().is_err());
        let mut flow3 = paper_flow();
        flow3.targets[0].1 = -Rat::ONE;
        assert!(flow3.verify_identity().is_err());
    }

    #[test]
    fn flow_holds_on_concrete_polymatroids() {
        let flow = paper_flow();
        // h(S) = |S| (independent uniform bits) and h(S) = min(|S|, 2).
        assert!(flow.check_on(&|s: VarSet| s.len() as f64));
        assert!(flow.check_on(&|s: VarSet| (s.len() as f64).min(2.0)));
        // A function violating the inequality: h concentrated on the targets.
        let cheat = |s: VarSet| -> f64 {
            if s == vs(&[0, 1, 2]) || s == vs(&[1, 2, 3]) {
                10.0
            } else {
                0.0
            }
        };
        assert!(!flow.check_on(&cheat));
    }

    #[test]
    fn integral_conversion_doubles_eq55_into_eq62() {
        let flow = paper_flow();
        let integral = flow.to_integral().unwrap();
        assert_eq!(integral.scale, 2);
        // Eq. (62): h(XYZ) + h(YZW) ≤ h(XY) + h(YZ) + h(ZW).
        assert_eq!(integral.num_target_occurrences(), 2);
        assert_eq!(integral.num_unconditional_sources(), 3);
        integral.verify_identity().expect("integral identity");
        // All sources are unconditional cardinality terms.
        assert!(integral.sources.iter().all(|(t, _, _)| t.is_unconditional()));
        // The witness consists of the three submodularities, each doubled to
        // coefficient 1.
        assert_eq!(integral.witness.len(), 3);
        assert!(integral
            .witness
            .iter()
            .all(|(e, c)| *c == 1 && matches!(e, Elemental::Submodular { .. })));
    }

    #[test]
    fn residuals_convert_to_monotonicities_to_empty() {
        // A flow that genuinely needs a residual: h(X) ≤ h(XY) is witnessed
        // by the monotonicity, and h(X) ≤ h(XY) + h(Z) needs the residual
        // r_Z = 1 on the *certificate* side only if the source has an extra
        // h(Z)… instead we test the plumbing directly: a flow whose source
        // exceeds target by h(Z).
        let stat_xy = cardinality("R", vs(&[0, 1]));
        let stat_z = cardinality("W", vs(&[2]));
        let flow = ShannonFlow {
            universe: vs(&[0, 1, 2]),
            targets: vec![(vs(&[0]), Rat::ONE)],
            sources: vec![(stat_xy, Rat::ONE), (stat_z, Rat::new(1, 2))],
            witness: vec![(Elemental::Monotone { from: vs(&[0, 1]), to: vs(&[0]) }, Rat::ONE)],
            residuals: vec![(vs(&[2]), Rat::new(1, 2))],
        };
        flow.verify_identity().expect("identity with residual");
        let integral = flow.to_integral().unwrap();
        assert_eq!(integral.scale, 2);
        integral.verify_identity().expect("integral identity with residual");
        assert!(integral
            .witness
            .iter()
            .any(|(e, c)| *c == 1 && matches!(e, Elemental::Monotone { to, .. } if to.is_empty())));
    }

    #[test]
    fn lp_norm_sources_cannot_become_integral() {
        let mut flow = paper_flow();
        flow.sources.push((
            Statistic {
                label: "ℓ2".into(),
                kind: StatKind::LpNorm { cond: vs(&[0]), subj: vs(&[1]), k: 2 },
                guard: None,
                count: 10,
                log_value: Rat::new(1, 2),
            },
            Rat::ZERO,
        ));
        // A zero-weight ℓ_k source is dropped from the integral flow...
        let integral = flow.to_integral().unwrap();
        assert_eq!(integral, paper_flow().to_integral().unwrap());
        // ...but a nonzero one is rejected.
        flow.sources.last_mut().unwrap().1 = Rat::new(1, 2);
        assert!(flow.to_integral().is_err());
    }

    #[test]
    fn cond_term_normalises_overlap() {
        let t = CondTerm::new(vs(&[0, 1]), vs(&[1, 2]));
        assert_eq!(t.subj, vs(&[2]));
        assert_eq!(t.joint(), vs(&[0, 1, 2]));
        assert!(!t.is_unconditional());
        let names: Vec<String> = ["X", "Y", "Z"].iter().map(|s| s.to_string()).collect();
        assert_eq!(t.display_with(&names), "h({Z}|{X,Y})");
        assert_eq!(CondTerm::new(VarSet::EMPTY, vs(&[0])).display_with(&names), "h{X}");
    }

    #[test]
    fn display_is_readable() {
        let names: Vec<String> = ["X", "Y", "Z", "W"].iter().map(|s| s.to_string()).collect();
        let s = paper_flow().display_with(&names);
        assert!(s.contains("1/2·h{X,Y,Z}"));
        assert!(s.contains("≤"));
    }
}
