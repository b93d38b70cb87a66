//! Commutative semirings for FAQ-style aggregate queries (Section 9.1).
//!
//! A functional aggregate query annotates every input tuple with an element
//! of a commutative semiring `(K, ⊕, ⊗)` and asks for `⊕`-aggregates of
//! `⊗`-products over the join.  Instantiating the semiring recovers:
//!
//! * the plain conjunctive query (Boolean semiring),
//! * counting / `#CQ` (natural numbers with `+`, `×`),
//! * minimum-weight matching (tropical semiring `min`/`+`),
//! * bottleneck / fuzzy matching (`max`/`min`).
//!
//! The paper distinguishes **idempotent** semirings (where `a ⊕ a = a`),
//! for which PANDA's overlapping data partitioning is harmless, from
//! non-idempotent ones such as counting, where PANDA does not directly
//! apply (Section 9.1, open problem in Section 10).  The
//! [`Semiring::IS_IDEMPOTENT`] associated constant records which kind each
//! instance is; this module's tests check the flag against `a ⊕ a = a`,
//! and no evaluator reads it: `panda-core`'s `faq` computes every semiring
//! the same way.

/// A commutative semiring `(K, ⊕, ⊗)` with identities `zero` and `one`.
pub trait Semiring: Clone + std::fmt::Debug + 'static {
    /// Element type.
    type Elem: Clone + PartialEq + std::fmt::Debug;

    /// Whether `⊕` is idempotent (`a ⊕ a = a`).  PANDA's adaptive plans are
    /// only sound over idempotent semirings because partitions may overlap.
    const IS_IDEMPOTENT: bool;

    /// The additive identity (annotation of absent tuples).
    fn zero() -> Self::Elem;
    /// The multiplicative identity.
    fn one() -> Self::Elem;
    /// The aggregate operator `⊕`.
    fn add(a: &Self::Elem, b: &Self::Elem) -> Self::Elem;
    /// The combination operator `⊗`.
    fn mul(a: &Self::Elem, b: &Self::Elem) -> Self::Elem;

    /// Returns `true` if the element equals the additive identity; such
    /// annotations can be pruned.
    fn is_zero(a: &Self::Elem) -> bool {
        *a == Self::zero()
    }
}

/// The Boolean semiring `({false,true}, ∨, ∧)`: plain CQ semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoolSemiring;

impl Semiring for BoolSemiring {
    type Elem = bool;
    const IS_IDEMPOTENT: bool = true;

    fn zero() -> bool {
        false
    }
    fn one() -> bool {
        true
    }
    fn add(a: &bool, b: &bool) -> bool {
        *a || *b
    }
    fn mul(a: &bool, b: &bool) -> bool {
        *a && *b
    }
}

/// The counting semiring `(ℕ, +, ×)` used for `#CQ`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountingSemiring;

impl Semiring for CountingSemiring {
    type Elem = u64;
    const IS_IDEMPOTENT: bool = false;

    fn zero() -> u64 {
        0
    }
    fn one() -> u64 {
        1
    }
    fn add(a: &u64, b: &u64) -> u64 {
        // panda-lint: allow(P1) -- deliberate loud overflow guard: counts
        // must abort on overflow, never wrap into a wrong answer.
        a.checked_add(*b).expect("counting semiring overflow")
    }
    fn mul(a: &u64, b: &u64) -> u64 {
        // panda-lint: allow(P1) -- deliberate loud overflow guard, as above.
        a.checked_mul(*b).expect("counting semiring overflow")
    }
}

/// The tropical (min, +) semiring over `i64` with an explicit infinity,
/// used for minimum-weight pattern queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MinPlusSemiring;

/// "Infinity" for [`MinPlusSemiring`]; additions saturate at this value.
pub const MIN_PLUS_INFINITY: i64 = i64::MAX / 4;

impl Semiring for MinPlusSemiring {
    type Elem = i64;
    const IS_IDEMPOTENT: bool = true;

    fn zero() -> i64 {
        MIN_PLUS_INFINITY
    }
    fn one() -> i64 {
        0
    }
    fn add(a: &i64, b: &i64) -> i64 {
        (*a).min(*b)
    }
    fn mul(a: &i64, b: &i64) -> i64 {
        (*a + *b).min(MIN_PLUS_INFINITY)
    }
}

/// The (max, min) "bottleneck" semiring over `i64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaxMinSemiring;

/// "Minus infinity" for [`MaxMinSemiring`].
pub const MAX_MIN_NEG_INFINITY: i64 = i64::MIN / 4;
/// "Plus infinity" for [`MaxMinSemiring`] (the multiplicative identity).
pub const MAX_MIN_POS_INFINITY: i64 = i64::MAX / 4;

impl Semiring for MaxMinSemiring {
    type Elem = i64;
    const IS_IDEMPOTENT: bool = true;

    fn zero() -> i64 {
        MAX_MIN_NEG_INFINITY
    }
    fn one() -> i64 {
        MAX_MIN_POS_INFINITY
    }
    fn add(a: &i64, b: &i64) -> i64 {
        (*a).max(*b)
    }
    fn mul(a: &i64, b: &i64) -> i64 {
        (*a).min(*b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_semiring_axioms<S: Semiring>(samples: &[S::Elem], expect_idempotent: bool) {
        assert_eq!(S::IS_IDEMPOTENT, expect_idempotent, "advertised idempotence flag");
        let zero = S::zero();
        let one = S::one();
        for a in samples {
            // identities
            assert_eq!(S::add(a, &zero), *a, "additive identity");
            assert_eq!(S::mul(a, &one), *a, "multiplicative identity");
            assert_eq!(S::mul(a, &zero), zero, "annihilation");
            for b in samples {
                assert_eq!(S::add(a, b), S::add(b, a), "⊕ commutativity");
                assert_eq!(S::mul(a, b), S::mul(b, a), "⊗ commutativity");
                for c in samples {
                    assert_eq!(
                        S::add(&S::add(a, b), c),
                        S::add(a, &S::add(b, c)),
                        "⊕ associativity"
                    );
                    assert_eq!(
                        S::mul(&S::mul(a, b), c),
                        S::mul(a, &S::mul(b, c)),
                        "⊗ associativity"
                    );
                    assert_eq!(
                        S::mul(a, &S::add(b, c)),
                        S::add(&S::mul(a, b), &S::mul(a, c)),
                        "distributivity"
                    );
                }
            }
            if S::IS_IDEMPOTENT {
                assert_eq!(S::add(a, a), *a, "idempotence");
            }
        }
    }

    #[test]
    fn boolean_semiring_axioms() {
        check_semiring_axioms::<BoolSemiring>(&[false, true], true);
    }

    #[test]
    fn counting_semiring_axioms() {
        check_semiring_axioms::<CountingSemiring>(&[0, 1, 2, 5, 7], false);
    }

    #[test]
    fn min_plus_semiring_axioms() {
        check_semiring_axioms::<MinPlusSemiring>(&[MIN_PLUS_INFINITY, 0, 1, 5, 100], true);
        assert_eq!(MinPlusSemiring::add(&3, &7), 3);
        assert_eq!(MinPlusSemiring::mul(&3, &7), 10);
    }

    #[test]
    fn max_min_semiring_axioms() {
        check_semiring_axioms::<MaxMinSemiring>(
            &[MAX_MIN_NEG_INFINITY, MAX_MIN_POS_INFINITY, 0, 1, 5],
            true,
        );
    }

    #[test]
    fn counting_is_not_idempotent_in_behaviour() {
        assert_ne!(CountingSemiring::add(&2, &2), 2);
    }
}
