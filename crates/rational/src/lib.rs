//! Exact rational arithmetic for `panda-rs`.
//!
//! The information-theoretic side of the PANDA framework (polymatroid
//! bounds, fractional hypertree width, submodular width, Shannon-flow
//! inequalities) produces values such as `3/2` or `(4ω−1)/(2ω+1)` and dual
//! certificates whose coefficients must be *exact* so they can be turned
//! into integral proof sequences (Section 7 of the paper).  Floating point
//! is not acceptable there, so every linear program in the workspace is
//! solved over [`Rat`], a reduced fraction of two `i128` integers.
//!
//! The arithmetic is widening-checked: intermediate products are computed
//! in `i128` and the crate panics (with a descriptive message) on overflow
//! rather than silently wrapping.  The query sizes in the paper (at most a
//! handful of variables, hence LPs with a few hundred rows) stay far away
//! from these limits.
//!
//! The values themselves are small — log-statistics are `k/10⁶`, and the
//! simplex's entries are small fractions — so the reductions run in 64
//! bits whenever their operands fit: [`gcd`] is a binary gcd in `u64`
//! (in `u128` only for wider operands), the divisions by it are `i64`
//! divisions, a sum over one denominator skips the lcm, and a product
//! of two reduced fractions needs no gcd beyond its two cross gcds.  The
//! representation and every overflow check stay `i128`.

// Every public item in this crate must be documented; broken or missing
// docs fail CI via the `cargo doc` job (RUSTDOCFLAGS="-D warnings").
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod rat;

pub use rat::{ParseRatError, Rat};

/// Computes the greatest common divisor of two integers, which is always
/// non-negative.
///
/// `gcd(0, 0)` is defined as `0` so that normalising the zero fraction is a
/// no-op.  The magnitudes are taken with `unsigned_abs`, so `i128::MIN` is
/// an ordinary operand: `gcd(i128::MIN, 6) == 2`.
///
/// # Panics
///
/// Panics if the result is `2¹²⁷`, which `i128` cannot hold: that is
/// `gcd(i128::MIN, 0)` and `gcd(i128::MIN, i128::MIN)`.
#[must_use]
pub fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.unsigned_abs(), b.unsigned_abs());
    if a < b {
        std::mem::swap(&mut a, &mut b);
    }
    // One Euclid step brings a wide `a` under a narrow `b`, so a gcd
    // with one 64-bit operand runs in 64 bits.
    if b != 0 && a > u128::from(u64::MAX) && b <= u128::from(u64::MAX) {
        a %= b;
    }
    let g = match (u64::try_from(a), u64::try_from(b)) {
        (_, Ok(1)) => 1,
        (Ok(a), Ok(b)) => u128::from(binary_gcd_u64(a, b)),
        _ => binary_gcd_u128(a, b),
    };
    // panda-lint: allow(P1) -- 2^127 is the one gcd i128 cannot hold.
    i128::try_from(g).expect("gcd overflow: the result is 2^127")
}

/// Stein's binary gcd on one unsigned width: shifts and subtractions, no
/// division.
macro_rules! binary_gcd {
    ($name:ident, $t:ty) => {
        fn $name(mut a: $t, mut b: $t) -> $t {
            if a == 0 || b == 0 {
                return a | b;
            }
            let shift = (a | b).trailing_zeros();
            a >>= a.trailing_zeros();
            loop {
                b >>= b.trailing_zeros();
                if a > b {
                    std::mem::swap(&mut a, &mut b);
                }
                b -= a;
                if b == 0 {
                    return a << shift;
                }
            }
        }
    };
}

binary_gcd!(binary_gcd_u64, u64);
binary_gcd!(binary_gcd_u128, u128);

/// Computes the least common multiple of two non-negative integers.
///
/// # Panics
///
/// Panics if the result overflows `i128`.
#[must_use]
pub fn lcm(a: i128, b: i128) -> i128 {
    if a == 0 || b == 0 {
        return 0;
    }
    let g = gcd(a, b);
    // panda-lint: allow(P1) -- deliberate loud overflow guard: exact
    // rational arithmetic must abort on overflow, never wrap silently.
    (a / g).checked_mul(b).expect("lcm overflow").abs()
}

/// Returns the least common multiple of the denominators of a slice of
/// rationals.  Used to convert rational Shannon-flow inequalities into
/// integral ones (Section 7 of the paper).
#[must_use]
pub fn common_denominator(values: &[Rat]) -> i128 {
    values.iter().fold(1i128, |acc, v| lcm(acc, v.denom()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_basic() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(5, 0), 5);
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(gcd(-12, 18), 6);
        assert_eq!(gcd(17, 13), 1);
    }

    #[test]
    fn gcd_handles_i128_min_and_mixed_widths() {
        assert_eq!(gcd(i128::MIN, 6), 2);
        assert_eq!(gcd(6, i128::MIN), 2);
        assert_eq!(gcd(i128::MIN, i128::MAX), 1);
        assert_eq!(gcd(i128::MIN, 1 << 100), 1 << 100);
        assert_eq!(gcd(-(1 << 100), 1 << 70), 1 << 70);
        assert_eq!(gcd((1 << 90) * 3, 9), 3);
        assert_eq!(gcd(i128::from(u64::MAX) * 5, i128::from(u64::MAX)), i128::from(u64::MAX));
    }

    #[test]
    #[should_panic(expected = "gcd overflow")]
    fn gcd_of_i128_min_and_zero_overflows_loudly() {
        let _ = gcd(i128::MIN, 0);
    }

    #[test]
    fn lcm_basic() {
        assert_eq!(lcm(4, 6), 12);
        assert_eq!(lcm(0, 6), 0);
        assert_eq!(lcm(7, 3), 21);
        assert_eq!(lcm(-4, 6), 12);
    }

    #[test]
    fn common_denominator_of_halves_and_thirds() {
        let v = [Rat::new(1, 2), Rat::new(2, 3), Rat::from_int(4)];
        assert_eq!(common_denominator(&v), 6);
    }

    #[test]
    fn common_denominator_empty_is_one() {
        assert_eq!(common_denominator(&[]), 1);
    }
}
