//! The [`Rat`] type: a reduced `i128 / i128` fraction.

// panda-lint: allow-file(P1) -- the checked_*/expect pairs are the
// crate's deliberate loud-overflow policy: exact rational arithmetic
// must abort rather than wrap into a wrong optimum.

use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

use crate::gcd;

/// An exact rational number stored as a reduced fraction with a strictly
/// positive denominator.
///
/// `Rat` implements the usual arithmetic operators, total ordering and
/// parsing from strings of the form `"3"`, `"-3/2"` or `"0.75"` is *not*
/// supported (decimal notation is ambiguous for our purposes); use
/// [`Rat::new`] or [`Rat::from_int`] instead.
///
/// # Examples
///
/// ```
/// use panda_rational::Rat;
///
/// let half = Rat::new(1, 2);
/// let third = Rat::new(1, 3);
/// assert_eq!(half + third, Rat::new(5, 6));
/// assert_eq!((half * Rat::from_int(3)).to_string(), "3/2");
/// assert!(half > third);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rat {
    num: i128,
    den: i128,
}

impl Rat {
    /// The rational number zero.
    pub const ZERO: Rat = Rat { num: 0, den: 1 };
    /// The rational number one.
    pub const ONE: Rat = Rat { num: 1, den: 1 };

    /// Creates a new rational `num / den`, reducing to lowest terms.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    #[must_use]
    pub fn new(num: i128, den: i128) -> Self {
        assert!(den != 0, "Rat denominator must be non-zero");
        let (num, den) = if den < 0 { (-num, -den) } else { (num, den) };
        let g = gcd(num, den);
        if g > 1 {
            Rat { num: quot(num, g), den: quot(den, g) }
        } else {
            Rat { num, den }
        }
    }

    /// Creates a rational from an integer.
    #[must_use]
    pub const fn from_int(v: i128) -> Self {
        Rat { num: v, den: 1 }
    }

    /// Creates a rational from an **already reduced** numerator/denominator
    /// pair with a strictly positive denominator, usable in `const`
    /// contexts.
    ///
    /// Equality and hashing on [`Rat`] assume lowest terms, so passing a
    /// non-reduced fraction here is a logic error; use [`Rat::new`] at
    /// runtime when in doubt.
    ///
    /// # Panics
    ///
    /// Panics (at compile time in const contexts) if `den <= 0`.
    #[must_use]
    pub const fn const_new(num: i128, den: i128) -> Self {
        assert!(den > 0, "Rat::const_new requires a positive denominator");
        Rat { num, den }
    }

    /// The (reduced) numerator; carries the sign of the value.
    #[must_use]
    pub const fn numer(&self) -> i128 {
        self.num
    }

    /// The (reduced) denominator; always strictly positive.
    #[must_use]
    pub const fn denom(&self) -> i128 {
        self.den
    }

    /// Returns `true` iff the value is zero.
    #[must_use]
    pub const fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// Returns `true` iff the value is strictly positive.
    #[must_use]
    pub const fn is_positive(&self) -> bool {
        self.num > 0
    }

    /// Returns `true` iff the value is strictly negative.
    #[must_use]
    pub const fn is_negative(&self) -> bool {
        self.num < 0
    }

    /// Returns `true` iff the value is an integer.
    #[must_use]
    pub const fn is_integer(&self) -> bool {
        self.den == 1
    }

    /// The absolute value.
    #[must_use]
    pub fn abs(&self) -> Self {
        Rat { num: self.num.abs(), den: self.den }
    }

    /// The multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero.
    #[must_use]
    pub fn recip(&self) -> Self {
        assert!(self.num != 0, "cannot invert zero");
        // Swapping the fields of a reduced fraction keeps it reduced; only
        // the sign has to move back to the numerator.
        if self.num < 0 {
            Rat { num: -self.den, den: -self.num }
        } else {
            Rat { num: self.den, den: self.num }
        }
    }

    /// Converts to `f64`.  Exact for small fractions; used only for
    /// reporting and plotting, never inside the LP pivoting.
    #[must_use]
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Rounds towards negative infinity to an integer.
    #[must_use]
    pub fn floor(&self) -> i128 {
        if self.num >= 0 {
            self.num / self.den
        } else {
            -((-self.num + self.den - 1) / self.den)
        }
    }

    /// Rounds towards positive infinity to an integer.
    #[must_use]
    pub fn ceil(&self) -> i128 {
        -(-*self).floor()
    }

    /// The smaller of two rationals.
    #[must_use]
    pub fn min(self, other: Self) -> Self {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The larger of two rationals.
    #[must_use]
    pub fn max(self, other: Self) -> Self {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Checked addition used internally; panics with context on overflow.
    fn add_impl(self, rhs: Self) -> Self {
        if rhs.num == 0 {
            return self;
        }
        if self.num == 0 {
            return rhs;
        }
        if self.den == rhs.den {
            // a/b + c/b: the lcm is b itself.
            let num = self.num.checked_add(rhs.num).expect("Rat addition overflow (numerator)");
            return Rat::new(num, self.den);
        }
        // a/b + c/d = (a*(l/b) + c*(l/d)) / l with l = lcm(b, d) keeps the
        // intermediates as small as possible; l/b = d/g and l/d = b/g.
        let g = gcd(self.den, rhs.den);
        let lhs_scale = quot(rhs.den, g);
        let rhs_scale = quot(self.den, g);
        let l = rhs_scale.checked_mul(rhs.den).expect("Rat addition overflow (denominator)");
        let num = self
            .num
            .checked_mul(lhs_scale)
            .and_then(|a| rhs.num.checked_mul(rhs_scale).and_then(|b| a.checked_add(b)))
            .expect("Rat addition overflow (numerator)");
        Rat::new(num, l)
    }

    fn mul_impl(self, rhs: Self) -> Self {
        if self.num == 0 || rhs.num == 0 {
            return Rat::ZERO;
        }
        // Cross-reduce before multiplying to keep intermediates small.
        // Both operands are in lowest terms, so once the cross gcds are
        // divided out the product is too: no third gcd.
        let g1 = gcd(self.num, rhs.den);
        let g2 = gcd(rhs.num, self.den);
        let num = quot(self.num, g1)
            .checked_mul(quot(rhs.num, g2))
            .expect("Rat multiplication overflow (numerator)");
        let den = quot(self.den, g2)
            .checked_mul(quot(rhs.den, g1))
            .expect("Rat multiplication overflow (denominator)");
        Rat { num, den }
    }
}

/// `a / g` for a positive divisor `g`, in `i64` when both operands fit:
/// an `i128` division is a library call, an `i64` one an instruction.
fn quot(a: i128, g: i128) -> i128 {
    match (i64::try_from(a), i64::try_from(g)) {
        (Ok(a), Ok(g)) => i128::from(a / g),
        _ => a / g,
    }
}

impl Default for Rat {
    fn default() -> Self {
        Rat::ZERO
    }
}

impl fmt::Debug for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl From<i128> for Rat {
    fn from(v: i128) -> Self {
        Rat::from_int(v)
    }
}

impl From<i64> for Rat {
    fn from(v: i64) -> Self {
        Rat::from_int(v as i128)
    }
}

impl From<i32> for Rat {
    fn from(v: i32) -> Self {
        Rat::from_int(v as i128)
    }
}

impl From<u32> for Rat {
    fn from(v: u32) -> Self {
        Rat::from_int(v as i128)
    }
}

impl From<usize> for Rat {
    fn from(v: usize) -> Self {
        Rat::from_int(v as i128)
    }
}

/// Error returned when parsing a [`Rat`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRatError {
    message: String,
}

impl fmt::Display for ParseRatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid rational: {}", self.message)
    }
}

impl std::error::Error for ParseRatError {}

impl FromStr for Rat {
    type Err = ParseRatError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        let (num_str, den_str) = match s.split_once('/') {
            Some((n, d)) => (n.trim(), Some(d.trim())),
            None => (s, None),
        };
        let num: i128 = num_str
            .parse()
            .map_err(|_| ParseRatError { message: format!("bad numerator in `{s}`") })?;
        let den: i128 = match den_str {
            Some(d) => d
                .parse()
                .map_err(|_| ParseRatError { message: format!("bad denominator in `{s}`") })?,
            None => 1,
        };
        if den == 0 {
            return Err(ParseRatError { message: format!("zero denominator in `{s}`") });
        }
        Ok(Rat::new(num, den))
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rat {
    fn cmp(&self, other: &Self) -> Ordering {
        // Compare a/b and c/d via a*d vs c*b (denominators positive).
        let lhs = self.num.checked_mul(other.den).expect("Rat comparison overflow");
        let rhs = other.num.checked_mul(self.den).expect("Rat comparison overflow");
        lhs.cmp(&rhs)
    }
}

impl Add for Rat {
    type Output = Rat;
    fn add(self, rhs: Rat) -> Rat {
        self.add_impl(rhs)
    }
}

impl Sub for Rat {
    type Output = Rat;
    fn sub(self, rhs: Rat) -> Rat {
        self.add_impl(-rhs)
    }
}

impl Mul for Rat {
    type Output = Rat;
    fn mul(self, rhs: Rat) -> Rat {
        self.mul_impl(rhs)
    }
}

impl Div for Rat {
    type Output = Rat;
    fn div(self, rhs: Rat) -> Rat {
        self.mul_impl(rhs.recip())
    }
}

impl Neg for Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        Rat { num: -self.num, den: self.den }
    }
}

impl AddAssign for Rat {
    fn add_assign(&mut self, rhs: Rat) {
        *self = *self + rhs;
    }
}

impl SubAssign for Rat {
    fn sub_assign(&mut self, rhs: Rat) {
        *self = *self - rhs;
    }
}

impl MulAssign for Rat {
    fn mul_assign(&mut self, rhs: Rat) {
        *self = *self * rhs;
    }
}

impl DivAssign for Rat {
    fn div_assign(&mut self, rhs: Rat) {
        *self = *self / rhs;
    }
}

impl Sum for Rat {
    fn sum<I: Iterator<Item = Rat>>(iter: I) -> Rat {
        iter.fold(Rat::ZERO, |acc, v| acc + v)
    }
}

impl<'a> Sum<&'a Rat> for Rat {
    fn sum<I: Iterator<Item = &'a Rat>>(iter: I) -> Rat {
        iter.fold(Rat::ZERO, |acc, v| acc + *v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_reduces() {
        assert_eq!(Rat::new(2, 4), Rat::new(1, 2));
        assert_eq!(Rat::new(-2, -4), Rat::new(1, 2));
        assert_eq!(Rat::new(2, -4), Rat::new(-1, 2));
        assert_eq!(Rat::new(0, 7), Rat::ZERO);
    }

    #[test]
    #[should_panic(expected = "denominator")]
    fn zero_denominator_panics() {
        let _ = Rat::new(1, 0);
    }

    #[test]
    fn arithmetic_matches_hand_computed_values() {
        let a = Rat::new(3, 4);
        let b = Rat::new(5, 6);
        assert_eq!(a + b, Rat::new(19, 12));
        assert_eq!(a - b, Rat::new(-1, 12));
        assert_eq!(a * b, Rat::new(5, 8));
        assert_eq!(a / b, Rat::new(9, 10));
        assert_eq!(-a, Rat::new(-3, 4));
    }

    #[test]
    fn ordering_is_by_value() {
        assert!(Rat::new(1, 2) < Rat::new(2, 3));
        assert!(Rat::new(-1, 2) < Rat::ZERO);
        assert!(Rat::new(7, 7) == Rat::ONE);
        assert_eq!(Rat::new(5, 3).max(Rat::new(3, 2)), Rat::new(5, 3));
        assert_eq!(Rat::new(5, 3).min(Rat::new(3, 2)), Rat::new(3, 2));
    }

    #[test]
    fn floor_and_ceil() {
        assert_eq!(Rat::new(7, 2).floor(), 3);
        assert_eq!(Rat::new(7, 2).ceil(), 4);
        assert_eq!(Rat::new(-7, 2).floor(), -4);
        assert_eq!(Rat::new(-7, 2).ceil(), -3);
        assert_eq!(Rat::from_int(5).floor(), 5);
        assert_eq!(Rat::from_int(5).ceil(), 5);
    }

    #[test]
    fn display_and_parse_round_trip() {
        for s in ["0", "5", "-5", "3/2", "-3/2", "7/3"] {
            let r: Rat = s.parse().unwrap();
            assert_eq!(r.to_string(), s);
        }
        assert!("1/0".parse::<Rat>().is_err());
        assert!("abc".parse::<Rat>().is_err());
        assert_eq!("  4/6 ".parse::<Rat>().unwrap(), Rat::new(2, 3));
    }

    #[test]
    fn recip_and_integer_checks() {
        assert_eq!(Rat::new(3, 5).recip(), Rat::new(5, 3));
        assert!(Rat::from_int(4).is_integer());
        assert!(!Rat::new(1, 2).is_integer());
        assert!(Rat::new(1, 2).is_positive());
        assert!(Rat::new(-1, 2).is_negative());
        assert!(Rat::ZERO.is_zero());
    }

    #[test]
    fn sum_over_iterator() {
        let v = vec![Rat::new(1, 2), Rat::new(1, 3), Rat::new(1, 6)];
        let total: Rat = v.iter().sum();
        assert_eq!(total, Rat::ONE);
        let total2: Rat = v.into_iter().sum();
        assert_eq!(total2, Rat::ONE);
    }

    #[test]
    fn to_f64_matches() {
        assert!((Rat::new(3, 2).to_f64() - 1.5).abs() < 1e-12);
        assert!((Rat::new(-1, 4).to_f64() + 0.25).abs() < 1e-12);
    }

    #[test]
    fn negative_recip_moves_the_sign_to_the_numerator() {
        let r = Rat::new(-3, 5).recip();
        assert_eq!((r.numer(), r.denom()), (-5, 3));
        assert_eq!(Rat::new(-1, 7).recip(), Rat::from_int(-7));
    }

    #[test]
    fn parsing_i128_min_gives_a_reduced_fraction() {
        let r: Rat = "-170141183460469231731687303715884105728/6".parse().unwrap();
        assert_eq!(r, Rat::new(-(1 << 126), 3));
        assert_eq!((r.numer(), r.denom()), (-(1 << 126), 3));
    }

    #[test]
    #[should_panic(expected = "Rat addition overflow (numerator)")]
    fn addition_overflow_over_one_denominator_panics() {
        let _ = Rat::from_int(i128::MAX) + Rat::ONE;
    }

    #[test]
    #[should_panic(expected = "Rat addition overflow (denominator)")]
    fn addition_overflow_of_the_lcm_panics() {
        let _ = Rat::new(1, 1 << 100) + Rat::new(1, (1 << 100) - 1);
    }

    #[test]
    #[should_panic(expected = "Rat multiplication overflow (numerator)")]
    fn multiplication_overflow_of_the_numerator_panics() {
        let _ = Rat::from_int(1 << 100) * Rat::from_int(1 << 100);
    }

    #[test]
    #[should_panic(expected = "Rat multiplication overflow (denominator)")]
    fn multiplication_overflow_of_the_denominator_panics() {
        let _ = Rat::new(1, 1 << 100) * Rat::new(1, (1 << 100) - 1);
    }

    /// The arithmetic before the 64-bit fast paths, kept as the oracle for
    /// the differential property below: Euclid's gcd on `i128`, the lcm in
    /// every sum, and a reducing constructor after every product.
    mod oracle {
        use super::Rat;

        pub(super) fn gcd(mut a: i128, mut b: i128) -> i128 {
            a = a.abs();
            b = b.abs();
            while b != 0 {
                let t = a % b;
                a = b;
                b = t;
            }
            a
        }

        pub(super) fn new(num: i128, den: i128) -> Rat {
            assert!(den != 0, "Rat denominator must be non-zero");
            let mut num = num;
            let mut den = den;
            if den < 0 {
                num = -num;
                den = -den;
            }
            let g = gcd(num, den);
            if g > 1 {
                num /= g;
                den /= g;
            }
            Rat { num, den }
        }

        pub(super) fn add(x: Rat, y: Rat) -> Rat {
            let g = gcd(x.den, y.den);
            let l = (x.den / g).checked_mul(y.den).expect("Rat addition overflow (denominator)");
            let lhs_scale = l / x.den;
            let rhs_scale = l / y.den;
            let num = x
                .num
                .checked_mul(lhs_scale)
                .and_then(|a| y.num.checked_mul(rhs_scale).and_then(|b| a.checked_add(b)))
                .expect("Rat addition overflow (numerator)");
            new(num, l)
        }

        pub(super) fn mul(x: Rat, y: Rat) -> Rat {
            let g1 = gcd(x.num, y.den);
            let g2 = gcd(y.num, x.den);
            let num = (x.num / g1)
                .checked_mul(y.num / g2)
                .expect("Rat multiplication overflow (numerator)");
            let den = (x.den / g2)
                .checked_mul(y.den / g1)
                .expect("Rat multiplication overflow (denominator)");
            new(num, den)
        }

        pub(super) fn recip(x: Rat) -> Rat {
            assert!(x.num != 0, "cannot invert zero");
            new(x.den, x.num)
        }
    }

    /// Runs `f`, turning a panic into its message so that both sides of a
    /// differential check must fail alike.
    fn outcome(f: impl FnOnce() -> Rat + std::panic::UnwindSafe) -> Result<Rat, String> {
        std::panic::catch_unwind(f).map_err(|payload| {
            payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_default()
        })
    }

    /// A non-zero integer from one of six bands: small; just around 2⁶³;
    /// just around 2⁶⁴; up to 2¹⁰⁰; a multiple of 2⁵²; a multiple of 3²⁰.
    fn banded() -> impl Strategy<Value = i128> {
        (0u8..6, -(1i128 << 20)..(1 << 20), -(1i128 << 100)..(1 << 100)).prop_map(
            |(band, k, wide)| {
                let magnitude = match band {
                    0 => k.abs() % 1000,
                    1 => (1 << 63) + k % 64,
                    2 => (1 << 64) + k % 64,
                    3 => wide.abs(),
                    4 => (k.abs() % 4096) << 52,
                    _ => (k.abs() % 1000) * 3_486_784_401,
                };
                let value = if wide < 0 { -magnitude } else { magnitude };
                if value == 0 {
                    1
                } else {
                    value
                }
            },
        )
    }

    /// A rational built from two banded integers, by both constructors.
    fn banded_rat() -> impl Strategy<Value = Rat> {
        (banded(), banded()).prop_map(|(n, d)| {
            let r = Rat::new(n, d);
            assert_eq!(r, oracle::new(n, d), "new({n}, {d})");
            r
        })
    }

    fn small_rat() -> impl Strategy<Value = Rat> {
        (-1000i128..1000, 1i128..1000).prop_map(|(n, d)| Rat::new(n, d))
    }

    proptest! {
        #[test]
        fn prop_gcd_matches_euclid(a in banded(), b in banded()) {
            prop_assert_eq!(crate::gcd(a, b), oracle::gcd(a, b));
            prop_assert_eq!(crate::gcd(a, 0), oracle::gcd(a, 0));
        }

        #[test]
        fn prop_arithmetic_matches_the_oracle(x in banded_rat(), y in banded_rat(), same_den in 0u8..2) {
            // Half the cases share one denominator, the `a/b + c/b` path;
            // `1 + k·b` is coprime to `b`, so the fraction is reduced.
            let y = if same_den == 0 { y } else { Rat { num: 1 + (y.num % 1000) * x.den, den: x.den } };
            prop_assert_eq!(outcome(|| x + y), outcome(|| oracle::add(x, y)));
            prop_assert_eq!(outcome(|| x - y), outcome(|| oracle::add(x, -y)));
            prop_assert_eq!(outcome(|| x * y), outcome(|| oracle::mul(x, y)));
            prop_assert_eq!(outcome(|| x / y), outcome(|| oracle::mul(x, oracle::recip(y))));
            prop_assert_eq!(x.recip(), oracle::recip(x));
            prop_assert_eq!((-x).recip(), oracle::recip(-x));
        }
    }

    proptest! {
        #[test]
        fn prop_add_commutative(a in small_rat(), b in small_rat()) {
            prop_assert_eq!(a + b, b + a);
        }

        #[test]
        fn prop_add_associative(a in small_rat(), b in small_rat(), c in small_rat()) {
            prop_assert_eq!((a + b) + c, a + (b + c));
        }

        #[test]
        fn prop_mul_distributes_over_add(a in small_rat(), b in small_rat(), c in small_rat()) {
            prop_assert_eq!(a * (b + c), a * b + a * c);
        }

        #[test]
        fn prop_sub_then_add_round_trips(a in small_rat(), b in small_rat()) {
            prop_assert_eq!(a - b + b, a);
        }

        #[test]
        fn prop_div_then_mul_round_trips(a in small_rat(), b in small_rat()) {
            prop_assume!(!b.is_zero());
            prop_assert_eq!(a / b * b, a);
        }

        #[test]
        fn prop_ordering_consistent_with_f64(a in small_rat(), b in small_rat()) {
            if a < b {
                prop_assert!(a.to_f64() <= b.to_f64());
            }
        }

        #[test]
        fn prop_floor_le_value_le_ceil(a in small_rat()) {
            prop_assert!(Rat::from_int(a.floor()) <= a);
            prop_assert!(a <= Rat::from_int(a.ceil()));
        }
    }
}
