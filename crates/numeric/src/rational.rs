//! Exact rational numbers, always kept in lowest terms.
//!
//! [`Rational`] is the numeric type used across the workspace for weights,
//! α-ratios, allocations and utilities. Invariants:
//!
//! * denominator is strictly positive,
//! * `gcd(|numerator|, denominator) == 1`,
//! * zero is represented as `0/1`.
//!
//! Word path: when both operands' numerators and denominators are below
//! 2⁶³, `+`, `-`, `*`, `/` and comparison run on `i128`/`u128`. Cross
//! products then stay below 2¹²⁶ and cross sums below 2¹²⁷, so nothing can
//! overflow; larger operands take the limb kernels. A rational in lowest
//! terms has one representation, so both paths return identical values.

use crate::bigint::{BigInt, Sign};
use crate::biguint::BigUint;
use crate::gcd::{gcd, gcd_u128, gcd_u64};
use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// An exact rational number `num / den` in lowest terms, `den > 0`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Rational {
    num: BigInt,
    den: BigUint,
}

/// Bit bound of the word path: numerators and denominators below 2⁶³.
const WORD_PATH_BITS: u32 = 63;

/// A word-path operand: `±num/den` with `num, den < 2⁶³`, `den > 0`.
#[derive(Clone, Copy)]
struct Words {
    neg: bool,
    num: u64,
    den: u64,
}

impl Words {
    /// The signed numerator (`|·| < 2⁶³`).
    fn signed_num(self) -> i128 {
        let n = i128::from(self.num);
        if self.neg {
            -n
        } else {
            n
        }
    }

    /// `a/b + c/d = (a·d + c·b)/(b·d)`: `|a·d + c·b| < 2¹²⁷`, `b·d < 2¹²⁶`.
    fn add(self, rhs: Words) -> Rational {
        let num = self.signed_num() * i128::from(rhs.den) + rhs.signed_num() * i128::from(self.den);
        let den = u128::from(self.den) * u128::from(rhs.den);
        let sign = match num.cmp(&0) {
            Ordering::Less => Sign::Minus,
            Ordering::Equal => return Rational::zero(),
            Ordering::Greater => Sign::Plus,
        };
        Rational::reduced(sign, num.unsigned_abs(), den)
    }

    /// Cross-reduced product, as on the limb path; both factors stay below
    /// 2⁶³, so the product is below 2¹²⁶ and already in lowest terms.
    fn mul(self, rhs: Words) -> Rational {
        let g1 = gcd_u64(self.num, rhs.den);
        let g2 = gcd_u64(rhs.num, self.den);
        let num = u128::from(self.num / g1) * u128::from(rhs.num / g2);
        if num == 0 {
            return Rational::zero();
        }
        let den = u128::from(self.den / g2) * u128::from(rhs.den / g1);
        let sign = if self.neg == rhs.neg {
            Sign::Plus
        } else {
            Sign::Minus
        };
        Rational {
            num: BigInt::from_parts(sign, BigUint::from(num)),
            den: BigUint::from(den),
        }
    }

    fn neg(self) -> Words {
        Words {
            neg: !self.neg,
            ..self
        }
    }

    /// Panics on zero, like [`Rational::recip`].
    fn recip(self) -> Words {
        assert!(self.num != 0, "reciprocal of zero");
        Words {
            neg: self.neg,
            num: self.den,
            den: self.num,
        }
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::zero()
    }
}

impl Rational {
    /// The value zero (`0/1`).
    pub fn zero() -> Self {
        Rational {
            num: BigInt::zero(),
            den: BigUint::one(),
        }
    }

    /// The value one (`1/1`).
    pub fn one() -> Self {
        Rational {
            num: BigInt::one(),
            den: BigUint::one(),
        }
    }

    /// Build `n/d` from machine integers. Panics if `d == 0`.
    pub fn from_ratio(n: i64, d: i64) -> Self {
        assert!(d != 0, "zero denominator");
        let neg = (n < 0) != (d < 0);
        let num_mag = BigUint::from(n.unsigned_abs());
        let den = BigUint::from(d.unsigned_abs());
        let sign = if n == 0 {
            Sign::NoSign
        } else if neg {
            Sign::Minus
        } else {
            Sign::Plus
        };
        Rational::new(BigInt::from_parts(sign, num_mag), den)
    }

    /// Build from an integer.
    pub fn from_integer(n: i64) -> Self {
        Rational {
            num: BigInt::from(n),
            den: BigUint::one(),
        }
    }

    /// Build `num/den` from big values, reducing to lowest terms.
    /// Panics if `den == 0`.
    pub fn new(num: BigInt, den: BigUint) -> Self {
        assert!(!den.is_zero(), "zero denominator");
        if num.is_zero() {
            return Rational::zero();
        }
        if let (Some(n), Some(d)) = (num.magnitude().to_u128(), den.to_u128()) {
            return Rational::reduced(num.sign(), n, d);
        }
        let g = gcd(num.magnitude(), &den);
        if g.is_one() {
            Rational { num, den }
        } else {
            let sign = num.sign();
            let nm = num.into_magnitude();
            Rational {
                num: BigInt::from_parts(sign, &nm / &g),
                den: &den / &g,
            }
        }
    }

    /// `sign · n/d` in lowest terms, for nonzero machine words `n`, `d`.
    fn reduced(sign: Sign, n: u128, d: u128) -> Rational {
        let g = if d == 1 { 1 } else { gcd_u128(n, d) };
        let (n, d) = if g == 1 { (n, d) } else { (n / g, d / g) };
        Rational {
            num: BigInt::from_parts(sign, BigUint::from(n)),
            den: BigUint::from(d),
        }
    }

    /// The word-path form, when numerator and denominator are below 2⁶³.
    #[inline]
    fn words(&self) -> Option<Words> {
        let num = self.num.magnitude().to_u64()?;
        let den = self.den.to_u64()?;
        ((num | den) >> WORD_PATH_BITS == 0).then_some(Words {
            neg: self.num.is_negative(),
            num,
            den,
        })
    }

    /// Build from a signed big numerator and signed big denominator.
    pub fn from_bigints(num: BigInt, den: BigInt) -> Self {
        assert!(!den.is_zero(), "zero denominator");
        let flip = den.is_negative();
        let r = Rational::new(num, den.into_magnitude());
        if flip {
            -r
        } else {
            r
        }
    }

    /// Numerator (signed, lowest terms).
    #[inline]
    pub fn numer(&self) -> &BigInt {
        &self.num
    }

    /// Denominator (positive, lowest terms).
    #[inline]
    pub fn denom(&self) -> &BigUint {
        &self.den
    }

    /// True iff zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.num.is_zero()
    }

    /// True iff strictly positive.
    #[inline]
    pub fn is_positive(&self) -> bool {
        self.num.is_positive()
    }

    /// True iff strictly negative.
    #[inline]
    pub fn is_negative(&self) -> bool {
        self.num.is_negative()
    }

    /// True iff the value is an integer (denominator 1).
    pub fn is_integer(&self) -> bool {
        self.den.is_one()
    }

    /// Absolute value.
    pub fn abs(&self) -> Rational {
        Rational {
            num: self.num.abs(),
            den: self.den.clone(),
        }
    }

    /// Multiplicative inverse. Panics on zero.
    pub fn recip(&self) -> Rational {
        assert!(!self.is_zero(), "reciprocal of zero");
        let sign = self.num.sign();
        Rational {
            num: BigInt::from_parts(sign, self.den.clone()),
            den: self.num.magnitude().clone(),
        }
    }

    /// `self^exp` for integer exponents (negative exponent inverts; panics on
    /// zero base with negative exponent).
    pub fn pow(&self, exp: i32) -> Rational {
        if exp == 0 {
            return Rational::one();
        }
        let base = if exp < 0 { self.recip() } else { self.clone() };
        let e = exp.unsigned_abs();
        let num = base.num.pow(e);
        let den = base.den.pow(e);
        // Already coprime, so no reduction needed.
        Rational { num, den }
    }

    /// `√self` when it is rational (numerator and denominator in lowest
    /// terms both perfect squares), else `None`; negative values give
    /// `None`.
    pub fn sqrt_exact(&self) -> Option<Rational> {
        if self.is_negative() {
            return None;
        }
        let root = |m: &BigUint| {
            let r = m.isqrt();
            (&r * &r == *m).then_some(r)
        };
        Some(Rational {
            num: BigInt::from_parts(Sign::Plus, root(self.num.magnitude())?),
            den: root(&self.den)?,
        })
    }

    /// Midpoint of `self` and `other`.
    pub fn midpoint(&self, other: &Rational) -> Rational {
        &(self + other) / &Rational::from_integer(2)
    }

    /// Smaller of the two (by value).
    pub fn min(self, other: Rational) -> Rational {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Larger of the two (by value).
    pub fn max(self, other: Rational) -> Rational {
        if self >= other {
            self
        } else {
            other
        }
    }

    // prs-lint: allow(float, cast, reason = "sanctioned exact→float bridge; bit-length casts stay far below i64/u32 range for any representable value")
    /// Best-effort `f64` conversion (exact when representable).
    pub fn to_f64(&self) -> f64 {
        if self.is_zero() {
            return 0.0;
        }
        let n_bits = self.num.magnitude().bit_len() as i64;
        let d_bits = self.den.bit_len() as i64;
        // Scale so the integer quotient carries ~80 significant bits.
        let shift = (80 - (n_bits - d_bits)).max(0) as u32;
        let scaled = self.num.magnitude() << shift;
        let (q, _) = scaled.div_rem(&self.den);
        let val = q.to_f64() / 2f64.powi(shift as i32);
        if self.num.is_negative() {
            -val
        } else {
            val
        }
    }

    // prs-lint: allow(float, cast, reason = "the float→exact direction is lossless by IEEE-754 construction; exponent casts are bounded by the 11-bit field")
    /// Exact conversion from an `f64` (every finite float is a dyadic
    /// rational). Panics on NaN/∞.
    pub fn from_f64(v: f64) -> Rational {
        assert!(v.is_finite(), "cannot convert non-finite f64");
        if v == 0.0 {
            return Rational::zero();
        }
        let bits = v.to_bits();
        let sign = if bits >> 63 == 1 { -1i64 } else { 1 };
        let exp = ((bits >> 52) & 0x7ff) as i64;
        let frac = bits & ((1u64 << 52) - 1);
        let (mantissa, e2) = if exp == 0 {
            (frac, -1074i64) // subnormal
        } else {
            (frac | (1u64 << 52), exp - 1075)
        };
        let m = BigInt::from_parts(
            if sign < 0 { Sign::Minus } else { Sign::Plus },
            BigUint::from(mantissa),
        );
        if e2 >= 0 {
            Rational {
                num: BigInt::from_parts(m.sign(), m.magnitude() << e2 as u32),
                den: BigUint::one(),
            }
        } else {
            Rational::new(m, &BigUint::one() << (-e2) as u32)
        }
    }
}

// ---- conversions -------------------------------------------------------------

impl From<i64> for Rational {
    fn from(v: i64) -> Self {
        Rational::from_integer(v)
    }
}

impl From<u32> for Rational {
    fn from(v: u32) -> Self {
        Rational::from_integer(i64::from(v))
    }
}

impl From<BigInt> for Rational {
    fn from(num: BigInt) -> Self {
        Rational {
            num,
            den: BigUint::one(),
        }
    }
}

impl From<BigUint> for Rational {
    fn from(mag: BigUint) -> Self {
        Rational {
            num: BigInt::from(mag),
            den: BigUint::one(),
        }
    }
}

// ---- comparison ----------------------------------------------------------------

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        if let (Some(a), Some(b)) = (self.words(), other.words()) {
            // |a·d|, |c·b| < 2¹²⁶.
            let lhs = a.signed_num() * i128::from(b.den);
            let rhs = b.signed_num() * i128::from(a.den);
            return lhs.cmp(&rhs);
        }
        // Compare signs first to skip the cross-multiplication when possible.
        fn rank(s: Sign) -> i8 {
            match s {
                Sign::Minus => -1,
                Sign::NoSign => 0,
                Sign::Plus => 1,
            }
        }
        match rank(self.num.sign()).cmp(&rank(other.num.sign())) {
            Ordering::Equal => {
                if self.num.is_zero() {
                    return Ordering::Equal;
                }
                // a/b vs c/d  (b,d > 0)  ⇔  a·d vs c·b
                let lhs = self.num.magnitude() * &other.den;
                let rhs = other.num.magnitude() * &self.den;
                let mag_ord = lhs.cmp(&rhs);
                if self.num.is_negative() {
                    mag_ord.reverse()
                } else {
                    mag_ord
                }
            }
            ord => ord,
        }
    }
}

// ---- arithmetic -------------------------------------------------------------------

impl Neg for &Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational {
            num: -&self.num,
            den: self.den.clone(),
        }
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational {
            num: -self.num,
            den: self.den,
        }
    }
}

impl Add<&Rational> for &Rational {
    type Output = Rational;
    fn add(self, rhs: &Rational) -> Rational {
        if let (Some(a), Some(b)) = (self.words(), rhs.words()) {
            return a.add(b);
        }
        // a/b + c/d = (a·d + c·b) / (b·d), then reduce.
        let num = &(&self.num * &BigInt::from(rhs.den.clone()))
            + &(&rhs.num * &BigInt::from(self.den.clone()));
        let den = &self.den * &rhs.den;
        Rational::new(num, den)
    }
}

impl Add for Rational {
    type Output = Rational;
    fn add(self, rhs: Rational) -> Rational {
        &self + &rhs
    }
}

impl AddAssign<&Rational> for Rational {
    fn add_assign(&mut self, rhs: &Rational) {
        *self = &*self + rhs;
    }
}

impl AddAssign for Rational {
    fn add_assign(&mut self, rhs: Rational) {
        *self = &*self + &rhs;
    }
}

impl Sub<&Rational> for &Rational {
    type Output = Rational;
    fn sub(self, rhs: &Rational) -> Rational {
        if let (Some(a), Some(b)) = (self.words(), rhs.words()) {
            return a.add(b.neg());
        }
        self + &(-rhs)
    }
}

impl Sub for Rational {
    type Output = Rational;
    fn sub(self, rhs: Rational) -> Rational {
        &self - &rhs
    }
}

impl SubAssign<&Rational> for Rational {
    fn sub_assign(&mut self, rhs: &Rational) {
        *self = &*self - rhs;
    }
}

impl SubAssign for Rational {
    fn sub_assign(&mut self, rhs: Rational) {
        *self = &*self - &rhs;
    }
}

impl Mul<&Rational> for &Rational {
    type Output = Rational;
    fn mul(self, rhs: &Rational) -> Rational {
        if let (Some(a), Some(b)) = (self.words(), rhs.words()) {
            return a.mul(b);
        }
        // Cross-reduce before multiplying to keep intermediates small.
        let g1 = gcd(self.num.magnitude(), &rhs.den);
        let g2 = gcd(rhs.num.magnitude(), &self.den);
        let n1 = BigInt::from_parts_or_zero(self.num.sign(), self.num.magnitude() / &g1);
        let n2 = BigInt::from_parts_or_zero(rhs.num.sign(), rhs.num.magnitude() / &g2);
        let d1 = &self.den / &g2;
        let d2 = &rhs.den / &g1;
        let num = &n1 * &n2;
        let den = &d1 * &d2;
        if num.is_zero() {
            Rational::zero()
        } else {
            Rational { num, den }
        }
    }
}

impl Mul for Rational {
    type Output = Rational;
    fn mul(self, rhs: Rational) -> Rational {
        &self * &rhs
    }
}

impl MulAssign<&Rational> for Rational {
    fn mul_assign(&mut self, rhs: &Rational) {
        *self = &*self * rhs;
    }
}

impl Div<&Rational> for &Rational {
    type Output = Rational;
    #[allow(clippy::suspicious_arithmetic_impl)] // division via exact reciprocal
    fn div(self, rhs: &Rational) -> Rational {
        if let (Some(a), Some(b)) = (self.words(), rhs.words()) {
            return a.mul(b.recip());
        }
        self * &rhs.recip()
    }
}

impl Div for Rational {
    type Output = Rational;
    fn div(self, rhs: Rational) -> Rational {
        &self / &rhs
    }
}

impl DivAssign<&Rational> for Rational {
    fn div_assign(&mut self, rhs: &Rational) {
        *self = &*self / rhs;
    }
}

impl Sum for Rational {
    fn sum<I: Iterator<Item = Rational>>(iter: I) -> Rational {
        iter.fold(Rational::zero(), |acc, x| acc + x)
    }
}

impl<'a> Sum<&'a Rational> for Rational {
    fn sum<I: Iterator<Item = &'a Rational>>(iter: I) -> Rational {
        iter.fold(Rational::zero(), |mut acc, x| {
            acc += x;
            acc
        })
    }
}

// Helper used by Mul: from_parts but tolerating a zero magnitude.
impl BigInt {
    fn from_parts_or_zero(sign: Sign, mag: BigUint) -> BigInt {
        if mag.is_zero() {
            BigInt::zero()
        } else {
            BigInt::from_parts(sign, mag)
        }
    }
}

// ---- formatting / parsing ------------------------------------------------------------

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den.is_one() {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Error parsing a rational from a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRationalError;

impl fmt::Display for ParseRationalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid rational literal")
    }
}

impl std::error::Error for ParseRationalError {}

impl std::str::FromStr for Rational {
    type Err = ParseRationalError;

    /// Parses `"p"`, `"p/q"`, or decimal `"a.b"` forms (all exact).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some((n, d)) = s.split_once('/') {
            let num: BigInt = n.trim().parse().map_err(|_| ParseRationalError)?;
            let den: BigInt = d.trim().parse().map_err(|_| ParseRationalError)?;
            if den.is_zero() {
                return Err(ParseRationalError);
            }
            return Ok(Rational::from_bigints(num, den));
        }
        if let Some((int_part, frac_part)) = s.split_once('.') {
            let neg = int_part.trim_start().starts_with('-');
            let int_val: BigInt = int_part.trim().parse().map_err(|_| ParseRationalError)?;
            let frac_mag: BigUint = frac_part.trim().parse().map_err(|_| ParseRationalError)?;
            let scale_digits =
                u32::try_from(frac_part.trim().len()).map_err(|_| ParseRationalError)?;
            let scale = BigUint::from(10u32).pow(scale_digits);
            let mut num =
                &(&int_val.abs() * &BigInt::from(scale.clone())) + &BigInt::from(frac_mag);
            if neg {
                num = -num;
            }
            return Ok(Rational::new(num, scale));
        }
        let num: BigInt = s.trim().parse().map_err(|_| ParseRationalError)?;
        Ok(Rational::from(num))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64, d: i64) -> Rational {
        Rational::from_ratio(n, d)
    }

    #[test]
    fn construction_reduces() {
        assert_eq!(r(2, 4), r(1, 2));
        assert_eq!(r(-2, 4), r(1, -2));
        assert_eq!(r(0, 5), Rational::zero());
        assert_eq!(r(6, 3).to_string(), "2");
        assert_eq!(r(-6, 4).to_string(), "-3/2");
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = r(1, 0);
    }

    #[test]
    fn field_ops_match_f64() {
        let cases = [(1i64, 3i64), (-2, 7), (5, 1), (0, 1), (22, 7)];
        for (an, ad) in cases {
            for (bn, bd) in cases {
                let a = r(an, ad);
                let b = r(bn, bd);
                let fa = an as f64 / ad as f64;
                let fb = bn as f64 / bd as f64;
                assert!(((&a + &b).to_f64() - (fa + fb)).abs() < 1e-12);
                assert!(((&a - &b).to_f64() - (fa - fb)).abs() < 1e-12);
                assert!(((&a * &b).to_f64() - (fa * fb)).abs() < 1e-12);
                if !b.is_zero() {
                    assert!(((&a / &b).to_f64() - (fa / fb)).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn exact_identities() {
        let third = r(1, 3);
        let x = &(&third + &third) + &third;
        assert_eq!(x, Rational::one()); // would fail in f64
        assert_eq!(&r(1, 6) + &r(1, 3), r(1, 2));
        assert_eq!(&r(2, 3) * &r(3, 2), Rational::one());
    }

    #[test]
    fn ordering_cross_multiplication() {
        assert!(r(1, 3) < r(1, 2));
        assert!(r(-1, 2) < r(-1, 3));
        assert!(r(-1, 3) < r(1, 1000000));
        assert!(r(7, 7) == Rational::one());
        // Values that differ far below f64 resolution remain distinct.
        let a = Rational::new(BigInt::from(1i64), BigUint::from(10u64).pow(40));
        let b = Rational::new(BigInt::from(2i64), BigUint::from(10u64).pow(40));
        assert!(a < b);
        assert_ne!(a, b);
    }

    #[test]
    fn recip_and_pow() {
        assert_eq!(r(3, 4).recip(), r(4, 3));
        assert_eq!(r(-3, 4).recip(), r(-4, 3));
        assert_eq!(r(2, 3).pow(3), r(8, 27));
        assert_eq!(r(2, 3).pow(-2), r(9, 4));
        assert_eq!(r(5, 7).pow(0), Rational::one());
    }

    #[test]
    #[should_panic(expected = "reciprocal of zero")]
    fn recip_zero_panics() {
        let _ = Rational::zero().recip();
    }

    #[test]
    fn parse_forms() {
        assert_eq!("3/4".parse::<Rational>().unwrap(), r(3, 4));
        assert_eq!("-3/4".parse::<Rational>().unwrap(), r(-3, 4));
        assert_eq!("3/-4".parse::<Rational>().unwrap(), r(-3, 4));
        assert_eq!("5".parse::<Rational>().unwrap(), r(5, 1));
        assert_eq!("0.25".parse::<Rational>().unwrap(), r(1, 4));
        assert_eq!("-1.5".parse::<Rational>().unwrap(), r(-3, 2));
        assert!("1/0".parse::<Rational>().is_err());
        assert!("abc".parse::<Rational>().is_err());
    }

    #[test]
    fn f64_roundtrip() {
        for v in [0.0, 1.0, -2.5, 0.1, 1e-20, 12345.6789, -1e10] {
            let q = Rational::from_f64(v);
            assert_eq!(q.to_f64(), v, "roundtrip {v}");
        }
        assert_eq!(Rational::from_f64(0.5), r(1, 2));
        assert_eq!(Rational::from_f64(-0.75), r(-3, 4));
    }

    #[test]
    fn sum_iterator() {
        let parts: Vec<Rational> = (1..=10).map(|i| r(1, i)).collect();
        let total: Rational = parts.iter().sum();
        // Harmonic number H_10 = 7381/2520.
        assert_eq!(total, r(7381, 2520));
    }

    #[test]
    fn midpoint_and_minmax() {
        assert_eq!(r(1, 3).midpoint(&r(1, 2)), r(5, 12));
        assert_eq!(r(1, 3).min(r(1, 2)), r(1, 3));
        assert_eq!(r(1, 3).max(r(1, 2)), r(1, 2));
    }

    #[test]
    fn to_f64_precision() {
        // 1/3 to full f64 precision.
        assert_eq!(r(1, 3).to_f64(), 1.0 / 3.0);
        assert_eq!(r(-22, 7).to_f64(), -22.0 / 7.0);
        // Huge ratio still finite and accurate.
        let big = Rational::new(
            BigInt::from(BigUint::from(10u64).pow(50)),
            BigUint::from(10u64).pow(48),
        );
        assert_eq!(big.to_f64(), 100.0);
    }
}
