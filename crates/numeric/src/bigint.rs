//! Signed arbitrary-precision integers: sign + [`BigUint`] magnitude.

use crate::biguint::{BigUint, ParseBigIntError};
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Rem, Sub, SubAssign};

/// Sign of a [`BigInt`]. Zero always carries [`Sign::NoSign`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Sign {
    /// Strictly negative.
    Minus,
    /// Zero.
    NoSign,
    /// Strictly positive.
    Plus,
}

impl Sign {
    fn flip(self) -> Sign {
        match self {
            Sign::Minus => Sign::Plus,
            Sign::NoSign => Sign::NoSign,
            Sign::Plus => Sign::Minus,
        }
    }
}

/// Signed arbitrary-precision integer.
///
/// Invariant: `sign == NoSign` iff `mag.is_zero()`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BigInt {
    sign: Sign,
    mag: BigUint,
}

impl Default for BigInt {
    fn default() -> Self {
        BigInt::zero()
    }
}

impl BigInt {
    /// The value zero.
    pub fn zero() -> Self {
        BigInt {
            sign: Sign::NoSign,
            mag: BigUint::zero(),
        }
    }

    /// The value one.
    pub fn one() -> Self {
        BigInt {
            sign: Sign::Plus,
            mag: BigUint::one(),
        }
    }

    /// Build from sign and magnitude, normalizing zero.
    pub fn from_parts(sign: Sign, mag: BigUint) -> Self {
        if mag.is_zero() {
            BigInt::zero()
        } else {
            assert!(sign != Sign::NoSign, "nonzero magnitude needs a sign");
            BigInt { sign, mag }
        }
    }

    /// The sign.
    #[inline]
    pub fn sign(&self) -> Sign {
        self.sign
    }

    /// The magnitude.
    #[inline]
    pub fn magnitude(&self) -> &BigUint {
        &self.mag
    }

    /// Consume into the magnitude, discarding the sign.
    pub fn into_magnitude(self) -> BigUint {
        self.mag
    }

    /// True iff zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.sign == Sign::NoSign
    }

    /// True iff strictly positive.
    #[inline]
    pub fn is_positive(&self) -> bool {
        self.sign == Sign::Plus
    }

    /// True iff strictly negative.
    #[inline]
    pub fn is_negative(&self) -> bool {
        self.sign == Sign::Minus
    }

    /// Absolute value.
    pub fn abs(&self) -> BigInt {
        BigInt::from_parts(
            if self.is_zero() {
                Sign::NoSign
            } else {
                Sign::Plus
            },
            self.mag.clone(),
        )
    }

    /// Truncated division with remainder: `self = q * d + r`, `|r| < |d|`,
    /// `r` has the sign of `self` (C-style).
    pub fn div_rem(&self, d: &BigInt) -> (BigInt, BigInt) {
        let (qm, rm) = self.mag.div_rem(&d.mag);
        let q_sign = if qm.is_zero() {
            Sign::NoSign
        } else if self.sign == d.sign {
            Sign::Plus
        } else {
            Sign::Minus
        };
        let r_sign = if rm.is_zero() {
            Sign::NoSign
        } else {
            self.sign
        };
        (
            BigInt {
                sign: q_sign,
                mag: qm,
            },
            BigInt {
                sign: r_sign,
                mag: rm,
            },
        )
    }

    /// `self^exp`.
    pub fn pow(&self, exp: u32) -> BigInt {
        let mag = self.mag.pow(exp);
        let sign = if mag.is_zero() {
            Sign::NoSign
        } else if self.sign == Sign::Minus && exp % 2 == 1 {
            Sign::Minus
        } else {
            Sign::Plus
        };
        BigInt { sign, mag }
    }

    // prs-lint: allow(float, reason = "sanctioned exact→float bridge for display and the f64 swarm capacities; never read back into exact state")
    /// Best-effort `f64` conversion.
    pub fn to_f64(&self) -> f64 {
        let m = self.mag.to_f64();
        if self.sign == Sign::Minus {
            -m
        } else {
            m
        }
    }

    // prs-lint: allow(cast, reason = "two's-complement edge: |i64::MIN| needs the i128 round-trip; m ≤ i64::MAX + 1 is checked first")
    /// Exact `i64` conversion if it fits.
    pub fn to_i64(&self) -> Option<i64> {
        let m = self.mag.to_u128()?;
        match self.sign {
            Sign::NoSign => Some(0),
            Sign::Plus => i64::try_from(m).ok(),
            Sign::Minus => {
                if m <= i64::MAX as u128 + 1 {
                    Some((m as i128).wrapping_neg() as i64)
                } else {
                    None
                }
            }
        }
    }

    // prs-lint: allow(cast, reason = "two's-complement edge: |i128::MIN| = i128::MAX + 1 has no i128 form; the u128 wrapping_neg round-trip is checked against that bound first")
    /// Exact `i128` conversion if it fits.
    ///
    /// This is the promotion boundary of the scaled-integer certifier's
    /// `i128` fast tier: a p·D-scaled capacity promotes the round to the
    /// BigInt engine exactly when this returns `None`.
    pub fn to_i128(&self) -> Option<i128> {
        let m = self.mag.to_u128()?;
        match self.sign {
            Sign::NoSign => Some(0),
            Sign::Plus => i128::try_from(m).ok(),
            Sign::Minus => {
                if m <= i128::MAX as u128 + 1 {
                    Some(m.wrapping_neg() as i128)
                } else {
                    None
                }
            }
        }
    }
}

// ---- conversions -----------------------------------------------------------

impl From<i64> for BigInt {
    fn from(v: i64) -> Self {
        let sign = match v.cmp(&0) {
            Ordering::Less => Sign::Minus,
            Ordering::Equal => Sign::NoSign,
            Ordering::Greater => Sign::Plus,
        };
        BigInt {
            sign,
            mag: BigUint::from(v.unsigned_abs()),
        }
    }
}

impl From<i32> for BigInt {
    fn from(v: i32) -> Self {
        BigInt::from(i64::from(v))
    }
}

impl From<u64> for BigInt {
    fn from(v: u64) -> Self {
        BigInt::from_parts(
            if v == 0 { Sign::NoSign } else { Sign::Plus },
            BigUint::from(v),
        )
    }
}

impl From<BigUint> for BigInt {
    fn from(mag: BigUint) -> Self {
        let sign = if mag.is_zero() {
            Sign::NoSign
        } else {
            Sign::Plus
        };
        BigInt { sign, mag }
    }
}

impl From<i128> for BigInt {
    fn from(v: i128) -> Self {
        let sign = match v.cmp(&0) {
            Ordering::Less => Sign::Minus,
            Ordering::Equal => Sign::NoSign,
            Ordering::Greater => Sign::Plus,
        };
        BigInt {
            sign,
            mag: BigUint::from(v.unsigned_abs()),
        }
    }
}

// ---- ordering ----------------------------------------------------------------

impl PartialOrd for BigInt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigInt {
    fn cmp(&self, other: &Self) -> Ordering {
        fn rank(s: Sign) -> i8 {
            match s {
                Sign::Minus => -1,
                Sign::NoSign => 0,
                Sign::Plus => 1,
            }
        }
        match rank(self.sign).cmp(&rank(other.sign)) {
            Ordering::Equal => match self.sign {
                Sign::Plus => self.mag.cmp(&other.mag),
                Sign::Minus => other.mag.cmp(&self.mag),
                Sign::NoSign => Ordering::Equal,
            },
            ord => ord,
        }
    }
}

// ---- arithmetic ---------------------------------------------------------------

impl Neg for &BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        BigInt {
            sign: self.sign.flip(),
            mag: self.mag.clone(),
        }
    }
}

impl Neg for BigInt {
    type Output = BigInt;
    fn neg(mut self) -> BigInt {
        self.sign = self.sign.flip();
        self
    }
}

impl Add<&BigInt> for &BigInt {
    type Output = BigInt;
    fn add(self, rhs: &BigInt) -> BigInt {
        match (self.sign, rhs.sign) {
            (Sign::NoSign, _) => rhs.clone(),
            (_, Sign::NoSign) => self.clone(),
            (a, b) if a == b => BigInt {
                sign: a,
                mag: &self.mag + &rhs.mag,
            },
            _ => match self.mag.cmp(&rhs.mag) {
                Ordering::Equal => BigInt::zero(),
                Ordering::Greater => BigInt {
                    sign: self.sign,
                    mag: &self.mag - &rhs.mag,
                },
                Ordering::Less => BigInt {
                    sign: rhs.sign,
                    mag: &rhs.mag - &self.mag,
                },
            },
        }
    }
}

impl Add for BigInt {
    type Output = BigInt;
    fn add(self, rhs: BigInt) -> BigInt {
        &self + &rhs
    }
}

impl AddAssign<&BigInt> for BigInt {
    fn add_assign(&mut self, rhs: &BigInt) {
        *self = &*self + rhs;
    }
}

impl Sub<&BigInt> for &BigInt {
    type Output = BigInt;
    fn sub(self, rhs: &BigInt) -> BigInt {
        self + &(-rhs)
    }
}

impl Sub for BigInt {
    type Output = BigInt;
    fn sub(self, rhs: BigInt) -> BigInt {
        &self - &rhs
    }
}

impl SubAssign<&BigInt> for BigInt {
    fn sub_assign(&mut self, rhs: &BigInt) {
        *self = &*self - rhs;
    }
}

impl Mul<&BigInt> for &BigInt {
    type Output = BigInt;
    fn mul(self, rhs: &BigInt) -> BigInt {
        let mag = &self.mag * &rhs.mag;
        let sign = if mag.is_zero() {
            Sign::NoSign
        } else if self.sign == rhs.sign {
            Sign::Plus
        } else {
            Sign::Minus
        };
        BigInt { sign, mag }
    }
}

impl Mul for BigInt {
    type Output = BigInt;
    fn mul(self, rhs: BigInt) -> BigInt {
        &self * &rhs
    }
}

impl Div<&BigInt> for &BigInt {
    type Output = BigInt;
    fn div(self, rhs: &BigInt) -> BigInt {
        self.div_rem(rhs).0
    }
}

impl Rem<&BigInt> for &BigInt {
    type Output = BigInt;
    fn rem(self, rhs: &BigInt) -> BigInt {
        self.div_rem(rhs).1
    }
}

// ---- formatting / parsing -------------------------------------------------------

impl fmt::Display for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.sign == Sign::Minus {
            write!(f, "-{}", self.mag)
        } else {
            write!(f, "{}", self.mag)
        }
    }
}

impl fmt::Debug for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl std::str::FromStr for BigInt {
    type Err = ParseBigIntError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (sign, digits) = match s.strip_prefix('-') {
            Some(rest) => (Sign::Minus, rest),
            None => (Sign::Plus, s.strip_prefix('+').unwrap_or(s)),
        };
        let mag: BigUint = digits.parse()?;
        Ok(BigInt::from_parts(
            if mag.is_zero() { Sign::NoSign } else { sign },
            mag,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(v: i128) -> BigInt {
        BigInt::from(v)
    }

    #[test]
    fn sign_normalization() {
        assert_eq!(b(0).sign(), Sign::NoSign);
        assert_eq!(b(5).sign(), Sign::Plus);
        assert_eq!(b(-5).sign(), Sign::Minus);
        assert_eq!((-b(0)).sign(), Sign::NoSign);
    }

    #[test]
    fn add_sub_all_sign_combos() {
        for a in [-7i128, -1, 0, 1, 7, 1 << 70] {
            for c in [-9i128, -1, 0, 1, 9, -(1 << 65)] {
                assert_eq!(&b(a) + &b(c), b(a + c), "{a}+{c}");
                assert_eq!(&b(a) - &b(c), b(a - c), "{a}-{c}");
            }
        }
    }

    #[test]
    fn mul_sign_rules() {
        for a in [-6i128, 0, 6] {
            for c in [-7i128, 0, 7] {
                assert_eq!(&b(a) * &b(c), b(a * c));
            }
        }
    }

    #[test]
    fn div_rem_truncates_toward_zero() {
        for (a, d) in [(7i128, 2i128), (-7, 2), (7, -2), (-7, -2)] {
            let (q, r) = b(a).div_rem(&b(d));
            assert_eq!(q, b(a / d), "{a}/{d}");
            assert_eq!(r, b(a % d), "{a}%{d}");
        }
    }

    #[test]
    fn ordering_across_signs() {
        assert!(b(-10) < b(-2));
        assert!(b(-2) < b(0));
        assert!(b(0) < b(3));
        assert!(b(3) < b(10));
        assert!(b(i128::MIN + 1) < b(i128::MAX));
    }

    #[test]
    fn display_parse_roundtrip() {
        for s in ["0", "-1", "42", "-123456789012345678901234567890"] {
            let v: BigInt = s.parse().unwrap();
            assert_eq!(v.to_string(), s);
        }
        assert_eq!("-0".parse::<BigInt>().unwrap(), b(0));
        assert_eq!("+7".parse::<BigInt>().unwrap(), b(7));
    }

    #[test]
    fn pow_signs() {
        assert_eq!(b(-2).pow(3), b(-8));
        assert_eq!(b(-2).pow(4), b(16));
        assert_eq!(b(0).pow(0), b(1)); // 0^0 = 1 by convention (empty product)
    }

    #[test]
    fn to_i64_bounds() {
        assert_eq!(b(i64::MAX as i128).to_i64(), Some(i64::MAX));
        assert_eq!(b(i64::MIN as i128).to_i64(), Some(i64::MIN));
        assert_eq!(b(i64::MAX as i128 + 1).to_i64(), None);
        assert_eq!(b(i64::MIN as i128 - 1).to_i64(), None);
    }

    #[test]
    fn to_i128_bounds() {
        assert_eq!(b(0).to_i128(), Some(0));
        assert_eq!(b(-42).to_i128(), Some(-42));
        assert_eq!(b(i128::MAX).to_i128(), Some(i128::MAX));
        assert_eq!(b(i128::MIN).to_i128(), Some(i128::MIN));
        // One past either end: the exact promotion boundary.
        assert_eq!((b(i128::MAX) + b(1)).to_i128(), None);
        assert_eq!((b(i128::MIN) - b(1)).to_i128(), None);
        assert_eq!((b(i128::MAX) + b(1)).to_i128(), None);
        assert_eq!(b(2).pow(127).to_i128(), None);
        assert_eq!((b(2).pow(127) - b(1)).to_i128(), Some(i128::MAX));
        assert_eq!((-b(2).pow(127)).to_i128(), Some(i128::MIN));
    }
}
