#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # prs-numeric — exact arbitrary-precision arithmetic
//!
//! Foundation crate for the resource-sharing toolkit. The bottleneck
//! decomposition (and everything layered on it: the BD allocation, the
//! misreport sweep, the Sybil-attack optimizer) hinges on *exact* comparison
//! of α-ratios, which are quotients of sums of agent weights. Floating point
//! is unsound there: two distinct bottleneck candidates whose ratios differ
//! by less than an ulp would be conflated, and the decomposition — a purely
//! combinatorial object — would come out wrong. This crate provides:
//!
//! * [`BigUint`] — an arbitrary-precision unsigned integer (little-endian
//!   `u32` limbs, kept inline with `u128` fast paths below 2¹²⁸), with
//!   schoolbook and Karatsuba multiplication, Knuth algorithm-D division,
//!   binary GCD, and bit operations.
//! * [`BigInt`] — a sign-magnitude signed integer on top of [`BigUint`].
//! * [`Rational`] — an always-reduced exact rational with total ordering,
//!   the numeric type used throughout the workspace; operands below 2⁶³
//!   take an `i128`/`u128` word path.
//!
//! No external bignum crate is used; the offline dependency set does not
//! include one, and the arithmetic here is simple enough to own (see
//! DESIGN.md §1, substitution table).
//!
//! ## Example
//!
//! ```
//! use prs_numeric::Rational;
//!
//! let third = Rational::from_ratio(1, 3);
//! let sixth = Rational::from_ratio(1, 6);
//! assert_eq!(&third + &sixth, Rational::from_ratio(1, 2));
//! assert!(third > sixth);
//! assert_eq!((&third * &sixth).to_string(), "1/18");
//! ```

pub mod bigint;
pub mod biguint;
pub mod gcd;
pub mod poly;
pub mod rational;

pub use bigint::{BigInt, Sign};
pub use biguint::BigUint;
pub use poly::{Poly, RationalFunction};
pub use rational::Rational;

/// Convenience: exact rational `n/d` from machine integers.
///
/// Panics if `d == 0`.
pub fn ratio(n: i64, d: i64) -> Rational {
    Rational::from_ratio(n, d)
}

/// Convenience: exact rational from an integer.
pub fn int(n: i64) -> Rational {
    Rational::from_integer(n)
}
