//! Greatest common divisor on [`BigUint`], via the binary (Stein) algorithm.
//!
//! Binary GCD avoids the quadratic division of the Euclidean algorithm on
//! multi-limb operands; reduction of [`crate::Rational`] values calls this on
//! every arithmetic operation, so it is the hottest kernel in the crate.
//! Operands below 2¹²⁸ run the same algorithm on machine words, and the limb
//! loop hands over to it as soon as both of its operands drop that low.

use crate::biguint::BigUint;

// prs-lint: allow(panic, cast, reason = "a, b proven nonzero before every trailing_zeros call; a trailing-zero count of any materializable value fits u32")
/// `gcd(a, b)`; `gcd(0, 0) == 0` by convention.
pub fn gcd(a: &BigUint, b: &BigUint) -> BigUint {
    if let (Some(x), Some(y)) = (a.to_u128(), b.to_u128()) {
        return BigUint::from(gcd_u128(x, y));
    }
    if a.is_zero() {
        return b.clone();
    }
    if b.is_zero() {
        return a.clone();
    }
    let za = a.trailing_zeros().unwrap();
    let zb = b.trailing_zeros().unwrap();
    let shift = za.min(zb) as u32;

    let mut u = a >> za;
    let mut v = b >> zb;
    // Invariant: u, v odd. Every step shifts in place, so the loop reuses
    // the operands' buffers instead of allocating.
    loop {
        if let (Some(x), Some(y)) = (u.to_u128(), v.to_u128()) {
            return &BigUint::from(gcd_u128(x, y)) << shift;
        }
        if u == v {
            return &u << shift;
        }
        if u < v {
            std::mem::swap(&mut u, &mut v);
        }
        u -= &v;
        // u is now even and nonzero.
        let z = u
            .trailing_zeros()
            .expect("u > 0 after swap ensures nonzero");
        u.shr_in_place(z as u32);
    }
}

/// `gcd(a, b)` on machine words; `gcd(0, 0) == 0`.
pub(crate) fn gcd_u128(a: u128, b: u128) -> u128 {
    if let (Ok(x), Ok(y)) = (u64::try_from(a), u64::try_from(b)) {
        return u128::from(gcd_u64(x, y));
    }
    if a == 0 || b == 0 {
        return a | b;
    }
    let shift = (a | b).trailing_zeros();
    let mut u = a >> a.trailing_zeros();
    let mut v = b >> b.trailing_zeros();
    // Invariant: u, v odd. Drop to 64-bit words once both fit.
    loop {
        if let (Ok(x), Ok(y)) = (u64::try_from(u), u64::try_from(v)) {
            return u128::from(gcd_u64(x, y)) << shift;
        }
        if u > v {
            std::mem::swap(&mut u, &mut v);
        }
        v -= u;
        if v == 0 {
            return u << shift;
        }
        v >>= v.trailing_zeros();
    }
}

/// `gcd(a, b)` on 64-bit words; `gcd(0, 0) == 0`.
pub(crate) fn gcd_u64(a: u64, b: u64) -> u64 {
    if a == 0 || b == 0 {
        return a | b;
    }
    let shift = (a | b).trailing_zeros();
    let mut u = a >> a.trailing_zeros();
    let mut v = b >> b.trailing_zeros();
    // Invariant: u, v odd.
    loop {
        if u > v {
            std::mem::swap(&mut u, &mut v);
        }
        v -= u;
        if v == 0 {
            return u << shift;
        }
        v >>= v.trailing_zeros();
    }
}

/// `lcm(a, b)`; zero if either argument is zero.
pub fn lcm(a: &BigUint, b: &BigUint) -> BigUint {
    if a.is_zero() || b.is_zero() {
        return BigUint::zero();
    }
    let g = gcd(a, b);
    &(a / &g) * b
}

/// `lcm(a, b)` on machine words: zero if either argument is zero, `None`
/// exactly when the lcm is at least 2¹²⁸.
pub fn lcm_u128(a: u128, b: u128) -> Option<u128> {
    if a == 0 || b == 0 {
        return Some(0);
    }
    (a / gcd_u128(a, b)).checked_mul(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(v: u128) -> BigUint {
        BigUint::from(v)
    }

    fn gcd_euclid(mut a: u128, mut b: u128) -> u128 {
        while b != 0 {
            let t = a % b;
            a = b;
            b = t;
        }
        a
    }

    #[test]
    fn gcd_matches_euclid_oracle() {
        let cases = [
            (0u128, 0u128),
            (0, 7),
            (7, 0),
            (12, 18),
            (17, 13),
            (1 << 40, 1 << 20),
            (2 * 3 * 5 * 7 * 11, 3 * 7 * 13),
            (u64::MAX as u128, (u64::MAX - 1) as u128),
            (u128::MAX, u128::MAX - 2),
            (1 << 127, 3 << 100),
            ((1 << 64) + 1, (1 << 64) - 1),
        ];
        for (a, b) in cases {
            assert_eq!(gcd(&big(a), &big(b)), big(gcd_euclid(a, b)), "gcd({a},{b})");
            assert_eq!(gcd_u128(a, b), gcd_euclid(a, b), "gcd_u128({a},{b})");
        }
    }

    #[test]
    fn gcd_large_common_factor() {
        let p: BigUint = "1000000000000000003".parse().unwrap();
        let a = &p * &big(123456);
        let b = &p * &big(789012);
        let g = gcd(&a, &b);
        assert_eq!(g, &p * &big(gcd_euclid(123456, 789012)));
    }

    #[test]
    fn gcd_hands_multi_limb_operands_to_the_word_loop() {
        // A common factor above 2^128 stays in the limb loop to the end;
        // a small one is finished by the word loop.
        let k = &(&BigUint::one() << 150) + &big(3);
        let (x, y) = (big(6 * 35), big(10 * 35));
        assert_eq!(gcd(&(&x * &k), &(&y * &k)), &big(70) * &k);
        let a = &(&BigUint::one() << 200) + &big(1);
        assert_eq!(gcd(&(&a * &big(12)), &big(18)), big(6));
    }

    #[test]
    fn lcm_basic() {
        assert_eq!(lcm(&big(4), &big(6)), big(12));
        assert_eq!(lcm(&big(0), &big(6)), BigUint::zero());
        assert_eq!(lcm(&big(7), &big(13)), big(91));
    }
}
