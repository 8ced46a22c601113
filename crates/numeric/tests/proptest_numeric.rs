//! Property-based tests for prs-numeric against machine-integer oracles.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use prs_numeric::gcd::{gcd, lcm, lcm_u128};
use prs_numeric::{BigInt, BigUint, Rational, Sign};
use std::collections::hash_map::DefaultHasher;
use std::fmt::Debug;
use std::hash::{Hash, Hasher};

fn bigu(v: u128) -> BigUint {
    BigUint::from(v)
}

fn bigi(v: i128) -> BigInt {
    BigInt::from(v)
}

proptest! {
    // ---- BigUint vs u128 oracle ------------------------------------------

    #[test]
    fn biguint_add_matches_u128(a in 0u128..(1 << 126), b in 0u128..(1 << 126)) {
        prop_assert_eq!(&bigu(a) + &bigu(b), bigu(a + b));
    }

    #[test]
    fn biguint_sub_matches_u128(a: u128, b: u128) {
        let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
        prop_assert_eq!(&bigu(hi) - &bigu(lo), bigu(hi - lo));
    }

    #[test]
    fn biguint_mul_matches_u128(a in 0u128..(1 << 63), b in 0u128..(1 << 63)) {
        prop_assert_eq!(&bigu(a) * &bigu(b), bigu(a * b));
    }

    #[test]
    fn biguint_div_rem_matches_u128(a: u128, b in 1u128..u128::MAX) {
        let (q, r) = bigu(a).div_rem(&bigu(b));
        prop_assert_eq!(q, bigu(a / b));
        prop_assert_eq!(r, bigu(a % b));
    }

    #[test]
    fn biguint_div_rem_roundtrip_multi_limb(
        a_limbs in proptest::collection::vec(any::<u32>(), 1..20),
        d_limbs in proptest::collection::vec(any::<u32>(), 1..8),
    ) {
        let a = BigUint::from_limbs(a_limbs);
        let d = BigUint::from_limbs(d_limbs);
        prop_assume!(!d.is_zero());
        let (q, r) = a.div_rem(&d);
        prop_assert!(r < d);
        prop_assert_eq!(&(&q * &d) + &r, a);
    }

    #[test]
    fn biguint_shift_roundtrip(a: u128, s in 0u32..200) {
        prop_assert_eq!(&(&bigu(a) << s) >> s, bigu(a));
    }

    #[test]
    fn biguint_ord_matches_u128(a: u128, b: u128) {
        prop_assert_eq!(bigu(a).cmp(&bigu(b)), a.cmp(&b));
    }

    #[test]
    fn biguint_display_parse_roundtrip(a: u128) {
        let s = bigu(a).to_string();
        prop_assert_eq!(s.parse::<BigUint>().unwrap(), bigu(a));
        prop_assert_eq!(s, a.to_string());
    }

    // ---- BigInt vs i128 oracle ----------------------------------------------

    #[test]
    fn bigint_ring_axioms(a in -(1i128 << 100)..(1i128 << 100),
                          b in -(1i128 << 100)..(1i128 << 100),
                          c in -(1i128 << 20)..(1i128 << 20)) {
        let (ba, bb, bc) = (bigi(a), bigi(b), bigi(c));
        // Commutativity / associativity of +.
        prop_assert_eq!(&ba + &bb, &bb + &ba);
        prop_assert_eq!(&(&ba + &bb) + &bc, &ba + &(&bb + &bc));
        // Distributivity (kept small enough not to overflow the oracle).
        prop_assert_eq!(&bc * &(&ba + &bb), &(&bc * &ba) + &(&bc * &bb));
        // Additive inverse.
        prop_assert_eq!(&ba + &(-&ba), BigInt::zero());
    }

    #[test]
    fn bigint_add_sub_matches_i128(a in -(1i128 << 126)..(1i128 << 126),
                                   b in -(1i128 << 126)..(1i128 << 126)) {
        prop_assert_eq!(&bigi(a) + &bigi(b), bigi(a + b));
        prop_assert_eq!(&bigi(a) - &bigi(b), bigi(a - b));
    }

    #[test]
    fn bigint_div_rem_matches_i128(a: i64, b: i64) {
        prop_assume!(b != 0);
        let (q, r) = bigi(a as i128).div_rem(&bigi(b as i128));
        prop_assert_eq!(q, bigi((a as i128) / (b as i128)));
        prop_assert_eq!(r, bigi((a as i128) % (b as i128)));
    }

    // ---- Rational field axioms ------------------------------------------------

    #[test]
    fn rational_field_axioms(an in -1000i64..1000, ad in 1i64..1000,
                             bn in -1000i64..1000, bd in 1i64..1000,
                             cn in -1000i64..1000, cd in 1i64..1000) {
        let a = Rational::from_ratio(an, ad);
        let b = Rational::from_ratio(bn, bd);
        let c = Rational::from_ratio(cn, cd);
        prop_assert_eq!(&a + &b, &b + &a);
        prop_assert_eq!(&a * &b, &b * &a);
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
        prop_assert_eq!(&(&a * &b) * &c, &a * &(&b * &c));
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
        prop_assert_eq!(&a - &a, Rational::zero());
        if !a.is_zero() {
            prop_assert_eq!(&a * &a.recip(), Rational::one());
        }
    }

    #[test]
    fn rational_ordering_total(an in -1000i64..1000, ad in 1i64..1000,
                               bn in -1000i64..1000, bd in 1i64..1000) {
        let a = Rational::from_ratio(an, ad);
        let b = Rational::from_ratio(bn, bd);
        // Compare against exact cross-multiplied i128 oracle.
        let lhs = an as i128 * bd as i128;
        let rhs = bn as i128 * ad as i128;
        prop_assert_eq!(a.cmp(&b), lhs.cmp(&rhs));
    }

    #[test]
    fn rational_always_reduced(an in -10000i64..10000, ad in 1i64..10000) {
        let a = Rational::from_ratio(an, ad);
        let g = prs_numeric::gcd::gcd(a.numer().magnitude(), a.denom());
        prop_assert!(a.is_zero() || g.is_one());
    }

    #[test]
    fn rational_f64_roundtrip(v in -1e15f64..1e15) {
        let q = Rational::from_f64(v);
        prop_assert_eq!(q.to_f64(), v);
    }

    #[test]
    fn rational_parse_display_roundtrip(an in -100000i64..100000, ad in 1i64..100000) {
        let a = Rational::from_ratio(an, ad);
        let s = a.to_string();
        prop_assert_eq!(s.parse::<Rational>().unwrap(), a);
    }
}

// ---- Boundary equivalence: fast paths against the limb kernels --------------
//
// Operands straddle every boundary where a fast path switches on or off: the
// u32 limb (2³¹, 2³²), the Rational word path (2⁶³, 2⁶⁴) and inline storage
// (2¹²⁷, 2¹²⁸), with both signs, beside audit-scale values. Each fast-path
// result is checked against the limb kernels, reached by lifting operands
// past 2¹²⁸: a shift by whole limbs for `BigUint`, a common factor
// K = 2¹²⁸ + 1 for gcd and `Rational` (odd, so reduction runs the limb gcd).

/// Exponents of the boundaries.
const EDGES: [u32; 6] = [31, 32, 63, 64, 127, 128];

/// Shift that lifts a `BigUint` operand onto the heap.
const LIFT: u32 = 128;

fn lift_factor() -> BigUint {
    &(&BigUint::one() << LIFT) + &BigUint::one()
}

/// `2^e - 1 - off` or `2^e + off` for a boundary `e` and `off < 2^31`.
fn near_edge() -> impl Strategy<Value = BigUint> {
    (0..EDGES.len(), any::<bool>(), any::<u64>(), 33u32..64).prop_map(|(i, below, noise, s)| {
        let edge = &BigUint::one() << EDGES[i];
        let off = BigUint::from(noise >> s);
        if below {
            &(&edge - &BigUint::one()) - &off
        } else {
            &edge + &off
        }
    })
}

/// Just below or above 2⁶³, or just below 2⁶⁴: operands whose cross
/// products reach the top bits of `i128`, or need more.
fn word_edge() -> impl Strategy<Value = BigUint> {
    (0u32..3, 0u64..1024).prop_map(|(kind, off)| {
        let off = BigUint::from(off);
        match kind {
            0 => &(&BigUint::one() << 63) - &(&off + &BigUint::one()),
            1 => &(&BigUint::one() << 63) + &off,
            _ => &(&BigUint::one() << 64) - &(&off + &BigUint::one()),
        }
    })
}

/// A boundary magnitude, or an audit-scale one (weights 1..50 and their sums).
fn magnitude() -> impl Strategy<Value = BigUint> {
    (0u32..3, near_edge(), word_edge(), 0u64..=400).prop_map(|(pick, edge, word, small)| match pick
    {
        0 => edge,
        1 => word,
        _ => BigUint::from(small),
    })
}

fn nonzero_magnitude() -> impl Strategy<Value = BigUint> {
    magnitude().prop_map(|m| if m.is_zero() { BigUint::one() } else { m })
}

fn signed() -> impl Strategy<Value = BigInt> {
    (any::<bool>(), magnitude())
        .prop_map(|(neg, m)| BigInt::from_parts(if neg { Sign::Minus } else { Sign::Plus }, m))
}

fn rational() -> impl Strategy<Value = Rational> {
    (signed(), nonzero_magnitude()).prop_map(|(n, d)| Rational::new(n, d))
}

fn hash_of<T: Hash>(x: &T) -> u64 {
    let mut h = DefaultHasher::new();
    x.hash(&mut h);
    h.finish()
}

/// Two values reached by different paths: equal, and hashing equal.
fn check_same<T: PartialEq + Hash + Debug>(
    fast: T,
    limb: T,
    op: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(&fast, &limb, "{}", op);
    prop_assert_eq!(hash_of(&fast), hash_of(&limb), "hash after {}", op);
    Ok(())
}

/// `Rational::to_f64`'s formula (an ≥80-bit quotient rounded through
/// `BigUint::to_f64`), evaluated on operands lifted past 2¹²⁸.
fn limb_to_f64(x: &Rational) -> f64 {
    if x.is_zero() {
        return 0.0;
    }
    let (n, d) = (x.numer().magnitude(), x.denom());
    let excess = i64::try_from(n.bit_len()).unwrap() - i64::try_from(d.bit_len()).unwrap();
    let shift = u32::try_from((80 - excess).max(0)).unwrap();
    let k = lift_factor();
    let q = &(&(n << shift) * &k) / &(d * &k);
    let v = (&q << LIFT).to_f64() * 2f64.powi(-128) / 2f64.powi(i32::try_from(shift).unwrap());
    if x.is_negative() {
        -v
    } else {
        v
    }
}

proptest! {
    #[test]
    fn biguint_boundaries_match_limb_kernels(a in magnitude(), b in magnitude(), s in 0u32..200) {
        let lift = |x: &BigUint| x << LIFT;
        let unlift = |x: &BigUint| x >> LIFT;
        let (la, lb) = (lift(&a), lift(&b));
        check_same(&a + &b, unlift(&(&la + &lb)), "add")?;
        let (hi, lo) = if a >= b { (&a, &b) } else { (&b, &a) };
        check_same(hi - lo, unlift(&(&lift(hi) - &lift(lo))), "sub")?;
        check_same(&a * &b, unlift(&unlift(&(&la * &lb))), "mul")?;
        prop_assert_eq!(a.cmp(&b), la.cmp(&lb));
        if !b.is_zero() {
            let (q, r) = a.div_rem(&b);
            let (lq, lr) = la.div_rem(&lb);
            check_same(q, lq, "div_rem quotient")?;
            check_same(r, unlift(&lr), "div_rem remainder")?;
        }
        let k = lift_factor();
        let (ka, kb) = (&a * &k, &b * &k);
        check_same(gcd(&a, &b), &gcd(&ka, &kb) / &k, "gcd")?;
        check_same(lcm(&a, &b), &lcm(&ka, &kb) / &k, "lcm")?;
        check_same(&a << s, unlift(&(&la << s)), "shl")?;
        check_same(&a >> s, unlift(&(&la >> s)), "shr")?;
        check_same(&a >> s, la.clone() >> (s + LIFT), "shr of an owned value, in place")?;
        prop_assert_eq!(a.to_f64().to_bits(), (la.to_f64() * 2f64.powi(-128)).to_bits());
    }

    #[test]
    fn lcm_u128_matches_the_limb_lcm(a in magnitude(), b in magnitude(),
                                     g in 1u128..(1 << 100), x in 0u128..(1 << 28),
                                     y in 0u128..(1 << 28)) {
        // Boundary operands that fit a word, and multiples of a common
        // factor, whose lcm `g·lcm(x, y)` falls on either side of 2¹²⁸.
        if let (Some(a), Some(b)) = (a.to_u128(), b.to_u128()) {
            check_lcm_u128(a, b)?;
        }
        check_lcm_u128(g * x, g * y)?;
    }

    #[test]
    fn bigint_to_i128_at_the_boundaries(x in signed()) {
        prop_assert_eq!(x.to_i128(), x.to_string().parse::<i128>().ok());
        let k = BigInt::from(lift_factor());
        check_same(&(&x * &k) / &k, x, "lift and divide back")?;
    }

    #[test]
    fn rational_boundaries_match_limb_kernels(x in rational(), y in rational(),
                                              n in signed(), d in nonzero_magnitude()) {
        let k = lift_factor();
        let ki = BigInt::from(k.clone());
        check_same(Rational::new(n.clone(), d.clone()), Rational::new(&n * &ki, &d * &k), "new")?;
        check_rational_ops(&x, &y)?;
    }
}

/// `lcm_u128` equals the limb `lcm` whenever that lcm is below 2¹²⁸, and is
/// `None` exactly when it is not.
fn check_lcm_u128(a: u128, b: u128) -> Result<(), TestCaseError> {
    let limb = lcm(&bigu(a), &bigu(b));
    prop_assert_eq!(lcm_u128(a, b), limb.to_u128(), "lcm_u128({}, {})", a, b);
    Ok(())
}

#[test]
fn lcm_u128_at_the_word_edges() {
    // lcm(2⁶⁴ − 1, 2⁶⁴ + 1) = 2¹²⁸ − 1 is the largest word lcm;
    // lcm(2⁶⁴, 2⁶⁴ + 1) = 2¹²⁸ + 2⁶⁴ is among the first past it.
    let p64 = 1u128 << 64;
    let edges = [
        0,
        1,
        2,
        3,
        (1 << 63) - 1,
        1 << 63,
        p64 - 1,
        p64,
        p64 + 1,
        (1 << 127) - 1,
        1 << 127,
        u128::MAX - 1,
        u128::MAX,
    ];
    for a in edges {
        for b in edges {
            check_lcm_u128(a, b).unwrap_or_else(|e| panic!("{e:?}"));
        }
    }
    assert_eq!(lcm_u128(p64 - 1, p64 + 1), Some(u128::MAX));
    assert_eq!(lcm_u128(p64, p64 + 1), None);
}

/// `+ - * /`, comparison and `to_f64` of `x` and `y` against the same
/// operations on operands lifted by `K`.
fn check_rational_ops(x: &Rational, y: &Rational) -> Result<(), TestCaseError> {
    let k = lift_factor();
    let ki = BigInt::from(k.clone());
    let (xn, xd) = (x.numer() * &ki, x.denom() * &k);
    let (yn, yd) = (y.numer() * &ki, y.denom() * &k);
    let (xdi, ydi) = (BigInt::from(xd.clone()), BigInt::from(yd.clone()));
    let (xn_yd, yn_xd) = (&xn * &ydi, &yn * &xdi);
    check_same(x + y, Rational::new(&xn_yd + &yn_xd, &xd * &yd), "add")?;
    check_same(x - y, Rational::new(&xn_yd - &yn_xd, &xd * &yd), "sub")?;
    check_same(x * y, Rational::new(&xn * &yn, &xd * &yd), "mul")?;
    if !y.is_zero() {
        check_same(
            x / y,
            Rational::from_bigints(xn_yd.clone(), &xdi * &yn),
            "div",
        )?;
    }
    prop_assert_eq!(x.cmp(y), xn_yd.cmp(&yn_xd));
    prop_assert_eq!(x.to_f64().to_bits(), limb_to_f64(x).to_bits());

    // Detours through heap-sized values shrink back to the same value.
    let h = Rational::from(&BigUint::one() << 200);
    check_same(&(x + &h) - &h, x.clone(), "add then subtract 2^200")?;
    check_same(&(x * &h) / &h, x.clone(), "multiply then divide by 2^200")?;
    Ok(())
}

#[test]
fn word_path_extremes_match_limb_kernels() {
    // The largest word-path operands: cross sums of these come within
    // 10·2⁶³ of 2¹²⁷. Beside them, the first values off the word path.
    let p63 = BigUint::one() << 63;
    let r = |neg: bool, n: &BigUint, d: &BigUint| {
        let sign = if neg { Sign::Minus } else { Sign::Plus };
        Rational::new(BigInt::from_parts(sign, n.clone()), d.clone())
    };
    let below = |k: u32| &p63 - &BigUint::from(k);
    let values = [
        r(false, &below(1), &below(2)),
        r(true, &below(3), &below(4)),
        r(false, &below(1), &BigUint::one()),
        r(true, &BigUint::one(), &below(1)),
        r(false, &p63, &below(1)),
        r(true, &(&(&p63 << 1) - &BigUint::one()), &p63),
        r(false, &BigUint::from(50u32), &BigUint::from(49u32)),
    ];
    for x in &values {
        for y in &values {
            check_rational_ops(x, y).unwrap_or_else(|e| panic!("{x} and {y}: {e:?}"));
        }
    }
}

#[test]
fn rational_from_ratio_at_the_i64_extremes() {
    let k = BigInt::from(lift_factor());
    for n in [
        i64::MIN,
        i64::MIN + 1,
        -(1 << 62),
        -1,
        0,
        1,
        1 << 62,
        i64::MAX,
    ] {
        for d in [i64::MIN, i64::MIN + 1, -3, -1, 1, 2, i64::MAX - 1, i64::MAX] {
            let (bn, bd) = (BigInt::from(n), BigInt::from(d));
            let limb = Rational::from_bigints(&bn * &k, &bd * &k);
            check_same(Rational::from_ratio(n, d), limb, "from_ratio").unwrap();
        }
    }
}

#[test]
fn to_f64_bits_are_pinned() {
    // Bit patterns produced before the inline/word fast paths existed: the
    // f64 swarm and dynamics engines take their capacities and targets
    // from these, so they must not move.
    let golden: [(&str, u64); 12] = [
        ("1/3", 0x3fd5555555555555),
        ("-22/7", 0xc009249249249249),
        ("3333333333333333/10000000000000001", 0x3fd5555555555554),
        (
            "9223372036854775807/9223372036854775805",
            0x3ff0000000000000,
        ),
        ("-18446744073709551617/3", 0xc3d5555555555555),
        (
            "1/170141183460469231731687303715884105727",
            0x3800000000000000,
        ),
        (
            "340282366920938463463374607431768211457/18446744073709551615",
            0x43f0000000000000,
        ),
        (
            "170141183460469231731687303715884105731/2147483649",
            0x45efffffffc00000,
        ),
        ("9007199254740993", 0x4340000000000000),
        ("18446744073709551615/4294967303", 0x41efffffff200000),
        (
            "-1606938044258990275541962092341162602522202993782792835301377/\
             1569275433846670190958947355801916604025588861116008628227",
            0xc090000000000000,
        ),
        ("49/1275", 0x3fa3ad46e07a13ad),
    ];
    for (text, bits) in golden {
        let x: Rational = text.parse().unwrap();
        assert_eq!(x.to_f64().to_bits(), bits, "{text}");
    }
}

// ---- exact square roots ---------------------------------------------------
//
// `BigUint::isqrt`'s Newton iterates are inline (one `u128`) below 2¹²⁸ and
// limb slices above, so squares of roots near 2³² and 2⁶⁴ (squares near 2⁶⁴
// and 2¹²⁸) land on both sides of each storage switch.

fn whole(m: &BigUint) -> Rational {
    Rational::new(BigInt::from_parts(Sign::Plus, m.clone()), BigUint::one())
}

/// `⌊√⌋` of `r²` and its neighbors, and `sqrt_exact` on the square, on
/// `r²/d²` and on the non-squares `r² ± 1` (for `r ≥ 2`).
fn check_sqrt(r: &BigUint, d: &BigUint) -> Result<(), TestCaseError> {
    let sq = r * r;
    prop_assert_eq!(sq.isqrt(), r.clone());
    prop_assert_eq!(whole(&sq).sqrt_exact(), Some(whole(r)));
    let q = &whole(&sq) / &whole(&(d * d));
    prop_assert_eq!(q.sqrt_exact(), Some(&whole(r) / &whole(d)));
    prop_assert_eq!(
        (-&q).sqrt_exact(),
        if q.is_zero() { Some(q.clone()) } else { None }
    );
    if r > &BigUint::one() {
        let (above, below) = (&sq + &BigUint::one(), &sq - &BigUint::one());
        prop_assert_eq!(above.isqrt(), r.clone());
        prop_assert_eq!(below.isqrt(), r - &BigUint::one());
        prop_assert_eq!(whole(&above).sqrt_exact(), None);
        prop_assert_eq!(whole(&below).sqrt_exact(), None);
        prop_assert_eq!((&whole(&sq) / &whole(&above)).sqrt_exact(), None);
    }
    Ok(())
}

proptest! {
    #[test]
    fn sqrt_exact_matches_squaring(r in magnitude(), d in nonzero_magnitude()) {
        check_sqrt(&r, &d)?;
    }
}

#[test]
fn sqrt_exact_at_the_word_and_inline_edges() {
    for e in [32u32, 64] {
        let edge = BigUint::one() << e;
        for off in 0u32..4 {
            let off = BigUint::from(off);
            for r in [&(&edge - &BigUint::one()) - &off, &edge + &off] {
                check_sqrt(&r, &BigUint::from(3u32))
                    .unwrap_or_else(|err| panic!("r = {r}: {err:?}"));
            }
        }
    }
    // (2⁶⁴ − 1)² < 2¹²⁸ stays a word; 2¹²⁸ itself is the first limb square.
    let top = BigUint::from(u128::MAX);
    assert_eq!(top.isqrt(), BigUint::from(u64::MAX));
    assert_eq!(whole(&top).sqrt_exact(), None);
    assert_eq!((BigUint::one() << 128).isqrt(), BigUint::one() << 64);
    for small in 0u32..50 {
        let n = BigUint::from(small);
        let root = (0u32..8).find(|k| k * k == small);
        assert_eq!(
            whole(&n).sqrt_exact(),
            root.map(|k| whole(&BigUint::from(k)))
        );
    }
}
