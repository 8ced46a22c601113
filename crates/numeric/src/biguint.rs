//! Arbitrary-precision unsigned integers.
//!
//! Representation: little-endian `u32` limbs with the invariant that the
//! most significant limb is nonzero (so zero is the empty limb slice).
//! `u32` limbs keep all intermediate products inside `u64`, which makes the
//! schoolbook kernels branch-light and easy to audit.
//!
//! Storage: a value below 2¹²⁸ keeps its (at most four) limbs inline and
//! never touches the heap; only a value that needs a fifth limb lives in a
//! heap vector. The form is a function of the value — inline iff below
//! 2¹²⁸ — so equality, hashing and ordering see exactly the limb slice
//! [`BigUint::limbs`] returns. Operations whose operands are all inline run
//! on `u128`; everything else runs the slice kernels.

// prs-lint: allow-file(cast, reason = "u32-limb kernels: every cast is a deliberate limb split/join with intermediates held in u64/i64, per the representation invariant above")

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Add, AddAssign, Div, Mul, Rem, Shl, Shr, Sub, SubAssign};

/// Number of bits per limb.
pub const LIMB_BITS: u32 = 32;

/// Limbs stored inline: every value below 2¹²⁸ lives without a heap buffer.
const INLINE_LIMBS: usize = 4;

/// Karatsuba multiplication kicks in above this many limbs per operand.
///
/// Below the threshold the schoolbook kernel wins on constant factors; the
/// value was picked with the `numeric` Criterion bench (see prs-bench).
const KARATSUBA_THRESHOLD: usize = 32;

/// Where the limbs live. Exactly one form per value (see the module docs).
#[derive(Clone)]
enum Repr {
    /// A value below 2¹²⁸: little-endian limbs, zero-padded.
    Inline([u32; INLINE_LIMBS]),
    /// A value of at least 2¹²⁸: more than `INLINE_LIMBS` limbs, top nonzero.
    Heap(Vec<u32>),
}

/// An arbitrary-precision unsigned integer.
///
/// All arithmetic is exact; operations that would underflow (`sub` with a
/// larger right-hand side) panic, mirroring the standard library's debug
/// behaviour for unsigned primitives.
#[derive(Clone)]
pub struct BigUint {
    repr: Repr,
}

#[inline]
fn split_u128(v: u128) -> [u32; INLINE_LIMBS] {
    [
        v as u32,
        (v >> 32) as u32,
        (v >> 64) as u32,
        (v >> 96) as u32,
    ]
}

#[inline]
fn join_u128(l: &[u32; INLINE_LIMBS]) -> u128 {
    u128::from(l[0]) | u128::from(l[1]) << 32 | u128::from(l[2]) << 64 | u128::from(l[3]) << 96
}

/// Number of significant limbs of an inline value.
#[inline]
fn inline_len(l: &[u32; INLINE_LIMBS]) -> usize {
    l.iter().rposition(|&x| x != 0).map_or(0, |i| i + 1)
}

impl BigUint {
    /// The value zero.
    #[inline]
    pub fn zero() -> Self {
        BigUint {
            repr: Repr::Inline([0; INLINE_LIMBS]),
        }
    }

    /// The value one.
    #[inline]
    pub fn one() -> Self {
        BigUint::from(1u32)
    }

    /// True iff `self == 0`.
    #[inline]
    pub fn is_zero(&self) -> bool {
        matches!(self.repr, Repr::Inline([0, 0, 0, 0]))
    }

    /// True iff `self == 1`.
    #[inline]
    pub fn is_one(&self) -> bool {
        matches!(self.repr, Repr::Inline([1, 0, 0, 0]))
    }

    /// True iff the value is even (zero counts as even).
    #[inline]
    pub fn is_even(&self) -> bool {
        self.limbs().first().is_none_or(|&l| l & 1 == 0)
    }

    /// Construct from raw little-endian limbs (normalizing trailing zeros).
    pub fn from_limbs(mut limbs: Vec<u32>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        if limbs.len() > INLINE_LIMBS {
            return BigUint {
                repr: Repr::Heap(limbs),
            };
        }
        let mut inline = [0; INLINE_LIMBS];
        inline[..limbs.len()].copy_from_slice(&limbs);
        BigUint {
            repr: Repr::Inline(inline),
        }
    }

    /// Borrow the little-endian limbs.
    #[inline]
    pub fn limbs(&self) -> &[u32] {
        match &self.repr {
            Repr::Inline(l) => &l[..inline_len(l)],
            Repr::Heap(v) => v,
        }
    }

    /// Move the limbs into a vector for the slice kernels: the heap buffer
    /// itself when there is one, else a copy with room for one carry limb.
    fn into_vec(self) -> Vec<u32> {
        match self.repr {
            Repr::Inline(l) => {
                let mut v = Vec::with_capacity(INLINE_LIMBS + 1);
                v.extend_from_slice(&l[..inline_len(&l)]);
                v
            }
            Repr::Heap(v) => v,
        }
    }

    /// [`BigUint::into_vec`] on `self`, leaving zero behind.
    fn take_vec(&mut self) -> Vec<u32> {
        std::mem::take(self).into_vec()
    }

    /// Number of significant bits (0 for the value zero).
    pub fn bit_len(&self) -> u64 {
        match &self.repr {
            Repr::Inline(l) => u64::from(128 - join_u128(l).leading_zeros()),
            Repr::Heap(v) => match v.last() {
                None => 0,
                Some(&hi) => {
                    (v.len() as u64 - 1) * LIMB_BITS as u64 + (32 - hi.leading_zeros()) as u64
                }
            },
        }
    }

    /// Number of trailing zero bits; `None` for the value zero.
    pub fn trailing_zeros(&self) -> Option<u64> {
        for (i, &l) in self.limbs().iter().enumerate() {
            if l != 0 {
                return Some(i as u64 * LIMB_BITS as u64 + l.trailing_zeros() as u64);
            }
        }
        None
    }

    /// The value of bit `i` (little-endian bit numbering).
    pub fn bit(&self, i: u64) -> bool {
        let limb = (i / LIMB_BITS as u64) as usize;
        match self.limbs().get(limb) {
            None => false,
            Some(&l) => (l >> (i % LIMB_BITS as u64)) & 1 == 1,
        }
    }

    // ---- addition / subtraction ----------------------------------------

    fn add_assign_ref(&mut self, rhs: &BigUint) {
        if let (Some(a), Some(b)) = (self.to_u128(), rhs.to_u128()) {
            if let Some(s) = a.checked_add(b) {
                *self = BigUint::from(s);
                return;
            }
        }
        let mut limbs = self.take_vec();
        add_limbs(&mut limbs, rhs.limbs());
        *self = BigUint::from_limbs(limbs);
    }

    /// `self -= rhs`; panics if `rhs > self`.
    fn sub_assign_ref(&mut self, rhs: &BigUint) {
        if let (Some(a), Some(b)) = (self.to_u128(), rhs.to_u128()) {
            assert!(a >= b, "BigUint subtraction underflow");
            *self = BigUint::from(a - b);
            return;
        }
        let mut limbs = self.take_vec();
        sub_limbs(&mut limbs, rhs.limbs());
        *self = BigUint::from_limbs(limbs);
    }

    // ---- multiplication ------------------------------------------------

    /// Multiply by a single limb in place.
    pub fn mul_limb(&mut self, m: u32) {
        if let Some(p) = self.to_u128().and_then(|a| a.checked_mul(u128::from(m))) {
            *self = BigUint::from(p);
            return;
        }
        // A heap operand, or an inline one whose product needs a fifth limb.
        let mut limbs = self.take_vec();
        let mut carry = 0u64;
        for a in limbs.iter_mut() {
            let prod = *a as u64 * m as u64 + carry;
            *a = prod as u32;
            carry = prod >> LIMB_BITS;
        }
        if carry != 0 {
            limbs.push(carry as u32);
        }
        *self = BigUint::from_limbs(limbs);
    }

    /// Schoolbook product of limb slices into a fresh vector.
    fn mul_schoolbook(a: &[u32], b: &[u32]) -> Vec<u32> {
        let mut out = vec![0u32; a.len() + b.len()];
        for (i, &ai) in a.iter().enumerate() {
            if ai == 0 {
                continue;
            }
            let mut carry = 0u64;
            for (j, &bj) in b.iter().enumerate() {
                let t = out[i + j] as u64 + ai as u64 * bj as u64 + carry;
                out[i + j] = t as u32;
                carry = t >> LIMB_BITS;
            }
            let mut k = i + b.len();
            while carry != 0 {
                let t = out[k] as u64 + carry;
                out[k] = t as u32;
                carry = t >> LIMB_BITS;
                k += 1;
            }
        }
        out
    }

    /// Karatsuba product of limb slices.
    fn mul_karatsuba(a: &[u32], b: &[u32]) -> Vec<u32> {
        if a.len().min(b.len()) < KARATSUBA_THRESHOLD {
            return Self::mul_schoolbook(a, b);
        }
        let half = a.len().max(b.len()) / 2;
        let (a0, a1) = a.split_at(half.min(a.len()));
        let (b0, b1) = b.split_at(half.min(b.len()));
        let a0 = BigUint::from_limbs(a0.to_vec());
        let a1 = BigUint::from_limbs(a1.to_vec());
        let b0 = BigUint::from_limbs(b0.to_vec());
        let b1 = BigUint::from_limbs(b1.to_vec());

        let z0 = &a0 * &b0;
        let z2 = &a1 * &b1;
        let z1 = &(&a0 + &a1) * &(&b0 + &b1) - &z0 - &z2;

        let mut out = z0.into_vec();
        add_shifted(&mut out, z1.limbs(), half);
        add_shifted(&mut out, z2.limbs(), 2 * half);
        out
    }

    // ---- division ------------------------------------------------------

    /// Divide by a single limb, returning the remainder.
    pub fn div_rem_limb(&mut self, d: u32) -> u32 {
        assert!(d != 0, "division by zero");
        if let Some(a) = self.to_u128() {
            let q = a / u128::from(d);
            *self = BigUint::from(q);
            return (a - q * u128::from(d)) as u32;
        }
        let mut limbs = self.take_vec();
        let mut rem = 0u64;
        for a in limbs.iter_mut().rev() {
            let cur = (rem << LIMB_BITS) | *a as u64;
            *a = (cur / d as u64) as u32;
            rem = cur % d as u64;
        }
        *self = BigUint::from_limbs(limbs);
        rem as u32
    }

    /// Quotient and remainder; panics if `divisor` is zero.
    ///
    /// Knuth TAOCP vol. 2, Algorithm D, with the usual normalization shift so
    /// the trial quotient digit is off by at most two.
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero");
        if let (Some(a), Some(d)) = (self.to_u128(), divisor.to_u128()) {
            let q = a / d;
            return (BigUint::from(q), BigUint::from(a - q * d));
        }
        if self < divisor {
            return (BigUint::zero(), self.clone());
        }
        if let [d] = divisor.limbs() {
            let mut q = self.clone();
            let r = q.div_rem_limb(*d);
            return (q, BigUint::from(r));
        }

        // Normalize: shift so the divisor's top limb has its high bit set.
        let shift = divisor.limbs().last().unwrap().leading_zeros(); // prs-lint: allow(panic, reason = "divisor is nonzero (checked above), so it has a top limb")
        let u = self << shift; // dividend
        let v = divisor << shift; // divisor
        let vn = v.limbs();
        let n = vn.len();
        let m = u.limbs().len() - n;

        let mut un = u.into_vec();
        un.push(0); // u has m+n+1 digits now
        let v_hi = vn[n - 1] as u64;
        let v_lo = vn[n - 2] as u64;

        let mut q_limbs = vec![0u32; m + 1];
        for j in (0..=m).rev() {
            // Trial quotient from the top two dividend digits.
            let top = ((un[j + n] as u64) << LIMB_BITS) | un[j + n - 1] as u64;
            let mut qhat = top / v_hi;
            let mut rhat = top % v_hi;
            // Correct qhat down while it is provably too large.
            while qhat >= 1u64 << LIMB_BITS
                || qhat * v_lo > ((rhat << LIMB_BITS) | un[j + n - 2] as u64)
            {
                qhat -= 1;
                rhat += v_hi;
                if rhat >= 1u64 << LIMB_BITS {
                    break;
                }
            }
            // Multiply-and-subtract qhat * v from u[j .. j+n].
            let mut borrow = 0i64;
            let mut carry = 0u64;
            for i in 0..n {
                let p = qhat * vn[i] as u64 + carry;
                carry = p >> LIMB_BITS;
                let t = un[i + j] as i64 - (p as u32) as i64 - borrow;
                if t < 0 {
                    un[i + j] = (t + (1i64 << LIMB_BITS)) as u32;
                    borrow = 1;
                } else {
                    un[i + j] = t as u32;
                    borrow = 0;
                }
            }
            let t = un[j + n] as i64 - carry as i64 - borrow;
            if t < 0 {
                // qhat was one too large: add v back and decrement.
                un[j + n] = (t + (1i64 << LIMB_BITS)) as u32;
                qhat -= 1;
                let mut c = 0u64;
                for i in 0..n {
                    let s = un[i + j] as u64 + vn[i] as u64 + c;
                    un[i + j] = s as u32;
                    c = s >> LIMB_BITS;
                }
                un[j + n] = un[j + n].wrapping_add(c as u32);
            } else {
                un[j + n] = t as u32;
            }
            q_limbs[j] = qhat as u32;
        }

        let q = BigUint::from_limbs(q_limbs);
        un.truncate(n);
        let r = BigUint::from_limbs(un) >> shift;
        (q, r)
    }

    /// `self^exp` by binary exponentiation.
    pub fn pow(&self, mut exp: u32) -> BigUint {
        let mut base = self.clone();
        let mut acc = BigUint::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = &acc * &base;
            }
            exp >>= 1;
            if exp > 0 {
                base = &base * &base;
            }
        }
        acc
    }

    /// `self >>= bits` in place: a heap value reuses its own buffer.
    pub(crate) fn shr_in_place(&mut self, bits: u32) {
        if let Some(a) = self.to_u128() {
            *self = BigUint::from(a.checked_shr(bits).unwrap_or(0));
            return;
        }
        let mut limbs = self.take_vec();
        let limb_shift = (bits / LIMB_BITS) as usize;
        if limb_shift >= limbs.len() {
            return; // `take_vec` left zero behind
        }
        limbs.drain(..limb_shift);
        shr_bits(&mut limbs, bits % LIMB_BITS);
        *self = BigUint::from_limbs(limbs);
    }

    /// Convert to `u64` if it fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.repr {
            Repr::Inline([lo, hi, 0, 0]) => Some(u64::from(hi) << LIMB_BITS | u64::from(lo)),
            _ => None,
        }
    }

    /// Convert to `u128` if it fits (exactly when the value is inline).
    #[inline]
    pub fn to_u128(&self) -> Option<u128> {
        match &self.repr {
            Repr::Inline(l) => Some(join_u128(l)),
            Repr::Heap(_) => None,
        }
    }

    /// `⌊√self⌋` by integer Newton iteration from the over-estimate
    /// `2^⌈bits/2⌉`. Below 2¹²⁸ every iterate is inline, so each step runs
    /// on `u128`.
    pub fn isqrt(&self) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let half = u32::try_from(self.bit_len().div_ceil(2)).unwrap_or(u32::MAX);
        let mut x = &BigUint::one() << half;
        loop {
            let y = &(&x + &(self / &x)) >> 1u32;
            if y >= x {
                return x;
            }
            x = y;
        }
    }

    // prs-lint: allow(float, panic, reason = "the one sanctioned exact→float bridge: feeds display and the f64 swarm capacities only; to_u64 cannot fail after the bit_len checks")
    /// Best-effort conversion to `f64` (rounds; may overflow to infinity).
    pub fn to_f64(&self) -> f64 {
        let bits = self.bit_len();
        if bits <= 64 {
            return self.to_u64().unwrap() as f64;
        }
        // Take the top 64 bits and scale.
        let excess = bits - 64;
        let top = (self >> excess as u32).to_u64().unwrap();
        top as f64 * 2f64.powi(excess as i32)
    }
}

// ---- slice kernels ----------------------------------------------------------

/// Drop most-significant zero limbs.
fn trim(limbs: &mut Vec<u32>) {
    while limbs.last() == Some(&0) {
        limbs.pop();
    }
}

/// `acc += rhs`.
fn add_limbs(acc: &mut Vec<u32>, rhs: &[u32]) {
    if acc.len() < rhs.len() {
        acc.resize(rhs.len(), 0);
    }
    let mut carry = 0u64;
    for (i, a) in acc.iter_mut().enumerate() {
        let b = *rhs.get(i).unwrap_or(&0) as u64;
        let sum = *a as u64 + b + carry;
        *a = sum as u32;
        carry = sum >> LIMB_BITS;
        if carry == 0 && i >= rhs.len() {
            break;
        }
    }
    if carry != 0 {
        acc.push(carry as u32);
    }
}

/// `acc -= rhs`; panics if `rhs > acc`.
fn sub_limbs(acc: &mut Vec<u32>, rhs: &[u32]) {
    assert!(acc.len() >= rhs.len(), "BigUint subtraction underflow");
    let mut borrow = 0i64;
    for (i, a) in acc.iter_mut().enumerate() {
        let b = *rhs.get(i).unwrap_or(&0) as i64;
        let diff = *a as i64 - b - borrow;
        if diff < 0 {
            *a = (diff + (1i64 << LIMB_BITS)) as u32;
            borrow = 1;
        } else {
            *a = diff as u32;
            borrow = 0;
        }
        if borrow == 0 && i >= rhs.len() {
            break;
        }
    }
    assert_eq!(borrow, 0, "BigUint subtraction underflow");
    trim(acc);
}

/// `acc += other << (limb_shift * 32)`.
fn add_shifted(acc: &mut Vec<u32>, other: &[u32], limb_shift: usize) {
    if other.is_empty() {
        return;
    }
    let needed = other.len() + limb_shift;
    if acc.len() < needed {
        acc.resize(needed, 0);
    }
    let mut carry = 0u64;
    for (i, &o) in other.iter().enumerate() {
        let idx = i + limb_shift;
        let t = acc[idx] as u64 + o as u64 + carry;
        acc[idx] = t as u32;
        carry = t >> LIMB_BITS;
    }
    let mut k = needed;
    while carry != 0 {
        if k == acc.len() {
            acc.push(0);
        }
        let t = acc[k] as u64 + carry;
        acc[k] = t as u32;
        carry = t >> LIMB_BITS;
        k += 1;
    }
}

/// Shift right by `bit_shift < 32` bits in place.
fn shr_bits(limbs: &mut [u32], bit_shift: u32) {
    if bit_shift == 0 {
        return;
    }
    let mut carry = 0u32;
    for l in limbs.iter_mut().rev() {
        let new = (*l >> bit_shift) | carry;
        carry = *l << (LIMB_BITS - bit_shift);
        *l = new;
    }
}

// ---- From impls ---------------------------------------------------------

impl Default for BigUint {
    fn default() -> Self {
        BigUint::zero()
    }
}

impl From<u32> for BigUint {
    fn from(v: u32) -> Self {
        BigUint {
            repr: Repr::Inline([v, 0, 0, 0]),
        }
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        BigUint::from(u128::from(v))
    }
}

impl From<u128> for BigUint {
    fn from(v: u128) -> Self {
        BigUint {
            repr: Repr::Inline(split_u128(v)),
        }
    }
}

impl From<usize> for BigUint {
    fn from(v: usize) -> Self {
        BigUint::from(v as u64)
    }
}

// ---- comparison / hashing ---------------------------------------------------

impl PartialEq for BigUint {
    fn eq(&self, other: &Self) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Inline(a), Repr::Inline(b)) => a == b,
            (Repr::Heap(a), Repr::Heap(b)) => a == b,
            // One form per value: an inline value is below every heap value.
            _ => false,
        }
    }
}

impl Eq for BigUint {}

impl Hash for BigUint {
    /// Hashes the limb slice, exactly as a `Vec<u32>` of the limbs would.
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.limbs().hash(state);
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        if let (Some(a), Some(b)) = (self.to_u128(), other.to_u128()) {
            return a.cmp(&b);
        }
        let (a, b) = (self.limbs(), other.limbs());
        a.len()
            .cmp(&b.len())
            .then_with(|| a.iter().rev().cmp(b.iter().rev()))
    }
}

// ---- operator impls (by reference; owned variants delegate) ---------------

impl Add<&BigUint> for &BigUint {
    type Output = BigUint;
    fn add(self, rhs: &BigUint) -> BigUint {
        let mut out = self.clone();
        out.add_assign_ref(rhs);
        out
    }
}

impl Add for BigUint {
    type Output = BigUint;
    fn add(mut self, rhs: BigUint) -> BigUint {
        self.add_assign_ref(&rhs);
        self
    }
}

impl AddAssign<&BigUint> for BigUint {
    fn add_assign(&mut self, rhs: &BigUint) {
        self.add_assign_ref(rhs);
    }
}

impl Sub<&BigUint> for &BigUint {
    type Output = BigUint;
    fn sub(self, rhs: &BigUint) -> BigUint {
        let mut out = self.clone();
        out.sub_assign_ref(rhs);
        out
    }
}

impl Sub for BigUint {
    type Output = BigUint;
    fn sub(mut self, rhs: BigUint) -> BigUint {
        self.sub_assign_ref(&rhs);
        self
    }
}

impl Sub<&BigUint> for BigUint {
    type Output = BigUint;
    fn sub(mut self, rhs: &BigUint) -> BigUint {
        self.sub_assign_ref(rhs);
        self
    }
}

impl SubAssign<&BigUint> for BigUint {
    fn sub_assign(&mut self, rhs: &BigUint) {
        self.sub_assign_ref(rhs);
    }
}

impl Mul<&BigUint> for &BigUint {
    type Output = BigUint;
    fn mul(self, rhs: &BigUint) -> BigUint {
        if let (Some(a), Some(b)) = (self.to_u128(), rhs.to_u128()) {
            if let Some(p) = a.checked_mul(b) {
                return BigUint::from(p);
            }
        }
        if self.is_zero() || rhs.is_zero() {
            return BigUint::zero();
        }
        BigUint::from_limbs(BigUint::mul_karatsuba(self.limbs(), rhs.limbs()))
    }
}

impl Mul for BigUint {
    type Output = BigUint;
    fn mul(self, rhs: BigUint) -> BigUint {
        &self * &rhs
    }
}

impl Div<&BigUint> for &BigUint {
    type Output = BigUint;
    fn div(self, rhs: &BigUint) -> BigUint {
        self.div_rem(rhs).0
    }
}

impl Rem<&BigUint> for &BigUint {
    type Output = BigUint;
    fn rem(self, rhs: &BigUint) -> BigUint {
        self.div_rem(rhs).1
    }
}

impl Shl<u32> for &BigUint {
    type Output = BigUint;
    fn shl(self, bits: u32) -> BigUint {
        if let Some(a) = self.to_u128() {
            if a.leading_zeros() >= bits {
                return BigUint::from(a.checked_shl(bits).unwrap_or(0));
            }
        }
        if self.is_zero() || bits == 0 {
            return self.clone();
        }
        let limb_shift = (bits / LIMB_BITS) as usize;
        let bit_shift = bits % LIMB_BITS;
        let mut limbs = vec![0u32; limb_shift];
        if bit_shift == 0 {
            limbs.extend_from_slice(self.limbs());
        } else {
            let mut carry = 0u32;
            for &l in self.limbs() {
                limbs.push((l << bit_shift) | carry);
                carry = l >> (LIMB_BITS - bit_shift);
            }
            if carry != 0 {
                limbs.push(carry);
            }
        }
        BigUint::from_limbs(limbs)
    }
}

impl Shl<u32> for BigUint {
    type Output = BigUint;
    fn shl(self, bits: u32) -> BigUint {
        &self << bits
    }
}

impl Shr<u32> for &BigUint {
    type Output = BigUint;
    fn shr(self, bits: u32) -> BigUint {
        if let Some(a) = self.to_u128() {
            return BigUint::from(a.checked_shr(bits).unwrap_or(0));
        }
        let limb_shift = (bits / LIMB_BITS) as usize;
        let Some(kept) = self.limbs().get(limb_shift..) else {
            return BigUint::zero();
        };
        let mut limbs = kept.to_vec();
        shr_bits(&mut limbs, bits % LIMB_BITS);
        BigUint::from_limbs(limbs)
    }
}

impl Shr<u32> for BigUint {
    type Output = BigUint;
    fn shr(mut self, bits: u32) -> BigUint {
        self.shr_in_place(bits);
        self
    }
}

impl Shr<u64> for &BigUint {
    type Output = BigUint;
    fn shr(self, bits: u64) -> BigUint {
        self >> (bits.min(u32::MAX as u64) as u32)
    }
}

// ---- formatting / parsing --------------------------------------------------

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(v) = self.to_u128() {
            return f.pad_integral(true, "", &v.to_string());
        }
        // Repeatedly divide by 1e9 to peel decimal chunks.
        let mut v = self.clone();
        let mut chunks = Vec::new();
        while !v.is_zero() {
            chunks.push(v.div_rem_limb(1_000_000_000));
        }
        let mut s = chunks.pop().unwrap().to_string(); // prs-lint: allow(panic, reason = "v was nonzero, so the peel loop pushed at least one chunk")
        for c in chunks.iter().rev() {
            s.push_str(&format!("{c:09}"));
        }
        f.pad_integral(true, "", &s)
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Error parsing a big integer from a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBigIntError {
    pub(crate) kind: &'static str,
}

impl fmt::Display for ParseBigIntError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid big integer: {}", self.kind)
    }
}

impl std::error::Error for ParseBigIntError {}

impl std::str::FromStr for BigUint {
    type Err = ParseBigIntError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.is_empty() {
            return Err(ParseBigIntError { kind: "empty" });
        }
        let mut v = BigUint::zero();
        for ch in s.chars() {
            let d = ch.to_digit(10).ok_or(ParseBigIntError { kind: "digit" })?;
            v.mul_limb(10);
            v.add_assign_ref(&BigUint::from(d));
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(v: u128) -> BigUint {
        BigUint::from(v)
    }

    #[test]
    fn zero_and_one() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert!(!BigUint::one().is_zero());
        assert_eq!(BigUint::zero().bit_len(), 0);
        assert_eq!(BigUint::one().bit_len(), 1);
    }

    #[test]
    fn add_small() {
        assert_eq!(&big(2) + &big(3), big(5));
        assert_eq!(&big(u64::MAX as u128) + &big(1), big(u64::MAX as u128 + 1));
    }

    #[test]
    fn add_carry_chain() {
        let a = big(u128::MAX);
        let s = &a + &BigUint::one();
        assert_eq!(s.bit_len(), 129);
        assert_eq!(&s - &BigUint::one(), a);
    }

    #[test]
    fn sub_basic() {
        assert_eq!(&big(5) - &big(3), big(2));
        assert_eq!(&big(5) - &big(5), BigUint::zero());
        let a = big(1u128 << 100);
        assert_eq!(&(&a + &big(7)) - &a, big(7));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = &big(3) - &big(5);
    }

    #[test]
    fn mul_matches_u128() {
        let cases = [
            (0u128, 17u128),
            (1, 1),
            (123456789, 987654321),
            (u64::MAX as u128, u64::MAX as u128),
            (1 << 90, 1 << 30),
        ];
        for (a, b) in cases {
            if let Some(p) = a.checked_mul(b) {
                assert_eq!(&big(a) * &big(b), big(p), "{a} * {b}");
            }
        }
    }

    #[test]
    fn mul_large_karatsuba_agrees_with_schoolbook() {
        // Operands above the Karatsuba threshold.
        let a_limbs: Vec<u32> = (0..100u32)
            .map(|i| i.wrapping_mul(0x9E3779B9) | 1)
            .collect();
        let b_limbs: Vec<u32> = (0..80u32).map(|i| i.wrapping_mul(0x85EBCA6B) | 1).collect();
        let a = BigUint::from_limbs(a_limbs.clone());
        let b = BigUint::from_limbs(b_limbs.clone());
        let kara = &a * &b;
        let school = BigUint::from_limbs(BigUint::mul_schoolbook(&a_limbs, &b_limbs));
        assert_eq!(kara, school);
    }

    #[test]
    fn div_rem_small() {
        let (q, r) = big(17).div_rem(&big(5));
        assert_eq!((q, r), (big(3), big(2)));
        let (q, r) = big(100).div_rem(&big(10));
        assert_eq!((q, r), (big(10), big(0)));
        let (q, r) = big(3).div_rem(&big(5));
        assert_eq!((q, r), (big(0), big(3)));
    }

    #[test]
    fn div_rem_roundtrip_large() {
        let a = BigUint::from_limbs(
            (0..50u32)
                .map(|i| i.wrapping_mul(2654435761) ^ 0xabc)
                .collect(),
        );
        let d = BigUint::from_limbs((0..13u32).map(|i| i.wrapping_mul(40503) | 5).collect());
        let (q, r) = a.div_rem(&d);
        assert!(r < d);
        assert_eq!(&(&q * &d) + &r, a);
    }

    #[test]
    fn div_rem_algorithm_d_addback_path() {
        // A case engineered to exercise the rare add-back correction:
        // dividend just below a multiple of the divisor with top digits equal.
        let d = BigUint::from_limbs(vec![0, 0, 1, u32::MAX]);
        let a = BigUint::from_limbs(vec![
            u32::MAX,
            u32::MAX,
            u32::MAX,
            u32::MAX,
            u32::MAX,
            u32::MAX,
        ]);
        let (q, r) = a.div_rem(&d);
        assert!(r < d);
        assert_eq!(&(&q * &d) + &r, a);
    }

    #[test]
    fn shifts() {
        let a = big(0b1011);
        assert_eq!(&a << 3, big(0b1011000));
        assert_eq!(&(&a << 100) >> 100u32, a);
        assert_eq!(&a >> 10u32, BigUint::zero());
        assert_eq!(&a >> 1u32, big(0b101));
    }

    #[test]
    fn bit_ops() {
        let a = big(0b10110);
        assert!(!a.bit(0));
        assert!(a.bit(1));
        assert!(a.bit(2));
        assert!(!a.bit(3));
        assert!(a.bit(4));
        assert!(!a.bit(1000));
        assert_eq!(a.trailing_zeros(), Some(1));
        assert_eq!(BigUint::zero().trailing_zeros(), None);
    }

    #[test]
    fn pow() {
        assert_eq!(big(2).pow(10), big(1024));
        assert_eq!(big(3).pow(0), BigUint::one());
        assert_eq!(
            big(10).pow(30),
            "1000000000000000000000000000000".parse().unwrap()
        );
    }

    #[test]
    fn display_and_parse_roundtrip() {
        for s in [
            "0",
            "1",
            "999999999",
            "1000000000",
            "123456789012345678901234567890",
        ] {
            let v: BigUint = s.parse().unwrap();
            assert_eq!(v.to_string(), s);
        }
        assert!("".parse::<BigUint>().is_err());
        assert!("12a".parse::<BigUint>().is_err());
    }

    #[test]
    fn ordering() {
        assert!(big(3) < big(5));
        assert!(big(1 << 100) > big(u64::MAX as u128));
        assert_eq!(big(42).cmp(&big(42)), Ordering::Equal);
    }

    #[test]
    fn to_f64_large() {
        let a = big(1u128 << 100);
        let f = a.to_f64();
        assert!((f - 2f64.powi(100)).abs() / 2f64.powi(100) < 1e-15);
    }

    #[test]
    fn to_u64_u128_bounds() {
        assert_eq!(big(u64::MAX as u128).to_u64(), Some(u64::MAX));
        assert_eq!(big(u64::MAX as u128 + 1).to_u64(), None);
        assert_eq!(big(u128::MAX).to_u128(), Some(u128::MAX));
        assert_eq!((&big(u128::MAX) + &BigUint::one()).to_u128(), None);
    }

    #[test]
    fn mul_limb_and_div_rem_limb() {
        let mut a = big(123456789);
        a.mul_limb(1000);
        assert_eq!(a, big(123456789000));
        let r = a.div_rem_limb(7);
        assert_eq!(r, (123456789000u64 % 7) as u32);
    }

    #[test]
    fn one_form_per_value() {
        // Padding zeros never reach the heap form, and a 2^128 carry does.
        let padded = BigUint::from_limbs(vec![7, 0, 0, 0, 0, 0]);
        assert!(matches!(padded.repr, Repr::Inline(_)));
        assert_eq!(padded, big(7));
        assert_eq!(padded.limbs(), &[7]);
        let top = &big(u128::MAX) + &BigUint::one();
        assert!(matches!(top.repr, Repr::Heap(_)));
        assert_eq!(top.limbs(), &[0, 0, 0, 0, 1]);
        // Results that shrink below 2^128 come back inline.
        let back = &top - &BigUint::one();
        assert!(matches!(back.repr, Repr::Inline(_)));
        assert_eq!(back, big(u128::MAX));
        let shifted = (&big(5) << 200) >> 200u32;
        assert!(matches!(shifted.repr, Repr::Inline(_)));
        assert_eq!(shifted, big(5));
        assert!(BigUint::from_limbs(vec![0, 0, 0, 0, 0]).is_zero());
    }

    #[test]
    fn hash_matches_the_limb_vector() {
        use std::collections::hash_map::DefaultHasher;
        fn h<T: Hash + ?Sized>(x: &T) -> u64 {
            let mut s = DefaultHasher::new();
            x.hash(&mut s);
            s.finish()
        }
        for v in [BigUint::zero(), big(1), big(u128::MAX), &big(1) << 300] {
            assert_eq!(h(&v), h(&v.limbs().to_vec()));
        }
    }

    #[test]
    fn shr_in_place_matches_shr() {
        let a = BigUint::from_limbs((1..=9u32).map(|i| i.wrapping_mul(0x9E3779B9)).collect());
        for s in [0u32, 1, 31, 32, 33, 64, 100, 159, 160, 287, 288, 300] {
            let mut b = a.clone();
            b.shr_in_place(s);
            assert_eq!(b, &a >> s, "shift {s}");
        }
    }
}
