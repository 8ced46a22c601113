//! Small dense polynomials over [`Rational`] and ratios of them.
//!
//! Inside a constant-shape interval of a deviation sweep, every agent's
//! utility is a ratio of low-degree polynomials of the parameter (a weight
//! times a Möbius α-ratio or its reciprocal). The certified attack
//! optimizer (`prs-sybil::exact`) manipulates those symbolically: add the
//! copies' utilities, differentiate, locate critical points exactly or by
//! sign bisection. Degrees stay ≤ 4, so a simple dense representation is
//! the right tool.

use crate::rational::Rational;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// Dense univariate polynomial, little-endian coefficients
/// (`coeffs[i]` multiplies `x^i`), no trailing zeros.
#[derive(Clone, PartialEq, Eq)]
pub struct Poly {
    coeffs: Vec<Rational>,
}

impl Poly {
    /// The zero polynomial.
    pub fn zero() -> Self {
        Poly { coeffs: Vec::new() }
    }

    /// A constant.
    pub fn constant(c: Rational) -> Self {
        Poly::from_coeffs(vec![c])
    }

    /// `a + b·x`.
    pub fn linear(a: Rational, b: Rational) -> Self {
        Poly::from_coeffs(vec![a, b])
    }

    /// From little-endian coefficients (normalizes trailing zeros).
    pub fn from_coeffs(mut coeffs: Vec<Rational>) -> Self {
        while coeffs.last().is_some_and(|c| c.is_zero()) {
            coeffs.pop();
        }
        Poly { coeffs }
    }

    /// Degree; `None` for the zero polynomial.
    pub fn degree(&self) -> Option<usize> {
        self.coeffs.len().checked_sub(1)
    }

    /// Coefficient of `x^i` (zero beyond the degree).
    pub fn coeff(&self, i: usize) -> Rational {
        self.coeffs.get(i).cloned().unwrap_or_default()
    }

    /// True iff the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Horner evaluation.
    pub fn eval(&self, x: &Rational) -> Rational {
        let mut acc = Rational::zero();
        for c in self.coeffs.iter().rev() {
            acc = &(&acc * x) + c;
        }
        acc
    }

    /// Formal derivative.
    pub fn derivative(&self) -> Poly {
        if self.coeffs.len() <= 1 {
            return Poly::zero();
        }
        Poly::from_coeffs(
            self.coeffs
                .iter()
                .enumerate()
                .skip(1)
                .map(|(i, c)| c * &Rational::from_integer(i as i64)) // prs-lint: allow(cast, reason = "i is a coefficient index; a degree beyond i64 cannot be materialized")
                .collect(),
        )
    }

    /// All real roots, in increasing order, of a polynomial of degree 1 or
    /// 2 whose roots are rational (a quadratic with a square discriminant,
    /// taken by [`Rational::sqrt_exact`]); a constant has none. `None` for
    /// the zero polynomial, irrational roots and degree ≥ 3.
    pub fn rational_roots(&self) -> Option<Vec<Rational>> {
        let (c, b, a) = (self.coeff(0), self.coeff(1), self.coeff(2));
        match self.degree()? {
            0 => Some(Vec::new()),
            1 => Some(vec![&(-&c) / &b]),
            2 => {
                let disc = &(&b * &b) - &(&(&a * &c) * &Rational::from_integer(4));
                if disc.is_negative() {
                    return Some(Vec::new());
                }
                let s = disc.sqrt_exact()?;
                let two_a = &a + &a;
                let mut roots = vec![&(&(-&b) - &s) / &two_a, &(&(-&b) + &s) / &two_a];
                roots.sort();
                roots.dedup();
                Some(roots)
            }
            _ => None,
        }
    }

    /// Real roots inside `[lo, hi]`. Exact when they are rational and the
    /// degree is at most 2 (see [`Poly::rational_roots`]). Irrational
    /// quadratic roots and degrees 3–4 take a 64-cell sign grid, then
    /// bisect each sign change to width `(hi-lo)/64/2^bits` and return the
    /// midpoint; that grid misses a root pair closer than `(hi-lo)/64`
    /// and a root of even multiplicity.
    pub fn roots_in(&self, lo: &Rational, hi: &Rational, bits: u32) -> Vec<Rational> {
        if self.degree().unwrap_or(0) == 0 {
            return Vec::new();
        }
        if let Some(mut roots) = self.rational_roots() {
            roots.retain(|r| r >= lo && r <= hi);
            return roots;
        }
        // Sign-change bisection on a 64-cell grid (≤ 4 real roots).
        let mut roots = Vec::new();
        let grid = 64i64;
        let width = &(hi - lo) / &Rational::from_integer(grid);
        if width.is_zero() {
            return roots;
        }
        let mut prev_x = lo.clone();
        let mut prev_s = self.eval(&prev_x);
        if prev_s.is_zero() {
            roots.push(prev_x.clone());
        }
        for i in 1..=grid {
            let x = lo + &(&width * &Rational::from_integer(i));
            let s = self.eval(&x);
            if s.is_zero() {
                roots.push(x.clone());
            } else if prev_s.is_negative() != s.is_negative() && !prev_s.is_zero() {
                // Bisect [prev_x, x].
                let mut a = prev_x.clone();
                let mut b = x.clone();
                let mut fa = prev_s.clone();
                for _ in 0..bits {
                    let m = a.midpoint(&b);
                    let fm = self.eval(&m);
                    if fm.is_zero() {
                        a = m.clone();
                        b = m;
                        break;
                    }
                    if fa.is_negative() == fm.is_negative() {
                        a = m;
                        fa = fm;
                    } else {
                        b = m;
                    }
                }
                roots.push(a.midpoint(&b));
            }
            prev_x = x;
            prev_s = s;
        }
        roots
    }
}

impl fmt::Debug for Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let terms: Vec<String> = self
            .coeffs
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.is_zero())
            .map(|(i, c)| match i {
                0 => format!("{c}"),
                1 => format!("({c})x"),
                _ => format!("({c})x^{i}"),
            })
            .collect();
        write!(f, "{}", terms.join(" + "))
    }
}

impl Add<&Poly> for &Poly {
    type Output = Poly;
    fn add(self, rhs: &Poly) -> Poly {
        let n = self.coeffs.len().max(rhs.coeffs.len());
        Poly::from_coeffs((0..n).map(|i| &self.coeff(i) + &rhs.coeff(i)).collect())
    }
}

impl Sub<&Poly> for &Poly {
    type Output = Poly;
    fn sub(self, rhs: &Poly) -> Poly {
        let n = self.coeffs.len().max(rhs.coeffs.len());
        Poly::from_coeffs((0..n).map(|i| &self.coeff(i) - &rhs.coeff(i)).collect())
    }
}

impl Neg for &Poly {
    type Output = Poly;
    fn neg(self) -> Poly {
        Poly::from_coeffs(self.coeffs.iter().map(|c| -c).collect())
    }
}

impl Mul<&Poly> for &Poly {
    type Output = Poly;
    fn mul(self, rhs: &Poly) -> Poly {
        if self.is_zero() || rhs.is_zero() {
            return Poly::zero();
        }
        let mut out = vec![Rational::zero(); self.coeffs.len() + rhs.coeffs.len() - 1];
        for (i, a) in self.coeffs.iter().enumerate() {
            for (j, b) in rhs.coeffs.iter().enumerate() {
                out[i + j] += &(a * b);
            }
        }
        Poly::from_coeffs(out)
    }
}

/// A ratio of polynomials `num/den` (no common-factor reduction — degrees
/// stay tiny in this workspace).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RationalFunction {
    /// Numerator polynomial.
    pub num: Poly,
    /// Denominator polynomial (nonzero).
    pub den: Poly,
}

impl RationalFunction {
    /// `num / den`; panics on the zero denominator polynomial.
    pub fn new(num: Poly, den: Poly) -> Self {
        assert!(!den.is_zero(), "zero denominator polynomial");
        RationalFunction { num, den }
    }

    /// A polynomial as a rational function.
    pub fn from_poly(num: Poly) -> Self {
        RationalFunction {
            num,
            den: Poly::constant(Rational::one()),
        }
    }

    /// Evaluate; `None` where the denominator vanishes.
    pub fn eval(&self, x: &Rational) -> Option<Rational> {
        let d = self.den.eval(x);
        if d.is_zero() {
            return None;
        }
        Some(&self.num.eval(x) / &d)
    }

    /// Sum of rational functions.
    pub fn add(&self, rhs: &RationalFunction) -> RationalFunction {
        RationalFunction::new(
            &(&self.num * &rhs.den) + &(&rhs.num * &self.den),
            &self.den * &rhs.den,
        )
    }

    /// Numerator of the derivative (`num'·den − num·den'`); its roots are
    /// the critical points (the derivative's denominator `den²` is
    /// sign-definite away from poles).
    pub fn derivative_numerator(&self) -> Poly {
        &(&self.num.derivative() * &self.den) - &(&self.num * &self.den.derivative())
    }

    /// Maximize over `[lo, hi]`: evaluates endpoints and all critical
    /// points (localized to `2^-bits`), returns `(argmax, max)`.
    pub fn maximize(&self, lo: &Rational, hi: &Rational, bits: u32) -> (Rational, Rational) {
        let mut best_x = lo.clone();
        let mut best = self.eval(lo);
        let mut consider = |x: Rational, val: Option<Rational>| {
            if let Some(v) = val {
                match &best {
                    Some(b) if *b >= v => {}
                    _ => {
                        best = Some(v);
                        best_x = x;
                    }
                }
            }
        };
        consider(hi.clone(), self.eval(hi));
        for root in self.derivative_numerator().roots_in(lo, hi, bits) {
            let val = self.eval(&root);
            consider(root, val);
        }
        let best = best.expect("interval has at least one pole-free point"); // prs-lint: allow(panic, reason = "consider(hi, ..) ran unconditionally above, so best is Some")
        (best_x, best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{int, ratio};

    fn poly(cs: &[i64]) -> Poly {
        Poly::from_coeffs(cs.iter().map(|&c| int(c)).collect())
    }

    #[test]
    fn construction_normalizes() {
        assert!(poly(&[0, 0]).is_zero());
        assert_eq!(poly(&[1, 2, 0]).degree(), Some(1));
        assert_eq!(Poly::zero().degree(), None);
    }

    #[test]
    fn eval_horner() {
        let p = poly(&[1, -3, 2]); // 1 - 3x + 2x²
        assert_eq!(p.eval(&int(0)), int(1));
        assert_eq!(p.eval(&int(1)), int(0));
        assert_eq!(p.eval(&int(2)), int(3));
        assert_eq!(p.eval(&ratio(1, 2)), int(0));
    }

    #[test]
    fn arithmetic() {
        let p = poly(&[1, 1]);
        let q = poly(&[-1, 1]);
        assert_eq!(&p * &q, poly(&[-1, 0, 1])); // (x+1)(x-1) = x²-1
        assert_eq!(&p + &q, poly(&[0, 2]));
        assert_eq!(&p - &q, poly(&[2]));
        assert_eq!(-&p, poly(&[-1, -1]));
    }

    #[test]
    fn derivative() {
        assert_eq!(poly(&[5, 3, 2]).derivative(), poly(&[3, 4])); // 5+3x+2x² → 3+4x
        assert!(poly(&[7]).derivative().is_zero());
    }

    #[test]
    fn linear_roots() {
        let p = poly(&[-6, 2]); // 2x - 6
        assert_eq!(p.roots_in(&int(0), &int(10), 20), vec![int(3)]);
        assert!(p.roots_in(&int(4), &int(10), 20).is_empty());
    }

    #[test]
    fn quadratic_roots_bisected() {
        let p = poly(&[-2, 0, 1]); // x² - 2: root √2 ≈ 1.41421356…
        let roots = p.roots_in(&int(0), &int(2), 40);
        assert_eq!(roots.len(), 1);
        let err = (roots[0].to_f64() - 2f64.sqrt()).abs();
        assert!(err < 1e-10, "√2 localized poorly: {err}");
    }

    #[test]
    fn exact_rational_quadratic_root_on_grid() {
        let p = poly(&[2, -3, 1]); // (x-1)(x-2)
        let roots = p.roots_in(&int(0), &int(4), 30);
        assert_eq!(roots.len(), 2);
        // Grid points hit the integer roots exactly.
        assert_eq!(roots[0], int(1));
        assert_eq!(roots[1], int(2));
    }

    #[test]
    fn quadratic_roots_exact_off_grid() {
        // (3x − 1)(2x − 5) = 6x² − 17x + 5: neither root is a grid point.
        let p = poly(&[5, -17, 6]);
        assert_eq!(
            p.roots_in(&int(0), &int(4), 0),
            vec![ratio(1, 3), ratio(5, 2)]
        );
        assert_eq!(p.rational_roots(), Some(vec![ratio(1, 3), ratio(5, 2)]));
        // A double root has no sign change; the exact path still finds it.
        let q = poly(&[1, -6, 9]); // (3x − 1)²
        assert_eq!(q.roots_in(&int(0), &int(1), 0), vec![ratio(1, 3)]);
        assert_eq!(poly(&[1, 0, 1]).rational_roots(), Some(vec![]));
        assert_eq!(poly(&[-2, 0, 1]).rational_roots(), None);
    }

    #[test]
    fn rational_function_maximize_interior() {
        // f(x) = x(10-x) / 1: max at x = 5, value 25.
        let f = RationalFunction::from_poly(poly(&[0, 10, -1]));
        let (x, v) = f.maximize(&int(0), &int(10), 30);
        assert_eq!(x, int(5));
        assert_eq!(v, int(25));
    }

    #[test]
    fn rational_function_maximize_endpoint() {
        // f = x/(x+1): increasing, max at the right endpoint.
        let f = RationalFunction::new(poly(&[0, 1]), poly(&[1, 1]));
        let (x, v) = f.maximize(&int(0), &int(3), 30);
        assert_eq!(x, int(3));
        assert_eq!(v, ratio(3, 4));
    }

    #[test]
    fn rational_function_sum_and_derivative() {
        // x/(x+1) + (4-x)/1.
        let f = RationalFunction::new(poly(&[0, 1]), poly(&[1, 1]));
        let g = RationalFunction::from_poly(poly(&[4, -1]));
        let h = f.add(&g);
        assert_eq!(h.eval(&int(1)).unwrap(), &ratio(1, 2) + &int(3));
        // Critical point of h: h' = 1/(x+1)² − 1 = 0 → x = 0 (in [0, 3]).
        let crits = h.derivative_numerator().roots_in(&int(0), &int(3), 30);
        assert!(crits.iter().any(|r| r.to_f64().abs() < 1e-6), "{crits:?}");
    }
}
