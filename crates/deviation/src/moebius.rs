//! Exact interval algebra: α-ratios as Möbius functions of the parameter,
//! and the breakpoint solver built on them.
//!
//! Inside a constant-shape interval of a one-parameter family, pair
//! memberships are fixed, and every vertex weight is affine in the
//! parameter (`w_u(x) = a_u + c_u·x`, slopes `c_u ∈ {-1, 0, +1}` — see
//! [`GraphFamily::weight_slope`]). Hence each pair's α-ratio is the Möbius
//! function
//!
//! ```text
//! α_i(x) = w(C_i)(x) / w(B_i)(x) = (p + q·x) / (r + s·x)
//! ```
//!
//! with integer-slope numerator/denominator. [`pair_moebius`] reads those
//! coefficients **exactly** off a sample's own decomposition, and
//! [`solve_breakpoint`] uses them to find where a shape ends: every shape
//! change is an α-equality (Proposition 12), a linear or quadratic equation
//! in `x`, so the breakpoint is solved rather than bisected.

use crate::family::GraphFamily;
use crate::sweep::{AlphaSample, ShapeInterval};
use prs_bd::BottleneckDecomposition;
use prs_graph::{VertexId, VertexSet};
use prs_numeric::{Poly, Rational};
use prs_trace::Counter;

/// A decomposition shape: each pair's `(B, C)` members, in pair order.
type Shape = [(Vec<VertexId>, Vec<VertexId>)];

static SOLVED: Counter = Counter::new("deviation.breakpoints_solved");
static FALLBACKS: Counter = Counter::new("deviation.breakpoint_fallbacks");

/// The exact Möbius form `(p + q·x) / (r + s·x)` of one pair's α-ratio on a
/// constant-shape interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Moebius {
    /// Numerator constant term.
    pub p: Rational,
    /// Numerator slope.
    pub q: Rational,
    /// Denominator constant term.
    pub r: Rational,
    /// Denominator slope.
    pub s: Rational,
}

impl Moebius {
    /// Evaluate at `x`; `None` if the denominator vanishes there.
    pub fn eval(&self, x: &Rational) -> Option<Rational> {
        let den = &self.r + &(&self.s * x);
        if den.is_zero() {
            return None;
        }
        let num = &self.p + &(&self.q * x);
        Some(&num / &den)
    }

    /// Every rational `x` with `self(x) = other(x)`, in increasing order.
    /// Cross-multiplied the equality is at most quadratic: linear when at
    /// most one operand moves with `x`, quadratic when both do (a C→B
    /// crossing at α = 1 — on the path `(1, x)` it is `x = 1/x`). Empty
    /// for identical operands and for irrational or no real roots.
    pub fn equality_roots(&self, other: &Moebius) -> Vec<Rational> {
        // (p1 + q1 x)(r2 + s2 x) = (p2 + q2 x)(r1 + s1 x)
        let a = &(&self.q * &other.s) - &(&other.q * &self.s);
        let b = &(&(&self.p * &other.s) + &(&self.q * &other.r))
            - &(&(&other.p * &self.s) + &(&other.q * &self.r));
        let c = &(&self.p * &other.r) - &(&other.p * &self.r);
        Poly::from_coeffs(vec![c, b, a])
            .rational_roots()
            .unwrap_or_default()
    }
}

/// The Möbius α-model of every pair of a sample's decomposition, read off
/// the decomposition the sample already holds and the family's weight
/// slopes: `p = w(C)(x₀) − slope(C)·x₀`, `q = slope(C)`, and likewise for
/// `B` — all exact rationals.
pub fn pair_moebius<F: GraphFamily>(fam: &F, sample: &AlphaSample) -> Vec<Moebius> {
    let g = fam.graph_at(&sample.x);
    // (value at x = 0, slope) of w(S)(x).
    let affine = |set: &VertexSet| {
        let (mut w, mut slope) = (Rational::zero(), 0i64);
        for u in set.iter() {
            w += g.weight(u);
            slope += fam.weight_slope(u);
        }
        let slope = Rational::from_integer(slope);
        (&w - &(&slope * &sample.x), slope)
    };
    let models = sample.bd.pairs().iter().map(|pair| {
        let ((p, q), (r, s)) = (affine(&pair.c), affine(&pair.b));
        Moebius { p, q, r, s }
    });
    models.collect()
}

/// The measured α of every pair of `bd`, in pair order.
pub(crate) fn measured(bd: &BottleneckDecomposition) -> Vec<Rational> {
    bd.pairs().iter().map(|p| p.alpha.clone()).collect()
}

/// Every pair's α at `x` under `models`; `None` where a denominator
/// vanishes.
fn alphas_at(models: &[Moebius], x: &Rational) -> Option<Vec<Rational>> {
    models.iter().map(|m| m.eval(x)).collect()
}

/// True iff every vertex has the same α under both profiles: `alphas[i]`
/// for the pairs of `shape`, `other_alphas[j]` for the pairs of `other`.
fn same_vertex_alphas(
    shape: &Shape,
    alphas: &[Rational],
    other: &BottleneckDecomposition,
    other_alphas: &[Rational],
) -> bool {
    shape.iter().zip(alphas).all(|((b, c), a)| {
        (b.iter().chain(c)).all(|&u| other_alphas.get(other.pair_of(u)) == Some(a))
    })
}

/// Check an interval's Möbius models exactly against the measured α-ratios
/// of every sample of its shape inside it — a consistency proof of the
/// piecewise-Möbius structure on this instance.
pub fn verify_interval(interval: &ShapeInterval, samples: &[AlphaSample]) -> Result<(), String> {
    let inside = samples
        .iter()
        .filter(|s| interval.lo <= s.x && s.x <= interval.hi && s.bd.shape() == interval.shape);
    for s in inside {
        for (i, (model, pair)) in interval.models.iter().zip(s.bd.pairs()).enumerate() {
            let predicted = model.eval(&s.x);
            if predicted.as_ref() != Some(&pair.alpha) {
                return Err(format!(
                    "pair {i}: Möbius model predicts α = {predicted:?} at x = {}, measured {}",
                    s.x, pair.alpha
                ));
            }
        }
    }
    Ok(())
}

/// The outcome of [`solve_breakpoint`].
#[derive(Clone, Debug)]
pub struct Breakpoint {
    /// The exact parameter where `a`'s shape ends, when solved.
    pub x: Option<Rational>,
    /// The last sample seen with `a`'s shape and the first without; the
    /// solved root is one of them.
    pub bracket: [AlphaSample; 2],
    /// How it ended: `solved`, or solved / fallen back after bisection
    /// steps, with the reason the last step ran.
    pub route: String,
}

/// Find, exactly, where the shape `S₀` of sample `a` ends on the way to
/// sample `b`, which has another shape and may lie on either side of `a`.
///
/// The α-models of both samples' pairs ([`pair_moebius`]) give every
/// candidate event in closed form: two adjacent `S₀` pairs tie, the last
/// `S₀` pair reaches α = 1, or an `S₀` pair meets a pair of `b`'s shape.
/// The rational root nearest `a` between the two samples is taken where
/// `S₀`'s α's are still in pair order and the event is `S₀`-internal or
/// every vertex has the same α under both shapes, and [`confirm`]ed with
/// at most two decompositions through `probe`. Otherwise one bisection step
/// narrows the bracket and the solver tries again; after `refine_bits`
/// steps it returns the bracket, as a fallback.
pub fn solve_breakpoint<F: GraphFamily>(
    fam: &F,
    mut a: AlphaSample,
    mut b: AlphaSample,
    refine_bits: u32,
    probe: &mut dyn FnMut(&Rational) -> Option<AlphaSample>,
) -> Breakpoint {
    let shape0 = a.bd.shape();
    let left = pair_moebius(fam, &a);
    // Why the last bisection step ran.
    let mut why = None;
    for step in 0..=refine_bits {
        let root = first_root(&a, &shape0, &left, &b, &pair_moebius(fam, &b));
        if let Some(r) = &root {
            match confirm(fam, &shape0, &left, r, &a, &b, probe) {
                Ok(bracket) => {
                    SOLVED.add(1);
                    let route =
                        why.map_or("solved".into(), |w| format!("solved after bisection ({w})"));
                    return Breakpoint {
                        x: root,
                        bracket,
                        route,
                    };
                }
                Err(seen) => seen
                    .into_iter()
                    .for_each(|s| narrow(&mut a, &mut b, &shape0, s)),
            }
        }
        why = Some(root.map_or("no exact root", |_| "unconfirmed root"));
        let mid = a.x.midpoint(&b.x);
        match (step < refine_bits).then(|| probe(&mid)).flatten() {
            Some(s) => narrow(&mut a, &mut b, &shape0, s),
            None => break, // out of steps, or an interior degeneracy
        }
    }
    FALLBACKS.add(1);
    let route = format!("fallback ({})", why.unwrap_or("no exact root"));
    Breakpoint {
        x: None,
        bracket: [a, b],
        route,
    }
}

/// True iff `x` lies between `a` and `b`, ends included.
fn between(a: &Rational, x: &Rational, b: &Rational) -> bool {
    (a <= x && x <= b) || (b <= x && x <= a)
}

/// The candidate root of [`solve_breakpoint`] nearest `a`.
fn first_root(
    a: &AlphaSample,
    shape0: &Shape,
    left: &[Moebius],
    b: &AlphaSample,
    right: &[Moebius],
) -> Option<Rational> {
    // (root, S₀-internal?)
    let mut roots: Vec<(Rational, bool)> = Vec::new();
    for (i, m) in left.iter().enumerate() {
        // Adjacent S₀ pairs tie, or the last one reaches α = 1.
        let internal = match left.get(i + 1) {
            Some(next) => m.equality_roots(next),
            None => Poly::linear(&m.p - &m.r, &m.q - &m.s)
                .rational_roots()
                .unwrap_or_default(),
        };
        roots.extend(internal.into_iter().map(|x| (x, true)));
        for other in right {
            roots.extend(m.equality_roots(other).into_iter().map(|x| (x, false)));
        }
    }
    roots.retain(|(x, _)| between(&a.x, x, &b.x));
    roots.sort_by_key(|(x, _)| (x - &a.x).abs());
    let qualifies = |x: &Rational, internal: bool| {
        alphas_at(left, x).is_some_and(|al| {
            al.windows(2).all(|w| w[0] <= w[1])
                && al.first().is_some_and(Rational::is_positive)
                && al.last().is_some_and(|l| *l <= Rational::one())
                && (internal
                    || alphas_at(right, x)
                        .is_some_and(|ar| same_vertex_alphas(shape0, &al, &b.bd, &ar)))
        })
    };
    roots
        .into_iter()
        .find(|(x, internal)| qualifies(x, *internal))
        .map(|(x, _)| x)
}

/// Confirm that `S₀` ends exactly at root `r` of the bracket `[a, b]`:
/// `S₀`'s models meet the α's measured at `r`, and `S₀` is gone at `r` or,
/// probed only then, at the midpoint toward `b`, whose models meet them
/// too. `Ok` holds the last `S₀` sample and the first without; `Err` the
/// samples taken, to narrow the bracket with.
fn confirm<F: GraphFamily>(
    fam: &F,
    shape0: &Shape,
    left: &[Moebius],
    r: &Rational,
    a: &AlphaSample,
    b: &AlphaSample,
    probe: &mut dyn FnMut(&Rational) -> Option<AlphaSample>,
) -> Result<[AlphaSample; 2], Vec<AlphaSample>> {
    let known = |x: &Rational| [a, b].into_iter().find(|s| &s.x == x).cloned();
    let meets = |shape: &Shape, models: &[Moebius], rs: &AlphaSample| {
        let al = alphas_at(models, r);
        al.is_some_and(|al| same_vertex_alphas(shape, &al, &rs.bd, &measured(&rs.bd)))
    };
    let Some(rs) = known(r).or_else(|| probe(r)) else {
        return Err(Vec::new());
    };
    if !meets(shape0, left, &rs) {
        return Err(vec![rs]);
    }
    if rs.bd.shape() != shape0 {
        return Ok([a.clone(), rs]);
    }
    let m = r.midpoint(&b.x);
    let Some(ms) = known(&m).or_else(|| probe(&m)) else {
        return Err(vec![rs]);
    };
    let shape_m = ms.bd.shape();
    if shape_m != shape0 && meets(&shape_m, &pair_moebius(fam, &ms), &rs) {
        Ok([rs, ms])
    } else {
        Err(vec![rs, ms])
    }
}

/// Narrow the bracket — `a` has shape `S₀`, `b` does not — with sample `s`.
fn narrow(a: &mut AlphaSample, b: &mut AlphaSample, shape0: &Shape, s: AlphaSample) {
    if between(&a.x, &s.x, &b.x) {
        if s.bd.shape() == shape0 {
            *a = s;
        } else {
            *b = s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::MisreportFamily;
    use crate::sweep::{sweep, SweepConfig};
    use prs_bd::DecompositionSession;
    use prs_graph::builders;
    use prs_numeric::{int, ratio, Rational};

    fn ints(vals: &[i64]) -> Vec<Rational> {
        vals.iter().map(|&v| int(v)).collect()
    }

    /// `(p + q·x) / (r + s·x)`.
    fn mb(p: i64, q: i64, r: i64, s: i64) -> Moebius {
        let [p, q, r, s] = [p, q, r, s].map(int);
        Moebius { p, q, r, s }
    }

    #[test]
    fn moebius_eval_and_linear_root() {
        // f = (2 + x) / 4, g = 3/2 constant: equal at x = 4.
        let (f, g) = (mb(2, 1, 4, 0), mb(3, 0, 2, 0));
        assert_eq!(f.eval(&int(2)).unwrap(), int(1));
        assert_eq!(f.equality_roots(&g), vec![int(4)]);
    }

    #[test]
    fn equality_root_rejects_parallel_and_quadratic() {
        let f = mb(1, 1, 2, 0);
        assert!(f.equality_roots(&f).is_empty()); // identical
                                                  // x/(1+x) = 1+x ⇔ x² + x + 1 = 0 — quadratic, no real root.
        assert!(mb(0, 1, 1, 1).equality_roots(&mb(1, 1, 1, 0)).is_empty());
        // The path (1, x): α = x meets α = 1/x at x = ±1 (a quadratic).
        let roots = mb(0, 1, 1, 0).equality_roots(&mb(1, 0, 0, 1));
        assert_eq!(roots, vec![int(-1), int(1)]);
    }

    #[test]
    fn pair_moebius_matches_sampled_alphas() {
        let g = builders::ring(ints(&[6, 2, 4, 3, 5])).unwrap();
        let fam = MisreportFamily::new(g, 0);
        let mut session = DecompositionSession::detached();
        // At x = 1 the shape is B = {2,4}, C = {0,1,3} (cf. experiment E7):
        // α₀(x) = (x + 2 + 3)/(4 + 5) = (5 + x)/9.
        let at_one = AlphaSample::at(&fam, &int(1), &mut session).unwrap();
        let m = pair_moebius(&fam, &at_one).remove(0);
        assert_eq!(m.eval(&int(1)).unwrap(), ratio(6, 9));
        assert_eq!(m.eval(&int(3)).unwrap(), ratio(8, 9));
        assert_eq!(m, mb(5, 1, 9, 0));
    }

    #[test]
    fn interval_models_verify_across_sweeps() {
        let g = builders::ring(ints(&[6, 2, 4, 3, 5])).unwrap();
        let fam = MisreportFamily::new(g, 0);
        let res = sweep(&fam, &SweepConfig::new().with_grid(24).with_refine_bits(20));
        for iv in &res.intervals {
            verify_interval(iv, &res.samples).unwrap();
        }
    }

    #[test]
    fn exact_breakpoint_on_known_instance() {
        // Ring (6,2,4,3,5), agent 0: E7 showed the single breakpoint sits at
        // x = 4 — where α₀(x) = (5+x)/9 crosses 1.
        let g = builders::ring(ints(&[6, 2, 4, 3, 5])).unwrap();
        let fam = MisreportFamily::new(g, 0);
        let res = sweep(&fam, &SweepConfig::new().with_grid(24).with_refine_bits(22));
        assert_eq!(res.intervals.len(), 2);
        assert_eq!(res.breakpoints(), vec![int(4)]);
        assert_eq!(res.intervals[0].hi, int(4));
        assert_eq!(res.intervals[1].lo, int(4));
    }

    #[test]
    fn exact_breakpoint_two_path() {
        // Path (1, x), agent 1: breakpoint exactly at x = 1 (α = x meets
        // α = 1/x ⇔ both meet 1).
        let g = builders::path(ints(&[1, 10])).unwrap();
        let fam = MisreportFamily::new(g, 1);
        let res = sweep(&fam, &SweepConfig::new().with_grid(24).with_refine_bits(22));
        let bps = res.breakpoints();
        assert!(bps.iter().any(|b| b == &int(1)), "{bps:?}");
    }
}
