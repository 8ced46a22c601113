//! Exact parameter sweeps with solved breakpoints.
//!
//! `𝓑(x)` is piecewise-constant (Section III-B): the shape — which vertices
//! sit in which pair, on which side — only changes at finitely many rational
//! breakpoints. The sweep samples the decomposition on a uniform rational
//! grid, then *solves* each shape change inside every grid cell whose two
//! endpoints disagree ([`solve_breakpoint`]): a shape change is an
//! α-equality of Möbius functions, so the breakpoint comes out exact, with
//! bisection only as the counted fallback. Every evaluation is an exact
//! decomposition; no floating point touches the combinatorics.

use crate::family::GraphFamily;
use crate::moebius::{pair_moebius, solve_breakpoint, Breakpoint, Moebius};
use prs_bd::par::{worker_threads, SessionPool};
use prs_bd::{AgentClass, BottleneckDecomposition, DecompositionSession, SessionConfig};
use prs_graph::VertexId;
use prs_numeric::{Poly, Rational, RationalFunction};

/// One sampled point of a sweep.
#[derive(Clone, Debug)]
pub struct AlphaSample {
    /// Parameter value.
    pub x: Rational,
    /// `α_v(x)` of the focus vertex.
    pub alpha: Rational,
    /// `U_v(x)` of the focus vertex (Proposition 6 closed form).
    pub utility: Rational,
    /// Class of the focus vertex.
    pub class: AgentClass,
    /// The full decomposition at `x`.
    pub bd: BottleneckDecomposition,
}

impl AlphaSample {
    /// Decompose the family at `x` through `session`; `None` where that is
    /// undefined (only at domain boundaries, e.g. a 2-path whose partner
    /// reports 0: Proposition 3's `α₁ > 0` premise fails).
    pub fn at<F: GraphFamily>(
        fam: &F,
        x: &Rational,
        session: &mut DecompositionSession,
    ) -> Option<AlphaSample> {
        let g = fam.graph_at(x);
        let v = fam.focus_vertex();
        let bd = session.decompose(&g).ok()?;
        Some(AlphaSample {
            x: x.clone(),
            alpha: bd.alpha_of(v).clone(),
            utility: bd.utility(&g, v),
            class: bd.class_of(v),
            bd,
        })
    }
}

/// A maximal parameter interval over which the decomposition shape is
/// constant. Where the sweep solved the breakpoint between two intervals
/// ([`SweepResult::solved`]), both end at it (`left.hi == right.lo`); after
/// a fallback they end at the bracket's samples (`left.hi < right.lo`).
#[derive(Clone, Debug)]
pub struct ShapeInterval {
    /// Interval start: the solved breakpoint where this shape begins, or
    /// its first sample.
    pub lo: Rational,
    /// Interval end, likewise.
    pub hi: Rational,
    /// The pair-membership shape shared by all samples in the interval.
    pub shape: Vec<(Vec<VertexId>, Vec<VertexId>)>,
    /// Class of the focus vertex throughout the interval.
    pub focus_class: AgentClass,
    /// Each pair's exact Möbius α-model on the interval, in pair order.
    pub models: Vec<Moebius>,
}

impl ShapeInterval {
    /// `U_u(x)` on this interval as a rational function of the parameter:
    /// Proposition 6's `w_u·α`, `w_u/α` or `w_u` with the pair's Möbius α
    /// and `u`'s weight as an affine function. `None` if `u` is in no pair.
    pub fn utility_model<F: GraphFamily>(&self, fam: &F, u: VertexId) -> Option<RationalFunction> {
        let i = self
            .shape
            .iter()
            .position(|(b, c)| b.contains(&u) || c.contains(&u))?;
        let m = &self.models[i];
        let slope = Rational::from_integer(fam.weight_slope(u));
        let offset = fam.graph_at(&self.lo).weight(u) - &(&slope * &self.lo);
        let w = Poly::linear(offset, slope);
        let num = Poly::linear(m.p.clone(), m.q.clone());
        let den = Poly::linear(m.r.clone(), m.s.clone());
        let (b, c) = &self.shape[i];
        Some(if b == c {
            RationalFunction::from_poly(w)
        } else if b.contains(&u) {
            RationalFunction::new(&w * &num, den)
        } else {
            RationalFunction::new(&w * &den, num)
        })
    }
}

/// Sweep parameters.
///
/// Construct via [`SweepConfig::new`] + `with_*` builders; the struct is
/// `#[non_exhaustive]` so new knobs land without breaking callers.
#[non_exhaustive]
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Number of uniform grid cells over the domain.
    pub grid: usize,
    /// Bound on the fallback: the bisection steps the breakpoint solver may
    /// take in one cell before it returns a bracket of width
    /// `cell width / 2^bits` instead of an exact breakpoint.
    pub refine_bits: u32,
}

impl SweepConfig {
    /// The default sweep: 64 grid cells, at most 30 fallback bisection
    /// steps per cell, warm sessions.
    pub fn new() -> Self {
        SweepConfig {
            grid: 64,
            refine_bits: 30,
        }
    }

    /// Set the number of uniform grid cells.
    pub fn with_grid(mut self, grid: usize) -> Self {
        self.grid = grid;
        self
    }

    /// Set the per-cell bound on fallback bisection steps.
    pub fn with_refine_bits(mut self, bits: u32) -> Self {
        self.refine_bits = bits;
        self
    }
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig::new()
    }
}

/// Result of [`sweep`].
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// The kept samples in increasing parameter order: the grid, plus the
    /// final bracket of every cell's breakpoint — the last sample with the
    /// left shape and the first without, one of them the solved root.
    pub samples: Vec<AlphaSample>,
    /// Maximal constant-shape intervals in order.
    pub intervals: Vec<ShapeInterval>,
    /// Per pair of consecutive intervals, the solved breakpoint between.
    solved: Vec<Option<Rational>>,
}

impl SweepResult {
    /// Per pair of consecutive intervals (`intervals.windows(2)`), the
    /// exact breakpoint between them, or `None` after a fallback.
    pub fn solved(&self) -> &[Option<Rational>] {
        &self.solved
    }

    /// The breakpoints between consecutive intervals: exact where solved,
    /// the midpoint of the bracket elsewhere.
    pub fn breakpoints(&self) -> Vec<Rational> {
        let windows = self.intervals.windows(2).zip(&self.solved);
        windows
            .map(|(w, x)| x.clone().unwrap_or_else(|| w[0].hi.midpoint(&w[1].lo)))
            .collect()
    }

    /// The `(x, α_v, U_v)` series, e.g. for plotting Fig. 2 curves.
    pub fn curve(&self) -> Vec<(Rational, Rational, Rational)> {
        self.samples
            .iter()
            .map(|s| (s.x.clone(), s.alpha.clone(), s.utility.clone()))
            .collect()
    }
}

/// [`AlphaSample::at`] inside a `deviation.sample` span.
fn sample<F: GraphFamily>(
    fam: &F,
    x: &Rational,
    session: &mut DecompositionSession,
) -> Option<AlphaSample> {
    let mut sp = prs_trace::span("deviation", "sample");
    sp.attr("x", || x.to_string());
    AlphaSample::at(fam, x, session)
}

/// Solve the shape changes of one grid cell whose endpoints disagree in
/// shape, one after another until the right endpoint's shape is reached.
fn refine_cell<F: GraphFamily>(
    fam: &F,
    mut a: AlphaSample,
    b: AlphaSample,
    refine_bits: u32,
    session: &mut DecompositionSession,
) -> Vec<Breakpoint> {
    let mut found = Vec::new();
    loop {
        let mut sp = prs_trace::span("deviation", "refine_cell");
        sp.attr("lo", || a.x.to_string());
        sp.attr("hi", || b.x.to_string());
        let bp = solve_breakpoint(fam, a, b.clone(), refine_bits, &mut |x| {
            sample(fam, x, session)
        });
        sp.attr("route", || bp.route.clone());
        a = bp.bracket[1].clone();
        found.push(bp);
        if a.bd.shape() == b.bd.shape() {
            return found;
        }
    }
}

/// Group the sorted samples into maximal runs of one shape. Two runs whose
/// boundary samples bracket a solved root both end at the root.
fn assemble<F: GraphFamily>(
    fam: &F,
    samples: &[AlphaSample],
    roots: &[(Rational, Rational, Rational)],
) -> (Vec<ShapeInterval>, Vec<Option<Rational>>) {
    let mut intervals: Vec<ShapeInterval> = Vec::new();
    let mut starts = Vec::new(); // each run's first sample index
    for (i, s) in samples.iter().enumerate() {
        let shape = s.bd.shape();
        match intervals.last_mut() {
            Some(iv) if iv.shape == shape => iv.hi = s.x.clone(),
            _ => {
                starts.push(i);
                intervals.push(ShapeInterval {
                    lo: s.x.clone(),
                    hi: s.x.clone(),
                    shape,
                    focus_class: s.class,
                    models: pair_moebius(fam, s),
                });
            }
        }
    }
    let mut solved = Vec::new();
    for (k, &i) in starts.iter().enumerate().skip(1) {
        let (last, first) = (&samples[i - 1].x, &samples[i].x);
        let root = roots
            .iter()
            .find(|(l, f, _)| l == last && f == first)
            .map(|(_, _, x)| x.clone());
        if let Some(x) = &root {
            intervals[k - 1].hi = x.clone();
            intervals[k].lo = x.clone();
        }
        solved.push(root);
    }
    (intervals, solved)
}

/// Sweep a one-parameter family: exact decompositions on a uniform grid,
/// solved breakpoints where the shape changes.
///
/// Every evaluation is independent, so both passes fan out over scoped
/// worker threads; results are reassembled in parameter order, making the
/// output identical to a sequential sweep. The grid and breakpoint passes
/// share one [`SessionPool`]: each worker warm-starts its decompositions
/// from the shapes its session has already certified (piecewise-constant
/// `𝓑(x)` makes nearly every re-evaluation a cache hit).
pub fn sweep<F: GraphFamily + Sync>(fam: &F, cfg: &SweepConfig) -> SweepResult {
    let mut sp = prs_trace::span("deviation", "sweep");
    sp.attr("grid", || cfg.grid.to_string());
    sp.attr("refine_bits", || cfg.refine_bits.to_string());
    let (lo, hi) = fam.domain();
    assert!(lo < hi, "degenerate domain");
    let grid = cfg.grid.max(1);
    let width = &(&hi - &lo) / &Rational::from_integer(grid as i64);
    let pool = SessionPool::new(SessionConfig::new());

    // Grid pass (boundary points where the decomposition is undefined are
    // skipped — see `AlphaSample::at`).
    let xs: Vec<Rational> = (0..=grid)
        .map(|i| &lo + &(&width * &Rational::from_integer(i as i64)))
        .collect();
    let mut samples: Vec<AlphaSample> = pool
        .map_indexed(xs.len(), worker_threads(xs.len()), |session, i| {
            sample(fam, &xs[i], session)
        })
        .into_iter()
        .flatten()
        .collect();
    assert!(
        !samples.is_empty(),
        "family undecomposable on the whole sampled domain"
    );

    // Breakpoint pass: solve the shape changes inside each cell whose
    // endpoints differ in shape. (A cell hiding ≥ 2 breakpoints with
    // identical outer shapes is resolved only if the grid is fine enough;
    // raise `grid` for adversarial families.) Cells solve independently,
    // one worker each, with grid-pass sessions whose caches hold both
    // shapes of the cell.
    let cells: Vec<(AlphaSample, AlphaSample)> = samples
        .windows(2)
        .filter(|w| w[0].bd.shape() != w[1].bd.shape())
        .map(|w| (w[0].clone(), w[1].clone()))
        .collect();
    let refined = pool.map_indexed(cells.len(), worker_threads(cells.len()), |session, i| {
        let (a, b) = cells[i].clone();
        refine_cell(fam, a, b, cfg.refine_bits, session)
    });
    let mut roots = Vec::new(); // (last sample with the left shape, first without, root)
    for bp in refined.into_iter().flatten() {
        let [last, first] = bp.bracket;
        roots.extend(bp.x.map(|x| (last.x.clone(), first.x.clone(), x)));
        samples.extend([last, first]);
    }
    samples.sort_by(|p, q| p.x.cmp(&q.x));
    samples.dedup_by(|p, q| p.x == q.x);
    let (intervals, solved) = assemble(fam, &samples, &roots);

    sp.attr("samples", || samples.len().to_string());
    sp.attr("intervals", || intervals.len().to_string());
    let result = SweepResult {
        samples,
        intervals,
        solved,
    };
    if prs_trace::is_enabled() {
        // Each breakpoint is a point event carrying its exact parameter
        // value, so shape changes are visible on the timeline.
        for bp in result.breakpoints() {
            prs_trace::instant("deviation", "breakpoint", || vec![("x", bp.to_string())]);
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::MisreportFamily;
    use prs_graph::builders;
    use prs_numeric::{int, Rational};

    fn ints(vals: &[i64]) -> Vec<Rational> {
        vals.iter().map(|&v| int(v)).collect()
    }

    #[test]
    fn constant_shape_single_interval() {
        // Two-vertex path 1–4, agent 1 misreports: B = {1}, C = {0} holds
        // for all x ∈ (… well, until x < 1 where α crosses 1 …). Use agent 0
        // instead: weights (1, 4), agent 0 reports x ∈ [0, 1]: α({1}) = x/4,
        // α({0}) = 4/x ≥ 4 — B = {1} always, shape constant.
        let g = builders::path(ints(&[1, 4])).unwrap();
        let fam = MisreportFamily::new(g, 0);
        let res = sweep(&fam, &SweepConfig::new().with_grid(8).with_refine_bits(10));
        assert_eq!(res.intervals.len(), 1);
        assert!(res.breakpoints().is_empty());
    }

    #[test]
    fn breakpoint_detected_and_localized() {
        // Path (1, x), agent 1 reports x ∈ [0, 10]: for x < 1 the shape is
        // B = {0}, C = {1} (α = x); for x > 1 it flips to B = {1}, C = {0}
        // (α = 1/x); at x* = 1 they merge into the point pair B = C = {0,1}
        // with α = 1. The sweep must detect the shape change at x = 1 and
        // solve it exactly.
        let g = builders::path(ints(&[1, 10])).unwrap();
        let fam = MisreportFamily::new(g, 1);
        let res = sweep(&fam, &SweepConfig::new().with_grid(24).with_refine_bits(25));
        assert!(res.intervals.len() >= 2, "expected a shape change");
        // Both breakpoints — into the point interval [1, 1] and out of it —
        // sit at x* = 1 exactly, and consecutive intervals meet there.
        assert_eq!(res.breakpoints(), vec![int(1), int(1)]);
        assert_eq!(res.solved(), [Some(int(1)), Some(int(1))]);
        for w in res.intervals.windows(2) {
            assert_eq!(w[0].hi, w[1].lo);
        }
        assert_eq!(
            (&res.intervals[1].lo, &res.intervals[1].hi),
            (&int(1), &int(1))
        );
    }

    #[test]
    fn samples_are_sorted_and_unique() {
        let g = builders::ring(ints(&[3, 1, 4, 1, 5])).unwrap();
        let fam = MisreportFamily::new(g, 0);
        let res = sweep(&fam, &SweepConfig::new().with_grid(16).with_refine_bits(12));
        for w in res.samples.windows(2) {
            assert!(w[0].x < w[1].x);
        }
    }

    #[test]
    fn utilities_in_sweep_match_direct_decomposition() {
        let g = builders::ring(ints(&[2, 5, 3, 7])).unwrap();
        let fam = MisreportFamily::new(g.clone(), 1);
        let res = sweep(&fam, &SweepConfig::new().with_grid(10).with_refine_bits(4));
        for s in &res.samples {
            let g_x = g.with_weight(1, s.x.clone());
            let bd = prs_bd::decompose(&g_x).unwrap();
            assert_eq!(s.utility, bd.utility(&g_x, 1));
            assert_eq!(s.alpha, *bd.alpha_of(1));
        }
    }
}
