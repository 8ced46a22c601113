//! Exact parameter sweeps with breakpoint localization.
//!
//! `𝓑(x)` is piecewise-constant (Section III-B): the shape — which vertices
//! sit in which pair, on which side — only changes at finitely many rational
//! breakpoints. The sweep samples the decomposition on a uniform rational
//! grid and then *bisects* (exactly, on rationals) every grid cell whose two
//! endpoints disagree, localizing each breakpoint to a configurable width.
//! Every evaluation is an exact decomposition; no floating point touches the
//! combinatorics.

use crate::family::GraphFamily;
use prs_bd::par::{worker_threads, SessionPool};
use prs_bd::{AgentClass, BottleneckDecomposition, DecompositionSession, SessionConfig};
use prs_graph::VertexId;
use prs_numeric::Rational;

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

/// A maximal parameter interval over which the decomposition shape is
/// constant (up to the sweep's localization width).
#[derive(Clone, Debug)]
pub struct ShapeInterval {
    /// Interval start (exact sample where this shape was first seen).
    pub lo: Rational,
    /// Interval end (last exact sample with this shape).
    pub hi: Rational,
    /// The pair-membership shape shared by all samples in the interval.
    pub shape: Vec<(Vec<VertexId>, Vec<VertexId>)>,
    /// `α`-ratios of the pairs at the `lo` sample.
    pub alphas_lo: Vec<Rational>,
    /// `α`-ratios of the pairs at the `hi` sample.
    pub alphas_hi: Vec<Rational>,
    /// Class of the focus vertex throughout the interval.
    pub focus_class: AgentClass,
}

/// Sweep parameters.
///
/// Construct via [`SweepConfig::new`] + `with_*` builders; the struct is
/// `#[non_exhaustive]` so new knobs (like the session cache controls) land
/// without breaking callers.
#[non_exhaustive]
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Number of uniform grid cells over the domain.
    pub grid: usize,
    /// Bisection steps used to localize each breakpoint
    /// (final width = cell width / 2^bits).
    pub refine_bits: u32,
    /// Shape-cache capacity of each worker session (default `32`; `0` runs
    /// every decomposition cold, with bit-identical results).
    pub cache_capacity: usize,
}

impl SweepConfig {
    /// The default sweep: 64 grid cells, 30-bit localization, warm sessions.
    pub fn new() -> Self {
        SweepConfig {
            grid: 64,
            refine_bits: 30,
            cache_capacity: 32,
        }
    }

    /// Set the number of uniform grid cells.
    pub fn with_grid(mut self, grid: usize) -> Self {
        self.grid = grid;
        self
    }

    /// Set the per-breakpoint bisection depth.
    pub fn with_refine_bits(mut self, bits: u32) -> Self {
        self.refine_bits = bits;
        self
    }

    /// Set the per-session shape-cache capacity.
    pub fn with_cache_capacity(mut self, cap: usize) -> Self {
        self.cache_capacity = cap;
        self
    }

    /// The session configuration implied by these sweep knobs.
    pub fn session_config(&self) -> SessionConfig {
        SessionConfig::new().with_cache_capacity(self.cache_capacity)
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
    /// All evaluated samples in increasing parameter order (grid +
    /// bisection probes).
    pub samples: Vec<AlphaSample>,
    /// Maximal constant-shape intervals in order.
    pub intervals: Vec<ShapeInterval>,
}

impl SweepResult {
    /// The localized breakpoints: midpoints between consecutive intervals.
    pub fn breakpoints(&self) -> Vec<Rational> {
        self.intervals
            .windows(2)
            .map(|w| w[0].hi.midpoint(&w[1].lo))
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

/// Decompose at `x`; `None` when the decomposition is undefined there
/// (possible only at domain boundaries, e.g. a 2-path whose partner reports
/// 0 — then its neighborhood weight is 0 and Proposition 3's `α₁ > 0`
/// premise fails).
fn sample<F: GraphFamily>(
    fam: &F,
    x: &Rational,
    session: &mut DecompositionSession,
) -> Option<AlphaSample> {
    let mut sp = prs_trace::span("deviation", "sample");
    sp.attr("x", || x.to_string());
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

/// Bisect one grid cell whose endpoints disagree in shape, returning the
/// refined `(left, right)` bracket samples.
fn refine_cell<F: GraphFamily>(
    fam: &F,
    mut a: AlphaSample,
    mut b: AlphaSample,
    refine_bits: u32,
    session: &mut DecompositionSession,
) -> (AlphaSample, AlphaSample) {
    let mut sp = prs_trace::span("deviation", "refine_cell");
    sp.attr("lo", || a.x.to_string());
    sp.attr("hi", || b.x.to_string());
    for _ in 0..refine_bits {
        let mid_x = a.x.midpoint(&b.x);
        let Some(mid) = sample(fam, &mid_x, session) else {
            break; // interior degeneracy: stop refining this cell
        };
        if mid.bd.shape() == a.bd.shape() {
            a = mid;
        } else {
            // The midpoint may match b's shape or be a third shape (two
            // breakpoints in the cell); either way the left boundary of
            // "not a's shape" lies in [a, mid].
            b = mid;
        }
    }
    (a, b)
}

/// Sweep a one-parameter family: exact decompositions on a uniform grid,
/// exact bisection where the shape changes.
///
/// Every evaluation is independent, so both passes fan out over scoped
/// worker threads; results are reassembled in parameter order, making the
/// output identical to a sequential sweep. The grid and bisection passes
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
    let pool = SessionPool::new(cfg.session_config());

    // Grid pass (boundary points where the decomposition is undefined are
    // skipped — see `sample`).
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

    // Bisection pass: localize boundaries inside cells whose endpoints have
    // different shapes. (A cell hiding ≥ 2 breakpoints with identical outer
    // shapes is resolved only if the grid is fine enough — documented
    // limitation; raise `grid` for adversarial families.) Cells refine
    // independently, one worker each, with grid-pass sessions re-checked out
    // of the pool — their caches already hold both shapes of each cell.
    let cells: Vec<(AlphaSample, AlphaSample)> = samples
        .windows(2)
        .filter(|w| w[0].bd.shape() != w[1].bd.shape())
        .map(|w| (w[0].clone(), w[1].clone()))
        .collect();
    let refined = pool.map_indexed(cells.len(), worker_threads(cells.len()), |session, i| {
        let (a, b) = cells[i].clone();
        refine_cell(fam, a, b, cfg.refine_bits, session)
    });
    let mut extra: Vec<AlphaSample> = Vec::new();
    for (a, b) in refined {
        extra.push(a);
        extra.push(b);
    }
    samples.extend(extra);
    samples.sort_by(|p, q| p.x.cmp(&q.x));
    samples.dedup_by(|p, q| p.x == q.x);

    // Interval assembly.
    let mut intervals: Vec<ShapeInterval> = Vec::new();
    for s in &samples {
        let shape = s.bd.shape();
        let alphas: Vec<Rational> = s.bd.pairs().iter().map(|p| p.alpha.clone()).collect();
        match intervals.last_mut() {
            Some(iv) if iv.shape == shape => {
                iv.hi = s.x.clone();
                iv.alphas_hi = alphas;
            }
            _ => intervals.push(ShapeInterval {
                lo: s.x.clone(),
                hi: s.x.clone(),
                shape,
                alphas_lo: alphas.clone(),
                alphas_hi: alphas,
                focus_class: s.class,
            }),
        }
    }

    sp.attr("samples", || samples.len().to_string());
    sp.attr("intervals", || intervals.len().to_string());
    let result = SweepResult { samples, intervals };
    if prs_trace::is_enabled() {
        // Each localized breakpoint is a point event carrying its exact
        // parameter value, so shape changes are visible on the timeline.
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
    use prs_numeric::{int, ratio, Rational};

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
        // localize it tightly.
        let g = builders::path(ints(&[1, 10])).unwrap();
        let fam = MisreportFamily::new(g, 1);
        let res = sweep(&fam, &SweepConfig::new().with_grid(24).with_refine_bits(25));
        assert!(res.intervals.len() >= 2, "expected a shape change");
        // The breakpoint estimate brackets x* = 1 within the refinement width.
        let bps = res.breakpoints();
        assert!(
            bps.iter().any(|b| (b - &int(1)).abs() < ratio(1, 1 << 15)),
            "breakpoints {bps:?} should include ≈1"
        );
        // Consecutive intervals are separated by tiny localized gaps.
        for w in res.intervals.windows(2) {
            let gap = &w[1].lo - &w[0].hi;
            assert!(!gap.is_negative());
            assert!(gap < ratio(1, 1 << 15), "gap {gap} too wide");
        }
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
