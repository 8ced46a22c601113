//! Exact optimizer for the best Sybil split.
//!
//! `U(w₁) = U_{v¹}(w₁, w_v − w₁) + U_{v²}(w₁, w_v − w₁)` is piecewise smooth
//! with finitely many breakpoints (the split-path decomposition is
//! piecewise-constant in `w₁`). The optimizer runs a uniform exact-rational
//! grid and then recursively zooms on the best cell(s). Every evaluation is
//! an exact BD decomposition:
//!
//! * every reported payoff is a *certified lower bound* on the optimum, and
//! * the Theorem 8 check `payoff ≤ 2·U_v` is exact at every visited point —
//!   a single counterexample would be irrefutable.
//!
//! Since `U` may have interior maxima (both copies C-class trading off
//! hyperbolically), zooming keeps a few best cells per level, not just one.

// prs-lint: allow-file(panic, reason = "attack entry requires a validated positive-weight ring (asserted below); with that precondition the decomposition and the nonempty-curve invariant cannot fail without a solver bug")

use crate::split::SybilSplitFamily;
use prs_bd::par::{worker_threads, SessionPool};
use prs_bd::{DecompositionSession, SessionConfig};
use prs_graph::{Graph, VertexId};
use prs_numeric::Rational;

/// One evaluated split.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitSample {
    /// The first copy's weight (`w₂ = w_v − w₁`).
    pub w1: Rational,
    /// `U_{v¹}` at this split.
    pub u1: Rational,
    /// `U_{v²}` at this split.
    pub u2: Rational,
}

impl SplitSample {
    /// Total attacker payoff at this split.
    pub fn total(&self) -> Rational {
        &self.u1 + &self.u2
    }
}

/// Optimizer configuration.
///
/// Construct via [`AttackConfig::new`] + `with_*` builders; the struct is
/// `#[non_exhaustive]` so new knobs land without breaking callers.
#[non_exhaustive]
#[derive(Clone, Debug)]
pub struct AttackConfig {
    /// Grid cells per zoom level.
    pub grid: usize,
    /// Zoom levels (each shrinks the bracket by `grid / (2 · keep)`).
    pub zoom_levels: usize,
    /// Number of best cells carried to the next level.
    pub keep: usize,
}

impl AttackConfig {
    /// The default optimizer: 48-cell grid, 6 zoom levels, keep 3 cells.
    pub fn new() -> Self {
        AttackConfig {
            grid: 48,
            zoom_levels: 6,
            keep: 3,
        }
    }

    /// Set the grid cells per zoom level.
    pub fn with_grid(mut self, grid: usize) -> Self {
        self.grid = grid;
        self
    }

    /// Set the number of zoom levels.
    pub fn with_zoom_levels(mut self, levels: usize) -> Self {
        self.zoom_levels = levels;
        self
    }

    /// Set the number of best cells carried to the next level.
    pub fn with_keep(mut self, keep: usize) -> Self {
        self.keep = keep;
        self
    }
}

impl Default for AttackConfig {
    fn default() -> Self {
        AttackConfig::new()
    }
}

/// Outcome of a Sybil attack optimization on one `(ring, v)`.
#[derive(Clone, Debug)]
pub struct SybilOutcome {
    /// The agent's honest utility `U_v` on the ring.
    pub honest_utility: Rational,
    /// Best split found.
    pub best: SplitSample,
    /// `ζ_v` lower bound: best payoff / honest utility.
    pub ratio: Rational,
    /// Coarse samples of the payoff curve (first grid level), for plots.
    pub curve: Vec<SplitSample>,
    /// Number of exact decompositions performed.
    pub evaluations: usize,
}

impl SybilOutcome {
    /// `ζ_v` as `f64` for reporting.
    pub fn ratio_f64(&self) -> f64 {
        self.ratio.to_f64()
    }
}

fn eval(
    fam: &SybilSplitFamily,
    w1: &Rational,
    session: &mut DecompositionSession,
) -> Option<SplitSample> {
    let mut sp = prs_trace::span("sybil", "split_eval");
    sp.attr("w1", || w1.to_string());
    fam.payoff_in(w1, session).map(|(u1, u2)| SplitSample {
        w1: w1.clone(),
        u1,
        u2,
    })
}

/// Evaluate every split in `xs` (exact decompositions, fanned out over
/// scoped workers with pooled warm sessions), keeping successful samples in
/// input order.
fn eval_batch(fam: &SybilSplitFamily, xs: &[Rational], pool: &SessionPool) -> Vec<SplitSample> {
    pool.map_indexed(xs.len(), worker_threads(xs.len()), |session, i| {
        eval(fam, &xs[i], session)
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Maximize the attacker payoff over `w₁ ∈ [0, w_v]` for agent `v` on a
/// ring. Exact at every sampled point.
///
/// ```
/// use prs_graph::builders;
/// use prs_numeric::{int, Rational};
/// use prs_sybil::{best_sybil_split, AttackConfig};
///
/// let ring = builders::ring(vec![int(6), int(1), int(4), int(2), int(5)]).unwrap();
/// let out = best_sybil_split(&ring, 0, &AttackConfig::default());
/// assert!(out.ratio >= Rational::one());               // Lemma 9 floor
/// assert!(out.ratio <= Rational::from_integer(2));     // Theorem 8
/// ```
pub fn best_sybil_split(ring: &Graph, v: VertexId, cfg: &AttackConfig) -> SybilOutcome {
    let mut sp = prs_trace::span("sybil", "attack");
    sp.attr("v", || v.to_string());
    sp.attr("grid", || cfg.grid.to_string());
    let fam = SybilSplitFamily::new(ring.clone(), v);
    let bd = prs_bd::decompose(ring).expect("ring decomposes");
    let honest = bd.utility(ring, v);

    let total = fam.total().clone();
    assert!(total.is_positive(), "agent must own positive weight");
    let mut evals = 0usize;
    // One pool for the whole optimization: zoom-level evaluations warm-start
    // from the shapes the level-0 grid certified.
    let pool = SessionPool::new(SessionConfig::new());

    let grid_pts = |lo: &Rational, hi: &Rational, m: usize| -> Vec<Rational> {
        let width = &(hi - lo) / &Rational::from_integer(m as i64);
        (0..=m)
            .map(|i| lo + &(&width * &Rational::from_integer(i as i64)))
            .collect()
    };

    // Level 0: full-domain grid (also retained as the reported curve), plus
    // the honest split — Lemma 9 makes it the ratio-1 floor, so the
    // optimizer must always consider it. The grid evaluations fan out over
    // worker threads; `eval_batch` preserves input order, so the best-pick
    // below is identical to a sequential scan.
    let level0 = grid_pts(&Rational::zero(), &total, cfg.grid);
    evals += level0.len();
    let mut curve: Vec<SplitSample> = eval_batch(&fam, &level0, &pool);
    let (w1_honest, _) = crate::split::honest_split(ring, v);
    evals += 1;
    let mut session = pool.checkout();
    let honest_sample = eval(&fam, &w1_honest, &mut session);
    pool.checkin(session);
    if let Some(s) = honest_sample {
        curve.push(s);
        curve.sort_by(|a, b| a.w1.cmp(&b.w1));
        curve.dedup_by(|a, b| a.w1 == b.w1);
    }
    assert!(!curve.is_empty(), "no decomposable split found");
    let mut best = curve
        .iter()
        .max_by(|a, b| a.total().cmp(&b.total()))
        .expect("nonempty")
        .clone();

    // Zoom: keep the best cells, refine each.
    let cell = &total / &Rational::from_integer(cfg.grid as i64);
    let mut brackets: Vec<(Rational, Rational)> = {
        let mut ranked: Vec<&SplitSample> = curve.iter().collect();
        ranked.sort_by_key(|s| std::cmp::Reverse(s.total()));
        ranked
            .iter()
            .take(cfg.keep.max(1))
            .map(|s| {
                let lo = (&s.w1 - &cell).max(Rational::zero());
                let hi = (&s.w1 + &cell).min(total.clone());
                (lo, hi)
            })
            .collect()
    };

    for _ in 0..cfg.zoom_levels {
        let mut next: Vec<(Rational, Rational)> = Vec::new();
        for (lo, hi) in &brackets {
            if lo >= hi {
                continue;
            }
            let pts = grid_pts(lo, hi, cfg.grid.min(16));
            evals += pts.len();
            let local: Vec<SplitSample> = eval_batch(&fam, &pts, &pool);
            let Some(loc_best) = local.iter().max_by(|a, b| a.total().cmp(&b.total())) else {
                continue;
            };
            if loc_best.total() > best.total() {
                best = loc_best.clone();
            }
            let w = &(hi - lo) / &Rational::from_integer(cfg.grid.min(16) as i64);
            let nlo = (&loc_best.w1 - &w).max(lo.clone());
            let nhi = (&loc_best.w1 + &w).min(hi.clone());
            next.push((nlo, nhi));
        }
        brackets = next;
        if brackets.is_empty() {
            break;
        }
    }

    sp.attr("evaluations", || evals.to_string());
    // The honest split is always feasible: never report a ratio below 1
    // (Lemma 9 guarantees the attacker can do at least U_v).
    let ratio = if honest.is_positive() {
        let r = &best.total() / &honest;
        r.max(Rational::one())
    } else {
        Rational::one()
    };

    SybilOutcome {
        honest_utility: honest,
        best,
        ratio,
        curve,
        evaluations: evals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prs_graph::{builders, random};
    use prs_numeric::{int, Rational};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ints(vals: &[i64]) -> Vec<Rational> {
        vals.iter().map(|&v| int(v)).collect()
    }

    fn small_cfg() -> AttackConfig {
        AttackConfig::new()
            .with_grid(24)
            .with_zoom_levels(4)
            .with_keep(2)
    }

    #[test]
    fn uniform_ring_gains_nothing() {
        // Perfectly symmetric ring: splitting cannot help; ζ_v = 1.
        for n in [4usize, 5, 6] {
            let g = builders::uniform_ring(n, int(2)).unwrap();
            let out = best_sybil_split(&g, 0, &small_cfg());
            assert_eq!(out.honest_utility, int(2));
            assert_eq!(out.ratio, Rational::one(), "n={n}: {:?}", out.best);
        }
    }

    #[test]
    fn ratio_never_below_one_and_never_above_two() {
        let mut rng = StdRng::seed_from_u64(123);
        for n in [3usize, 4, 5, 6, 7] {
            for _ in 0..6 {
                let g = random::random_ring(&mut rng, n, 1, 10);
                for v in 0..n.min(3) {
                    let out = best_sybil_split(&g, v, &small_cfg());
                    assert!(out.ratio >= Rational::one());
                    assert!(
                        out.ratio <= int(2),
                        "Theorem 8 violated: ζ_{v} = {} on {:?}",
                        out.ratio,
                        g.weights()
                    );
                }
            }
        }
    }

    #[test]
    fn every_curve_sample_is_exact_and_bounded() {
        let g = builders::ring(ints(&[5, 1, 3, 1])).unwrap();
        let out = best_sybil_split(&g, 0, &small_cfg());
        let two_uv = &out.honest_utility * &int(2);
        for s in &out.curve {
            assert!(s.total() <= two_uv, "sample at w1={} exceeds 2·U_v", s.w1);
        }
    }

    #[test]
    fn honest_split_is_on_the_curve_when_sampled() {
        // The best found payoff is at least the honest utility.
        let mut rng = StdRng::seed_from_u64(9);
        let g = random::random_ring(&mut rng, 5, 1, 8);
        let out = best_sybil_split(&g, 2, &small_cfg());
        assert!(out.best.total() >= out.honest_utility);
    }

    #[test]
    fn asymmetric_ring_can_strictly_gain() {
        // A ring where some agent strictly profits from splitting. Weights
        // chosen so the manipulator's copies land in different pairs.
        // (Existence of *some* gain is the paper's premise for ζ > 1; the
        // search must find at least one strict gain across these instances.)
        let mut rng = StdRng::seed_from_u64(77);
        let mut found_gain = false;
        'outer: for _ in 0..20 {
            let g = random::random_ring(&mut rng, 5, 1, 12);
            for v in 0..5 {
                let out = best_sybil_split(&g, v, &small_cfg());
                if out.ratio > Rational::one() {
                    found_gain = true;
                    break 'outer;
                }
            }
        }
        assert!(
            found_gain,
            "no instance with a strictly profitable Sybil attack found"
        );
    }
}
