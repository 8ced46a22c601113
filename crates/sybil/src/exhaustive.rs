//! Exhaustive Theorem 8 audits over full integer-weight grids.
//!
//! Randomized families leave sampling gaps; for very small rings we can do
//! better and sweep *every* weight tuple `w ∈ {1..W}ⁿ`. Since the incentive
//! ratio is invariant under uniform weight scaling and rotation of the
//! ring, the grid over-counts — but over-counting only strengthens the
//! audit. Used by experiment E15.

// prs-lint: allow-file(panic, reason = "ring construction from enumerated strictly-positive integer weights")

use crate::attack::AttackConfig;
use crate::context::SybilContext;
use prs_bd::par::par_map_indexed;
use prs_graph::builders;
use prs_numeric::Rational;

/// Outcome of an exhaustive grid audit.
#[derive(Clone, Debug)]
pub struct ExhaustiveReport {
    /// Ring size.
    pub n: usize,
    /// Weight ceiling (weights range over `1..=w_max`).
    pub w_max: i64,
    /// Number of weight tuples audited (`w_max^n`).
    pub instances: usize,
    /// Number of (instance, agent) attacks optimized.
    pub attacks: usize,
    /// Largest `ζ_v` observed.
    pub max_ratio: Rational,
    /// The weights achieving it.
    pub argmax_weights: Vec<i64>,
    /// The agent achieving it.
    pub argmax_vertex: usize,
    /// True iff no attack exceeded ratio 2.
    pub upper_bound_holds: bool,
}

/// Iterate every weight tuple in `{1..=w_max}^n` (odometer order), calling
/// `f` on each. Exposed for reuse by tests and experiments.
pub fn for_each_weight_tuple(n: usize, w_max: i64, mut f: impl FnMut(&[i64])) {
    let mut weights = vec![1i64; n];
    loop {
        f(&weights);
        let mut i = 0;
        loop {
            if i == n {
                return;
            }
            weights[i] += 1;
            if weights[i] <= w_max {
                break;
            }
            weights[i] = 1;
            i += 1;
        }
    }
}

/// Audit every ring in `{1..=w_max}^n` with every agent attacking,
/// in parallel over `threads` workers (tuples are dealt by index over the
/// mixed-radix index space and folded back in index order).
pub fn exhaustive_ring_audit(
    n: usize,
    w_max: i64,
    cfg: &AttackConfig,
    threads: usize,
) -> ExhaustiveReport {
    assert!(n >= 3, "rings need n ≥ 3");
    assert!(w_max >= 1);
    let total: usize = (w_max as usize).pow(n as u32);
    let decode = |mut idx: usize| -> Vec<i64> {
        let mut weights = vec![1i64; n];
        for w in weights.iter_mut() {
            *w = 1 + (idx % w_max as usize) as i64;
            idx /= w_max as usize;
        }
        weights
    };
    let two = Rational::from_integer(2);

    // Per tuple: its best `(ratio, agent)` (the first maximum in agent
    // order), whether every attack stayed within 2, and the attack count.
    let tuples = par_map_indexed(total, threads, |idx| {
        let weights = decode(idx);
        let g = builders::ring(weights.iter().map(|&w| Rational::from_integer(w)).collect())
            .expect("n ≥ 3");
        let mut best: Option<(Rational, usize)> = None;
        let (mut holds, mut attacks) = (true, 0usize);
        for mut ctx in SybilContext::for_agents(&g, 0..n) {
            let v = ctx.family().agent();
            let ratio = ctx.best_sybil_split(cfg).ratio;
            attacks += 1;
            holds &= ratio <= two;
            if best.as_ref().is_none_or(|(r, _)| ratio > *r) {
                best = Some((ratio, v));
            }
        }
        (best, holds, attacks)
    });

    // Fold in index order under a total order independent of the dealing:
    // the larger ratio wins, a tie goes to the lexicographically smaller
    // `(weights, agent)`, and the empty initial argmax loses every tie.
    let mut report = ExhaustiveReport {
        n,
        w_max,
        instances: total,
        attacks: 0,
        max_ratio: Rational::zero(),
        argmax_weights: Vec::new(),
        argmax_vertex: 0,
        upper_bound_holds: true,
    };
    for (idx, (best, holds, attacks)) in tuples.into_iter().enumerate() {
        report.attacks += attacks;
        report.upper_bound_holds &= holds;
        let Some((ratio, v)) = best else { continue };
        let weights = decode(idx);
        let better = ratio > report.max_ratio
            || (ratio == report.max_ratio
                && (report.argmax_weights.is_empty()
                    || (&weights, v) < (&report.argmax_weights, report.argmax_vertex)));
        if better {
            report.max_ratio = ratio;
            report.argmax_weights = weights;
            report.argmax_vertex = v;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use prs_numeric::{int, ratio};

    fn cfg() -> AttackConfig {
        AttackConfig::new()
            .with_grid(10)
            .with_zoom_levels(2)
            .with_keep(2)
    }

    #[test]
    fn tuple_iteration_covers_the_grid() {
        let mut seen = Vec::new();
        for_each_weight_tuple(2, 3, |w| seen.push(w.to_vec()));
        assert_eq!(seen.len(), 9);
        assert!(seen.contains(&vec![1, 1]));
        assert!(seen.contains(&vec![3, 3]));
        assert!(seen.contains(&vec![2, 3]));
        // No duplicates.
        let mut sorted = seen.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 9);
    }

    #[test]
    fn exhaustive_tiny_grid_holds_theorem8() {
        let rep = exhaustive_ring_audit(3, 3, &cfg(), 4);
        assert!(rep.upper_bound_holds);
        assert_eq!(rep.instances, 27);
        assert_eq!(rep.attacks, 81);
        assert!(rep.max_ratio >= Rational::one());
        assert!(rep.max_ratio <= int(2));
    }

    #[test]
    fn exhaustive_is_deterministic_across_thread_counts() {
        let fields = |r: ExhaustiveReport| {
            (
                (r.n, r.w_max, r.instances, r.attacks),
                (r.max_ratio, r.argmax_weights, r.argmax_vertex),
                r.upper_bound_holds,
            )
        };
        let one = fields(exhaustive_ring_audit(3, 3, &cfg(), 1));
        for threads in [2, 8] {
            assert_eq!(
                fields(exhaustive_ring_audit(3, 3, &cfg(), threads)),
                one,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn known_max_on_3x6_grid() {
        // E15 measured max ζ = 1.4 at weights (6, 5, 1) on the {1..6}³ grid.
        let rep = exhaustive_ring_audit(3, 6, &cfg(), 8);
        assert!(rep.upper_bound_holds);
        assert_eq!(
            rep.max_ratio,
            ratio(7, 5),
            "expected ζ = 1.4, got {}",
            rep.max_ratio
        );
    }
}
