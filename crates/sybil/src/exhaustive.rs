//! Exhaustive Theorem 8 audits over full integer-weight grids.
//!
//! Randomized families leave sampling gaps; for very small rings we can do
//! better and sweep *every* weight tuple `w ∈ {1..W}ⁿ`. Since the incentive
//! ratio is invariant under uniform weight scaling and rotation of the
//! ring, the grid over-counts — but over-counting only strengthens the
//! audit. Used by experiment E15.

// prs-lint: allow-file(panic, reason = "poison/join propagation in the audit fan-out, plus ring construction from enumerated strictly-positive integer weights")

use crate::attack::AttackConfig;
use crate::context::SybilContext;
use prs_graph::builders;
use prs_numeric::Rational;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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
/// in parallel over `threads` workers (tuples are dealt round-robin via an
/// atomic cursor over the mixed-radix index space).
pub fn exhaustive_ring_audit(
    n: usize,
    w_max: i64,
    cfg: &AttackConfig,
    threads: usize,
) -> ExhaustiveReport {
    assert!(n >= 3, "rings need n ≥ 3");
    assert!(w_max >= 1);
    let total: usize = (w_max as usize).pow(n as u32);
    let threads = threads.max(1).min(total);
    let cursor = AtomicUsize::new(0);
    let attacks = AtomicUsize::new(0);
    let best: Mutex<(Rational, Vec<i64>, usize, bool)> =
        Mutex::new((Rational::zero(), Vec::new(), 0, true));

    let decode = |mut idx: usize| -> Vec<i64> {
        let mut weights = vec![1i64; n];
        for w in weights.iter_mut() {
            *w = 1 + (idx % w_max as usize) as i64;
            idx /= w_max as usize;
        }
        weights
    };

    crossbeam::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|_| {
                let mut local_best = Rational::zero();
                let mut local_arg: (Vec<i64>, usize) = (Vec::new(), 0);
                let mut local_holds = true;
                let mut local_attacks = 0usize;
                let two = Rational::from_integer(2);
                loop {
                    let idx = cursor.fetch_add(1, Ordering::Relaxed);
                    if idx >= total {
                        break;
                    }
                    let weights = decode(idx);
                    let g = builders::ring(
                        weights.iter().map(|&w| Rational::from_integer(w)).collect(),
                    )
                    .expect("n ≥ 3");
                    for mut ctx in SybilContext::for_agents(&g, 0..n) {
                        let v = ctx.family().agent();
                        let out = ctx.best_sybil_split(cfg);
                        local_attacks += 1;
                        local_holds &= out.ratio <= two;
                        // Same total order as the global merge (ratio desc,
                        // then lexicographically smallest weights, then
                        // smallest agent) so the result is independent of
                        // how tuples are dealt to threads.
                        let better = out.ratio > local_best
                            || (out.ratio == local_best
                                && (local_arg.0.is_empty()
                                    || (weights.clone(), v) < local_arg.clone()));
                        if better {
                            local_best = out.ratio;
                            local_arg = (weights.clone(), v);
                        }
                    }
                }
                attacks.fetch_add(local_attacks, Ordering::Relaxed);
                let mut guard = best.lock().expect("poisoned");
                guard.3 &= local_holds;
                // Deterministic tie-break: prefer lexicographically smaller
                // argmax weights so runs are reproducible across thread
                // schedules.
                let better = local_best > guard.0
                    || (local_best == guard.0
                        && !local_arg.0.is_empty()
                        && (guard.1.is_empty()
                            || (local_arg.0.clone(), local_arg.1) < (guard.1.clone(), guard.2)));
                if better {
                    guard.0 = local_best;
                    guard.1 = local_arg.0;
                    guard.2 = local_arg.1;
                }
            });
        }
    })
    .expect("audit worker panicked");

    let (max_ratio, argmax_weights, argmax_vertex, upper_bound_holds) =
        best.into_inner().expect("poisoned");
    ExhaustiveReport {
        n,
        w_max,
        instances: total,
        attacks: attacks.load(Ordering::Relaxed),
        max_ratio,
        argmax_weights,
        argmax_vertex,
        upper_bound_holds,
    }
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
        let a = exhaustive_ring_audit(3, 3, &cfg(), 1);
        let b = exhaustive_ring_audit(3, 3, &cfg(), 8);
        assert_eq!(a.max_ratio, b.max_ratio);
        assert_eq!(a.argmax_weights, b.argmax_weights);
        assert_eq!(a.argmax_vertex, b.argmax_vertex);
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
