//! Convergence-trace analysis for the proportional response dynamics.
//!
//! Wu–Zhang prove convergence but give no rate; empirically the utility
//! error decays geometrically with a rate governed by how well-separated
//! the α-ratios of adjacent bottleneck pairs are. This module records
//! error traces and estimates that rate, for diagnosing slow instances.

use crate::convergence::error_vs;
use prs_graph::Graph;
use prs_p2psim::SoaSwarm;

/// A recorded error trace of one dynamics run.
#[derive(Clone, Debug)]
pub struct ConvergenceTrace {
    /// `errors[t]` = max-norm relative distance of the cycle-averaged
    /// utilities from the target after `t` rounds.
    pub errors: Vec<f64>,
}

impl ConvergenceTrace {
    /// Run the dynamics for `rounds` rounds against `target`, recording the
    /// error after every round.
    pub fn record(g: &Graph, target: &[f64], rounds: usize) -> ConvergenceTrace {
        let mut sp = prs_trace::span("dynamics", "convergence_trace");
        sp.attr("n", || g.n().to_string());
        sp.attr("rounds", || rounds.to_string());
        let mut swarm = SoaSwarm::new(g);
        let mut errors = Vec::with_capacity(rounds + 1);
        let err = |swarm: &SoaSwarm| error_vs(&swarm.averaged_utilities(), target);
        errors.push(err(&swarm));
        // Per-round error instants would swamp the buffer on long runs
        // (dynamics runs reach hundreds of thousands of rounds), so the
        // trace carries log-spaced checkpoint instants instead.
        let mut checkpoint = 1usize;
        for t in 0..rounds {
            swarm.step();
            errors.push(err(&swarm));
            if t + 1 == checkpoint {
                checkpoint *= 2;
                if prs_trace::is_enabled() {
                    let e = errors.last().copied().unwrap_or(0.0);
                    prs_trace::instant("dynamics", "convergence_checkpoint", || {
                        vec![("round", (t + 1).to_string()), ("error", format!("{e:e}"))]
                    });
                }
            }
        }
        let trace = ConvergenceTrace { errors };
        sp.attr("final_error", || format!("{:e}", trace.final_error()));
        if let Some(rate) = trace.geometric_rate() {
            sp.attr("geometric_rate", || format!("{rate:.6}"));
        }
        trace
    }

    /// Estimate the geometric decay rate from the tail of the trace:
    /// the median of `e_{t+1}/e_t` over the last half (ignoring rounds
    /// where the error already hit floating-point noise).
    ///
    /// Returns `None` when fewer than 4 usable tail points exist — e.g. the
    /// run converged immediately.
    pub fn geometric_rate(&self) -> Option<f64> {
        let tail_start = self.errors.len() / 2;
        let mut ratios: Vec<f64> = self
            .errors
            .windows(2)
            .skip(tail_start)
            .filter(|w| w[0] > 1e-14 && w[1] > 1e-14)
            .map(|w| w[1] / w[0])
            .collect();
        if ratios.len() < 4 {
            return None;
        }
        ratios.sort_by(f64::total_cmp);
        Some(ratios[ratios.len() / 2])
    }

    /// First round at which the error drops below `eps` (`None` if never).
    pub fn rounds_to(&self, eps: f64) -> Option<usize> {
        self.errors.iter().position(|&e| e <= eps)
    }

    /// Final recorded error.
    pub fn final_error(&self) -> f64 {
        *self.errors.last().expect("nonempty trace") // prs-lint: allow(panic, reason = "the engine records an error every round and runs at least one round before exposing a trace")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prs_bd::decompose;
    use prs_graph::{builders, random};
    use prs_numeric::int;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn targets(g: &Graph) -> Vec<f64> {
        decompose(g)
            .unwrap()
            .utilities(g)
            .iter()
            .map(|u| u.to_f64())
            .collect()
    }

    #[test]
    fn trace_is_monotone_ish_and_converges() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = random::random_ring(&mut rng, 6, 1, 9);
        let t = targets(&g);
        let trace = ConvergenceTrace::record(&g, &t, 3000);
        assert!(trace.final_error() < 1e-6, "final {}", trace.final_error());
        assert!(trace.rounds_to(1e-4).is_some());
        // Errors shrink by orders of magnitude overall.
        assert!(trace.final_error() < trace.errors[1].max(1e-12));
    }

    #[test]
    fn geometric_rate_below_one() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = random::random_ring(&mut rng, 8, 1, 9);
        let t = targets(&g);
        let trace = ConvergenceTrace::record(&g, &t, 2000);
        if let Some(rate) = trace.geometric_rate() {
            assert!(rate < 1.0 + 1e-9, "rate {rate} not contractive");
            assert!(rate > 0.0);
        }
    }

    #[test]
    fn uniform_ring_converges_instantly() {
        let g = builders::uniform_ring(5, int(2)).unwrap();
        let t = targets(&g);
        let trace = ConvergenceTrace::record(&g, &t, 10);
        assert!(trace.errors.iter().all(|&e| e < 1e-12));
        assert_eq!(trace.rounds_to(1e-9), Some(0));
        // No usable decay tail on an instantly-converged run.
        assert_eq!(trace.geometric_rate(), None);
    }
}
