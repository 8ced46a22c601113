//! Running the f64 dynamics to a target: [`run_until_close`].

use prs_p2psim::SoaSwarm;

/// Outcome of a convergence run ([`run_until_close`]).
#[derive(Clone, Debug, PartialEq)]
pub struct ConvergenceReport {
    /// Whether the (cycle-averaged) utilities came within `eps` of the target.
    pub converged: bool,
    /// Rounds executed.
    pub rounds: usize,
    /// Final cycle-averaged error against the target.
    pub final_error: f64,
    /// Final raw (unaveraged) error; `raw_error ≫ final_error` indicates a
    /// period-2 oscillation (possible on bipartite structures).
    pub raw_error: f64,
}

/// Step `swarm` up to `max_rounds` rounds, stopping once its cycle-averaged
/// utilities are within `eps` of `target` (relative to `1 + |target|`).
///
/// On instances whose terminal `α = 1` component has nontrivial structure
/// the dynamics converge sublinearly: the cycle-averaged utilities behave
/// like `u* + c/t`, so reaching `eps` directly needs `Θ(1/eps)` rounds.
/// To cut through that tail, the loop snapshots the averaged utilities at
/// doubling checkpoints and also tests the Richardson extrapolation
/// `2·ū(2t) − ū(t)`, which cancels the `c/t` term and reaches the fixed
/// point orders of magnitude sooner (see `docs/NUMERICS.md`). Instances
/// that converge geometrically satisfy the plain check first, so the
/// extrapolation never slows anything down.
///
/// # Panics
///
/// If `target` does not have one entry per slot of `swarm`.
///
/// ```
/// use prs_dynamics::run_until_close;
/// use prs_graph::builders;
/// use prs_numeric::int;
/// use prs_p2psim::SoaSwarm;
///
/// let g = builders::path(vec![int(1), int(4)]).unwrap();
/// let mut swarm = SoaSwarm::new(&g);
/// // The 2-agent exchange starts at its fixed point: each receives the
/// // other's whole weight.
/// let report = run_until_close(&mut swarm, &[4.0, 1.0], 1e-12, 10);
/// assert!(report.converged);
/// assert_eq!(report.rounds, 0);
/// ```
pub fn run_until_close(
    swarm: &mut SoaSwarm,
    target: &[f64],
    eps: f64,
    max_rounds: usize,
) -> ConvergenceReport {
    assert_eq!(target.len(), swarm.n_slots());
    // One span per run, with error instants at doubling checkpoints
    // rather than every round (runs reach millions of rounds).
    let mut sp = prs_trace::span("dynamics", "run_until_close");
    sp.attr("n", || target.len().to_string());
    let mut err = error_vs(&swarm.averaged_utilities(), target);
    let mut rounds = 0;
    // Richardson checkpoints: snapshot ū at t, compare at 2t.
    let mut next_check = 16usize;
    let mut snapshot: Option<Vec<f64>> = None;
    while err > eps && rounds < max_rounds {
        swarm.step();
        rounds += 1;
        let avg = swarm.averaged_utilities();
        err = error_vs(&avg, target);
        if rounds == next_check {
            if let Some(prev) = &snapshot {
                let extrapolated: Vec<f64> =
                    avg.iter().zip(prev).map(|(a, b)| 2.0 * a - b).collect();
                err = err.min(error_vs(&extrapolated, target));
            }
            snapshot = Some(avg);
            next_check = next_check.saturating_mul(2);
            if prs_trace::is_enabled() {
                prs_trace::instant("dynamics", "convergence_checkpoint", || {
                    vec![("round", rounds.to_string()), ("error", format!("{err:e}"))]
                });
            }
        }
    }
    sp.attr("rounds", || rounds.to_string());
    sp.attr("converged", || (err <= eps).to_string());
    sp.attr("final_error", || format!("{err:e}"));
    ConvergenceReport {
        converged: err <= eps,
        rounds,
        final_error: err,
        raw_error: error_vs(&swarm.utilities(), target),
    }
}

/// Max-norm distance of `got` from `target`, relative to `1 + |target|`.
pub(crate) fn error_vs(got: &[f64], target: &[f64]) -> f64 {
    got.iter()
        .zip(target)
        .map(|(g, t)| (g - t).abs() / (1.0 + t.abs()))
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prs_bd::decompose;
    use prs_graph::{builders, random, Graph};
    use prs_numeric::int;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bd_targets(g: &Graph) -> Vec<f64> {
        let bd = decompose(g).unwrap();
        bd.utilities(g).iter().map(|u| u.to_f64()).collect()
    }

    #[test]
    fn two_agents_converge_instantly() {
        let g = builders::path(vec![int(1), int(4)]).unwrap();
        let mut swarm = SoaSwarm::new(&g);
        let rep = run_until_close(&mut swarm, &bd_targets(&g), 1e-12, 10);
        assert!(rep.converged);
        assert_eq!(swarm.outgoing_of(0), &[1.0]);
        assert_eq!(swarm.outgoing_of(1), &[4.0]);
    }

    #[test]
    fn uniform_ring_is_fixed_point_of_initial_condition() {
        let g = builders::uniform_ring(6, int(2)).unwrap();
        let mut swarm = SoaSwarm::new(&g);
        let before = swarm.utilities();
        for _ in 0..5 {
            swarm.step();
        }
        assert_eq!(swarm.utilities(), before);
        assert!(swarm.utilities().iter().all(|&u| (u - 2.0).abs() < 1e-15));
        // The start is the target, so no round is needed.
        let rep = run_until_close(&mut SoaSwarm::new(&g), &before, 1e-12, 10);
        assert_eq!((rep.converged, rep.rounds), (true, 0));
    }

    #[test]
    fn asymmetric_path_converges_to_prop6() {
        let g = builders::path(vec![int(1), int(2), int(4)]).unwrap();
        let target = bd_targets(&g); // (2/5)·1, 2/(2/5), 4·(2/5) = 0.4, 5, 1.6
        let rep = run_until_close(&mut SoaSwarm::new(&g), &target, 1e-9, 10_000);
        assert!(rep.converged, "report: {rep:?}");
    }

    #[test]
    fn random_rings_converge_to_prop6() {
        let mut rng = StdRng::seed_from_u64(17);
        for n in [3usize, 4, 6, 9, 15] {
            let g = random::random_ring(&mut rng, n, 1, 10);
            let target = bd_targets(&g);
            let rep = run_until_close(&mut SoaSwarm::new(&g), &target, 1e-7, 200_000);
            assert!(rep.converged, "n={n} weights={:?} {rep:?}", g.weights());
        }
    }

    #[test]
    fn random_connected_graphs_converge_to_prop6() {
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..5 {
            let g = random::random_connected(&mut rng, 10, 0.3, 1, 10);
            let target = bd_targets(&g);
            let rep = run_until_close(&mut SoaSwarm::new(&g), &target, 1e-7, 200_000);
            assert!(rep.converged, "{rep:?} on {g:?}");
        }
    }

    #[test]
    fn zero_weight_leaf_sends_nothing() {
        let g = builders::path(vec![int(0), int(2), int(3)]).unwrap();
        let mut swarm = SoaSwarm::new(&g);
        for _ in 0..50 {
            swarm.step();
        }
        assert_eq!(swarm.outgoing_of(0), &[0.0]);
        // Vertex 1's received equals what vertex 2 sends it; utilities match
        // the closed form eventually.
        let target = bd_targets(&g);
        let rep = run_until_close(&mut swarm, &target, 1e-9, 100_000);
        assert!(rep.converged, "{rep:?}");
    }
}
