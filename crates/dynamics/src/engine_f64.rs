//! Fast floating-point proportional response engine.

use prs_bd::Allocation;
use prs_graph::{Graph, VertexId};
use prs_p2psim::CsrTopology;

/// Outcome of a convergence run ([`F64Engine::run_until_close`]).
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

/// Proportional response dynamics over `f64`.
///
/// ```
/// use prs_graph::builders;
/// use prs_numeric::int;
/// use prs_dynamics::F64Engine;
///
/// let g = builders::path(vec![int(1), int(4)]).unwrap();
/// let mut engine = F64Engine::new(&g);
/// engine.run(5);
/// // The 2-agent exchange is at its fixed point: each receives the
/// // other's whole weight.
/// assert_eq!(engine.utilities(), &[4.0, 1.0]);
/// ```
///
/// State is the full allocation `x_vu(t)` stored as one flat arc lane over
/// the shared [`CsrTopology`] from `prs-p2psim` (the same struct-of-arrays
/// layout the swarm engine runs on), plus the received totals (the
/// utilities). `topo.rev(a)` maps each arc to its reverse, so a round is
/// two flat passes with no hashing and no per-round allocation.
pub struct F64Engine {
    w: Vec<f64>,
    topo: CsrTopology,
    /// `x[a]`: what arc `a`'s owner currently sends along it.
    x: Vec<f64>,
    x_next: Vec<f64>,
    /// `received[v] = U_v(t)` under the current `x`.
    received: Vec<f64>,
    /// Utilities one round earlier (for cycle-averaged convergence checks).
    prev_received: Vec<f64>,
    round: usize,
}

impl F64Engine {
    /// Start the dynamics at the Definition 1 initial condition
    /// `x_vu(0) = w_v / d_v`.
    pub fn new(g: &Graph) -> Self {
        let n = g.n();
        let w = g.weights_f64();
        let topo = CsrTopology::from_graph(g);
        let mut x = vec![0.0; topo.arena_len()];
        for (v, &wv) in w.iter().enumerate() {
            let d = topo.degree(v).max(1) as f64;
            let even = wv / d;
            for a in topo.range(v) {
                x[a] = even;
            }
        }
        let x_next = x.clone();
        let mut eng = F64Engine {
            w,
            topo,
            x,
            x_next,
            received: vec![0.0; n],
            prev_received: vec![0.0; n],
            round: 0,
        };
        eng.recompute_received();
        eng.prev_received.copy_from_slice(&eng.received);
        eng
    }

    /// Start the dynamics at an arbitrary allocation (e.g. the exact BD
    /// allocation, to verify it is a fixed point).
    pub fn with_allocation(g: &Graph, alloc: &Allocation) -> Self {
        let mut eng = Self::new(g);
        for v in 0..g.n() {
            for a in eng.topo.range(v) {
                eng.x[a] = alloc.sent(v, eng.topo.peer_at(a)).to_f64();
            }
        }
        eng.recompute_received();
        eng.prev_received.copy_from_slice(&eng.received);
        eng
    }

    fn recompute_received(&mut self) {
        self.received.iter_mut().for_each(|r| *r = 0.0);
        for v in 0..self.topo.n_slots() {
            for a in self.topo.range(v) {
                self.received[self.topo.peer_at(a)] += self.x[a];
            }
        }
    }

    /// Current round index `t`.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Current utilities `U_v(t)` (total received this round).
    pub fn utilities(&self) -> &[f64] {
        &self.received
    }

    /// Utilities averaged over the last two rounds (stable under period-2
    /// oscillation).
    pub fn averaged_utilities(&self) -> Vec<f64> {
        self.received
            .iter()
            .zip(&self.prev_received)
            .map(|(a, b)| 0.5 * (a + b))
            .collect()
    }

    /// What `v` currently sends to `u` (0 if not adjacent).
    pub fn sent(&self, v: VertexId, u: VertexId) -> f64 {
        match self.topo.find_arc(v, u) {
            Some(a) => self.x[a],
            None => 0.0,
        }
    }

    /// Execute one round of equation (1).
    pub fn step(&mut self) {
        for v in 0..self.topo.n_slots() {
            let total = self.received[v];
            if total > 0.0 {
                let scale = self.w[v] / total;
                for a in self.topo.range(v) {
                    // What the peer sent to v last round:
                    let incoming = self.x[self.topo.rev(a)];
                    self.x_next[a] = incoming * scale;
                }
            } else {
                // Nothing received (all neighbors weightless): fall back to
                // the even split; with w_v = 0 this is all zeros anyway.
                let d = self.topo.degree(v).max(1) as f64;
                let even = self.w[v] / d;
                for a in self.topo.range(v) {
                    self.x_next[a] = even;
                }
            }
        }
        std::mem::swap(&mut self.x, &mut self.x_next);
        self.prev_received.copy_from_slice(&self.received);
        self.recompute_received();
        self.round += 1;
    }

    /// Run up to `max_rounds` rounds, stopping once the cycle-averaged
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
    pub fn run_until_close(
        &mut self,
        target: &[f64],
        eps: f64,
        max_rounds: usize,
    ) -> ConvergenceReport {
        assert_eq!(target.len(), self.received.len());
        // One span per run with doubling-checkpoint instants; per-round
        // spans would swamp the recorder (runs reach millions of rounds).
        let mut sp = prs_trace::span("dynamics", "run_until_close");
        sp.attr("n", || self.received.len().to_string());
        let mut err = error_vs(&self.averaged_utilities(), target);
        let mut raw = error_vs(&self.received, target);
        let mut rounds = 0;
        // Richardson checkpoints: snapshot ū at t, compare at 2t.
        let mut next_check = 16usize;
        let mut snapshot: Option<Vec<f64>> = None;
        while err > eps && rounds < max_rounds {
            self.step();
            rounds += 1;
            err = error_vs(&self.averaged_utilities(), target);
            raw = error_vs(&self.received, target);
            if rounds == next_check {
                let avg = self.averaged_utilities();
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
            raw_error: raw,
        }
    }

    /// Run exactly `rounds` rounds.
    pub fn run(&mut self, rounds: usize) {
        for _ in 0..rounds {
            self.step();
        }
    }
}

/// Reverse-arc index: `rev[v][i]` is the position of `v` in the neighbor
/// list of `adj[v][i]`. (Nested-vec form, used by the async and exact
/// engines; the f64 engine uses the flat `CsrTopology` equivalent.)
pub(crate) fn build_rev(adj: &[Vec<VertexId>]) -> Vec<Vec<usize>> {
    adj.iter()
        .enumerate()
        .map(|(v, nb)| {
            nb.iter()
                .map(|&u| {
                    adj[u]
                        .binary_search(&v)
                        // prs-lint: allow(panic, reason = "Graph guarantees symmetric sorted adjacency; asymmetry is a graph-construction bug")
                        .expect("undirected adjacency is symmetric")
                })
                .collect()
        })
        .collect()
}

fn error_vs(got: &[f64], target: &[f64]) -> f64 {
    got.iter()
        .zip(target)
        .map(|(g, t)| (g - t).abs() / (1.0 + t.abs()))
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prs_bd::{allocate, decompose};
    use prs_graph::{builders, random};
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
        let mut eng = F64Engine::new(&g);
        let rep = eng.run_until_close(&bd_targets(&g), 1e-12, 10);
        assert!(rep.converged);
        assert_eq!(eng.sent(0, 1), 1.0);
        assert_eq!(eng.sent(1, 0), 4.0);
    }

    #[test]
    fn uniform_ring_is_fixed_point_of_initial_condition() {
        let g = builders::uniform_ring(6, int(2)).unwrap();
        let mut eng = F64Engine::new(&g);
        let before: Vec<f64> = eng.utilities().to_vec();
        eng.run(5);
        assert_eq!(eng.utilities(), &before[..]);
        assert!(eng.utilities().iter().all(|&u| (u - 2.0).abs() < 1e-15));
    }

    #[test]
    fn asymmetric_path_converges_to_prop6() {
        let g = builders::path(vec![int(1), int(2), int(4)]).unwrap();
        let target = bd_targets(&g); // (2/5)·1, 2/(2/5), 4·(2/5) = 0.4, 5, 1.6
        let mut eng = F64Engine::new(&g);
        let rep = eng.run_until_close(&target, 1e-9, 10_000);
        assert!(rep.converged, "report: {rep:?}");
    }

    #[test]
    fn random_rings_converge_to_prop6() {
        let mut rng = StdRng::seed_from_u64(17);
        for n in [3usize, 4, 6, 9, 15] {
            let g = random::random_ring(&mut rng, n, 1, 10);
            let target = bd_targets(&g);
            let mut eng = F64Engine::new(&g);
            let rep = eng.run_until_close(&target, 1e-7, 200_000);
            assert!(rep.converged, "n={n} weights={:?} {rep:?}", g.weights());
        }
    }

    #[test]
    fn random_connected_graphs_converge_to_prop6() {
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..5 {
            let g = random::random_connected(&mut rng, 10, 0.3, 1, 10);
            let target = bd_targets(&g);
            let mut eng = F64Engine::new(&g);
            let rep = eng.run_until_close(&target, 1e-7, 200_000);
            assert!(rep.converged, "{rep:?} on {g:?}");
        }
    }

    #[test]
    fn bd_allocation_is_a_fixed_point() {
        let mut rng = StdRng::seed_from_u64(41);
        for _ in 0..10 {
            let g = random::random_ring(&mut rng, 7, 1, 9);
            let bd = decompose(&g).unwrap();
            let alloc = allocate(&g, &bd);
            let mut eng = F64Engine::with_allocation(&g, &alloc);
            let before: Vec<f64> = eng.utilities().to_vec();
            eng.run(3);
            for (a, b) in eng.utilities().iter().zip(&before) {
                assert!((a - b).abs() < 1e-9, "fixed point drifted: {a} vs {b}");
            }
        }
    }

    #[test]
    fn zero_weight_leaf_sends_nothing() {
        let g = builders::path(vec![int(0), int(2), int(3)]).unwrap();
        let mut eng = F64Engine::new(&g);
        eng.run(50);
        assert_eq!(eng.sent(0, 1), 0.0);
        // Vertex 1's received equals what vertex 2 sends it; utilities match
        // the closed form eventually.
        let target = bd_targets(&g);
        let rep = eng.run_until_close(&target, 1e-9, 100_000);
        assert!(rep.converged, "{rep:?}");
    }
}
