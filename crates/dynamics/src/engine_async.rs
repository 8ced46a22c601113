//! Asynchronous (Gauss–Seidel) proportional response.
//!
//! Definition 1 updates all agents simultaneously from the previous round's
//! receipts. Real P2P swarms are not synchronized; this engine updates one
//! agent at a time — each response is computed from the *current* state, so
//! later agents in a round already see earlier agents' new allocations.
//!
//! Empirically the asynchronous schedule converges to the same BD fixed
//! point (tested below), often in fewer sweeps — evidence that the
//! equilibrium the paper analyzes is robust to scheduling, not an artifact
//! of lockstep rounds.

use prs_graph::{Graph, VertexId};

/// Update ordering for the asynchronous engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Schedule {
    /// Agents update in id order every sweep.
    RoundRobin,
    /// A fixed pseudo-random permutation per sweep, derived from the seed
    /// (deterministic across runs).
    Shuffled(u64),
}

/// Asynchronous proportional response engine over `f64`.
pub struct AsyncEngine {
    w: Vec<f64>,
    adj: Vec<Vec<VertexId>>,
    rev: Vec<Vec<usize>>,
    x: Vec<Vec<f64>>,
    schedule: Schedule,
    sweep: usize,
}

impl AsyncEngine {
    /// Start at the Definition 1 even split.
    pub fn new(g: &Graph, schedule: Schedule) -> Self {
        let n = g.n();
        let w = g.weights_f64();
        let adj: Vec<Vec<VertexId>> = (0..n).map(|v| g.neighbors(v).to_vec()).collect();
        let rev = crate::engine_exact::build_rev(&adj);
        let x: Vec<Vec<f64>> = (0..n)
            .map(|v| {
                let d = adj[v].len().max(1) as f64;
                vec![w[v] / d; adj[v].len()]
            })
            .collect();
        AsyncEngine {
            w,
            adj,
            rev,
            x,
            schedule,
            sweep: 0,
        }
    }

    /// Current utilities (receipts under the current allocation).
    pub fn utilities(&self) -> Vec<f64> {
        let mut u = vec![0.0; self.adj.len()];
        for v in 0..self.adj.len() {
            for (i, &nb) in self.adj[v].iter().enumerate() {
                u[nb] += self.x[v][i];
            }
        }
        u
    }

    /// Number of completed sweeps.
    pub fn sweeps(&self) -> usize {
        self.sweep
    }

    fn order(&self) -> Vec<VertexId> {
        let n = self.adj.len();
        match self.schedule {
            Schedule::RoundRobin => (0..n).collect(),
            Schedule::Shuffled(seed) => {
                // Deterministic Fisher–Yates from a xorshift stream keyed
                // by (seed, sweep).
                let mut order: Vec<VertexId> = (0..n).collect();
                let mut s = seed ^ (self.sweep as u64).wrapping_mul(0x9E3779B97F4A7C15) | 1;
                let mut next = move || {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    s
                };
                for i in (1..n).rev() {
                    let j = (next() % (i as u64 + 1)) as usize;
                    order.swap(i, j);
                }
                order
            }
        }
    }

    /// One asynchronous sweep: every agent updates once, in schedule order,
    /// responding to the *current* incoming allocations.
    pub fn sweep_once(&mut self) {
        for v in self.order() {
            let d = self.adj[v].len();
            if d == 0 {
                continue;
            }
            // Receipts right now.
            let mut incoming = vec![0.0; d];
            let mut total = 0.0;
            for (i, slot) in incoming.iter_mut().enumerate() {
                let u = self.adj[v][i];
                let amt = self.x[u][self.rev[v][i]];
                *slot = amt;
                total += amt;
            }
            if total > 0.0 {
                let scale = self.w[v] / total;
                for (slot, &amt) in self.x[v].iter_mut().zip(&incoming) {
                    *slot = amt * scale;
                }
            } else {
                for slot in self.x[v].iter_mut() {
                    *slot = self.w[v] / d as f64;
                }
            }
        }
        self.sweep += 1;
    }

    /// Run sweeps until utilities are within `eps` of `target` (relative)
    /// or the cap is hit. Returns `(converged, sweeps_used)`.
    pub fn run_until_close(
        &mut self,
        target: &[f64],
        eps: f64,
        max_sweeps: usize,
    ) -> (bool, usize) {
        let mut used = 0;
        while crate::convergence::error_vs(&self.utilities(), target) > eps {
            if used >= max_sweeps {
                return (false, used);
            }
            self.sweep_once();
            used += 1;
        }
        (true, used)
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
    fn round_robin_converges_to_bd() {
        let mut rng = StdRng::seed_from_u64(99);
        for n in [4usize, 6, 9] {
            let g = random::random_ring(&mut rng, n, 1, 9);
            let t = targets(&g);
            let mut eng = AsyncEngine::new(&g, Schedule::RoundRobin);
            // Tolerance matched to the worst case: α = 1 instances converge
            // only sublinearly (~1/t), same as the synchronous engine.
            let (ok, sweeps) = eng.run_until_close(&t, 1e-5, 500_000);
            assert!(
                ok,
                "async round-robin failed on {:?} after {sweeps}",
                g.weights()
            );
        }
    }

    #[test]
    fn shuffled_schedule_converges_to_the_same_point() {
        let mut rng = StdRng::seed_from_u64(101);
        let g = random::random_ring(&mut rng, 7, 1, 9);
        let t = targets(&g);
        for seed in [1u64, 42, 1234] {
            let mut eng = AsyncEngine::new(&g, Schedule::Shuffled(seed));
            let (ok, _) = eng.run_until_close(&t, 1e-5, 500_000);
            assert!(ok, "shuffled({seed}) failed on {:?}", g.weights());
        }
    }

    #[test]
    fn async_often_needs_no_more_sweeps_than_sync() {
        // Not a theorem — a sanity expectation on a benign instance.
        let g = builders::path(vec![int(1), int(2), int(4)]).unwrap();
        let t = targets(&g);
        let mut sync = prs_p2psim::SoaSwarm::new(&g);
        let sync_rep = crate::run_until_close(&mut sync, &t, 1e-9, 1_000_000);
        let mut async_eng = AsyncEngine::new(&g, Schedule::RoundRobin);
        let (ok, sweeps) = async_eng.run_until_close(&t, 1e-9, 1_000_000);
        assert!(ok && sync_rep.converged);
        assert!(
            sweeps <= sync_rep.rounds * 2,
            "async {sweeps} vs sync {}",
            sync_rep.rounds
        );
    }

    #[test]
    fn uniform_ring_fixed_point_is_preserved() {
        let g = builders::uniform_ring(5, int(2)).unwrap();
        let mut eng = AsyncEngine::new(&g, Schedule::RoundRobin);
        let before = eng.utilities();
        for _ in 0..5 {
            eng.sweep_once();
        }
        assert_eq!(eng.utilities(), before);
    }
}
