//! Exact rational proportional response engine.
//!
//! Runs equation (1) in exact arithmetic. Denominators compound every round,
//! so this engine is for short horizons on small instances — where it serves
//! two purposes: certifying that the f64 engine (`prs_p2psim::SoaSwarm`)
//! has not drifted, and verifying *exactly* that the BD allocation is a
//! fixed point of the dynamics (a statement about rationals that floating
//! point can only approximate).

use prs_bd::Allocation;
use prs_graph::{Graph, VertexId};
use prs_numeric::Rational;

/// Proportional response dynamics over exact rationals.
pub struct ExactEngine {
    w: Vec<Rational>,
    adj: Vec<Vec<VertexId>>,
    rev: Vec<Vec<usize>>,
    x: Vec<Vec<Rational>>,
    received: Vec<Rational>,
    round: usize,
}

impl ExactEngine {
    /// Start at the Definition 1 initial condition `x_vu(0) = w_v / d_v`.
    pub fn new(g: &Graph) -> Self {
        let n = g.n();
        let adj: Vec<Vec<VertexId>> = (0..n).map(|v| g.neighbors(v).to_vec()).collect();
        let rev = build_rev(&adj);
        let x: Vec<Vec<Rational>> = (0..n)
            .map(|v| {
                let d = Rational::from_integer(adj[v].len().max(1) as i64);
                vec![g.weight(v) / &d; adj[v].len()]
            })
            .collect();
        let mut eng = ExactEngine {
            w: g.weights().to_vec(),
            adj,
            rev,
            x,
            received: vec![Rational::zero(); n],
            round: 0,
        };
        eng.recompute_received();
        eng
    }

    /// Start at an arbitrary exact allocation.
    pub fn with_allocation(g: &Graph, alloc: &Allocation) -> Self {
        let mut eng = Self::new(g);
        for v in 0..g.n() {
            for (i, &u) in eng.adj[v].clone().iter().enumerate() {
                eng.x[v][i] = alloc.sent(v, u);
            }
        }
        eng.recompute_received();
        eng
    }

    fn recompute_received(&mut self) {
        self.received.iter_mut().for_each(|r| *r = Rational::zero());
        for v in 0..self.adj.len() {
            for (i, &u) in self.adj[v].iter().enumerate() {
                self.received[u] += &self.x[v][i];
            }
        }
    }

    /// Current round index.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Current exact utilities.
    pub fn utilities(&self) -> &[Rational] {
        &self.received
    }

    /// What `v` currently sends to `u`.
    pub fn sent(&self, v: VertexId, u: VertexId) -> Rational {
        match self.adj[v].binary_search(&u) {
            Ok(i) => self.x[v][i].clone(),
            Err(_) => Rational::zero(),
        }
    }

    /// One exact round of equation (1).
    pub fn step(&mut self) {
        let mut x_next = self.x.clone();
        for (v, x_next_v) in x_next.iter_mut().enumerate() {
            let total = &self.received[v];
            if total.is_positive() {
                let scale = &self.w[v] / total;
                for (i, &u) in self.adj[v].iter().enumerate() {
                    x_next_v[i] = &self.x[u][self.rev[v][i]] * &scale;
                }
            } else {
                let d = Rational::from_integer(self.adj[v].len().max(1) as i64);
                for slot in x_next_v.iter_mut() {
                    *slot = &self.w[v] / &d;
                }
            }
        }
        self.x = x_next;
        self.recompute_received();
        self.round += 1;
    }

    /// Run `rounds` exact rounds.
    pub fn run(&mut self, rounds: usize) {
        for _ in 0..rounds {
            self.step();
        }
    }
}

/// Reverse-arc index: `rev[v][i]` is the position of `v` in the neighbor
/// list of `adj[v][i]`. (Nested-vec form for the exact engine; `SoaSwarm`
/// keeps the flat `CsrTopology` equivalent.)
fn build_rev(adj: &[Vec<VertexId>]) -> Vec<Vec<usize>> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use prs_bd::{allocate, decompose};
    use prs_graph::{builders, random};
    use prs_numeric::int;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bd_allocation_is_exactly_fixed() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..8 {
            let g = random::random_ring(&mut rng, 6, 1, 9);
            let bd = decompose(&g).unwrap();
            let alloc = allocate(&g, &bd);
            let mut eng = ExactEngine::with_allocation(&g, &alloc);
            let u0 = eng.utilities().to_vec();
            eng.step();
            // Not just utilities — the whole allocation must be unchanged.
            for v in 0..g.n() {
                for &u in g.neighbors(v) {
                    assert_eq!(
                        eng.sent(v, u),
                        alloc.sent(v, u),
                        "allocation moved at ({v},{u}) on {:?}",
                        g.weights()
                    );
                }
            }
            assert_eq!(eng.utilities(), &u0[..]);
        }
    }

    #[test]
    fn exact_matches_f64_engine_short_horizon() {
        let g = builders::path(vec![int(1), int(2), int(4)]).unwrap();
        let mut exact = ExactEngine::new(&g);
        let mut fast = prs_p2psim::SoaSwarm::new(&g);
        for _ in 0..12 {
            exact.step();
            fast.step();
        }
        for v in 0..g.n() {
            let e = exact.utilities()[v].to_f64();
            let f = fast.utilities()[v];
            assert!((e - f).abs() < 1e-9, "v={v}: exact {e} vs f64 {f}");
        }
    }

    #[test]
    fn conservation_every_round() {
        let g = builders::ring(vec![int(3), int(1), int(4), int(1), int(5)]).unwrap();
        let total = g.total_weight();
        let mut eng = ExactEngine::new(&g);
        for _ in 0..6 {
            eng.step();
            let sum: prs_numeric::Rational = eng.utilities().iter().sum();
            assert_eq!(sum, total, "resource must be conserved exactly");
        }
    }

    #[test]
    fn initial_condition_is_even_split() {
        let g = builders::uniform_ring(4, int(6)).unwrap();
        let eng = ExactEngine::new(&g);
        for v in 0..4 {
            for &u in g.neighbors(v) {
                assert_eq!(eng.sent(v, u), int(3));
            }
        }
    }
}
