//! Run parameters and outcome of [`SoaSwarm::run`](crate::SoaSwarm::run).

/// Simulation parameters.
#[derive(Clone, Debug)]
pub struct SwarmConfig {
    /// Maximum protocol rounds.
    pub max_rounds: usize,
    /// Convergence tolerance on the per-round utility movement
    /// (cycle-averaged, relative).
    pub tol: f64,
    /// Record the full per-round utility trace (costs memory on big runs).
    pub record_trace: bool,
}

impl Default for SwarmConfig {
    fn default() -> Self {
        SwarmConfig {
            max_rounds: 100_000,
            tol: 1e-9,
            record_trace: false,
        }
    }
}

/// Aggregated simulation outcome.
#[derive(Clone, Debug)]
pub struct SwarmMetrics {
    /// Rounds actually executed.
    pub rounds: usize,
    /// Whether the utilities settled within tolerance.
    pub converged: bool,
    /// Final cycle-averaged utilities per agent.
    pub utilities: Vec<f64>,
    /// Optional per-round utility trace (row = round).
    pub trace: Vec<Vec<f64>>,
}

impl SwarmMetrics {
    /// Download/upload fairness: `U_v / w_v` per agent (∞-free: agents with
    /// zero capacity report `f64::NAN`).
    pub fn fairness(&self, capacities: &[f64]) -> Vec<f64> {
        self.utilities
            .iter()
            .zip(capacities)
            .map(|(u, w)| if *w > 0.0 { u / w } else { f64::NAN })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SoaSwarm, Strategy};
    use prs_bd::decompose;
    use prs_graph::builders;
    use prs_numeric::int;

    #[test]
    fn sybil_swarm_matches_split_path_equilibrium() {
        // A Sybil attacker on the ring must converge to the utilities of the
        // split path P_v(w1, w2) — protocol-level Definition 7.
        let g = builders::ring(vec![int(4), int(2), int(6), int(3)]).unwrap();
        let v = 0usize;
        let (w1, w2) = (2.5f64, 1.5f64);
        // Peer slots: neighbors(0) = [1, 3]; identity 1 faces peer 1.
        let mut swarm = SoaSwarm::with_strategies(&g, |a| {
            if a == v {
                Strategy::Sybil { w1, w2 }
            } else {
                Strategy::Honest
            }
        });
        let m = swarm.run(&SwarmConfig::default());
        assert!(m.converged);

        // Closed form: decompose the split path (w1 next to successor = 1).
        let (p, p1, p2) = builders::sybil_split_path(
            &g,
            v,
            prs_numeric::Rational::from_f64(w1),
            prs_numeric::Rational::from_f64(w2),
        )
        .unwrap();
        let pbd = decompose(&p).unwrap();
        let want_attacker = (pbd.utility(&p, p1).to_f64()) + (pbd.utility(&p, p2).to_f64());
        let got_attacker = m.utilities[v];
        assert!(
            (got_attacker - want_attacker).abs() < 1e-6,
            "attacker utility {got_attacker} vs split-path equilibrium {want_attacker}"
        );
        // Other agents match the path equilibrium too (path ids: ring walk
        // from successor).
        let succ_path_utility = pbd.utility(&p, 1).to_f64();
        assert!((m.utilities[1] - succ_path_utility).abs() < 1e-6);
    }

    #[test]
    fn misreporting_never_pays_at_protocol_level() {
        // Protocol-level Theorem 10: an agent that under-reports capacity
        // converges to the equilibrium of the graph with the reported
        // weight — never better than honest.
        let g = builders::ring(vec![int(6), int(2), int(4), int(3)]).unwrap();
        let v = 0usize;
        let honest_u = SoaSwarm::new(&g).run(&SwarmConfig::default()).utilities[v];
        for reported in [0.5f64, 2.0, 4.5, 6.0] {
            let mut s = SoaSwarm::with_strategies(&g, |a| {
                if a == v {
                    Strategy::Misreport { reported }
                } else {
                    Strategy::Honest
                }
            });
            let m = s.run(&SwarmConfig::default());
            assert!(
                m.utilities[v] <= honest_u + 1e-7,
                "misreport {reported} beat honesty: {} > {honest_u}",
                m.utilities[v]
            );
            // Cross-check against the closed form on the modified graph.
            let g_x = g.with_weight(v, prs_numeric::Rational::from_f64(reported));
            let bd = decompose(&g_x).unwrap();
            let want = bd.utility(&g_x, v).to_f64();
            assert!(
                (m.utilities[v] - want).abs() < 1e-6,
                "protocol {} vs closed form {want}",
                m.utilities[v]
            );
        }
    }

    #[test]
    fn trace_recording() {
        let g = builders::uniform_ring(4, int(2)).unwrap();
        let mut swarm = SoaSwarm::new(&g);
        let m = swarm.run(&SwarmConfig {
            max_rounds: 10,
            tol: 0.0, // force all rounds
            record_trace: true,
        });
        assert_eq!(m.trace.len(), m.rounds + 1);
        assert!(m.trace.iter().all(|row| row.len() == 4));
    }
}
