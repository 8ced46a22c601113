//! Property tests for the swarm simulator.

use proptest::prelude::*;
use prs_graph::builders;
use prs_numeric::{int, Rational};
use prs_p2psim::{SoaSwarm, Strategy as AgentStrategy, SwarmConfig};

fn arb_ring_weights() -> impl Strategy<Value = Vec<i64>> {
    proptest::collection::vec(1i64..12, 3..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn capacity_conserved_every_round(weights in arb_ring_weights()) {
        let g = builders::ring(weights.iter().map(|&w| int(w)).collect()).unwrap();
        let total: f64 = g.weights_f64().iter().sum();
        let mut swarm = SoaSwarm::new(&g);
        for _ in 0..30 {
            swarm.step();
            let received: f64 = swarm.utilities().iter().sum();
            prop_assert!((received - total).abs() < 1e-9);
        }
    }

    #[test]
    fn utilities_stay_nonnegative_and_finite(weights in arb_ring_weights()) {
        let g = builders::ring(weights.iter().map(|&w| int(w)).collect()).unwrap();
        let mut swarm = SoaSwarm::new(&g);
        let m = swarm.run(&SwarmConfig {
            max_rounds: 50_000,
            tol: 1e-10,
            record_trace: false,
        });
        for u in &m.utilities {
            prop_assert!(u.is_finite());
            prop_assert!(*u >= -1e-12);
        }
    }

    #[test]
    fn swarm_matches_closed_form(weights in arb_ring_weights()) {
        let g = builders::ring(weights.iter().map(|&w| int(w)).collect()).unwrap();
        let bd = prs_bd::decompose(&g).unwrap();
        let want: Vec<f64> = bd.utilities(&g).iter().map(|u| u.to_f64()).collect();
        let mut swarm = SoaSwarm::new(&g);
        let m = swarm.run(&SwarmConfig {
            max_rounds: 500_000,
            tol: 1e-13,
            record_trace: false,
        });
        for (got, want) in m.utilities.iter().zip(&want) {
            prop_assert!(
                (got - want).abs() / (1.0 + want.abs()) < 1e-3,
                "swarm {got} vs closed form {want} on {weights:?}"
            );
        }
    }

    #[test]
    fn sybil_attacker_never_exceeds_twice_honest(
        weights in arb_ring_weights(),
        split_pct in 1usize..100,
    ) {
        let g = builders::ring(weights.iter().map(|&w| int(w)).collect()).unwrap();
        let v = 0usize;
        let honest = {
            let mut s = SoaSwarm::new(&g);
            s.run(&SwarmConfig::default()).utilities[v]
        };
        let w_v = g.weight(v).to_f64();
        let w1 = w_v * split_pct as f64 / 100.0;
        let w2 = w_v - w1;
        let mut s = SoaSwarm::with_strategies(&g, |a| {
            if a == v {
                AgentStrategy::Sybil { w1, w2 }
            } else {
                AgentStrategy::Honest
            }
        });
        let attacked = s.run(&SwarmConfig::default()).utilities[v];
        // Protocol-level Theorem 8, per-sample.
        prop_assert!(
            attacked <= 2.0 * honest + 1e-6,
            "protocol Sybil gain {} > 2 × {honest} on {weights:?} (split {split_pct}%)",
            attacked
        );
    }

    #[test]
    fn misreporting_underperforms_honesty(
        weights in arb_ring_weights(),
        report_pct in 1usize..=100,
    ) {
        let g = builders::ring(weights.iter().map(|&w| int(w)).collect()).unwrap();
        let v = 1usize;
        let honest = {
            let mut s = SoaSwarm::new(&g);
            s.run(&SwarmConfig::default()).utilities[v]
        };
        let reported = g.weight(v).to_f64() * report_pct as f64 / 100.0;
        let mut s = SoaSwarm::with_strategies(&g, |a| {
            if a == v {
                AgentStrategy::Misreport { reported }
            } else {
                AgentStrategy::Honest
            }
        });
        let lied = s.run(&SwarmConfig::default()).utilities[v];
        prop_assert!(
            lied <= honest + 1e-6,
            "misreport {report_pct}% beat honesty ({lied} > {honest}) on {weights:?}"
        );
    }
}

#[test]
fn fairness_index_within_bounds() {
    let g = builders::ring(vec![
        Rational::from_integer(1),
        Rational::from_integer(5),
        Rational::from_integer(2),
        Rational::from_integer(9),
    ])
    .unwrap();
    let mut swarm = SoaSwarm::new(&g);
    let m = swarm.run(&SwarmConfig::default());
    let f = prs_p2psim::jain_fairness(&m, &g.weights_f64());
    assert!(
        (0.25..=1.0 + 1e-9).contains(&f),
        "Jain index {f} out of bounds"
    );
}
