//! End-to-end pipeline tests across crates: graph → decomposition →
//! allocation → dynamics → swarm, all agreeing on random instances.

use prs::prelude::*;
use prs::RingInstance;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn full_pipeline_on_random_rings() {
    let mut rng = StdRng::seed_from_u64(1001);
    for n in [3usize, 5, 8, 12] {
        let g = prs_random_ring(&mut rng, n);
        let ring = RingInstance::new(g.weights().to_vec()).unwrap();

        // Decomposition invariants.
        ring.decomposition()
            .check_proposition3(ring.graph())
            .unwrap();

        // Allocation realizes Proposition 6 exactly.
        let alloc = ring.allocation();
        alloc.check_budget_balance(ring.graph()).unwrap();
        for v in 0..n {
            assert_eq!(alloc.utility(v), ring.equilibrium_utility(v));
        }

        // Distributed protocol reaches the same fixed point.
        let report = ring.run_dynamics(1e-8, 300_000).unwrap();
        assert!(report.converged, "dynamics failed on {:?}", g.weights());

        // Message-level swarm agrees with everything above. (The swarm's
        // stop rule is movement-based, so use a tolerance well below the
        // distance we assert: slow geometric rates otherwise stop early.)
        let mut swarm = SoaSwarm::new(ring.graph());
        let m = swarm.run(&SwarmConfig {
            max_rounds: 2_000_000,
            tol: 1e-13,
            record_trace: false,
        });
        assert!(m.converged);
        for (v, want) in ring.equilibrium_utilities().iter().enumerate() {
            assert!(
                (m.utilities[v] - want.to_f64()).abs() < 1e-5,
                "swarm disagrees at {v} on {:?}",
                g.weights()
            );
        }
    }
}

#[test]
fn exact_engine_certifies_f64_engine() {
    let mut rng = StdRng::seed_from_u64(1002);
    let g = prs_random_ring(&mut rng, 6);
    let mut exact = ExactEngine::new(&g);
    let mut fast = SoaSwarm::new(&g);
    for _ in 0..10 {
        exact.step();
        fast.step();
    }
    for v in 0..g.n() {
        assert!(
            (exact.utilities()[v].to_f64() - fast.utilities()[v]).abs() < 1e-9,
            "engines diverged at {v}"
        );
    }
}

#[test]
fn bd_allocation_is_dynamics_fixed_point_end_to_end() {
    let mut rng = StdRng::seed_from_u64(1003);
    for _ in 0..5 {
        let g = prs_random_ring(&mut rng, 7);
        let bd = decompose(&g).unwrap();
        let alloc = allocate(&g, &bd);
        let mut engine = ExactEngine::with_allocation(&g, &alloc);
        engine.step();
        for v in 0..g.n() {
            for &u in g.neighbors(v) {
                assert_eq!(engine.sent(v, u), alloc.sent(v, u));
            }
        }
    }
}

#[test]
fn misreport_never_beats_honesty_end_to_end() {
    // Theorem 10 corollary at pipeline level: truthfulness of the mechanism
    // under weight misreporting.
    let mut rng = StdRng::seed_from_u64(1004);
    let g = prs_random_ring(&mut rng, 6);
    let bd = decompose(&g).unwrap();
    for v in 0..g.n() {
        let honest = bd.utility(&g, v);
        for k in 1..6 {
            let x = &(g.weight(v) * &ratio(k, 6));
            let g_x = g.with_weight(v, x.clone());
            let bd_x = decompose(&g_x).unwrap();
            assert!(bd_x.utility(&g_x, v) <= honest);
        }
    }
}

/// Deterministic random ring helper (weights 1..=20).
fn prs_random_ring(rng: &mut StdRng, n: usize) -> Graph {
    prs::graph::random::random_ring(rng, n, 1, 20)
}
