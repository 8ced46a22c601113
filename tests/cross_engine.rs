//! Cross-engine agreement tests: the same quantity computed by independent
//! implementations must coincide — mechanism vs protocol, exact vs float,
//! grid vs certified optimizer, flow vs brute-force decomposition.
//!
//! The flow-kernel modules at the bottom instantiate the shared
//! engine-parameterized Dinic suite (`prs_flow::testkit`) once per capacity
//! backend, so every kernel property — including the long-path
//! no-stack-overflow regression — is pinned for all three engines from
//! outside the crate.

use prs::prelude::*;
use prs::RingInstance;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn four_ways_to_the_same_utilities() {
    // Closed form (Prop 6), allocation row-sums, f64 dynamics limit, and the
    // message-level swarm all agree.
    let mut rng = StdRng::seed_from_u64(77);
    let g = prs::graph::random::random_ring(&mut rng, 7, 1, 9);
    let ring = RingInstance::new(g.weights().to_vec()).unwrap();

    let closed: Vec<f64> = ring
        .equilibrium_utilities()
        .iter()
        .map(|u| u.to_f64())
        .collect();

    let alloc = ring.allocation();
    let from_alloc: Vec<f64> = (0..g.n()).map(|v| alloc.utility(v).to_f64()).collect();

    let mut engine = SoaSwarm::new(ring.graph());
    run_until_close(&mut engine, &closed, 1e-10, 1_000_000);
    let from_dynamics = engine.averaged_utilities();

    let mut swarm = SoaSwarm::new(ring.graph());
    let metrics = swarm.run(&SwarmConfig {
        max_rounds: 1_000_000,
        tol: 1e-13,
        record_trace: false,
    });

    for v in 0..g.n() {
        assert_eq!(closed[v], from_alloc[v], "closed form vs allocation at {v}");
        assert!(
            (closed[v] - from_dynamics[v]).abs() < 1e-7,
            "dynamics at {v}"
        );
        assert!(
            (closed[v] - metrics.utilities[v]).abs() < 1e-5,
            "swarm at {v}"
        );
    }
}

#[test]
fn certified_and_grid_optimizers_agree_on_the_ratio() {
    let mut rng = StdRng::seed_from_u64(88);
    for _ in 0..3 {
        let g = prs::graph::random::random_ring(&mut rng, 5, 1, 12);
        for v in 0..2 {
            let grid = best_sybil_split(
                &g,
                v,
                &AttackConfig::new()
                    .with_grid(32)
                    .with_zoom_levels(5)
                    .with_keep(3),
            );
            let cert = prs::sybil::certified_best_split(&g, v, 24, 30);
            // Certified dominates and both respect Theorem 8.
            assert!(cert.best_payoff >= grid.best.total());
            assert!(cert.ratio <= Rational::from_integer(2));
            // And the gap between the two optimizers is tiny (the grid
            // optimizer is already within a fine zoom of the optimum).
            let gap = (&cert.best_payoff - &grid.best.total()).to_f64();
            assert!(
                gap <= 0.05 * cert.honest_utility.to_f64().max(1.0),
                "optimizers disagree widely: {gap} on {:?} v={v}",
                g.weights()
            );
        }
    }
}

#[test]
fn general_split_machinery_reduces_to_ring_machinery() {
    // On a ring, the general (partition-based) attack with the {succ}/{pred}
    // partition must match the split-path attack values.
    let g = prs::graph::builders::ring(vec![int(5), int(2), int(7), int(3)]).unwrap();
    let v = 2usize;
    let w1 = ratio(7, 3);
    let w2 = &int(7) - &w1;
    // General machinery: neighbors(2) = [1, 3]; copy 0 ← neighbor 1,
    // copy 1 ← neighbor 3.
    let payoff_general =
        prs::sybil::general::attack_payoff(&g, v, &[0, 1], &[w1.clone(), w2.clone()]).unwrap();
    // Ring machinery: v1 faces successor = neighbors[0] = 1.
    let fam = prs::sybil::SybilSplitFamily::new(g, v);
    let (u1, u2) = fam.payoff(&w1).unwrap();
    assert_eq!(payoff_general, &u1 + &u2);
}

#[test]
fn exact_dynamics_certifies_float_dynamics_on_paths() {
    let g = prs::graph::builders::path(vec![int(2), int(5), int(1), int(4)]).unwrap();
    let mut exact = ExactEngine::new(&g);
    let mut float = SoaSwarm::new(&g);
    for round in 0..15 {
        for v in 0..g.n() {
            for (&u, &f) in g.neighbors(v).iter().zip(float.outgoing_of(v)) {
                let e = exact.sent(v, u).to_f64();
                assert!(
                    (e - f).abs() < 1e-9,
                    "allocation drift at round {round}, edge ({v},{u})"
                );
            }
        }
        exact.step();
        float.step();
    }
}

mod flow_kernel_exact {
    prs_flow::engine_suite!(prs_numeric::Rational);
}

mod flow_kernel_int {
    prs_flow::engine_suite!(prs_numeric::BigInt);
}

mod flow_kernel_i128 {
    prs_flow::engine_suite!(i128);
}

mod flow_kernel_f64 {
    prs_flow::engine_suite!(f64);
}

#[test]
fn moebius_breakpoints_match_bisection_brackets() {
    let g = prs::graph::builders::ring(vec![int(6), int(2), int(4), int(3), int(5)]).unwrap();
    let fam = MisreportFamily::new(g, 0);
    let res = sweep(&fam, &SweepConfig::new().with_grid(32).with_refine_bits(24));
    let exact = prs::deviation::exact_breakpoints(&fam, &res);
    for (w, bp) in res.intervals.windows(2).zip(&exact) {
        if let Some(x) = bp {
            assert!(
                *x >= w[0].hi && *x <= w[1].lo,
                "exact breakpoint {x} outside its bisection bracket"
            );
        }
    }
}
