//! Cross-engine agreement tests: the same quantity computed by independent
//! implementations must coincide — mechanism vs protocol, exact vs float,
//! grid vs certified optimizer, flow vs brute-force decomposition.
//!
//! The flow-kernel modules at the bottom instantiate the shared
//! engine-parameterized Dinic suite (`prs_flow::testkit`) once per capacity
//! backend, so every kernel property — including the long-path
//! no-stack-overflow regression — is pinned for all three engines
//! (rational, BigInt, checked `i128`) from outside the crate.

use prs::deviation::reference::bisect_breakpoint;
use prs::deviation::solve_breakpoint;
use prs::prelude::*;
use prs::sybil::SybilSplitFamily;
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

/// The reference bisection bracket of the grid cell `(x_i, x_{i+1}]` of
/// `fam`'s domain that holds `x`.
fn reference_bracket<F: GraphFamily>(fam: &F, grid: i64, x: &Rational) -> (Rational, Rational) {
    let (lo, hi) = fam.domain();
    let cell = &(&hi - &lo) / &int(grid);
    let at = |i: i64| &lo + &(&cell * &int(i));
    let i = (0..grid).find(|&i| *x <= at(i + 1)).unwrap();
    bisect_breakpoint(fam, &at(i), &at(i + 1), 40).unwrap()
}

#[test]
fn moebius_breakpoints_match_bisection_brackets() {
    let g = prs::graph::builders::ring(vec![int(6), int(2), int(4), int(3), int(5)]).unwrap();
    let fam = MisreportFamily::new(g, 0);
    let res = sweep(&fam, &SweepConfig::new().with_grid(32).with_refine_bits(24));
    let mut solved = 0;
    for x in res.solved().iter().flatten() {
        let (a, b) = reference_bracket(&fam, 32, x);
        assert!(
            &a <= x && x <= &b,
            "exact breakpoint {x} outside its reference bracket [{a}, {b}]"
        );
        solved += 1;
    }
    assert!(solved > 0, "no breakpoint solved");
}

/// Solve every step `xs[i] → xs[i+1]` of a walk through `fam`'s domain
/// whose ends differ in shape; each solved breakpoint must lie in the
/// step's reference bisection bracket. Returns `(steps, solved)`.
fn solved_inside_reference<F: GraphFamily>(fam: &F, xs: &[Rational]) -> (usize, usize) {
    let mut session = DecompositionSession::detached();
    let mut at = |x: &Rational| AlphaSample::at(fam, x, &mut session);
    let samples: Vec<_> = xs.iter().map(&mut at).collect();
    let (mut steps, mut solved) = (0, 0);
    for w in samples.windows(2) {
        let (Some(a), Some(b)) = (&w[0], &w[1]) else {
            continue;
        };
        if a.bd.shape() == b.bd.shape() {
            continue;
        }
        steps += 1;
        if let Some(x) = solve_breakpoint(fam, a.clone(), b.clone(), 40, &mut at).x {
            let (ra, rb) = bisect_breakpoint(fam, &a.x, &b.x, 40).unwrap();
            assert!(
                (ra <= x && x <= rb) || (rb <= x && x <= ra),
                "solved {x} outside the reference bracket [{ra}, {rb}]"
            );
            solved += 1;
        }
    }
    (steps, solved)
}

/// `k + 1` evenly spaced points from `from` to `to`.
fn walk(from: &Rational, to: &Rational, k: i64) -> Vec<Rational> {
    (0..=k)
        .map(|i| from + &(&(to - from) * &ratio(i, k)))
        .collect()
}

#[test]
fn solved_breakpoints_lie_in_reference_brackets() {
    // Random rings, n = 4..8: the misreport family of every agent, the
    // Sybil split family, and — wherever the honest split starts both
    // copies in one pair — the Adjusting Technique's diagonal, which is the
    // split family walked from the honest split toward either end.
    let mut rng = StdRng::seed_from_u64(1905);
    let (mut steps, mut solved, mut diagonals) = (0, 0, 0);
    let mut tally = |(c, s): (usize, usize)| {
        steps += c;
        solved += s;
    };
    for n in 4..=8 {
        let g = prs::graph::random::random_ring(&mut rng, n, 1, 12);
        for v in 0..n {
            let grid = walk(&Rational::zero(), g.weight(v), 12);
            tally(solved_inside_reference(
                &MisreportFamily::new(g.clone(), v),
                &grid,
            ));
            let split = SybilSplitFamily::new(g.clone(), v);
            tally(solved_inside_reference(&split, &grid));
            let (w1, w2) = honest_split(&g, v);
            let (p, v1, v2) = split.path_at(&w1, &w2);
            let bd = decompose(&p).unwrap();
            if bd.pair_of(v1) == bd.pair_of(v2) {
                for end in [Rational::zero(), g.weight(v).clone()] {
                    tally(solved_inside_reference(&split, &walk(&w1, &end, 8)));
                    diagonals += 1;
                }
            }
        }
    }
    // The steps left to the fallback hold irrational breakpoints (a
    // quadratic α-equality when both copies move inside the pairs).
    assert!(diagonals > 0, "no same-pair start on these rings");
    assert!(
        solved * 10 >= steps * 9,
        "only {solved} of {steps} steps solved"
    );
}
