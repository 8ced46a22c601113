//! Allocation guards for the struct-of-arrays swarm: once the scratch lanes
//! are sized, a steady-state `SoaSwarm::step` makes no heap allocation, and
//! an untraced `SoaSwarm::run` makes one, its returned utilities. Checked on
//! rings of 10³ and 10⁴ agents (weights `v % 50 + 1`) with prs-flow's
//! counting global allocator, which counts only the allocations of the
//! thread that asks.

#[path = "../crates/flow/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;
use prs::p2psim::{SoaSwarm, SwarmConfig};
use prs::prelude::*;

const STEADY_ROUNDS: usize = 64;

#[test]
fn steady_state_swarm_rounds_allocate_nothing() {
    let (_, probe) = allocations(|| Vec::<u8>::with_capacity(1));
    assert_eq!(probe, 1, "the counter must see this thread's allocations");
    for n in [1_000usize, 10_000] {
        let weights: Vec<Rational> = (0..n).map(|v| int((v % 50 + 1) as i64)).collect();
        let g = builders::ring(weights).expect("ring builds");
        let mut swarm = SoaSwarm::new(&g);
        // Warm-up: the first rounds size the scratch lanes.
        swarm.step();
        swarm.step();
        let ((), allocs) = allocations(|| {
            for _ in 0..STEADY_ROUNDS {
                swarm.step();
            }
        });
        assert_eq!(
            allocs, 0,
            "{STEADY_ROUNDS} steady-state rounds allocated at n={n}"
        );
    }
}

#[test]
fn untraced_run_allocates_only_its_result() {
    for n in [1_000usize, 10_000] {
        let weights: Vec<Rational> = (0..n).map(|v| int((v % 50 + 1) as i64)).collect();
        let g = builders::ring(weights).expect("ring builds");
        for rounds in [1usize, 16, 64, 200] {
            let mut swarm = SoaSwarm::new(&g);
            let cfg = SwarmConfig {
                max_rounds: rounds,
                tol: 0.0,
                record_trace: false,
            };
            let (m, allocs) = allocations(|| swarm.run(&cfg));
            assert_eq!((m.rounds, m.converged), (rounds, false));
            assert_eq!(
                allocs, 1,
                "run() of {rounds} rounds at n={n} must allocate only its utilities"
            );
        }
    }
}
