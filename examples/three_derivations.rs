//! Three independent derivations of the sharing equilibrium, side by side.
//!
//! ```text
//! cargo run --release --example three_derivations
//! ```
//!
//! 1. **Combinatorial** — the BD Allocation Mechanism (Definition 5):
//!    bottleneck decomposition + per-pair max-flows, exact rationals.
//! 2. **Distributed** — the proportional response protocol (Definition 1):
//!    agents exchanging messages, no global computation.
//! 3. **Convex-programmatic** — the Eisenberg–Gale program
//!    `max Σ w_v log U_v` solved by mirror descent, knowing nothing about
//!    bottlenecks.
//!
//! All three agree — the equivalence behind Proposition 6.

use prs::prelude::*;
use prs::RingInstance;
use prs_core::eg::{solve, EgConfig};

fn main() {
    let ring = RingInstance::from_integers(&[4, 1, 7, 2, 5, 3]).expect("valid ring");
    let g = ring.graph();
    println!("ring weights: {:?}\n", g.weights());

    // 1. Closed form.
    let exact: Vec<Rational> = ring.equilibrium_utilities();

    // 2. Distributed protocol.
    let target: Vec<f64> = exact.iter().map(|u| u.to_f64()).collect();
    let mut swarm = SoaSwarm::new(g);
    let rep = run_until_close(&mut swarm, &target, 1e-10, 2_000_000);
    let protocol = swarm.averaged_utilities();

    // 3. Convex program.
    let eg = solve(g, &EgConfig::default());

    println!(" v | w_v | BD mechanism (exact) | protocol (Def. 1) | Eisenberg–Gale");
    for v in 0..g.n() {
        println!(
            " {v} | {:>3} | {:>20} | {:>17.10} | {:>14.10}",
            g.weight(v),
            format!("{} (≈{:.6})", exact[v], exact[v].to_f64()),
            protocol[v],
            eg.utilities[v],
        );
    }
    println!(
        "\nprotocol: {} rounds to 1e-10; EG: {} mirror-descent iterations",
        rep.rounds, eg.iters
    );

    let worst_protocol = protocol
        .iter()
        .zip(&target)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    let worst_eg = eg
        .utilities
        .iter()
        .zip(&target)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!("max |protocol − exact| = {worst_protocol:.2e}");
    println!("max |EG − exact|       = {worst_eg:.2e}");
    assert!(worst_protocol < 1e-8 && worst_eg < 1e-2);
    println!("\nthree derivations, one equilibrium ✓");
}
