//! Quickstart: one ring, the whole pipeline.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Builds a small weighted ring, computes its bottleneck decomposition and
//! BD allocation, verifies the Proposition 6 utilities, and shows the
//! distributed proportional response protocol converging to the same fixed
//! point.

use prs::RingInstance;

fn main() {
    // Five agents on a ring, with unequal resources.
    let ring = RingInstance::from_integers(&[3, 1, 4, 1, 5]).expect("valid ring");
    println!("ring weights: {:?}", ring.graph().weights());

    // 1. The bottleneck decomposition (Definition 2).
    let bd = ring.decomposition();
    println!("\nbottleneck decomposition ({} pairs):", bd.k());
    for (i, pair) in bd.pairs().iter().enumerate() {
        println!(
            "  (B_{i}, C_{i}) = ({:?}, {:?})  α_{i} = {}",
            pair.b.to_vec(),
            pair.c.to_vec(),
            pair.alpha
        );
    }

    // 2. Equilibrium utilities (Proposition 6): w·α for B-class, w/α for
    //    C-class agents.
    println!("\nequilibrium utilities:");
    for v in 0..ring.n() {
        println!(
            "  agent {v}: class {:?}, U_{v} = {}",
            ring.class_of(v),
            ring.equilibrium_utility(v)
        );
    }

    // 3. The BD allocation realizes those utilities edge by edge.
    let alloc = ring.allocation();
    alloc.check_budget_balance(ring.graph()).expect("balanced");
    println!("\nallocation (sender → receiver: amount):");
    for &(u, v) in ring.graph().edges() {
        let fwd = alloc.sent(u, v);
        let bwd = alloc.sent(v, u);
        if fwd.is_positive() || bwd.is_positive() {
            println!("  {u} → {v}: {fwd}    {v} → {u}: {bwd}");
        }
    }

    // 4. The distributed protocol (Definition 1) reaches the same fixed
    //    point without any global computation.
    let report = ring
        .run_dynamics(1e-10, 100_000)
        .expect("integer weights have f64 capacities");
    println!(
        "\nproportional response dynamics: converged = {} after {} rounds (err {:.2e})",
        report.converged, report.rounds, report.final_error
    );
}
