//! Protocol-level view: a BitTorrent-style swarm with a Sybil attacker.
//!
//! ```text
//! cargo run --example p2p_swarm
//! ```
//!
//! Runs the message-level proportional response protocol on a ring swarm,
//! first with everyone honest, then with agent 0 mounting its optimal Sybil
//! attack *inside the protocol* (one fictitious identity per neighbor).
//! The attacker's long-run download improves by at most 2× — Theorem 8
//! observed at the protocol level rather than the mechanism level.

use prs::prelude::*;
use prs::RingInstance;

fn main() {
    let ring = RingInstance::from_integers(&[6, 1, 4, 2, 5]).expect("valid ring");
    let g = ring.graph();
    println!("swarm topology: ring, weights {:?}", g.weights());

    // Honest swarm.
    let mut honest_swarm = SoaSwarm::new(g);
    let honest = honest_swarm.run(&SwarmConfig::default());
    println!(
        "\nhonest swarm: converged in {} rounds; utilities {:?}",
        honest.rounds,
        honest
            .utilities
            .iter()
            .map(|u| format!("{u:.4}"))
            .collect::<Vec<_>>()
    );

    // Verify against the closed form (Proposition 6).
    for (v, want) in ring.equilibrium_utilities().iter().enumerate() {
        let got = honest.utilities[v];
        assert!(
            (got - want.to_f64()).abs() < 1e-6,
            "protocol disagrees with the BD equilibrium at agent {v}"
        );
    }
    println!("protocol utilities match the Proposition 6 closed form ✓");

    // Attacker: agent 0 plays its optimal split, found by the exact
    // mechanism-level optimizer.
    let attacker = 0usize;
    let out = ring.sybil_attack(attacker, &AttackConfig::default());
    let w1 = out.best.w1.to_f64();
    let w2 = g.weight(attacker).to_f64() - w1;
    println!("\nagent {attacker} attacks with identities (w1, w2) = ({w1:.4}, {w2:.4})");

    let mut sybil_swarm = SoaSwarm::with_strategies(g, |a| {
        if a == attacker {
            Strategy::Sybil { w1, w2 }
        } else {
            Strategy::Honest
        }
    });
    let attacked = sybil_swarm.run(&SwarmConfig::default());
    let honest_u = honest.utilities[attacker];
    let sybil_u = attacked.utilities[attacker];
    println!(
        "attacked swarm: converged in {} rounds; attacker download {:.4} (honest {:.4})",
        attacked.rounds, sybil_u, honest_u
    );
    println!(
        "protocol-level gain: {:.4}×  (mechanism-level ζ_0 = {:.4}; Theorem 8 cap: 2)",
        sybil_u / honest_u,
        out.ratio_f64()
    );

    // Collateral: who pays for the attacker's gain?
    println!("\nper-agent effect of the attack:");
    for v in 0..g.n() {
        let delta = attacked.utilities[v] - honest.utilities[v];
        println!(
            "  agent {v}: {:.4} → {:.4}  ({}{:.4})",
            honest.utilities[v],
            attacked.utilities[v],
            if delta >= 0.0 { "+" } else { "" },
            delta
        );
    }
}
