//! SoA engine vs legacy per-agent `Swarm`: bit-identical trajectories.
//!
//! `mod reference` is a verbatim re-implementation of the pre-refactor
//! per-agent engine (`AgentState` lanes + the message-routing `deliver`),
//! extended with the naive append-only membership semantics the SoA engine
//! promises (cold joins, mark-dead leaves). Every comparison is on raw
//! `f64::to_bits` — not tolerances — so any reordering of floating-point
//! operations in the flat engine shows up immediately.

use prs::p2psim::{MembershipEvent, MembershipOutcome, SoaSwarm, Strategy, Swarm};
use prs::prelude::{builders, int, parse_instance, Graph};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The pre-refactor engine, kept as an executable specification.
mod reference {
    use prs::p2psim::Strategy;
    use prs::prelude::Graph;

    pub struct Agent {
        pub capacity: f64,
        pub peers: Vec<usize>,
        pub received: Vec<f64>,
        pub outgoing: Vec<f64>,
        pub strategy: Strategy,
    }

    impl Agent {
        fn new(capacity: f64, peers: Vec<usize>, strategy: Strategy) -> Self {
            let d = peers.len().max(1) as f64;
            let initial = match &strategy {
                Strategy::Honest => vec![capacity / d; peers.len()],
                Strategy::Sybil { w1, w2 } => vec![*w1, *w2],
                Strategy::Misreport { reported } => vec![*reported / d; peers.len()],
            };
            Agent {
                capacity,
                received: vec![0.0; peers.len()],
                outgoing: initial,
                peers,
                strategy,
            }
        }

        fn utility(&self) -> f64 {
            // `Iterator::sum` over an empty f64 slice yields -0.0; a
            // departed (peerless) agent's utility is +0.0 by definition.
            if self.received.is_empty() {
                return 0.0;
            }
            self.received.iter().sum()
        }

        fn respond(&mut self) {
            match &self.strategy {
                Strategy::Honest => self.respond_scaled(self.capacity),
                Strategy::Sybil { w1, w2 } => {
                    self.outgoing[0] = *w1;
                    self.outgoing[1] = *w2;
                }
                Strategy::Misreport { reported } => self.respond_scaled(*reported),
            }
        }

        fn respond_scaled(&mut self, effective: f64) {
            let total: f64 = self.received.iter().sum();
            if total > 0.0 {
                let scale = effective / total;
                for (out, r) in self.outgoing.iter_mut().zip(&self.received) {
                    *out = r * scale;
                }
            } else {
                let d = self.peers.len().max(1) as f64;
                for out in self.outgoing.iter_mut() {
                    *out = effective / d;
                }
            }
        }

        fn slot_of(&self, u: usize) -> usize {
            self.peers.binary_search(&u).expect("peer not in list")
        }
    }

    pub struct RefSwarm {
        pub agents: Vec<Agent>,
        prev_utilities: Vec<f64>,
    }

    impl RefSwarm {
        pub fn with_strategies(g: &Graph, strategy: impl Fn(usize) -> Strategy) -> Self {
            let w = g.weights_f64();
            let agents: Vec<Agent> = (0..g.n())
                .map(|v| Agent::new(w[v], g.neighbors(v).to_vec(), strategy(v)))
                .collect();
            let n = agents.len();
            let mut s = RefSwarm {
                agents,
                prev_utilities: vec![0.0; n],
            };
            s.deliver();
            s
        }

        fn deliver(&mut self) {
            for v in 0..self.agents.len() {
                self.prev_utilities[v] = self.agents[v].utility();
            }
            let sends: Vec<(usize, usize, f64)> = self
                .agents
                .iter()
                .enumerate()
                .flat_map(|(v, a)| {
                    a.peers
                        .iter()
                        .zip(&a.outgoing)
                        .map(move |(&u, &amt)| (v, u, amt))
                        .collect::<Vec<_>>()
                })
                .collect();
            for a in &mut self.agents {
                a.received.iter_mut().for_each(|r| *r = 0.0);
            }
            for (v, u, amt) in sends {
                let slot = self.agents[u].slot_of(v);
                self.agents[u].received[slot] += amt;
            }
        }

        pub fn step(&mut self) {
            for a in &mut self.agents {
                a.respond();
            }
            self.deliver();
        }

        pub fn utilities(&self) -> Vec<f64> {
            self.agents.iter().map(|a| a.utility()).collect()
        }

        /// Append-only join: the newcomer takes slot `agents.len()`, starts
        /// with an even split and zero receipts; peer-side lanes start cold.
        pub fn join(&mut self, capacity: f64, peers: &[usize]) -> usize {
            let v = self.agents.len();
            let mut sorted = peers.to_vec();
            sorted.sort_unstable();
            for &u in &sorted {
                let p = self.agents[u].peers.partition_point(|&x| x < v);
                self.agents[u].peers.insert(p, v);
                self.agents[u].received.insert(p, 0.0);
                self.agents[u].outgoing.insert(p, 0.0);
            }
            self.agents
                .push(Agent::new(capacity, sorted, Strategy::Honest));
            self.prev_utilities.push(0.0);
            v
        }

        /// Mark-dead leave: the slot stays (utility 0), neighbors drop it.
        pub fn leave(&mut self, agent: usize) {
            let peers = self.agents[agent].peers.clone();
            for u in peers {
                let p = self.agents[u].slot_of(agent);
                self.agents[u].peers.remove(p);
                self.agents[u].received.remove(p);
                self.agents[u].outgoing.remove(p);
            }
            let a = &mut self.agents[agent];
            a.peers.clear();
            a.received.clear();
            a.outgoing.clear();
            a.capacity = 0.0;
            self.prev_utilities[agent] = 0.0;
        }

        /// Mirror a rewire outcome: drop one edge, add another cold.
        pub fn rewire(&mut self, agent: usize, dropped: usize, added: usize) {
            for (a, b) in [(agent, dropped), (dropped, agent)] {
                let p = self.agents[a].slot_of(b);
                self.agents[a].peers.remove(p);
                self.agents[a].received.remove(p);
                self.agents[a].outgoing.remove(p);
            }
            for (a, b) in [(agent, added), (added, agent)] {
                let p = self.agents[a].peers.partition_point(|&x| x < b);
                self.agents[a].peers.insert(p, b);
                self.agents[a].received.insert(p, 0.0);
                self.agents[a].outgoing.insert(p, 0.0);
            }
        }
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Step both engines `rounds` times, comparing utilities and every
/// agent's send lane bit-for-bit each round.
fn assert_lockstep(soa: &mut SoaSwarm, reference: &mut reference::RefSwarm, rounds: usize) {
    for round in 0..rounds {
        assert_eq!(
            bits(&soa.utilities()),
            bits(&reference.utilities()),
            "utilities diverged at round {round}"
        );
        for v in 0..soa.n_slots() {
            assert_eq!(
                bits(soa.outgoing_of(v)),
                bits(&reference.agents[v].outgoing),
                "agent {v} send lane diverged at round {round}"
            );
            assert_eq!(
                bits(soa.received_of(v)),
                bits(&reference.agents[v].received),
                "agent {v} receive lane diverged at round {round}"
            );
        }
        soa.step();
        reference.step();
    }
}

#[test]
fn honest_random_rings_are_bit_identical() {
    let mut rng = StdRng::seed_from_u64(2024);
    for n in [4usize, 9, 17, 33, 64] {
        let g = prs::graph::random::random_ring(&mut rng, n, 1, 12);
        let mut soa = SoaSwarm::new(&g);
        let mut reference = reference::RefSwarm::with_strategies(&g, |_| Strategy::Honest);
        assert_lockstep(&mut soa, &mut reference, 60);
    }
}

#[test]
fn strategy_mix_is_bit_identical() {
    let g = builders::ring(vec![int(4), int(2), int(6), int(3), int(5), int(1)]).unwrap();
    let strat = |v: usize| match v {
        0 => Strategy::Sybil { w1: 2.5, w2: 1.5 },
        2 => Strategy::Misreport { reported: 3.5 },
        _ => Strategy::Honest,
    };
    let mut soa = SoaSwarm::with_strategies(&g, strat);
    let mut reference = reference::RefSwarm::with_strategies(&g, strat);
    assert_lockstep(&mut soa, &mut reference, 120);
}

#[test]
fn shipped_instances_are_bit_identical() {
    for name in ["figure1", "five_ring", "lower_bound_k6", "star"] {
        let text = std::fs::read_to_string(format!("instances/{name}.prs")).unwrap();
        let g: Graph = parse_instance(&text).unwrap();
        assert!(
            g.n() <= 64,
            "{name} grew beyond the small-n equivalence tier"
        );
        let mut soa = SoaSwarm::new(&g);
        let mut reference = reference::RefSwarm::with_strategies(&g, |_| Strategy::Honest);
        assert_lockstep(&mut soa, &mut reference, 80);
    }
}

#[test]
fn facade_swarm_matches_soa_engine_exactly() {
    let g = builders::ring(vec![int(3), int(1), int(4), int(1), int(5)]).unwrap();
    let mut facade = Swarm::new(&g);
    let mut soa = SoaSwarm::new(&g);
    for _ in 0..50 {
        assert_eq!(bits(&facade.utilities()), bits(&soa.utilities()));
        facade.step();
        soa.step();
    }
}

#[test]
fn churn_script_replays_bit_identically() {
    // Joins precede leaves so the SoA free list stays empty and slot ids
    // match the reference's append-only numbering throughout.
    let g = builders::ring(vec![
        int(3),
        int(7),
        int(2),
        int(5),
        int(4),
        int(6),
        int(1),
        int(8),
    ])
    .unwrap();
    let mut soa = SoaSwarm::new(&g);
    let mut reference = reference::RefSwarm::with_strategies(&g, |_| Strategy::Honest);
    assert_lockstep(&mut soa, &mut reference, 5);

    // Two joins wired into opposite arcs of the ring.
    let j1 = soa
        .apply(&MembershipEvent::Join {
            capacity: 5.0,
            peers: vec![0, 3],
        })
        .unwrap();
    assert_eq!(j1, MembershipOutcome::Joined(8));
    assert_eq!(reference.join(5.0, &[0, 3]), 8);
    assert_lockstep(&mut soa, &mut reference, 4);

    let j2 = soa
        .apply(&MembershipEvent::Join {
            capacity: 2.0,
            peers: vec![8, 5],
        })
        .unwrap();
    assert_eq!(j2, MembershipOutcome::Joined(9));
    assert_eq!(reference.join(2.0, &[8, 5]), 9);
    assert_lockstep(&mut soa, &mut reference, 4);

    // A policy rewire on the SoA side, mirrored structurally on the
    // reference from the reported outcome.
    match soa.apply(&MembershipEvent::Rewire { agent: 8 }).unwrap() {
        MembershipOutcome::Rewired { dropped, added } => reference.rewire(8, dropped, added),
        MembershipOutcome::NoOp => {}
        other => panic!("unexpected rewire outcome {other:?}"),
    }
    assert_lockstep(&mut soa, &mut reference, 6);

    // Departures, including one of the newcomers.
    soa.apply(&MembershipEvent::Leave { agent: 2 }).unwrap();
    reference.leave(2);
    assert_lockstep(&mut soa, &mut reference, 4);

    soa.apply(&MembershipEvent::Leave { agent: 9 }).unwrap();
    reference.leave(9);
    assert_lockstep(&mut soa, &mut reference, 30);

    soa.check_invariants().unwrap();
}
