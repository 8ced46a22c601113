//! SoA engine vs the per-agent engine it replaced: bit-identical
//! trajectories.
//!
//! `mod reference` is a verbatim re-implementation of the pre-refactor
//! per-agent engine (per-agent lanes + the message-routing `deliver`),
//! extended with the naive append-only membership semantics the SoA engine
//! promises (cold joins, mark-dead leaves). Every comparison is on raw
//! `f64::to_bits` — not tolerances — so any reordering of floating-point
//! operations in the flat engine shows up immediately.

use prs::p2psim::{MembershipEvent, MembershipOutcome, SoaSwarm, Strategy, SwarmConfig};
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
fn round_zero_average_is_the_delivered_utility() {
    // Round 0 has no earlier round, so its cycle average is `U_v(0)`
    // itself, for every strategy mix.
    let g = builders::ring(vec![int(3), int(1), int(4), int(1), int(5)]).unwrap();
    let soa = SoaSwarm::with_strategies(&g, |v| match v {
        0 => Strategy::Sybil { w1: 1.0, w2: 2.0 },
        2 => Strategy::Misreport { reported: 2.5 },
        _ => Strategy::Honest,
    });
    assert_eq!(bits(&soa.averaged_utilities()), bits(&soa.utilities()));

    // A uniform ring starts at its fixed point: `run` settles after the
    // first round and `run_until_close` needs none.
    let g = builders::uniform_ring(6, int(2)).unwrap();
    let m = SoaSwarm::new(&g).run(&SwarmConfig::default());
    assert_eq!((m.converged, m.rounds), (true, 1));
    let rep = prs::dynamics::run_until_close(&mut SoaSwarm::new(&g), &[2.0; 6], 1e-12, 10);
    assert_eq!((rep.converged, rep.rounds), (true, 0));
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

#[test]
fn kernels_match_the_reference_at_every_degree() {
    // Agent 0, a centre with leaves 7 and 8, has degree 4, agent 2 degree
    // 3, agents 1 and 3–5 degree 2, and agents 6–8 degree 1. Agent 1 plays a
    // fixed (Sybil) split. Agents 4 and 6 have only zero-capacity peers, so
    // they keep the even split of a zero total.
    let text = "graph\nweights: 4 7 3 0 5 0 2 6 1\nedges: 0-1 1-2 0-2 2-3 3-4 4-5 5-6 0-7 0-8\n";
    let g: Graph = parse_instance(text).unwrap();
    let strat = |v: usize| match v {
        1 => Strategy::Sybil { w1: 2.5, w2: 4.5 },
        _ => Strategy::Honest,
    };
    let mut soa = SoaSwarm::with_strategies(&g, strat);
    let mut reference = reference::RefSwarm::with_strategies(&g, strat);
    assert_lockstep(&mut soa, &mut reference, 30);

    // A peer joined with three neighbours starts on the even split at
    // degree 3. Agent 5's departure leaves its slot at degree 0, and agent 6
    // alive at degree 0.
    let join = MembershipEvent::Join {
        capacity: 4.5,
        peers: vec![3, 4, 7],
    };
    assert_eq!(soa.apply(&join).unwrap(), MembershipOutcome::Joined(9));
    assert_eq!(reference.join(4.5, &[3, 4, 7]), 9);
    assert_lockstep(&mut soa, &mut reference, 20);
    soa.apply(&MembershipEvent::Leave { agent: 5 }).unwrap();
    reference.leave(5);
    assert_eq!(soa.degree(5) + soa.degree(6), 0);
    assert!(soa.is_alive(6));
    assert_lockstep(&mut soa, &mut reference, 30);
}

/// `SoaSwarm::run` against its stopping rule rebuilt from public calls: per
/// round, one sequential `f64::max` fold of `|before − after| / (1 + |after|)`
/// over the cycle averages taken around `step()`, each of which must pair
/// the round's utilities with the last round's. Run on clones of `s` at
/// tolerance 0, 1e-9 and a rebuilt delta that ties exactly.
fn assert_run_matches_sequential_fold(s: &SoaSwarm, max_rounds: usize) {
    let run_both = |tol: f64| {
        let mut slow = s.clone();
        let mut deltas = Vec::new();
        let mut before = slow.averaged_utilities();
        while deltas.last().is_none_or(|&d| d > tol) && deltas.len() < max_rounds {
            let last = slow.utilities();
            slow.step();
            let after = slow.averaged_utilities();
            for ((a, u), p) in after.iter().zip(slow.utilities()).zip(&last) {
                assert_eq!(a.to_bits(), (0.5 * (u + p)).to_bits(), "{}", slow.round());
            }
            deltas.push(
                before
                    .iter()
                    .zip(&after)
                    .map(|(b, a)| (b - a).abs() / (1.0 + a.abs()))
                    .fold(0.0, f64::max),
            );
            before = after;
        }
        let cfg = SwarmConfig {
            max_rounds,
            tol,
            record_trace: false,
        };
        let m = s.clone().run(&cfg);
        let converged = deltas.last().is_some_and(|&d| d <= tol);
        assert_eq!(
            (m.rounds, m.converged),
            (deltas.len(), converged),
            "tol {tol:e}"
        );
        assert_eq!(
            bits(&m.utilities),
            bits(&slow.averaged_utilities()),
            "tol {tol:e}"
        );
        deltas
    };
    let deltas = run_both(0.0);
    run_both(1e-9);
    // The last round whose delta is below every earlier one: with that delta
    // as the tolerance, the run must stop exactly there (`delta <= tol`).
    let tie = (0..deltas.len())
        .rfind(|&k| deltas[..k].iter().all(|&d| deltas[k] < d))
        .expect("round 1 always qualifies");
    assert_eq!(run_both(deltas[tie]).len(), tie + 1);
}

#[test]
fn run_matches_the_sequential_fold() {
    let mut rng = StdRng::seed_from_u64(2026);
    for n in [4usize, 9, 17, 33, 64, 100] {
        let g = prs::graph::random::random_ring(&mut rng, n, 1, 12);
        assert_run_matches_sequential_fold(&SoaSwarm::new(&g), 400);
    }
    let g = builders::ring([4, 2, 6, 3, 5, 1].map(int).to_vec()).unwrap();
    let s = SoaSwarm::with_strategies(&g, |v| match v {
        0 => Strategy::Sybil { w1: 2.5, w2: 1.5 },
        2 => Strategy::Misreport { reported: 3.5 },
        _ => Strategy::Honest,
    });
    assert_run_matches_sequential_fold(&s, 400);

    // After churn: a joined slot, a rewire and a departed slot.
    let g = prs::graph::random::random_ring(&mut rng, 11, 1, 9);
    let mut s = SoaSwarm::new(&g);
    let events = [
        MembershipEvent::Join {
            capacity: 5.0,
            peers: vec![0, 3, 7],
        },
        MembershipEvent::Rewire { agent: 11 },
        MembershipEvent::Leave { agent: 5 },
    ];
    for e in &events {
        s.step();
        s.apply(e).unwrap();
    }
    assert_run_matches_sequential_fold(&s, 400);
}
