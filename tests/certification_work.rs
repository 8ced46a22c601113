//! Pins the exact flow work of two fixed session workloads.
//!
//! How the engine keeps its networks, seeds its flows, ranks its candidates
//! and snapshots its certificates is bookkeeping: it must not change which
//! max-flows run. Every Dinkelbach iteration, augmenting path, promotion,
//! session hit and delta tier below is an exact count, the same in debug
//! and release builds; a change to the bookkeeping leaves them equal, and a
//! change to the flow work re-records them. The counters are read by their
//! registered names and are process-global, so this file holds exactly one
//! test and drives one session directly, with no fan-out whose counts would
//! depend on the worker count.
//!
//! Only the network-storage counters (`flow.networks_built`,
//! `flow.networks_reused` and `bd.topology_reuses`) are left out: they say
//! how the networks were stored, not what was computed on them.

use prs::prelude::*;
use prs::trace::{counter_values, counters_since};

fn load(name: &str) -> Graph {
    let path = format!("{}/instances/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).expect("shipped instance exists");
    parse_instance(&text).expect("shipped instance parses")
}

/// How far each counter named in `want` moved, as listed by
/// `counters_since` (a counter that did not move reads 0).
fn pinned(moved: &[(&str, u64)], want: &[(&'static str, u64)]) -> Vec<(&'static str, u64)> {
    let count = |name| moved.iter().find(|(n, _)| *n == name).map_or(0, |e| e.1);
    want.iter().map(|&(name, _)| (name, count(name))).collect()
}

/// Fail unless every name is a registered counter: a misspelt name would
/// read 0 and pass as a pinned 0.
fn assert_registered(want: &[(&str, u64)]) {
    let path = format!("{}/docs/trace-registry.txt", env!("CARGO_MANIFEST_DIR"));
    let registry = std::fs::read_to_string(&path).expect("the trace registry exists");
    for (name, _) in want {
        let entry = format!("counter {name}");
        assert!(
            registry.lines().any(|l| l == entry),
            "{name} is not registered"
        );
    }
}

/// Workload 1: one detached session decomposes every agent's misreport
/// grid `x = w_v·k/16`, `k = 1..=33`, on two shipped rings.
fn misreport_grids(session: &mut DecompositionSession) {
    for name in ["five_ring.prs", "lower_bound_k6.prs"] {
        let g = load(name);
        for v in 0..g.n() {
            for k in 1..=33 {
                let mut h = g.clone();
                h.try_set_weight(v, g.weight(v) * &ratio(k, 16)).unwrap();
                session.decompose(&h).unwrap();
            }
        }
    }
}

/// A fixed linear congruential stream, so the script does not depend on
/// any random-number crate.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self, bound: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % bound
    }
}

/// Workload 2: a session over an n = 16 ring serves 300 events of weight
/// re-reports and chord toggles. Event 100 scales agent 3's weight by
/// 2²⁰⁰ and event 101 scales it back, so a round promotes to BigInt.
fn churn_script(session: &mut DecompositionSession, rng: &mut Lcg) {
    const N: usize = 16;
    let scale = int(2).pow(200);
    for event in 0..300 {
        let g = session.graph().unwrap().clone();
        let delta = match event {
            100 => Delta::SetWeight {
                v: 3,
                w: g.weight(3) * &scale,
            },
            101 => Delta::SetWeight {
                v: 3,
                w: g.weight(3) / &scale,
            },
            _ if rng.next(3) == 0 => {
                // Toggle a chord between two agents that are not ring
                // neighbours.
                let u = rng.next(N as u64) as usize;
                let v = (u + 2 + rng.next(N as u64 - 3) as usize) % N;
                if g.has_edge(u, v) {
                    Delta::RemoveEdge { u, v }
                } else {
                    Delta::AddEdge { u, v }
                }
            }
            _ => {
                let v = rng.next(N as u64) as usize;
                let num = 1 + rng.next(40) as i64;
                let den = 1 + rng.next(3) as i64;
                Delta::SetWeight {
                    v,
                    w: ratio(num, den),
                }
            }
        };
        session.apply(delta).unwrap();
    }
}

#[test]
fn session_flow_work_is_pinned() {
    let before = counter_values();
    let mut detached = DecompositionSession::detached();
    misreport_grids(&mut detached);
    let grids = counters_since(&before);

    let mut rng = Lcg(2020);
    let weights = (0..16).map(|_| int(1 + rng.next(40) as i64)).collect();
    let mut owned = DecompositionSession::new(builders::ring(weights).unwrap());
    owned.current().unwrap();
    let mid = counter_values();
    churn_script(&mut owned, &mut rng);
    let churn = counters_since(&mid);

    let want_grids: [(&str, u64); 14] = [
        ("bd.dinkelbach_iterations", 413),
        ("flow.i128_max_flows", 413),
        ("flow.i128_augmenting_paths", 554),
        ("flow.int_max_flows", 0),
        ("flow.int_augmenting_paths", 0),
        ("flow.exact_max_flows", 0),
        ("flow.exact_augmenting_paths", 0),
        ("bd.i128_promotions", 0),
        ("bd.session_hits", 483),
        ("bd.session_misses", 12),
        ("bd.session_warm_starts", 489),
        ("bd.delta_unchanged", 0),
        ("bd.delta_recertified", 0),
        ("bd.delta_recomputed", 0),
    ];
    let want_churn: [(&str, u64); 14] = [
        ("bd.dinkelbach_iterations", 452),
        ("flow.i128_max_flows", 449),
        ("flow.i128_augmenting_paths", 3008),
        ("flow.int_max_flows", 3),
        ("flow.int_augmenting_paths", 43),
        ("flow.exact_max_flows", 0),
        ("flow.exact_augmenting_paths", 0),
        ("bd.i128_promotions", 1),
        ("bd.session_hits", 394),
        ("bd.session_misses", 56),
        ("bd.session_warm_starts", 426),
        ("bd.delta_unchanged", 19),
        ("bd.delta_recertified", 242),
        ("bd.delta_recomputed", 39),
    ];
    assert_registered(&want_grids);
    assert_registered(&want_churn);
    assert_eq!(pinned(&grids, &want_grids), want_grids, "misreport grids");
    assert_eq!(pinned(&churn, &want_churn), want_churn, "churn script");
}
