//! Pins the exact flow work of two fixed session workloads.
//!
//! How the engine keeps its networks, seeds its flows, ranks its candidates
//! and snapshots its certificates is bookkeeping: it must not change which
//! max-flows run. Every Dinkelbach iteration, augmenting path, promotion,
//! session hit and delta tier below is an exact count, the same in debug
//! and release builds; a change to the bookkeeping leaves them equal, and a
//! change to the flow work re-records them. The `prs_flow::stats` counters
//! are process-global, so this file holds exactly one test and drives one
//! session directly, with no fan-out whose counts would depend on the
//! worker count.
//!
//! Only the network-storage counters (`networks_built`, `networks_reused`
//! and the topology reuses) are left out: they say how the networks were
//! stored, not what was computed on them.

use prs::flow::stats::{self, FlowStats};
use prs::prelude::*;

fn load(name: &str) -> Graph {
    let path = format!("{}/instances/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).expect("shipped instance exists");
    parse_instance(&text).expect("shipped instance parses")
}

/// The counters this test pins, by name.
fn pinned(s: &FlowStats) -> Vec<(&'static str, u64)> {
    vec![
        ("dinkelbach_iterations", s.dinkelbach_iterations),
        ("i128_max_flows", s.i128_max_flows),
        ("i128_augmenting_paths", s.i128_augmenting_paths),
        ("int_max_flows", s.int_max_flows),
        ("int_augmenting_paths", s.int_augmenting_paths),
        ("exact_max_flows", s.exact_max_flows),
        ("exact_augmenting_paths", s.exact_augmenting_paths),
        ("i128_promotions", s.i128_promotions),
        ("session_hits", s.session_hits),
        ("session_misses", s.session_misses),
        ("session_warm_starts", s.session_warm_starts),
        ("delta_unchanged", s.delta_unchanged),
        ("delta_recertified", s.delta_recertified),
        ("delta_recomputed", s.delta_recomputed),
    ]
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
    let before = stats::snapshot();
    let mut detached = DecompositionSession::detached();
    misreport_grids(&mut detached);
    let grids = stats::snapshot().since(&before);

    let mut rng = Lcg(2020);
    let weights = (0..16).map(|_| int(1 + rng.next(40) as i64)).collect();
    let mut owned = DecompositionSession::new(builders::ring(weights).unwrap());
    owned.current().unwrap();
    let mid = stats::snapshot();
    churn_script(&mut owned, &mut rng);
    let churn = stats::snapshot().since(&mid);

    let want_grids: [(&str, u64); 14] = [
        ("dinkelbach_iterations", 414),
        ("i128_max_flows", 414),
        ("i128_augmenting_paths", 556),
        ("int_max_flows", 0),
        ("int_augmenting_paths", 0),
        ("exact_max_flows", 0),
        ("exact_augmenting_paths", 0),
        ("i128_promotions", 0),
        ("session_hits", 481),
        ("session_misses", 14),
        ("session_warm_starts", 487),
        ("delta_unchanged", 0),
        ("delta_recertified", 0),
        ("delta_recomputed", 0),
    ];
    let want_churn: [(&str, u64); 14] = [
        ("dinkelbach_iterations", 469),
        ("i128_max_flows", 466),
        ("i128_augmenting_paths", 3299),
        ("int_max_flows", 3),
        ("int_augmenting_paths", 43),
        ("exact_max_flows", 0),
        ("exact_augmenting_paths", 0),
        ("i128_promotions", 1),
        ("session_hits", 377),
        ("session_misses", 73),
        ("session_warm_starts", 405),
        ("delta_unchanged", 19),
        ("delta_recertified", 242),
        ("delta_recomputed", 39),
    ];
    assert_eq!(pinned(&grids), want_grids, "misreport grids");
    assert_eq!(pinned(&churn), want_churn, "churn script");
}
