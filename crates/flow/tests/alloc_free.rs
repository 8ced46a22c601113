//! Allocation guard for the Dinic kernel's certification round trip.
//!
//! Once a network is warm, its BFS queue, DFS path, levels and arc cursors
//! are scratch buffers it keeps, and `seed_flow` adds in place, so neither
//! a capacity-only re-run (`reset_flow` + `max_flow`) nor a rebuild round
//! (`clear` + `add_edge`s + `seed_flow` + `max_flow`) may allocate; the two
//! cut queries mark nodes in scratch the network keeps and walk them on
//! its queue, so neither allocates either. Checked on the checked-`i128`
//! certification tier with a counting global allocator that counts only
//! the allocations of the thread that asks.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;
use prs_flow::testkit::{fin, TestCapacity};
use prs_flow::{Cap, Network, NodeId, SeedArc};

const AGENTS: usize = 31;
const NODES: usize = 2 + 2 * AGENTS;
const S: NodeId = 0;
const T: NodeId = 1;

/// (Re)build the Hall network of a 31-agent ring in place — `s → v_L`
/// (`w_v`), `v_L → u_R` (∞) for both ring neighbours `u`, `u_R → t`
/// (`3·w_u/4`) — and write one seed request per middle arc, plus a repeat
/// on every third, into `seeds` (cleared, so its storage is reused).
fn build<C: TestCapacity>(net: &mut Network<C>, seeds: &mut Vec<SeedArc<C>>) {
    let weight = |v: usize| 1 + (7 * v % 11) as i64;
    let (left, right) = (|v: usize| 2 + v, |v: usize| 2 + AGENTS + v);
    net.clear(NODES);
    seeds.clear();
    let sources: [usize; AGENTS] =
        std::array::from_fn(|v| net.add_edge(S, left(v), fin::<C>(weight(v), 1)));
    let sinks: [usize; AGENTS] =
        std::array::from_fn(|u| net.add_edge(right(u), T, fin::<C>(3 * weight(u), 4)));
    for (v, &source_edge) in sources.iter().enumerate() {
        for u in [(v + AGENTS - 1) % AGENTS, (v + 1) % AGENTS] {
            let mid = net.add_edge(left(v), right(u), Cap::Infinite);
            let route = SeedArc {
                source_edge,
                mid_edge: mid,
                sink_edge: sinks[u],
                desired: C::from_ratio(weight(v), 4),
            };
            if v % 3 == 0 {
                seeds.push(SeedArc {
                    desired: C::from_ratio(1, 2),
                    ..route
                });
            }
            seeds.push(route);
        }
    }
}

/// Warm a network with one cold and one seeded round and one call of each
/// cut query, then count.
fn certification_round_trip<C: TestCapacity>() {
    let mut net = Network::<C>::new(NODES);
    let mut seeds = Vec::new();
    build(&mut net, &mut seeds);
    net.max_flow(S, T);
    build(&mut net, &mut seeds);
    net.seed_flow(&seeds);
    net.max_flow(S, T);
    net.residual_reaches_sink(T);
    net.min_cut_source_side(S);

    let (cold, n) = allocations(|| {
        net.reset_flow();
        net.max_flow(S, T)
    });
    assert_eq!(n, 0, "{}: reset_flow + max_flow allocated", C::ENGINE);

    let (warm, n) = allocations(|| {
        build(&mut net, &mut seeds);
        let mut total = net.seed_flow(&seeds);
        total.add_assign_ref(&net.max_flow(S, T));
        total
    });
    assert_eq!(
        n,
        0,
        "{}: clear + rebuild + seed_flow + max_flow allocated",
        C::ENGINE
    );
    assert_eq!(warm, cold);
    assert!(net.check_capacities() && net.check_conservation(S, T));

    let ((at_t, at_s), n) = allocations(|| {
        let reaches = net.residual_reaches_sink(T);
        (reaches[T], reaches[S])
    });
    assert_eq!(n, 0, "{}: residual_reaches_sink allocated", C::ENGINE);
    assert!(at_t && !at_s);
    let ((at_s, at_t), n) = allocations(|| {
        let side = net.min_cut_source_side(S);
        (side[S], side[T])
    });
    assert_eq!(n, 0, "{}: min_cut_source_side allocated", C::ENGINE);
    assert!(at_s && !at_t);
}

#[test]
fn warm_certification_rounds_allocate_nothing() {
    let (_, n) = allocations(|| Vec::<u8>::with_capacity(1));
    assert_eq!(n, 1, "the counter must see this thread's allocations");
    certification_round_trip::<i128>();
}
