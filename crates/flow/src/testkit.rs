//! Shared, engine-parameterized test suite for the Dinic kernel.
//!
//! One property set, three backends: every deterministic kernel test in
//! this module is generic over [`TestCapacity`], so the rational, BigInt
//! and checked-`i128` engines all run the *identical* cases (including
//! the long-path no-stack-overflow regression). Engine test modules
//! instantiate the whole suite with [`crate::engine_suite!`]; the proptest
//! harnesses reuse the building-block helpers ([`integral_network`],
//! [`assert_min_cut_matches`], …) to cross-check random networks against an
//! oracle per backend.
//!
//! The module is float-free by construction: ratios are described as
//! `num/den` pairs and each backend maps them into its own units — the
//! scaled-integer backends multiply through by [`RATIO_SCALE`] (an
//! lcm(1..=16), so every small test denominator clears exactly).

use crate::capacity::{Cap, Capacity};
use crate::kernel::{EdgeId, Network, NodeId, SeedArc};
use prs_numeric::{ratio, BigInt, Rational};

/// A [`Capacity`] backend that can represent the suite's small test
/// ratios.
pub trait TestCapacity: Capacity {
    /// Map `num/den` into this backend's capacity units. Test
    /// denominators always divide [`RATIO_SCALE`].
    fn from_ratio(num: i64, den: i64) -> Self;
}

/// Uniform scale (`lcm(1..=16) = 720720`) the big-integer backend
/// multiplies test ratios by. Uniform positive scaling preserves max
/// flows, min cuts, and residual reachability, so the scaled suite pins
/// the same structure as the rational one.
pub const RATIO_SCALE: i64 = 720_720;

impl TestCapacity for Rational {
    fn from_ratio(num: i64, den: i64) -> Self {
        ratio(num, den)
    }
}

impl TestCapacity for BigInt {
    fn from_ratio(num: i64, den: i64) -> Self {
        assert_eq!(
            RATIO_SCALE % den,
            0,
            "test denominator {den} must divide RATIO_SCALE"
        );
        BigInt::from(num * (RATIO_SCALE / den))
    }
}

impl TestCapacity for i128 {
    fn from_ratio(num: i64, den: i64) -> Self {
        assert_eq!(
            RATIO_SCALE % den,
            0,
            "test denominator {den} must divide RATIO_SCALE"
        );
        i128::from(num) * i128::from(RATIO_SCALE / den)
    }
}

/// `Cap::Finite(num/den)` in backend units.
pub fn fin<C: TestCapacity>(num: i64, den: i64) -> Cap<C> {
    Cap::Finite(C::from_ratio(num, den))
}

/// Assert a flow value equals `num/den` in backend units.
pub fn expect<C: TestCapacity>(actual: &C, num: i64, den: i64) {
    assert_eq!(actual, &C::from_ratio(num, den));
}

/// Build a network from `(from, to, integral capacity)` triples.
pub fn integral_network<C: TestCapacity>(n: usize, edges: &[(NodeId, NodeId, i64)]) -> Network<C> {
    let mut net = Network::new(n);
    for &(u, v, c) in edges {
        net.add_edge(u, v, fin::<C>(c, 1));
    }
    net
}

/// Build a network from explicit per-arc capacities (any backend — only
/// needs [`Capacity`], not [`TestCapacity`]).
pub fn network_from<C: Capacity>(n: usize, edges: &[(NodeId, NodeId, Cap<C>)]) -> Network<C> {
    let mut net = Network::new(n);
    for (u, v, c) in edges {
        net.add_edge(*u, *v, c.clone());
    }
    net
}

/// Residual-reachability oracle over explicit adjacency lists, independent
/// of the kernel's traversals. Lists every residual arc `a → b` of the
/// network built from `edges` (`(from, to, id)` per [`Network::add_edge`]
/// call) under `b` when `toward_root` (incoming lists: the nodes that
/// reach `root`, as [`Network::residual_reaches_sink`]) or under `a`
/// otherwise (the nodes `root` reaches, as
/// [`Network::min_cut_source_side`]), then walks the lists from `root`.
/// Residual headroom is read through [`Network::is_saturated`]: on `id`
/// for the forward arc, on its twin `id ^ 1` for the back arc.
pub fn oracle_reachable<C: Capacity>(
    net: &Network<C>,
    edges: &[(NodeId, NodeId, EdgeId)],
    root: NodeId,
    toward_root: bool,
) -> Vec<bool> {
    let mut lists: Vec<Vec<NodeId>> = vec![Vec::new(); net.n()];
    for &(u, v, id) in edges {
        for (a, b, arc) in [(u, v, id), (v, u, id ^ 1)] {
            if !net.is_saturated(arc) {
                if toward_root {
                    lists[b].push(a);
                } else {
                    lists[a].push(b);
                }
            }
        }
    }
    let mut seen = vec![false; net.n()];
    seen[root] = true;
    let mut stack = vec![root];
    while let Some(x) = stack.pop() {
        for &y in &lists[x] {
            if !seen[y] {
                seen[y] = true;
                stack.push(y);
            }
        }
    }
    seen
}

/// SplitMix64: the deterministic source of the suite's random networks
/// (the library carries no `rand` dependency).
struct SplitMix(u64);

impl SplitMix {
    /// A draw from `0..n`.
    fn below(&mut self, n: u8) -> u8 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        // The remainder is below `n ≤ 255`, so its low byte is all of it.
        ((z ^ (z >> 31)) % u64::from(n)).to_le_bytes()[0]
    }

    /// A capacity or request of `0..=4` in steps of 1/2 (exact in every
    /// backend).
    fn halves<C: TestCapacity>(&mut self) -> C {
        C::from_ratio(i64::from(self.below(9)), 2)
    }
}

/// Max-flow over integral capacities must equal `expected` (oracle value).
pub fn assert_max_flow_integral<C: TestCapacity>(
    n: usize,
    edges: &[(NodeId, NodeId, i64)],
    s: NodeId,
    t: NodeId,
    expected: i64,
) {
    let mut net = integral_network::<C>(n, edges);
    let flow = net.max_flow(s, t);
    expect::<C>(&flow, expected, 1);
    assert!(net.check_conservation(s, t));
    assert!(net.check_capacities());
}

/// Max-flow/min-cut duality on an integral network: the cut found by
/// residual reachability separates `s` from `t` and its forward capacity
/// equals the flow value.
pub fn assert_min_cut_matches<C: TestCapacity>(
    n: usize,
    edges: &[(NodeId, NodeId, i64)],
    s: NodeId,
    t: NodeId,
) {
    let mut net = integral_network::<C>(n, edges);
    let flow = net.max_flow(s, t);
    let side = net.min_cut_source_side(s);
    assert!(side[s], "source must sit on its own cut side");
    assert!(
        !side[t],
        "sink reachable in the residual graph after max-flow"
    );
    let mut cut = C::zero();
    for &(u, v, c) in edges {
        if side[u] && !side[v] {
            cut.add_assign_ref(&C::from_ratio(c, 1));
        }
    }
    assert_eq!(cut, flow);
}

/// The flow value equals the net outflow of the source (and the negated
/// net outflow of the sink).
pub fn assert_outflow_equals_value<C: TestCapacity>(
    n: usize,
    edges: &[(NodeId, NodeId, i64)],
    s: NodeId,
    t: NodeId,
) {
    let mut net = integral_network::<C>(n, edges);
    let flow = net.max_flow(s, t);
    assert_eq!(net.outflow(s), flow);
    let mut sink = net.outflow(t);
    sink.add_assign_ref(&flow);
    assert_eq!(sink, C::zero());
}

// ---------------------------------------------------------------------------
// Deterministic suite — one case per public fn; `engine_suite!` wraps each
// in a `#[test]` so every backend runs the identical set.
// ---------------------------------------------------------------------------

/// One fractional edge carries exactly its capacity, and the run moves the
/// engine's own three counters.
pub fn single_edge<C: TestCapacity>() {
    let counters = [
        (C::BFS_PHASES, "bfs_phases"),
        (C::AUGMENTING_PATHS, "augmenting_paths"),
        (C::MAX_FLOWS, "max_flows"),
    ];
    let before = counters.map(|(c, _)| c.get());
    let mut net = Network::<C>::new(2);
    net.add_edge(0, 1, fin::<C>(3, 2));
    expect::<C>(&net.max_flow(0, 1), 3, 2);
    for ((c, what), was) in counters.into_iter().zip(before) {
        assert_eq!(c.name(), format!("flow.{}_{what}", C::ENGINE));
        // Other tests only add to these process-global counters.
        assert!(c.get() > was, "{} did not move", c.name());
    }
}

/// Arcs in series bottleneck at the minimum capacity.
pub fn series_takes_minimum<C: TestCapacity>() {
    let mut net = Network::<C>::new(3);
    net.add_edge(0, 1, fin::<C>(5, 1));
    net.add_edge(1, 2, fin::<C>(2, 3));
    expect::<C>(&net.max_flow(0, 2), 2, 3);
    assert!(net.check_conservation(0, 2));
    assert!(net.check_capacities());
}

/// Parallel routes add up.
pub fn parallel_paths_sum<C: TestCapacity>() {
    let mut net = Network::<C>::new(4);
    net.add_edge(0, 1, fin::<C>(1, 3));
    net.add_edge(1, 3, fin::<C>(1, 1));
    net.add_edge(0, 2, fin::<C>(1, 6));
    net.add_edge(2, 3, fin::<C>(1, 1));
    expect::<C>(&net.max_flow(0, 3), 1, 2);
}

/// The textbook 4-node diamond where a naive greedy needs the residual
/// back edge to reach optimality.
pub fn classic_augmenting_through_back_edge<C: TestCapacity>() {
    let mut net = Network::<C>::new(4);
    net.add_edge(0, 1, fin::<C>(1, 1));
    net.add_edge(0, 2, fin::<C>(1, 1));
    net.add_edge(1, 2, fin::<C>(1, 1));
    net.add_edge(1, 3, fin::<C>(1, 1));
    net.add_edge(2, 3, fin::<C>(1, 1));
    expect::<C>(&net.max_flow(0, 3), 2, 1);
    assert!(net.check_conservation(0, 3));
}

/// `s → a (2), a → b (∞), b → t (1/2)`: bottleneck is the sink arc.
pub fn infinite_middle_edges<C: TestCapacity>() {
    let mut net = Network::<C>::new(4);
    net.add_edge(0, 1, fin::<C>(2, 1));
    net.add_edge(1, 2, Cap::Infinite);
    net.add_edge(2, 3, fin::<C>(1, 2));
    expect::<C>(&net.max_flow(0, 3), 1, 2);
}

/// Residual reachability stops exactly at the saturated bottleneck.
pub fn min_cut_identifies_bottleneck_side<C: TestCapacity>() {
    let mut net = Network::<C>::new(4);
    let _sa = net.add_edge(0, 1, fin::<C>(10, 1));
    let ab = net.add_edge(1, 2, fin::<C>(1, 1));
    let _bt = net.add_edge(2, 3, fin::<C>(10, 1));
    net.max_flow(0, 3);
    assert_eq!(net.min_cut_source_side(0), vec![true, true, false, false]);
    assert!(net.is_saturated(ab));
}

/// After saturating, only nodes on the t-side (or with spare capacity
/// towards t) can reach t.
pub fn residual_reaches_sink_basic<C: TestCapacity>() {
    let mut net = Network::<C>::new(4);
    net.add_edge(0, 1, fin::<C>(1, 1));
    net.add_edge(1, 2, fin::<C>(1, 1));
    net.add_edge(2, 3, fin::<C>(2, 1)); // spare capacity at the sink arc
    net.max_flow(0, 3);
    let reaches = net.residual_reaches_sink(3);
    assert!(reaches[3] && reaches[2]);
    assert!(!reaches[1] && !reaches[0]);
}

/// Left `{1,2}` weights 1 each; right `{3}` capacity 2: feasible, flow 2
/// saturates both source arcs.
pub fn bipartite_hall_feasibility<C: TestCapacity>() {
    let mut net = Network::<C>::new(5);
    net.add_edge(0, 1, fin::<C>(1, 1));
    net.add_edge(0, 2, fin::<C>(1, 1));
    net.add_edge(1, 3, Cap::Infinite);
    net.add_edge(2, 3, Cap::Infinite);
    net.add_edge(3, 4, fin::<C>(2, 1));
    expect::<C>(&net.max_flow(0, 4), 2, 1);
}

/// A zero-capacity arc can never carry flow.
pub fn zero_capacity_edges_carry_nothing<C: TestCapacity>() {
    let mut net = Network::<C>::new(3);
    net.add_edge(0, 1, fin::<C>(0, 1));
    net.add_edge(1, 2, fin::<C>(5, 1));
    expect::<C>(&net.max_flow(0, 2), 0, 1);
}

/// `reset_flow` restores a just-built state on the same topology.
pub fn reset_flow_allows_reuse<C: TestCapacity>() {
    let mut net = Network::<C>::new(2);
    let e = net.add_edge(0, 1, fin::<C>(1, 1));
    expect::<C>(&net.max_flow(0, 1), 1, 1);
    net.reset_flow();
    expect::<C>(net.flow_on(e), 0, 1);
    expect::<C>(&net.max_flow(0, 1), 1, 1);
}

/// `set_capacity` + `reset_flow` reparameterize without a rebuild.
pub fn set_capacity_reparameterizes_in_place<C: TestCapacity>() {
    let mut net = Network::<C>::new(3);
    let sa = net.add_edge(0, 1, fin::<C>(1, 1));
    net.add_edge(1, 2, fin::<C>(10, 1));
    expect::<C>(&net.max_flow(0, 2), 1, 1);
    net.set_capacity(sa, fin::<C>(7, 2));
    net.reset_flow();
    expect::<C>(&net.max_flow(0, 2), 7, 2);
}

/// `clear` rebuilds the topology while keeping the arena.
pub fn clear_rebuilds_in_place<C: TestCapacity>() {
    let mut net = Network::<C>::new(2);
    net.add_edge(0, 1, fin::<C>(1, 1));
    expect::<C>(&net.max_flow(0, 1), 1, 1);
    net.clear(3);
    assert_eq!(net.n(), 3);
    net.add_edge(0, 1, fin::<C>(2, 1));
    net.add_edge(1, 2, fin::<C>(3, 1));
    expect::<C>(&net.max_flow(0, 2), 2, 1);
    assert!(net.check_conservation(0, 2));
}

/// A seeded valid flow resumes to the same optimum and the same residual
/// structure as a cold run (the warm-start contract).
pub fn preset_flow_resumes_to_the_same_optimum<C: TestCapacity>() {
    // Hall-type: two left nodes (caps 2, 3) share one right node (cap 4).
    let build = |net: &mut Network<C>| {
        let a = net.add_edge(0, 1, fin::<C>(2, 1));
        let b = net.add_edge(0, 2, fin::<C>(3, 1));
        let m1 = net.add_edge(1, 3, Cap::Infinite);
        let m2 = net.add_edge(2, 3, Cap::Infinite);
        let s = net.add_edge(3, 4, fin::<C>(4, 1));
        (a, b, m1, m2, s)
    };
    let mut cold = Network::<C>::new(5);
    build(&mut cold);
    let cold_val = cold.max_flow(0, 4);

    let mut warm = Network::<C>::new(5);
    let (a, b, m1, m2, s) = build(&mut warm);
    // Seed a valid partial flow: 2 via node 1, 1 via node 2.
    let seeded = warm.seed_flow(&[
        SeedArc {
            source_edge: a,
            mid_edge: m1,
            sink_edge: s,
            desired: C::from_ratio(2, 1),
        },
        SeedArc {
            source_edge: b,
            mid_edge: m2,
            sink_edge: s,
            desired: C::from_ratio(1, 1),
        },
    ]);
    assert_eq!(seeded, C::from_ratio(3, 1));
    assert!(warm.check_capacities() && warm.check_conservation(0, 4));
    let extra = warm.max_flow(0, 4);
    let mut resumed = seeded;
    resumed.add_assign_ref(&extra);
    assert_eq!(resumed, cold_val);
    // Same residual tight-set structure as the cold run.
    assert_eq!(warm.residual_reaches_sink(4), cold.residual_reaches_sink(4));
}

/// `seed_flow` clamps over-eager seeds to remaining capacity and installs
/// a valid flow the solver only has to complete.
pub fn seed_flow_installs_largest_valid_seed<C: TestCapacity>() {
    let mut net = Network::<C>::new(5);
    let a = net.add_edge(0, 1, fin::<C>(2, 1));
    let b = net.add_edge(0, 2, fin::<C>(3, 1));
    let m1 = net.add_edge(1, 3, Cap::Infinite);
    let m2 = net.add_edge(2, 3, Cap::Infinite);
    let s = net.add_edge(3, 4, fin::<C>(4, 1));
    // Both requests exceed every bound; the kernel clamps the first to its
    // source supply (2) and the second to the remaining sink room (2).
    let seeds = [
        SeedArc {
            source_edge: a,
            mid_edge: m1,
            sink_edge: s,
            desired: C::from_ratio(5, 1),
        },
        SeedArc {
            source_edge: b,
            mid_edge: m2,
            sink_edge: s,
            desired: C::from_ratio(5, 1),
        },
    ];
    let seeded = net.seed_flow(&seeds);
    expect::<C>(&seeded, 4, 1);
    assert!(net.check_capacities());
    assert!(net.check_conservation(0, 4));
    // The seed already is the optimum here: max_flow finds nothing more.
    expect::<C>(&net.max_flow(0, 4), 0, 1);
}

/// Two requests on one route accumulate on all three of its arcs: with
/// capacities 10, requests 3 then 2 install 5 on the source, middle and
/// sink arc alike, a valid flow that `max_flow` completes to the cold
/// optimum with the cold residual structure.
pub fn seed_flow_repeated_routes_conserve<C: TestCapacity>() {
    let build = |net: &mut Network<C>| {
        let src = net.add_edge(0, 1, fin::<C>(10, 1));
        let mid = net.add_edge(1, 2, fin::<C>(10, 1));
        let snk = net.add_edge(2, 3, fin::<C>(10, 1));
        (src, mid, snk)
    };
    let mut cold = Network::<C>::new(4);
    build(&mut cold);
    let cold_val = cold.max_flow(0, 3);

    let mut warm = Network::<C>::new(4);
    let (src, mid, snk) = build(&mut warm);
    let route = |desired: i64| SeedArc {
        source_edge: src,
        mid_edge: mid,
        sink_edge: snk,
        desired: C::from_ratio(desired, 1),
    };
    let seeded = warm.seed_flow(&[route(3), route(2)]);
    expect::<C>(&seeded, 5, 1);
    for e in [src, mid, snk] {
        expect::<C>(warm.flow_on(e), 5, 1);
    }
    assert!(warm.check_capacities());
    assert!(warm.check_conservation(0, 3));
    let mut total = seeded;
    total.add_assign_ref(&warm.max_flow(0, 3));
    assert_eq!(total, cold_val);
    assert_eq!(warm.residual_reaches_sink(3), cold.residual_reaches_sink(3));
    assert_eq!(warm.min_cut_source_side(0), cold.min_cut_source_side(0));
}

/// Random Hall-type three-layer networks (source → left → right → sink,
/// middle arcs mostly infinite, zero capacities included): after a cold
/// `max_flow`, and after `seed_flow` (repeated routes included) plus
/// `max_flow`, `residual_reaches_sink` and `min_cut_source_side` equal
/// [`oracle_reachable`]; the seeded run reaches the cold optimum with the
/// same sets, which are independent of the maximum flow found.
pub fn reachability_matches_incoming_list_oracle<C: TestCapacity>() {
    let (s, t) = (0, 1);
    let mut rng = SplitMix(0x5EED_F10A);
    for _ in 0..64 {
        let left = 1 + usize::from(rng.below(6));
        let right = 1 + usize::from(rng.below(6));
        let mut spec: Vec<(NodeId, NodeId, Cap<C>)> = Vec::new();
        for i in 0..left {
            spec.push((s, 2 + i, Cap::Finite(rng.halves())));
        }
        for j in 0..right {
            spec.push((2 + left + j, t, Cap::Finite(rng.halves())));
        }
        let mut routes = Vec::new();
        for i in 0..left {
            for j in 0..right {
                if rng.below(3) == 0 {
                    let cap = match rng.below(4) {
                        0 => Cap::Finite(rng.halves()),
                        _ => Cap::Infinite,
                    };
                    routes.push((i, left + j, spec.len()));
                    spec.push((2 + i, 2 + left + j, cap));
                }
            }
        }
        let build = || {
            let mut net = Network::<C>::new(2 + left + right);
            let edges: Vec<(NodeId, NodeId, EdgeId)> = spec
                .iter()
                .map(|(u, v, c)| (*u, *v, net.add_edge(*u, *v, c.clone())))
                .collect();
            (net, edges)
        };
        let check = |net: &mut Network<C>, edges: &[(NodeId, NodeId, EdgeId)]| {
            let reaches = net.residual_reaches_sink(t).to_vec();
            let side = net.min_cut_source_side(s).to_vec();
            assert_eq!(reaches, oracle_reachable(net, edges, t, true));
            assert_eq!(side, oracle_reachable(net, edges, s, false));
            (reaches, side)
        };

        let (mut cold, edges) = build();
        let cold_val = cold.max_flow(s, t);
        let cold_sets = check(&mut cold, &edges);

        let (mut warm, edges) = build();
        // Zero, one or two requests per route: repeated routes included.
        let mut seeds = Vec::new();
        for &(i, j, m) in &routes {
            for _ in 0..rng.below(3) {
                seeds.push(SeedArc {
                    source_edge: edges[i].2,
                    mid_edge: edges[m].2,
                    sink_edge: edges[j].2,
                    desired: rng.halves(),
                });
            }
        }
        let mut total = warm.seed_flow(&seeds);
        assert!(warm.check_capacities());
        assert!(warm.check_conservation(s, t));
        total.add_assign_ref(&warm.max_flow(s, t));
        assert_eq!(total, cold_val);
        assert_eq!(check(&mut warm, &edges), cold_sets);
    }
}

/// 50 001 nodes in series: one augmenting path of length 50 000. A
/// recursive DFS would blow the thread stack here; the explicit stack
/// must not — on *any* backend.
pub fn long_path_augments_without_stack_overflow<C: TestCapacity>() {
    let n = 50_001;
    let mut net = Network::<C>::new(n);
    for v in 0..n - 1 {
        net.add_edge(v, v + 1, fin::<C>(1, 2));
    }
    expect::<C>(&net.max_flow(0, n - 1), 1, 2);
    assert!(net.check_conservation(0, n - 1));
    assert!(net.check_capacities());
}

/// `a → s → b`: one unit passes *through* s, so the net outflow of s is
/// zero even though s has a saturated outgoing arc.
pub fn outflow_is_net_with_edge_into_source<C: TestCapacity>() {
    let mut net = Network::<C>::new(3);
    let (a, s, b) = (0, 1, 2);
    net.add_edge(a, s, fin::<C>(1, 1));
    net.add_edge(s, b, fin::<C>(1, 1));
    expect::<C>(&net.max_flow(a, b), 1, 1);
    expect::<C>(&net.outflow(a), 1, 1);
    expect::<C>(&net.outflow(s), 0, 1);
    expect::<C>(&net.outflow(b), -1, 1);
}

/// Edges into the run source exist but carry nothing; `outflow(s)` must
/// still equal the flow value.
pub fn outflow_counts_incoming_at_the_run_source<C: TestCapacity>() {
    let mut net = Network::<C>::new(3);
    net.add_edge(2, 0, fin::<C>(5, 1)); // into the source
    net.add_edge(0, 1, fin::<C>(2, 1));
    net.add_edge(1, 2, fin::<C>(3, 1));
    expect::<C>(&net.max_flow(0, 2), 2, 1);
    expect::<C>(&net.outflow(0), 2, 1);
}

/// 3×3 grid from corner to corner, unit capacities: max flow = 2.
pub fn larger_grid_network<C: TestCapacity>() {
    let idx = |r: usize, c: usize| r * 3 + c;
    let mut net = Network::<C>::new(9);
    for r in 0..3 {
        for c in 0..3 {
            if c + 1 < 3 {
                net.add_edge(idx(r, c), idx(r, c + 1), fin::<C>(1, 1));
            }
            if r + 1 < 3 {
                net.add_edge(idx(r, c), idx(r + 1, c), fin::<C>(1, 1));
            }
        }
    }
    expect::<C>(&net.max_flow(idx(0, 0), idx(2, 2)), 2, 1);
    assert!(net.check_conservation(idx(0, 0), idx(2, 2)));
    assert!(net.check_capacities());
}

/// Instantiate the full deterministic kernel suite for one backend: one
/// `#[test]` per [`crate::testkit`] case. Invoke inside a dedicated
/// `mod`, once per engine.
#[macro_export]
macro_rules! engine_suite {
    ($C:ty) => {
        #[test]
        fn single_edge() {
            $crate::testkit::single_edge::<$C>();
        }
        #[test]
        fn series_takes_minimum() {
            $crate::testkit::series_takes_minimum::<$C>();
        }
        #[test]
        fn parallel_paths_sum() {
            $crate::testkit::parallel_paths_sum::<$C>();
        }
        #[test]
        fn classic_augmenting_through_back_edge() {
            $crate::testkit::classic_augmenting_through_back_edge::<$C>();
        }
        #[test]
        fn infinite_middle_edges() {
            $crate::testkit::infinite_middle_edges::<$C>();
        }
        #[test]
        fn min_cut_identifies_bottleneck_side() {
            $crate::testkit::min_cut_identifies_bottleneck_side::<$C>();
        }
        #[test]
        fn residual_reaches_sink_basic() {
            $crate::testkit::residual_reaches_sink_basic::<$C>();
        }
        #[test]
        fn bipartite_hall_feasibility() {
            $crate::testkit::bipartite_hall_feasibility::<$C>();
        }
        #[test]
        fn zero_capacity_edges_carry_nothing() {
            $crate::testkit::zero_capacity_edges_carry_nothing::<$C>();
        }
        #[test]
        fn reset_flow_allows_reuse() {
            $crate::testkit::reset_flow_allows_reuse::<$C>();
        }
        #[test]
        fn set_capacity_reparameterizes_in_place() {
            $crate::testkit::set_capacity_reparameterizes_in_place::<$C>();
        }
        #[test]
        fn clear_rebuilds_in_place() {
            $crate::testkit::clear_rebuilds_in_place::<$C>();
        }
        #[test]
        fn preset_flow_resumes_to_the_same_optimum() {
            $crate::testkit::preset_flow_resumes_to_the_same_optimum::<$C>();
        }
        #[test]
        fn seed_flow_installs_largest_valid_seed() {
            $crate::testkit::seed_flow_installs_largest_valid_seed::<$C>();
        }
        #[test]
        fn seed_flow_repeated_routes_conserve() {
            $crate::testkit::seed_flow_repeated_routes_conserve::<$C>();
        }
        #[test]
        fn reachability_matches_incoming_list_oracle() {
            $crate::testkit::reachability_matches_incoming_list_oracle::<$C>();
        }
        #[test]
        fn long_path_augments_without_stack_overflow() {
            $crate::testkit::long_path_augments_without_stack_overflow::<$C>();
        }
        #[test]
        fn outflow_is_net_with_edge_into_source() {
            $crate::testkit::outflow_is_net_with_edge_into_source::<$C>();
        }
        #[test]
        fn outflow_counts_incoming_at_the_run_source() {
            $crate::testkit::outflow_counts_incoming_at_the_run_source::<$C>();
        }
        #[test]
        fn larger_grid_network() {
            $crate::testkit::larger_grid_network::<$C>();
        }
    };
}

#[cfg(test)]
mod tests {
    mod exact_engine {
        crate::engine_suite!(prs_numeric::Rational);
    }
    mod int_engine {
        crate::engine_suite!(prs_numeric::BigInt);
    }
    mod i128_engine {
        crate::engine_suite!(i128);
    }
}
