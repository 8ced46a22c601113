//! Property tests for the Dinic kernel against an independent oracle —
//! run on **every** capacity backend.
//!
//! Random integral networks have integral max flows, so one oracle value
//! checks all three engines: the rational backend must match it exactly,
//! and the two scaled-integer backends exactly in `RATIO_SCALE` units. The
//! per-backend plumbing lives in `prs_flow::testkit`; this file owns only
//! the oracle and the random network strategy.

use proptest::prelude::*;
use prs_flow::testkit;
use prs_flow::{Cap, FlowNetwork};
use prs_numeric::{int, BigInt, Rational};

/// Simple f64 Ford–Fulkerson (BFS augmenting paths) as an independent
/// oracle. Integer capacities keep f64 exact enough to compare.
fn ford_fulkerson_f64(n: usize, edges: &[(usize, usize, f64)], s: usize, t: usize) -> f64 {
    let mut cap = vec![vec![0f64; n]; n];
    for &(u, v, c) in edges {
        cap[u][v] += c;
    }
    let mut flow = 0.0;
    loop {
        // BFS for an augmenting path.
        let mut parent = vec![usize::MAX; n];
        parent[s] = s;
        let mut queue = std::collections::VecDeque::from([s]);
        while let Some(u) = queue.pop_front() {
            for v in 0..n {
                if parent[v] == usize::MAX && cap[u][v] > 1e-12 {
                    parent[v] = u;
                    queue.push_back(v);
                }
            }
        }
        if parent[t] == usize::MAX {
            return flow;
        }
        // Bottleneck along the path.
        let mut bottleneck = f64::INFINITY;
        let mut v = t;
        while v != s {
            let u = parent[v];
            bottleneck = bottleneck.min(cap[u][v]);
            v = u;
        }
        let mut v = t;
        while v != s {
            let u = parent[v];
            cap[u][v] -= bottleneck;
            cap[v][u] += bottleneck;
            v = u;
        }
        flow += bottleneck;
    }
}

/// Oracle max-flow as an exact integer (integral capacities guarantee an
/// integral optimum, so the f64 oracle value rounds cleanly).
fn oracle_integral(n: usize, edges: &[(usize, usize, i64)], s: usize, t: usize) -> i64 {
    let f64_edges: Vec<(usize, usize, f64)> =
        edges.iter().map(|&(u, v, c)| (u, v, c as f64)).collect();
    let oracle = ford_fulkerson_f64(n, &f64_edges, s, t);
    let rounded = oracle.round();
    assert!(
        (oracle - rounded).abs() < 1e-6,
        "integral network produced non-integral oracle flow {oracle}"
    );
    rounded as i64
}

/// Strategy: a random DAG-ish network on `n` nodes with integer capacities.
fn arb_network() -> impl Strategy<Value = (usize, Vec<(usize, usize, i64)>)> {
    (4usize..9).prop_flat_map(|n| {
        let edge = (0..n, 0..n, 1i64..20);
        proptest::collection::vec(edge, 1..20).prop_map(move |edges| {
            (
                n,
                edges
                    .into_iter()
                    .filter(|&(u, v, _)| u != v)
                    .collect::<Vec<_>>(),
            )
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_engine_matches_ford_fulkerson((n, edges) in arb_network()) {
        prop_assume!(!edges.is_empty());
        let (s, t) = (0, n - 1);
        let expected = oracle_integral(n, &edges, s, t);
        testkit::assert_max_flow_integral::<Rational>(n, &edges, s, t, expected);
        testkit::assert_max_flow_integral::<BigInt>(n, &edges, s, t, expected);
        testkit::assert_max_flow_integral::<i128>(n, &edges, s, t, expected);
    }

    #[test]
    fn flow_value_equals_outflow((n, edges) in arb_network()) {
        prop_assume!(!edges.is_empty());
        let (s, t) = (0, n - 1);
        testkit::assert_outflow_equals_value::<Rational>(n, &edges, s, t);
        testkit::assert_outflow_equals_value::<BigInt>(n, &edges, s, t);
        testkit::assert_outflow_equals_value::<i128>(n, &edges, s, t);
    }

    #[test]
    fn min_cut_separates_and_matches_value((n, edges) in arb_network()) {
        prop_assume!(!edges.is_empty());
        let (s, t) = (0, n - 1);
        // Max-flow min-cut duality holds exactly per engine.
        testkit::assert_min_cut_matches::<Rational>(n, &edges, s, t);
        testkit::assert_min_cut_matches::<BigInt>(n, &edges, s, t);
        testkit::assert_min_cut_matches::<i128>(n, &edges, s, t);
    }

    #[test]
    fn rational_capacities_scale_exactly((n, edges) in arb_network(), denom in 1i64..50) {
        prop_assume!(!edges.is_empty());
        // Scaling all capacities by 1/denom scales the max flow by 1/denom
        // (exact-engine specific: the point is gcd-normalized arithmetic).
        let mut net1 = FlowNetwork::new(n);
        let mut net2 = FlowNetwork::new(n);
        for &(u, v, c) in &edges {
            net1.add_edge(u, v, Cap::Finite(int(c)));
            net2.add_edge(u, v, Cap::Finite(Rational::from_ratio(c, denom)));
        }
        let f1 = net1.max_flow(0, n - 1);
        let f2 = net2.max_flow(0, n - 1);
        prop_assert_eq!(&f1 / &int(denom), f2);
    }
}
