//! Allocation guard for a warm certification round of the decomposition.
//!
//! A session that has seen a shape serves a nearby instance with one seeded
//! certification max-flow per round. On the checked-`i128` tier that round
//! keeps its round index's network (same alive set and adjacency, so only
//! the source and sink capacities are rewritten), computes its scaled
//! weights, capacities and seed requests in scratch buffers the session
//! keeps, and sizes the certificate it stores exactly, sharing the build's
//! topology, so the number of allocations it makes does not depend on the
//! ring size.
//! Counted with a global allocator that counts only the allocations of the
//! thread that asks.

#[path = "../../flow/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;
use prs_bd::DecompositionSession;
use prs_graph::builders;
use prs_numeric::{int, ratio, Rational};
use prs_trace::counter_value;

/// The most allocations one warm-hit round may make: the decomposition it
/// returns, the round's certificate and the sets of the round loop. An
/// unoptimized build adds the debug checks' own vectors.
const MAX_ALLOCATIONS: u64 = if cfg!(debug_assertions) { 15 } else { 12 };

/// Allocations of one `decompose` on a ring of `n` agents whose weights
/// alternate 2 and 5, with agent 0 at 23/10, after the session has seen
/// agent 0 at 2, 21/10 and 22/10.
fn warm_round_allocations(n: usize) -> u64 {
    let ring = |w0: Rational| {
        let w = (0..n)
            .map(|v| match v {
                0 => w0.clone(),
                _ if v % 2 == 0 => int(2),
                _ => int(5),
            })
            .collect();
        builders::ring(w).unwrap()
    };
    let mut session = DecompositionSession::detached();
    for w0 in [int(2), ratio(21, 10), ratio(22, 10)] {
        session.decompose(&ring(w0)).unwrap();
    }
    let g = ring(ratio(23, 10));
    let before = session.stats();
    let reuses = counter_value("bd.topology_reuses");
    let (bd, count) = allocations(|| session.decompose(&g));
    let after = session.stats();
    assert_eq!(
        counter_value("bd.topology_reuses") - reuses,
        1,
        "n = {n}: the round must keep its build"
    );
    assert_eq!(bd.unwrap().k(), 1, "n = {n}: one round");
    assert_eq!(
        (after.hits - before.hits, after.misses - before.misses),
        (1, 0),
        "n = {n}: the round must be a warm hit"
    );
    count
}

#[test]
fn warm_certification_round_allocations_do_not_grow_with_n() {
    let (_, n) = allocations(|| Vec::<u8>::with_capacity(1));
    assert_eq!(n, 1, "the counter must see this thread's allocations");
    let counts = [16, 64, 256].map(warm_round_allocations);
    assert!(
        counts.iter().all(|&c| c == counts[0]),
        "allocations grew with n = 16, 64, 256: {counts:?}"
    );
    assert!(
        counts[0] <= MAX_ALLOCATIONS,
        "a warm round made {} allocations (at most {MAX_ALLOCATIONS})",
        counts[0]
    );
}
