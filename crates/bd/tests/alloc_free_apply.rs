//! Allocation guard for `apply` on a session's held instance.
//!
//! `apply` edits the held graph in place and logs each step in an undo log
//! the session keeps, so the cost of a delta follows the delta, not the
//! instance. Once warm, a delta that changes nothing — re-stating a weight,
//! re-adding a present edge, removing an absent one, or a batch that
//! cancels itself out — allocates nothing, and a delta served by one
//! first-try certification flow makes the same number of allocations
//! whatever the ring size.
//! Counted with a global allocator that counts only the allocations of the
//! thread that asks.

#[path = "../../flow/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;
use prs_bd::{DecompositionSession, Delta, UpdateOutcome};
use prs_graph::{builders, Graph};
use prs_numeric::{int, ratio, Rational};

/// A ring of `n` agents whose weights alternate 2 and 5, with agent 0 at
/// `w0`.
fn ring(n: usize, w0: Rational) -> Graph {
    let w = (0..n)
        .map(|v| match v {
            0 => w0.clone(),
            _ if v % 2 == 0 => int(2),
            _ => int(5),
        })
        .collect();
    builders::ring(w).unwrap()
}

/// Apply `delta` once to warm the session, then again under the counter;
/// the second application must answer `want`.
fn counted(session: &mut DecompositionSession, delta: Delta, want: UpdateOutcome) -> u64 {
    let again = delta.clone();
    assert_eq!(session.apply(delta), Ok(want), "{again:?}");
    let (out, count) = allocations(|| session.apply(again));
    assert_eq!(out, Ok(want));
    count
}

#[test]
fn deltas_that_change_nothing_allocate_nothing() {
    let (_, n) = allocations(|| Vec::<u8>::with_capacity(1));
    assert_eq!(n, 1, "the counter must see this thread's allocations");
    for n in [16, 64, 256] {
        let g = ring(n, int(2));
        let mut session = DecompositionSession::new(g.clone());
        session.current().unwrap();
        // Agent 0's chord to the far side of the ring.
        let far = n / 2;
        let deltas = [
            Delta::SetWeight { v: 1, w: int(5) },
            Delta::AddEdge { u: 0, v: 1 },
            Delta::RemoveEdge { u: 0, v: far },
            Delta::Batch(vec![
                Delta::AddEdge { u: 0, v: far },
                Delta::RemoveEdge { u: 0, v: far },
            ]),
        ];
        for delta in deltas {
            let count = counted(&mut session, delta.clone(), UpdateOutcome::Unchanged);
            assert_eq!(count, 0, "n = {n}: {delta:?} made {count} allocations");
        }
        assert_eq!(session.graph(), Some(&g), "n = {n}");
    }
}

#[test]
fn a_one_round_recertification_allocates_the_same_at_every_n() {
    let counts = [16, 64, 256].map(|n| {
        let mut session = DecompositionSession::new(ring(n, int(2)));
        session.current().unwrap();
        // Agent 0 moves inside its shape interval twice, so the counted
        // move, to a weight the session has not seen, finds every buffer
        // it uses already grown.
        for w0 in [ratio(21, 10), ratio(22, 10)] {
            session.update_weight(0, w0).unwrap();
        }
        let w0 = ratio(23, 10);
        let (out, count) = allocations(|| session.update_weight(0, w0));
        assert_eq!(out, Ok(UpdateOutcome::Recertified { rounds: 1 }), "n = {n}");
        assert_eq!(session.current().unwrap().k(), 1, "n = {n}: one round");
        count
    });
    assert!(
        counts.iter().all(|&c| c == counts[0]),
        "allocations grew with n = 16, 64, 256: {counts:?}"
    );
}
