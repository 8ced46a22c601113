//! First-class mutations for a long-lived [`DecompositionSession`].
//!
//! A deployed sharing mechanism does not see cold instances; it sees a
//! stream of small mutations — one agent re-reports a weight, two peers
//! open or close a link. This module defines the mutation vocabulary
//! ([`Delta`]) and the tier report every mutation comes back with
//! ([`UpdateOutcome`]).
//!
//! The serving tiers (cheapest first; see `DESIGN.md` §3.3 for the
//! soundness argument of each):
//!
//! 1. **Unchanged** — **zero flow invocations**, and bookkeeping in the
//!    size of the delta, not of the instance: net no-op batches,
//!    idempotent edge operations, and insertions of an edge between two
//!    strictly C-class agents (which provably leave the whole
//!    decomposition — pairs, classes, and α values — untouched).
//! 2. **Recertified** — every other mutation runs the session's rounds
//!    with the current result's certificates at the front of its shape
//!    cache, and every round was settled by one of two means: a replay of a
//!    cached certificate, from this instance or an earlier one, or one
//!    first-try certification flow, seeded from a cached certifying flow.
//! 3. **Recomputed** — the session had no current result, or some round
//!    descended past its candidate or ran cold. Results are bit-identical
//!    to a cold [`decompose`](crate::decompose) in every tier, by
//!    construction.
//!
//! [`DecompositionSession`]: crate::DecompositionSession

use prs_graph::VertexId;
use prs_numeric::Rational;

/// One mutation of the session's owned instance.
///
/// Applied atomically by [`apply`](crate::DecompositionSession::apply):
/// either the whole delta commits (and the reported tier describes how the
/// new decomposition was obtained) or the session state is left exactly as
/// it was.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Delta {
    /// Replace the weight of vertex `v` with `w` (must be non-negative).
    SetWeight {
        /// The vertex whose weight changes.
        v: VertexId,
        /// The new weight.
        w: Rational,
    },
    /// Insert the undirected edge `(u, v)`. Inserting an edge that is
    /// already present is an idempotent no-op, not an error.
    AddEdge {
        /// One endpoint.
        u: VertexId,
        /// The other endpoint.
        v: VertexId,
    },
    /// Remove the undirected edge `(u, v)`. Removing an absent edge is an
    /// idempotent no-op, not an error.
    RemoveEdge {
        /// One endpoint.
        u: VertexId,
        /// The other endpoint.
        v: VertexId,
    },
    /// Apply several deltas as one atomic mutation: a single
    /// re-decomposition serves the coalesced result, and a batch whose net
    /// effect is the identity is answered `Unchanged`.
    Batch(Vec<Delta>),
}

impl Delta {
    /// The number of primitive (non-batch) mutations this delta contains.
    pub fn len(&self) -> usize {
        match self {
            Delta::Batch(items) => items.iter().map(Delta::len).sum(),
            _ => 1,
        }
    }

    /// True iff the delta contains no primitive mutation.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Direction of an [`update_edge`](crate::DecompositionSession::update_edge)
/// mutation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeOp {
    /// Insert the edge.
    Add,
    /// Remove the edge.
    Remove,
}

/// Which serving tier answered a [`Delta`] (module docs list the tiers).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateOutcome {
    /// The decomposition is provably identical to the previous one; no flow
    /// engine work was done.
    Unchanged,
    /// Every round was settled by a replay of a cached certificate (from
    /// this instance or an earlier one) or by one first-try certification
    /// flow. Going back to a cached instance replays every round and gives
    /// `Recertified { rounds: 0 }`.
    Recertified {
        /// Number of rounds settled by a certification flow.
        rounds: usize,
    },
    /// The session had no current result, or some round descended past its
    /// candidate (a crossed breakpoint) or ran cold (no usable candidate).
    Recomputed,
}

#[cfg(test)]
mod tests {
    use super::*;
    use prs_numeric::int;

    #[test]
    fn delta_len_flattens_batches() {
        let d = Delta::Batch(vec![
            Delta::SetWeight { v: 0, w: int(3) },
            Delta::Batch(vec![
                Delta::AddEdge { u: 1, v: 2 },
                Delta::RemoveEdge { u: 2, v: 3 },
            ]),
        ]);
        assert_eq!(d.len(), 3);
        assert!(!d.is_empty());
        assert!(Delta::Batch(vec![]).is_empty());
        assert_eq!(Delta::AddEdge { u: 0, v: 1 }.len(), 1);
    }
}
