//! The Sybil split-path family and the honest split (Lemma 9).

// prs-lint: allow-file(panic, reason = "split-family surface requires a validated positive-weight ring (asserted at every entry); under that precondition path construction cannot fail")

use crate::context::{decompose_at, SybilContext};
use prs_deviation::GraphFamily;
use prs_graph::{builders, Graph, VertexId};
use prs_numeric::Rational;

/// The one-parameter family `w₁ ↦ P_v(w₁, w_v − w₁)` of split paths for a
/// manipulative agent `v` on a ring.
///
/// Path vertex ids: `0 = v¹` (attached to `v`'s ring successor),
/// `1..n-1` the other agents in ring order, `n = v²` (attached to `v`'s
/// ring predecessor).
#[derive(Clone)]
pub struct SybilSplitFamily {
    ring: Graph,
    v: VertexId,
}

impl SybilSplitFamily {
    /// Family for agent `v` on `ring`. Panics if `ring` is not a ring.
    pub fn new(ring: Graph, v: VertexId) -> Self {
        assert!(ring.is_ring(), "Sybil split requires a ring");
        assert!(v < ring.n());
        SybilSplitFamily { ring, v }
    }

    /// The original ring.
    pub fn ring(&self) -> &Graph {
        &self.ring
    }

    /// The manipulative agent.
    pub fn agent(&self) -> VertexId {
        self.v
    }

    /// `w_v`, the total weight being split.
    pub fn total(&self) -> &Rational {
        self.ring.weight(self.v)
    }

    /// The split path at `(w₁, w₂)`, plus the path ids of `v¹` and `v²`.
    pub fn path_at(&self, w1: &Rational, w2: &Rational) -> (Graph, VertexId, VertexId) {
        builders::sybil_split_path(&self.ring, self.v, w1.clone(), w2.clone())
            .expect("valid split path")
    }

    /// Path id of `v¹`.
    pub fn v1(&self) -> VertexId {
        0
    }

    /// Path id of `v²`.
    pub fn v2(&self) -> VertexId {
        self.ring.n()
    }

    /// Total payoff `U_{v¹} + U_{v²}` of the split `(w₁, w_v − w₁)`, exact.
    /// `None` if the path decomposition is undefined there (degenerate
    /// boundary).
    pub fn payoff(&self, w1: &Rational) -> Option<(Rational, Rational)> {
        let mut session = prs_bd::DecompositionSession::detached();
        let (_, payoff) = decompose_at(&mut session, self, w1, &(self.total() - w1))?;
        Some(payoff)
    }
}

impl GraphFamily for SybilSplitFamily {
    fn graph_at(&self, w1: &Rational) -> Graph {
        let w2 = self.total() - w1;
        self.path_at(w1, &w2).0
    }

    fn domain(&self) -> (Rational, Rational) {
        (Rational::zero(), self.total().clone())
    }

    /// The focus vertex for sweeps is `v¹`.
    fn focus_vertex(&self) -> VertexId {
        0
    }

    /// `w_{v¹} = x` (slope +1) and `w_{v²} = w_v − x` (slope −1); interior
    /// agents are fixed.
    fn weight_slope(&self, u: VertexId) -> i64 {
        if u == self.v1() {
            1
        } else if u == self.v2() {
            -1
        } else {
            0
        }
    }
}

/// The honest split `(w₁⁰, w₂⁰)`: the amounts `v` sends to its ring
/// successor and predecessor under the ring's BD allocation.
///
/// By Lemma 9, splitting with exactly these weights leaves every agent's
/// utility unchanged.
pub fn honest_split(ring: &Graph, v: VertexId) -> (Rational, Rational) {
    SybilContext::of(ring, v).honest_split().clone()
}

/// Verify Lemma 9 exactly on one ring and agent: the honest split is
/// payoff-neutral, `U_{v¹}(w₁⁰, w₂⁰) + U_{v²}(w₁⁰, w₂⁰) = U_v`.
///
/// Returns `(U_v, split payoff)`.
pub fn lemma9_check(ring: &Graph, v: VertexId) -> (Rational, Rational) {
    SybilContext::of(ring, v).lemma9_check()
}

impl SybilContext {
    /// [`lemma9_check`] on this context's agent: `(U_v, split payoff)`.
    pub fn lemma9_check(&mut self) -> (Rational, Rational) {
        let (w1, w2) = self.honest_split().clone();
        let split_u = self.payoff_at(&w1, &w2).map(|(u1, u2)| &u1 + &u2);
        // An undecomposable honest split makes the claim vacuous.
        let honest_u = self.honest_utility().clone();
        (honest_u.clone(), split_u.unwrap_or(honest_u))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prs_bd::decompose;
    use prs_graph::random;
    use prs_numeric::{int, ratio};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn honest_split_sums_to_weight() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10 {
            let g = random::random_ring(&mut rng, 6, 1, 10);
            for v in 0..6 {
                let (w1, w2) = honest_split(&g, v);
                assert_eq!(&(&w1 + &w2), g.weight(v), "split must exhaust w_v");
                assert!(!w1.is_negative() && !w2.is_negative());
            }
        }
    }

    #[test]
    fn lemma9_exact_on_random_rings() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in [3usize, 4, 5, 6, 8] {
            for _ in 0..8 {
                let g = random::random_ring(&mut rng, n, 1, 12);
                for v in 0..n {
                    let (honest, split) = lemma9_check(&g, v);
                    assert_eq!(
                        honest,
                        split,
                        "Lemma 9 violated at v={v} on {:?}",
                        g.weights()
                    );
                }
            }
        }
    }

    #[test]
    fn lemma9_exact_on_rational_weights() {
        let g = builders_ring(vec![ratio(7, 3), ratio(1, 2), ratio(5, 4), ratio(2, 7)]);
        for v in 0..4 {
            let (honest, split) = lemma9_check(&g, v);
            assert_eq!(honest, split);
        }
    }

    fn builders_ring(w: Vec<prs_numeric::Rational>) -> Graph {
        prs_graph::builders::ring(w).unwrap()
    }

    #[test]
    fn family_payoff_matches_direct_computation() {
        let g = builders_ring(vec![int(4), int(2), int(3), int(5)]);
        let fam = SybilSplitFamily::new(g, 0);
        let w1 = ratio(3, 2);
        let (u1, u2) = fam.payoff(&w1).unwrap();
        let (p, v1, v2) = fam.path_at(&w1, &ratio(5, 2));
        let bd = decompose(&p).unwrap();
        assert_eq!(u1, bd.utility(&p, v1));
        assert_eq!(u2, bd.utility(&p, v2));
    }

    #[test]
    fn split_path_has_copies_as_leaves() {
        let g = builders_ring(vec![int(1), int(2), int(3)]);
        let fam = SybilSplitFamily::new(g, 2);
        let (p, v1, v2) = fam.path_at(&int(1), &int(2));
        assert_eq!(p.degree(v1), 1);
        assert_eq!(p.degree(v2), 1);
        assert!(p.is_path());
    }
}
