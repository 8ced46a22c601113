//! Extensions beyond the paper's attack model.
//!
//! Definition 7 forces the Sybil copies to carry the full weight
//! (`Σ w_{vⁱ} = w_v`). Two natural strengthenings of the attacker are
//! implemented here as *empirical* studies (experiments E17/E18):
//!
//! * **Withholding** ([`best_split_with_withholding`]): allow
//!   `w₁ + w₂ ≤ w_v`. Intuition from Theorem 10 (more reported weight never
//!   hurts) suggests withholding is useless; the optimizer confirms it
//!   instance-by-instance, which in turn means the Definition 7 constraint
//!   is *without loss of generality* for the attacker.
//! * **Collusion** ([`best_collusion`]): two ring agents Sybil-split
//!   simultaneously (the ring degenerates into two disjoint paths). The
//!   joint payoff over the pair's joint honest utility defines a coalition
//!   incentive ratio; empirically it also stays within 2.

use crate::context::{ring_decomposition, SybilContext};
use crate::general::split_graph;
use prs_bd::decompose;
use prs_graph::{Graph, VertexId};
use prs_numeric::Rational;

/// Outcome of the withholding study for one `(ring, v)`.
#[derive(Clone, Debug)]
pub struct WithholdingOutcome {
    /// Honest utility `U_v`.
    pub honest_utility: Rational,
    /// Best payoff with the Definition 7 constraint `w₁ + w₂ = w_v`.
    pub best_full: Rational,
    /// Best payoff over the relaxed set `w₁ + w₂ ≤ w_v`.
    pub best_relaxed: Rational,
    /// The relaxed optimizer's best `(w₁, w₂)`.
    pub best_pair: (Rational, Rational),
    /// `true` iff withholding strictly helped (never observed).
    pub withholding_helped: bool,
}

/// Optimize the Sybil split over the *relaxed* budget `w₁ + w₂ ≤ w_v`
/// (triangular grid of granularity `grid`), and compare against the
/// Definition 7 frontier `w₁ + w₂ = w_v`.
pub fn best_split_with_withholding(ring: &Graph, v: VertexId, grid: usize) -> WithholdingOutcome {
    let mut ctx = SybilContext::of(ring, v);
    let honest = ctx.honest_utility().clone();
    let w_v = ring.weight(v).clone();
    let unit = &w_v / &Rational::from_integer(grid as i64);

    let mut best_full = honest.clone(); // honest split lives on the frontier
    let mut best_relaxed = honest.clone();
    let mut best_pair = (w_v.clone(), Rational::zero());

    for i in 0..=grid {
        for j in 0..=(grid - i) {
            let w1 = &unit * &Rational::from_integer(i as i64);
            let w2 = &unit * &Rational::from_integer(j as i64);
            let Some((u1, u2)) = ctx.payoff_at(&w1, &w2) else {
                continue;
            };
            let total = &u1 + &u2;
            if i + j == grid && total > best_full {
                best_full = total.clone();
            }
            if total > best_relaxed {
                best_relaxed = total;
                best_pair = (w1, w2);
            }
        }
    }

    let withholding_helped = best_relaxed > best_full;
    WithholdingOutcome {
        honest_utility: honest,
        best_full,
        best_relaxed,
        best_pair,
        withholding_helped,
    }
}

/// Outcome of the collusion study for a pair of ring agents.
#[derive(Clone, Debug)]
pub struct CollusionOutcome {
    /// Joint honest utility `U_u + U_v`.
    pub honest_joint: Rational,
    /// Best joint payoff over both agents' simultaneous splits.
    pub best_joint: Rational,
    /// Coalition incentive ratio (joint payoff / joint honest utility).
    pub coalition_ratio: Rational,
    /// Best split weights `(u₁, v₁)` (the complements are forced).
    pub best_splits: (Rational, Rational),
}

/// Joint payoff when ring agents `u` and `v` split simultaneously with
/// first-copy weights `u1`, `v1` (full budgets, Definition 7 style).
/// `None` on degenerate decompositions.
pub fn collusion_payoff(
    ring: &Graph,
    u: VertexId,
    v: VertexId,
    u1: &Rational,
    v1: &Rational,
) -> Option<Rational> {
    assert!(u != v);
    let u2 = ring.weight(u) - u1;
    let v2 = ring.weight(v) - v1;
    // Split u first (neighbors split one each), then v on the result.
    // After the first split v keeps its id and still has its two original
    // neighbors, so the second split is well-defined.
    let (g1, u_copies) = split_graph(ring, u, &[0, 1], &[u1.clone(), u2]);
    let (g2, v_copies) = split_graph(&g1, v, &[0, 1], &[v1.clone(), v2]);
    let bd = decompose(&g2).ok()?;
    let u_total: Rational = u_copies.iter().map(|&c| bd.utility(&g2, c)).sum();
    let v_total: Rational = v_copies.iter().map(|&c| bd.utility(&g2, c)).sum();
    Some(&u_total + &v_total)
}

/// Grid-optimize a two-agent collusion on a ring.
pub fn best_collusion(ring: &Graph, u: VertexId, v: VertexId, grid: usize) -> CollusionOutcome {
    assert!(ring.is_ring());
    assert!(u != v);
    let bd = ring_decomposition(ring);
    let honest_joint = &bd.utility(ring, u) + &bd.utility(ring, v);

    let wu = ring.weight(u).clone();
    let wv = ring.weight(v).clone();
    let unit_u = &wu / &Rational::from_integer(grid as i64);
    let unit_v = &wv / &Rational::from_integer(grid as i64);

    let mut best_joint = honest_joint.clone();
    let mut best_splits = (wu.clone(), wv.clone());
    for i in 0..=grid {
        for j in 0..=grid {
            let u1 = &unit_u * &Rational::from_integer(i as i64);
            let v1 = &unit_v * &Rational::from_integer(j as i64);
            if let Some(total) = collusion_payoff(ring, u, v, &u1, &v1) {
                if total > best_joint {
                    best_joint = total;
                    best_splits = (u1, v1);
                }
            }
        }
    }
    let coalition_ratio = if honest_joint.is_positive() {
        (&best_joint / &honest_joint).max(Rational::one())
    } else {
        Rational::one()
    };
    CollusionOutcome {
        honest_joint,
        best_joint,
        coalition_ratio,
        best_splits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::theorem8::{lower_bound_ring, LOWER_BOUND_AGENT};
    use prs_graph::{builders, random};
    use prs_numeric::int;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn withholding_never_helps_on_random_rings() {
        let mut rng = StdRng::seed_from_u64(3141);
        for _ in 0..6 {
            let g = random::random_ring(&mut rng, 5, 1, 10);
            for v in 0..2 {
                let out = best_split_with_withholding(&g, v, 10);
                assert!(
                    !out.withholding_helped,
                    "withholding helped?! {:?} on {:?}",
                    out,
                    g.weights()
                );
                // Relaxed optimum is attained on the full-budget frontier.
                assert_eq!(out.best_relaxed, out.best_full);
            }
        }
    }

    #[test]
    fn withholding_never_helps_on_the_lower_bound_family() {
        let g = lower_bound_ring(5);
        let out = best_split_with_withholding(&g, LOWER_BOUND_AGENT, 12);
        assert!(!out.withholding_helped);
        assert!(out.best_full > &out.honest_utility * &prs_numeric::ratio(3, 2));
    }

    #[test]
    fn collusion_on_uniform_ring_gains_nothing() {
        let g = builders::uniform_ring(6, int(2)).unwrap();
        let out = best_collusion(&g, 0, 3, 8);
        assert_eq!(out.coalition_ratio, Rational::one());
    }

    #[test]
    fn collusion_ratio_bounded_by_two_empirically() {
        let mut rng = StdRng::seed_from_u64(2718);
        for _ in 0..4 {
            let g = random::random_ring(&mut rng, 5, 1, 10);
            let out = best_collusion(&g, 0, 2, 8);
            assert!(out.coalition_ratio >= Rational::one());
            assert!(
                out.coalition_ratio <= int(2),
                "coalition ratio {} on {:?}",
                out.coalition_ratio,
                g.weights()
            );
        }
    }

    #[test]
    fn collusion_payoff_matches_single_split_when_other_is_honest() {
        // If agent v uses its honest split, u's payoff landscape should
        // reproduce Lemma 9 at u's honest split too: the fully honest double
        // split is joint-utility-neutral.
        let g = builders::ring(vec![int(4), int(2), int(6), int(3), int(5)]).unwrap();
        let (u, v) = (0usize, 2usize);
        let (u1, _) = crate::split::honest_split(&g, u);
        // v's honest split on the *post-u-split* graph equals its honest
        // split on the ring only by Lemma 9-style neutrality; we check joint
        // neutrality directly.
        let (v1, _) = crate::split::honest_split(&g, v);
        let joint = collusion_payoff(&g, u, v, &u1, &v1).unwrap();
        let bd = decompose(&g).unwrap();
        let honest_joint = &bd.utility(&g, u) + &bd.utility(&g, v);
        assert_eq!(joint, honest_joint, "double honest split is neutral");
    }
}
