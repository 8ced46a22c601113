//! Directed regression: an α-ratio near-tie that only exact arithmetic
//! separates.
//!
//! The 6-ring below carries two competing bottleneck gadgets:
//!
//! * `B = {1}` with `α({1}) = (w₀+w₂)/w₁ = 1/3` exactly, and
//! * `B = {4}` with `α({4}) = (w₃+w₅)/w₄ = 3333333333333333/10⁶⁺¹⁰+1`,
//!   which is *smaller* than 1/3 by ≈ 2·10⁻¹⁶ relative — about one unit
//!   in the last place of an f64, the limit of float representation.
//!
//! The true maximal bottleneck is `{4}` alone. The production engine
//! decides every round with the exact Dinkelbach descent on the
//! scaled-integer network, starting from the alive set's own ratio; the
//! result must land on gadget B first, at its exact ratio, and be
//! bit-identical to the Rational-capacity oracle `decompose_exact`. See
//! docs/NUMERICS.md.

use prs::bd::{decompose, decompose_exact};
use prs::prelude::*;

fn near_tie_ring() -> Graph {
    let w = |x: i64| Rational::from_integer(x);
    builders::ring(vec![
        w(50_000_000_000_000),     // 0: gadget-A neighbor
        w(300_000_000_000_000),    // 1: gadget-A bottleneck, α = 1/3
        w(50_000_000_000_000),     // 2: gadget-A neighbor
        w(1_666_666_666_666_666),  // 3: gadget-B neighbor
        w(10_000_000_000_000_001), // 4: gadget-B bottleneck, α = 1/3 − ~2e-16
        w(1_666_666_666_666_667),  // 5: gadget-B neighbor
    ])
    .unwrap()
}

#[test]
fn near_tie_forces_the_exact_fallback_and_stays_bit_identical() {
    let g = near_tie_ring();
    let alpha_b = ratio(3_333_333_333_333_333, 10_000_000_000_000_001);
    assert!(alpha_b < ratio(1, 3), "gadget B must be the true optimum");

    let two_tier = decompose(&g).unwrap();

    // The descent must land on the exact answer: gadget B first, at its
    // exact (not float-rounded) ratio, bit-identical to the reference.
    let exact = decompose_exact(&g).unwrap();
    assert_eq!(two_tier.shape(), exact.shape());
    for (p, q) in two_tier.pairs().iter().zip(exact.pairs()) {
        assert_eq!(p.alpha, q.alpha);
    }
    assert_eq!(two_tier.pairs()[0].b.to_vec(), vec![4]);
    assert_eq!(two_tier.pairs()[0].alpha, alpha_b);
    assert_eq!(two_tier.pairs()[1].alpha, ratio(1, 3));
}

/// The mirrored tie (gadget order swapped around the ring) and the exact
/// tie (both gadgets at ratio exactly 1/3, which must merge into one pair's
/// maximal bottleneck) keep the engines aligned too.
#[test]
fn exact_tie_merges_into_one_maximal_bottleneck_in_both_engines() {
    let w = |x: i64| Rational::from_integer(x);
    let g = builders::ring(vec![
        w(50),
        w(300),
        w(50), // α({1}) = 1/3
        w(25),
        w(150),
        w(25), // α({4}) = 1/3 — an *exact* tie
    ])
    .unwrap();
    let two_tier = decompose(&g).unwrap();
    let exact = decompose_exact(&g).unwrap();
    assert_eq!(two_tier.shape(), exact.shape());
    // The maximal bottleneck at α* = 1/3 contains both gadgets at once.
    assert_eq!(two_tier.pairs()[0].alpha, ratio(1, 3));
    assert!(two_tier.pairs()[0].b.contains(1) && two_tier.pairs()[0].b.contains(4));
}
