//! The checked-i128 certification fast tier: routing and promotion.
//!
//! Every certification round — cold `decompose` and the session alike —
//! tries the `i128` engine before BigInt. Two things must hold:
//! small-weight instances run entirely on the fast tier (promotion count
//! exactly zero), and adversarial scale separation promotes — with results
//! bit-identical to the Rational oracle `decompose_exact` either way. A
//! word overflow that leaves every capacity inside `i128` must not promote.
//!
//! All phases live in a single `#[test]`: the promotion counter is
//! process-global, so a concurrently running promoting test would make a
//! "promotions == 0" window assertion flaky.

use prs_bd::{decompose, decompose_exact, DecompositionSession, SessionConfig};
use prs_flow::stats;
use prs_graph::{builders, Graph};
use prs_numeric::{int, ratio, Rational};

fn pow2(e: i32) -> Rational {
    Rational::from_integer(2).pow(e)
}

#[test]
fn fast_tier_serves_small_weights_and_promotes_adversarial_ones() {
    // Phase 1 — small weights: the warm certification must run on
    // the i128 engine (i128 max-flows move) and never promote.
    let before = stats::snapshot();
    let mut session = DecompositionSession::detached_with_config(SessionConfig::new());
    let g1 = builders::ring(vec![int(3), int(1), int(4), int(1), int(5)]).unwrap();
    let g2 = builders::ring(vec![int(4), int(1), int(4), int(1), int(5)]).unwrap();
    assert_eq!(session.decompose(&g1).unwrap(), decompose(&g1).unwrap());
    assert_eq!(session.decompose(&g2).unwrap(), decompose(&g2).unwrap());
    assert_eq!(decompose(&g1).unwrap(), decompose_exact(&g1).unwrap());
    assert_eq!(decompose(&g2).unwrap(), decompose_exact(&g2).unwrap());
    let delta = stats::snapshot().since(&before);
    assert!(
        delta.i128_max_flows > 0,
        "warm certification must land on the i128 fast tier: {delta:?}"
    );
    assert_eq!(
        delta.i128_promotions, 0,
        "small-weight instances must not promote: {delta:?}"
    );

    // Phase 2 — adversarial scale separation: weights 2^±200 make the
    // p·D-scaled capacities hundreds of bits wide, so the admission test
    // fails and the round promotes to BigInt. The decomposition is still
    // bit-identical to the Rational oracle.
    let before = stats::snapshot();
    let mut session = DecompositionSession::detached_with_config(SessionConfig::new());
    for j in 0..2i32 {
        let eps = pow2(-200 - j);
        let big = pow2(200 + j);
        let w = vec![eps.clone(), int(1), int(1), big, eps];
        let g = builders::ring(w).unwrap();
        assert_eq!(session.decompose(&g).unwrap(), decompose(&g).unwrap());
        assert_eq!(decompose(&g).unwrap(), decompose_exact(&g).unwrap());
    }
    let delta = stats::snapshot().since(&before);
    let s = session.stats();
    assert!(
        s.hits + s.warm_starts > 0,
        "family must exercise the warm path: {s:?}"
    );
    assert!(
        delta.i128_promotions > 0,
        "400-bit scale separation must promote to BigInt: {delta:?}"
    );

    // Phase 3 — cold `decompose` certifies on the same ladder, so the
    // family promotes without any session involved.
    let g = builders::ring(vec![pow2(-200), int(1), int(1), pow2(200), pow2(-200)]).unwrap();
    let before = stats::snapshot();
    assert_eq!(decompose(&g).unwrap(), decompose_exact(&g).unwrap());
    let delta = stats::snapshot().since(&before);
    assert!(
        delta.i128_promotions > 0,
        "cold decompose must promote the 2^±200 family too: {delta:?}"
    );

    // Phase 4 — a word overflow short of the promotion boundary: the
    // denominators d₁ = 2⁶⁶+1 and d₂ = 2⁶⁶+3 are coprime, so their lcm D
    // passes 2¹²⁸ and the word lcm overflows, yet every scaled capacity
    // w_v·D·p or w_v·D·q stays near 2⁶⁸. The build recomputes them in
    // BigInt and still certifies on the i128 tier.
    let d1 = &pow2(66) + &int(1);
    let d2 = &pow2(66) + &int(3);
    let w = vec![d1.recip(), &int(3) / &d1, d2.recip(), &int(3) / &d2];
    let g = Graph::new(w, &[(0, 1), (2, 3)]).unwrap();
    let before = stats::snapshot();
    let cold = decompose(&g).unwrap();
    let mut session = DecompositionSession::detached();
    assert_eq!(session.decompose(&g).unwrap(), cold);
    let delta = stats::snapshot().since(&before);
    assert_eq!(cold, decompose_exact(&g).unwrap());
    assert_eq!(
        cold.signature(),
        vec![(vec![1, 3], vec![0, 2], ratio(1, 3))]
    );
    assert_eq!(
        (
            delta.i128_promotions,
            delta.int_max_flows,
            delta.i128_max_flows
        ),
        (0, 0, 4),
        "a word overflow below the i128 boundary must not promote: {delta:?}"
    );
}
