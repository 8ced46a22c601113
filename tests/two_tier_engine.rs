//! The production decomposition — the scaled-integer certifier, which runs
//! the exact Dinkelbach descent on the Hall network scaled to checked
//! `i128` words (BigInt on promotion) — must return **bit-identical**
//! results to the Rational-capacity oracle `decompose_exact` on every
//! input (see `prs_bd::decomposition` and DESIGN.md §3.1).
//!
//! These properties exercise the claim over the families the paper cares
//! about (rings), the general-graph extensions (stars, Erdős–Rényi), and
//! rational (non-integer) weights. The directed near-tie instance, whose
//! two candidate ratios differ by about one f64 ulp, lives in
//! `tests/near_tie_fallback.rs`.

use proptest::prelude::*;
use prs::bd::{decompose, decompose_exact};
use prs::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Both engines on `g`: same pairs, same α-ratios, same classes — or the
/// same refusal.
fn assert_engines_agree(g: &Graph) {
    match (decompose(g), decompose_exact(g)) {
        (Ok(two_tier), Ok(exact)) => {
            assert_eq!(
                two_tier.shape(),
                exact.shape(),
                "pair structure differs on weights {:?}",
                g.weights()
            );
            for (p, q) in two_tier.pairs().iter().zip(exact.pairs()) {
                assert_eq!(p.alpha, q.alpha, "α differs on weights {:?}", g.weights());
            }
            for v in 0..g.n() {
                assert_eq!(two_tier.class_of(v), exact.class_of(v));
                assert_eq!(two_tier.alpha_of(v), exact.alpha_of(v));
            }
        }
        (two_tier, exact) => {
            panic!(
                "engines disagree on decomposability: two-tier {:?}, exact {:?}",
                two_tier.map(|_| ()),
                exact.map(|_| ())
            );
        }
    }
}

fn ints(vals: &[i64]) -> Vec<Rational> {
    vals.iter().map(|&v| Rational::from_integer(v)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engines_agree_on_rings(weights in proptest::collection::vec(1i64..=40, 3..=12)) {
        let g = builders::ring(ints(&weights)).unwrap();
        assert_engines_agree(&g);
    }

    #[test]
    fn engines_agree_on_stars(weights in proptest::collection::vec(1i64..=25, 3..=10)) {
        let g = builders::star(ints(&weights)).unwrap();
        assert_engines_agree(&g);
    }

    #[test]
    fn engines_agree_on_erdos_renyi(seed in 0u64..100_000, n in 4usize..=10) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = prs::graph::random::random_connected(&mut rng, n, 0.4, 1, 20);
        assert_engines_agree(&g);
    }

    #[test]
    fn engines_agree_on_rational_weight_rings(
        nums in proptest::collection::vec(1i64..=30, 3..=8),
        dens in proptest::collection::vec(1i64..=7, 8),
    ) {
        let weights: Vec<Rational> = nums
            .iter()
            .zip(&dens)
            .map(|(&p, &q)| ratio(p, q))
            .collect();
        let g = builders::ring(weights).unwrap();
        assert_engines_agree(&g);
    }
}

/// The paper's own worked example (Fig. 1) plus the ζ → 2 lower-bound
/// family: instances with known decompositions, both engines exact on them.
#[test]
fn engines_agree_on_the_papers_instances() {
    assert_engines_agree(&builders::figure1_example());
    for k in [2u32, 4, 8, 12] {
        let g = prs::sybil::theorem8::lower_bound_ring(k);
        assert_engines_agree(&g);
    }
}

/// Scale separation is the classic way to stress a float prefilter: weights
/// spanning ten orders of magnitude within one ring.
#[test]
fn engines_agree_under_extreme_scale_separation() {
    let g = builders::ring(ints(&[1, 10_000_000_000, 1, 7, 3_000_000_000, 2])).unwrap();
    assert_engines_agree(&g);
    let g = builders::star(ints(&[9_999_999_999, 1, 1, 1, 10_000_000_001])).unwrap();
    assert_engines_agree(&g);
}
