//! Directed regressions for counterexamples pinned in the checked-in
//! `.proptest-regressions` files.
//!
//! The vendored proptest shim cannot replay upstream `cc <hash>` seeds
//! (different RNG), so every pinned counterexample is additionally encoded
//! here as a plain `#[test]` that exercises the exact failing instance
//! against every property of its original suite. Keep these in sync with
//! the regression files.

use prs::prelude::{
    classify_initial_path, decompose, ratio, AttackConfig, InitialPathCase, Rational,
};
use prs::RingInstance;

/// `tests/proptest_claims.proptest-regressions`:
/// `RingInstance { weights: [11, 6, 5], pairs: 1 }`.
///
/// Runs the whole claims suite on the pinned ring, for every choice of the
/// auxiliary proptest arguments (agent `v`, misreport fraction `k/8`).
#[test]
fn ring_11_6_5_satisfies_all_claims() {
    let ring = RingInstance::from_integers(&[11, 6, 5]).expect("valid ring");

    // prop3_invariants_hold
    ring.decomposition()
        .check_proposition3(ring.graph())
        .expect("Proposition 3 invariants");

    // prop6_utilities_realized_by_allocation
    let alloc = ring.allocation();
    alloc
        .check_budget_balance(ring.graph())
        .expect("budget balance");
    for v in 0..ring.n() {
        assert_eq!(
            alloc.utility(v),
            ring.equilibrium_utility(v),
            "utility of {v}"
        );
    }

    // utility_conservation
    let total: Rational = ring.equilibrium_utilities().iter().sum();
    assert_eq!(total, ring.graph().total_weight());

    for v in 0..ring.n() {
        // lemma9_honest_split_neutral
        let (honest, split) = prs::sybil::split::lemma9_check(ring.graph(), v);
        assert_eq!(honest, split, "Lemma 9 at v={v}");

        // theorem8_ratio_at_most_two
        let out = ring.sybil_attack(
            v,
            &AttackConfig::new()
                .with_grid(10)
                .with_zoom_levels(2)
                .with_keep(2),
        );
        assert!(out.ratio >= Rational::one(), "ζ_{v} = {} < 1", out.ratio);
        assert!(
            out.ratio <= Rational::from_integer(2),
            "ζ_{v} = {} > 2",
            out.ratio
        );

        // misreporting_is_dominated
        let honest_u = ring.equilibrium_utility(v);
        for k in 1i64..8 {
            let x = ring.graph().weight(v) * &ratio(k, 8);
            let g_x = ring.graph().with_weight(v, x);
            let bd = decompose(&g_x).unwrap();
            assert!(
                bd.utility(&g_x, v) <= honest_u,
                "misreport k={k}/8 at v={v} gained"
            );
        }

        // initial_path_cases_are_total
        let rep = classify_initial_path(ring.graph(), v)
            .expect("Lemmas 14/20: every initial path fits a published case");
        assert!(matches!(
            rep.case,
            InitialPathCase::C1 | InitialPathCase::C2 | InitialPathCase::C3 | InitialPathCase::D1
        ));
    }

    // dynamics_converge
    let report = ring.run_dynamics(1e-4, 400_000).unwrap();
    assert!(report.converged, "{report:?}");
}
