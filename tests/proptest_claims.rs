//! Property-based tests of the paper's claims over randomized rings.

use proptest::prelude::*;
#[allow(unused_imports)]
use prs::prelude::{
    classify_initial_path, decompose, ratio, AttackConfig, InitialPathCase, Rational,
};
use prs::RingInstance;

/// Strategy: a ring of 3..=7 agents with integer weights 1..=12.
fn arb_ring() -> impl Strategy<Value = RingInstance> {
    proptest::collection::vec(1i64..=12, 3..=7)
        .prop_map(|w| RingInstance::from_integers(&w).expect("valid ring"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop3_invariants_hold(ring in arb_ring()) {
        prop_assert!(ring.decomposition().check_proposition3(ring.graph()).is_ok());
    }

    #[test]
    fn prop6_utilities_realized_by_allocation(ring in arb_ring()) {
        let alloc = ring.allocation();
        prop_assert!(alloc.check_budget_balance(ring.graph()).is_ok());
        for v in 0..ring.n() {
            prop_assert_eq!(alloc.utility(v), ring.equilibrium_utility(v));
        }
    }

    #[test]
    fn utility_conservation(ring in arb_ring()) {
        let total: Rational = ring.equilibrium_utilities().iter().sum();
        prop_assert_eq!(total, ring.graph().total_weight());
    }

    #[test]
    fn lemma9_honest_split_neutral(ring in arb_ring(), v_raw in 0usize..7) {
        let v = v_raw % ring.n();
        let (honest, split) = prs::sybil::split::lemma9_check(ring.graph(), v);
        prop_assert_eq!(honest, split);
    }

    #[test]
    fn theorem8_ratio_at_most_two(ring in arb_ring(), v_raw in 0usize..7) {
        let v = v_raw % ring.n();
        let out = ring.sybil_attack(v, &AttackConfig::new().with_grid(10).with_zoom_levels(2).with_keep(2));
        prop_assert!(out.ratio >= Rational::one());
        prop_assert!(out.ratio <= Rational::from_integer(2),
            "ζ_{} = {} on {:?}", v, out.ratio, ring.graph().weights());
    }

    #[test]
    fn misreporting_is_dominated(ring in arb_ring(), v_raw in 0usize..7, k in 1i64..8) {
        let v = v_raw % ring.n();
        let honest = ring.equilibrium_utility(v);
        let x = &(ring.graph().weight(v) * &ratio(k, 8));
        let g_x = ring.graph().with_weight(v, x.clone());
        let bd = decompose(&g_x).unwrap();
        prop_assert!(bd.utility(&g_x, v) <= honest);
    }

    #[test]
    fn initial_path_cases_are_total(ring in arb_ring(), v_raw in 0usize..7) {
        // classify_initial_path checks the Lemma 14 / 20 structure and
        // returns a witness where it fails; an Ok report is the property.
        let v = v_raw % ring.n();
        let rep = classify_initial_path(ring.graph(), v);
        prop_assert!(rep.is_ok(), "{:?}", rep);
        let rep = rep.unwrap();
        prop_assert!(matches!(
            rep.case,
            InitialPathCase::C1 | InitialPathCase::C2 | InitialPathCase::C3 | InitialPathCase::D1
        ));
    }

    #[test]
    fn dynamics_converge(ring in arb_ring()) {
        // Wu–Zhang guarantee convergence but not a rate; near-degenerate
        // instances (e.g. α-ratios at or near 1) converge sublinearly, so
        // the property asserts a modest tolerance within a bounded horizon.
        let report = ring.run_dynamics(1e-4, 400_000).unwrap();
        prop_assert!(report.converged, "{:?} on {:?}", report, ring.graph().weights());
    }
}
