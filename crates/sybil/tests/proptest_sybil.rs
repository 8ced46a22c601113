//! Property tests for the Sybil machinery beyond the root-level claims
//! suite: structural invariants of the split construction, optimizer
//! dominance relations, and the stage-audit contract.

use proptest::prelude::*;
use prs_graph::builders;
use prs_numeric::{int, ratio, Rational};
use prs_sybil::{
    attack::{best_sybil_split, AttackConfig},
    classify_initial_path, honest_split,
    split::SybilSplitFamily,
    stages::audit_stages,
    InitialPathCase,
};

fn arb_ring_weights() -> impl Strategy<Value = Vec<i64>> {
    proptest::collection::vec(1i64..14, 3..8)
}

fn ring_of(weights: &[i64]) -> prs_graph::Graph {
    builders::ring(weights.iter().map(|&w| int(w)).collect()).unwrap()
}

fn quick() -> AttackConfig {
    AttackConfig::new()
        .with_grid(10)
        .with_zoom_levels(2)
        .with_keep(2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn split_payoff_invariant_under_path_reversal(
        weights in arb_ring_weights(),
        v_raw in 0usize..8,
        num in 0i64..=16,
    ) {
        // Reversing the split path is a relabeling, so the copies' total
        // payoff is invariant. (Note U(w1) ≠ U(w_v − w1) in general: the
        // walk starts at the *successor*, so swapping the endpoint weights
        // does NOT mirror the interior unless the ring is palindromic —
        // a subtlety this suite originally got wrong and proptest caught.)
        let g = ring_of(&weights);
        let v = v_raw % g.n();
        let fam = SybilSplitFamily::new(g.clone(), v);
        let w_v = g.weight(v).clone();
        let w1 = &w_v * &ratio(num, 16);
        let w2 = &w_v - &w1;
        let direct = fam.payoff(&w1).map(|(x, y)| &x + &y);

        // Build the reversed path by hand and decompose it.
        let (p, p1, p2) = fam.path_at(&w1, &w2);
        let n = p.n();
        let rev_weights: Vec<_> = (0..n).map(|i| p.weight(n - 1 - i).clone()).collect();
        let rev = builders::path(rev_weights).unwrap();
        let reversed = prs_bd::decompose(&rev).ok().map(|bd| {
            &bd.utility(&rev, n - 1 - p1) + &bd.utility(&rev, n - 1 - p2)
        });
        prop_assert_eq!(direct, reversed, "reversal changed the payoff on {:?} v={}", weights, v);
    }

    #[test]
    fn optimizer_dominates_honest_and_midpoint(weights in arb_ring_weights(), v_raw in 0usize..8) {
        let g = ring_of(&weights);
        let v = v_raw % g.n();
        let out = best_sybil_split(&g, v, &quick());
        // Dominates the honest split…
        let (w1h, _) = honest_split(&g, v);
        let fam = SybilSplitFamily::new(g.clone(), v);
        if let Some((a, b)) = fam.payoff(&w1h) {
            prop_assert!(out.best.total() >= &a + &b);
        }
        // …and the even split.
        let half = &g.weight(v).clone() / &int(2);
        if let Some((a, b)) = fam.payoff(&half) {
            prop_assert!(out.best.total() >= &a + &b);
        }
    }

    #[test]
    fn more_effort_never_hurts(weights in arb_ring_weights(), v_raw in 0usize..8) {
        let g = ring_of(&weights);
        let v = v_raw % g.n();
        let coarse = best_sybil_split(&g, v, &AttackConfig::new().with_grid(8).with_zoom_levels(1).with_keep(1));
        let fine = best_sybil_split(&g, v, &AttackConfig::new().with_grid(24).with_zoom_levels(3).with_keep(2));
        prop_assert!(
            fine.best.total() >= coarse.best.total(),
            "finer search lost ground on {:?} v={}", weights, v
        );
    }

    #[test]
    fn initial_case_matches_ring_class(weights in arb_ring_weights(), v_raw in 0usize..8) {
        let g = ring_of(&weights);
        let v = v_raw % g.n();
        let rep = classify_initial_path(&g, v);
        prop_assert!(rep.is_ok(), "{:?}", rep);
        let rep = rep.unwrap();
        match rep.ring_class {
            prs_bd::AgentClass::C => prop_assert!(matches!(
                rep.case,
                InitialPathCase::C1 | InitialPathCase::C2 | InitialPathCase::C3
            )),
            prs_bd::AgentClass::B => prop_assert!(matches!(rep.case, InitialPathCase::D1)),
            prs_bd::AgentClass::Both => unreachable!("folded into C"),
        }
        // The honest split always exhausts the budget.
        prop_assert_eq!(&rep.w1_0 + &rep.w2_0, g.weight(v).clone());
    }

    #[test]
    fn stage_audit_contract(weights in arb_ring_weights(), v_raw in 0usize..8) {
        let g = ring_of(&weights);
        let v = v_raw % g.n();
        let out = best_sybil_split(&g, v, &quick());
        let w2_star = g.weight(v) - &out.best.w1;
        if let Some(rep) = audit_stages(&g, v, &out.best.w1, &w2_star) {
            // Whatever the trajectory, every audited inequality must hold
            // and the corners must telescope to the endpoints.
            prop_assert!(rep.all_hold(), "checks {:?} on {:?}", rep.checks, weights);
            let total_delta = &(&rep.stage1.0 + &rep.stage1.1) + &(&rep.stage2.0 + &rep.stage2.1);
            let end_minus_start =
                &(&rep.fin.u1 + &rep.fin.u2) - &(&rep.initial.u1 + &rep.initial.u2);
            prop_assert_eq!(total_delta, end_minus_start);
        }
    }

    #[test]
    fn general_partition_count_sanity(k in 0usize..7) {
        // Bell numbers B_0..B_6 = 1,1,2,5,15,52,203.
        let bell = [1usize, 1, 2, 5, 15, 52, 203];
        let parts = prs_sybil::general::enumerate_partitions(k, 9);
        prop_assert_eq!(parts.len(), bell[k]);
        // Every partition is a valid restricted-growth string.
        for p in &parts {
            let mut max_seen = 0usize;
            for (i, &grp) in p.iter().enumerate() {
                prop_assert!(grp <= max_seen, "RGS violated at {i} in {p:?}");
                max_seen = max_seen.max(grp + 1);
            }
        }
    }
}

/// Directed replay of the counterexample pinned in
/// `proptest_sybil.proptest-regressions` (`weights = [1, 3, 1], v_raw = 2,
/// num = 0`): the degenerate split `w1 = 0` at the path-reversal property.
/// The vendored proptest shim cannot replay upstream `cc` seeds, so the
/// instance is kept alive here as a plain test.
#[test]
fn regression_1_3_1_reversal_at_zero_split() {
    let weights = [1i64, 3, 1];
    let g = ring_of(&weights);
    let v = 2usize;
    let fam = SybilSplitFamily::new(g.clone(), v);
    let w_v = g.weight(v).clone();
    let w1 = &w_v * &ratio(0, 16);
    let w2 = &w_v - &w1;
    let direct = fam.payoff(&w1).map(|(x, y)| &x + &y);

    let (p, p1, p2) = fam.path_at(&w1, &w2);
    let n = p.n();
    let rev_weights: Vec<_> = (0..n).map(|i| p.weight(n - 1 - i).clone()).collect();
    let rev = builders::path(rev_weights).unwrap();
    let reversed = prs_bd::decompose(&rev)
        .ok()
        .map(|bd| &bd.utility(&rev, n - 1 - p1) + &bd.utility(&rev, n - 1 - p2));
    assert_eq!(
        direct, reversed,
        "reversal changed the payoff on {weights:?} v={v}"
    );
}

#[test]
fn lower_bound_family_is_monotone_in_k() {
    let mut prev = Rational::zero();
    for k in [1u32, 3, 5, 7] {
        let g = prs_sybil::theorem8::lower_bound_ring(k);
        let out = best_sybil_split(
            &g,
            prs_sybil::theorem8::LOWER_BOUND_AGENT,
            &AttackConfig::new()
                .with_grid(32)
                .with_zoom_levels(4)
                .with_keep(2),
        );
        assert!(out.ratio > prev, "k={k}: {} ≤ {}", out.ratio, prev);
        prev = out.ratio;
    }
    assert!(prev <= Rational::from_integer(2));
}
