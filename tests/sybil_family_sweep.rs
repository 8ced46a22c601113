//! The deviation machinery applied to the *Sybil split family*: the same
//! sweep / Möbius / Prop-12 toolchain that analyzes misreports also
//! analyzes the two-endpoint family `P_v(w₁, w_v − w₁)` — this is exactly
//! how the paper's §III analysis composes, and these tests exercise that
//! composition end-to-end.

use prs::deviation::reference::bisect_breakpoint;
use prs::prelude::*;
use prs::sybil::SybilSplitFamily;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn split_family_sweep_intervals_cover_the_domain() {
    let mut rng = StdRng::seed_from_u64(7001);
    let g = prs::graph::random::random_ring(&mut rng, 6, 1, 10);
    let fam = SybilSplitFamily::new(g.clone(), 2);
    let res = sweep(&fam, &SweepConfig::new().with_grid(32).with_refine_bits(20));
    // Interval chain is ordered and spans (0, w_v) up to boundary skips.
    assert!(!res.intervals.is_empty());
    for w in res.intervals.windows(2) {
        assert!(w[0].hi <= w[1].lo);
    }
    let first = &res.intervals.first().unwrap().lo;
    let last = &res.intervals.last().unwrap().hi;
    assert!(first <= &(g.weight(2) * &ratio(1, 8)));
    assert!(last >= &(g.weight(2) * &ratio(7, 8)));
}

#[test]
fn split_family_moebius_models_verify() {
    let mut rng = StdRng::seed_from_u64(7002);
    for _ in 0..3 {
        let g = prs::graph::random::random_ring(&mut rng, 5, 1, 9);
        let fam = SybilSplitFamily::new(g.clone(), 0);
        let res = sweep(&fam, &SweepConfig::new().with_grid(24).with_refine_bits(18));
        for iv in &res.intervals {
            prs::deviation::moebius::verify_interval(iv, &res.samples)
                .unwrap_or_else(|e| panic!("{e} on {:?}", g.weights()));
        }
    }
}

#[test]
fn split_family_breakpoints_bracket_exact_solutions() {
    let g = prs::sybil::theorem8::lower_bound_ring(3);
    let fam = SybilSplitFamily::new(g, prs::sybil::theorem8::LOWER_BOUND_AGENT);
    let res = sweep(&fam, &SweepConfig::new().with_grid(48).with_refine_bits(24));
    let (lo, hi) = fam.domain();
    let cell = &(&hi - &lo) / &int(48);
    let at = |i: i64| &lo + &(&cell * &int(i));
    let mut solved = 0;
    for x in res.solved().iter().flatten() {
        let i = (0..48).find(|&i| *x <= at(i + 1)).unwrap();
        let (a, b) = bisect_breakpoint(&fam, &at(i), &at(i + 1), 40).unwrap();
        assert!(
            &a <= x && x <= &b,
            "breakpoint {x} escaped its reference bracket [{a}, {b}]"
        );
        solved += 1;
    }
    assert!(solved > 0, "no breakpoint solved");
}

#[test]
fn split_family_classes_follow_prop12_discipline() {
    // Class flips along the split parameter must obey the same discipline
    // as misreport sweeps: preserved, or through Both / an exact α = 1
    // junction.
    let mut rng = StdRng::seed_from_u64(7003);
    let g = prs::graph::random::random_ring(&mut rng, 6, 1, 12);
    let fam = SybilSplitFamily::new(g.clone(), 1);
    let res = sweep(&fam, &SweepConfig::new().with_grid(32).with_refine_bits(20));
    for e in prs::deviation::classify_events(&fam, &res) {
        assert!(
            e.focus_class_preserved,
            "class discipline violated: {e:?} on {:?}",
            g.weights()
        );
    }
}

#[test]
fn certified_optimizer_consistent_with_family_sweep() {
    // The certified optimizer's interval count must match a fresh sweep at
    // the same resolution (both derive from the same machinery).
    let mut rng = StdRng::seed_from_u64(7004);
    let g = prs::graph::random::random_ring(&mut rng, 5, 1, 10);
    let cert = prs::sybil::certified_best_split(&g, 0, 24, 25);
    let fam = SybilSplitFamily::new(g, 0);
    let res = sweep(&fam, &SweepConfig::new().with_grid(24).with_refine_bits(25));
    assert_eq!(cert.intervals, res.intervals.len());
    assert!(cert.ratio >= Rational::one());
}
