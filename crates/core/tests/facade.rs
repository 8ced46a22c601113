//! Facade-surface tests: everything a downstream user reaches through
//! `prs_core::prelude` works together without touching component crates.

use prs_core::prelude::*;
use prs_core::RingInstance;

#[test]
fn prelude_covers_the_full_workflow() {
    // Build.
    let ring = RingInstance::from_integers(&[6, 2, 4, 3, 5]).unwrap();

    // Decompose + classes.
    let bd = ring.decomposition();
    assert!(bd.k() >= 1);
    let _classes: Vec<AgentClass> = (0..ring.n()).map(|v| ring.class_of(v)).collect();

    // Allocate.
    let alloc: Allocation = ring.allocation();
    alloc.check_budget_balance(ring.graph()).unwrap();

    // Dynamics. (This instance's terminal pair has α = 1, where the
    // dynamics converge sublinearly — tolerance chosen accordingly.)
    let report = ring.run_dynamics(1e-5, 500_000).unwrap();
    assert!(report.converged);

    // Misreport analysis.
    let case: Prop11Case = ring.misreport_case(0, 20);
    let fam = MisreportFamily::new(ring.graph().clone(), 0);
    let res = sweep(&fam, &SweepConfig::default());
    assert!(!res.samples.is_empty());
    match case {
        Prop11Case::B1 | Prop11Case::B2 | Prop11Case::B3 { .. } => {}
    }

    // Sybil attack + case + audit.
    let attack: SybilOutcome = ring.sybil_attack(
        0,
        &AttackConfig::new()
            .with_grid(12)
            .with_zoom_levels(2)
            .with_keep(2),
    );
    assert!(attack.ratio <= Rational::from_integer(2));
    let case = classify_initial_path(ring.graph(), 0).expect("Lemmas 14/20 hold");
    assert!(matches!(
        case.case,
        InitialPathCase::C1 | InitialPathCase::C2 | InitialPathCase::C3 | InitialPathCase::D1
    ));

    // Swarm.
    let mut swarm = SoaSwarm::new(ring.graph());
    let metrics = swarm.run(&SwarmConfig::default());
    assert!(metrics.converged);

    // Full audit.
    let audit: PaperAudit = audit_paper_claims(
        &ring,
        &AttackConfig::new()
            .with_grid(10)
            .with_zoom_levels(2)
            .with_keep(2),
        8,
    );
    assert!(audit.all_hold(), "{audit:?}");
}

#[test]
fn component_crate_reexports_are_reachable() {
    // Spot-check the `prs_core::<crate>` aliases used in examples and docs.
    let g = prs_core::graph::builders::figure1_example();
    let bd = prs_core::bd::decompose(&g).unwrap();
    assert_eq!(bd.k(), 2);
    let _one = prs_core::numeric::Rational::one();
    let _cfg = prs_core::eg::EgConfig::default();
    let _ = prs_core::dynamics::run_until_close;
    let _ = prs_core::sybil::theorem8::lower_bound_ring(2);
    let _ = prs_core::deviation::SweepConfig::default();
    let _net = prs_core::flow::FlowNetwork::new(2);
    let _ = prs_core::p2psim::Strategy::Honest;
}

#[test]
fn ring_instance_debug_is_informative() {
    let ring = RingInstance::from_integers(&[1, 2, 3]).unwrap();
    let s = format!("{ring:?}");
    assert!(s.contains("weights"), "{s}");
    assert!(s.contains("pairs"), "{s}");
}

#[test]
fn honest_split_accessible_from_instance() {
    let ring = RingInstance::from_integers(&[5, 1, 4, 2]).unwrap();
    for v in 0..4 {
        let (w1, w2) = ring.honest_split(v);
        assert_eq!(&w1 + &w2, ring.graph().weight(v).clone());
    }
}
