//! Snapshot of the public API surface.
//!
//! Every name the umbrella crate promises — at the root and in
//! `prs::prelude` — is imported here explicitly. Removing or renaming a
//! re-export breaks this file at compile time, turning silent surface
//! drift into a reviewable test failure. Additions are fine (add them
//! here when they are meant to be public).

// --- prs::prelude: the session-first working set ----------------------
#[rustfmt::skip]
use prs::prelude::{
    // High-level entry points.
    audit_paper_claims, PaperAudit, RingInstance, parse_instance, Error,
    // Decomposition engine, session-first.
    allocate, decompose, decompose_exact,
    AgentClass, Allocation, BdError, BottleneckDecomposition,
    DecompositionSession, SessionPool, SessionStats,
    // Delta mutation API (ISSUE 7).
    Delta, EdgeOp, UpdateOutcome,
    // Misreport sweeps.
    classify_prop11, sweep,
    AlphaSample, GraphFamily, MisreportFamily, Prop11Case, ShapeInterval,
    SweepConfig, SweepResult,
    // Dynamics: the exact engine and the convergence driver for SoaSwarm.
    ExactEngine, run_until_close,
    // Graph foundations.
    builders, Graph, GraphError, VertexId, VertexSet,
    // Numerics.
    int, ratio, BigInt, BigUint, Rational,
    // P2P simulation (struct-of-arrays core + membership, ISSUE 10).
    MembershipEvent, MembershipOutcome, SoaSwarm, Strategy, SwarmConfig,
    // Sybil attacks.
    best_sybil_split, check_ring_theorem8, classify_initial_path,
    honest_split, worst_case_search,
    AttackConfig, GeneralAttackConfig, InitialPathCase, SybilOutcome,
};

// --- prs:: root re-exports beyond the prelude -------------------------
#[rustfmt::skip]
use prs::{
    best_general_sybil, BottleneckPair,
    // Component-crate aliases (the long tail lives here).
    bd, deviation, dynamics, eg, flow, graph, numeric, p2psim, sybil, trace,
};

// Silence unused-import lints for the pure-type imports while keeping the
// compile-time check: mention everything once.
#[test]
fn surface_is_importable_and_coherent() {
    // Fn-item names must be function-typed.
    let _: fn(&str) -> Result<Graph, Error> = parse_instance;
    let _ = (
        audit_paper_claims,
        allocate,
        decompose,
        decompose_exact,
        classify_prop11,
        int,
        ratio,
        best_sybil_split,
        best_general_sybil,
        check_ring_theorem8,
        classify_initial_path,
        honest_split,
        worst_case_search,
        run_until_close,
    );
    let _ = sweep::<MisreportFamily>;

    // Type names must be type-typed (turbofish/`size_of` forces this).
    fn has_default<T: Default>() {}
    has_default::<SessionPool>();
    has_default::<SessionStats>();
    has_default::<DecompositionSession>();
    has_default::<SweepConfig>();
    has_default::<AttackConfig>();
    has_default::<GeneralAttackConfig>();
    let _ = std::mem::size_of::<(
        PaperAudit,
        RingInstance,
        Error,
        AgentClass,
        Allocation,
        BdError,
        BottleneckDecomposition,
        BottleneckPair,
        SessionPool,
        AlphaSample,
        Prop11Case,
        ShapeInterval,
        SweepResult,
        ExactEngine,
        Graph,
        GraphError,
        VertexId,
        VertexSet,
        BigInt,
        BigUint,
        Rational,
        Strategy,
        SwarmConfig,
        InitialPathCase,
        SybilOutcome,
    )>();
    let _ = std::mem::size_of::<SoaSwarm>();
    let _ = std::mem::size_of::<(MembershipEvent, MembershipOutcome)>();

    // GraphFamily stays a public trait.
    fn takes_family<F: GraphFamily>(_: &F) {}
    let _ = takes_family::<MisreportFamily>;

    // Module aliases resolve.
    let _: fn(&graph::Graph) -> Result<bd::BottleneckDecomposition, bd::BdError> = bd::decompose;
    // Every layer's counters are read by registered name through the
    // trace registry.
    type Counts = Vec<(&'static str, u64)>;
    let _: fn() -> Counts = trace::counter_values;
    let _: fn(&str) -> u64 = trace::counter_value;
    let _: fn(&[(&'static str, u64)]) -> Counts = trace::counters_since;

    // The unified flow kernel's vocabulary is reachable through the
    // umbrella: one generic `Network<C>`, the four backend aliases, and
    // the `Capacity`/`Cap`/`SeedArc` types.
    let _: fn(usize) -> flow::FlowNetwork = flow::Network::<numeric::Rational>::new;
    let _: fn(usize) -> flow::NetworkInt = flow::NetworkInt::new;
    let _: fn(usize) -> flow::NetworkI128 = flow::NetworkI128::new;
    let _ = std::mem::size_of::<flow::Cap>(); // defaults to the exact backend
    let _ = std::mem::size_of::<flow::CapInt>();
    let _ = std::mem::size_of::<flow::CapI128>();
    let _ = std::mem::size_of::<flow::SeedArc<numeric::BigInt>>();
    fn takes_capacity<C: flow::Capacity>() {}
    let _ = takes_capacity::<i128>;
    // The i128 tier's overflow handshake is public: callers bracket runs
    // with reset/detect and promote on a true answer.
    let _: fn() = flow::network_i128::reset_overflow;
    let _: fn() -> bool = flow::network_i128::overflow_detected;
    let _ = builders::ring;
    let _ = numeric::int;
    let _ = deviation::solve_breakpoint::<MisreportFamily>;
    let _ = deviation::pair_moebius::<MisreportFamily>;
    let _ = deviation::reference::bisect_breakpoint::<MisreportFamily>;
    let _ = std::mem::size_of::<(deviation::Breakpoint, deviation::Moebius)>();
    let _ = sybil::certified_best_split;
    let _ = std::mem::size_of::<(sybil::SybilContext, sybil::CaseViolation)>();
    let _: fn(&mut p2psim::SoaSwarm, &[f64], f64, usize) -> dynamics::ConvergenceReport =
        dynamics::run_until_close;
    let _ = std::mem::size_of::<eg::EgSolution>();
    let _ = std::mem::size_of::<p2psim::SwarmMetrics>();
}

// The prelude alone supports the swarm workflow: build the SoA engine
// from a graph, churn membership, run to convergence (ISSUE 10).
#[test]
fn prelude_alone_supports_the_swarm_workflow() {
    let g = builders::ring(vec![int(3), int(1), int(4), int(1), int(5)]).unwrap();
    let mut swarm = SoaSwarm::new(&g);
    let out: MembershipOutcome = swarm
        .apply(&MembershipEvent::Join {
            capacity: 2.5,
            peers: vec![0, 2],
        })
        .unwrap();
    assert_eq!(out, MembershipOutcome::Joined(5));
    let metrics = swarm.run(&SwarmConfig::default());
    assert!(metrics.converged);
    assert_eq!(swarm.live_agents(), 6);
}

// The session-first prelude must be enough to run the quickstart without
// touching component crates.
#[test]
fn prelude_alone_supports_the_session_workflow() {
    let mut session = DecompositionSession::detached();
    let g = builders::ring(vec![int(5), int(1), int(4), int(2)]).unwrap();
    let bd = session.decompose(&g).unwrap();
    assert_eq!(bd.utilities(&g).iter().sum::<Rational>(), g.total_weight());
    let s = session.stats();
    assert_eq!(s.hits + s.misses, bd.k() as u64);
}

// The delta mutation surface (ISSUE 7): `DecompositionSession::new` owns
// its instance, `apply` routes `Delta`s through the serving tiers, and the
// vocabulary is pinned in the prelude.
#[test]
fn prelude_alone_supports_the_delta_workflow() {
    let g = builders::ring(vec![int(5), int(1), int(4), int(2)]).unwrap();
    let mut session = DecompositionSession::new(g);
    let _: &BottleneckDecomposition = session.current().unwrap();
    let out: UpdateOutcome = session
        .apply(Delta::Batch(vec![
            Delta::SetWeight { v: 0, w: int(6) },
            Delta::AddEdge { u: 0, v: 2 },
            Delta::RemoveEdge { u: 0, v: 2 },
        ]))
        .unwrap();
    assert_ne!(out, UpdateOutcome::Unchanged);
    let _ = session.update_weight(1, int(2)).unwrap();
    let _ = session.update_edge(0, 2, EdgeOp::Add).unwrap();
    // The tier vocabulary is part of the surface.
    let _ = std::mem::size_of::<(Delta, UpdateOutcome, EdgeOp)>();
    match out {
        UpdateOutcome::Unchanged
        | UpdateOutcome::Recertified { rounds: _ }
        | UpdateOutcome::Recomputed => {}
    }
    // Detached sessions refuse the delta API with a dedicated error.
    let mut detached = DecompositionSession::detached();
    assert!(matches!(
        detached.apply(Delta::Batch(vec![])),
        Err(BdError::DetachedSession)
    ));
}
