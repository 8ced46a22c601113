//! Failure injection: the library must reject degenerate inputs with
//! typed errors rather than wrong answers.

use prs::prelude::*;

#[test]
fn graph_construction_rejections() {
    use prs::graph::GraphError;
    // Self-loop.
    assert!(matches!(
        Graph::new(vec![int(1), int(2)], &[(0, 0)]),
        Err(GraphError::SelfLoop { .. })
    ));
    // Duplicate edge (either orientation).
    assert!(matches!(
        Graph::new(vec![int(1), int(2)], &[(0, 1), (1, 0)]),
        Err(GraphError::DuplicateEdge { .. })
    ));
    // Out-of-range endpoint.
    assert!(matches!(
        Graph::new(vec![int(1)], &[(0, 3)]),
        Err(GraphError::VertexOutOfRange { .. })
    ));
    // Negative weight.
    assert!(matches!(
        Graph::new(vec![ratio(-1, 2)], &[]),
        Err(GraphError::NegativeWeight { .. })
    ));
    // Rings need ≥ 3 vertices.
    assert!(builders::ring(vec![int(1), int(2)]).is_err());
}

#[test]
fn decomposition_rejections() {
    use prs::bd::BdError;
    // Empty graph.
    let empty = Graph::new(vec![], &[]).unwrap();
    assert_eq!(decompose(&empty), Err(BdError::EmptyGraph));
    // Isolated positive-weight agent → α = 0.
    let isolated = Graph::new(vec![int(1), int(1), int(1)], &[(0, 1)]).unwrap();
    assert!(matches!(
        decompose(&isolated),
        Err(BdError::ZeroAlpha { .. })
    ));
    // All-zero weights → undefined α everywhere.
    let zeros = Graph::new(vec![int(0), int(0)], &[(0, 1)]).unwrap();
    assert!(matches!(
        decompose(&zeros),
        Err(BdError::ZeroWeightResidue { .. })
    ));
}

#[test]
fn degenerate_split_boundaries_are_graceful() {
    // w1 = 0 at a split is a legitimate boundary (Case C-2); the machinery
    // must handle it without panicking.
    let g = builders::ring(vec![int(4), int(2), int(3)]).unwrap();
    let fam = prs::sybil::split::SybilSplitFamily::new(g, 0);
    let payoff = fam.payoff(&Rational::zero());
    if let Some((u1, u2)) = payoff {
        assert_eq!(u1, Rational::zero(), "weightless identity earns nothing");
        assert!(u2.is_positive());
    }
}

#[test]
fn zero_weight_agent_on_ring_is_supported() {
    // A ring agent reporting 0 keeps the instance decomposable (its
    // neighbors still have each other).
    let g = builders::ring(vec![int(0), int(2), int(3), int(4)]).unwrap();
    let bd = decompose(&g).unwrap();
    assert_eq!(bd.utility(&g, 0), Rational::zero());
    let alloc = allocate(&g, &bd);
    alloc.check_budget_balance(&g).unwrap();
}

#[test]
fn swarm_with_zero_capacity_agent() {
    let g = builders::ring(vec![int(0), int(2), int(3), int(4)]).unwrap();
    let mut swarm = SoaSwarm::new(&g);
    let m = swarm.run(&SwarmConfig {
        max_rounds: 20_000,
        tol: 1e-9,
        record_trace: false,
    });
    assert!(m.converged);
    assert!(
        m.utilities[0].abs() < 1e-9,
        "free riders download nothing at the fixed point"
    );
}

#[test]
fn swarm_rejects_weights_without_a_usable_f64_capacity() {
    use prs::p2psim::CapacityError;
    // 10^400 has no finite f64 image; the swarm used to run on an infinite
    // capacity and panic converting it back for the BD cross-check.
    let text = format!("ring\nweights: 1 2 1{}\n", "0".repeat(400));
    let g = parse_instance(&text).unwrap();
    assert_eq!(
        SoaSwarm::try_new(&g).err(),
        Some(CapacityError::NotFinite(2))
    );
    // 10^-400 is positive but its f64 image is 0: a different instance.
    let text = format!("ring\nweights: 1 1/1{} 2\n", "0".repeat(400));
    let g = parse_instance(&text).unwrap();
    assert_eq!(
        SoaSwarm::try_new(&g).err(),
        Some(CapacityError::Underflow(1))
    );
    // An exact zero is representable and stays admissible.
    let g = builders::ring(vec![int(0), int(2), int(3)]).unwrap();
    assert!(SoaSwarm::try_new(&g).is_ok());
}

#[test]
fn ring_instance_rejects_non_positive_weights() {
    // The attack surface requires w > 0; `RingInstance` must reject bad
    // weights at construction with a typed error naming the vertex, not
    // panic deep inside the sweep.
    let zero = prs::RingInstance::from_integers(&[3, 0, 2]);
    let err = zero.expect_err("zero weight must be rejected");
    assert!(
        err.to_string().contains("non-positive weight at vertex 1"),
        "unhelpful error: {err}"
    );
    let negative = prs::RingInstance::new(vec![int(1), int(2), ratio(-1, 3)]);
    let err = negative.expect_err("negative weight must be rejected");
    assert!(err.to_string().contains("vertex 2"), "{err}");
    // Strictly positive rationals are still fine.
    assert!(prs::RingInstance::new(vec![ratio(1, 7), int(2), int(3)]).is_ok());
}

#[test]
fn malformed_instance_text_is_rejected() {
    use prs::Error;
    // Truncated and garbage inputs must come back as typed parse errors
    // (never a panic), carrying a usable line number.
    let cases: &[&str] = &[
        "",                                                  // empty file
        "ring",                                              // truncated: no weights line
        "ring\nweights:",                                    // empty weight list → builder error
        "ring\nweights: 1 2 1/0",                            // zero denominator
        "ring\nweights: 1 2 NaN",                            // float junk
        "graph\nweights: 1 2\nedges: 0-9",                   // endpoint out of range
        "graph\nweights: 1 2\nedges: 0-",                    // truncated edge token
        "\u{0}\u{1}binary\u{2}garbage",                      // binary noise
        "ring\nweights: 1 2 3\nweights: 1 2 3\nextra: nope", // trailing junk
    ];
    for text in cases {
        match prs::parse_instance(text) {
            Err(Error::Parse { .. }) => {}
            Err(other) => panic!("expected Parse error for {text:?}, got {other:?}"),
            Ok(_) => panic!("malformed input parsed: {text:?}"),
        }
    }
    // Line numbers point at the offending line.
    match prs::parse_instance("ring\nweights: 1 oops 3") {
        Err(Error::Parse { line, message }) => {
            assert_eq!(line, 2);
            assert!(message.contains("oops"), "{message}");
        }
        other => panic!("expected a located parse error, got {other:?}"),
    }
}

#[test]
fn attack_on_tiny_triangle() {
    // Smallest possible ring; boundary splits hit degenerate paths and must
    // be skipped, not crashed on.
    let ring = prs::RingInstance::from_integers(&[1, 1, 1]).unwrap();
    let out = ring.sybil_attack(
        0,
        &AttackConfig::new()
            .with_grid(8)
            .with_zoom_levels(2)
            .with_keep(2),
    );
    assert_eq!(out.ratio, Rational::one());
}
