//! The delta API's correctness contract: every [`Delta`] a session serves —
//! from whichever tier — must leave it **bit-identical** to a cold
//! [`decompose`] of the mutated graph, and every rejected delta must leave
//! it bit-identical to the graph it already held. These tests replay random
//! churn scripts (weight moves, edge insertions/removals, atomic batches,
//! and deliberately invalid events) against long-lived sessions over random
//! rings, random connected graphs, and every shipped `instances/*.prs`
//! file, checking the contract after **every** event — including scripts
//! that straddle the i128 → BigInt certification promotion boundary.

use prs_bd::{decompose, DecompositionSession, Delta, SessionStats, UpdateOutcome};
use prs_graph::{builders, random, Graph};
use prs_numeric::{int, Rational};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `2^e` as an exact rational, `e` possibly very negative.
fn pow2(e: i32) -> Rational {
    Rational::from_integer(2).pow(e)
}

/// Mirror one primitive of `delta` onto `g` with the session's idempotent
/// edge semantics (re-adding a present edge / removing an absent one is a
/// no-op, not an error).
fn apply_to_mirror(g: &mut Graph, delta: &Delta) {
    match delta {
        Delta::SetWeight { v, w } => g.try_set_weight(*v, w.clone()).unwrap(),
        Delta::AddEdge { u, v } => {
            if !g.has_edge(*u, *v) {
                g.add_edge(*u, *v).unwrap();
            }
        }
        Delta::RemoveEdge { u, v } => {
            if g.has_edge(*u, *v) {
                g.remove_edge(*u, *v).unwrap();
            }
        }
        Delta::Batch(items) => {
            for d in items {
                apply_to_mirror(g, d);
            }
        }
    }
}

/// One random event. Mostly valid mutations in `[0, 9]`-ish weight range,
/// with a sprinkling of invalid ones (negative weight, out-of-range vertex,
/// self-loop) that the session must reject atomically.
fn random_delta<R: Rng>(rng: &mut R, g: &Graph) -> Delta {
    let n = g.n();
    match rng.gen_range(0u32..12) {
        // Weights stay strictly positive: Proposition 3's invariants (and
        // the cold engine's debug asserts) assume the paper's w > 0 model.
        0..=4 => Delta::SetWeight {
            v: rng.gen_range(0..n),
            w: int(rng.gen_range(1..=9)),
        },
        5 | 6 => Delta::AddEdge {
            u: rng.gen_range(0..n),
            v: rng.gen_range(0..n), // may be a self-loop → rejected
        },
        7 => {
            if g.edges().is_empty() {
                Delta::AddEdge { u: 0, v: 1 }
            } else {
                let (u, v) = g.edges()[rng.gen_range(0..g.edges().len())];
                Delta::RemoveEdge { u, v }
            }
        }
        8 | 9 => {
            let k = rng.gen_range(1..=3);
            Delta::Batch(
                (0..k)
                    .map(|_| match rng.gen_range(0u32..3) {
                        0 => Delta::SetWeight {
                            v: rng.gen_range(0..n),
                            w: int(rng.gen_range(1..=9)),
                        },
                        1 => Delta::AddEdge {
                            u: rng.gen_range(0..n.saturating_sub(1)),
                            v: rng.gen_range(0..n),
                        },
                        _ => Delta::RemoveEdge {
                            u: rng.gen_range(0..n),
                            v: rng.gen_range(0..n),
                        },
                    })
                    .collect(),
            )
        }
        10 => Delta::SetWeight {
            v: rng.gen_range(0..n),
            w: int(-1), // negative → InvalidDelta, rolled back
        },
        _ => Delta::SetWeight {
            v: n + rng.gen_range(0..3usize), // out of range → InvalidDelta
            w: int(1),
        },
    }
}

/// The tier an accepted delta reported must agree with the session's own
/// counters across that `apply`: `Unchanged` ran no round; `Recertified {
/// rounds }` settled all `k` rounds of the new decomposition as hits, at
/// most `k` of them by a flow; `Recomputed` on a session that already held
/// a result (`warm`) had some round descend or run cold.
fn assert_tier_matches_counters(
    out: UpdateOutcome,
    before: SessionStats,
    after: SessionStats,
    k: usize,
    warm: bool,
    what: &str,
) {
    match out {
        UpdateOutcome::Unchanged => assert_eq!(after, before, "{what}: Unchanged ran a round"),
        UpdateOutcome::Recertified { rounds } => {
            assert_eq!(after.misses, before.misses, "{what}: Recertified missed");
            assert_eq!(
                after.hits - before.hits,
                k as u64,
                "{what}: Recertified hits"
            );
            assert!(rounds <= k, "{what}: {rounds} flows for {k} rounds");
        }
        UpdateOutcome::Recomputed => assert!(
            !warm || after.misses > before.misses,
            "{what}: Recomputed without a miss"
        ),
    }
}

/// Replay `events` random events against a session owning `g`, checking
/// bit-identity with a cold decomposition of the mirror after every event,
/// and that each accepted event's tier agrees with the session's counters.
/// Accepted deltas advance the mirror; rejected ones must leave the session
/// serving the unmutated mirror.
fn churn_matches_cold<R: Rng>(g: Graph, rng: &mut R, events: usize, label: &str) {
    let mut session = DecompositionSession::new(g.clone());
    let mut mirror = g;
    for step in 0..events {
        let delta = random_delta(rng, &mirror);
        let before = session.stats();
        let applied = session.apply(delta.clone());
        let after = session.stats();
        if applied.is_ok() {
            apply_to_mirror(&mut mirror, &delta);
        }
        // Whether the event committed, was rejected as invalid, or made the
        // graph undecomposable (solver error → rollback), the session must
        // now serve exactly the mirror's cold decomposition. The mirror
        // itself can be undecomposable only if the session accepted a delta
        // it should have rolled back — which is precisely the bug this
        // suite exists to catch.
        let cold = decompose(&mirror);
        match (session.current(), cold) {
            (Ok(inc), Ok(cold)) => {
                assert_eq!(
                    inc, &cold,
                    "{label}: divergence after step {step} ({delta:?})"
                );
                if let Ok(out) = applied {
                    let what = format!("{label}: step {step} ({delta:?})");
                    assert_tier_matches_counters(out, before, after, inc.k(), step > 0, &what);
                }
            }
            (inc, cold) => panic!(
                "{label}: step {step} left an undecomposable state \
                 (session: {inc:?}, cold: {cold:?})"
            ),
        }
    }
}

#[test]
fn random_ring_churn_is_bit_identical() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0001);
    for case in 0..6 {
        let n = rng.gen_range(3..9);
        let g = random::random_ring(&mut rng, n, 1, 9);
        churn_matches_cold(g, &mut rng, 30, &format!("ring case {case}"));
    }
}

#[test]
fn random_connected_graph_churn_is_bit_identical() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0002);
    for case in 0..4 {
        let n = rng.gen_range(4..9);
        let g = random::random_connected(&mut rng, n, 0.4, 1, 9);
        churn_matches_cold(g, &mut rng, 25, &format!("connected case {case}"));
    }
}

#[test]
fn shipped_instances_survive_churn() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../instances");
    let mut rng = StdRng::seed_from_u64(0x5eed_0003);
    let mut seen = 0;
    for entry in std::fs::read_dir(dir).expect("instances/ exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("prs") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let g = parse_shipped(&text);
        seen += 1;
        churn_matches_cold(g, &mut rng, 25, &path.display().to_string());
    }
    assert!(seen >= 3, "expected the shipped instance set, found {seen}");
}

#[test]
fn churn_across_the_promotion_boundary_stays_bit_identical() {
    // Deterministic script walking the quickstart ring into 400-bit scale
    // separation (which forces the certification tier to promote i128 →
    // BigInt) and back down to the fast tier — with per-event bit-identity
    // throughout, exactly like the small-weight scripts.
    let g = builders::ring(vec![int(3), int(1), int(4), int(1), int(5)]).unwrap();
    let mut session = DecompositionSession::new(g.clone());
    let mut mirror = g;
    let promotions = prs_trace::counter_value("bd.i128_promotions");
    let script = vec![
        Delta::SetWeight { v: 0, w: pow2(220) },
        Delta::SetWeight {
            v: 2,
            w: pow2(-220),
        },
        Delta::Batch(vec![
            Delta::SetWeight { v: 1, w: pow2(200) },
            Delta::SetWeight {
                v: 3,
                w: pow2(-200),
            },
        ]),
        Delta::SetWeight { v: 0, w: int(3) },
        Delta::SetWeight { v: 2, w: int(4) },
        Delta::Batch(vec![
            Delta::SetWeight { v: 1, w: int(1) },
            Delta::SetWeight { v: 3, w: int(1) },
        ]),
    ];
    for (step, delta) in script.into_iter().enumerate() {
        let out = session.apply(delta.clone()).unwrap();
        assert_ne!(out, UpdateOutcome::Unchanged, "step {step} moves weights");
        apply_to_mirror(&mut mirror, &delta);
        let cold = decompose(&mirror).unwrap();
        assert_eq!(
            session.current().unwrap(),
            &cold,
            "promotion script diverged at step {step}"
        );
    }
    // The script's whole point: at least one certification promoted. (A
    // `== 0` window would be flaky — counters are process-global — but
    // `> 0` only requires our own promotions to have been counted.)
    assert!(
        prs_trace::counter_value("bd.i128_promotions") > promotions,
        "400-bit scale separation must have promoted"
    );
    // And the way back down is served without BigInt again eventually —
    // the final state is the original quickstart ring.
    assert_eq!(session.current().unwrap(), &decompose(&mirror).unwrap());
}

/// Minimal reader for the shipped `.prs` format (`# comments`, a kind line,
/// `weights:`, optional `edges:`) — just enough for this suite; the real
/// parser lives in `prs-core`, on which `prs-bd` cannot depend.
fn parse_shipped(text: &str) -> Graph {
    let mut kind = String::new();
    let mut weights: Vec<Rational> = Vec::new();
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("weights:") {
            weights = rest
                .split_whitespace()
                .map(|t| t.parse::<Rational>().unwrap())
                .collect();
        } else if let Some(rest) = line.strip_prefix("edges:") {
            edges = rest
                .split_whitespace()
                .map(|t| {
                    let (u, v) = t.split_once('-').unwrap();
                    (u.parse().unwrap(), v.parse().unwrap())
                })
                .collect();
        } else {
            kind = line.to_string();
        }
    }
    match kind.as_str() {
        "ring" => builders::ring(weights).unwrap(),
        "path" => builders::path(weights).unwrap(),
        _ => Graph::new(weights, &edges).unwrap(),
    }
}
