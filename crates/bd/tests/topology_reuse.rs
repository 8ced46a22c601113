//! When a session keeps a round index's certification build, and when it
//! rebuilds it.
//!
//! A kept build serves a round only when the round's alive set and induced
//! adjacency equal the build's; a chord or a different alive set at the
//! same round index rebuilds it, and `bd.topology_reuses` counts only the
//! kept builds. The counters are process-global, so this file holds one
//! test.

use prs_bd::{decompose, DecompositionSession};
use prs_flow::stats;
use prs_graph::{builders, Graph};
use prs_numeric::int;

/// Decompose `g` on `session` and return how many rounds kept their build.
fn reuses(session: &mut DecompositionSession, g: &Graph) -> u64 {
    let before = stats::snapshot().topology_reuses;
    assert_eq!(session.decompose(g), decompose(g));
    stats::snapshot().topology_reuses - before
}

#[test]
fn kept_builds_need_the_same_alive_set_and_adjacency() {
    let path = |w: [i64; 4]| builders::path(w.map(int).into()).unwrap();
    let mut session = DecompositionSession::detached();
    // Two rounds: B = {0}, C = {1}, then {2, 3} at α = 1.
    session.decompose(&path([10, 1, 5, 5])).unwrap();
    // Round 0 moves a weight on the same topology and keeps its build;
    // round 1 replays.
    assert_eq!(reuses(&mut session, &path([11, 1, 5, 5])), 1);
    // A chord changes round 0's adjacency: it rebuilds.
    let mut chord = path([12, 1, 5, 5]);
    chord.add_edge(0, 2).unwrap();
    assert_eq!(reuses(&mut session, &chord), 0);
    // Back on the path, round 0 rebuilds again (its last build had the
    // chord), and round 1 sees a new alive set at its index: {0, 1}.
    let mirrored = path([5, 5, 1, 10]);
    assert_eq!(reuses(&mut session, &mirrored), 0);
    assert_eq!(decompose(&mirrored).unwrap().pairs()[1].b.to_vec(), [0, 1]);
}
