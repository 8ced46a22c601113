//! Proposition 12 / Fig. 3 — classifying breakpoint events exactly.
//!
//! When the reported weight `x` crosses a breakpoint, the pair containing
//! the deviating vertex either **merges** with a neighboring pair or
//! **splits** into two, and the α-ratios of all pairs involved coincide at
//! the junction (`α_j^i(b_i) = α_j^{i+1}(b_i) = α_{j+1}^{i+1}(b_i)` in the
//! paper's notation). This module classifies each event from the two
//! flanking constant-shape intervals and *verifies the junction identity
//! exactly* by evaluating both intervals' Möbius α-models at the breakpoint
//! the sweep solved.

use crate::family::GraphFamily;
use crate::sweep::{ShapeInterval, SweepResult};
use prs_graph::VertexId;
use prs_numeric::Rational;

/// The kind of combinatorial event at a breakpoint, from the perspective of
/// increasing `x`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Two pairs of the left interval merge into one pair on the right
    /// (Prop 12-2b / 3b direction).
    Merge,
    /// One pair of the left interval splits into two on the right
    /// (Prop 12-2a / 3a direction).
    Split,
    /// The focus pair's member set is unchanged but its internal `B/C`
    /// structure reorganizes because its α-ratio reaches 1 (the terminal
    /// `B = C` form) — the transition underlying Case B-3 of Prop 11.
    Terminal,
    /// The shape changed in some other way (e.g. several pairs rearranged
    /// simultaneously through an α = 1 point).
    Other,
}

/// A classified breakpoint event.
#[derive(Clone, Debug)]
pub struct BreakpointEvent {
    /// The exact breakpoint, when the sweep solved it (`None` across a
    /// fallback bracket).
    pub x: Option<Rational>,
    /// Merge / split / other.
    pub kind: EventKind,
    /// Whether the focus vertex kept its (B/C) side across the event
    /// (Prop 12-(1); `Both` is compatible with either side).
    pub focus_class_preserved: bool,
    /// Whether the junction α-identity was verified exactly at the solved
    /// breakpoint. The solver confirms a root only where both shapes'
    /// models meet the measured α's, so a violation leaves the event
    /// unsolved (`x: None`) — a failure for a misreport family, whose
    /// breakpoints are all rational.
    pub junction_identity_checked: bool,
}

fn find_pair_of(shape: &[(Vec<VertexId>, Vec<VertexId>)], v: VertexId) -> Option<usize> {
    shape
        .iter()
        .position(|(b, c)| b.contains(&v) || c.contains(&v))
}

fn as_set(pair: &(Vec<VertexId>, Vec<VertexId>)) -> Vec<VertexId> {
    let mut all: Vec<VertexId> = pair.0.iter().chain(&pair.1).copied().collect();
    all.sort_unstable();
    all.dedup();
    all
}

/// Classify the event between two adjacent constant-shape intervals, with
/// the breakpoint `x` the sweep solved between them, if any.
pub fn classify_event<F: GraphFamily>(
    fam: &F,
    left: &ShapeInterval,
    right: &ShapeInterval,
    x: Option<Rational>,
) -> BreakpointEvent {
    let v = fam.focus_vertex();

    // Prop 12-(1): the focus vertex's class survives the breakpoint (Both
    // bridges the two sides). A C ↔ B flip is legal only through an α = 1
    // point (Prop 11 Case B-3); that point interval may be unsampled, so
    // accept the flip iff the junction α is exactly 1.
    use prs_bd::AgentClass;
    let junction_alpha_is_one = x.as_ref().is_some_and(|bp| {
        find_pair_of(&left.shape, v)
            .and_then(|li| left.models[li].eval(bp))
            .is_some_and(|a| a == Rational::one())
    });
    let focus_class_preserved = left.focus_class == right.focus_class
        || matches!(left.focus_class, AgentClass::Both)
        || matches!(right.focus_class, AgentClass::Both)
        || junction_alpha_is_one;

    // Detect merge/split around the focus pair by member-set algebra.
    let kind = (|| {
        let li = find_pair_of(&left.shape, v)?;
        let ri = find_pair_of(&right.shape, v)?;
        let l_members = as_set(&left.shape[li]);
        let r_members = as_set(&right.shape[ri]);
        if l_members == r_members {
            // Same members: either nothing happened to the focus pair
            // (Other) or its B/C structure reorganized at α = 1 (Terminal).
            let l_bc_equal = left.shape[li].0 == left.shape[li].1;
            let r_bc_equal = right.shape[ri].0 == right.shape[ri].1;
            return Some(if l_bc_equal != r_bc_equal {
                EventKind::Terminal
            } else {
                EventKind::Other
            });
        }
        // Split: the left focus pair equals the union of the right focus
        // pair and one other right pair.
        if l_members.len() > r_members.len() {
            for (oi, other) in right.shape.iter().enumerate() {
                if oi == ri {
                    continue;
                }
                let mut union = as_set(other);
                union.extend(&r_members);
                union.sort_unstable();
                union.dedup();
                if union == l_members {
                    return Some(EventKind::Split);
                }
            }
        } else {
            // Merge: the right focus pair equals the union of the left
            // focus pair and one other left pair.
            for (oi, other) in left.shape.iter().enumerate() {
                if oi == li {
                    continue;
                }
                let mut union = as_set(other);
                union.extend(&l_members);
                union.sort_unstable();
                union.dedup();
                if union == r_members {
                    return Some(EventKind::Merge);
                }
            }
        }
        Some(EventKind::Other)
    })()
    .unwrap_or(EventKind::Other);

    // Junction identity: at the exact breakpoint, the α of the focus pair
    // computed from the left model equals the α computed from the right
    // model (and hence all pairs involved in the merge/split agree there).
    let junction_identity_checked = match (&x, &kind) {
        (Some(_), EventKind::Terminal) => {
            // Terminal events must sit exactly at α = 1.
            if junction_alpha_is_one {
                true
            } else {
                // prs-lint: allow(panic, reason = "refutation contract: a junction α ≠ 1 falsifies Proposition 12 and must abort with the witness, not be reported as an ordinary error")
                panic!("Terminal event whose junction α ≠ 1");
            }
        }
        (Some(bp), EventKind::Merge | EventKind::Split) => {
            let check = (|| {
                let li = find_pair_of(&left.shape, v)?;
                let ri = find_pair_of(&right.shape, v)?;
                let lv = left.models[li].eval(bp)?;
                let rv = right.models[ri].eval(bp)?;
                Some(lv == rv)
            })();
            match check {
                Some(true) => true,
                Some(false) => {
                    // prs-lint: allow(panic, reason = "refutation contract: a junction identity violation falsifies Proposition 12 and must abort with the witness")
                    panic!("Proposition 12 junction identity violated at breakpoint {bp}")
                }
                None => false,
            }
        }
        _ => false,
    };

    BreakpointEvent {
        x,
        kind,
        focus_class_preserved,
        junction_identity_checked,
    }
}

/// Classify every breakpoint of a sweep.
pub fn classify_events<F: GraphFamily>(fam: &F, res: &SweepResult) -> Vec<BreakpointEvent> {
    let windows = res.intervals.windows(2).zip(res.solved());
    windows
        .map(|(w, x)| classify_event(fam, &w[0], &w[1], x.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::MisreportFamily;
    use crate::sweep::{sweep, SweepConfig};
    use prs_graph::{builders, random};
    use prs_numeric::{int, Rational};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ints(vals: &[i64]) -> Vec<Rational> {
        vals.iter().map(|&v| int(v)).collect()
    }

    #[test]
    fn merge_event_on_known_ring() {
        // Ring (6,2,4,3,5), agent 0: at x = 4 the focus pair merges with the
        // rest of the graph into the terminal α = 1 pair.
        let g = builders::ring(ints(&[6, 2, 4, 3, 5])).unwrap();
        let fam = MisreportFamily::new(g, 0);
        let res = sweep(&fam, &SweepConfig::new().with_grid(32).with_refine_bits(24));
        let events = classify_events(&fam, &res);
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(e.x, Some(int(4)));
        // The focus pair already spans all of V on the left; at x = 4 its
        // α-ratio reaches 1 and the B/C structure collapses to B = C.
        assert_eq!(e.kind, EventKind::Terminal, "{e:?}");
        assert!(e.focus_class_preserved);
        assert!(e.junction_identity_checked);
    }

    #[test]
    fn two_path_crossover_events() {
        // Path (1, x), agent 1: B = {0} merges into B = C = {0,1} at x = 1⁻
        // and splits again to B = {1} for x > 1 — the point interval at
        // x* = 1 may or may not be sampled; each detected event must be
        // merge/split/other with class preservation.
        let g = builders::path(ints(&[1, 10])).unwrap();
        let fam = MisreportFamily::new(g, 1);
        let res = sweep(&fam, &SweepConfig::new().with_grid(24).with_refine_bits(22));
        let events = classify_events(&fam, &res);
        assert!(!events.is_empty());
        for e in &events {
            assert!(e.focus_class_preserved, "{e:?}");
        }
    }

    #[test]
    fn random_rings_events_never_violate_prop12() {
        // Misreport breakpoints are rational and solved only where the
        // junction identity holds, so every event must come out solved.
        let mut rng = StdRng::seed_from_u64(321);
        for _ in 0..6 {
            let g = random::random_ring(&mut rng, 6, 1, 10);
            for v in 0..2 {
                let fam = MisreportFamily::new(g.clone(), v);
                let res = sweep(&fam, &SweepConfig::new().with_grid(24).with_refine_bits(20));
                for e in classify_events(&fam, &res) {
                    assert!(e.x.is_some(), "unsolved {e:?} on {:?}", g.weights());
                    assert!(e.focus_class_preserved, "{e:?} on {:?}", g.weights());
                }
            }
        }
    }
}
