//! The checked-`i128` engine: [`Network`] over machine-word capacities.
//!
//! The scaled-integer certifier (see `network_int`) turns every residual
//! decision into big-integer adds and compares — exact, but each one walks
//! heap-allocated limbs. On almost every shipped instance the p·D-scaled
//! capacities fit comfortably in an `i128`, where the same adds and
//! compares are single machine operations. This module is that fast tier:
//! the identical Dinic kernel over `i128`, with **checked** arithmetic so
//! that the one case the type cannot represent is *detected* rather than
//! silently wrapped.
//!
//! # Overflow reporting: the poison flag
//!
//! The [`Capacity`] arithmetic hooks return values, not `Result`s — the
//! kernel is shared with backends that cannot fail. Overflow therefore
//! reports through a thread-local *poison flag* plus the existing
//! headroom/exhausted hook surface:
//!
//! * every `checked_*` failure sets the flag and substitutes the
//!   saturating result (so values stay ordered and the kernel's invariants
//!   keep holding locally);
//! * once poisoned, [`Capacity::has_headroom`] answers `false` for every
//!   arc and [`Capacity::exhausted`] answers `true`, so BFS finds no
//!   augmenting path and the max-flow loop winds down within one phase;
//! * the caller brackets each run with [`reset_overflow`] /
//!   [`overflow_detected`] and **discards** the poisoned result, promoting
//!   the round to the BigInt engine ([`NetworkInt`](crate::NetworkInt)) —
//!   which computes the identical answer without the width limit.
//!
//! The session's certification tier additionally rejects at *build* time:
//! any scaled capacity (or endpoint total) that does not fit `i128`
//! promotes before this engine ever runs, which is why the runtime flag
//! fires ~never in practice. It exists so "fits at build
//! time" never has to imply "every intermediate fits" for soundness.
//!
//! Results on the non-promoted path are bit-identical to the BigInt
//! engine's by construction: same kernel, same arc order, same integers —
//! only the representation width differs.

use crate::capacity::{Cap, Capacity};
use crate::kernel::Network;
use prs_trace::Counter;
use std::cell::Cell;

static I128_BFS_PHASES: Counter = Counter::new("flow.i128_bfs_phases");
static I128_AUGMENTING_PATHS: Counter = Counter::new("flow.i128_augmenting_paths");
static I128_MAX_FLOWS: Counter = Counter::new("flow.i128_max_flows");

/// An arc capacity: a finite `i128` or `+∞` (middle arcs).
pub type CapI128 = Cap<i128>;

/// A directed flow network with checked-`i128` capacities — structurally
/// the twin of [`NetworkInt`](crate::NetworkInt), sharing its
/// [`EdgeId`](crate::EdgeId) forward/reverse arc-pair layout so the
/// session can keep one set of edge bookkeeping across the exact tiers.
pub type NetworkI128 = Network<i128>;

thread_local! {
    /// Set by any `checked_*` failure in the `i128` arithmetic hooks;
    /// cleared only by [`reset_overflow`]. Thread-local because networks
    /// are not `Send`-shared mid-run and the session pool gives each
    /// worker its own engines.
    static OVERFLOW: Cell<bool> = const { Cell::new(false) };
}

/// Clear the thread's `i128` overflow poison flag. Call before a run whose
/// result you intend to trust.
pub fn reset_overflow() {
    OVERFLOW.with(|f| f.set(false));
}

/// True iff any `i128` arithmetic hook overflowed on this thread since the
/// last [`reset_overflow`]. A `true` answer means the run's result must be
/// discarded and the computation promoted to the BigInt engine.
pub fn overflow_detected() -> bool {
    OVERFLOW.with(|f| f.get())
}

fn poison() {
    // Flight-recorder hook on the transition only: once poisoned, every
    // subsequent checked_* failure in the same run also lands here, and a
    // single anomaly dump per run is the useful granularity.
    let fresh = OVERFLOW.with(|f| !f.replace(true));
    if fresh {
        prs_trace::metrics::anomaly("i128_overflow_poison");
    }
}

impl Capacity for i128 {
    const ENGINE: &'static str = "i128";
    const SPAN_BFS: &'static str = "i128_bfs_phase";
    const SPAN_MAX_FLOW: &'static str = "i128_max_flow";
    const BFS_PHASES: &'static Counter = &I128_BFS_PHASES;
    const AUGMENTING_PATHS: &'static Counter = &I128_AUGMENTING_PATHS;
    const MAX_FLOWS: &'static Counter = &I128_MAX_FLOWS;

    fn zero() -> Self {
        0
    }
    fn is_zero(&self) -> bool {
        *self == 0
    }
    fn is_negative(&self) -> bool {
        *self < 0
    }
    fn le(&self, rhs: &Self) -> bool {
        self <= rhs
    }
    fn add_assign_ref(&mut self, rhs: &Self) {
        *self = match self.checked_add(*rhs) {
            Some(v) => v,
            None => {
                poison();
                self.saturating_add(*rhs)
            }
        };
    }
    fn sub_assign_ref(&mut self, rhs: &Self) {
        *self = match self.checked_sub(*rhs) {
            Some(v) => v,
            None => {
                poison();
                self.saturating_sub(*rhs)
            }
        };
    }
    fn sub_ref(lhs: &Self, rhs: &Self) -> Self {
        match lhs.checked_sub(*rhs) {
            Some(v) => v,
            None => {
                poison();
                lhs.saturating_sub(*rhs)
            }
        }
    }
    fn has_headroom(flow: &Self, cap: &Self) -> bool {
        // A poisoned thread has no trustworthy residual structure: close
        // every arc so the kernel's BFS dead-ends and the run terminates.
        !overflow_detected() && flow < cap
    }
    fn exhausted(pushed: &Self) -> bool {
        overflow_detected() || *pushed == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cap_i128_alias_constructs_and_matches() {
        let mut net = NetworkI128::new(3);
        let e = net.add_edge(0, 1, CapI128::Finite(7));
        net.add_edge(1, 2, CapI128::Infinite);
        match net.capacity_of(e) {
            CapI128::Finite(c) => assert_eq!(*c, 7),
            CapI128::Infinite => panic!("finite capacity stored as infinite"),
        }
    }

    #[test]
    fn checked_hooks_poison_on_overflow_and_saturate() {
        reset_overflow();
        let mut v = i128::MAX;
        v.add_assign_ref(&1);
        assert_eq!(v, i128::MAX, "overflowed add must saturate, not wrap");
        assert!(overflow_detected());

        reset_overflow();
        assert_eq!(i128::sub_ref(&i128::MIN, &1), i128::MIN);
        assert!(overflow_detected());

        reset_overflow();
        let mut v = i128::MIN;
        v.sub_assign_ref(&1);
        assert_eq!(v, i128::MIN);
        assert!(overflow_detected());
    }

    #[test]
    fn in_range_hooks_do_not_poison() {
        reset_overflow();
        let mut v = i128::MAX - 1;
        v.add_assign_ref(&1);
        assert_eq!(v, i128::MAX);
        assert_eq!(i128::sub_ref(&i128::MAX, &i128::MAX), 0);
        assert!(!overflow_detected());
    }

    #[test]
    fn poison_closes_headroom_and_forces_exhaustion() {
        reset_overflow();
        assert!(i128::has_headroom(&0, &10));
        assert!(!i128::exhausted(&3));
        poison();
        assert!(!i128::has_headroom(&0, &10));
        assert!(i128::exhausted(&3));
        reset_overflow();
        assert!(i128::has_headroom(&0, &10));
    }

    #[test]
    fn poisoned_flow_terminates_and_reports() {
        // Two parallel source arcs whose caps individually fit but whose
        // *total* overflows i128: the accumulating flow sum trips the
        // checked add, the run winds down, and the flag reports it.
        reset_overflow();
        let big = i128::MAX / 2 + 2;
        let mut net = NetworkI128::new(4);
        net.add_edge(0, 1, CapI128::Finite(big));
        net.add_edge(0, 2, CapI128::Finite(big));
        net.add_edge(1, 3, CapI128::Finite(big));
        net.add_edge(2, 3, CapI128::Finite(big));
        let _poisoned_total = net.max_flow(0, 3);
        assert!(
            overflow_detected(),
            "2·(MAX/2 + 2) must trip the checked total accumulation"
        );
        reset_overflow();
    }
}
