//! The floating-point engine: [`Network`] over `f64` capacities — and the
//! **only** module in this crate where floats and numeric casts are
//! permitted (prs-lint enforces the boundary).
//!
//! The float engine is the proposal half of the two-tier parametric
//! max-flow engine. It never decides anything on its own: the Dinkelbach
//! driver in `prs-bd` runs it to *propose* a candidate α and bottleneck
//! set, then certifies the proposal with a single exact flow. Residual
//! comparisons use a tolerance scaled to the largest finite capacity seen
//! (threaded through [`Capacity::Tol`]), so saturation detection is robust
//! but deliberately approximate — a near-tie that the tolerance misjudges
//! only costs a fallback to the exact loop, never a wrong answer.

use crate::capacity::{Cap, Capacity};
use crate::kernel::Network;
use crate::stats;
use crate::testkit::TestCapacity;

/// A directed flow network with `f64` capacities (Dinic).
pub type NetworkF64 = Network<f64>;

/// Saturation-tolerance state for the float backend: the largest finite
/// capacity seen scales the epsilon, so "saturated" adapts to the
/// magnitude of the instance instead of using an absolute cutoff.
#[derive(Clone, Debug, Default)]
pub struct F64Tol {
    /// Largest finite capacity seen; scales the saturation tolerance.
    cap_scale: f64,
}

const REL_EPS: f64 = 1e-12;

impl F64Tol {
    #[inline]
    fn eps(&self) -> f64 {
        REL_EPS * (1.0 + self.cap_scale)
    }
}

/// `f64::INFINITY` maps to [`Cap::Infinite`]; every other non-negative
/// finite value is a finite capacity. This keeps f64 call sites writing
/// plain numbers while the kernel models unboundedness explicitly — an
/// infinite arc can never be a cut edge, for floats exactly as for
/// rationals.
///
/// NaN and negative inputs clamp to `Cap::Finite(0.0)` — a dead arc, the
/// conservative reading of a meaningless capacity. The clamp is explicit
/// rather than a `debug_assert` so debug and release builds agree: the
/// previous assert compiled out in release, where NaN then failed the
/// `is_finite()` test and silently became an *uncuttable infinite* arc —
/// a poisoned input promoted to unbounded trust. The f64 tier only ever
/// proposes, so a zeroed arc at worst costs an exact-descent fallback.
impl From<f64> for Cap<f64> {
    fn from(cap: f64) -> Self {
        if cap.is_nan() || cap < 0.0 {
            Cap::Finite(0.0)
        } else if cap.is_finite() {
            Cap::Finite(cap)
        } else {
            Cap::Infinite
        }
    }
}

impl Capacity for f64 {
    type Tol = F64Tol;

    const ENGINE: &'static str = "f64";
    const SPAN_BFS: &'static str = "f64_bfs_phase";
    const SPAN_MAX_FLOW: &'static str = "f64_max_flow";

    fn zero() -> Self {
        0.0
    }
    fn is_zero(&self) -> bool {
        *self == 0.0
    }
    fn is_negative(&self) -> bool {
        *self < 0.0
    }
    // NaN-safe override: the trait default (`!is_zero && !is_negative`)
    // answers *true* for NaN, which would let a NaN-contaminated seed or
    // bottleneck pass the "worth pushing?" gates in `seed_flow`. A strict
    // `> 0.0` comparison is false for NaN.
    fn is_positive(&self) -> bool {
        *self > 0.0
    }
    fn le(&self, rhs: &Self) -> bool {
        self <= rhs
    }
    fn add_assign_ref(&mut self, rhs: &Self) {
        *self += rhs;
    }
    fn sub_assign_ref(&mut self, rhs: &Self) {
        *self -= rhs;
    }
    fn sub_ref(lhs: &Self, rhs: &Self) -> Self {
        lhs - rhs
    }
    fn has_headroom(flow: &Self, cap: &Self, tol: &F64Tol) -> bool {
        flow + tol.eps() < *cap
    }
    // NaN-safe: written as `!(pushed > 0)` rather than `pushed <= 0` so a
    // NaN bottleneck counts as exhausted. With `NaN <= 0.0 == false`, a
    // single NaN pushed amount would keep the augmentation loop running
    // forever; here it terminates the loop instead.
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // the incomparable case (NaN) is the point
    fn exhausted(pushed: &Self) -> bool {
        !(*pushed > 0.0)
    }
    fn conserved(net: &Self, tol: &F64Tol) -> bool {
        net.abs() <= tol.eps()
    }
    fn observe(tol: &mut F64Tol, cap: &Self) {
        tol.cap_scale = tol.cap_scale.max(*cap);
    }

    fn record_bfs_phase() {
        stats::record_f64_bfs_phases(1);
    }
    fn record_augmenting_path() {
        stats::record_f64_augmenting_paths(1);
    }
    fn record_max_flow() {
        stats::record_f64_max_flows(1);
    }
}

impl TestCapacity for f64 {
    fn from_ratio(num: i64, den: i64) -> Self {
        num as f64 / den as f64
    }
    fn assert_feq(actual: &Self, expected: &Self) {
        assert!(
            (actual - expected).abs() <= 1e-9 * (1.0 + expected.abs()),
            "f64 flow {actual} differs from expected {expected}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infinity_converts_to_infinite_cap() {
        let mut net = NetworkF64::new(4);
        net.add_edge(0, 1, 2.0);
        let mid = net.add_edge(1, 2, f64::INFINITY);
        net.add_edge(2, 3, 0.5);
        assert_eq!(net.capacity_of(mid), &Cap::Infinite);
        assert!((net.max_flow(0, 3) - 0.5).abs() < 1e-9);
        // An infinite arc is never saturated, so it is never a cut edge.
        assert!(!net.is_saturated(mid));
    }

    #[test]
    fn tolerance_scales_with_capacities() {
        // At cap_scale 1e12 the saturation tolerance is ≈ 1e-12·1e12 = 1:
        // a 1e-3 arc counts as saturated from the start, so the engine
        // refuses to push the dust (the prefilter contract — near-zero
        // residuals defer to the exact certifier instead of polluting the
        // proposal). Without the big arc the same edge carries its 1e-3.
        let mut big = NetworkF64::new(3);
        big.add_edge(0, 1, 1.0e12); // dead end, but raises cap_scale
        big.add_edge(0, 2, 1.0e-3); // below tolerance at this scale
        assert_eq!(big.max_flow(0, 2), 0.0);

        let mut small = NetworkF64::new(2);
        small.add_edge(0, 1, 1.0e-3);
        assert!((small.max_flow(0, 1) - 1.0e-3).abs() < 1e-12);
    }

    #[test]
    fn fractional_capacities_flow_within_tolerance() {
        let mut net = NetworkF64::new(2);
        net.add_edge(0, 1, 1.5);
        assert!((net.max_flow(0, 1) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn nan_and_negative_capacities_clamp_to_dead_arcs() {
        // Regression (release-mode bug): the old conversion guarded
        // negatives with a debug_assert (compiled out in release) and then
        // routed NaN through `is_finite() == false` into `Cap::Infinite` —
        // an uncuttable arc built from a poisoned input. Both now clamp to
        // a dead finite-zero arc, identically in debug and release.
        assert_eq!(Cap::from(f64::NAN), Cap::Finite(0.0));
        assert_eq!(Cap::from(-3.5), Cap::Finite(0.0));
        assert_eq!(Cap::from(f64::NEG_INFINITY), Cap::Finite(0.0));
        // The legitimate cases are untouched.
        assert_eq!(Cap::from(f64::INFINITY), Cap::Infinite);
        assert_eq!(Cap::from(2.5), Cap::Finite(2.5));
        assert_eq!(Cap::from(0.0), Cap::Finite(0.0));

        // End to end: a NaN capacity yields a dead arc, not infinite flow.
        let mut net = NetworkF64::new(2);
        let e = net.add_edge(0, 1, f64::NAN);
        assert_eq!(net.capacity_of(e), &Cap::Finite(0.0));
        assert_eq!(net.max_flow(0, 1), 0.0);
    }

    #[test]
    fn nan_is_neither_positive_nor_unexhausted() {
        // Regression: the trait-default `is_positive` called NaN positive,
        // and `exhausted(NaN)` was false — together enough to keep an
        // augmentation loop alive on a NaN bottleneck forever.
        assert!(!Capacity::is_positive(&f64::NAN));
        assert!(f64::exhausted(&f64::NAN));
        assert!(!f64::exhausted(&1.0));
        assert!(f64::exhausted(&0.0));
        assert!(f64::exhausted(&-1.0e-15));
    }

    #[test]
    fn nan_contaminated_network_terminates() {
        // Inject NaN past the `From` clamp (directly as a finite capacity)
        // and check the kernel still terminates with a sane answer instead
        // of hanging: NaN comparisons all answer false, so contaminated
        // arcs read as saturated and contribute nothing.
        let mut net = NetworkF64::new(4);
        net.add_edge(0, 1, Cap::Finite(f64::NAN));
        net.add_edge(1, 3, 8.0);
        net.add_edge(0, 2, 2.0);
        net.add_edge(2, 3, 2.0);
        let flow = net.max_flow(0, 3);
        assert!(
            (flow - 2.0).abs() < 1e-9,
            "clean parallel path must still carry its 2.0, got {flow}"
        );
    }
}
