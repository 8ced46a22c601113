//! The exact-rational engine: [`Network`] over [`Rational`] capacities.
//!
//! Every residual comparison is a gcd-normalized cross-multiplication, so
//! saturation, min cuts, and tight sets are decided exactly on unscaled
//! capacities: the Definition-5 allocation runs here, and so does the
//! Rational oracle the scaled-integer certifier is tested against.
//! Termination does not depend on capacity magnitudes (Dinic's phase bound
//! is purely combinatorial), and the result carries no rounding: summing
//! ten `1/10` capacities yields exactly `1`.

use crate::capacity::{exact_capacity_arith, Capacity};
use crate::kernel::Network;
use prs_numeric::Rational;
use prs_trace::Counter;

static EXACT_BFS_PHASES: Counter = Counter::new("flow.exact_bfs_phases");
static EXACT_AUGMENTING_PATHS: Counter = Counter::new("flow.exact_augmenting_paths");
static EXACT_MAX_FLOWS: Counter = Counter::new("flow.exact_max_flows");

/// A directed flow network with exact rational capacities.
pub type FlowNetwork = Network<Rational>;

impl Capacity for Rational {
    exact_capacity_arith!();

    const ENGINE: &'static str = "exact";
    const SPAN_BFS: &'static str = "exact_bfs_phase";
    const SPAN_MAX_FLOW: &'static str = "exact_max_flow";
    const BFS_PHASES: &'static Counter = &EXACT_BFS_PHASES;
    const AUGMENTING_PATHS: &'static Counter = &EXACT_AUGMENTING_PATHS;
    const MAX_FLOWS: &'static Counter = &EXACT_MAX_FLOWS;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capacity::Cap;
    use prs_numeric::{int, ratio};

    #[test]
    fn exactness_no_drift() {
        // Many tiny rational capacities whose sum is exactly 1.
        let mut net = FlowNetwork::new(12);
        for i in 0..10 {
            net.add_edge(0, 1 + i, Cap::Finite(ratio(1, 10)));
            net.add_edge(1 + i, 11, Cap::Infinite);
        }
        assert_eq!(net.max_flow(0, 11), int(1)); // would be 0.9999… in f64
    }

    #[test]
    fn default_cap_parameter_is_rational() {
        // `Cap` with no parameter must keep meaning the exact engine's
        // capacity type (API compatibility across the kernel unification).
        let c: Cap = Cap::Finite(ratio(3, 2));
        assert!(!c.is_zero());
        let mut net = FlowNetwork::new(2);
        net.add_edge(0, 1, c);
        assert_eq!(net.max_flow(0, 1), ratio(3, 2));
    }
}
