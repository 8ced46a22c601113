//! The scaled-integer engine: [`Network`] over [`BigInt`] capacities.
//!
//! The exact rational engine pays a gcd-normalized cross-multiplication
//! for every residual comparison and every flow update. A Hall-feasibility
//! network can instead be *scaled integer*: multiply every capacity by
//! `p · D`, where `α = p/q` is the parameter and `D` clears the weight
//! denominators — the feasibility decision and the residual structure
//! (min cuts, tight sets) are invariant under uniform scaling, while every
//! arithmetic step becomes a plain big-integer add or compare. Every
//! certification round that outgrows the checked-`i128` tier promotes to
//! this network; the result it extracts is bit-identical to the rational
//! engine's because only the *representation* of the capacities changes.
//!
//! It declares its own `flow.int_*` counters, so promoted certification
//! flows never mix with the other engines' counts.

use crate::capacity::{exact_capacity_arith, Cap, Capacity};
use crate::kernel::Network;
use prs_numeric::BigInt;
use prs_trace::Counter;

static INT_BFS_PHASES: Counter = Counter::new("flow.int_bfs_phases");
static INT_AUGMENTING_PATHS: Counter = Counter::new("flow.int_augmenting_paths");
static INT_MAX_FLOWS: Counter = Counter::new("flow.int_max_flows");

/// An arc capacity: a finite big integer or `+∞` (middle arcs).
pub type CapInt = Cap<BigInt>;

/// A directed flow network with big-integer capacities — structurally the
/// twin of [`FlowNetwork`](crate::FlowNetwork), sharing its
/// [`EdgeId`](crate::EdgeId) forward/reverse arc-pair layout so callers
/// can keep one set of edge bookkeeping for both.
pub type NetworkInt = Network<BigInt>;

impl Capacity for BigInt {
    exact_capacity_arith!();

    const ENGINE: &'static str = "int";
    const SPAN_BFS: &'static str = "int_bfs_phase";
    const SPAN_MAX_FLOW: &'static str = "int_max_flow";
    const BFS_PHASES: &'static Counter = &INT_BFS_PHASES;
    const AUGMENTING_PATHS: &'static Counter = &INT_AUGMENTING_PATHS;
    const MAX_FLOWS: &'static Counter = &INT_MAX_FLOWS;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cap_int_alias_constructs_and_matches() {
        // Callers pattern-match `CapInt::Finite` through the alias; pin
        // that both construction and matching keep working.
        let mut net = NetworkInt::new(3);
        let e = net.add_edge(0, 1, CapInt::Finite(BigInt::from(7)));
        net.add_edge(1, 2, CapInt::Infinite);
        match net.capacity_of(e) {
            CapInt::Finite(c) => assert_eq!(c, &BigInt::from(7)),
            CapInt::Infinite => panic!("finite capacity stored as infinite"),
        }
    }
}
