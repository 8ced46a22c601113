#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # prs-core — resource sharing over rings: the paper, as a library
//!
//! Facade crate for the reproduction of *“Tightening Up the Incentive Ratio
//! for Resource Sharing Over the Rings”* (Cheng, Deng, Li — IPPS 2020).
//! It re-exports the whole stack and adds two high-level entry points:
//!
//! * [`RingInstance`] — one weighted ring with every analysis the paper
//!   performs available as a method: the bottleneck decomposition, the BD
//!   allocation and its Proposition 6 utilities, proportional response
//!   convergence, misreport sweeps, and the Sybil attack with its incentive
//!   ratio.
//! * [`audit::audit_paper_claims`] — run the full battery of executable
//!   theorem checks (Prop. 3, Prop. 6, Lemma 9, Prop. 11, Thm. 10,
//!   Lemmas 14/20, the stage Lemmas, Thm. 8) on one instance and report
//!   which held. Integration tests and the experiment harness call this on
//!   thousands of instances.
//!
//! ## Quickstart
//!
//! ```
//! use prs_core::RingInstance;
//! use prs_core::prelude::*;
//!
//! // A 4-ring with weights 5, 1, 4, 2.
//! let ring = RingInstance::from_integers(&[5, 1, 4, 2]).unwrap();
//!
//! // Equilibrium utilities under the BD mechanism (Proposition 6).
//! let utilities = ring.equilibrium_utilities();
//! assert_eq!(utilities.iter().sum::<Rational>(), ring.graph().total_weight());
//!
//! // How much can agent 0 gain by a Sybil attack? Never more than 2×.
//! let outcome = ring.sybil_attack(0, &AttackConfig::default());
//! assert!(outcome.ratio <= Rational::from_integer(2));   // Theorem 8
//! ```

pub mod audit;
pub mod error;
pub mod instance;
pub mod parse;

pub use error::Error;
pub use instance::RingInstance;

/// Convenient glob-import surface, session-first: the warm-started
/// [`DecompositionSession`](prs_bd::DecompositionSession) and its pool are
/// the intended entry points for anything that decomposes more than one
/// graph.
pub mod prelude {
    pub use crate::audit::{audit_paper_claims, PaperAudit};
    pub use crate::error::Error;
    pub use crate::instance::RingInstance;
    pub use crate::parse::parse_instance;
    pub use prs_bd::{
        allocate, decompose, decompose_exact, AgentClass, Allocation, BdError,
        BottleneckDecomposition, DecompositionSession, Delta, EdgeOp, SessionPool, SessionStats,
        UpdateOutcome,
    };
    pub use prs_deviation::{
        classify_prop11, sweep, AlphaSample, GraphFamily, MisreportFamily, Prop11Case,
        ShapeInterval, SweepConfig, SweepResult,
    };
    pub use prs_dynamics::{run_until_close, ExactEngine};
    pub use prs_graph::{builders, Graph, GraphError, VertexId, VertexSet};
    pub use prs_numeric::{int, ratio, BigInt, BigUint, Rational};
    pub use prs_p2psim::{MembershipEvent, MembershipOutcome, SoaSwarm, Strategy, SwarmConfig};
    pub use prs_sybil::{
        best_sybil_split, check_ring_theorem8, classify_initial_path, honest_split,
        worst_case_search, AttackConfig, GeneralAttackConfig, InitialPathCase, SybilOutcome,
    };
}

// Re-export the component crates under stable names.
pub use prs_bd as bd;
pub use prs_deviation as deviation;
pub use prs_dynamics as dynamics;
pub use prs_eg as eg;
pub use prs_flow as flow;
pub use prs_graph as graph;
pub use prs_numeric as numeric;
pub use prs_p2psim as p2psim;
pub use prs_sybil as sybil;
pub use prs_trace as trace;
