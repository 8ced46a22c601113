#![forbid(unsafe_code)]
//! Umbrella crate: the curated public surface of the `prs` stack.
//!
//! See the README for the architecture overview and [`prs_core`] for the
//! component documentation. The repo-root `examples/` and `tests/` belong
//! to this crate.
//!
//! Two ways in:
//!
//! * `use prs::prelude::*;` — the session-first working set: a
//!   [`DecompositionSession`] (or a [`SessionPool`] for parallel sweeps)
//!   plus the analyses built on top of it.
//! * `prs::bd`, `prs::flow`, … — the component crates under stable names,
//!   for anything not re-exported at the root.
//!
//! The old `pub use prs_core::*` glob is gone; everything below is an
//! explicit, intentional re-export. `tests/api_surface.rs` snapshots this
//! surface so accidental removals fail CI.

// High-level entry points.
pub use prs_core::audit::{audit_paper_claims, PaperAudit};
pub use prs_core::parse::parse_instance;
pub use prs_core::{Error, RingInstance};

// The decomposition engine, session-first.
pub use prs_core::bd::{
    allocate, decompose, decompose_exact, AgentClass, Allocation, BdError, BottleneckDecomposition,
    BottleneckPair, DecompositionSession, Delta, EdgeOp, SessionPool, SessionStats, UpdateOutcome,
};

// Misreport sweeps and Sybil attacks.
pub use prs_core::deviation::{
    classify_prop11, sweep, AlphaSample, GraphFamily, MisreportFamily, Prop11Case, ShapeInterval,
    SweepConfig, SweepResult,
};
pub use prs_core::sybil::{
    best_general_sybil, best_sybil_split, check_ring_theorem8, classify_initial_path, honest_split,
    worst_case_search, AttackConfig, GeneralAttackConfig, InitialPathCase, SybilOutcome,
};

// Foundations.
pub use prs_core::graph::{builders, Graph, GraphError, VertexId, VertexSet};
pub use prs_core::numeric::{int, ratio, BigInt, BigUint, Rational};

/// Convenient glob-import surface (same set as [`prs_core::prelude`]).
pub mod prelude {
    pub use prs_core::prelude::*;
}

// The component crates under stable names, for the long tail
// (`prs::trace::counter_values`, `prs::bd::reference`, `prs::graph::random`, …).
pub use prs_core::{bd, deviation, dynamics, eg, flow, graph, numeric, p2psim, sybil, trace};
