#![deny(unsafe_code)]
#![warn(missing_docs)]
//! # prs-p2psim — a round-based P2P bandwidth-sharing simulator
//!
//! The paper's motivating system is BitTorrent-style bandwidth exchange: in
//! each protocol round an agent observes how much each peer uploaded to it
//! and responds by splitting its own upload capacity proportionally
//! (tit-for-tat, formalized as the proportional response dynamics of
//! Definition 1). This crate simulates that protocol at the *message* level:
//!
//! * [`soa`] — [`SoaSwarm`], the one f64 proportional-response engine:
//!   flat capacity/utility lanes, CSR peer adjacency and contiguous
//!   per-edge send/receive lanes. Rounds are two allocation-free passes,
//!   run one after the other on the caller's thread: about 5 ns per agent
//!   on a 2¹⁴-agent ring (see the [`soa`] module).
//! * [`agent::Strategy`] — how each agent plays. A **Sybil attacker**
//!   participates *in-protocol*: it presents a distinct fictitious identity
//!   to each neighbor with its capacity split between them, exactly the
//!   Definition 7 manipulation on a ring.
//! * [`swarm::SwarmConfig`] / [`swarm::SwarmMetrics`] — run parameters and
//!   outcome: utility traces, convergence round, fairness.
//! * [`metrics`] — fairness and attacker gain against the honest baseline.
//! * [`membership`] — dynamic membership between rounds: join, leave, and
//!   Tsoukatos-style reciprocity rewiring with free-list slot recycling
//!   and incremental CSR patching.
//!
//! `prs-dynamics` drives the same engine against the Proposition 6 target
//! (`prs_dynamics::run_until_close`) and certifies it with its exact
//! rational engine; the fixed point is the BD allocation, tying the whole
//! stack back to `prs-bd`.
//!
//! Simulation of real swarms (the paper's deployment context) is the
//! substitution documented in DESIGN.md: same code path, synthetic
//! topologies.

pub mod agent;
pub mod membership;
pub mod metrics;
pub mod soa;
pub mod swarm;

pub use agent::{AgentId, Strategy};
pub use membership::{MembershipError, MembershipEvent, MembershipOutcome};
pub use metrics::{attack_impact, jain_fairness, AttackImpact};
pub use soa::{CapacityError, CsrTopology, SoaSwarm};
pub use swarm::{SwarmConfig, SwarmMetrics};
