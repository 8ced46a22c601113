#![warn(missing_docs)]
//! # prs-p2psim — a round-based P2P bandwidth-sharing simulator
//!
//! The paper's motivating system is BitTorrent-style bandwidth exchange: in
//! each protocol round an agent observes how much each peer uploaded to it
//! and responds by splitting its own upload capacity proportionally
//! (tit-for-tat, formalized as the proportional response dynamics of
//! Definition 1). This crate simulates that protocol at the *message* level:
//!
//! * [`agent::AgentState`] — per-agent protocol state: peers, last-round
//!   receipts, upload capacity, and a [`agent::Strategy`].
//! * [`swarm::Swarm`] — the round loop: deliver uploads, let every agent
//!   compute next-round responses, collect metrics. A **Sybil attacker**
//!   participates *in-protocol*: it presents a distinct fictitious identity
//!   to each neighbor with its capacity split between them, exactly the
//!   Definition 7 manipulation on a ring.
//! * [`swarm::SwarmMetrics`] — utility traces, convergence round,
//!   fairness, and attacker gain against the honest baseline.
//! * [`parallel`] — run many swarms concurrently (crossbeam scoped
//!   threads), for the protocol-level Theorem 8 experiment (E13).
//! * [`soa`] — the struct-of-arrays core behind [`swarm::Swarm`]: flat
//!   capacity/utility lanes, CSR peer adjacency, contiguous per-edge
//!   send/receive lanes, and a deterministic partitioned parallel runner.
//!   Rounds are two allocation-free passes, which is what takes the
//!   simulator from n = 64 rings to 10⁶-agent swarms.
//! * [`membership`] — dynamic membership between rounds: join, leave, and
//!   Tsoukatos-style reciprocity rewiring with free-list slot recycling
//!   and incremental CSR patching.
//!
//! The simulator is deliberately *independent* of `prs-dynamics`: it models
//! identities and messages rather than a global allocation vector, so
//! agreement between the two engines (asserted in tests) is a genuine
//! cross-validation of the protocol semantics — and its fixed point is the
//! BD allocation, tying the whole stack back to `prs-bd`.
//!
//! Simulation of real swarms (the paper's deployment context) is the
//! substitution documented in DESIGN.md: same code path, synthetic
//! topologies.

pub mod agent;
pub mod membership;
pub mod metrics;
pub mod parallel;
pub mod soa;
pub mod swarm;

pub use agent::{AgentId, AgentState, Strategy};
pub use membership::{MembershipError, MembershipEvent, MembershipOutcome};
pub use metrics::{attack_impact, jain_fairness, AttackImpact};
pub use soa::{CapacityError, CsrTopology, SoaSwarm};
pub use swarm::{Swarm, SwarmConfig, SwarmMetrics};
