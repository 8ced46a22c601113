#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # prs-dynamics — proportional response dynamics
//!
//! Definition 1 of the paper (after Wu–Zhang STOC'07): every agent starts by
//! splitting its resource evenly among its neighbors,
//! `x_vu(0) = w_v / d_v`, and from then on responds proportionally to what it
//! received in the previous period,
//!
//! ```text
//! x_vu(t+1) = w_v · x_uv(t) / Σ_{k ∈ Γ(v)} x_kv(t).
//! ```
//!
//! Wu–Zhang proved these dynamics converge to the fixed-point **BD
//! allocation** (Proposition 6), which `prs-bd` computes in closed form —
//! giving this crate a ground truth to converge against, and the test-suite
//! a strong cross-validation: a distributed, message-passing protocol and an
//! exact combinatorial algorithm must agree.
//!
//! The f64 rounds run on `prs_p2psim::SoaSwarm`, the one f64 engine of the
//! stack. This crate adds:
//!
//! * [`run_until_close`] — step a swarm until its cycle-averaged utilities
//!   are within `eps` of a target, with Richardson checkpoints for the
//!   sublinear `α = 1` tail; returns a [`ConvergenceReport`].
//! * [`ConvergenceTrace`] — per-round error traces and decay-rate estimates.
//! * [`ExactEngine`] — exact rational iteration (denominators grow with the
//!   round count; intended for small instances and short horizons, where it
//!   certifies the f64 engine against drift).

pub mod convergence;
pub mod engine_exact;
pub mod trace;

pub use convergence::{run_until_close, ConvergenceReport};
pub use engine_exact::ExactEngine;
pub use trace::ConvergenceTrace;
