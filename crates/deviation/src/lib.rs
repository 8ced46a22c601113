#![warn(missing_docs)]
//! # prs-deviation — single-parameter deviation analysis
//!
//! Section III-B of the paper studies how the bottleneck decomposition, the
//! α-ratio `α_v(x)` and the utility `U_v(x)` of an agent `v` respond to a
//! *single scalar parameter* — the weight `x ∈ [0, w_v]` that `v` reports.
//! The key structural facts (all reproduced executable here):
//!
//! * `𝓑(x)` is piecewise-constant in `x`: the domain splits into finitely
//!   many intervals `⟨a_i, b_i⟩` with a fixed combinatorial shape inside
//!   each ([`sweep()`]); each breakpoint is an α-equality of Möbius functions,
//!   solved exactly ([`solve_breakpoint`]).
//! * **Theorem 10**: `U_v(x)` is continuous and monotone non-decreasing.
//! * **Proposition 11 / Fig. 2**: `α_v(x)` is non-decreasing while `v` is
//!   C-class, non-increasing while B-class, with at most one crossover `x*`
//!   where `α_v(x*) = 1` (cases B-1 / B-2 / B-3, [`classify_prop11`]).
//! * **Proposition 12 / Fig. 3**: at a breakpoint the pair containing `v`
//!   merges with, or splits from, a neighboring pair, with the α-ratios
//!   agreeing at the junction; `v` never switches class at a breakpoint.
//!
//! The same sweep machinery is reused by `prs-sybil` for the two-endpoint
//! family `P_v(w₁, w_v − w₁)` — any one-parameter family of graphs
//! implementing [`GraphFamily`] can be swept.

pub mod family;
pub mod moebius;
pub mod prop11;
pub mod prop12;
pub mod reference;
pub mod sweep;
pub mod theorem10;

pub use family::{GraphFamily, MisreportFamily};
pub use moebius::{pair_moebius, solve_breakpoint, Breakpoint, Moebius};
pub use prop11::{classify_prop11, Prop11Case};
pub use prop12::{classify_events, BreakpointEvent, EventKind};
pub use sweep::{sweep, AlphaSample, ShapeInterval, SweepConfig, SweepResult};
pub use theorem10::{check_theorem10_monotonicity, Theorem10Report};
