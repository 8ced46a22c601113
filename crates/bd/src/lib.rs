#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # prs-bd — bottleneck decomposition and the BD Allocation Mechanism
//!
//! This crate implements the combinatorial heart of the paper:
//!
//! * **Bottleneck decomposition** (Definition 2, Wu–Zhang): repeatedly find
//!   the *maximal bottleneck* `B_i` — the largest vertex set minimizing the
//!   inclusive expansion ratio `α(S) = w(Γ(S))/w(S)` — take `C_i = Γ(B_i)`,
//!   remove both, recurse. Implemented exactly for **arbitrary graphs** via a
//!   Dinkelbach-style parametric max-flow (see [`decomposition`]): a
//!   Hall-type feasibility network decides `min_S α(S) ≥ α`, min-cuts yield
//!   strictly better candidates until the optimum is hit, and residual
//!   reachability extracts the (unique) maximal bottleneck.
//! * **One round solver.** Every round of [`decompose`] and of a
//!   [`DecompositionSession`] picks a candidate ratio — the alive set's own
//!   ratio, a cached shape, or the previous round's bottleneck — and
//!   certifies it with one Dinkelbach descent on the Hall network scaled by
//!   `p·D` to integers: checked `i128` first, BigInt when a capacity
//!   outgrows the word. Uniform scaling preserves every decision, so the
//!   results are bit-identical to the Rational-capacity descent
//!   [`decompose_exact`].
//! * **Class partition** (Definition 4): every agent is a B-class or C-class
//!   vertex (both, in the terminal `B_k = C_k`, `α_k = 1` pair).
//! * **BD Allocation Mechanism** (Definition 5): the per-pair bipartite
//!   max-flow allocation whose utilities obey Proposition 6
//!   (`U_v = w_v·α_i` for `v ∈ B_i`, `U_v = w_v/α_i` for `v ∈ C_i`), and
//!   which is the fixed point of the proportional response dynamics.
//! * Two test oracles in [`reference`]: [`decompose_exact`], the
//!   Rational-capacity descent that shares no arithmetic with the scaled
//!   ladder, and an exhaustive subset scan for small instances.
//!
//! Everything is computed in exact arithmetic; α-ratio ties —
//! which decide the combinatorial shape of the decomposition — are resolved
//! exactly, never by floating-point luck.
//!
//! ## Example
//!
//! ```
//! use prs_graph::builders::figure1_example;
//! use prs_bd::decompose;
//! use prs_numeric::ratio;
//!
//! let g = figure1_example();
//! let bd = decompose(&g).unwrap();
//! assert_eq!(bd.pairs().len(), 2);
//! assert_eq!(bd.pairs()[0].alpha, ratio(1, 3));   // (B₁,C₁) = ({v1,v2},{v3})
//! assert_eq!(bd.pairs()[1].alpha, ratio(1, 1));   // (B₂,C₂) = ({v4,v5,v6}, same)
//! ```

pub mod allocation;
pub mod decomposition;
pub mod delta;
pub mod error;
pub mod par;
pub mod reference;
pub mod session;

pub use allocation::{allocate, Allocation};
pub use decomposition::{
    decompose, decompose_exact, AgentClass, BottleneckDecomposition, BottleneckPair,
};
pub use delta::{Delta, EdgeOp, UpdateOutcome};
pub use error::BdError;
pub use par::SessionPool;
pub use session::{DecompositionSession, SessionStats};
