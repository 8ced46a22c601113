#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # prs-eg — the Eisenberg–Gale view of the sharing equilibrium
//!
//! Wu–Zhang's fixed point (the BD allocation) is not an isolated
//! combinatorial object: it is the *market equilibrium of the linear
//! exchange economy* in which each agent sells its resource and spends the
//! revenue on neighbors' resources. For this economy the equilibrium
//! utilities are the optimizer of the Eisenberg–Gale convex program
//!
//! ```text
//! maximize   Σ_v w_v · log U_v(X)
//! subject to Σ_{u ∈ Γ(v)} x_vu = w_v,   x ≥ 0,
//! ```
//!
//! i.e. the *proportionally fair* allocation weighted by contribution.
//!
//! This crate solves that program directly — projected gradient ascent on
//! the product of per-agent scaled simplices ([`solver`]) with exact
//! Euclidean simplex projection ([`projection`]) — giving a **third,
//! independent derivation** of the equilibrium utilities next to the
//! closed-form BD mechanism (`prs-bd`) and the distributed dynamics
//! (`prs-dynamics`). The test-suite and experiment E16 confirm all three
//! agree, which is exactly the Wu–Zhang/EG equivalence made executable.

pub mod projection;
pub mod solver;

pub use projection::project_to_simplex;
pub use solver::{solve, EgConfig, EgSolution};
