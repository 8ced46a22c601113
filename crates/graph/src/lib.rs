#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # prs-graph — weighted undirected graphs for resource-sharing games
//!
//! The resource-sharing model of Wu–Zhang (STOC'07) and the IPPS'20 ring
//! paper lives on a finite undirected graph `G = (V, E; w)`: vertices are
//! agents, `w_v ≥ 0` is the divisible resource agent `v` brings, and edges
//! are the peering links over which resource is exchanged.
//!
//! This crate provides the graph representation and the combinatorial
//! primitives every other crate builds on:
//!
//! * [`Graph`] — index-based adjacency representation with exact
//!   [`Rational`](prs_numeric::Rational) vertex weights.
//! * [`VertexSet`] — a dense bitset over vertex ids with the set algebra
//!   needed by the bottleneck machinery (`Γ(S)`, unions, complements, …).
//! * [`builders`] — rings, paths, stars, complete graphs, the Fig. 1
//!   example of the paper, and randomized families for property tests.
//!
//! Vertices are plain `usize` indices (`0..n`), following the
//! index-over-pointer idiom for HPC Rust: adjacency is two flat `Vec`s, no
//! `Rc`/`RefCell` graphs, no hashing on hot paths.

pub mod builders;
pub mod error;
pub mod graph;
pub mod random;
pub mod vertex_set;

pub use error::GraphError;
pub use graph::Graph;
pub use vertex_set::VertexSet;

/// Vertex identifier: an index into the graph's vertex arrays.
pub type VertexId = usize;
