#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # prs-sybil — Sybil attacks on the BD mechanism over rings
//!
//! The paper's object of study: a manipulative agent `v` on a ring splits
//! into two fictitious nodes `v¹, v²` (on a ring, `d_v = 2`, so `m = 2` is
//! the only nontrivial Sybil split) and divides its weight `w_v = w₁ + w₂`.
//! Each ring neighbor of `v` is attached to one copy, turning the ring into
//! the path `P_v(w₁, w₂)` with the copies as leaves. The attacker's payoff
//! is `U_{v¹} + U_{v²}` under the BD allocation of the path; the **incentive
//! ratio** `ζ_v` is the best achievable payoff divided by the honest utility
//! `U_v` on the ring (Definition 7).
//!
//! **Theorem 8** (the paper's main result): `ζ = 2` exactly, tightening the
//! previous `[2, 3]` bracket. This crate makes the whole argument
//! executable:
//!
//! * [`context`] — one agent's [`SybilContext`]: its ring facts and one
//!   table of split paths that every check below reads.
//! * [`split`] — the split-path family `P_v(w₁, w_v − w₁)`, the honest
//!   split `(w₁⁰, w₂⁰)` read off the ring's BD allocation, and the Lemma 9
//!   identity `U_{v¹}(w₁⁰, w₂⁰) + U_{v²}(w₁⁰, w₂⁰) = U_v`.
//! * [`attack`] — the exact-arithmetic optimizer for the best split
//!   (grid sweep + recursive zoom; every evaluated point is an exact BD
//!   decomposition, so every reported ratio is a certified lower bound on
//!   `ζ_v` and the `≤ 2` check is exact at every sample).
//! * [`cases`] — the Lemma 14 / Lemma 20 classification of the initial
//!   path's decomposition (Cases C-1, C-2, C-3, D-1; Fig. 4).
//! * [`stages`] — the two-stage trajectory decomposition of the proof
//!   (Stages C-1/C-2 and D-1/D-2) with the per-stage utility deltas
//!   `δ`, `Δ` and their lemma-level sign checks (Lemmas 16, 18, 19, 22, 24).
//! * [`theorem8`] — instance-level and family-level verification that
//!   `ζ_v ≤ 2`, plus a parallel worst-case search used to exhibit the lower
//!   bound (`ζ → 2`).

//!
//! The [`general`] module extends the attack machinery beyond rings —
//! neighbor partitions into `m ≤ d_v` copies on arbitrary graphs — making
//! the conclusion's conjecture (ζ = 2 for general networks) empirically
//! testable.

pub mod attack;
pub mod cases;
pub mod context;
pub mod exact;
pub mod exhaustive;
pub mod extensions;
pub mod general;
pub mod split;
pub mod stages;
pub mod theorem8;

pub use attack::{best_sybil_split, AttackConfig, SplitSample, SybilOutcome};
pub use cases::{classify_initial_path, CaseViolation, InitialPathCase};
pub use context::SybilContext;
pub use exact::{certified_best_split, CertifiedOutcome};
pub use exhaustive::{exhaustive_ring_audit, ExhaustiveReport};
pub use extensions::{
    best_collusion, best_split_with_withholding, CollusionOutcome, WithholdingOutcome,
};
pub use general::{best_general_sybil, GeneralAttackConfig, GeneralSybilOutcome};
pub use split::{honest_split, lemma9_check, SybilSplitFamily};
pub use theorem8::{check_ring_theorem8, worst_case_search, RingTheorem8Report, SearchReport};
