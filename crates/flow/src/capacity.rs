//! The numeric-backend abstraction behind the single Dinic kernel.
//!
//! Every flow engine in this crate is the same algorithm — BFS level
//! graph, explicit-stack DFS augmentation, residual min-cut extraction —
//! over a different exact number type. [`Capacity`] captures exactly what
//! the kernel needs from that number type: a zero, reference arithmetic,
//! the bottleneck ordering, and the saturation and termination tests. Every
//! comparison is exact; the checked-`i128` backend overrides the last two
//! only to close the network once its arithmetic has overflowed (see
//! `network_i128`).
//!
//! The trait also owns the per-engine observability surface: stable span
//! names, the `engine` span attribute, and the counters the kernel bumps,
//! which each backend declares for itself (`flow.exact_*`, `flow.int_*`,
//! `flow.i128_*`).

use prs_numeric::Rational;
use prs_trace::Counter;

/// An arc capacity: a finite backend value or `+∞`.
///
/// Infinite capacities appear on the `B_i × C_i` middle edges of the
/// Definition 5 networks; modelling them exactly (rather than with a large
/// finite surrogate) keeps min-cut reasoning clean — an infinite arc can
/// never be a cut edge. The parameter defaults to [`Rational`] so existing
/// call sites can keep writing plain `Cap` for the exact engine.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Cap<C = Rational> {
    /// A finite capacity in the backend's units.
    Finite(C),
    /// Unbounded capacity (never a min-cut edge).
    Infinite,
}

impl<C: Capacity> Cap<C> {
    /// True iff the capacity is a finite zero (the arc can never carry flow).
    pub fn is_zero(&self) -> bool {
        matches!(self, Cap::Finite(c) if c.is_zero())
    }
}

/// A numeric backend the Dinic kernel can run on.
///
/// Implementations provide reference arithmetic (capacities can be
/// arbitrary-precision, so the kernel never clones where a borrow will
/// do), the bottleneck ordering, and the saturation predicate.
pub trait Capacity: Clone + PartialEq + std::fmt::Debug {
    /// Engine label surfaced as the `engine` span attribute
    /// (`"exact"`, `"int"`, `"i128"`).
    const ENGINE: &'static str;
    /// Stable span name for one BFS phase.
    const SPAN_BFS: &'static str;
    /// Stable span name for one full max-flow computation.
    const SPAN_MAX_FLOW: &'static str;
    /// Counts the engine's Dinic BFS phases.
    const BFS_PHASES: &'static Counter;
    /// Counts the engine's augmenting paths pushed.
    const AUGMENTING_PATHS: &'static Counter;
    /// Counts the engine's max-flow computations run to completion.
    const MAX_FLOWS: &'static Counter;

    /// The additive identity (no flow).
    fn zero() -> Self;
    /// True iff the value is exactly zero.
    fn is_zero(&self) -> bool;
    /// True iff the value is strictly negative (reverse-arc flows are).
    fn is_negative(&self) -> bool;
    /// True iff the value is strictly positive.
    fn is_positive(&self) -> bool {
        !self.is_zero() && !self.is_negative()
    }
    /// Total order used by the bottleneck fold; ties keep the earlier arc.
    fn le(&self, rhs: &Self) -> bool;
    /// `self += rhs` by reference.
    fn add_assign_ref(&mut self, rhs: &Self);
    /// `self -= rhs` by reference.
    fn sub_assign_ref(&mut self, rhs: &Self);
    /// `lhs - rhs` by reference (residual capacity, remaining supply).
    fn sub_ref(lhs: &Self, rhs: &Self) -> Self;

    /// Saturation predicate: can an arc with capacity `cap` and current
    /// `flow` still carry more? `flow < cap`, except on a poisoned
    /// checked-`i128` run, where no arc can.
    fn has_headroom(flow: &Self, cap: &Self) -> bool;
    /// Loop-termination test on an augmentation result: exactly zero, or
    /// any result of a poisoned checked-`i128` run.
    fn exhausted(pushed: &Self) -> bool;
}

/// Implement the boilerplate half of [`Capacity`] — reference arithmetic,
/// ordering, the exact saturation and termination tests — for a backend
/// type from `prs-numeric`. The per-engine observability consts stay
/// written out at each impl site, where their stability matters.
macro_rules! exact_capacity_arith {
    () => {
        fn zero() -> Self {
            Self::zero()
        }
        fn is_zero(&self) -> bool {
            self.is_zero()
        }
        fn is_negative(&self) -> bool {
            self.is_negative()
        }
        fn le(&self, rhs: &Self) -> bool {
            self <= rhs
        }
        fn add_assign_ref(&mut self, rhs: &Self) {
            *self += rhs;
        }
        fn sub_assign_ref(&mut self, rhs: &Self) {
            *self -= rhs;
        }
        fn sub_ref(lhs: &Self, rhs: &Self) -> Self {
            lhs - rhs
        }
        fn has_headroom(flow: &Self, cap: &Self) -> bool {
            flow < cap
        }
        fn exhausted(pushed: &Self) -> bool {
            pushed.is_zero()
        }
    };
}

pub(crate) use exact_capacity_arith;
