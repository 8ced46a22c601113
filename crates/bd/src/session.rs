//! `DecompositionSession` — a stateful, warm-started decomposition server.
//!
//! The misreport sweep (Section III-B) and the Sybil grids call
//! [`decompose`](crate::decompose) at hundreds of nearby parameter values.
//! Because the decomposition `𝓑(x)` is **piecewise constant** in any single
//! weight (the breakpoint argument of Section III-B: finitely many candidate
//! ratios `w(Γ(S))/w(S)` cross each other at finitely many `x`), the
//! combinatorial *shape* — which vertices form each round's maximal
//! bottleneck — repeats across almost the entire grid. A cold call cannot
//! exploit that: every round re-runs the exact Dinkelbach descent from the
//! alive set's own ratio.
//!
//! A session keeps the flow arenas **and** a small MRU cache of *shape
//! certificates*: the per-round certified bottleneck sets of recent
//! decompositions, with their certifying flow patterns. Each round then
//! takes the cheapest sound path:
//!
//! 1. **Replay** — a cached round whose exact inputs (alive set, weights on
//!    it, induced adjacency) equal the current round's returns its certified
//!    `(B, α)` verbatim, zero flow work. This dominates inside a sweep:
//!    only one weight moves per grid point, so every round solved after the
//!    moving vertex is peeled is an exact replay of the cached tail.
//! 2. **Warm certification** — otherwise the cached candidate with the
//!    smallest ratio `α̂ = α(B_cached)`, ranked in the round's scaled-integer
//!    words, is certified by one max-flow on the round's scaled-integer
//!    network (see `RoundNets`), pre-seeded with the cached certifying flow
//!    rescaled to the current capacities, so inside a known `ShapeInterval`
//!    the flow is (nearly) maximal before the first BFS.
//! 3. **Descent** — at a breakpoint the certification is infeasible and the
//!    exact Dinkelbach descent resumes from the min cut (still on the
//!    integer network); with no usable candidate at all, the round descends
//!    from `α(alive)` on the same network, as a cold round does.
//!
//! Every path but replay is the same two steps — pick a candidate ratio,
//! then certify it with the one production descent (`certify` in
//! `decomposition.rs`) — so cold, warm, and incremental rounds differ only
//! in where the candidate and the seed flow come from.
//!
//! ## The delta API
//!
//! A session constructed **over an instance**
//! ([`DecompositionSession::new`] takes ownership of the [`Graph`]) serves a
//! *stream of mutations* instead of instance-at-a-time calls:
//! [`apply`](DecompositionSession::apply) takes a [`Delta`] (`SetWeight` /
//! `AddEdge` / `RemoveEdge` / `Batch`), mutates the owned instance
//! transactionally, and reports which tier served it
//! ([`UpdateOutcome::Unchanged`] / [`Recertified`](UpdateOutcome::Recertified)
//! / [`Recomputed`](UpdateOutcome::Recomputed)). A mutation that can move
//! the decomposition runs the same rounds as
//! [`decompose`](DecompositionSession::decompose), with the current
//! result's certificates at the cache front: a round the mutation cannot
//! see replays its certificate, and a round that sees it certifies the
//! smallest cached candidate (the previous bottleneck among them), seeded
//! from that candidate's certifying flow. The tier is read off how the
//! rounds were settled — see `DESIGN.md` §3.3 for the tier soundness
//! arguments.
//!
//! **Bit-identity.** Replay is sound because the round solver is a pure
//! function of the inputs it compares. For *any* vertex set `S`,
//! `α(S) ≥ α* = min α`, so a cached candidate can never seed the descent
//! below the optimum; at the optimum the maximal tight set extracted from
//! the residual graph is unique (flow-independent — DESIGN.md §3.1); and
//! uniform positive scaling of all capacities preserves the feasibility
//! decision, min cuts, and residual reachability, so the integer network
//! extracts the same sets as the rational one. The session therefore
//! changes only where exact arithmetic is spent, never what it concludes;
//! the `session_equivalence` and `incremental_equivalence` property suites
//! enforce this against cold [`decompose`](crate::decompose) calls.

use crate::decomposition::{
    certify, drive, maximal_bottleneck, AgentClass, BottleneckDecomposition, CertEdges, Ratio,
    RoundNets, RoundWeights, Support,
};
use crate::delta::{Delta, EdgeOp, UpdateOutcome};
use crate::error::BdError;
use prs_graph::{Graph, VertexId, VertexSet};
use prs_numeric::Rational;
use prs_trace::Counter;
use std::sync::Arc;

// The process-global twins of `SessionStats`, summed over every session.
static SESSION_HITS: Counter = Counter::new("bd.session_hits");
static SESSION_MISSES: Counter = Counter::new("bd.session_misses");
static SESSION_WARM_STARTS: Counter = Counter::new("bd.session_warm_starts");
// One bump per `apply` that succeeded, by the tier that served it.
static DELTA_UNCHANGED: Counter = Counter::new("bd.delta_unchanged");
static DELTA_RECERTIFIED: Counter = Counter::new("bd.delta_recertified");
static DELTA_RECOMPUTED: Counter = Counter::new("bd.delta_recomputed");

/// How many shapes the MRU cache keeps, all of which a warm-start probe
/// inspects per round. Sweeps alternate between at most two shapes near a
/// breakpoint (the bisection pattern), so a small cache captures
/// essentially all hits without scanning a long list.
const CACHE_SHAPES: usize = 4;

/// Counter snapshot of one session (see [`DecompositionSession::stats`]).
///
/// `hits + misses` equals the total number of decomposition rounds served;
/// `warm_starts ≥ hits` (a warm-started round that fails certification
/// counts as a miss). The process-global counters `bd.session_hits`,
/// `bd.session_misses` and `bd.session_warm_starts` sum the same counts over
/// every session.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Rounds settled by a cached shape: at most one certification max-flow.
    pub hits: u64,
    /// Rounds that ran a descent (no usable cached candidate, or the warm
    /// candidate sat on the wrong side of a breakpoint).
    pub misses: u64,
    /// Rounds seeded from a cached shape (successful or not).
    pub warm_starts: u64,
}

impl SessionStats {
    /// Count one served round as a hit or a miss, here and in the
    /// process-global counters.
    fn record_round(&mut self, hit: bool) {
        if hit {
            self.hits += 1;
            SESSION_HITS.add(1);
        } else {
            self.misses += 1;
            SESSION_MISSES.add(1);
        }
    }

    /// Count one round seeded from a cached certificate.
    fn record_warm_start(&mut self) {
        self.warm_starts += 1;
        SESSION_WARM_STARTS.add(1);
    }
}

/// One certified round of a memoized decomposition: the answer `(B, α)`
/// plus everything needed to (a) replay it verbatim when the round's exact
/// inputs recur and (b) seed the certification max-flow when only the
/// weights moved.
#[derive(Clone)]
struct RoundCert {
    /// The certified maximal bottleneck `B_i`.
    b: VertexSet,
    /// Its certified ratio `α_i`.
    alpha: Rational,
    /// The certification context, shared so replaying a cached round into a
    /// fresh cache entry is a pointer bump, not a deep copy.
    data: Arc<CertData>,
}

/// The inputs and certificate of one solved round.
struct CertData {
    /// The alive set and alive-induced adjacency the round was solved on:
    /// the build that certified it, shared.
    edges: Arc<CertEdges>,
    /// The round's weights: `D` and the words `w_v·D`, or the `Rational`s
    /// where the words overflowed. Replay compares them with the current
    /// round's, which is exact (see `RoundNets::same_weights`).
    weights: RoundWeights,
    /// The certifying max-flow's middle arcs carrying positive flow, as
    /// flows `F` beside their source arcs' capacities `c₀`. A later warm
    /// start seeds the arc `left(v)→right(u)` with `⌊F·c/c₀⌋`, where `c` is
    /// v's source capacity then.
    support: Support,
}

/// One memoized decomposition: the certified per-round bottleneck sets and
/// their certifying flow patterns.
///
/// The capacity signature is implicit: `rounds[i]` is only *used* as a
/// candidate, never trusted — its α-ratio is recomputed exactly against the
/// current weights, and the seeded flow is clamped to the current capacities
/// before the certification max-flow completes it, so a stale entry costs
/// one wasted certification flow at worst and can never corrupt a result.
struct ShapeEntry {
    n: usize,
    rounds: Vec<RoundCert>,
}

/// The owned instance a session serves deltas against, with its current
/// decomposition.
struct DeltaState {
    /// The instance as of the last committed delta.
    graph: Graph,
    /// The decomposition of `graph`; `None` until the first
    /// [`current`](DecompositionSession::current) /
    /// [`apply`](DecompositionSession::apply) forces a solve. Its round
    /// certificates went to the cache front when it was solved.
    bd: Option<BottleneckDecomposition>,
}

/// The round certificates of one decomposition, and how its rounds were
/// settled.
#[derive(Default)]
struct Served {
    /// One certificate per round, in round order.
    certs: Vec<RoundCert>,
    /// Rounds settled by one first-try certification flow.
    flows: usize,
    /// Whether some round descended past its candidate or ran cold.
    descended: bool,
}

/// A reusable decomposition solver: owns the certification flow arenas
/// across calls and memoizes shape certificates so repeated decompositions
/// of nearby instances cost one certification max-flow per round instead of
/// a full Dinkelbach descent.
///
/// Results are **bit-identical** to [`decompose`](crate::decompose) on every
/// input; see the module docs for the argument.
///
/// A session constructed with [`new`](Self::new) *owns* its instance and
/// serves mutations through [`apply`](Self::apply):
///
/// ```
/// use prs_bd::{decompose, DecompositionSession, Delta, UpdateOutcome};
/// use prs_graph::builders;
/// use prs_numeric::int;
///
/// let g = builders::path(vec![int(1), int(10), int(3)]).unwrap();
/// let mut session = DecompositionSession::new(g.clone());
/// assert_eq!(*session.current().unwrap(), decompose(&g).unwrap());
///
/// // Stream a mutation instead of rebuilding the instance:
/// session.apply(Delta::SetWeight { v: 0, w: int(2) }).unwrap();
/// let g2 = builders::path(vec![int(2), int(10), int(3)]).unwrap();
/// assert_eq!(*session.current().unwrap(), decompose(&g2).unwrap());
///
/// // A no-op batch is answered without touching the flow engine:
/// assert_eq!(
///     session.apply(Delta::Batch(vec![])).unwrap(),
///     UpdateOutcome::Unchanged,
/// );
/// ```
///
/// A [`detached`](Self::detached) session has no owned instance and serves
/// instance-at-a-time calls (deviation sweeps, Sybil grids):
///
/// ```
/// use prs_bd::{decompose, DecompositionSession};
/// use prs_graph::builders;
/// use prs_numeric::int;
///
/// let mut session = DecompositionSession::detached();
/// for w in 1..6 {
///     let g = builders::path(vec![int(w), int(10)]).unwrap();
///     assert_eq!(session.decompose(&g).unwrap(), decompose(&g).unwrap());
/// }
/// assert!(session.stats().hits > 0); // the shape repeated across the sweep
/// ```
pub struct DecompositionSession {
    nets: RoundNets,
    /// MRU-ordered shape certificates (front = most recent).
    cache: Vec<ShapeEntry>,
    local: SessionStats,
    /// The owned instance + delta-serving state; `None` for detached
    /// sessions.
    delta: Option<DeltaState>,
}

impl DecompositionSession {
    /// A session owning `g`.
    ///
    /// The first [`current`](Self::current) or [`apply`](Self::apply) call
    /// decomposes the instance; construction itself does no flow work.
    pub fn new(g: Graph) -> Self {
        let mut s = Self::detached();
        s.replace_instance(g);
        s
    }

    /// A session with no owned instance: the delta API is unavailable
    /// (returns [`BdError::DetachedSession`]) but
    /// [`decompose`](Self::decompose) serves arbitrary instances through the
    /// shared arenas and shape cache.
    pub fn detached() -> Self {
        DecompositionSession {
            nets: RoundNets::new(0, true),
            cache: Vec::new(),
            local: SessionStats::default(),
            delta: None,
        }
    }

    /// The owned instance as of the last committed delta (`None` when
    /// detached).
    pub fn graph(&self) -> Option<&Graph> {
        self.delta.as_ref().map(|s| &s.graph)
    }

    /// Lifetime hit/miss/warm-start counters for this session. The same
    /// counts also flow into the process-global counters `bd.session_hits`,
    /// `bd.session_misses` and `bd.session_warm_starts`.
    pub fn stats(&self) -> SessionStats {
        self.local
    }

    /// Number of cached shape certificates.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Replace (or attach) the owned instance wholesale, dropping its
    /// current decomposition while keeping the flow arenas and the MRU shape
    /// cache warm.
    pub fn replace_instance(&mut self, g: Graph) {
        self.delta = Some(DeltaState { graph: g, bd: None });
    }

    /// The decomposition of the owned instance, solving it on first use.
    pub fn current(&mut self) -> Result<&BottleneckDecomposition, BdError> {
        let mut state = self.delta.take().ok_or(BdError::DetachedSession)?;
        let solved = match state.bd.take() {
            Some(bd) => Ok(bd),
            None => self.run_decompose(&state.graph).map(|(bd, _)| bd),
        };
        let state = self.delta.insert(state);
        Ok(state.bd.insert(solved?))
    }

    /// Apply one [`Delta`] to the owned instance and re-serve the
    /// decomposition, reporting which tier answered (module docs +
    /// `DESIGN.md` §3.3). Atomic: on any error the instance and the current
    /// decomposition are left exactly as they were.
    pub fn apply(&mut self, delta: Delta) -> Result<UpdateOutcome, BdError> {
        let mut sp = prs_trace::span("bd", "delta_apply");
        sp.attr("ops", || delta.len().to_string());
        let Some(mut state) = self.delta.take() else {
            return Err(BdError::DetachedSession);
        };
        let out = self.apply_to_state(&mut state, &delta);
        self.delta = Some(state);
        match &out {
            Ok(UpdateOutcome::Unchanged) => {
                sp.attr("tier", || "unchanged".to_string());
                DELTA_UNCHANGED.add(1);
            }
            Ok(UpdateOutcome::Recertified { .. }) => {
                sp.attr("tier", || "recertified".to_string());
                DELTA_RECERTIFIED.add(1);
            }
            Ok(UpdateOutcome::Recomputed) => {
                // A routine tier (it serves about half of a churn stream),
                // so it is counted, not raised as an anomaly.
                sp.attr("tier", || "recomputed".to_string());
                DELTA_RECOMPUTED.add(1);
            }
            Err(_) => {
                sp.attr("tier", || "rejected".to_string());
            }
        }
        out
    }

    /// Replace the weight of vertex `v` with `w` — shorthand for
    /// [`apply`](Self::apply)`(Delta::SetWeight { v, w })`.
    pub fn update_weight(&mut self, v: VertexId, w: Rational) -> Result<UpdateOutcome, BdError> {
        self.apply(Delta::SetWeight { v, w })
    }

    /// Insert or remove one edge of the owned instance — shorthand for
    /// [`apply`](Self::apply) with the matching [`Delta`] variant.
    pub fn update_edge(
        &mut self,
        u: VertexId,
        v: VertexId,
        op: EdgeOp,
    ) -> Result<UpdateOutcome, BdError> {
        self.apply(match op {
            EdgeOp::Add => Delta::AddEdge { u, v },
            EdgeOp::Remove => Delta::RemoveEdge { u, v },
        })
    }

    /// The transactional body of [`apply`](Self::apply): every mutation
    /// happens on a scratch copy first, and `state` is only committed once
    /// a full re-serve has succeeded.
    fn apply_to_state(
        &mut self,
        state: &mut DeltaState,
        delta: &Delta,
    ) -> Result<UpdateOutcome, BdError> {
        let mut scratch = state.graph.clone();
        apply_delta_ops(&mut scratch, delta)?;

        // Tier 1a — net no-op: idempotent edge ops and self-cancelling
        // batches leave the instance literally equal, so the current
        // decomposition (whether or not it has been forced yet) still
        // describes it. Zero flow work.
        if scratch == state.graph {
            return Ok(UpdateOutcome::Unchanged);
        }

        // Tier 1b — strictly-C edge insertions leave the decomposition
        // untouched (DESIGN.md §3.3): for every round up to an endpoint's
        // pair, the bottleneck B_r avoids both endpoints, so Γ(B_r) — and
        // with it α_r and the maximal tight set — is unchanged, while α(S)
        // can only grow for other sets; once an endpoint is peeled the edge
        // is invisible to the induced subgraph. (The removal analogue is
        // *not* sound: deleting an edge can lower some α(S) below α_r.)
        let bd = state.bd.as_ref();
        if bd.is_some_and(|bd| only_adds_c_edges(&state.graph, &scratch, bd)) {
            // Cache keeps old adjacency: next solve recertifies rounds holding both endpoints.
            state.graph = scratch;
            return Ok(UpdateOutcome::Unchanged);
        }

        // Tiers 2/3 — the rounds of `decompose`, with the current result's
        // certificates at the cache front: a round the mutation cannot see
        // replays, one that sees it certifies the smallest cached
        // candidate, seeded. With no current result there was nothing to
        // recertify.
        let (bd, flows) = self.run_decompose(&scratch)?;
        let outcome = match flows {
            Some(rounds) if state.bd.is_some() => UpdateOutcome::Recertified { rounds },
            _ => UpdateOutcome::Recomputed,
        };
        state.graph = scratch;
        state.bd = Some(bd);
        Ok(outcome)
    }

    /// Warm-decompose an arbitrary instance on this session's arenas and
    /// shape cache. Bit-identical to [`decompose`](crate::decompose).
    ///
    /// The entry point for many *unrelated* instances: the deviation sweep
    /// and the Sybil split tables decompose every sample through it, one
    /// session per worker. It neither reads nor updates the owned instance;
    /// to serve a stream of mutations of one instance, construct the
    /// session over it ([`DecompositionSession::new`]) and stream [`Delta`]s
    /// through [`apply`](Self::apply), which runs these rounds and reports
    /// how they were settled.
    pub fn decompose(&mut self, g: &Graph) -> Result<BottleneckDecomposition, BdError> {
        self.run_decompose(g).map(|(bd, _)| bd)
    }

    /// Drive a full decomposition through [`solve_round_warm`] and store its
    /// round certificates at the cache front. Also returns the number of
    /// first-try certification flows, or `None` if some round descended or
    /// ran cold.
    fn run_decompose(
        &mut self,
        g: &Graph,
    ) -> Result<(BottleneckDecomposition, Option<usize>), BdError> {
        let mut served = Served::default();
        let (nets, cache, local) = (&mut self.nets, &self.cache, &mut self.local);
        let bd = drive(g, |g, alive, round| {
            solve_round_warm(g, alive, round, nets, cache, local, &mut served)
        })?;
        self.store(g.n(), served.certs);
        Ok((bd, (!served.descended).then_some(served.flows)))
    }

    /// Insert a freshly certified shape at the cache front (MRU), deduping
    /// identical shapes (the fresh entry wins, so the cached flow pattern
    /// tracks the most recent weights) and evicting beyond [`CACHE_SHAPES`].
    fn store(&mut self, n: usize, rounds: Vec<RoundCert>) {
        if let Some(pos) = self.cache.iter().position(|e| {
            e.n == n
                && e.rounds.len() == rounds.len()
                && e.rounds.iter().zip(&rounds).all(|(a, b)| a.b == b.b)
        }) {
            self.cache.remove(pos);
        }
        self.cache.insert(0, ShapeEntry { n, rounds });
        self.cache.truncate(CACHE_SHAPES);
    }
}

impl Default for DecompositionSession {
    /// The default session is [`detached`](DecompositionSession::detached).
    fn default() -> Self {
        Self::detached()
    }
}

/// Apply `delta` to `g`, validating as it goes. Idempotent edge operations
/// (inserting a present edge, removing an absent one) are accepted as
/// no-ops; everything else surfaces the underlying
/// [`GraphError`](prs_graph::GraphError) as [`BdError::InvalidDelta`].
fn apply_delta_ops(g: &mut Graph, delta: &Delta) -> Result<(), BdError> {
    match delta {
        Delta::SetWeight { v, w } => g.try_set_weight(*v, w.clone()).map_err(BdError::from),
        Delta::AddEdge { u, v } => {
            if *u < g.n() && *v < g.n() && u != v && g.has_edge(*u, *v) {
                return Ok(()); // idempotent re-insert
            }
            g.add_edge(*u, *v).map_err(BdError::from)
        }
        Delta::RemoveEdge { u, v } => {
            if *u < g.n() && *v < g.n() && !g.has_edge(*u, *v) {
                return Ok(()); // idempotent removal of an absent edge
            }
            g.remove_edge(*u, *v).map_err(BdError::from)
        }
        Delta::Batch(items) => {
            for d in items {
                apply_delta_ops(g, d)?;
            }
            Ok(())
        }
    }
}

/// True iff `new` is `old` plus edges whose endpoints are both strictly
/// C-class in `bd`: the same weights, every old edge, and no other new
/// edge (tier 1b).
fn only_adds_c_edges(old: &Graph, new: &Graph, bd: &BottleneckDecomposition) -> bool {
    let strictly_c = |v| bd.class_of(v) == AgentClass::C;
    old.weights() == new.weights()
        && old.edges().iter().all(|&(u, v)| new.has_edge(u, v))
        && new
            .edges()
            .iter()
            .all(|&(u, v)| old.has_edge(u, v) || (strictly_c(u) && strictly_c(v)))
}

/// One session round: pick a candidate, certify it, take one snapshot.
///
/// The candidate is, cheapest first:
///
/// 1. **Replay**: a cached round whose exact inputs (alive set, weights,
///    induced adjacency) match the current ones returns its certified
///    `(B, α)` verbatim — zero flow work. Sound because the round solver is
///    a pure function of those inputs.
/// 2. **Cached shape**: the best candidate set in the MRU cache; its
///    ratio `α̂` is certified seeded with the cached certifying flow.
/// 3. **Cold**: [`maximal_bottleneck`]'s descent from `α(alive)`.
///
/// A certification that fails at a breakpoint resumes the exact descent.
fn solve_round_warm(
    g: &Graph,
    alive: &VertexSet,
    round: usize,
    nets: &mut RoundNets,
    cache: &[ShapeEntry],
    local: &mut SessionStats,
    served: &mut Served,
) -> Result<(VertexSet, Rational), BdError> {
    // The `path` attribute names which of the session's tiers settled the
    // round: `replay`, `warm_hit`, `warm_descent`, or `cold`.
    let mut sp = prs_trace::span("bd", "session_round");
    sp.attr("round", || round.to_string());
    nets.enter(g, alive, round);
    if let Some(rc) = replay_candidate(g, alive, round, cache, nets) {
        sp.attr("path", || "replay".to_string());
        local.record_round(true);
        local.record_warm_start();
        served.certs.push(rc.clone());
        return Ok((rc.b.clone(), rc.alpha.clone()));
    }
    let (b, alpha) = match best_warm_candidate(g, alive, round, cache, nets) {
        Some((alpha_hat, idx)) => {
            local.record_warm_start();
            let support = &cache[idx].rounds[round].data.support;
            let c = certify(g, alive, round, nets, alpha_hat, Some(support), "session")?;
            let path = if c.first_try {
                "warm_hit"
            } else {
                "warm_descent"
            };
            sp.attr("path", || path.to_string());
            local.record_round(c.first_try);
            served.flows += usize::from(c.first_try);
            served.descended |= !c.first_try;
            (c.b, c.alpha)
        }
        None => {
            sp.attr("path", || "cold".to_string());
            local.record_round(false);
            served.descended = true;
            maximal_bottleneck(g, alive, round, nets)?
        }
    };
    served.certs.push(snapshot_cert(nets, g, alive, &b, &alpha));
    Ok((b, alpha))
}

/// Find a cached round whose exact inputs — alive set, weights on it, and
/// the alive-induced adjacency — equal the current round's. The round
/// solver is a pure function of those inputs, so its certified `(B, α)`
/// replays verbatim: no network rebuild, no ratio computation, no flow.
/// The weights compare as the entered round's words.
///
/// This is the dominant path inside a sweep: only one vertex's weight moves
/// per grid point, so every round solved after that vertex is peeled is an
/// exact replay of the cached decomposition's tail.
fn replay_candidate<'a>(
    g: &Graph,
    alive: &VertexSet,
    round: usize,
    cache: &'a [ShapeEntry],
    nets: &RoundNets,
) -> Option<&'a RoundCert> {
    cache
        .iter()
        .filter(|entry| entry.n == g.n())
        .filter_map(|entry| entry.rounds.get(round))
        .find(|rc| {
            rc.data.edges.alive == *alive
                && nets.same_weights(g, alive, &rc.data.weights)
                && rc.data.edges.matches(g, alive)
        })
}

/// Probe the MRU cache for this round's best warm seed: the
/// candidate set with the smallest α-ratio among usable entries
/// (`0 < α̂ ≤ 1`, candidate alive), together with the cache index it came
/// from (its certifying flow pattern seeds the max-flow). Smaller seeds
/// dominate: `α(S) ≥ α*` always, so the smallest available ratio is the one
/// closest to the optimum. Candidates rank in words, the earlier entry
/// winning a tie, and only the winner becomes a `Rational`.
fn best_warm_candidate(
    g: &Graph,
    alive: &VertexSet,
    round: usize,
    cache: &[ShapeEntry],
    nets: &mut RoundNets,
) -> Option<(Rational, usize)> {
    let mut best: Option<(Ratio, usize)> = None;
    for (idx, entry) in cache.iter().enumerate() {
        if entry.n != g.n() || round >= entry.rounds.len() {
            continue;
        }
        let cand = &entry.rounds[round].b;
        if cand.is_empty() || !cand.is_subset(alive) {
            continue;
        }
        let Some(alpha_hat) = nets.ratio(g, alive, cand).filter(Ratio::usable) else {
            continue;
        };
        if best.as_ref().is_none_or(|(b, _)| alpha_hat.below(b)) {
            best = Some((alpha_hat, idx));
        }
    }
    best.map(|(a, idx)| (a.to_rational(), idx))
}

/// Snapshot a freshly certified round into a [`RoundCert`]: the answer,
/// the round's words, the topology of the build that certified it
/// (shared, not copied), and the certifying max-flow's middle-arc pattern.
/// Each support arc keeps its flow `F` and its source arc's capacity `c₀`
/// as read off whichever engine (checked `i128` or BigInt) settled the
/// round, in that engine's width; `seed_from_support` rescales them for
/// whichever engine certifies next time.
fn snapshot_cert(
    nets: &RoundNets,
    g: &Graph,
    alive: &VertexSet,
    b: &VertexSet,
    alpha: &Rational,
) -> RoundCert {
    let (support, edges) = nets.support();
    RoundCert {
        b: b.clone(),
        alpha: alpha.clone(),
        data: Arc::new(CertData {
            edges,
            weights: nets.weights(g, alive),
            support,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose;
    use prs_graph::builders;
    use prs_numeric::{int, ratio, Rational};

    fn path_graph(w0: Rational) -> Graph {
        builders::path(vec![w0, int(10), int(3)]).unwrap()
    }

    #[test]
    fn session_matches_cold_decompose_across_a_sweep() {
        let mut session = DecompositionSession::detached();
        for k in 1..40 {
            let g = path_graph(ratio(k, 7));
            let warm = session.decompose(&g).unwrap();
            let cold = decompose(&g).unwrap();
            assert_eq!(warm, cold, "diverged at w0 = {}/7", k);
        }
        let s = session.stats();
        assert!(s.hits > 0, "a 40-point sweep must re-enter shapes: {s:?}");
        assert!(s.hits + s.misses > 0);
        assert!(s.warm_starts >= s.hits);
    }

    #[test]
    fn kept_builds_certify_as_fresh_builds_do() {
        // Two sessions see the same sweep of agent 0 on the ring
        // (6, 2, 4, 3, 5); one keeps its builds, the other gets fresh
        // networks before every call. Each certified round must carry the
        // same support, arc for arc, and the kept session's round 0 keeps
        // its build (the certificate shares the very same arc ids).
        let (mut kept, mut fresh) = (
            DecompositionSession::detached(),
            DecompositionSession::detached(),
        );
        let mut kept_round0 = 0;
        for k in 1..=40 {
            let g = builders::ring(vec![ratio(k, 5), int(2), int(4), int(3), int(5)]).unwrap();
            fresh.nets = RoundNets::new(0, true);
            let before = kept
                .cache
                .first()
                .map(|e| Arc::clone(&e.rounds[0].data.edges));
            assert_eq!(kept.decompose(&g), fresh.decompose(&g), "w0 = {k}/5");
            let (a, b) = (&kept.cache[0].rounds, &fresh.cache[0].rounds);
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.data.support, y.data.support, "w0 = {k}/5");
            }
            kept_round0 += usize::from(before.is_some_and(|e| Arc::ptr_eq(&e, &a[0].data.edges)));
        }
        assert!(
            kept_round0 > 30,
            "round 0 kept its build {kept_round0} times"
        );
    }

    #[test]
    fn word_ratios_rank_as_rationals_do() {
        // Every pair of candidate sets on a 4-ring ranks in words exactly as
        // its `Rational` ratios do, ties included (neither is below the
        // other); weights near 2^100 overflow the cross-products and take
        // the `Rational` comparison. The probe over a four-entry cache picks
        // what a strict `Rational` scan picks, the earlier entry on a tie.
        let entry = |b: &[VertexId]| ShapeEntry {
            n: 4,
            rounds: vec![RoundCert {
                b: VertexSet::from_iter_cap(4, b.iter().copied()),
                alpha: Rational::one(),
                data: Arc::new(CertData {
                    edges: Arc::default(),
                    weights: RoundWeights::Exact(Vec::new()),
                    support: Support::I128(Vec::new()),
                }),
            }],
        };
        let cache = [&[0][..], &[2], &[1, 3], &[0, 2]].map(entry);
        let big = int(2).pow(100);
        for w in [[1, 1, 1, 1], [3, 1, 3, 1], [5, 2, 7, 3], [9, 4, 2, 8]] {
            for scale in [int(1), big.clone(), ratio(1, 7)] {
                let g = builders::ring(w.map(|x| &int(x) * &scale).into()).unwrap();
                let alive = VertexSet::full(4);
                let mut nets = RoundNets::new(0, true);
                nets.enter(&g, &alive, 0);
                let sets = (1..16)
                    .map(|m| VertexSet::from_iter_cap(4, (0..4).filter(|v| m >> v & 1 == 1)));
                let ranked: Vec<_> = sets
                    .map(|s| {
                        (
                            nets.ratio(&g, &alive, &s).unwrap(),
                            g.alpha_ratio_in(&s, &alive).unwrap(),
                        )
                    })
                    .collect();
                for (a, exact_a) in &ranked {
                    assert!(matches!(a, Ratio::Words(..)), "{w:?}");
                    assert_eq!(
                        (a.to_rational(), a.usable()),
                        (exact_a.clone(), *exact_a <= Rational::one())
                    );
                    for (b, exact_b) in &ranked {
                        assert_eq!(
                            a.below(b),
                            exact_a < exact_b,
                            "{w:?}: {exact_a} vs {exact_b}"
                        );
                    }
                }
                let mut want: Option<(Rational, usize)> = None;
                for (idx, e) in cache.iter().enumerate() {
                    let a = g.alpha_ratio_in(&e.rounds[0].b, &alive).unwrap();
                    if a <= Rational::one() && want.as_ref().is_none_or(|(b, _)| a < *b) {
                        want = Some((a, idx));
                    }
                }
                let got = best_warm_candidate(&g, &alive, 0, &cache, &mut nets);
                assert_eq!(got, want, "{w:?}");
            }
        }
    }

    #[test]
    fn cache_evicts_beyond_capacity_and_dedupes() {
        let mut session = DecompositionSession::detached();
        // Same shape every time → a single deduped entry.
        for k in 1..5 {
            session.decompose(&path_graph(int(k))).unwrap();
        }
        assert_eq!(session.cache_len(), 1);
        // Five distinct shapes (paths of 2..=6 vertices) evict down to the
        // cache size, oldest first.
        let path = |n: i64| builders::path((1..=n).map(int).collect()).unwrap();
        for n in 2..=6 {
            session.decompose(&path(n)).unwrap();
        }
        assert_eq!(session.cache_len(), CACHE_SHAPES);
        let ns = |s: &DecompositionSession| s.cache.iter().map(|e| e.n).collect::<Vec<_>>();
        assert_eq!(ns(&session), [6, 5, 4, 3]);
        // A repeated shape moves to the front instead of taking a new slot.
        session.decompose(&path(4)).unwrap();
        assert_eq!(ns(&session), [4, 6, 5, 3]);
    }

    #[test]
    fn counters_are_monotone_and_account_every_round() {
        let mut session = DecompositionSession::detached();
        let mut prev = SessionStats::default();
        let mut rounds_served = 0u64;
        for k in 1..12 {
            let g = path_graph(int(k));
            let bd = session.decompose(&g).unwrap();
            rounds_served += bd.k() as u64;
            let s = session.stats();
            assert!(s.hits >= prev.hits);
            assert!(s.misses >= prev.misses);
            assert!(s.warm_starts >= prev.warm_starts);
            assert_eq!(s.hits + s.misses, rounds_served);
            prev = s;
        }
    }

    #[test]
    fn errors_propagate_and_leave_session_usable() {
        let mut session = DecompositionSession::detached();
        let empty = Graph::new(vec![], &[]).unwrap();
        assert_eq!(session.decompose(&empty), Err(BdError::EmptyGraph));
        let isolated = Graph::new(vec![int(1), int(1), int(1)], &[(0, 1)]).unwrap();
        assert!(matches!(
            session.decompose(&isolated),
            Err(BdError::ZeroAlpha { .. })
        ));
        let g = path_graph(int(3));
        assert_eq!(session.decompose(&g).unwrap(), decompose(&g).unwrap());
    }

    // ---- delta API ----

    #[test]
    fn owned_session_current_matches_cold() {
        let g = path_graph(int(4));
        let mut session = DecompositionSession::new(g.clone());
        assert_eq!(session.graph(), Some(&g));
        assert_eq!(*session.current().unwrap(), decompose(&g).unwrap());
        // Second call is served from state, same answer.
        assert_eq!(*session.current().unwrap(), decompose(&g).unwrap());
    }

    #[test]
    fn detached_session_rejects_delta_api() {
        let mut session = DecompositionSession::detached();
        assert_eq!(session.current().err(), Some(BdError::DetachedSession));
        assert_eq!(
            session.apply(Delta::SetWeight { v: 0, w: int(1) }).err(),
            Some(BdError::DetachedSession)
        );
        assert_eq!(session.graph(), None);
        // Attaching an instance turns the delta API on.
        session.replace_instance(path_graph(int(2)));
        assert!(session.current().is_ok());
    }

    #[test]
    fn noop_deltas_are_unchanged_with_zero_flow_work() {
        let mut session = DecompositionSession::new(path_graph(int(5)));
        session.current().unwrap();
        let hits_before = session.stats();
        // Empty batch.
        assert_eq!(
            session.apply(Delta::Batch(vec![])).unwrap(),
            UpdateOutcome::Unchanged
        );
        // Idempotent re-insert of an existing edge.
        assert_eq!(
            session.apply(Delta::AddEdge { u: 0, v: 1 }).unwrap(),
            UpdateOutcome::Unchanged
        );
        // Idempotent removal of an absent edge.
        assert_eq!(
            session.apply(Delta::RemoveEdge { u: 0, v: 2 }).unwrap(),
            UpdateOutcome::Unchanged
        );
        // Re-stating the current weight.
        assert_eq!(
            session.update_weight(1, int(10)).unwrap(),
            UpdateOutcome::Unchanged
        );
        // A batch whose net effect cancels out.
        assert_eq!(
            session
                .apply(Delta::Batch(vec![
                    Delta::AddEdge { u: 0, v: 2 },
                    Delta::SetWeight { v: 0, w: int(9) },
                    Delta::SetWeight { v: 0, w: int(5) },
                    Delta::RemoveEdge { u: 0, v: 2 },
                ]))
                .unwrap(),
            UpdateOutcome::Unchanged
        );
        // None of those touched a solver round.
        assert_eq!(session.stats(), hits_before);
    }

    #[test]
    fn strictly_c_edge_insertion_is_unchanged() {
        // Star with a heavy hub: B = {hub}, C = all leaves, single round.
        let g = builders::star(vec![int(10), int(1), int(1), int(1)]).unwrap();
        let mut session = DecompositionSession::new(g.clone());
        let before = session.current().unwrap().clone();
        assert_eq!(before.class_of(1), AgentClass::C);
        assert_eq!(before.class_of(2), AgentClass::C);
        let stats_before = session.stats();
        assert_eq!(
            session.update_edge(1, 2, EdgeOp::Add).unwrap(),
            UpdateOutcome::Unchanged
        );
        assert_eq!(session.stats(), stats_before, "no solver round may run");
        // The committed instance has the edge; the decomposition is
        // (provably, and verifiably) identical to cold on the new graph.
        let committed = session.graph().unwrap().clone();
        assert!(committed.has_edge(1, 2));
        assert_eq!(*session.current().unwrap(), decompose(&committed).unwrap());
        assert_eq!(*session.current().unwrap(), before);
        // A later visible delta on the post-insertion instance still matches
        // cold (stale certificates may cost a flow, never correctness).
        session.update_weight(3, int(7)).unwrap();
        let committed = session.graph().unwrap().clone();
        assert_eq!(*session.current().unwrap(), decompose(&committed).unwrap());
    }

    #[test]
    fn weight_delta_matches_cold_and_reports_tier() {
        let mut session = DecompositionSession::new(path_graph(int(5)));
        session.current().unwrap();
        for k in [6, 2, 40, 1] {
            let out = session.update_weight(0, int(k)).unwrap();
            assert_ne!(out, UpdateOutcome::Unchanged, "w0 = {k} must be visible");
            let committed = session.graph().unwrap().clone();
            assert_eq!(
                *session.current().unwrap(),
                decompose(&committed).unwrap(),
                "diverged at w0 = {k}"
            );
        }
    }

    #[test]
    fn weight_move_inside_its_shape_interval_is_recertified() {
        // Agent 0 of the ring (6, 2, 4, 3, 5) keeps its shape for weights in
        // (4, 6] (the misreport sweep's one breakpoint is 4), so at weight 5
        // every previous bottleneck's exact ratio certifies on the first try.
        let g = builders::ring(vec![int(6), int(2), int(4), int(3), int(5)]).unwrap();
        let mut session = DecompositionSession::new(g);
        session.current().unwrap();
        let out = session.update_weight(0, int(5)).unwrap();
        assert!(matches!(out, UpdateOutcome::Recertified { .. }), "{out:?}");
        let committed = session.graph().unwrap().clone();
        assert_eq!(*session.current().unwrap(), decompose(&committed).unwrap());
    }

    #[test]
    fn going_back_to_a_cached_instance_replays_every_round() {
        // Moving w₀ away crosses a breakpoint, so the first instance's shape
        // stays cached beside the new one; moving it back replays each of
        // its k rounds: k more hits, no miss and no certification flow.
        let ring = builders::ring(vec![int(6), int(2), int(4), int(3), int(5)]).unwrap();
        for (g, away) in [(path_graph(int(5)), int(40)), (ring, int(1))] {
            let home = g.weight(0).clone();
            let mut session = DecompositionSession::new(g.clone());
            let k = session.current().unwrap().k() as u64;
            session.update_weight(0, away).unwrap();
            let before = session.stats();
            assert_eq!(
                session.update_weight(0, home).unwrap(),
                UpdateOutcome::Recertified { rounds: 0 }
            );
            let after = session.stats();
            assert_eq!(
                (after.hits, after.misses, after.warm_starts),
                (before.hits + k, before.misses, before.warm_starts + k)
            );
            assert_eq!(*session.current().unwrap(), decompose(&g).unwrap());
        }
    }

    #[test]
    fn edge_churn_matches_cold() {
        let g = builders::ring(vec![int(3), int(5), int(7), int(2)]).unwrap();
        let mut session = DecompositionSession::new(g);
        session.current().unwrap();
        session.apply(Delta::AddEdge { u: 0, v: 2 }).unwrap();
        let committed = session.graph().unwrap().clone();
        assert_eq!(*session.current().unwrap(), decompose(&committed).unwrap());
        session.update_edge(1, 2, EdgeOp::Remove).unwrap();
        let committed = session.graph().unwrap().clone();
        assert_eq!(*session.current().unwrap(), decompose(&committed).unwrap());
    }

    #[test]
    fn invalid_deltas_roll_back_atomically() {
        let g = path_graph(int(5));
        let mut session = DecompositionSession::new(g.clone());
        let before = session.current().unwrap().clone();
        // Out-of-range vertex.
        assert!(matches!(
            session.update_weight(99, int(1)),
            Err(BdError::InvalidDelta { .. })
        ));
        // Negative weight.
        assert!(matches!(
            session.update_weight(0, int(-3)),
            Err(BdError::InvalidDelta { .. })
        ));
        // Self-loop insertion.
        assert!(matches!(
            session.apply(Delta::AddEdge { u: 1, v: 1 }),
            Err(BdError::InvalidDelta { .. })
        ));
        // A batch that fails midway must not commit its earlier ops.
        assert!(session
            .apply(Delta::Batch(vec![
                Delta::SetWeight { v: 0, w: int(77) },
                Delta::AddEdge { u: 5, v: 6 },
            ]))
            .is_err());
        assert_eq!(session.graph(), Some(&g), "instance must be untouched");
        assert_eq!(*session.current().unwrap(), before);
    }

    #[test]
    fn solver_errors_roll_back_atomically() {
        // Removing the only edge of a positive-weight pendant vertex makes
        // the decomposition undefined (ZeroAlpha) — the session must keep
        // serving the pre-delta instance.
        let g = builders::path(vec![int(1), int(2), int(3)]).unwrap();
        let mut session = DecompositionSession::new(g.clone());
        let before = session.current().unwrap().clone();
        assert!(matches!(
            session.update_edge(0, 1, EdgeOp::Remove),
            Err(BdError::ZeroAlpha { .. })
        ));
        assert_eq!(session.graph(), Some(&g));
        assert_eq!(*session.current().unwrap(), before);
        // And it still accepts good deltas afterwards.
        assert!(session.update_weight(0, int(4)).is_ok());
        let committed = session.graph().unwrap().clone();
        assert_eq!(*session.current().unwrap(), decompose(&committed).unwrap());
    }
}
