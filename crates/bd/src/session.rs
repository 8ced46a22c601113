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
//!    the flow is (nearly) maximal before the first BFS. The candidates are
//!    the cached rounds with the same round index and, only if none of
//!    those is usable, the bottleneck sets of every cached round.
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
//! `AddEdge` / `RemoveEdge` / `Batch`), edits the owned instance in place
//! under an undo log (replayed backwards on any error, so the edit is
//! transactional and costs the size of the delta), and reports which tier
//! served it
//! ([`UpdateOutcome::Unchanged`] / [`Recertified`](UpdateOutcome::Recertified)
//! / [`Recomputed`](UpdateOutcome::Recomputed)). A mutation that can move
//! the decomposition runs the same rounds as
//! [`decompose`](DecompositionSession::decompose), with the current
//! result's certificates at the cache front: a round the mutation cannot
//! see replays its certificate, and a round that sees it certifies the
//! smallest cached candidate (the previous bottleneck among them), seeded
//! from that candidate's certifying flow. A mutation that cannot move the
//! decomposition is read off the undo log, with no round run; otherwise
//! the tier is read off how the rounds were settled — see `DESIGN.md` §3.3
//! for the tier soundness arguments.
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
    /// The steps the running `apply` made on `graph`, kept across calls so
    /// that logging them allocates nothing once warm.
    undo: Vec<Step>,
}

/// One step an `apply` made on the held instance, as it is undone.
enum Step {
    /// Vertex `v`'s weight was replaced; this is the weight it had.
    Weight(VertexId, Rational),
    /// The edge `(u, v)`, `u < v`, was inserted or removed.
    Edge(VertexId, VertexId),
}

impl Step {
    fn edge(u: VertexId, v: VertexId) -> Step {
        Step::Edge(u.min(v), u.max(v))
    }

    /// What the step changed: `(v, v)` for v's weight, `(u, v)` for an
    /// edge. An edge has `u < v`, so the two kinds never share a key.
    fn key(&self) -> (VertexId, VertexId) {
        match self {
            Step::Weight(v, _) => (*v, *v),
            Step::Edge(u, v) => (*u, *v),
        }
    }
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
        self.delta = Some(DeltaState {
            graph: g,
            bd: None,
            undo: Vec::new(),
        });
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

    /// The transactional body of [`apply`](Self::apply): the delta edits
    /// the held instance in place, each step that changes it logged in
    /// `state.undo`, and on any error the log is replayed backwards. The
    /// adjacency lists stay sorted, so that restores the instance exactly.
    fn apply_to_state(
        &mut self,
        state: &mut DeltaState,
        delta: &Delta,
    ) -> Result<UpdateOutcome, BdError> {
        state.undo.clear();
        let out =
            apply_logged(&mut state.graph, delta, &mut state.undo).and_then(|()| self.serve(state));
        if out.is_err() {
            undo(&mut state.graph, &mut state.undo);
        }
        out
    }

    /// Serve the edited instance, reading the tier off the undo log.
    fn serve(&mut self, state: &mut DeltaState) -> Result<UpdateOutcome, BdError> {
        // Each key's steps together, in the order they were taken (the sort
        // is stable). Steps on different keys commute, so the log still
        // undoes backwards.
        state.undo.sort_by_key(Step::key);

        // Tiers 1a/1b — zero flow work.
        if unchanged(&state.graph, &state.undo, state.bd.as_ref()) {
            return Ok(UpdateOutcome::Unchanged);
        }

        // Tiers 2/3 — the rounds of `decompose`, with the current result's
        // certificates at the cache front: a round the mutation cannot see
        // replays, one that sees it certifies the smallest cached
        // candidate, seeded. With no current result there was nothing to
        // recertify.
        let (bd, flows) = self.run_decompose(&state.graph)?;
        let outcome = match flows {
            Some(rounds) if state.bd.is_some() => UpdateOutcome::Recertified { rounds },
            _ => UpdateOutcome::Recomputed,
        };
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

/// Apply `delta` to `g` in place, validating as it goes, and log each step
/// that changes `g`. A `SetWeight` to the current weight, an `AddEdge` of a
/// present edge and a `RemoveEdge` of an absent one change nothing and log
/// nothing; any other invalid step surfaces the underlying
/// [`GraphError`](prs_graph::GraphError) as [`BdError::InvalidDelta`], with
/// the steps before it logged.
fn apply_logged(g: &mut Graph, delta: &Delta, log: &mut Vec<Step>) -> Result<(), BdError> {
    match delta {
        Delta::SetWeight { v, w } => {
            let old = g.weights().get(*v);
            if old == Some(w) {
                return Ok(()); // re-stating the current weight
            }
            let old = old.cloned();
            g.try_set_weight(*v, w.clone())?;
            log.extend(old.map(|old| Step::Weight(*v, old)));
        }
        Delta::AddEdge { u, v } => {
            if *u < g.n() && *v < g.n() && u != v && g.has_edge(*u, *v) {
                return Ok(()); // idempotent re-insert
            }
            g.add_edge(*u, *v)?;
            log.push(Step::edge(*u, *v));
        }
        Delta::RemoveEdge { u, v } => {
            if *u < g.n() && *v < g.n() && !g.has_edge(*u, *v) {
                return Ok(()); // idempotent removal of an absent edge
            }
            g.remove_edge(*u, *v)?;
            log.push(Step::edge(*u, *v));
        }
        Delta::Batch(items) => {
            for d in items {
                apply_logged(g, d, log)?;
            }
        }
    }
    Ok(())
}

/// True iff `bd`, the decomposition from before the logged steps, still
/// describes `g`, the instance they left; the log holds each key's steps
/// together, in order.
///
/// Tier 1a — net no-op: every logged vertex is back at the weight its first
/// step replaced and every logged edge was toggled an even number of times,
/// so the instance is literally the old one and the current decomposition
/// (whether or not it has been forced yet) still describes it.
///
/// Tier 1b — the only net change is insertions of edges between two
/// strictly C-class agents, which leaves the decomposition untouched
/// (DESIGN.md §3.3): for every round up to an endpoint's pair, the
/// bottleneck B_r avoids both endpoints, so Γ(B_r) — and with it α_r and
/// the maximal tight set — is unchanged, while α(S) can only grow for other
/// sets; once an endpoint is peeled the edge is invisible to the induced
/// subgraph. (The removal analogue is *not* sound: deleting an edge can
/// lower some α(S) below α_r.) The cache keeps the old adjacency, so the
/// next solve recertifies rounds holding both endpoints.
fn unchanged(g: &Graph, log: &[Step], bd: Option<&BottleneckDecomposition>) -> bool {
    let strictly_c = |v| bd.is_some_and(|bd| bd.class_of(v) == AgentClass::C);
    log.chunk_by(|a, b| a.key() == b.key())
        .all(|steps| match steps[0] {
            Step::Weight(v, ref first) => g.weight(v) == first,
            Step::Edge(u, v) => {
                steps.len() % 2 == 0 || (g.has_edge(u, v) && strictly_c(u) && strictly_c(v))
            }
        })
}

/// Undo the logged steps on `g`, last first, emptying the log.
fn undo(g: &mut Graph, log: &mut Vec<Step>) {
    while let Some(step) = log.pop() {
        let undone = match step {
            Step::Weight(v, w) => g.try_set_weight(v, w),
            Step::Edge(u, v) if g.has_edge(u, v) => g.remove_edge(u, v),
            Step::Edge(u, v) => g.add_edge(u, v),
        };
        debug_assert!(undone.is_ok(), "a logged step undoes");
    }
}

/// One session round: pick a candidate, certify it, take one snapshot.
///
/// The candidate is, cheapest first:
///
/// 1. **Replay**: a cached round whose exact inputs (alive set, weights,
///    induced adjacency) match the current ones returns its certified
///    `(B, α)` verbatim — zero flow work. Sound because the round solver is
///    a pure function of those inputs.
/// 2. **Cached shape**: the best candidate set in the MRU cache, from a
///    cached round with this round's index or, if none of those is
///    usable, from any cached round; its ratio `α̂` is certified seeded
///    with that round's certifying flow.
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
    // round: `replay`, `warm_hit`, `warm_descent`, or `cold`; a warm round
    // seeded from another round index names it in `candidate_round`.
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
        Some((alpha_hat, idx, from)) => {
            if from != round {
                sp.attr("candidate_round", || from.to_string());
            }
            local.record_warm_start();
            let support = &cache[idx].rounds[from].data.support;
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

/// Probe the MRU cache for this round's best warm seed: the candidate set
/// with the smallest α-ratio among usable cached rounds (`0 < α̂ ≤ 1`,
/// candidate alive), with the cache index and round index it came from
/// (that round's certifying flow pattern seeds the max-flow). Smaller seeds
/// dominate: `α(S) ≥ α*` always, so the smallest available ratio is the one
/// closest to the optimum. The probe ranks the cached rounds with this
/// round's index first, and only if none of them is usable every cached
/// round: a set from another round index is as sound a candidate, but
/// ranking every round on every round costs more than it saves.
/// Candidates rank in words, the earlier entry and then the earlier round
/// winning a tie, and only the winner becomes a `Rational`.
fn best_warm_candidate(
    g: &Graph,
    alive: &VertexSet,
    round: usize,
    cache: &[ShapeEntry],
    nets: &mut RoundNets,
) -> Option<(Rational, usize, usize)> {
    let entries = || {
        cache
            .iter()
            .enumerate()
            .filter(|(_, entry)| entry.n == g.n())
    };
    let same_index =
        entries().filter_map(|(idx, entry)| Some((idx, round, entry.rounds.get(round)?)));
    best_candidate(g, alive, nets, same_index).or_else(|| {
        let every_round = entries().flat_map(|(idx, entry)| {
            entry
                .rounds
                .iter()
                .enumerate()
                .map(move |(r, rc)| (idx, r, rc))
        });
        best_candidate(g, alive, nets, every_round)
    })
}

/// The usable candidate of smallest ratio among `rounds` (`(cache index,
/// round index, certificate)`, in ranking order), the first winning a tie.
fn best_candidate<'a>(
    g: &Graph,
    alive: &VertexSet,
    nets: &mut RoundNets,
    rounds: impl Iterator<Item = (usize, usize, &'a RoundCert)>,
) -> Option<(Rational, usize, usize)> {
    let mut best: Option<(Ratio, usize, usize)> = None;
    for (idx, r, rc) in rounds {
        if rc.b.is_empty() || !rc.b.is_subset(alive) {
            continue;
        }
        let Some(alpha_hat) = nets.ratio(g, alive, &rc.b).filter(Ratio::usable) else {
            continue;
        };
        if best.as_ref().is_none_or(|(b, ..)| alpha_hat.below(b)) {
            best = Some((alpha_hat, idx, r));
        }
    }
    best.map(|(a, idx, r)| (a.to_rational(), idx, r))
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

    /// A cached shape on four vertices whose rounds certified the sets
    /// `bs`, with placeholder certificates: the warm probe reads the sets
    /// alone.
    fn shape(bs: &[&[VertexId]]) -> ShapeEntry {
        let cert = |b: &&[VertexId]| RoundCert {
            b: VertexSet::from_iter_cap(4, b.iter().copied()),
            alpha: Rational::one(),
            data: Arc::new(CertData {
                edges: Arc::default(),
                weights: RoundWeights::Exact(Vec::new()),
                support: Support::I128(Vec::new()),
            }),
        };
        ShapeEntry {
            n: 4,
            rounds: bs.iter().map(cert).collect(),
        }
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
        let cache = [&[0][..], &[2], &[1, 3], &[0, 2]].map(|b| shape(&[b]));
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
                let mut want: Option<(Rational, usize, usize)> = None;
                for (idx, e) in cache.iter().enumerate() {
                    let a = g.alpha_ratio_in(&e.rounds[0].b, &alive).unwrap();
                    if a <= Rational::one() && want.as_ref().is_none_or(|(b, ..)| a < *b) {
                        want = Some((a, idx, 0));
                    }
                }
                let got = best_warm_candidate(&g, &alive, 0, &cache, &mut nets);
                assert_eq!(got, want, "{w:?}");
            }
        }
    }

    #[test]
    fn a_round_without_a_usable_candidate_of_its_index_ranks_every_round() {
        // Ring (5, 1, 3, 1), three cached shapes. A round whose own index
        // offers a usable candidate keeps it, though a smaller ratio sits at
        // another index; a round whose own index offers none (absent, or
        // α̂ > 1) ranks every cached round: the smallest usable ratio wins,
        // the earlier entry on a tie, and sets outside the alive set drop.
        let g = builders::ring(vec![int(5), int(1), int(3), int(1)]).unwrap();
        let cache = [
            shape(&[&[2], &[0, 2]]),
            shape(&[&[0]]),
            shape(&[&[1, 3], &[0, 2]]),
        ];
        let unusable_first = [shape(&[&[1, 3], &[0]])];
        let full = VertexSet::full(4);
        let three = VertexSet::from_iter_cap(4, [0, 1, 2]);
        for (cache, alive, round, want) in [
            // Own index: {2} 2/3, {0} 2/5, {1, 3} 4.
            (&cache[..], &full, 0, (ratio(2, 5), 1, 0)),
            // Own index: {0, 2} 1/4 twice; the earlier entry wins.
            (&cache[..], &full, 1, (ratio(1, 4), 0, 1)),
            // No round 2 cached; on {0, 1, 2}: {2} 1/3, {0, 2} 1/8, {0} 1/5.
            (&cache[..], &three, 2, (ratio(1, 8), 0, 1)),
            // Own index: {1, 3} 4 only; {0} 2/5 from round 1.
            (&unusable_first[..], &full, 0, (ratio(2, 5), 0, 1)),
        ] {
            let mut nets = RoundNets::new(0, true);
            nets.enter(&g, alive, round);
            let got = best_warm_candidate(&g, alive, round, cache, &mut nets);
            assert_eq!(got, Some(want), "round {round}");
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
    fn a_failed_batch_restores_every_key_it_touched_more_than_once() {
        // The batch sets w₀ twice and toggles (0, 2) twice around a
        // removal that leaves vertex 0 isolated, so the solve fails: the
        // undo log must restore each key to its state before the batch,
        // not to a state between its steps.
        let g = builders::path(vec![int(1), int(2), int(3)]).unwrap();
        let mut session = DecompositionSession::new(g.clone());
        let before = session.current().unwrap().clone();
        let batch = Delta::Batch(vec![
            Delta::SetWeight { v: 0, w: int(9) },
            Delta::AddEdge { u: 0, v: 2 },
            Delta::RemoveEdge { u: 0, v: 2 },
            Delta::RemoveEdge { u: 0, v: 1 },
            Delta::SetWeight { v: 0, w: int(7) },
        ]);
        assert!(matches!(
            session.apply(batch),
            Err(BdError::ZeroAlpha { .. })
        ));
        assert_eq!(session.graph(), Some(&g));
        assert_eq!(*session.current().unwrap(), before);
        // A batch whose only net change is a strictly-C insertion, around
        // self-cancelling steps on other keys, runs no round.
        let star = builders::star(vec![int(10), int(1), int(1), int(1)]).unwrap();
        let mut session = DecompositionSession::new(star);
        session.current().unwrap();
        let stats = session.stats();
        let batch = Delta::Batch(vec![
            Delta::SetWeight { v: 0, w: int(4) },
            Delta::AddEdge { u: 1, v: 2 },
            Delta::RemoveEdge { u: 0, v: 3 },
            Delta::AddEdge { u: 0, v: 3 },
            Delta::SetWeight { v: 0, w: int(10) },
        ]);
        assert_eq!(session.apply(batch), Ok(UpdateOutcome::Unchanged));
        assert_eq!(session.stats(), stats, "no solver round may run");
        let committed = session.graph().unwrap().clone();
        assert!(committed.has_edge(1, 2));
        assert_eq!(*session.current().unwrap(), decompose(&committed).unwrap());
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
