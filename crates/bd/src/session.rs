//! `DecompositionSession` — a stateful, warm-started decomposition server.
//!
//! The misreport sweep (Section III-B) and the Sybil grids call
//! [`decompose`](crate::decompose) at hundreds of nearby parameter values.
//! Because the decomposition `𝓑(x)` is **piecewise constant** in any single
//! weight (the breakpoint argument of Section III-B: finitely many candidate
//! ratios `w(Γ(S))/w(S)` cross each other at finitely many `x`), the
//! combinatorial *shape* — which vertices form each round's maximal
//! bottleneck — repeats across almost the entire grid. A cold call cannot
//! exploit that: every round re-runs the float Dinkelbach descent (each step
//! of which computes an exact α-ratio), then certifies.
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
//! 2. **Warm certification** — otherwise compute `α̂ = α(B_cached)` (one
//!    exact ratio) and certify it with a single max-flow on a
//!    **scaled-integer network**: every capacity is multiplied by `p·D`
//!    (`α̂ = p/q` in lowest terms, `D` the lcm of the alive weights'
//!    denominators), so source arcs carry `(w_v·D)·p` and sink arcs
//!    `(w_v·D)·q` — all integers, turning each Dinic step from a
//!    gcd-normalized rational operation into plain big-integer arithmetic.
//!    The network is pre-seeded with the cached certifying flow rescaled to
//!    the current weights, so inside a known `ShapeInterval` the flow is
//!    (nearly) maximal before the first BFS.
//! 3. **Descent** — at a breakpoint the certification is infeasible and the
//!    exact Dinkelbach descent resumes from the min cut (still on the
//!    integer network); with no usable candidate at all, the cold round's
//!    float proposal is certified on the same network instead.
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
//! / [`Recomputed`](UpdateOutcome::Recomputed)). The incremental solver
//! replays the previous decomposition's rounds verbatim wherever the
//! mutation is invisible, re-certifies (seeded from the previous certifying
//! flow via the kernel's `SeedArc` machinery) only the rounds whose
//! bottleneck sets can see it, and falls back to the general warm solver
//! the moment the round structure diverges — see `DESIGN.md` §3.3 for the
//! tier soundness arguments and cell-cache invalidation rules.
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
    certify, drive, maximal_bottleneck, AgentClass, BottleneckDecomposition, RoundNets, SupportArc,
};
use crate::delta::{Delta, EdgeOp, StabilityCell, UpdateOutcome};
use crate::error::BdError;
use prs_flow::stats;
use prs_graph::{Graph, VertexId, VertexSet};
use prs_numeric::Rational;

/// How many MRU cache entries a warm-start probe inspects per round.
/// Sweeps alternate between at most two shapes near a breakpoint (the
/// bisection pattern), so a small probe window captures essentially all
/// hits without scanning the whole cache.
const PROBE_WINDOW: usize = 4;

/// Tuning knobs for a [`DecompositionSession`].
///
/// Construct via [`SessionConfig::new`] + `with_*` builders; the struct is
/// `#[non_exhaustive]` so future knobs are non-breaking.
#[non_exhaustive]
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionConfig {
    /// Maximum number of cached shape certificates (default `32`). `0`
    /// disables the cache entirely: the session still amortizes arena
    /// allocation, but every round outside the delta path is cold.
    pub cache_capacity: usize,
}

impl SessionConfig {
    /// The default configuration: 32 cached shapes.
    pub fn new() -> Self {
        SessionConfig { cache_capacity: 32 }
    }

    /// Set the shape-cache capacity (`0` disables caching).
    pub fn with_cache_capacity(mut self, cap: usize) -> Self {
        self.cache_capacity = cap;
        self
    }
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig::new()
    }
}

/// Counter snapshot of one session (see [`DecompositionSession::stats`]).
///
/// `hits + misses` equals the total number of decomposition rounds served;
/// `warm_starts ≥ hits` (a warm-started round that fails certification
/// counts as a miss).
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
    /// process-global [`prs_flow::stats`].
    fn record_round(&mut self, hit: bool) {
        if hit {
            self.hits += 1;
            stats::record_session_hits(1);
        } else {
            self.misses += 1;
            stats::record_session_misses(1);
        }
    }

    /// Count one round seeded from a cached or previous certificate.
    fn record_warm_start(&mut self) {
        self.warm_starts += 1;
        stats::record_session_warm_starts(1);
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
    data: std::sync::Arc<CertData>,
}

/// The inputs and certificate of one solved round.
struct CertData {
    /// The alive set the round was solved on.
    alive: VertexSet,
    /// `w_v` for each alive `v`, in `alive` iteration order.
    weights: Vec<Rational>,
    /// The alive-induced adjacency `(v, u)` pairs, in network build order.
    adj: Vec<(VertexId, VertexId)>,
    /// The certifying max-flow's middle arcs carrying positive flow:
    /// `(v, u, flow, w_v-at-certification)`. A later warm start on weights
    /// `w'` seeds the arc `left(v)→right(u)` with `flow · w'_v / w_v` —
    /// a straight clone when `w'_v = w_v`, the common case in a sweep where
    /// only one vertex's weight moves per grid point.
    support: Vec<SupportArc>,
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
/// certified decomposition and any installed stability cells.
struct DeltaState {
    /// The instance as of the last committed delta.
    graph: Graph,
    /// The current decomposition + per-round certificates; `None` until the
    /// first [`current`](DecompositionSession::current) /
    /// [`apply`](DecompositionSession::apply) forces a solve.
    current: Option<CurrentResult>,
    /// Installed Prop. 11/12 breakpoint-cell certificates, consulted on the
    /// recertified tier and invalidated on commit (`DESIGN.md` §3.3).
    cells: Vec<StabilityCell>,
}

/// The decomposition of the owned instance together with the round
/// certificates that seed the next delta's recertification flows.
struct CurrentResult {
    bd: BottleneckDecomposition,
    certs: Vec<RoundCert>,
}

/// The canonicalized difference between the owned instance and its mutated
/// scratch copy. Computing the diff (rather than trusting the delta's
/// literal ops) coalesces batches and makes idempotent / self-cancelling
/// mutations invisible for free.
struct GraphDiff {
    /// Vertices whose weight changed.
    weights: Vec<VertexId>,
    /// Edges present after the mutation but not before.
    added: Vec<(VertexId, VertexId)>,
    /// Edges present before the mutation but not after.
    removed: Vec<(VertexId, VertexId)>,
}

impl GraphDiff {
    fn between(old: &Graph, new: &Graph) -> GraphDiff {
        let weights = (0..old.n())
            .filter(|&v| old.weight(v) != new.weight(v))
            .collect();
        let (mut added, mut removed) = (Vec::new(), Vec::new());
        let (a, b) = (old.edges(), new.edges());
        let (mut i, mut j) = (0, 0);
        // Both edge lists are sorted, so a single merge pass yields the
        // symmetric difference.
        while i < a.len() || j < b.len() {
            match (a.get(i), b.get(j)) {
                (Some(&x), Some(&y)) if x == y => {
                    i += 1;
                    j += 1;
                }
                (Some(&x), Some(&y)) if x < y => {
                    removed.push(x);
                    i += 1;
                }
                (Some(_), Some(&y)) => {
                    added.push(y);
                    j += 1;
                }
                (Some(&x), None) => {
                    removed.push(x);
                    i += 1;
                }
                (None, Some(&y)) => {
                    added.push(y);
                    j += 1;
                }
                (None, None) => {}
            }
        }
        GraphDiff {
            weights,
            added,
            removed,
        }
    }

    /// True iff any part of the diff is visible inside `alive`: a moved
    /// weight on an alive vertex, or a churned edge with both endpoints
    /// alive. An edge with a dead endpoint does not exist in the
    /// alive-induced subgraph either way, so it cannot affect the round.
    fn visible_in(&self, alive: &VertexSet) -> bool {
        self.weights.iter().any(|&v| alive.contains(v))
            || self
                .added
                .iter()
                .chain(&self.removed)
                .any(|&(u, v)| alive.contains(u) && alive.contains(v))
    }
}

/// A reusable decomposition solver: owns the exact and f64 flow arenas
/// across calls and memoizes shape certificates so repeated decompositions
/// of nearby instances cost one certification max-flow per round instead of
/// a full Dinkelbach descent.
///
/// Results are **bit-identical** to [`decompose`](crate::decompose) on every
/// input; see the module docs for the argument.
///
/// A session constructed with [`new`](Self::new) / [`with_config`](Self::with_config)
/// *owns* its instance and serves mutations through [`apply`](Self::apply):
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
/// the legacy instance-at-a-time path (deviation sweeps, Sybil grids):
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
    cfg: SessionConfig,
    nets: RoundNets,
    /// MRU-ordered shape certificates (front = most recent).
    cache: Vec<ShapeEntry>,
    local: SessionStats,
    /// The owned instance + delta-serving state; `None` for detached
    /// sessions.
    delta: Option<DeltaState>,
}

impl DecompositionSession {
    /// A session owning `g`, with the default [`SessionConfig`].
    ///
    /// The first [`current`](Self::current) or [`apply`](Self::apply) call
    /// decomposes the instance; construction itself does no flow work.
    pub fn new(g: Graph) -> Self {
        Self::with_config(g, SessionConfig::new())
    }

    /// A session owning `g`, with explicit tuning knobs.
    pub fn with_config(g: Graph, cfg: SessionConfig) -> Self {
        let mut s = Self::detached_with_config(cfg);
        s.replace_instance(g);
        s
    }

    /// A session with no owned instance: the delta API is unavailable
    /// (returns [`BdError::DetachedSession`]) but
    /// [`decompose`](Self::decompose) serves arbitrary instances through the
    /// shared arenas and shape cache.
    pub fn detached() -> Self {
        Self::detached_with_config(SessionConfig::new())
    }

    /// A detached session with explicit tuning knobs.
    pub fn detached_with_config(cfg: SessionConfig) -> Self {
        DecompositionSession {
            cfg,
            nets: RoundNets::new(0),
            cache: Vec::new(),
            local: SessionStats::default(),
            delta: None,
        }
    }

    /// This session's configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.cfg
    }

    /// The owned instance as of the last committed delta (`None` when
    /// detached).
    pub fn graph(&self) -> Option<&Graph> {
        self.delta.as_ref().map(|s| &s.graph)
    }

    /// Lifetime hit/miss/warm-start counters for this session. The same
    /// counts also flow into the process-global [`prs_flow::stats`]
    /// (`session_hits` / `session_misses` / `session_warm_starts`).
    pub fn stats(&self) -> SessionStats {
        self.local
    }

    /// Number of cached shape certificates.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Drop every cached shape certificate (arenas are kept).
    pub fn clear_cache(&mut self) {
        self.cache.clear();
    }

    /// Number of installed stability cells.
    pub fn cell_count(&self) -> usize {
        self.delta.as_ref().map_or(0, |s| s.cells.len())
    }

    /// Install a [`StabilityCell`] certificate for the owned instance.
    ///
    /// Matching cells let the recertified tier predict a round's ratio
    /// without computing any candidate α-ratio. Predictions are always
    /// validated by the certification flow — a feasible flow with no tight
    /// set exposes an under-predicted α̂ and the session retries with the
    /// exact candidate ratio — so a stale or lying cell can waste one flow
    /// but never change a result. Returns `false` (dropping the cell) when
    /// the session is detached.
    pub fn install_cell(&mut self, cell: StabilityCell) -> bool {
        match self.delta.as_mut() {
            Some(state) => {
                state.cells.push(cell);
                true
            }
            None => false,
        }
    }

    /// Replace (or attach) the owned instance wholesale, dropping the delta
    /// state — current decomposition and stability cells — while keeping the
    /// flow arenas and the MRU shape cache warm.
    pub fn replace_instance(&mut self, g: Graph) {
        self.delta = Some(DeltaState {
            graph: g,
            current: None,
            cells: Vec::new(),
        });
    }

    /// The decomposition of the owned instance, solving it on first use.
    pub fn current(&mut self) -> Result<&BottleneckDecomposition, BdError> {
        let needs_solve = match &self.delta {
            None => return Err(BdError::DetachedSession),
            Some(state) => state.current.is_none(),
        };
        if needs_solve {
            let g = match &self.delta {
                Some(state) => state.graph.clone(),
                None => return Err(BdError::DetachedSession),
            };
            let (bd, certs) = self.run_decompose(&g, true)?;
            self.store(g.n(), certs.clone());
            if let Some(state) = self.delta.as_mut() {
                state.current = Some(CurrentResult { bd, certs });
            }
        }
        match &self.delta {
            Some(DeltaState {
                current: Some(cur), ..
            }) => Ok(&cur.bd),
            _ => Err(BdError::DetachedSession),
        }
    }

    /// Apply one [`Delta`] to the owned instance and re-serve the
    /// decomposition, reporting which tier answered (module docs +
    /// `DESIGN.md` §3.3). Atomic: on any error the instance, the current
    /// decomposition, and the installed cells are left exactly as they
    /// were.
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
                stats::record_delta_unchanged(1);
            }
            Ok(UpdateOutcome::Recertified { .. }) => {
                sp.attr("tier", || "recertified".to_string());
                stats::record_delta_recertified(1);
            }
            Ok(UpdateOutcome::Recomputed) => {
                // A routine tier (it serves about half of a churn stream),
                // so it is counted, not raised as an anomaly.
                sp.attr("tier", || "recomputed".to_string());
                stats::record_delta_recomputed(1);
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

        let diff = GraphDiff::between(&state.graph, &scratch);

        // Cold delta state: nothing to be incremental against — decompose
        // the mutated instance through the general warm solver.
        let Some(cur) = state.current.as_ref() else {
            let (bd, certs) = self.run_decompose(&scratch, true)?;
            self.store(scratch.n(), certs.clone());
            retain_cells(&mut state.cells, &diff, &scratch);
            state.graph = scratch;
            state.current = Some(CurrentResult { bd, certs });
            return Ok(UpdateOutcome::Recomputed);
        };

        // Tier 1b — strictly-C edge insertions leave the decomposition
        // untouched (DESIGN.md §3.3): for every round up to an endpoint's
        // pair, the bottleneck B_r avoids both endpoints, so Γ(B_r) — and
        // with it α_r and the maximal tight set — is unchanged, while α(S)
        // can only grow for other sets; once an endpoint is peeled the edge
        // is invisible to the induced subgraph. (The removal analogue is
        // *not* sound: deleting an edge can lower some α(S) below α_r.)
        if diff.weights.is_empty()
            && diff.removed.is_empty()
            && diff.added.iter().all(|&(u, v)| {
                cur.bd.class_of(u) == AgentClass::C && cur.bd.class_of(v) == AgentClass::C
            })
        {
            // The round certificates keep their pre-insertion adjacency;
            // that is sound (replay *compares* inputs before trusting, and
            // seeds are clamped) but means the next visible delta sees the
            // edge as cache-stale, which costs at most one extra flow.
            retain_cells(&mut state.cells, &diff, &scratch);
            state.graph = scratch;
            return Ok(UpdateOutcome::Unchanged);
        }

        // Tiers 2/3 — incremental re-decomposition: replay the previous
        // rounds wherever the diff is invisible, recertify the rounds that
        // can see it, fall back to the general solver when the structure
        // diverges.
        let cell = if diff.added.is_empty() && diff.removed.is_empty() && diff.weights.len() == 1 {
            let v = diff.weights[0];
            let x = scratch.weight(v);
            state
                .cells
                .iter()
                .find(|c| c.covers(v, x) && c.shape_matches(&cur.bd))
                .cloned()
        } else {
            None
        };
        let (bd, certs, recert_rounds, clean) =
            self.redecompose_delta(&scratch, cur, &diff, cell.as_ref())?;
        self.store(scratch.n(), certs.clone());
        retain_cells(&mut state.cells, &diff, &scratch);
        state.graph = scratch;
        state.current = Some(CurrentResult { bd, certs });
        Ok(if clean {
            UpdateOutcome::Recertified {
                rounds: recert_rounds,
            }
        } else {
            UpdateOutcome::Recomputed
        })
    }

    /// Incrementally re-decompose the mutated instance `g` against the
    /// previous result. Returns the new decomposition, its round
    /// certificates, the number of recertified rounds, and whether the
    /// serve was *clean* (every round settled by verbatim replay or a
    /// single first-try certification flow — the
    /// [`UpdateOutcome::Recertified`] tier).
    fn redecompose_delta(
        &mut self,
        g: &Graph,
        prev: &CurrentResult,
        diff: &GraphDiff,
        cell: Option<&StabilityCell>,
    ) -> Result<(BottleneckDecomposition, Vec<RoundCert>, usize, bool), BdError> {
        let mut certified: Vec<RoundCert> = Vec::new();
        let mut recert_rounds = 0usize;
        let mut clean = true;
        let result = {
            let nets = &mut self.nets;
            let cache = &self.cache;
            let local = &mut self.local;
            let certified = &mut certified;
            let recert_rounds = &mut recert_rounds;
            let clean = &mut clean;
            let prev_bd = &prev.bd;
            let prev_certs = &prev.certs;
            // The round-by-round alive set the *previous* decomposition
            // would produce; as long as the actual alive set tracks it, the
            // old round structure is still in force ("prefix intact") and
            // the old certificates are usable as-is.
            let mut prefix_intact = true;
            let mut expected_alive = VertexSet::full(g.n());
            let focus_x = cell.map(|c| g.weight(c.vertex).clone());
            drive(g, move |g, alive, round| {
                if prefix_intact {
                    if round > 0 {
                        if let Some(p) = prev_bd.pairs().get(round - 1) {
                            expected_alive.subtract(&p.b.union(&p.c));
                        }
                    }
                    // The equality check is the whole soundness guard: any
                    // divergence — a different B, the same B with a grown
                    // or shrunk partner class C, extra rounds — shows up as
                    // a mismatched alive set at the next round's entry.
                    if round >= prev_bd.k() || *alive != expected_alive {
                        prefix_intact = false;
                    }
                }
                if !prefix_intact {
                    // Structural break: serve the remaining rounds through
                    // the general solver (MRU replay, cached shape, cold).
                    *clean = false;
                    return solve_round_warm(g, alive, round, nets, cache, local, certified, true);
                }
                let pair = &prev_bd.pairs()[round];
                if !diff.visible_in(alive) {
                    // Tail replay: this round's inputs (alive set, weights
                    // on it, induced adjacency) are identical to the
                    // previous decomposition's, and the round solver is a
                    // pure function of them — the certificate replays
                    // verbatim, zero flow work.
                    let mut sp = prs_trace::span("bd", "session_round");
                    sp.attr("round", || round.to_string());
                    sp.attr("path", || "delta_replay".to_string());
                    local.record_round(true);
                    local.record_warm_start();
                    if let Some(rc) = prev_certs.get(round) {
                        certified.push(rc.clone());
                    }
                    return Ok((pair.b.clone(), pair.alpha.clone()));
                }
                // The mutation is visible: recertify this round, seeded
                // from the previous certifying flow.
                let mut sp = prs_trace::span("bd", "session_round");
                sp.attr("round", || round.to_string());
                local.record_warm_start();
                let support = prev_certs
                    .get(round)
                    .map_or(&[][..], |rc| rc.data.support.as_slice());
                let one = Rational::one();
                let in_range = |a: &Rational| a.is_positive() && *a <= one;
                let mut settled = None;
                // A matching stability cell predicts this round's ratio
                // outright. The certification flow adjudicates: a feasible
                // flow with no tight set means the prediction undershot the
                // optimum (a lying cell) and the exact candidate retries.
                let predicted = cell
                    .zip(focus_x.as_ref())
                    .and_then(|(c, x)| c.alpha_curve(round)?.eval(x))
                    .filter(in_range);
                if let Some(alpha_hat) = predicted {
                    sp.attr("cell", || "predicted".to_string());
                    let c = certify(g, alive, round, nets, alpha_hat, support, "session")?;
                    settled = (!c.b.is_empty()).then_some(c);
                }
                if settled.is_none() {
                    // Exact candidate ratio of the previous bottleneck:
                    // α(B_prev) ≥ α* always, so certification either
                    // confirms it or the descent walks down from it.
                    if let Some(alpha_hat) = g.alpha_ratio_in(&pair.b, alive).filter(in_range) {
                        settled = Some(certify(
                            g, alive, round, nets, alpha_hat, support, "session",
                        )?);
                    }
                }
                let (b, alpha) = match settled {
                    Some(c) if c.first_try => {
                        sp.attr("path", || "delta_recert".to_string());
                        local.record_round(true);
                        *recert_rounds += 1;
                        (c.b, c.alpha)
                    }
                    Some(c) => {
                        // Crossed a breakpoint: the exact descent ran; the
                        // result is still bit-identical but the serve is no
                        // longer a pure recertification.
                        sp.attr("path", || "delta_descent".to_string());
                        local.record_round(false);
                        *clean = false;
                        (c.b, c.alpha)
                    }
                    None => {
                        // No usable candidate: the mutation pushed the
                        // previous bottleneck's ratio out of (0, 1].
                        sp.attr("path", || "cold".to_string());
                        local.record_round(false);
                        *clean = false;
                        maximal_bottleneck(g, alive, round, nets)?
                    }
                };
                certified.push(snapshot_cert(nets, g, alive, &b, &alpha));
                Ok((b, alpha))
            })
        };
        result.map(|bd| (bd, certified, recert_rounds, clean))
    }

    /// Warm-decompose an arbitrary instance on this session's arenas and
    /// shape cache. Bit-identical to [`decompose`](crate::decompose).
    ///
    /// **Deprecated re-entry shim.** This predates the owned-instance delta
    /// API: prefer constructing the session over the instance
    /// ([`DecompositionSession::new`]) and streaming [`Delta`]s through
    /// [`apply`](Self::apply), which replays/recertifies instead of
    /// re-solving. `decompose` neither reads nor updates the session's delta
    /// state; it is kept because the deviation sweep and the Sybil grids
    /// legitimately decompose many *unrelated* instances through one arena.
    pub fn decompose(&mut self, g: &Graph) -> Result<BottleneckDecomposition, BdError> {
        let (bd, certs) = self.run_decompose(g, false)?;
        self.store(g.n(), certs);
        Ok(bd)
    }

    /// Drive a full decomposition through [`solve_round_warm`], collecting
    /// round certificates when the cache wants them or `force_collect` asks
    /// for them (the delta path needs certificates even with the MRU cache
    /// disabled).
    fn run_decompose(
        &mut self,
        g: &Graph,
        force_collect: bool,
    ) -> Result<(BottleneckDecomposition, Vec<RoundCert>), BdError> {
        let collect = force_collect || self.cfg.cache_capacity > 0;
        let mut certified: Vec<RoundCert> = Vec::new();
        let result = {
            let nets = &mut self.nets;
            let cache = &self.cache;
            let local = &mut self.local;
            let certified = &mut certified;
            drive(g, |g, alive, round| {
                solve_round_warm(g, alive, round, nets, cache, local, certified, collect)
            })
        };
        result.map(|bd| (bd, certified))
    }

    /// Insert a freshly certified shape at the cache front (MRU), deduping
    /// identical shapes (the fresh entry wins, so the cached flow pattern
    /// tracks the most recent weights) and evicting beyond capacity.
    fn store(&mut self, n: usize, rounds: Vec<RoundCert>) {
        if self.cfg.cache_capacity == 0 {
            return;
        }
        if let Some(pos) = self.cache.iter().position(|e| {
            e.n == n
                && e.rounds.len() == rounds.len()
                && e.rounds.iter().zip(&rounds).all(|(a, b)| a.b == b.b)
        }) {
            self.cache.remove(pos);
        }
        self.cache.insert(0, ShapeEntry { n, rounds });
        self.cache.truncate(self.cfg.cache_capacity);
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

/// Cell-cache invalidation on commit (`DESIGN.md` §3.3): a committed diff
/// keeps only the cells it provably does not disturb — a pure single-weight
/// move of the cell's own focus vertex, landing inside the cell's certified
/// interval. Any edge churn or any other vertex's weight move invalidates
/// every cell.
fn retain_cells(cells: &mut Vec<StabilityCell>, diff: &GraphDiff, g: &Graph) {
    if diff.added.is_empty() && diff.removed.is_empty() && diff.weights.len() == 1 {
        let v = diff.weights[0];
        let x = g.weight(v);
        cells.retain(|c| c.covers(v, x));
    } else {
        cells.clear();
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
/// 2. **Cached shape**: the best candidate set in the MRU probe window; its
///    ratio `α̂` is certified seeded with the cached certifying flow.
/// 3. **Cold**: the float proposal of [`maximal_bottleneck`].
///
/// A certification that fails at a breakpoint resumes the exact descent.
#[allow(clippy::too_many_arguments)]
fn solve_round_warm(
    g: &Graph,
    alive: &VertexSet,
    round: usize,
    nets: &mut RoundNets,
    cache: &[ShapeEntry],
    local: &mut SessionStats,
    certified: &mut Vec<RoundCert>,
    collect: bool,
) -> Result<(VertexSet, Rational), BdError> {
    // The `path` attribute names which of the session's tiers settled the
    // round: `replay`, `warm_hit`, `warm_descent`, or `cold`.
    let mut sp = prs_trace::span("bd", "session_round");
    sp.attr("round", || round.to_string());
    if let Some(rc) = replay_candidate(g, alive, round, cache) {
        sp.attr("path", || "replay".to_string());
        local.record_round(true);
        local.record_warm_start();
        if collect {
            certified.push(rc.clone());
        }
        return Ok((rc.b.clone(), rc.alpha.clone()));
    }
    let (b, alpha) = match best_warm_candidate(g, alive, round, cache) {
        Some((alpha_hat, idx)) => {
            local.record_warm_start();
            let support = &cache[idx].rounds[round].data.support;
            let c = certify(g, alive, round, nets, alpha_hat, support, "session")?;
            let path = if c.first_try {
                "warm_hit"
            } else {
                "warm_descent"
            };
            sp.attr("path", || path.to_string());
            local.record_round(c.first_try);
            (c.b, c.alpha)
        }
        None => {
            sp.attr("path", || "cold".to_string());
            local.record_round(false);
            maximal_bottleneck(g, alive, round, nets)?
        }
    };
    if collect {
        certified.push(snapshot_cert(nets, g, alive, &b, &alpha));
    }
    Ok((b, alpha))
}

/// Find a cached round whose exact inputs — alive set, weights on it, and
/// the alive-induced adjacency — equal the current round's. The round
/// solver is a pure function of those inputs, so its certified `(B, α)`
/// replays verbatim: no network rebuild, no ratio computation, no flow.
///
/// This is the dominant path inside a sweep: only one vertex's weight moves
/// per grid point, so every round solved after that vertex is peeled is an
/// exact replay of the cached decomposition's tail.
fn replay_candidate<'a>(
    g: &Graph,
    alive: &VertexSet,
    round: usize,
    cache: &'a [ShapeEntry],
) -> Option<&'a RoundCert> {
    for entry in cache.iter().take(PROBE_WINDOW) {
        if entry.n != g.n() || round >= entry.rounds.len() {
            continue;
        }
        let data = &entry.rounds[round].data;
        if data.alive != *alive {
            continue;
        }
        if !alive
            .iter()
            .zip(&data.weights)
            .all(|(v, w)| g.weight(v) == w)
        {
            continue;
        }
        // Same alive set and weights; confirm the induced adjacency (the
        // session accepts arbitrary graphs, not just one weight family).
        let mut cached_adj = data.adj.iter();
        let mut same = true;
        'topo: for v in alive.iter() {
            for &u in g.neighbors(v) {
                if alive.contains(u) && cached_adj.next() != Some(&(v, u)) {
                    same = false;
                    break 'topo;
                }
            }
        }
        if same && cached_adj.next().is_none() {
            return Some(&entry.rounds[round]);
        }
    }
    None
}

/// Probe the MRU front of the cache for this round's best warm seed: the
/// candidate set with the smallest exact α-ratio among usable entries
/// (`0 < α̂ ≤ 1`, candidate alive), together with the cache index it came
/// from (its certifying flow pattern seeds the max-flow). Smaller seeds
/// dominate: `α(S) ≥ α*` always, so the smallest available ratio is the one
/// closest to the optimum.
fn best_warm_candidate(
    g: &Graph,
    alive: &VertexSet,
    round: usize,
    cache: &[ShapeEntry],
) -> Option<(Rational, usize)> {
    let one = Rational::one();
    let mut best: Option<(Rational, usize)> = None;
    for (idx, entry) in cache.iter().take(PROBE_WINDOW).enumerate() {
        if entry.n != g.n() || round >= entry.rounds.len() {
            continue;
        }
        let cand = &entry.rounds[round].b;
        if cand.is_empty() || !cand.is_subset(alive) {
            continue;
        }
        let Some(alpha_hat) = g.alpha_ratio_in(cand, alive) else {
            continue;
        };
        if !alpha_hat.is_positive() || alpha_hat > one {
            continue;
        }
        if best.as_ref().is_none_or(|(b, _)| alpha_hat < *b) {
            best = Some((alpha_hat, idx));
        }
    }
    best
}

/// Snapshot a freshly certified round into a [`RoundCert`]: the answer,
/// the inputs it was solved on, and the certifying max-flow's middle-arc
/// pattern. The flows are read off whichever scaled engine (checked `i128`
/// or BigInt) settled the round and divided back by the scale `p·D`, so
/// the cached support is in true (unscaled) flow units regardless of which
/// engine certifies next time.
fn snapshot_cert(
    nets: &RoundNets,
    g: &Graph,
    alive: &VertexSet,
    b: &VertexSet,
    alpha: &Rational,
) -> RoundCert {
    debug_assert!(nets.int_scale.is_positive());
    let scale = nets.int_scale.magnitude();
    let mut weights = Vec::with_capacity(alive.len());
    for v in alive.iter() {
        weights.push(g.weight(v).clone());
    }
    let mut adj = Vec::with_capacity(nets.mid_edges.len());
    let mut support = Vec::new();
    for &(v, u, e) in &nets.mid_edges {
        adj.push((v, u));
        let f = nets.cert_flow_on(e);
        if f.is_positive() {
            support.push((v, u, Rational::new(f, scale.clone()), g.weight(v).clone()));
        }
    }
    RoundCert {
        b: b.clone(),
        alpha: alpha.clone(),
        data: std::sync::Arc::new(CertData {
            alive: alive.clone(),
            weights,
            adj,
            support,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose;
    use crate::delta::CellMoebius;
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
    fn cache_capacity_zero_disables_caching() {
        // With no cache every round is cold: no warm start, no hit.
        let cfg = SessionConfig::new().with_cache_capacity(0);
        let mut session = DecompositionSession::detached_with_config(cfg);
        for k in 1..10 {
            let g = path_graph(int(k));
            assert_eq!(session.decompose(&g).unwrap(), decompose(&g).unwrap());
        }
        assert_eq!(session.cache_len(), 0);
        let s = session.stats();
        assert_eq!(s.warm_starts, 0);
        assert_eq!(s.hits, 0);
        assert!(s.misses > 0);
    }

    #[test]
    fn cache_evicts_beyond_capacity_and_dedupes() {
        let cfg = SessionConfig::new().with_cache_capacity(2);
        let mut session = DecompositionSession::detached_with_config(cfg);
        // Same shape every time → a single deduped entry.
        for k in 1..5 {
            session.decompose(&path_graph(int(k))).unwrap();
        }
        assert_eq!(session.cache_len(), 1);
        // Distinct shapes (different n) evict down to capacity.
        session
            .decompose(&builders::path(vec![int(1), int(4)]).unwrap())
            .unwrap();
        session
            .decompose(&builders::star(vec![int(10), int(1), int(1), int(1)]).unwrap())
            .unwrap();
        assert_eq!(session.cache_len(), 2);
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

    #[test]
    fn config_builders_compose() {
        let cfg = SessionConfig::new().with_cache_capacity(7);
        assert_eq!(cfg.cache_capacity, 7);
        assert_eq!(SessionConfig::default(), SessionConfig::new());
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
        assert!(!session.install_cell(StabilityCell {
            vertex: 0,
            lo: int(1),
            hi: int(2),
            shape: vec![],
            alphas: vec![],
        }));
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

    #[test]
    fn stability_cells_install_and_invalidate() {
        let g = path_graph(int(5));
        let mut session = DecompositionSession::new(g);
        let shape = session.current().unwrap().shape();
        let alphas = session
            .current()
            .unwrap()
            .pairs()
            .iter()
            .map(|p| CellMoebius {
                p: Rational::zero(),
                q: p.alpha.clone(),
                r: Rational::zero(),
                s: Rational::one(),
            })
            .collect::<Vec<_>>();
        assert!(session.install_cell(StabilityCell {
            vertex: 0,
            lo: int(4),
            hi: int(6),
            shape,
            alphas,
        }));
        assert_eq!(session.cell_count(), 1);
        // A move inside the cell keeps it installed…
        session.update_weight(0, int(6)).unwrap();
        assert_eq!(session.cell_count(), 1);
        let committed = session.graph().unwrap().clone();
        assert_eq!(*session.current().unwrap(), decompose(&committed).unwrap());
        // …a move outside (or any other mutation) invalidates.
        session.update_weight(0, int(40)).unwrap();
        assert_eq!(session.cell_count(), 0);
        let committed = session.graph().unwrap().clone();
        assert_eq!(*session.current().unwrap(), decompose(&committed).unwrap());
    }

    #[test]
    fn lying_cell_cannot_change_results() {
        let g = path_graph(int(5));
        let mut session = DecompositionSession::new(g);
        let shape = session.current().unwrap().shape();
        let k = shape.len();
        // A cell that predicts an absurdly low constant α for every round.
        let alphas = (0..k)
            .map(|_| CellMoebius {
                p: Rational::zero(),
                q: Rational::one(),
                r: Rational::zero(),
                s: int(1000),
            })
            .collect::<Vec<_>>();
        session.install_cell(StabilityCell {
            vertex: 0,
            lo: int(1),
            hi: int(100),
            shape,
            alphas,
        });
        session.update_weight(0, int(6)).unwrap();
        let committed = session.graph().unwrap().clone();
        assert_eq!(*session.current().unwrap(), decompose(&committed).unwrap());
    }
}
