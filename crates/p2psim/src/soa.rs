//! Struct-of-arrays swarm core: flat capacity lanes, CSR peer adjacency,
//! and contiguous per-edge send/receive lanes.
//!
//! A protocol round is two flat passes over the arc arena:
//!
//! 1. **respond** — every agent sums its receive lane (peer-slot order) and
//!    writes its send lane (equation (1), or a fixed Sybil split);
//! 2. **deliver** — every agent gathers `received[arc] = outgoing[rev[arc]]`
//!    through the reverse-arc index and refreshes its utility lanes.
//!
//! Neither pass allocates: after warm-up a round touches only pre-sized
//! lanes, which is what lets a 10⁶-agent swarm run at interactive speed.
//! The per-agent gather is bit-identical to the legacy message-routing
//! engine because each receive cell has exactly one writer per round and
//! the legacy utility sum also ran in peer-slot order; see
//! `tests/swarm_soa_equivalence.rs` for the replayed proof.
//!
//! [`CsrTopology`] is shared with `prs_dynamics::F64Engine`, which runs
//! its allocation lanes over the same offsets/rev layout. Dynamic
//! membership (join/leave/rewire with free-list slot recycling and
//! incremental CSR patching) lives in [`crate::membership`].

use crate::agent::{AgentId, Strategy};
use crate::swarm::{SwarmConfig, SwarmMetrics};
use prs_graph::{Graph, GraphError};
use std::ops::Range;

/// Span names under the `p2psim` layer, bound to `PSPAN_*` consts so
/// prs-lint's trace-registry extraction ties them to the layer (see
/// `span_const_layers` in `crates/xtask/src/rules.rs`).
const PSPAN_ROUND: &str = "soa_round";
const PSPAN_CHECKPOINT: &str = "checkpoint";

/// Sentinel for stale arena cells (abandoned or not-yet-used region slots).
const STALE: usize = usize::MAX;

/// Errors from incremental topology patching.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TopologyError {
    /// An endpoint slot id is out of range.
    UnknownSlot(AgentId),
    /// Both endpoints are the same agent.
    SelfLoop(AgentId),
    /// The edge is already present.
    DuplicateEdge(AgentId, AgentId),
    /// The edge to remove does not exist.
    MissingEdge(AgentId, AgentId),
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::UnknownSlot(v) => write!(f, "unknown agent slot {v}"),
            TopologyError::SelfLoop(v) => write!(f, "self-loop at agent {v}"),
            TopologyError::DuplicateEdge(u, v) => write!(f, "edge {u}–{v} already present"),
            TopologyError::MissingEdge(u, v) => write!(f, "edge {u}–{v} not present"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// Why a graph's weights cannot seed the f64 swarm, which plays each
/// weight's f64 image as that agent's capacity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CapacityError {
    /// The agent's weight is beyond the f64 range (its image is infinite).
    NotFinite(AgentId),
    /// The agent's weight is positive but its f64 image is zero.
    Underflow(AgentId),
}

impl std::fmt::Display for CapacityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CapacityError::NotFinite(v) => {
                write!(f, "weight of agent {v} has no finite f64 capacity")
            }
            CapacityError::Underflow(v) => {
                write!(
                    f,
                    "positive weight of agent {v} underflows to f64 capacity 0"
                )
            }
        }
    }
}

impl std::error::Error for CapacityError {}

/// Per-arc payload lanes that must move in lockstep with CSR region edits.
///
/// The topology owns only the adjacency structure (`peer_ids` and the
/// reverse-arc index); engines keep their per-arc payloads (send/receive
/// shares) in parallel vectors indexed by the same arc ids. Every patch
/// that relocates or shifts a region calls back through this trait so the
/// payloads stay aligned.
pub trait ArcLanes {
    /// Grow the arc arena to `len` cells (new cells zeroed).
    fn grow(&mut self, len: usize);
    /// Copy `len` cells from `src` to `dst` (regions never overlap).
    fn copy_region(&mut self, src: usize, dst: usize, len: usize);
    /// Move cells `[pos, end)` one cell up, leaving `pos` stale.
    fn shift_up(&mut self, pos: usize, end: usize);
    /// Move cells `(pos, end)` one cell down, overwriting `pos`.
    fn shift_down(&mut self, pos: usize, end: usize);
    /// Zero one freshly inserted cell.
    fn clear(&mut self, pos: usize);
}

/// A no-payload implementation for topology-only callers (tests, builders).
impl ArcLanes for () {
    fn grow(&mut self, _len: usize) {}
    fn copy_region(&mut self, _src: usize, _dst: usize, _len: usize) {}
    fn shift_up(&mut self, _pos: usize, _end: usize) {}
    fn shift_down(&mut self, _pos: usize, _end: usize) {}
    fn clear(&mut self, _pos: usize) {}
}

/// CSR-style undirected adjacency with a reverse-arc index and per-region
/// headroom for incremental patching.
///
/// Agent `v`'s peers live in the arc arena at
/// `peer_ids[offsets[v] .. offsets[v] + degrees[v]]`, sorted ascending;
/// the region owns `caps[v] ≥ degrees[v]` cells. `rev[a]` is the absolute
/// arc index of arc `a`'s reverse (`rev[rev[a]] == a`). Regions that
/// outgrow their headroom relocate to the arena tail (amortized doubling),
/// so offsets need not stay monotone after churn.
#[derive(Clone, Debug)]
pub struct CsrTopology {
    offsets: Vec<usize>,
    degrees: Vec<usize>,
    caps: Vec<usize>,
    peer_ids: Vec<AgentId>,
    rev: Vec<usize>,
}

impl CsrTopology {
    /// Flatten a [`Graph`]'s adjacency (regions packed, no headroom).
    pub fn from_graph(g: &Graph) -> Self {
        let n = g.n();
        let mut offsets = Vec::with_capacity(n);
        let mut degrees = Vec::with_capacity(n);
        let mut peer_ids = Vec::with_capacity(2 * g.m());
        let mut acc = 0usize;
        for v in 0..n {
            let nb = g.neighbors(v);
            offsets.push(acc);
            degrees.push(nb.len());
            acc += nb.len();
            peer_ids.extend_from_slice(nb);
        }
        let caps = degrees.clone();
        let mut rev = vec![STALE; peer_ids.len()];
        for v in 0..n {
            for a in offsets[v]..offsets[v] + degrees[v] {
                let u = peer_ids[a];
                // prs-lint: allow(panic, reason = "Graph guarantees symmetric sorted adjacency; asymmetry is a graph-construction bug")
                let pos = peer_ids[offsets[u]..offsets[u] + degrees[u]]
                    .binary_search(&v)
                    .expect("undirected adjacency is symmetric");
                rev[a] = offsets[u] + pos;
            }
        }
        CsrTopology {
            offsets,
            degrees,
            caps,
            peer_ids,
            rev,
        }
    }

    /// Number of agent slots (live or recycled).
    #[inline]
    pub fn n_slots(&self) -> usize {
        self.offsets.len()
    }

    /// Total arc-arena length (lanes must be sized to this).
    #[inline]
    pub fn arena_len(&self) -> usize {
        self.peer_ids.len()
    }

    /// Degree of slot `v`.
    #[inline]
    pub fn degree(&self, v: AgentId) -> usize {
        self.degrees[v]
    }

    /// Arc range of slot `v`'s live region.
    #[inline]
    pub fn range(&self, v: AgentId) -> Range<usize> {
        self.offsets[v]..self.offsets[v] + self.degrees[v]
    }

    /// Sorted peer ids of slot `v`.
    #[inline]
    pub fn peers(&self, v: AgentId) -> &[AgentId] {
        &self.peer_ids[self.range(v)]
    }

    /// Peer at the far end of arc `a`.
    #[inline]
    pub fn peer_at(&self, a: usize) -> AgentId {
        self.peer_ids[a]
    }

    /// Absolute index of the reverse arc of `a`.
    #[inline]
    pub fn rev(&self, a: usize) -> usize {
        self.rev[a]
    }

    /// Arc index of `v → u`, if adjacent.
    pub fn find_arc(&self, v: AgentId, u: AgentId) -> Option<usize> {
        let r = self.range(v);
        self.peer_ids[r.clone()]
            .binary_search(&u)
            .ok()
            .map(|pos| r.start + pos)
    }

    /// Append a fresh slot with an empty region of `region_cap` headroom.
    pub fn add_slot<L: ArcLanes>(&mut self, region_cap: usize, lanes: &mut L) -> AgentId {
        let v = self.offsets.len();
        let start = self.peer_ids.len();
        self.offsets.push(start);
        self.degrees.push(0);
        self.caps.push(region_cap);
        self.peer_ids.resize(start + region_cap, STALE);
        self.rev.resize(start + region_cap, STALE);
        lanes.grow(start + region_cap);
        v
    }

    /// Insert undirected edge `a–b`, keeping both regions sorted and the
    /// reverse index exact. Returns the two new arc indices
    /// `(a → b, b → a)`; their lane cells are zeroed via [`ArcLanes::clear`].
    pub fn insert_edge<L: ArcLanes>(
        &mut self,
        a: AgentId,
        b: AgentId,
        lanes: &mut L,
    ) -> Result<(usize, usize), TopologyError> {
        let n = self.n_slots();
        if a >= n {
            return Err(TopologyError::UnknownSlot(a));
        }
        if b >= n {
            return Err(TopologyError::UnknownSlot(b));
        }
        if a == b {
            return Err(TopologyError::SelfLoop(a));
        }
        if self.find_arc(a, b).is_some() {
            return Err(TopologyError::DuplicateEdge(a, b));
        }
        let pa = self.insert_half(a, b, lanes);
        let pb = self.insert_half(b, a, lanes);
        self.rev[pa] = pb;
        self.rev[pb] = pa;
        lanes.clear(pa);
        lanes.clear(pb);
        Ok((pa, pb))
    }

    /// Remove undirected edge `a–b` (both regions shift down one cell).
    pub fn remove_edge<L: ArcLanes>(
        &mut self,
        a: AgentId,
        b: AgentId,
        lanes: &mut L,
    ) -> Result<(), TopologyError> {
        let n = self.n_slots();
        if a >= n {
            return Err(TopologyError::UnknownSlot(a));
        }
        if b >= n {
            return Err(TopologyError::UnknownSlot(b));
        }
        if self.find_arc(a, b).is_none() {
            return Err(TopologyError::MissingEdge(a, b));
        }
        self.remove_half(a, b, lanes);
        self.remove_half(b, a, lanes);
        Ok(())
    }

    /// Sorted insertion of `u` into `v`'s region (growing it on demand).
    /// The new cell's `rev` is left stale; the caller links both halves.
    fn insert_half<L: ArcLanes>(&mut self, v: AgentId, u: AgentId, lanes: &mut L) -> usize {
        if self.degrees[v] == self.caps[v] {
            let new_cap = (self.caps[v] * 2).max(4);
            self.relocate(v, new_cap, lanes);
        }
        let start = self.offsets[v];
        let d = self.degrees[v];
        let p = self.peer_ids[start..start + d].partition_point(|&x| x < u);
        // Shift [start+p, start+d) up one cell, repairing the partners'
        // back-pointers as each arc moves.
        let mut i = start + d;
        while i > start + p {
            self.peer_ids[i] = self.peer_ids[i - 1];
            let r = self.rev[i - 1];
            self.rev[i] = r;
            self.rev[r] = i;
            i -= 1;
        }
        lanes.shift_up(start + p, start + d);
        self.peer_ids[start + p] = u;
        self.rev[start + p] = STALE;
        self.degrees[v] = d + 1;
        start + p
    }

    /// Remove `u` from `v`'s sorted region, shifting the tail down.
    fn remove_half<L: ArcLanes>(&mut self, v: AgentId, u: AgentId, lanes: &mut L) {
        let start = self.offsets[v];
        let d = self.degrees[v];
        let p = start + self.peer_ids[start..start + d].partition_point(|&x| x < u);
        for i in p..start + d - 1 {
            self.peer_ids[i] = self.peer_ids[i + 1];
            let r = self.rev[i + 1];
            self.rev[i] = r;
            self.rev[r] = i;
        }
        lanes.shift_down(p, start + d);
        self.peer_ids[start + d - 1] = STALE;
        self.rev[start + d - 1] = STALE;
        self.degrees[v] = d - 1;
    }

    /// Move `v`'s region to the arena tail with `new_cap` headroom
    /// (amortized-doubling growth; the old region is abandoned in place).
    fn relocate<L: ArcLanes>(&mut self, v: AgentId, new_cap: usize, lanes: &mut L) {
        let old_start = self.offsets[v];
        let old_cap = self.caps[v];
        let d = self.degrees[v];
        let new_start = self.peer_ids.len();
        self.peer_ids.resize(new_start + new_cap, STALE);
        self.rev.resize(new_start + new_cap, STALE);
        lanes.grow(new_start + new_cap);
        for j in 0..d {
            self.peer_ids[new_start + j] = self.peer_ids[old_start + j];
            let r = self.rev[old_start + j];
            self.rev[new_start + j] = r;
            self.rev[r] = new_start + j;
        }
        lanes.copy_region(old_start, new_start, d);
        for j in old_start..old_start + old_cap {
            self.peer_ids[j] = STALE;
            self.rev[j] = STALE;
        }
        self.offsets[v] = new_start;
        self.caps[v] = new_cap;
    }

    /// Structural invariants (sorted disjoint regions, `rev` involution,
    /// symmetry). Used by the membership property tests; `Err` carries a
    /// human-readable description of the first violation.
    pub fn check(&self) -> Result<(), String> {
        let mut regions: Vec<(usize, usize, AgentId)> = (0..self.n_slots())
            .map(|v| (self.offsets[v], self.caps[v], v))
            .collect();
        regions.sort_unstable();
        for w in regions.windows(2) {
            let ((s0, c0, v0), (s1, _, v1)) = (w[0], w[1]);
            if s0 + c0 > s1 {
                return Err(format!("regions of slots {v0} and {v1} overlap"));
            }
        }
        if let Some(&(s, c, v)) = regions.last() {
            if s + c > self.arena_len() {
                return Err(format!("region of slot {v} exceeds the arena"));
            }
        }
        for v in 0..self.n_slots() {
            if self.degrees[v] > self.caps[v] {
                return Err(format!("slot {v}: degree exceeds region capacity"));
            }
            let r = self.range(v);
            let peers = &self.peer_ids[r.clone()];
            if !peers.windows(2).all(|p| p[0] < p[1]) {
                return Err(format!("slot {v}: peers not strictly sorted"));
            }
            for a in r {
                let u = self.peer_ids[a];
                if u >= self.n_slots() || u == v {
                    return Err(format!("slot {v}: bad peer {u}"));
                }
                let ra = self.rev[a];
                if !self.range(u).contains(&ra) {
                    return Err(format!("arc {a}: rev outside peer {u}'s region"));
                }
                if self.peer_ids[ra] != v || self.rev[ra] != a {
                    return Err(format!("arc {a}: rev not an involution"));
                }
            }
        }
        Ok(())
    }
}

/// The two per-arc payload lanes of the swarm engine, aligned with the
/// topology's arc arena.
#[derive(Clone, Debug)]
pub(crate) struct EdgeLanes {
    /// What each arc's owner uploads along it this round.
    pub outgoing: Vec<f64>,
    /// What each arc's owner received along it last round.
    pub received: Vec<f64>,
}

impl ArcLanes for EdgeLanes {
    fn grow(&mut self, len: usize) {
        self.outgoing.resize(len, 0.0);
        self.received.resize(len, 0.0);
    }
    fn copy_region(&mut self, src: usize, dst: usize, len: usize) {
        self.outgoing.copy_within(src..src + len, dst);
        self.received.copy_within(src..src + len, dst);
    }
    fn shift_up(&mut self, pos: usize, end: usize) {
        self.outgoing.copy_within(pos..end, pos + 1);
        self.received.copy_within(pos..end, pos + 1);
    }
    fn shift_down(&mut self, pos: usize, end: usize) {
        self.outgoing.copy_within(pos + 1..end, pos);
        self.received.copy_within(pos + 1..end, pos);
    }
    fn clear(&mut self, pos: usize) {
        self.outgoing[pos] = 0.0;
        self.received[pos] = 0.0;
    }
}

/// Raw pointer views over the round-pass lanes.
///
/// Plain pointers instead of slices so the deterministic parallel
/// partitioning can hand every worker the same view: disjointness is by
/// agent region (each agent's cells are written only by the worker that
/// owns the agent), not by a contiguous split of the arena — after churn
/// the regions of a contiguous agent range need not be contiguous.
#[derive(Clone, Copy)]
struct RawLanes {
    offsets: *const usize,
    degrees: *const usize,
    rev: *const usize,
    effective: *const f64,
    fixed: *const bool,
    outgoing: *mut f64,
    received: *mut f64,
    u_cur: *mut f64,
    u_prev: *mut f64,
    avg: *mut f64,
}

// SAFETY: the pointers are only dereferenced inside the two round passes,
// where every cell has exactly one writing owner (the worker that owns the
// agent's slot) and cross-worker reads are separated from the writes by a
// barrier. See `run_partitioned` for the pass-by-pass argument.
unsafe impl Send for RawLanes {}
unsafe impl Sync for RawLanes {}

/// Shared per-worker convergence-delta cells for the parallel run.
#[derive(Clone, Copy)]
struct SharedDeltas(*mut f64);
// SAFETY: cell `w` is written only by worker `w`; all reads happen after
// the barrier following the writes.
unsafe impl Send for SharedDeltas {}
unsafe impl Sync for SharedDeltas {}

/// One agent's respond pass (equation (1) over its receive lane).
///
/// SAFETY: the caller must guarantee exclusive access to agent `v`'s arc
/// region of `outgoing` and to no other cells; the agent's `received`
/// region and the per-agent lanes are read-only here and unwritten by any
/// concurrent respond call.
unsafe fn respond_agent(l: &RawLanes, v: usize) {
    if *l.fixed.add(v) {
        // Fixed-split (Sybil) identities re-upload their constant split;
        // the lane already holds it, so there is nothing to recompute.
        return;
    }
    let start = *l.offsets.add(v);
    let d = *l.degrees.add(v);
    // `u_cur[v]` always holds the slot-order sum of the receive region:
    // `deliver_agent` and `refresh_utility` compute it with the same
    // left-to-right fold, so reading the cached value is bit-identical to
    // re-summing the lane and saves a pass over it.
    let total = *l.u_cur.add(v);
    let eff = *l.effective.add(v);
    if total > 0.0 {
        let scale = eff / total;
        for i in 0..d {
            *l.outgoing.add(start + i) = *l.received.add(start + i) * scale;
        }
    } else {
        let even = eff / d.max(1) as f64;
        for i in 0..d {
            *l.outgoing.add(start + i) = even;
        }
    }
}

/// One agent's deliver pass: gather `received[arc] = outgoing[rev[arc]]`
/// and refresh the utility lanes.
///
/// SAFETY: the caller must guarantee exclusive access to agent `v`'s arc
/// region of `received` and to `u_cur[v]`/`u_prev[v]`, plus shared read
/// access to the whole `outgoing` lane (no concurrent writer).
unsafe fn deliver_agent(l: &RawLanes, v: usize) {
    let start = *l.offsets.add(v);
    let d = *l.degrees.add(v);
    *l.u_prev.add(v) = *l.u_cur.add(v);
    let mut sum = 0.0f64;
    for i in 0..d {
        let x = *l.outgoing.add(*l.rev.add(start + i));
        *l.received.add(start + i) = x;
        sum += x;
    }
    *l.u_cur.add(v) = sum;
}

/// The struct-of-arrays swarm engine.
///
/// Slot-indexed: agent ids are stable slot indices; departed agents leave
/// zeroed slots behind that the membership layer recycles through a free
/// list (see [`crate::membership`]). The legacy [`crate::Swarm`] API is a
/// thin facade over this type.
#[derive(Clone, Debug)]
pub struct SoaSwarm {
    pub(crate) topo: CsrTopology,
    pub(crate) lanes: EdgeLanes,
    /// True upload capacity `w_v` per slot.
    pub(crate) capacities: Vec<f64>,
    /// Capacity the protocol *plays* (equals `capacities` unless the agent
    /// misreports).
    pub(crate) effective: Vec<f64>,
    /// Fixed-split (Sybil) slots: the send lane is constant.
    pub(crate) fixed: Vec<bool>,
    /// Live mask; dead slots have degree 0 and zeroed lanes.
    pub(crate) alive: Vec<bool>,
    /// `U_v(t)`: this round's utility per slot.
    pub(crate) u_cur: Vec<f64>,
    /// `U_v(t-1)`, for the cycle-averaged convergence check.
    pub(crate) u_prev: Vec<f64>,
    /// Scratch lane for the pre-step cycle averages (no per-round alloc).
    pub(crate) avg_scratch: Vec<f64>,
    /// Recycled slots, most recently freed last.
    pub(crate) free: Vec<AgentId>,
    /// Live agent count.
    pub(crate) live: usize,
    pub(crate) round: usize,
}

impl SoaSwarm {
    /// Build from a weighted topology; every agent honest.
    pub fn new(g: &Graph) -> Self {
        Self::with_strategies(g, |_| Strategy::Honest)
    }

    /// [`SoaSwarm::new`] for weights from outside the program: rejects a
    /// weight whose f64 image is infinite, or zero while the weight is
    /// positive, since the swarm would play a different instance.
    pub fn try_new(g: &Graph) -> Result<Self, CapacityError> {
        for (v, w) in g.weights().iter().enumerate() {
            let cap = w.to_f64();
            if !cap.is_finite() {
                return Err(CapacityError::NotFinite(v));
            }
            if cap == 0.0 && w.is_positive() {
                return Err(CapacityError::Underflow(v));
            }
        }
        Ok(Self::new(g))
    }

    /// Build assigning each agent a strategy (same validity asserts as the
    /// legacy per-agent constructor).
    pub fn with_strategies(g: &Graph, strategy: impl Fn(AgentId) -> Strategy) -> Self {
        let n = g.n();
        let topo = CsrTopology::from_graph(g);
        let w = g.weights_f64();
        let mut lanes = EdgeLanes {
            outgoing: vec![0.0; topo.arena_len()],
            received: vec![0.0; topo.arena_len()],
        };
        let mut effective = vec![0.0; n];
        let mut fixed = vec![false; n];
        for v in 0..n {
            let deg = topo.degree(v);
            let d = deg.max(1) as f64;
            let r = topo.range(v);
            match strategy(v) {
                Strategy::Honest => {
                    effective[v] = w[v];
                    let even = w[v] / d;
                    for a in r {
                        lanes.outgoing[a] = even;
                    }
                }
                Strategy::Sybil { w1, w2 } => {
                    assert_eq!(deg, 2, "ring Sybil attack needs degree 2");
                    effective[v] = w[v];
                    fixed[v] = true;
                    lanes.outgoing[r.start] = w1;
                    lanes.outgoing[r.start + 1] = w2;
                }
                Strategy::Misreport { reported } => {
                    assert!(
                        reported >= 0.0 && reported <= w[v],
                        "reported capacity must lie in [0, w_v]"
                    );
                    effective[v] = reported;
                    let even = reported / d;
                    for a in r {
                        lanes.outgoing[a] = even;
                    }
                }
            }
        }
        let mut swarm = SoaSwarm {
            topo,
            lanes,
            capacities: w,
            effective,
            fixed,
            alive: vec![true; n],
            u_cur: vec![0.0; n],
            u_prev: vec![0.0; n],
            avg_scratch: vec![0.0; n],
            free: Vec::new(),
            live: n,
            round: 0,
        };
        swarm.deliver();
        swarm
    }

    /// Number of agent slots (live + recycled).
    #[inline]
    pub fn n_slots(&self) -> usize {
        self.topo.n_slots()
    }

    /// Number of live agents.
    #[inline]
    pub fn live_agents(&self) -> usize {
        self.live
    }

    /// Whether slot `v` currently hosts a live agent.
    #[inline]
    pub fn is_alive(&self, v: AgentId) -> bool {
        self.alive[v]
    }

    /// Upload capacity of slot `v` (0 for recycled slots).
    #[inline]
    pub fn capacity(&self, v: AgentId) -> f64 {
        self.capacities[v]
    }

    /// Upload capacities per slot.
    #[inline]
    pub fn capacities(&self) -> &[f64] {
        &self.capacities
    }

    /// Degree of slot `v`.
    #[inline]
    pub fn degree(&self, v: AgentId) -> usize {
        self.topo.degree(v)
    }

    /// Sorted peer ids of slot `v`.
    #[inline]
    pub fn peers(&self, v: AgentId) -> &[AgentId] {
        self.topo.peers(v)
    }

    /// The shared CSR topology.
    #[inline]
    pub fn topology(&self) -> &CsrTopology {
        &self.topo
    }

    /// Receive lane of slot `v` (peer-slot order).
    #[inline]
    pub fn received_of(&self, v: AgentId) -> &[f64] {
        &self.lanes.received[self.topo.range(v)]
    }

    /// Send lane of slot `v` (peer-slot order).
    #[inline]
    pub fn outgoing_of(&self, v: AgentId) -> &[f64] {
        &self.lanes.outgoing[self.topo.range(v)]
    }

    /// Current utilities `U_v(t)` per slot (0 for recycled slots).
    pub fn utilities(&self) -> Vec<f64> {
        self.u_cur.clone()
    }

    /// Utilities averaged over the last two rounds (stable under the
    /// period-2 oscillation bipartite topologies can exhibit).
    pub fn averaged_utilities(&self) -> Vec<f64> {
        self.u_cur
            .iter()
            .zip(&self.u_prev)
            .map(|(a, p)| 0.5 * (a + p))
            .collect()
    }

    /// Rounds executed so far.
    #[inline]
    pub fn round(&self) -> usize {
        self.round
    }

    fn raw(&mut self) -> RawLanes {
        RawLanes {
            offsets: self.topo.offsets.as_ptr(),
            degrees: self.topo.degrees.as_ptr(),
            rev: self.topo.rev.as_ptr(),
            effective: self.effective.as_ptr(),
            fixed: self.fixed.as_ptr(),
            outgoing: self.lanes.outgoing.as_mut_ptr(),
            received: self.lanes.received.as_mut_ptr(),
            u_cur: self.u_cur.as_mut_ptr(),
            u_prev: self.u_prev.as_mut_ptr(),
            avg: self.avg_scratch.as_mut_ptr(),
        }
    }

    /// Re-derive the cached utility `u_cur[v]` from the receive lane in
    /// slot order (the same left-to-right sum `deliver` computes). Needed
    /// after membership edits change a live agent's receive region.
    pub(crate) fn refresh_utility(&mut self, v: AgentId) {
        self.u_cur[v] = self.lanes.received[self.topo.range(v)].iter().sum();
    }

    /// The deliver pass alone (used once at construction and after
    /// membership edits that must refresh receipts).
    pub(crate) fn deliver(&mut self) {
        let l = self.raw();
        for v in 0..self.topo.n_slots() {
            // SAFETY: sequential loop — each agent's cells are written
            // exactly once, with no concurrent access.
            unsafe { deliver_agent(&l, v) }
        }
    }

    /// One protocol round: respond, then deliver. Allocation-free.
    pub fn step(&mut self) {
        let mut sp = prs_trace::span("p2psim", PSPAN_ROUND);
        let r = self.round;
        sp.attr("round", || r.to_string());
        let l = self.raw();
        let n = self.topo.n_slots();
        for v in 0..n {
            // SAFETY: sequential loop — exclusive access trivially holds.
            unsafe { respond_agent(&l, v) }
        }
        for v in 0..n {
            // SAFETY: as above; `outgoing` is no longer written this round.
            unsafe { deliver_agent(&l, v) }
        }
        self.round += 1;
    }

    /// Run until the cycle-averaged utilities stop moving (or
    /// `cfg.max_rounds`). Bit-identical to the legacy `Swarm::run` loop;
    /// the steady-state path performs no heap allocation (the convergence
    /// averages live in a pre-sized scratch lane).
    pub fn run(&mut self, cfg: &SwarmConfig) -> SwarmMetrics {
        let mut sp = prs_trace::span("p2psim", "swarm_run");
        let agents = self.live;
        sp.attr("agents", || agents.to_string());
        let mut checkpoint = 16usize;
        let mut trace = Vec::new();
        let mut converged = false;
        let mut rounds = 0usize;
        if cfg.record_trace {
            trace.push(self.utilities());
        }
        let slots = self.topo.n_slots();
        // Prime the scratch lane with the pre-loop cycle averages; after
        // each round the delta fold writes the fresh averages back, so the
        // next iteration's "before" snapshot needs no separate pass.
        for v in 0..slots {
            self.avg_scratch[v] = 0.5 * (self.u_cur[v] + self.u_prev[v]);
        }
        for _ in 0..cfg.max_rounds {
            self.step();
            rounds += 1;
            if cfg.record_trace {
                trace.push(self.utilities());
            }
            let mut delta = 0.0f64;
            for v in 0..slots {
                let after = 0.5 * (self.u_cur[v] + self.u_prev[v]);
                delta = delta.max((self.avg_scratch[v] - after).abs() / (1.0 + after.abs()));
                self.avg_scratch[v] = after;
            }
            if rounds == checkpoint {
                checkpoint = checkpoint.saturating_mul(2);
                if prs_trace::is_enabled() {
                    let spread = self.fairness_spread();
                    let live = self.live;
                    prs_trace::instant("p2psim", PSPAN_CHECKPOINT, || {
                        vec![
                            ("round", rounds.to_string()),
                            ("delta", format!("{delta:e}")),
                            ("live", live.to_string()),
                            ("fairness_spread", format!("{spread:.6}")),
                        ]
                    });
                }
            }
            if delta <= cfg.tol {
                converged = true;
                break;
            }
        }
        sp.attr("rounds", || rounds.to_string());
        sp.attr("converged", || converged.to_string());
        SwarmMetrics {
            rounds,
            converged,
            utilities: self.averaged_utilities(),
            trace,
        }
    }

    /// In-vivo incentive-ratio proxy: the spread `max / min` of the
    /// cycle-averaged download-per-capacity ratios `Ū_v / w_v` over live
    /// agents with positive capacity. Reported at convergence checkpoints
    /// so churn runs expose how far any agent's return strays from the
    /// common rate; `NaN` when no live agent qualifies.
    pub fn fairness_spread(&self) -> f64 {
        let mut lo = f64::INFINITY;
        let mut hi = 0.0f64;
        for v in 0..self.topo.n_slots() {
            if self.alive[v] && self.capacities[v] > 0.0 {
                let r = 0.5 * (self.u_cur[v] + self.u_prev[v]) / self.capacities[v];
                lo = lo.min(r);
                hi = hi.max(r);
            }
        }
        if lo.is_finite() && lo > 0.0 {
            hi / lo
        } else {
            f64::NAN
        }
    }

    /// Deterministic parallel run: agents are partitioned into `threads`
    /// contiguous slot ranges, each owned by one worker for the whole run.
    ///
    /// Per round, two barrier-separated passes execute exactly the
    /// sequential per-agent kernels; every lane cell is written by exactly
    /// one worker (the owner of its agent), cross-worker reads of the send
    /// lane happen only after the barrier that ends the respond pass, and
    /// the convergence delta is a max-reduction over per-worker partials —
    /// order-independent for the NaN-free values the protocol produces.
    /// The result is therefore bit-identical to [`SoaSwarm::run`] for any
    /// thread count, which `soa::tests::partitioned_run_is_bit_identical`
    /// pins.
    ///
    /// Falls back to the sequential loop for one thread or when
    /// `cfg.record_trace` asks for per-round snapshots.
    // prs-lint: allow(panic, reason = "poison/join propagation in the partitioned fan-out: a worker panic already aborted the run")
    pub fn run_partitioned(&mut self, cfg: &SwarmConfig, threads: usize) -> SwarmMetrics {
        let slots = self.topo.n_slots();
        let threads = threads.max(1).min(slots.max(1));
        if threads == 1 || cfg.record_trace {
            return self.run(cfg);
        }
        let mut sp = prs_trace::span("p2psim", "swarm_run");
        let agents = self.live;
        sp.attr("agents", || agents.to_string());
        sp.attr("workers", || threads.to_string());

        let chunk = slots.div_ceil(threads);
        let ranges: Vec<Range<usize>> = (0..threads)
            .map(|w| (w * chunk).min(slots)..((w + 1) * chunk).min(slots))
            .collect();
        let l = self.raw();
        let mut deltas = vec![0.0f64; threads];
        let dp = SharedDeltas(deltas.as_mut_ptr());
        let barrier = std::sync::Barrier::new(threads);
        let (tol, max_rounds) = (cfg.tol, cfg.max_rounds);
        let outcome = std::sync::Mutex::new((0usize, false));

        crossbeam::scope(|scope| {
            let (barrier, outcome, ranges) = (&barrier, &outcome, &ranges);
            for (w, range) in ranges.iter().cloned().enumerate() {
                scope.spawn(move |_| {
                    // Bind the Send wrappers whole: edition-2021 disjoint
                    // capture would otherwise capture their raw-pointer
                    // fields directly, which are not `Send`.
                    let (l, dp) = (l, dp);
                    {
                        let mut wsp = prs_trace::span("p2psim", "par_worker");
                        wsp.attr("worker", || w.to_string());
                        let mut rounds = 0usize;
                        let mut converged = false;
                        let mut checkpoint = 16usize;
                        // Prime the owned `avg` cells with the pre-loop
                        // cycle averages; each deliver pass writes the
                        // fresh averages back, mirroring the fused
                        // sequential loop in `run`.
                        for v in range.clone() {
                            // SAFETY: this worker owns slot range `range`;
                            // the `avg`/`u_*` cells of owned agents have
                            // no other reader or writer before the spawn
                            // scope joins.
                            unsafe {
                                *l.avg.add(v) = 0.5 * (*l.u_cur.add(v) + *l.u_prev.add(v));
                            }
                        }
                        for _ in 0..max_rounds {
                            for v in range.clone() {
                                // SAFETY: this worker owns slot range
                                // `range`; the `outgoing` region and
                                // `u_*` cells of each owned agent have no
                                // other writer, and `received` regions
                                // read here were last written by this
                                // same worker's previous deliver pass
                                // (barrier-separated).
                                unsafe { respond_agent(&l, v) }
                            }
                            barrier.wait();
                            let mut local = 0.0f64;
                            for v in range.clone() {
                                // SAFETY: exclusive access to the owned
                                // agents' `received`/`u_*`/`avg` cells;
                                // `outgoing` is read-shared — the barrier
                                // above ends all respond-pass writes.
                                unsafe {
                                    deliver_agent(&l, v);
                                    let after = 0.5 * (*l.u_cur.add(v) + *l.u_prev.add(v));
                                    local = local
                                        .max((*l.avg.add(v) - after).abs() / (1.0 + after.abs()));
                                    *l.avg.add(v) = after;
                                }
                            }
                            // SAFETY: cell `w` is this worker's partial;
                            // peers read it only after the next barrier.
                            unsafe { *dp.0.add(w) = local };
                            barrier.wait();
                            rounds += 1;
                            let mut delta = 0.0f64;
                            for t in 0..threads {
                                // SAFETY: all partials were written before
                                // the barrier just crossed; no writer
                                // touches them until every worker passes
                                // the *next* first barrier, which cannot
                                // happen before this read.
                                delta = delta.max(unsafe { *dp.0.add(t) });
                            }
                            if w == 0 && rounds == checkpoint {
                                checkpoint = checkpoint.saturating_mul(2);
                                if prs_trace::is_enabled() {
                                    prs_trace::instant("p2psim", PSPAN_CHECKPOINT, || {
                                        vec![
                                            ("round", rounds.to_string()),
                                            ("delta", format!("{delta:e}")),
                                        ]
                                    });
                                }
                            }
                            if delta <= tol {
                                converged = true;
                                break;
                            }
                        }
                        if w == 0 {
                            *outcome.lock().expect("poisoned") = (rounds, converged);
                        }
                        wsp.attr("rounds", || rounds.to_string());
                    }
                    // Last act: the scope join can race TLS destructors.
                    prs_trace::flush_thread();
                });
            }
        })
        .expect("swarm worker panicked");

        let (rounds, converged) = *outcome.lock().expect("poisoned");
        self.round += rounds;
        sp.attr("rounds", || rounds.to_string());
        sp.attr("converged", || converged.to_string());
        SwarmMetrics {
            rounds,
            converged,
            utilities: self.averaged_utilities(),
            trace: Vec::new(),
        }
    }

    /// Snapshot the live topology as a [`Graph`] (capacities become exact
    /// rationals), for closed-form BD cross-checks. Returns the graph and
    /// the slot id behind each compacted vertex.
    pub fn to_graph(&self) -> Result<(Graph, Vec<AgentId>), GraphError> {
        let slot_of: Vec<AgentId> = (0..self.topo.n_slots())
            .filter(|&v| self.alive[v])
            .collect();
        let mut compact = vec![usize::MAX; self.topo.n_slots()];
        for (i, &v) in slot_of.iter().enumerate() {
            compact[v] = i;
        }
        let weights = slot_of
            .iter()
            .map(|&v| prs_numeric::Rational::from_f64(self.capacities[v]))
            .collect();
        let mut edges = Vec::new();
        for &v in &slot_of {
            for &u in self.topo.peers(v) {
                if v < u {
                    edges.push((compact[v], compact[u]));
                }
            }
        }
        Graph::new(weights, &edges).map(|g| (g, slot_of))
    }

    /// Full structural invariants (topology plus lane/slot bookkeeping).
    pub fn check_invariants(&self) -> Result<(), String> {
        self.topo.check()?;
        let n = self.topo.n_slots();
        let arena = self.topo.arena_len();
        if self.lanes.outgoing.len() != arena || self.lanes.received.len() != arena {
            return Err("edge lanes out of sync with the arc arena".into());
        }
        for lane in [
            &self.capacities,
            &self.effective,
            &self.u_cur,
            &self.u_prev,
            &self.avg_scratch,
        ] {
            if lane.len() != n {
                return Err("per-agent lane out of sync with the slot count".into());
            }
        }
        if self.alive.len() != n || self.fixed.len() != n {
            return Err("per-agent mask out of sync with the slot count".into());
        }
        if self.alive.iter().filter(|&&a| a).count() != self.live {
            return Err("live counter out of sync with the alive mask".into());
        }
        let mut free_seen = vec![false; n];
        for &v in &self.free {
            if v >= n || self.alive[v] {
                return Err(format!("free list holds live or unknown slot {v}"));
            }
            if free_seen[v] {
                return Err(format!("free list holds slot {v} twice"));
            }
            free_seen[v] = true;
        }
        for (v, &seen) in free_seen.iter().enumerate() {
            if !self.alive[v] {
                if !seen {
                    return Err(format!("dead slot {v} missing from the free list"));
                }
                if self.topo.degree(v) != 0 {
                    return Err(format!("dead slot {v} still has edges"));
                }
                if self.capacities[v] != 0.0 || self.u_cur[v] != 0.0 || self.u_prev[v] != 0.0 {
                    return Err(format!("dead slot {v} has non-zero lanes"));
                }
            } else {
                for &u in self.topo.peers(v) {
                    if !self.alive[u] {
                        return Err(format!("live slot {v} adjacent to dead slot {u}"));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prs_graph::{builders, random};
    use prs_numeric::int;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn topology_matches_graph_adjacency() {
        let g = builders::ring(vec![int(3), int(1), int(4), int(1), int(5)]).unwrap();
        let t = CsrTopology::from_graph(&g);
        assert_eq!(t.n_slots(), 5);
        assert_eq!(t.arena_len(), 10);
        for v in 0..5 {
            assert_eq!(t.peers(v), g.neighbors(v));
            for a in t.range(v) {
                assert_eq!(t.peer_at(t.rev(a)), v, "rev points back");
                assert_eq!(t.rev(t.rev(a)), a, "rev is an involution");
            }
        }
        t.check().unwrap();
    }

    #[test]
    fn insert_and_remove_edges_keep_invariants() {
        let g = builders::ring(vec![int(2); 6]).unwrap();
        let mut t = CsrTopology::from_graph(&g);
        // Chords force region growth + relocation.
        t.insert_edge(0, 3, &mut ()).unwrap();
        t.insert_edge(1, 4, &mut ()).unwrap();
        t.insert_edge(0, 2, &mut ()).unwrap();
        t.check().unwrap();
        assert_eq!(t.peers(0), &[1, 2, 3, 5]);
        assert_eq!(
            t.insert_edge(0, 3, &mut ()),
            Err(TopologyError::DuplicateEdge(0, 3))
        );
        t.remove_edge(0, 3, &mut ()).unwrap();
        t.remove_edge(0, 1, &mut ()).unwrap();
        t.check().unwrap();
        assert_eq!(t.peers(0), &[2, 5]);
        assert_eq!(
            t.remove_edge(0, 3, &mut ()),
            Err(TopologyError::MissingEdge(0, 3))
        );
        assert_eq!(
            t.insert_edge(2, 2, &mut ()),
            Err(TopologyError::SelfLoop(2))
        );
    }

    #[test]
    fn lanes_follow_region_edits() {
        let g = builders::ring(vec![int(1); 4]).unwrap();
        let mut t = CsrTopology::from_graph(&g);
        let mut lanes = EdgeLanes {
            outgoing: (0..t.arena_len()).map(|a| a as f64).collect(),
            received: vec![0.0; t.arena_len()],
        };
        // Ring peers of 0 are [1, 3] with arcs 0, 1; insert 0–2, which
        // relocates region 0 and shift-inserts 2 between them.
        let before: Vec<f64> = t.range(0).map(|a| lanes.outgoing[a]).collect();
        t.insert_edge(0, 2, &mut lanes).unwrap();
        t.check().unwrap();
        assert_eq!(t.peers(0), &[1, 2, 3]);
        let r = t.range(0);
        assert_eq!(lanes.outgoing[r.start], before[0]);
        assert_eq!(lanes.outgoing[r.start + 1], 0.0, "new arc cleared");
        assert_eq!(lanes.outgoing[r.start + 2], before[1]);
    }

    #[test]
    fn conservation_and_convergence_match_bd() {
        let mut rng = StdRng::seed_from_u64(12);
        for n in [4usize, 6, 9] {
            let g = random::random_ring(&mut rng, n, 1, 10);
            let total: f64 = g.weights_f64().iter().sum();
            let bd = prs_bd::decompose(&g).unwrap();
            let target: Vec<f64> = bd.utilities(&g).iter().map(|u| u.to_f64()).collect();
            let mut s = SoaSwarm::new(&g);
            for _ in 0..10 {
                s.step();
                let got: f64 = s.utilities().iter().sum();
                assert!((got - total).abs() < 1e-9, "capacity leaked");
            }
            let m = s.run(&SwarmConfig::default());
            assert!(m.converged);
            for (got, want) in m.utilities.iter().zip(&target) {
                assert!((got - want).abs() < 1e-6, "{got} vs BD {want}");
            }
        }
    }

    #[test]
    fn partitioned_run_is_bit_identical() {
        let mut rng = StdRng::seed_from_u64(77);
        for n in [5usize, 12, 33] {
            let g = random::random_ring(&mut rng, n, 1, 9);
            let cfg = SwarmConfig::default();
            let mut seq = SoaSwarm::new(&g);
            let m_seq = seq.run(&cfg);
            for threads in [2usize, 3, 7] {
                let mut par = SoaSwarm::new(&g);
                let m_par = par.run_partitioned(&cfg, threads);
                assert_eq!(m_par.rounds, m_seq.rounds, "n={n} threads={threads}");
                assert_eq!(m_par.converged, m_seq.converged);
                assert_eq!(
                    bits(&m_par.utilities),
                    bits(&m_seq.utilities),
                    "n={n} threads={threads}: utilities not bit-identical"
                );
                assert_eq!(bits(&par.lanes.outgoing), bits(&seq.lanes.outgoing));
            }
        }
    }

    #[test]
    fn to_graph_round_trips() {
        let g = builders::ring(vec![int(3), int(1), int(4), int(1), int(5)]).unwrap();
        let s = SoaSwarm::new(&g);
        let (g2, slot_of) = s.to_graph().unwrap();
        assert_eq!(g2.n(), 5);
        assert_eq!(slot_of, vec![0, 1, 2, 3, 4]);
        assert_eq!(g2.weights(), g.weights());
        for v in 0..5 {
            assert_eq!(g2.neighbors(v), g.neighbors(v));
        }
    }

    #[test]
    fn fairness_spread_is_one_at_uniform_equilibrium() {
        let g = builders::uniform_ring(6, int(2)).unwrap();
        let mut s = SoaSwarm::new(&g);
        s.run(&SwarmConfig::default());
        let spread = s.fairness_spread();
        assert!((spread - 1.0).abs() < 1e-9, "spread {spread}");
    }
}
