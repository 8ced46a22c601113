//! The single Dinic max-flow kernel, generic over [`Capacity`].
//!
//! One arena, one `bfs_levels`, one explicit-stack `dfs_augment`, one
//! min-cut routine: every engine in this crate is a thin type alias over
//! [`Network`] plus a ~60-line [`Capacity`] impl. The kernel preserves
//! the arc-iteration order of the historical per-engine copies exactly —
//! adjacency lists record arcs in `add_edge` call order, the BFS queue is
//! FIFO, and the DFS cursor scans each list front to back — so replay
//! certificates and golden decompositions are bit-identical across the
//! unification.

use crate::capacity::{Cap, Capacity};
use prs_trace::Counter;

static NETWORKS_BUILT: Counter = Counter::new("flow.networks_built");
static NETWORKS_REUSED: Counter = Counter::new("flow.networks_reused");

/// Node index in a [`Network`].
pub type NodeId = usize;

/// Identifier of a directed edge, as returned by [`Network::add_edge`].
///
/// Internally each undirected residual pair occupies two consecutive arc
/// slots; `EdgeId` always refers to the forward arc.
pub type EdgeId = usize;

#[derive(Clone)]
struct Arc<C> {
    to: NodeId,
    cap: Cap<C>,
    /// Flow currently on this arc (negative on reverse arcs).
    flow: C,
}

impl<C: Capacity> Arc<C> {
    /// Residual capacity; `None` encodes +∞.
    fn residual(&self) -> Option<C> {
        match &self.cap {
            Cap::Infinite => None,
            Cap::Finite(c) => Some(C::sub_ref(c, &self.flow)),
        }
    }

    fn has_residual(&self) -> bool {
        match &self.cap {
            Cap::Infinite => true,
            Cap::Finite(c) => C::has_headroom(&self.flow, c),
        }
    }
}

/// One middle-arc request for [`Network::seed_flow`]: route `desired`
/// units along `source_edge → mid_edge → sink_edge` of a three-layer
/// (source / bipartite middle / sink) network.
pub struct SeedArc<C> {
    /// Forward arc out of the source feeding this route's left node.
    pub source_edge: EdgeId,
    /// Forward middle arc the seed lands on.
    pub mid_edge: EdgeId,
    /// Forward arc from this route's right node into the sink.
    pub sink_edge: EdgeId,
    /// Requested flow; the kernel clamps it to the route's remaining
    /// capacity.
    pub desired: C,
}

/// A directed flow network over any [`Capacity`] backend (Dinic).
pub struct Network<C: Capacity> {
    arcs: Vec<Arc<C>>,
    adj: Vec<Vec<usize>>,
    // Scratch buffers reused across phases and calls (workhorse-buffer
    // idiom): BFS levels and FIFO queue (also the cut queries' stack), DFS
    // arc cursors and arc path, and the cut queries' node marks.
    level: Vec<u32>,
    queue: Vec<NodeId>,
    iter: Vec<usize>,
    path: Vec<usize>,
    reach: Vec<bool>,
}

const UNREACHED: u32 = u32::MAX;

impl<C: Capacity> Network<C> {
    /// A network with `n` nodes and no arcs.
    pub fn new(n: usize) -> Self {
        NETWORKS_BUILT.add(1);
        Network {
            arcs: Vec::new(),
            adj: vec![Vec::new(); n],
            level: vec![UNREACHED; n],
            queue: Vec::new(),
            iter: vec![0; n],
            path: Vec::new(),
            reach: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.adj.len()
    }

    /// Drop all arcs and resize to `n` nodes, keeping every allocation so
    /// the next build reuses arc storage (arena reuse across decomposition
    /// rounds and sweep evaluations).
    pub fn clear(&mut self, n: usize) {
        NETWORKS_REUSED.add(1);
        self.arcs.clear();
        self.adj.iter_mut().for_each(|a| a.clear());
        self.adj.resize_with(n, Vec::new);
        self.level.clear();
        self.level.resize(n, UNREACHED);
        self.iter.clear();
        self.iter.resize(n, 0);
    }

    /// Replace the capacity of forward edge `id` without touching topology —
    /// the Dinkelbach loop updates only the sink arcs `w_u/α` between
    /// parameter values. Call [`reset_flow`](Self::reset_flow) before the
    /// next [`max_flow`](Self::max_flow).
    pub fn set_capacity(&mut self, id: EdgeId, cap: impl Into<Cap<C>>) {
        debug_assert_eq!(id % 2, 0, "capacities live on forward arcs");
        self.arcs[id].cap = cap.into();
    }

    /// Add a directed edge `from → to` with the given capacity; returns its
    /// id. Ids are assigned in call order for every backend, so one set of
    /// edge bookkeeping serves all engines.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, cap: impl Into<Cap<C>>) -> EdgeId {
        assert!(from < self.n() && to < self.n(), "node out of range");
        assert_ne!(from, to, "self-loop arcs are not supported");
        let id = self.arcs.len();
        self.adj[from].push(id);
        self.arcs.push(Arc {
            to,
            cap: cap.into(),
            flow: C::zero(),
        });
        self.adj[to].push(id + 1);
        self.arcs.push(Arc {
            to: from,
            cap: Cap::Finite(C::zero()),
            flow: C::zero(),
        });
        id
    }

    /// Flow currently assigned to edge `id` (a forward arc id from
    /// [`add_edge`](Self::add_edge)).
    pub fn flow_on(&self, id: EdgeId) -> &C {
        &self.arcs[id].flow
    }

    /// The capacity of forward edge `id`.
    pub fn capacity_of(&self, id: EdgeId) -> &Cap<C> {
        debug_assert_eq!(id % 2, 0, "capacities live on forward arcs");
        &self.arcs[id].cap
    }

    /// Add clamped route flows on top of the current flow of a three-layer
    /// network and return the total added.
    ///
    /// Each request is clamped — in order — to the remaining capacity
    /// `cap − flow` of its source, middle and sink arcs, then added in
    /// place on all three, so repeated routes accumulate and every route
    /// conserves at its inner nodes. Added to a *valid* flow
    /// (capacity-respecting and conserving; zero after a build or
    /// [`reset_flow`](Self::reset_flow)) the result stays valid, so a
    /// following [`max_flow`](Self::max_flow) completes it to a maximum
    /// flow: seeding changes only how many augmenting paths are needed,
    /// never the result.
    pub fn seed_flow(&mut self, seeds: &[SeedArc<C>]) -> C {
        let mut total = C::zero();
        'routes: for seed in seeds {
            if !seed.desired.is_positive() {
                continue;
            }
            let route = [seed.source_edge, seed.mid_edge, seed.sink_edge];
            let mut desired = seed.desired.clone();
            for &e in &route {
                if let Some(room) = self.arcs[e].residual() {
                    if !room.is_positive() {
                        continue 'routes;
                    }
                    if !desired.le(&room) {
                        desired = room;
                    }
                }
            }
            for &e in &route {
                self.arcs[e].flow.add_assign_ref(&desired);
                self.arcs[e ^ 1].flow.sub_assign_ref(&desired);
            }
            total.add_assign_ref(&desired);
        }
        total
    }

    /// True iff edge `id` is saturated (meaningless for infinite arcs: always
    /// false there).
    pub fn is_saturated(&self, id: EdgeId) -> bool {
        !self.arcs[id].has_residual()
    }

    /// Reset all flows to zero.
    pub fn reset_flow(&mut self) {
        for a in &mut self.arcs {
            a.flow = C::zero();
        }
    }

    fn bfs_levels(&mut self, s: NodeId) {
        C::BFS_PHASES.add(1);
        let mut sp = prs_trace::span("flow", C::SPAN_BFS);
        sp.attr("engine", || C::ENGINE.to_string());
        self.level.iter_mut().for_each(|l| *l = UNREACHED);
        self.level[s] = 0;
        // FIFO over the scratch queue: a head cursor walks it, nothing pops.
        self.queue.clear();
        self.queue.push(s);
        let mut head = 0;
        while let Some(&v) = self.queue.get(head) {
            head += 1;
            for &aid in &self.adj[v] {
                let a = &self.arcs[aid];
                if a.has_residual() && self.level[a.to] == UNREACHED {
                    self.level[a.to] = self.level[v] + 1;
                    self.queue.push(a.to);
                }
            }
        }
    }

    /// Find one augmenting path in the level graph and push flow along it;
    /// returns the amount pushed (zero when no path remains this phase).
    ///
    /// Iterative with an explicit arc stack: path lengths are bounded only by
    /// the node count, so recursion would overflow the thread stack on long
    /// chains (n ≳ 10⁴). The stack is the scratch `path`, kept across calls.
    fn dfs_augment(&mut self, s: NodeId, t: NodeId) -> C {
        self.path.clear();
        let mut v = s;
        loop {
            if v == t {
                // Bottleneck = min finite residual along the path. Every
                // s→t path crosses a finite arc, so the min exists; ties
                // keep the earliest arc (first-min semantics, identical
                // for every backend).
                let mut limit: Option<C> = None;
                for &aid in &self.path {
                    if let Some(r) = self.arcs[aid].residual() {
                        limit = Some(match limit {
                            Some(l) if l.le(&r) => l,
                            _ => r,
                        });
                    }
                }
                // prs-lint: allow(panic, reason = "s has only finite-capacity out-arcs, so every s→t path bounds the minimum; a violation is a solver bug, not an input error")
                let pushed = limit.expect("an s→t path must pass a finite-capacity arc");
                for &aid in &self.path {
                    self.arcs[aid].flow.add_assign_ref(&pushed);
                    self.arcs[aid ^ 1].flow.sub_assign_ref(&pushed);
                }
                C::AUGMENTING_PATHS.add(1);
                return pushed;
            }
            // Advance v's per-phase arc cursor to the next usable level arc.
            let mut advanced = false;
            while self.iter[v] < self.adj[v].len() {
                let aid = self.adj[v][self.iter[v]];
                let a = &self.arcs[aid];
                if a.has_residual() && self.level[a.to] == self.level[v] + 1 {
                    self.path.push(aid);
                    v = a.to;
                    advanced = true;
                    break;
                }
                self.iter[v] += 1;
            }
            if !advanced {
                // Dead end: retreat one step and skip the arc that led here.
                match self.path.pop() {
                    Some(aid) => {
                        let parent = self.arcs[aid ^ 1].to;
                        self.iter[parent] += 1;
                        v = parent;
                    }
                    None => return C::zero(),
                }
            }
        }
    }

    /// Compute the exact maximum `s → t` flow in the backend's arithmetic.
    /// The network must not contain an infinite-capacity `s → t` path; the
    /// Definition 2/5 networks never do (every path crosses a finite source
    /// or sink arc).
    pub fn max_flow(&mut self, s: NodeId, t: NodeId) -> C {
        assert_ne!(s, t, "source equals sink");
        C::MAX_FLOWS.add(1);
        let mut sp = prs_trace::span("flow", C::SPAN_MAX_FLOW);
        sp.attr("engine", || C::ENGINE.to_string());
        let mut phases: u64 = 0;
        let mut total = C::zero();
        loop {
            self.bfs_levels(s);
            phases += 1;
            if self.level[t] == UNREACHED {
                sp.attr("phases", || phases.to_string());
                return total;
            }
            self.iter.iter_mut().for_each(|i| *i = 0);
            loop {
                let pushed = self.dfs_augment(s, t);
                if C::exhausted(&pushed) {
                    break;
                }
                total.add_assign_ref(&pushed);
            }
        }
    }

    /// Nodes reachable from `s` in the residual graph (the s-side of a
    /// minimum cut after [`max_flow`](Self::max_flow) has run), as a slice
    /// of the network's own scratch, valid until its next call.
    pub fn min_cut_source_side(&mut self, s: NodeId) -> &[bool] {
        self.mark_from(s);
        while let Some(v) = self.queue.pop() {
            for &aid in &self.adj[v] {
                let a = &self.arcs[aid];
                if a.has_residual() && !self.reach[a.to] {
                    self.reach[a.to] = true;
                    self.queue.push(a.to);
                }
            }
        }
        &self.reach
    }

    /// Nodes that can reach `t` through the residual graph, as a slice of
    /// the network's own scratch, valid until its next call. Computed by a
    /// reverse traversal: `u` reaches `t` iff some residual arc `u → x`
    /// leads to a node that reaches `t`. The arcs into `x` are exactly the
    /// twins `aid ^ 1` of the arcs in `x`'s own adjacency list, so the walk
    /// needs no reverse adjacency.
    ///
    /// This is the query behind the *maximal bottleneck* extraction: at the
    /// optimal α, a left-copy vertex belongs to the maximal tight set iff it
    /// can **not** reach `t` (see prs-bd).
    pub fn residual_reaches_sink(&mut self, t: NodeId) -> &[bool] {
        self.mark_from(t);
        while let Some(x) = self.queue.pop() {
            for &aid in &self.adj[x] {
                let u = self.arcs[aid].to;
                if !self.reach[u] && self.arcs[aid ^ 1].has_residual() {
                    self.reach[u] = true;
                    self.queue.push(u);
                }
            }
        }
        &self.reach
    }

    /// Start a cut query's traversal at `root`: only `root` marked, and
    /// the scratch queue, as its stack, holding `root`. Every node is
    /// pushed at most once, so sized to `n` the stack never regrows, and
    /// a warm network's query allocates nothing.
    fn mark_from(&mut self, root: NodeId) {
        let n = self.n();
        self.reach.clear();
        self.reach.resize(n, false);
        self.reach[root] = true;
        self.queue.clear();
        self.queue.reserve(n);
        self.queue.push(root);
    }

    /// Net flow leaving `s` over forward arcs: flow on edges `s → ·` minus
    /// flow on edges `· → s`. After [`max_flow`](Self::max_flow) this equals
    /// the flow value when `s` was the source (even if the network has edges
    /// into the source); at a conserving interior node it is zero.
    pub fn outflow(&self, s: NodeId) -> C {
        // An edge u → s appears in adj[s] as its reverse arc, whose flow is
        // exactly −(flow on u → s), so the plain sum over adj[s] is the net.
        let mut net = C::zero();
        for &aid in &self.adj[s] {
            net.add_assign_ref(&self.arcs[aid].flow);
        }
        net
    }

    /// Verify conservation at every node except `s` and `t` (testing hook).
    pub fn check_conservation(&self, s: NodeId, t: NodeId) -> bool {
        for v in 0..self.n() {
            if v == s || v == t {
                continue;
            }
            let mut net = C::zero();
            for &aid in &self.adj[v] {
                net.add_assign_ref(&self.arcs[aid].flow);
            }
            if !net.is_zero() {
                return false;
            }
        }
        true
    }

    /// Verify `0 ≤ flow ≤ cap` on all forward arcs (testing hook).
    pub fn check_capacities(&self) -> bool {
        self.arcs.iter().step_by(2).all(|a| {
            !a.flow.is_negative()
                && match &a.cap {
                    Cap::Infinite => true,
                    Cap::Finite(c) => a.flow.le(c),
                }
        })
    }
}
