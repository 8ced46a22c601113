//! Exact bottleneck decomposition via parametric max-flow.
//!
//! ## Algorithm
//!
//! For a parameter `α`, build the Hall-type feasibility network
//!
//! ```text
//!   s ──w_v──▶ v_L      (every alive vertex v)
//!   v_L ──∞──▶ u_R      (every alive edge (v,u), both directions)
//!   u_R ──w_u/α──▶ t
//! ```
//!
//! The max flow saturates the source arcs **iff** `w(S) ≤ w(Γ(S))/α` for all
//! alive `S`, i.e. iff `α ≤ min_S α(S)` (a deficiency-version of Hall's
//! theorem). Dinkelbach iteration then computes `α* = min_S α(S)` exactly:
//! start at `α = α(V_alive)`, and while infeasible, read a violating set off
//! the min cut (its α-ratio is strictly smaller) and retry with that ratio.
//! Each step strictly decreases `α` within the finite set
//! `{w(Γ(S))/w(S) : S ⊆ V}`, so the loop terminates at the exact optimum.
//!
//! At the optimum, the **maximal bottleneck** is recovered from the residual
//! graph of the feasible flow: `v` belongs to it iff `v_L` has *no* residual
//! path to `t`. (Tight sets form a union-closed family; the unreachable set
//! is exactly their union — see DESIGN.md §3.1 for the exchange argument.)
//!
//! Every production round reads "pick a candidate ratio, then certify it":
//! a cold round starts from `α̂ = α(V_alive)`, a session round from a cached
//! shape's ratio, and [`certify`] — the one production descent — decides it
//! on the network scaled by `p·D` to integers (checked `i128`, BigInt on
//! promotion). The Rational-capacity descent lives on as the test oracle
//! [`decompose_exact`] in [`crate::reference`].

use crate::error::BdError;
pub use crate::reference::decompose_exact;
use prs_flow::network_i128::{overflow_detected, reset_overflow};
use prs_flow::{Cap, Capacity, EdgeId, Network, SeedArc};
use prs_graph::{Graph, VertexId, VertexSet};
use prs_numeric::gcd::{lcm, lcm_u128};
use prs_numeric::{BigInt, BigUint, Rational};
use prs_trace::Counter;
use std::sync::Arc;

// What one bump of each means: docs/OBSERVABILITY.md §6. The Rational
// oracle in `reference.rs` counts its descent steps too.
pub(crate) static DINKELBACH_ITERATIONS: Counter = Counter::new("bd.dinkelbach_iterations");
static I128_PROMOTIONS: Counter = Counter::new("bd.i128_promotions");
static TOPOLOGY_REUSES: Counter = Counter::new("bd.topology_reuses");

/// Which side of its bottleneck pair an agent is on (Definition 4).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum AgentClass {
    /// In `B_i` with `α_i < 1`.
    B,
    /// In `C_i` with `α_i < 1`.
    C,
    /// In the terminal pair `B_k = C_k` with `α_k = 1`: simultaneously B- and
    /// C-class.
    Both,
}

impl AgentClass {
    /// True for `B` and `Both`.
    pub fn is_b(self) -> bool {
        matches!(self, AgentClass::B | AgentClass::Both)
    }

    /// True for `C` and `Both`.
    pub fn is_c(self) -> bool {
        matches!(self, AgentClass::C | AgentClass::Both)
    }
}

/// One bottleneck pair `(B_i, C_i)` with its α-ratio.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BottleneckPair {
    /// The maximal bottleneck `B_i`.
    pub b: VertexSet,
    /// Its neighbor set `C_i = Γ(B_i)` in the round's subgraph.
    pub c: VertexSet,
    /// `α_i = w(C_i)/w(B_i)`.
    pub alpha: Rational,
}

/// The bottleneck decomposition `𝓑 = {(B₁,C₁), …, (B_k,C_k)}` of a graph,
/// together with the per-vertex class partition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BottleneckDecomposition {
    pairs: Vec<BottleneckPair>,
    pair_of: Vec<usize>,
    class_of: Vec<AgentClass>,
}

impl BottleneckDecomposition {
    /// Assemble a decomposition from raw parts (used by the brute-force
    /// reference implementation; invariants are the caller's burden).
    pub(crate) fn from_parts(
        pairs: Vec<BottleneckPair>,
        pair_of: Vec<usize>,
        class_of: Vec<AgentClass>,
    ) -> Self {
        BottleneckDecomposition {
            pairs,
            pair_of,
            class_of,
        }
    }

    /// The ordered pairs `(B_i, C_i)`, `α` strictly increasing.
    pub fn pairs(&self) -> &[BottleneckPair] {
        &self.pairs
    }

    /// Number of pairs `k`.
    pub fn k(&self) -> usize {
        self.pairs.len()
    }

    /// Index `i` of the pair containing vertex `v`.
    pub fn pair_of(&self, v: VertexId) -> usize {
        self.pair_of[v]
    }

    /// The class of vertex `v` (Definition 4).
    pub fn class_of(&self, v: VertexId) -> AgentClass {
        self.class_of[v]
    }

    /// `α_v`: the α-ratio of the pair containing `v`.
    pub fn alpha_of(&self, v: VertexId) -> &Rational {
        &self.pairs[self.pair_of[v]].alpha
    }

    /// The equilibrium utility of `v` under the BD allocation
    /// (Proposition 6): `w_v·α_i` for B-class, `w_v/α_i` for C-class,
    /// `w_v` for the terminal `α = 1` pair.
    pub fn utility(&self, g: &Graph, v: VertexId) -> Rational {
        let alpha = self.alpha_of(v);
        match self.class_of[v] {
            AgentClass::B => g.weight(v) * alpha,
            AgentClass::C => g.weight(v) / alpha,
            AgentClass::Both => g.weight(v).clone(),
        }
    }

    /// All equilibrium utilities in vertex order.
    pub fn utilities(&self, g: &Graph) -> Vec<Rational> {
        (0..g.n()).map(|v| self.utility(g, v)).collect()
    }

    /// A canonical, comparable description of the decomposition: for each
    /// pair, the sorted members of `B_i` and `C_i` plus `α_i`. Two graphs
    /// (over the same vertex ids) have equal signatures iff their
    /// decompositions coincide — used by the misreport sweep to detect
    /// breakpoints.
    pub fn signature(&self) -> Vec<(Vec<VertexId>, Vec<VertexId>, Rational)> {
        self.pairs
            .iter()
            .map(|p| (p.b.to_vec(), p.c.to_vec(), p.alpha.clone()))
            .collect()
    }

    /// The combinatorial part of the signature (pair memberships only,
    /// ignoring the α values, which move continuously with weights).
    pub fn shape(&self) -> Vec<(Vec<VertexId>, Vec<VertexId>)> {
        self.pairs
            .iter()
            .map(|p| (p.b.to_vec(), p.c.to_vec()))
            .collect()
    }

    /// Check every clause of Proposition 3 plus partition-ness; returns a
    /// description of the first violated invariant, if any.
    pub fn check_proposition3(&self, g: &Graph) -> Result<(), String> {
        let n = g.n();
        let k = self.pairs.len();
        let one = Rational::one();
        // Pairs partition V.
        let mut seen = VertexSet::empty(n);
        for (i, p) in self.pairs.iter().enumerate() {
            let bc = p.b.union(&p.c);
            if !seen.is_disjoint(&bc) {
                return Err(format!("pair {i} overlaps earlier pairs"));
            }
            seen.union_with(&bc);
        }
        if seen.len() != n {
            return Err("pairs do not cover V".into());
        }
        for (i, p) in self.pairs.iter().enumerate() {
            // (1) strictly increasing, positive, ≤ 1.
            if !p.alpha.is_positive() {
                return Err(format!("α_{i} not positive"));
            }
            if p.alpha > one {
                return Err(format!("α_{i} > 1"));
            }
            if i + 1 < k && self.pairs[i].alpha >= self.pairs[i + 1].alpha {
                return Err(format!("α_{i} ≥ α_{}", i + 1));
            }
            // (2) α_i = 1 ⟹ i = k−1 and B = C; else B independent, B∩C = ∅.
            if p.alpha == one {
                if i != k - 1 {
                    return Err(format!("α_{i} = 1 but pair is not last"));
                }
                if p.b != p.c {
                    return Err("α = 1 pair has B ≠ C".into());
                }
            } else {
                if !p.b.is_disjoint(&p.c) {
                    return Err(format!("pair {i}: B ∩ C ≠ ∅ with α < 1"));
                }
                let full = VertexSet::full(n);
                if !g.is_independent_in(&p.b, &full) {
                    return Err(format!("pair {i}: B not independent with α < 1"));
                }
            }
        }
        // (3) no B_i – B_j edges; (4) B_i – C_j edges need j ≤ i.
        for &(u, v) in g.edges() {
            for (x, y) in [(u, v), (v, u)] {
                if self.class_of[x] == AgentClass::B {
                    let i = self.pair_of[x];
                    let j = self.pair_of[y];
                    match self.class_of[y] {
                        AgentClass::B if i != j => {
                            return Err(format!("edge between B_{i} and B_{j}"))
                        }
                        AgentClass::C | AgentClass::Both if j > i => {
                            return Err(format!("edge from B_{i} into C_{j} with j > i"))
                        }
                        _ => {}
                    }
                }
            }
        }
        Ok(())
    }
}

/// Node layout of the feasibility network.
pub(crate) struct Layout {
    pub(crate) n: usize,
}

impl Layout {
    pub(crate) const S: usize = 0;
    pub(crate) const T: usize = 1;
    pub(crate) fn left(&self, v: VertexId) -> usize {
        2 + v
    }
    pub(crate) fn right(&self, v: VertexId) -> usize {
        2 + self.n + v
    }
    pub(crate) fn nodes(&self) -> usize {
        2 + 2 * self.n
    }
}

/// Which engine holds the current scaled-integer certification build.
///
/// `rebuild_int` admits a round to the checked-`i128` tier iff both
/// endpoint cap totals fit in `i128` (every individual capacity is bounded
/// by its total, so they then fit too); otherwise — or when the checked
/// arithmetic trips at runtime — the round promotes to the BigInt engine,
/// which computes the identical answer without the width limit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum CertEngine {
    /// The checked machine-word fast tier (`NetworkI128`).
    I128,
    /// The arbitrary-precision fallback (`NetworkInt`).
    Int,
}

/// A certification build's alive set and middle arcs
/// `(v, u, edge left(v)→right(u))`, in the oracle's build order (both
/// engines add arcs in it, so the ids hold on either). The certificates
/// snapshotted off the build share it as their alive set and adjacency.
#[derive(Clone, Default)]
pub(crate) struct CertEdges {
    pub(crate) alive: VertexSet,
    mid: Vec<(VertexId, VertexId, EdgeId)>,
}

impl CertEdges {
    /// True iff `alive` and its induced adjacency in `g` are this build's.
    pub(crate) fn matches(&self, g: &Graph, alive: &VertexSet) -> bool {
        let mut mid = self.mid.iter();
        self.alive == *alive
            && alive.iter().all(|v| {
                g.neighbors(v).iter().all(|&u| {
                    !alive.contains(u) || mid.next().is_some_and(|m| (m.0, m.1) == (v, u))
                })
            })
            && mid.next().is_none()
    }
}

/// One certification build and the scratch its rounds reuse. Slot `i` (the
/// `i`-th alive vertex, see `RoundNets::slot`) owns the source and sink arcs
/// `ends[i]` and the middle arcs `edges.mid[mid_start[i]..mid_start[i + 1]]`,
/// so a support arc resolves in O(degree).
struct CertNet<C: Capacity> {
    net: Network<C>,
    edges: Arc<CertEdges>,
    ends: Vec<(EdgeId, EdgeId)>,
    mid_start: Vec<usize>,
    /// `(source, sink)` capacity per slot, at the α the network was last
    /// built or re-parameterized for.
    caps: Vec<(C, C)>,
    /// The seed requests of the last warm start.
    seeds: Vec<SeedArc<C>>,
}

impl<C: Capacity> CertNet<C> {
    fn new(n_nodes: usize) -> Self {
        CertNet {
            net: Network::new(n_nodes),
            edges: Arc::default(),
            ends: Vec::new(),
            mid_start: Vec::new(),
            caps: Vec::new(),
            seeds: Vec::new(),
        }
    }

    /// Build the certification arcs at `caps`, in the oracle's order, and
    /// record their ids (the shared part into a copy while a certificate
    /// still holds the last build's).
    fn build(&mut self, g: &Graph, alive: &VertexSet) {
        let layout = Layout { n: g.n() };
        self.net.clear(layout.nodes());
        let edges = Arc::make_mut(&mut self.edges);
        edges.alive.clone_from(alive);
        edges.mid.clear();
        self.ends.clear();
        self.mid_start.clear();
        // A session's build for a new round index starts empty: size once.
        self.ends.reserve(self.caps.len());
        self.mid_start.reserve(self.caps.len() + 1);
        for (v, (src, snk)) in alive.iter().zip(&self.caps) {
            self.mid_start.push(edges.mid.len());
            let s = self
                .net
                .add_edge(Layout::S, layout.left(v), Cap::Finite(src.clone()));
            let e = self
                .net
                .add_edge(layout.right(v), Layout::T, Cap::Finite(snk.clone()));
            self.ends.push((s, e));
            for &u in g.neighbors(v) {
                if alive.contains(u) {
                    let m = self
                        .net
                        .add_edge(layout.left(v), layout.right(u), Cap::Infinite);
                    edges.mid.push((v, u, m));
                }
            }
        }
        self.mid_start.push(edges.mid.len());
    }

    /// Rewrite the source and sink arcs to `caps` and zero the flow.
    fn set_caps(&mut self) {
        for (&(s, e), (src, snk)) in self.ends.iter().zip(&self.caps) {
            self.net.set_capacity(s, Cap::Finite(src.clone()));
            self.net.set_capacity(e, Cap::Finite(snk.clone()));
        }
        self.net.reset_flow();
    }

    /// The feasibility test: the flow saturates every source arc, i.e. it
    /// equals `Σ w_v·D·p`.
    fn saturated(&self) -> bool {
        self.ends.iter().all(|&(s, _)| self.net.is_saturated(s))
    }

    /// Add a previous certifying flow onto the fresh build's zero flow:
    /// each support arc `(v, u, F, c₀)` still present requests
    /// `rescale(F, c, c₀)` on `s → v_L → u_R → t`, where `c` is v's current
    /// source capacity, and the kernel's
    /// [`seed_flow`](prs_flow::Network::seed_flow) clamps every request to
    /// the remaining capacity, installing a valid flow.
    fn seed<S>(
        &mut self,
        slot: &[usize],
        arcs: &[SupportArc<S>],
        rescale: impl Fn(&S, &C, &S) -> C,
    ) {
        self.seeds.clear();
        let e = &*self.edges;
        for (v, u, f, c0) in arcs {
            if !e.alive.contains(*v) || !e.alive.contains(*u) {
                continue;
            }
            let (sv, su) = (slot[*v], slot[*u]);
            let Some(&(_, _, mid)) = e.mid[self.mid_start[sv]..self.mid_start[sv + 1]]
                .iter()
                .find(|m| m.1 == *u)
            else {
                continue; // edge no longer present (different topology)
            };
            self.seeds.push(SeedArc {
                source_edge: self.ends[sv].0,
                mid_edge: mid,
                sink_edge: self.ends[su].1,
                desired: rescale(f, &self.caps[sv].0, c0),
            });
        }
        self.net.seed_flow(&self.seeds);
        debug_assert!(self.net.check_capacities());
        debug_assert!(self.net.check_conservation(Layout::S, Layout::T));
    }

    /// The middle arcs carrying positive flow, as `(v, u, F, c₀)` in build
    /// order, in a Vec sized once.
    fn support(&self) -> Vec<SupportArc<C>> {
        let e = &*self.edges;
        let carries = |j: &usize| self.net.flow_on(e.mid[*j].2).is_positive();
        let mut arcs = Vec::with_capacity((0..e.mid.len()).filter(carries).count());
        for (i, w) in self.mid_start.windows(2).enumerate() {
            for (v, u, m) in (w[0]..w[1]).filter(carries).map(|j| e.mid[j]) {
                arcs.push((v, u, self.net.flow_on(m).clone(), self.caps[i].0.clone()));
            }
        }
        arcs
    }
}

/// A candidate ratio `α(S)` of the entered round ([`RoundNets::ratio`]):
/// the words `(w(Γ(S))·D, w(S)·D)`, or the `Rational` where they overflow.
pub(crate) enum Ratio {
    Words(u128, u128),
    Exact(Rational),
}

impl Ratio {
    /// `0 < α ≤ 1`, the range a certification candidate must lie in.
    pub(crate) fn usable(&self) -> bool {
        match self {
            Ratio::Words(num, den) => 0 < *num && num <= den,
            Ratio::Exact(a) => a.is_positive() && *a <= Rational::one(),
        }
    }

    /// `self < other`, by checked cross-multiplication of the words, and
    /// on `Rational`s where a product overflows: the same order either way.
    pub(crate) fn below(&self, other: &Ratio) -> bool {
        if let (Ratio::Words(a, b), Ratio::Words(c, d)) = (self, other) {
            if let (Some(ad), Some(cb)) = (a.checked_mul(*d), c.checked_mul(*b)) {
                return ad < cb;
            }
        }
        self.to_rational() < other.to_rational()
    }

    pub(crate) fn to_rational(&self) -> Rational {
        match self {
            Ratio::Words(num, den) => {
                Rational::new(BigInt::from(BigUint::from(*num)), BigUint::from(*den))
            }
            Ratio::Exact(a) => a.clone(),
        }
    }
}

/// A round's weights as its certificate keeps them: `D` and the words
/// `w_v·D` in alive order, or the `Rational`s where the words overflowed.
pub(crate) enum RoundWeights {
    Words(u128, Vec<u128>),
    Exact(Vec<Rational>),
}

/// The scaled-integer certification networks of one decomposition.
///
/// [`RoundNets::enter`] starts a round: it computes the round's scaled
/// weights once, for replay, the warm probe and certification. A session
/// keeps one checked-`i128` build per round index: when a round's alive set
/// and induced adjacency equal the kept build's, only the 2·|alive| source
/// and sink capacities are rewritten — the arcs already stand in the
/// oracle's order, so the network is the one a rebuild would make — and
/// otherwise the build is redone in place. A one-shot `decompose` keeps one
/// build for all rounds, and the BigInt twin is built only on promotion.
/// Between Dinkelbach steps both are re-parameterized capacity-only, and
/// capacities and seed requests live in scratch kept across rounds, so a
/// warm round on the `i128` tier allocates only what it returns.
///
/// Every certification capacity is multiplied by `p·D` (α = p/q in lowest
/// terms, `D` the lcm of the alive weights' denominators): source arcs
/// carry `(w_v·D)·p`, sink arcs `(w_v·D)·q`, middle arcs stay infinite —
/// all integers, so Dinic runs gcd-free. They are computed with checked
/// `u128`/`i128` words and recomputed in BigInt only when a word operation
/// overflows; the round promotes to the BigInt engine exactly when a
/// capacity or an endpoint total does not fit `i128`.
pub(crate) struct RoundNets {
    /// The checked-`i128` builds, one per round index if `per_round`, and
    /// the current round's, `kept[cur]`.
    kept: Vec<CertNet<i128>>,
    per_round: bool,
    cur: usize,
    /// The BigInt fallback. Same arc order, hence the same `EdgeId`s.
    exact_int: CertNet<BigInt>,
    /// Which engine the last build or re-parameterization targeted.
    cert_engine: CertEngine,
    /// The entered round's `D` when `D` and every `w_v·D` fit `u128`; the
    /// words are then in `words`, else in `big_weights` (alive order).
    d: Option<u128>,
    words: Vec<u128>,
    big_weights: Vec<BigInt>,
    /// Per vertex: its slot, its position in the entered round's alive set
    /// (meaningful for alive vertices only).
    slot: Vec<usize>,
    /// Per vertex: the stamp of the last word ratio that counted it in
    /// `Γ(S)`, and the current stamp.
    mark: Vec<u32>,
    stamp: u32,
}

impl RoundNets {
    pub(crate) fn new(n_nodes: usize, per_round: bool) -> Self {
        RoundNets {
            kept: vec![CertNet::new(n_nodes)],
            per_round,
            cur: 0,
            exact_int: CertNet::new(n_nodes),
            cert_engine: CertEngine::Int,
            d: None,
            words: Vec::new(),
            big_weights: Vec::new(),
            slot: Vec::new(),
            mark: Vec::new(),
            stamp: 0,
        }
    }

    /// Start round `round` on `alive`: pick its build and compute the words
    /// `w_v·D` and `D` that replay, the warm probe and certification read.
    pub(crate) fn enter(&mut self, g: &Graph, alive: &VertexSet, round: usize) {
        self.cur = if self.per_round { round } else { 0 };
        self.d = word_weights(g, alive, &mut self.words);
        self.slot.resize(g.n(), 0);
        self.mark.resize(g.n(), 0);
        for (i, v) in alive.iter().enumerate() {
            self.slot[v] = i;
        }
    }

    /// `α(S) = w(Γ(S) ∩ alive)/w(S)` for `S ⊆ alive` in the entered round,
    /// `None` when `w(S) = 0`: two checked sums of the round's words, and
    /// [`Graph::alpha_ratio_in`] only where they overflow.
    pub(crate) fn ratio(&mut self, g: &Graph, alive: &VertexSet, s: &VertexSet) -> Option<Ratio> {
        debug_assert!(s.is_subset(alive));
        let sums = match self.d {
            Some(_) => self.word_sums(g, alive, s),
            None => None,
        };
        match sums {
            Some((_, 0)) => None,
            Some((num, den)) => Some(Ratio::Words(num, den)),
            None => g.alpha_ratio_in(s, alive).map(Ratio::Exact),
        }
    }

    /// `(w(Γ(S) ∩ alive)·D, w(S)·D)`, each vertex of `Γ(S)` counted once (a
    /// stamp marks it); `None` when a sum overflows.
    fn word_sums(&mut self, g: &Graph, alive: &VertexSet, s: &VertexSet) -> Option<(u128, u128)> {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.mark.fill(0);
            self.stamp = 1;
        }
        let (mut num, mut den) = (0u128, 0u128);
        for v in s.iter() {
            den = den.checked_add(self.words[self.slot[v]])?;
            for &u in g.neighbors(v) {
                if alive.contains(u) && self.mark[u] != self.stamp {
                    self.mark[u] = self.stamp;
                    num = num.checked_add(self.words[self.slot[u]])?;
                }
            }
        }
        Some((num, den))
    }

    /// The entered round's weights, as a certificate keeps them.
    pub(crate) fn weights(&self, g: &Graph, alive: &VertexSet) -> RoundWeights {
        match self.d {
            Some(d) => RoundWeights::Words(d, self.words.clone()),
            None => RoundWeights::Exact(alive.iter().map(|v| g.weight(v).clone()).collect()),
        }
    }

    /// True iff `w`, kept on the same alive set, are the entered round's
    /// weights. Equal `(D, words)` mean equal weights (`w_v = (w_v·D)/D`),
    /// and whether the words fit depends on the weights alone.
    pub(crate) fn same_weights(&self, g: &Graph, alive: &VertexSet, w: &RoundWeights) -> bool {
        match (self.d, w) {
            (Some(d), RoundWeights::Words(d0, words)) => d == *d0 && self.words == *words,
            (None, RoundWeights::Exact(ws)) => alive.iter().zip(ws).all(|(v, w)| g.weight(v) == w),
            _ => false,
        }
    }

    /// Set up the scaled-integer certification network at `alpha = p/q` on
    /// the engine its capacities fit: the round index's kept build when its
    /// topology matches, else a rebuild in place. Uniform positive scaling
    /// preserves the feasibility decision, min cuts, and residual
    /// reachability of the rational network, so every set extracted here is
    /// bit-identical to what the Rational oracle ([`decompose_exact`])
    /// extracts at the same `alpha`.
    fn rebuild_int(&mut self, g: &Graph, alive: &VertexSet, alpha: &Rational) {
        debug_assert!(alpha.is_positive(), "bottleneck ratios are positive");
        if self.d.is_none() {
            big_weights(g, alive, &mut self.big_weights);
        }
        if self.kept.len() <= self.cur {
            self.kept.resize_with(self.cur + 1, || CertNet::new(0));
        }
        if !self.admit_i128(alpha) {
            // Some p·D-scaled capacity (or an endpoint total) does not fit.
            return self.promote(g, alive, "i128_promotion_build");
        }
        self.cert_engine = CertEngine::I128;
        reset_overflow();
        let kept = &mut self.kept[self.cur];
        if kept.edges.matches(g, alive) {
            TOPOLOGY_REUSES.add(1);
            kept.set_caps();
        } else {
            kept.build(g, alive);
        }
    }

    /// Move the round to the BigInt engine, whose capacities are in
    /// `exact_int.caps`: its twin is built outright, in the same arc order.
    fn promote(&mut self, g: &Graph, alive: &VertexSet, why: &'static str) {
        I128_PROMOTIONS.add(1);
        prs_trace::metrics::anomaly(why);
        self.cert_engine = CertEngine::Int;
        self.exact_int.build(g, alive);
    }

    /// Re-parameterize the integer network to `alpha = p'/q'`. Unlike the
    /// rational network, *both* arc families depend on α here (source caps
    /// carry the `p` factor of the scale), so both are rewritten; `D` and
    /// the arc structure are untouched. An i128-tier round whose new
    /// capacities no longer fit promotes to BigInt here (the descent can
    /// only shrink `p`, but `q` can grow without bound).
    fn set_alpha_int(&mut self, g: &Graph, alive: &VertexSet, alpha: &Rational) {
        if self.cert_engine == CertEngine::Int {
            self.big_caps(alpha);
            self.exact_int.set_caps();
        } else if self.admit_i128(alpha) {
            reset_overflow();
            self.kept[self.cur].set_caps();
        } else {
            self.promote(g, alive, "i128_promotion_descent");
        }
    }

    /// Compute the `i128` capacities at `alpha = p/q` into the current
    /// build's scratch and report whether every capacity and both endpoint
    /// totals fit — the admission test of the fast tier. Runs on words; on
    /// a word overflow the capacities are recomputed in BigInt and narrowed,
    /// so the answer is exactly "fits `i128`". On `false`, `exact_int.caps`
    /// holds the BigInt capacities.
    fn admit_i128(&mut self, alpha: &Rational) -> bool {
        let fit = |c: u128| i128::try_from(c).ok();
        if let (Some(_), Some(p), Some(q)) = (
            self.d,
            alpha.numer().magnitude().to_u128(),
            alpha.denom().to_u128(),
        ) {
            let caps = self
                .words
                .iter()
                .map(|&w| Some((fit(w.checked_mul(p)?)?, fit(w.checked_mul(q)?)?)));
            if admit(caps, &mut self.kept[self.cur].caps).is_some() {
                return true;
            }
        }
        self.big_caps(alpha);
        let caps = self
            .exact_int
            .caps
            .iter()
            .map(|(s, k)| Some((s.to_i128()?, k.to_i128()?)));
        admit(caps, &mut self.kept[self.cur].caps).is_some()
    }

    /// The BigInt capacities `(w_v·D·p, w_v·D·q)` at `alpha = p/q`, into
    /// `exact_int.caps`.
    fn big_caps(&mut self, alpha: &Rational) {
        let (p, q) = (alpha.numer(), BigInt::from(alpha.denom().clone()));
        let caps = &mut self.exact_int.caps;
        caps.clear();
        if self.d.is_some() {
            caps.extend(self.words.iter().map(|&w| {
                let w = BigInt::from(BigUint::from(w));
                (&w * p, &w * &q)
            }));
        } else {
            caps.extend(self.big_weights.iter().map(|w| (w * p, w * &q)));
        }
    }

    /// Run the certification max-flow on the active engine, on top of any
    /// seed, and report whether it saturates every source arc. A *runtime*
    /// overflow on the `i128` tier discards the poisoned result and reruns
    /// the max-flow cold on a freshly built BigInt network at the same α
    /// (the seed goes with the discarded network).
    fn cert_feasible(&mut self, g: &Graph, alive: &VertexSet, alpha: &Rational) -> bool {
        if self.cert_engine == CertEngine::I128 {
            let kept = &mut self.kept[self.cur];
            kept.net.max_flow(Layout::S, Layout::T);
            if !overflow_detected() {
                return kept.saturated();
            }
            // The admission check bounds every partial sum by an endpoint
            // total that fits, so this is defense-in-depth rather than an
            // expected path — but soundness must not depend on that
            // argument staying true under refactors. (The poison flag
            // itself already tripped the flight recorder inside
            // `prs_flow`; this anomaly marks the promotion decision.)
            self.big_caps(alpha);
            self.promote(g, alive, "i128_promotion_runtime");
        }
        self.exact_int.net.max_flow(Layout::S, Layout::T);
        self.exact_int.saturated()
    }

    /// Engine-dispatched [`prs_flow::Network::residual_reaches_sink`].
    fn cert_residual_reaches_sink(&mut self) -> &[bool] {
        match self.cert_engine {
            CertEngine::I128 => self.kept[self.cur].net.residual_reaches_sink(Layout::T),
            CertEngine::Int => self.exact_int.net.residual_reaches_sink(Layout::T),
        }
    }

    /// Engine-dispatched [`prs_flow::Network::min_cut_source_side`].
    fn cert_min_cut_source_side(&mut self) -> &[bool] {
        match self.cert_engine {
            CertEngine::I128 => self.kept[self.cur].net.min_cut_source_side(Layout::S),
            CertEngine::Int => self.exact_int.net.min_cut_source_side(Layout::S),
        }
    }

    /// The certifying flow of the active engine, in its width, and the
    /// build it ran on, shared.
    pub(crate) fn support(&self) -> (Support, Arc<CertEdges>) {
        match self.cert_engine {
            CertEngine::I128 => {
                let kept = &self.kept[self.cur];
                (Support::I128(kept.support()), Arc::clone(&kept.edges))
            }
            CertEngine::Int => (
                Support::Int(self.exact_int.support()),
                Arc::clone(&self.exact_int.edges),
            ),
        }
    }

    /// Preload the freshly built certification network with a previous
    /// certifying flow pattern. A support arc holds the flow `F` of a
    /// network whose source arc at `v` had capacity `c₀`; where that arc
    /// now has capacity `c`, it requests `⌊F·c/c₀⌋`. That is the old flow
    /// rescaled to the current weight and scale: `c₀ = w_v·S₀` and
    /// `c = w'_v·S`, so the request is `⌊(F/S₀)·(w'_v/w_v)·S⌋`.
    ///
    /// The floor loses at most one scaled unit per arc, which the
    /// certification max-flow recovers from the residual graph: Dinic
    /// completes **any** valid flow to a maximum flow, so seeding changes
    /// only how many augmenting paths are needed, never the result.
    fn seed_from_support(&mut self, support: &Support) {
        let (kept, slot) = (&mut self.kept[self.cur], &self.slot);
        match (self.cert_engine, support) {
            (CertEngine::I128, Support::I128(arcs)) => {
                kept.seed(slot, arcs, |f, c, c0| rescale_i128(*f, *c, *c0))
            }
            (CertEngine::I128, Support::Int(arcs)) => {
                kept.seed(slot, arcs, |f, c, c0| match (f.to_i128(), c0.to_i128()) {
                    (Some(f), Some(c0)) => rescale_i128(f, *c, c0),
                    _ => rescale_big(f, &BigInt::from(*c), c0)
                        .to_i128()
                        .unwrap_or(*c),
                })
            }
            (CertEngine::Int, Support::I128(arcs)) => {
                self.exact_int.seed(slot, arcs, |f, c, c0| {
                    rescale_big(&BigInt::from(*f), c, &BigInt::from(*c0))
                })
            }
            (CertEngine::Int, Support::Int(arcs)) => self.exact_int.seed(slot, arcs, rescale_big),
        }
    }
}

/// `D`, the lcm of the alive weights' denominators, with `w_v·D` per alive
/// vertex in `out` (alive order); `None` when `D` or a product does not fit
/// `u128`. A weight whose denominator is 1 costs no division.
fn word_weights(g: &Graph, alive: &VertexSet, out: &mut Vec<u128>) -> Option<u128> {
    out.clear();
    let mut d = 1;
    for den in alive.iter().map(|v| g.weight(v).denom()) {
        if !den.is_one() {
            d = lcm_u128(d, den.to_u128()?)?;
        }
    }
    for w in alive.iter().map(|v| g.weight(v)) {
        // w_v·D is integral because denom(w_v) divides D.
        let unit = if w.denom().is_one() {
            d
        } else {
            d / w.denom().to_u128()?
        };
        out.push(w.numer().magnitude().to_u128()?.checked_mul(unit)?);
    }
    Some(d)
}

/// [`word_weights`] in BigInt, for an alive set whose words overflow.
fn big_weights(g: &Graph, alive: &VertexSet, out: &mut Vec<BigInt>) {
    let mut d = BigUint::one();
    for v in alive.iter() {
        d = lcm(&d, g.weight(v).denom());
    }
    out.clear();
    for v in alive.iter() {
        let w = g.weight(v);
        out.push(w.numer() * &BigInt::from(&d / w.denom()));
    }
}

/// Collect `(source, sink)` capacities into `out`, checking both endpoint
/// totals on the way; `None` as soon as a capacity (a `None` item) or a
/// total does not fit `i128`.
fn admit(
    caps: impl Iterator<Item = Option<(i128, i128)>>,
    out: &mut Vec<(i128, i128)>,
) -> Option<()> {
    out.clear();
    out.reserve(caps.size_hint().0);
    let (mut src_total, mut snk_total) = (0i128, 0i128);
    for cap in caps {
        let (src, snk) = cap?;
        src_total = src_total.checked_add(src)?;
        snk_total = snk_total.checked_add(snk)?;
        out.push((src, snk));
    }
    Some(())
}

/// `⌊f·c/c₀⌋` in words, through BigInt only when `f·c` overflows. A
/// support arc's flow never exceeds its source capacity (`f ≤ c₀`), so the
/// quotient is at most `c` and narrows back. It is `f` when `c = c₀`, and
/// `c` when the arc carried all of v's supply (`f = c₀`): no division.
fn rescale_i128(f: i128, c: i128, c0: i128) -> i128 {
    if c == c0 {
        return f;
    }
    if f == c0 {
        return c;
    }
    match f.checked_mul(c) {
        Some(fc) => fc / c0,
        None => rescale_big(&BigInt::from(f), &BigInt::from(c), &BigInt::from(c0))
            .to_i128()
            .unwrap_or(c),
    }
}

/// `⌊f·c/c₀⌋` in BigInt.
fn rescale_big(f: &BigInt, c: &BigInt, c0: &BigInt) -> BigInt {
    &(f * c) / c0
}

/// One middle arc of a certifying flow: `(v, u, F, c₀)`, where `F` is the
/// flow on `left(v)→right(u)` and `c₀` the capacity of v's source arc, both
/// in the units of the certifying network.
pub(crate) type SupportArc<C> = (VertexId, VertexId, C, C);

/// A certifying flow kept to seed a later round (see
/// `RoundNets::seed_from_support`): the middle arcs that carried positive
/// flow, in build order, in the width of the engine that certified them.
/// `F/c₀` is the share of v's supply the arc carried, so no weight or scale
/// is stored beside them.
#[derive(Debug, PartialEq)]
pub(crate) enum Support {
    /// Certified on the checked-`i128` tier.
    I128(Vec<SupportArc<i128>>),
    /// Certified on the BigInt engine.
    Int(Vec<SupportArc<BigInt>>),
}

/// A settled certification (see [`certify`]).
pub(crate) struct Certified {
    /// The maximal tight set at `alpha`.
    pub(crate) b: VertexSet,
    /// The certified ratio.
    pub(crate) alpha: Rational,
    /// False iff `α̂` was infeasible and a Dinkelbach descent ran.
    pub(crate) first_try: bool,
}

/// The one production Dinkelbach descent: certify a candidate ratio `α̂`
/// on the scaled-integer network (checked `i128`, BigInt on promotion),
/// seeded from `support` (a previous certifying flow pattern; `None` for a
/// cold round), and descend exactly from the min cut while infeasible.
/// `engine` labels the `bd.dinkelbach_iter` spans with the caller's tier.
///
/// Correctness is by construction:
///
/// * `α̂ = α(S) ≥ α* = min_S α(S)` for *any* set `S`, so a candidate read
///   off a real set never undershoots;
/// * if `α̂ = α*`, the first flow is feasible and the maximal tight set is
///   extracted at the exact optimum (it is unique — DESIGN.md §3.1);
/// * if `α̂ > α*`, the flow is infeasible and the exact descent proceeds as
///   if it had started there.
///
/// Every caller passes `α̂ = α(S)` of a real set `S`, so the tight set
/// returned is never empty. The caller has entered the round
/// ([`RoundNets::enter`]), so each descent step's `α(S)` is a word ratio.
pub(crate) fn certify(
    g: &Graph,
    alive: &VertexSet,
    round: usize,
    nets: &mut RoundNets,
    alpha_hat: Rational,
    support: Option<&Support>,
    engine: &'static str,
) -> Result<Certified, BdError> {
    let layout = Layout { n: g.n() };
    nets.rebuild_int(g, alive, &alpha_hat);
    if let Some(s) = support {
        nets.seed_from_support(s);
    }
    let mut alpha = alpha_hat;
    let mut first = true;
    loop {
        DINKELBACH_ITERATIONS.add(1);
        let mut sp_iter = prs_trace::span("bd", "dinkelbach_iter");
        sp_iter.attr("engine", || engine.to_string());
        if !first {
            nets.set_alpha_int(g, alive, &alpha);
        }
        // Feasible iff the sources saturate: max flow = Σ (w_v·D)·p.
        if nets.cert_feasible(g, alive, &alpha) {
            let reaches = nets.cert_residual_reaches_sink();
            let mut b = VertexSet::empty(g.n());
            for v in alive.iter() {
                if !reaches[layout.left(v)] {
                    b.insert(v);
                }
            }
            debug_assert!(!b.is_empty(), "a tight set must exist at the optimum");
            return Ok(Certified {
                b,
                alpha,
                first_try: first,
            });
        }
        // Infeasible: the s-side of the min cut yields a violating set with
        // a strictly smaller ratio.
        first = false;
        let side = nets.cert_min_cut_source_side();
        let mut s_set = VertexSet::empty(g.n());
        for v in alive.iter() {
            if side[layout.left(v)] {
                s_set.insert(v);
            }
        }
        // prs-lint: allow(panic, reason = "the s-side of an infeasible cut contains a source arc, hence positive weight; failure is a solver bug")
        let new_alpha = nets
            .ratio(g, alive, &s_set)
            .expect("violating sets have positive weight")
            .to_rational();
        if new_alpha.is_zero() {
            return Err(BdError::ZeroAlpha { round });
        }
        debug_assert!(
            new_alpha < alpha,
            "Dinkelbach step must strictly decrease α"
        );
        alpha = new_alpha;
    }
}

/// Find the maximal bottleneck of the induced subgraph on `alive` with no
/// cached candidate — the cold round: [`certify`] from `α₀ = α(alive)`,
/// with no seed. `α₀ ≥ α*`, since `alive` is itself a candidate set, so the
/// exact descent starts at or above the optimum and ends at the maximal
/// tight set.
pub(crate) fn maximal_bottleneck(
    g: &Graph,
    alive: &VertexSet,
    round: usize,
    nets: &mut RoundNets,
) -> Result<(VertexSet, Rational), BdError> {
    // prs-lint: allow(panic, reason = "decompose() rejects zero-weight alive sets before every round, so the ratio is defined")
    let alpha0 = nets
        .ratio(g, alive, alive)
        .expect("w(alive) > 0 checked by caller")
        .to_rational();
    if alpha0.is_zero() {
        return Err(BdError::ZeroAlpha { round });
    }
    let c = certify(g, alive, round, nets, alpha0, None, "cold")?;
    Ok((c.b, c.alpha))
}

/// Compute the bottleneck decomposition of `g` (Definition 2), exactly.
///
/// Each round runs the exact Dinkelbach descent from the alive set's own
/// ratio on the scaled-integer network (checked `i128`, promoting to BigInt
/// when a capacity outgrows the word). The result is bit-identical to the
/// Rational oracle [`decompose_exact`]. Flow networks are rebuilt in place
/// across rounds and re-parameterized capacity-only inside each round's
/// descent.
///
/// Errors on the degenerate inputs for which the decomposition is undefined:
/// empty graphs, subgraphs whose minimum α-ratio is 0 (isolated
/// positive-weight agents), or residues of total weight 0.
pub fn decompose(g: &Graph) -> Result<BottleneckDecomposition, BdError> {
    let mut nets = RoundNets::new(2 + 2 * g.n().max(1), false);
    drive(g, |g, alive, round| {
        nets.enter(g, alive, round);
        maximal_bottleneck(g, alive, round, &mut nets)
    })
}

/// The shared round loop of every decomposition engine: peel maximal
/// bottlenecks off the alive set until it is empty, classifying vertices as
/// it goes. `solve_round(g, alive, round)` supplies each round's
/// `(B, α)` — the cold round, the session's cached candidates, or the
/// Rational oracle in [`crate::reference`].
pub(crate) fn drive<F>(g: &Graph, mut solve_round: F) -> Result<BottleneckDecomposition, BdError>
where
    F: FnMut(&Graph, &VertexSet, usize) -> Result<(VertexSet, Rational), BdError>,
{
    if g.n() == 0 {
        return Err(BdError::EmptyGraph);
    }
    let n = g.n();
    let mut sp = prs_trace::span("bd", "decompose");
    sp.attr("n", || n.to_string());
    let mut alive = VertexSet::full(n);
    let mut pairs = Vec::new();
    let mut pair_of = vec![usize::MAX; n];
    let mut class_of = vec![AgentClass::B; n];
    let mut round = 0;

    while !alive.is_empty() {
        if alive.iter().all(|v| g.weight(v).is_zero()) {
            return Err(BdError::ZeroWeightResidue { round });
        }
        let (b, alpha) = {
            let mut sp_round = prs_trace::span("bd", "round");
            sp_round.attr("round", || round.to_string());
            sp_round.attr("alive", || alive.len().to_string());
            solve_round(g, &alive, round)?
        };
        let c = g.neighborhood_in(&b, &alive);
        let one = Rational::one();
        debug_assert!(alpha <= one, "α(S) ≤ α(V) ≤ 1 on every subgraph");

        for v in b.iter() {
            pair_of[v] = round;
            class_of[v] = if alpha == one {
                AgentClass::Both
            } else {
                AgentClass::B
            };
        }
        for v in c.iter() {
            if !b.contains(v) {
                pair_of[v] = round;
                class_of[v] = if alpha == one {
                    AgentClass::Both
                } else {
                    AgentClass::C
                };
            }
        }
        let removed = b.union(&c);
        alive.subtract(&removed);
        pairs.push(BottleneckPair { b, c, alpha });
        round += 1;
    }

    sp.attr("rounds", || round.to_string());
    let bd = BottleneckDecomposition {
        pairs,
        pair_of,
        class_of,
    };
    debug_assert_eq!(bd.check_proposition3(g), Ok(()));
    Ok(bd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prs_graph::builders;
    use prs_numeric::{int, ratio, Rational};

    fn ints(vals: &[i64]) -> Vec<Rational> {
        vals.iter().map(|&v| int(v)).collect()
    }

    #[test]
    fn figure1_decomposition() {
        let g = builders::figure1_example();
        let bd = decompose(&g).unwrap();
        assert_eq!(bd.k(), 2);
        assert_eq!(bd.pairs()[0].b.to_vec(), vec![0, 1]); // {v1, v2}
        assert_eq!(bd.pairs()[0].c.to_vec(), vec![2]); // {v3}
        assert_eq!(bd.pairs()[0].alpha, ratio(1, 3));
        assert_eq!(bd.pairs()[1].b.to_vec(), vec![3, 4, 5]); // {v4, v5, v6}
        assert_eq!(bd.pairs()[1].c.to_vec(), vec![3, 4, 5]);
        assert_eq!(bd.pairs()[1].alpha, int(1));
        assert_eq!(bd.class_of(0), AgentClass::B);
        assert_eq!(bd.class_of(2), AgentClass::C);
        assert_eq!(bd.class_of(4), AgentClass::Both);
        assert_eq!(bd.check_proposition3(&g), Ok(()));
    }

    #[test]
    fn figure1_utilities_match_prop6() {
        let g = builders::figure1_example();
        let bd = decompose(&g).unwrap();
        // v1 ∈ B₁: U = 2·(1/3). v2 ∈ B₁: U = 1·(1/3). v3 ∈ C₁:
        // U = 1/(1/3) = 3. v4..v6 (α = 1): U = w = 1.
        assert_eq!(bd.utility(&g, 0), ratio(2, 3));
        assert_eq!(bd.utility(&g, 1), ratio(1, 3));
        assert_eq!(bd.utility(&g, 2), int(3));
        for v in 3..6 {
            assert_eq!(bd.utility(&g, v), int(1));
        }
        // Total utility equals total weight (everything given is received).
        let total: Rational = bd.utilities(&g).iter().sum();
        assert_eq!(total, g.total_weight());
    }

    #[test]
    fn uniform_even_ring_alpha_one() {
        let g = builders::uniform_ring(6, int(1)).unwrap();
        let bd = decompose(&g).unwrap();
        assert_eq!(bd.k(), 1);
        assert_eq!(bd.pairs()[0].alpha, int(1));
        assert_eq!(bd.pairs()[0].b.len(), 6);
        assert!((0..6).all(|v| bd.class_of(v) == AgentClass::Both));
    }

    #[test]
    fn uniform_odd_ring_alpha_one() {
        let g = builders::uniform_ring(5, int(1)).unwrap();
        let bd = decompose(&g).unwrap();
        assert_eq!(bd.k(), 1);
        assert_eq!(bd.pairs()[0].alpha, int(1));
        assert_eq!(bd.pairs()[0].b.len(), 5);
    }

    #[test]
    fn two_vertex_path() {
        // Weights 1 and 4: B = {light}, C = {heavy}, α = 1/4? No: α(S) for
        // S={0}: w({1})/w({0}) = 4; S={1}: 1/4; S={0,1}: 5/5 = 1. Min = 1/4.
        let g = builders::path(ints(&[1, 4])).unwrap();
        let bd = decompose(&g).unwrap();
        assert_eq!(bd.k(), 1);
        assert_eq!(bd.pairs()[0].alpha, ratio(1, 4));
        assert_eq!(bd.pairs()[0].b.to_vec(), vec![1]);
        assert_eq!(bd.pairs()[0].c.to_vec(), vec![0]);
        assert_eq!(bd.utility(&g, 1), int(1)); // 4 · 1/4
        assert_eq!(bd.utility(&g, 0), int(4)); // 1 / (1/4)
    }

    #[test]
    fn balanced_two_vertex_path_is_alpha_one() {
        let g = builders::path(ints(&[3, 3])).unwrap();
        let bd = decompose(&g).unwrap();
        assert_eq!(bd.k(), 1);
        assert_eq!(bd.pairs()[0].alpha, int(1));
        assert_eq!(bd.pairs()[0].b.to_vec(), vec![0, 1]);
    }

    #[test]
    fn star_heavy_center() {
        // Center weight 10, three leaves weight 1: min α = 3/10 (S = center),
        // so B = {center}, C = leaves.
        let g = builders::star(ints(&[10, 1, 1, 1])).unwrap();
        let bd = decompose(&g).unwrap();
        assert_eq!(bd.k(), 1);
        assert_eq!(bd.pairs()[0].alpha, ratio(3, 10));
        assert_eq!(bd.pairs()[0].b.to_vec(), vec![0]);
        assert_eq!(bd.pairs()[0].c.to_vec(), vec![1, 2, 3]);
    }

    #[test]
    fn star_light_center() {
        // Center 1, leaves 10 each: min α = 1/30 (S = leaves), B = leaves.
        let g = builders::star(ints(&[1, 10, 10, 10])).unwrap();
        let bd = decompose(&g).unwrap();
        assert_eq!(bd.pairs()[0].alpha, ratio(1, 30));
        assert_eq!(bd.pairs()[0].b.to_vec(), vec![1, 2, 3]);
        assert_eq!(bd.pairs()[0].c.to_vec(), vec![0]);
    }

    #[test]
    fn heavy_interior_path_single_pair() {
        // Path 1 – 100 – 1 – 1. Candidate ratios: α({1}) = 2/100 = 1/50,
        // α({1,3}) = w({0,2})/w({1,3}) = 2/101 < 1/50 — and {1,3} is
        // independent, so the maximal bottleneck absorbs the far leaf:
        // B = {1,3}, C = Γ(B) = {0,2}, one pair, α = 2/101.
        let g = builders::path(ints(&[1, 100, 1, 1])).unwrap();
        let bd = decompose(&g).unwrap();
        assert_eq!(bd.k(), 1);
        assert_eq!(bd.pairs()[0].alpha, ratio(2, 101));
        assert_eq!(bd.pairs()[0].b.to_vec(), vec![1, 3]);
        assert_eq!(bd.pairs()[0].c.to_vec(), vec![0, 2]);
    }

    #[test]
    fn multi_pair_path() {
        // Path 10 – 1 – 5 – 5. Round 0: α({1}) = 15/1 large; α({0})=1/10;
        // α({0,2}) = (1+5)/15 = 2/5; α({0}) = 1/10 is the minimum
        // (independent sets only can win; {0} beats {0,2} since vertex 2's
        // neighborhood adds weight 5+1=6 for weight 5).
        // So B₁={0}, C₁={1}, α₁=1/10; residue {2,3} has α = 1 (balanced edge).
        let g = builders::path(ints(&[10, 1, 5, 5])).unwrap();
        let bd = decompose(&g).unwrap();
        assert_eq!(bd.k(), 2);
        assert_eq!(bd.pairs()[0].alpha, ratio(1, 10));
        assert_eq!(bd.pairs()[0].b.to_vec(), vec![0]);
        assert_eq!(bd.pairs()[0].c.to_vec(), vec![1]);
        assert_eq!(bd.pairs()[1].alpha, int(1));
        assert_eq!(bd.pairs()[1].b.to_vec(), vec![2, 3]);
        assert_eq!(bd.check_proposition3(&g), Ok(()));
    }

    #[test]
    fn zero_weight_leaf_joins_its_neighbors_pair() {
        // Path 0(w=0) – 1(w=2) – 2(w=3): the zero-weight leaf lands in the
        // same pair as vertex 1's pair, B side (cf. Case C-2 of Lemma 14).
        let g = builders::path(vec![int(0), int(2), int(3)]).unwrap();
        let bd = decompose(&g).unwrap();
        assert_eq!(bd.check_proposition3(&g), Ok(()));
        let total: Rational = bd.utilities(&g).iter().sum();
        assert_eq!(total, g.total_weight());
        assert_eq!(bd.utility(&g, 0), int(0));
    }

    #[test]
    fn isolated_positive_vertex_is_zero_alpha_error() {
        let g = prs_graph::Graph::new(ints(&[1, 1, 1]), &[(0, 1)]).unwrap();
        assert!(matches!(decompose(&g), Err(BdError::ZeroAlpha { .. })));
    }

    #[test]
    fn empty_graph_error() {
        let g = prs_graph::Graph::new(vec![], &[]).unwrap();
        assert_eq!(decompose(&g), Err(BdError::EmptyGraph));
    }

    #[test]
    fn signature_detects_combinatorial_change() {
        let g1 = builders::path(ints(&[1, 4])).unwrap();
        let g2 = builders::path(ints(&[1, 5])).unwrap();
        let s1 = decompose(&g1).unwrap();
        let s2 = decompose(&g2).unwrap();
        assert_eq!(s1.shape(), s2.shape()); // same B/C split
        assert_ne!(s1.signature(), s2.signature()); // different α
    }
}
