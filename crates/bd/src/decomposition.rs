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
//! a float Dinkelbach pass (or a session cache) proposes `α̂`, and
//! [`certify`] — the one production descent — decides it on the network
//! scaled by `p·D` to integers (checked `i128`, BigInt on promotion). The
//! Rational-capacity descent lives on as the test oracle
//! [`decompose_exact`] in [`crate::reference`].

use crate::error::BdError;
pub use crate::reference::decompose_exact;
use prs_flow::network_i128::{overflow_detected, reset_overflow};
use prs_flow::{stats, CapI128, CapInt, EdgeId, NetworkF64, NetworkI128, NetworkInt, SeedArc};
use prs_graph::{Graph, VertexId, VertexSet};
use prs_numeric::{gcd::lcm, BigInt, BigUint, Rational, Sign};

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

/// The float proposal network and the scaled-integer certification
/// networks of one decomposition round.
///
/// Rebuilt **in place** when the alive set changes (one `clear` per
/// round and engine) and re-parameterized capacity-only between Dinkelbach
/// steps — `set_capacity` over the α-dependent arcs plus `reset_flow`, no
/// allocation.
pub(crate) struct RoundNets {
    approx: NetworkF64,
    /// Per alive vertex: `(v, f64 sink edge)`, valid after
    /// [`RoundNets::rebuild_f64`].
    approx_sinks: Vec<(VertexId, EdgeId)>,
    /// The certification network: capacities are multiplied by `p·D`
    /// (α = p/q in lowest terms, `D` clears the alive weights'
    /// denominators), turning every flow step into gcd-free big-integer
    /// arithmetic. Only meaningful after [`RoundNets::rebuild_int`] with
    /// `cert_engine == CertEngine::Int`.
    exact_int: NetworkInt,
    /// Checked-`i128` twin of `exact_int` — the certification fast tier.
    /// Same arc order, hence the same `EdgeId`s. Only meaningful when
    /// `cert_engine == CertEngine::I128`.
    exact_i128: NetworkI128,
    /// Which engine the last `rebuild_int`/`set_alpha_int` targeted.
    cert_engine: CertEngine,
    /// `p·D` of the current integer build (positive when valid).
    pub(crate) int_scale: BigInt,
    /// `D` = lcm of the alive weights' denominators (α-independent part of
    /// the scale, kept so a Dinkelbach step can re-parameterize in place).
    int_d: BigInt,
    /// Scaled integer weight `w_v·D` per alive vertex, in `alive` order.
    int_weights: Vec<BigInt>,
    /// Sum of the integer source capacities `Σ w_v·D·p` — the feasibility
    /// target: the scaled network saturates its sources iff the max flow
    /// equals this.
    int_source_total: BigInt,
    /// Per alive vertex: `(v, sink edge)` of the certification engine that
    /// built last (the engines add arcs in the same order, so the ids
    /// coincide).
    sink_edges: Vec<(VertexId, EdgeId)>,
    /// Per alive vertex: `(v, source edge)`, in `alive` order.
    source_edges: Vec<(VertexId, EdgeId)>,
    /// The certification middle arcs `(v, u, edge left(v)→right(u))`,
    /// sorted lexicographically by `(v, u)` (alive iteration is ascending
    /// and neighbor lists are sorted). The session reads the certifying
    /// flow off these arcs and seeds the next warm start from it.
    pub(crate) mid_edges: Vec<(VertexId, VertexId, EdgeId)>,
}

impl RoundNets {
    pub(crate) fn new(n_nodes: usize) -> Self {
        RoundNets {
            approx: NetworkF64::new(n_nodes),
            approx_sinks: Vec::new(),
            exact_int: NetworkInt::new(n_nodes),
            exact_i128: NetworkI128::new(n_nodes),
            cert_engine: CertEngine::Int,
            int_scale: BigInt::zero(),
            int_d: BigInt::zero(),
            int_weights: Vec::new(),
            int_source_total: BigInt::zero(),
            sink_edges: Vec::new(),
            source_edges: Vec::new(),
            mid_edges: Vec::new(),
        }
    }

    // prs-lint: allow(float, reason = "two-tier proposer: the approx network is built from to_f64 images and only ever proposes; certification is exact")
    /// Rebuild the float proposal network for the induced subgraph on
    /// `alive` at `alpha_f`.
    fn rebuild_f64(&mut self, g: &Graph, alive: &VertexSet, alpha_f: f64) {
        let layout = Layout { n: g.n() };
        self.approx.clear(layout.nodes());
        self.approx_sinks.clear();
        for v in alive.iter() {
            let w = g.weight(v).to_f64();
            self.approx.add_edge(Layout::S, layout.left(v), w);
            let a = self
                .approx
                .add_edge(layout.right(v), Layout::T, w / alpha_f);
            self.approx_sinks.push((v, a));
            for &u in g.neighbors(v) {
                if alive.contains(u) {
                    self.approx
                        .add_edge(layout.left(v), layout.right(u), f64::INFINITY);
                }
            }
        }
    }

    /// Rebuild the scaled-integer certification network at `alpha = p/q`.
    /// Every capacity is multiplied by the positive constant `p·D`, where
    /// `D` is the lcm of the alive weights' denominators: source arcs carry
    /// `(w_v·D)·p`, sink arcs `(w_v·D)·q`, middle arcs stay infinite — all
    /// integers, so Dinic runs gcd-free. Uniform positive scaling preserves
    /// the feasibility decision, min cuts, and residual reachability of the
    /// rational network, so every set extracted here is bit-identical to
    /// what the Rational oracle ([`decompose_exact`]) extracts at the same
    /// `alpha`.
    ///
    /// Both engines add arcs in the oracle's order, so the `EdgeId`s
    /// recorded in `source_edges` / `sink_edges` / `mid_edges` are valid
    /// for whichever engine built last.
    fn rebuild_int(&mut self, g: &Graph, alive: &VertexSet, alpha: &Rational) {
        self.int_weights.clear();
        let mut d = BigUint::one();
        for v in alive.iter() {
            d = lcm(&d, g.weight(v).denom());
        }
        let d = BigInt::from_parts(Sign::Plus, d);
        let p = alpha.numer();
        let q = BigInt::from_parts(Sign::Plus, alpha.denom().clone());
        debug_assert!(p.is_positive(), "bottleneck ratios are positive");
        let mut total = BigInt::zero();
        let mut caps = Vec::with_capacity(alive.len());
        for v in alive.iter() {
            let w = g.weight(v);
            // w_v·D is integral because denom(w_v) divides D.
            let iw = w.numer() * &(&d / &BigInt::from_parts(Sign::Plus, w.denom().clone()));
            let src_cap = &iw * p;
            let snk_cap = &iw * &q;
            total += &src_cap;
            caps.push((src_cap, snk_cap));
            self.int_weights.push(iw);
        }
        if let Some(caps128) = admit_i128(&caps) {
            self.build_arcs_i128(g, alive, &caps128);
        } else {
            // Build-time promotion: some p·D-scaled capacity (or an endpoint
            // total) does not fit in i128 — go straight to BigInt.
            stats::record_i128_promotions(1);
            prs_trace::metrics::anomaly("i128_promotion_build");
            self.build_arcs_int(g, alive, &caps);
        }
        self.int_scale = p * &d;
        self.int_d = d;
        self.int_source_total = total;
    }

    /// Add the certification arcs to the BigInt engine. Arc order matches
    /// `build_arcs_i128`, so the recorded `EdgeId`s are valid for whichever
    /// engine built last.
    fn build_arcs_int(&mut self, g: &Graph, alive: &VertexSet, caps: &[(BigInt, BigInt)]) {
        let layout = Layout { n: g.n() };
        self.cert_engine = CertEngine::Int;
        self.exact_int.clear(layout.nodes());
        self.sink_edges.clear();
        self.source_edges.clear();
        self.mid_edges.clear();
        for (i, v) in alive.iter().enumerate() {
            let s = self.exact_int.add_edge(
                Layout::S,
                layout.left(v),
                CapInt::Finite(caps[i].0.clone()),
            );
            let e = self.exact_int.add_edge(
                layout.right(v),
                Layout::T,
                CapInt::Finite(caps[i].1.clone()),
            );
            self.sink_edges.push((v, e));
            self.source_edges.push((v, s));
            for &u in g.neighbors(v) {
                if alive.contains(u) {
                    let m =
                        self.exact_int
                            .add_edge(layout.left(v), layout.right(u), CapInt::Infinite);
                    self.mid_edges.push((v, u, m));
                }
            }
        }
    }

    /// Add the certification arcs to the checked-`i128` fast tier. Same arc
    /// order as `build_arcs_int` — the engines are `EdgeId`-compatible.
    fn build_arcs_i128(&mut self, g: &Graph, alive: &VertexSet, caps: &[(i128, i128)]) {
        let layout = Layout { n: g.n() };
        self.cert_engine = CertEngine::I128;
        reset_overflow();
        self.exact_i128.clear(layout.nodes());
        self.sink_edges.clear();
        self.source_edges.clear();
        self.mid_edges.clear();
        for (i, v) in alive.iter().enumerate() {
            let s = self
                .exact_i128
                .add_edge(Layout::S, layout.left(v), CapI128::Finite(caps[i].0));
            let e =
                self.exact_i128
                    .add_edge(layout.right(v), Layout::T, CapI128::Finite(caps[i].1));
            self.sink_edges.push((v, e));
            self.source_edges.push((v, s));
            for &u in g.neighbors(v) {
                if alive.contains(u) {
                    let m = self.exact_i128.add_edge(
                        layout.left(v),
                        layout.right(u),
                        CapI128::Infinite,
                    );
                    self.mid_edges.push((v, u, m));
                }
            }
        }
    }

    /// Re-parameterize the integer network to `alpha = p'/q'`. Unlike the
    /// rational network, *both* arc families depend on α here (source caps
    /// carry the `p` factor of the scale), so both are rewritten; `D` and
    /// the arc structure are untouched. An i128-tier round whose new
    /// capacities no longer fit promotes to BigInt here (the descent can
    /// only shrink `p`, but `q` can grow without bound).
    fn set_alpha_int(&mut self, g: &Graph, alive: &VertexSet, alpha: &Rational) {
        let p = alpha.numer();
        let q = BigInt::from_parts(Sign::Plus, alpha.denom().clone());
        debug_assert!(p.is_positive(), "bottleneck ratios are positive");
        debug_assert_eq!(self.int_weights.len(), self.source_edges.len());
        let mut total = BigInt::zero();
        let mut caps = Vec::with_capacity(self.int_weights.len());
        for iw in &self.int_weights {
            let src_cap = iw * p;
            total += &src_cap;
            caps.push((src_cap, iw * &q));
        }
        match self.cert_engine {
            CertEngine::I128 => match admit_i128(&caps) {
                Some(caps128) => {
                    reset_overflow();
                    for (i, &(src, snk)) in caps128.iter().enumerate() {
                        self.exact_i128
                            .set_capacity(self.source_edges[i].1, CapI128::Finite(src));
                        self.exact_i128
                            .set_capacity(self.sink_edges[i].1, CapI128::Finite(snk));
                    }
                    self.exact_i128.reset_flow();
                }
                None => {
                    // Mid-descent promotion: the BigInt twin was never built
                    // this round, so construct it outright (same arc order →
                    // the recorded EdgeIds stay valid).
                    stats::record_i128_promotions(1);
                    prs_trace::metrics::anomaly("i128_promotion_descent");
                    self.build_arcs_int(g, alive, &caps);
                }
            },
            CertEngine::Int => {
                for (i, (src, snk)) in caps.into_iter().enumerate() {
                    self.exact_int
                        .set_capacity(self.source_edges[i].1, CapInt::Finite(src));
                    self.exact_int
                        .set_capacity(self.sink_edges[i].1, CapInt::Finite(snk));
                }
                self.exact_int.reset_flow();
            }
        }
        self.int_scale = p * &self.int_d;
        self.int_source_total = total;
    }

    /// Run the certification max-flow on the active engine, returning the
    /// pushed flow in BigInt units and whether a *runtime* overflow promoted
    /// the round mid-flight. On promotion the poisoned i128 result is
    /// discarded and the max-flow reruns cold on a freshly built BigInt
    /// network at the same α — any seed installed on the i128 network is
    /// gone, so callers must drop their seeded-flow bookkeeping when the
    /// flag comes back `true`.
    fn cert_max_flow(&mut self, g: &Graph, alive: &VertexSet, alpha: &Rational) -> (BigInt, bool) {
        match self.cert_engine {
            CertEngine::I128 => {
                let flow = self.exact_i128.max_flow(Layout::S, Layout::T);
                if !overflow_detected() {
                    return (BigInt::from(flow), false);
                }
                // The admission check bounds every partial sum by an endpoint
                // total that fits, so this is defense-in-depth rather than an
                // expected path — but soundness must not depend on that
                // argument staying true under refactors. (The poison flag
                // itself already tripped the flight recorder inside
                // `prs_flow`; this anomaly marks the promotion decision.)
                stats::record_i128_promotions(1);
                prs_trace::metrics::anomaly("i128_promotion_runtime");
                let p = alpha.numer();
                let q = BigInt::from_parts(Sign::Plus, alpha.denom().clone());
                let caps: Vec<(BigInt, BigInt)> = self
                    .int_weights
                    .iter()
                    .map(|iw| (iw * p, iw * &q))
                    .collect();
                self.build_arcs_int(g, alive, &caps);
                (self.exact_int.max_flow(Layout::S, Layout::T), true)
            }
            CertEngine::Int => (self.exact_int.max_flow(Layout::S, Layout::T), false),
        }
    }

    /// Engine-dispatched [`prs_flow::Network::residual_reaches_sink`].
    fn cert_residual_reaches_sink(&self) -> Vec<bool> {
        match self.cert_engine {
            CertEngine::I128 => self.exact_i128.residual_reaches_sink(Layout::T),
            CertEngine::Int => self.exact_int.residual_reaches_sink(Layout::T),
        }
    }

    /// Engine-dispatched [`prs_flow::Network::min_cut_source_side`].
    fn cert_min_cut_source_side(&self) -> Vec<bool> {
        match self.cert_engine {
            CertEngine::I128 => self.exact_i128.min_cut_source_side(Layout::S),
            CertEngine::Int => self.exact_int.min_cut_source_side(Layout::S),
        }
    }

    /// Flow on `e` in the active certification engine, widened to BigInt.
    pub(crate) fn cert_flow_on(&self, e: EdgeId) -> BigInt {
        match self.cert_engine {
            CertEngine::I128 => BigInt::from(*self.exact_i128.flow_on(e)),
            CertEngine::Int => self.exact_int.flow_on(e).clone(),
        }
    }

    /// Seed the active certification engine with the given flow requests
    /// (desired amounts in scaled BigInt units), returning the total flow
    /// actually installed.
    ///
    /// On the i128 tier each `desired` is narrowed with a clamp to
    /// `i128::MAX`: the kernel's `seed_flow` caps every request by the
    /// remaining source supply and sink room, and those are bounded by
    /// endpoint totals the admission check proved fit — so the clamp can
    /// never change the installed amount, only the (ignored) excess of the
    /// request.
    fn cert_seed_flow(&mut self, seeds: &[SeedArc<BigInt>]) -> BigInt {
        match self.cert_engine {
            CertEngine::I128 => {
                let narrowed: Vec<SeedArc<i128>> = seeds
                    .iter()
                    .map(|s| SeedArc {
                        source_edge: s.source_edge,
                        mid_edge: s.mid_edge,
                        sink_edge: s.sink_edge,
                        desired: s.desired.to_i128().unwrap_or(i128::MAX),
                    })
                    .collect();
                let total = self.exact_i128.seed_flow(&narrowed);
                debug_assert!(self.exact_i128.check_capacities());
                debug_assert!(self.exact_i128.check_conservation(Layout::S, Layout::T));
                BigInt::from(total)
            }
            CertEngine::Int => {
                let total = self.exact_int.seed_flow(seeds);
                debug_assert!(self.exact_int.check_capacities());
                debug_assert!(self.exact_int.check_conservation(Layout::S, Layout::T));
                total
            }
        }
    }

    /// Preload the freshly built certification network with a previous
    /// certifying flow pattern, rescaled from the weights it was certified
    /// on to the current ones (and into the `p·D` integer units). Each
    /// support arc becomes a [`SeedArc`] request, and the kernel's
    /// [`seed_flow`](prs_flow::Network::seed_flow) clamps the requests to
    /// remaining capacity and installs a valid (capacity-respecting,
    /// conserving) flow. Returns the seeded flow value (the amount already
    /// routed s→t, in scaled units).
    ///
    /// Each middle arc requests `⌊flow·(w'_v/w_v)·pD⌋`; the floor loses at
    /// most one scaled unit per arc, which the certification max-flow
    /// recovers from the residual graph: Dinic completes **any** valid flow
    /// to a maximum flow, so seeding changes only how many augmenting paths
    /// are needed, never the result.
    fn seed_from_support(
        &mut self,
        g: &Graph,
        alive: &VertexSet,
        support: &[SupportArc],
    ) -> BigInt {
        if support.is_empty() {
            return BigInt::zero();
        }
        debug_assert!(self.int_scale.is_positive());
        let mut seeds = Vec::with_capacity(support.len());
        for (v, u, f, w_then) in support {
            let (v, u) = (*v, *u);
            if !alive.contains(v) || !alive.contains(u) {
                continue;
            }
            let Ok(mid) = self
                .mid_edges
                .binary_search_by(|probe| (probe.0, probe.1).cmp(&(v, u)))
            else {
                continue; // edge no longer present (different topology)
            };
            let Ok(vpos) = self.source_edges.binary_search_by(|probe| probe.0.cmp(&v)) else {
                continue;
            };
            let Ok(upos) = self.sink_edges.binary_search_by(|probe| probe.0.cmp(&u)) else {
                continue;
            };
            let w_now = g.weight(v);
            // desired = ⌊ f · (w'_v / w_v) · p·D ⌋, assembled numerator over
            // denominator so there is exactly one big division per arc.
            let num = &(&(f.numer() * w_now.numer())
                * &BigInt::from_parts(Sign::Plus, w_then.denom().clone()))
                * &self.int_scale;
            let den = &(&BigInt::from_parts(Sign::Plus, f.denom().clone())
                * &BigInt::from_parts(Sign::Plus, w_now.denom().clone()))
                * w_then.numer();
            seeds.push(SeedArc {
                source_edge: self.source_edges[vpos].1,
                mid_edge: self.mid_edges[mid].2,
                sink_edge: self.sink_edges[upos].1,
                desired: &num / &den,
            });
        }
        self.cert_seed_flow(&seeds)
    }

    // prs-lint: allow(float, reason = "two-tier proposer: re-parameterizes the approx network only; certification is exact")
    /// Re-parameterize the float network to `alpha_f`.
    fn set_alpha_f64(&mut self, g: &Graph, alpha_f: f64) {
        for &(v, a) in &self.approx_sinks {
            self.approx.set_capacity(a, g.weight(v).to_f64() / alpha_f);
        }
        self.approx.reset_flow();
    }
}

/// Try to narrow a full set of scaled certification capacities to `i128` —
/// the admission test of the fast tier. Succeeds iff every capacity *and*
/// both endpoint totals fit (the `checked_add` chain proves the totals,
/// which in turn bound every partial sum the kernel can form: a flow value
/// never exceeds an endpoint total, so an admitted network cannot overflow
/// at runtime). Returns `None` on the first miss, which the callers count
/// as one promotion to BigInt.
fn admit_i128(caps: &[(BigInt, BigInt)]) -> Option<Vec<(i128, i128)>> {
    let mut src_total: i128 = 0;
    let mut snk_total: i128 = 0;
    let mut out = Vec::with_capacity(caps.len());
    for (src, snk) in caps {
        let s = src.to_i128()?;
        let k = snk.to_i128()?;
        src_total = src_total.checked_add(s)?;
        snk_total = snk_total.checked_add(k)?;
        out.push((s, k));
    }
    Some(out)
}

// prs-lint: allow(float, reason = "tier-1 proposer: every candidate it returns is re-certified by an exact max-flow before adoption (see maximal_bottleneck)")
/// Tier 1: run the Dinkelbach descent on the float network and return a
/// candidate bottleneck set, or `None` when the float loop stalls or
/// produces nothing usable (the exact tier then starts from α₀ unchanged).
///
/// The parameter values fed to the float network are `to_f64` images of
/// *exact* α-ratios of actual vertex sets, so the returned candidate always
/// corresponds to a well-defined exact ratio for the certification pass.
fn propose_f64(
    g: &Graph,
    alive: &VertexSet,
    alpha0: &Rational,
    nets: &mut RoundNets,
) -> Option<VertexSet> {
    let _sp = prs_trace::span("bd", "f64_propose");
    let layout = Layout { n: g.n() };
    let w_alive_f: f64 = alive.iter().map(|v| g.weight(v).to_f64()).sum();
    let tol = 1e-9 * (1.0 + w_alive_f);
    let mut alpha_f = alpha0.to_f64();
    nets.rebuild_f64(g, alive, alpha_f);
    if alpha_f.is_nan() || alpha_f <= 0.0 {
        return None; // α₀ underflowed: nothing useful to propose
    }
    let mut last_violating: Option<VertexSet> = None;

    // The exact descent takes at most |alive| strictly decreasing steps;
    // give the float loop the same budget plus slack, then give up.
    for _ in 0..alive.len() + 4 {
        nets.set_alpha_f64(g, alpha_f);
        let flow = nets.approx.max_flow(Layout::S, Layout::T);
        if flow >= w_alive_f - tol {
            // Float-feasible: extract the unreachable set as the candidate
            // maximal bottleneck. Empty (float α slipped strictly below the
            // optimum, every source arc has slack) falls back to the last
            // violating set.
            let reaches = nets.approx.residual_reaches_sink(Layout::T);
            let mut b = VertexSet::empty(g.n());
            for v in alive.iter() {
                if !reaches[layout.left(v)] {
                    b.insert(v);
                }
            }
            if !b.is_empty() {
                return Some(b);
            }
            return last_violating;
        }
        let side = nets.approx.min_cut_source_side(Layout::S);
        let mut s_set = VertexSet::empty(g.n());
        for v in alive.iter() {
            if side[layout.left(v)] {
                s_set.insert(v);
            }
        }
        if s_set.is_empty() {
            return last_violating;
        }
        let new_alpha_f = g.alpha_ratio_in(&s_set, alive)?.to_f64();
        if new_alpha_f.is_nan() || new_alpha_f <= 0.0 || new_alpha_f >= alpha_f {
            // No float-visible progress (near-tie or rounding): stop and let
            // the exact tier certify what we have.
            return Some(s_set);
        }
        alpha_f = new_alpha_f;
        last_violating = Some(s_set);
    }
    last_violating
}

/// One middle arc of a certifying flow, in unscaled units:
/// `(v, u, flow on left(v)→right(u), w_v at certification)`.
pub(crate) type SupportArc = (VertexId, VertexId, Rational, Rational);

/// A settled certification (see [`certify`]).
pub(crate) struct Certified {
    /// The maximal tight set at `alpha`; empty only when a predicted `α̂`
    /// undershot the round optimum.
    pub(crate) b: VertexSet,
    /// The certified ratio.
    pub(crate) alpha: Rational,
    /// False iff `α̂` was infeasible and a Dinkelbach descent ran.
    pub(crate) first_try: bool,
}

/// The one production Dinkelbach descent: certify a candidate ratio `α̂`
/// on the scaled-integer network (checked `i128`, BigInt on promotion),
/// seeded from `support` (a previous certifying flow pattern; empty for a
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
/// A *predicted* `α̂` (a stability-cell evaluation) may sit below `α*`:
/// the first flow is then feasible with slack on every source arc, so
/// [`Certified::b`] comes back empty — the one signature of an
/// under-prediction, which only that caller checks for.
pub(crate) fn certify(
    g: &Graph,
    alive: &VertexSet,
    round: usize,
    nets: &mut RoundNets,
    alpha_hat: Rational,
    support: &[SupportArc],
    engine: &'static str,
) -> Result<Certified, BdError> {
    let layout = Layout { n: g.n() };
    nets.rebuild_int(g, alive, &alpha_hat);
    let mut seeded = nets.seed_from_support(g, alive, support);
    let mut alpha = alpha_hat;
    let mut first = true;
    loop {
        stats::record_dinkelbach_iterations(1);
        let mut sp_iter = prs_trace::span("bd", "dinkelbach_iter");
        sp_iter.attr("engine", || engine.to_string());
        if !first {
            nets.set_alpha_int(g, alive, &alpha);
        }
        let (mut flow, promoted) = nets.cert_max_flow(g, alive, &alpha);
        if promoted {
            // A runtime overflow discarded the i128 network mid-round — and
            // with it any seed installed there; the BigInt rerun pushed its
            // whole flow from zero, so nothing must be added back.
            seeded = BigInt::zero();
        }
        if first {
            // `max_flow` reports only the flow it pushed on top of the seed.
            flow += &seeded;
        }
        // Feasible iff the sources saturate: max flow = Σ (w_v·D)·p.
        if flow == nets.int_source_total {
            let reaches = nets.cert_residual_reaches_sink();
            let mut b = VertexSet::empty(g.n());
            for v in alive.iter() {
                if !reaches[layout.left(v)] {
                    b.insert(v);
                }
            }
            debug_assert!(
                first || !b.is_empty(),
                "a tight set must exist at the optimum"
            );
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
        let new_alpha = g
            .alpha_ratio_in(&s_set, alive)
            .expect("violating sets have positive weight");
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
/// cached candidate — the cold round.
///
/// Tier 1 ([`propose_f64`]) runs the Dinkelbach descent approximately and
/// proposes a candidate set `B̂`; its **exact** ratio `α̂ = α(B̂)` (or `α₀`
/// when nothing usable is proposed) goes to [`certify`] with an empty seed.
/// The float tier can therefore change only *how fast* the optimum is
/// reached (one exact flow on a hit instead of a full descent), never the
/// result.
pub(crate) fn maximal_bottleneck(
    g: &Graph,
    alive: &VertexSet,
    round: usize,
    nets: &mut RoundNets,
) -> Result<(VertexSet, Rational), BdError> {
    // prs-lint: allow(panic, reason = "decompose() rejects zero-weight alive sets before every round, so the ratio is defined")
    let alpha0 = g
        .alpha_ratio_in(alive, alive)
        .expect("w(alive) > 0 checked by caller");
    if alpha0.is_zero() {
        return Err(BdError::ZeroAlpha { round });
    }
    // Tier 1: float proposal, adopted only when its exact ratio is a valid
    // descent seed (0 < α̂ ≤ 1; anything else keeps α₀).
    let proposal = propose_f64(g, alive, &alpha0, nets)
        .and_then(|candidate| g.alpha_ratio_in(&candidate, alive))
        .filter(|a| a.is_positive() && *a <= Rational::one());
    let proposed = proposal.is_some();
    // Tier 2: exact certification / descent.
    let c = certify(
        g,
        alive,
        round,
        nets,
        proposal.unwrap_or(alpha0),
        &[],
        "two_tier",
    )?;
    if proposed && c.first_try {
        stats::record_fast_path_hits(1);
    } else if proposed {
        stats::record_fast_path_fallbacks(1);
    }
    Ok((c.b, c.alpha))
}

/// Compute the bottleneck decomposition of `g` (Definition 2), exactly.
///
/// Each round a floating-point Dinkelbach pass proposes the optimum and
/// one max-flow on the scaled-integer network certifies it (checked `i128`,
/// promoting to BigInt when a capacity outgrows the word); a miss resumes
/// the exact descent on the same network. The result is bit-identical to
/// the Rational oracle [`decompose_exact`]. Flow networks are rebuilt in
/// place across rounds and re-parameterized capacity-only inside each
/// round's descent.
///
/// Errors on the degenerate inputs for which the decomposition is undefined:
/// empty graphs, subgraphs whose minimum α-ratio is 0 (isolated
/// positive-weight agents), or residues of total weight 0.
pub fn decompose(g: &Graph) -> Result<BottleneckDecomposition, BdError> {
    let mut nets = RoundNets::new(2 + 2 * g.n().max(1));
    drive(g, |g, alive, round| {
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
        if g.set_weight_of(&alive).is_zero() {
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
