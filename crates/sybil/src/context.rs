//! One agent's Sybil context. Lemma 9's honest split, the Lemma 14/20
//! initial path, the optimizer's splits and the stage corners are all split
//! paths `P_v(w₁, w₂)` of one ring, so a [`SybilContext`] decomposes each
//! once, into a table keyed by `(w₁, w₂)` that lives as long as it does.

// prs-lint: allow-file(panic, reason = "contexts require a validated positive-weight ring: its decomposition exists, and a split path fails to decompose only at a degenerate boundary (recorded as None); any other failure is a solver bug the audit must abort on")

use crate::split::SybilSplitFamily;
use prs_bd::par::SessionPool;
use prs_bd::{
    allocate, decompose, AgentClass, Allocation, BdError, BottleneckDecomposition,
    DecompositionSession,
};
use prs_graph::{Graph, VertexId};
use prs_numeric::Rational;
use std::collections::BTreeMap;

/// A decomposed split path and its copies' utilities `(U_{v¹}, U_{v²})`.
pub type SplitEntry = (BottleneckDecomposition, (Rational, Rational));

/// Agent `v`'s Sybil context on one ring.
pub struct SybilContext {
    honest_split: (Rational, Rational),
    honest_utility: Rational,
    ring_class: AgentClass,
    alpha: Rational,
    pub(crate) fam: SybilSplitFamily,
    /// Split paths by `(w₁, w₂)`; `None` where undecomposable.
    pub(crate) paths: BTreeMap<(Rational, Rational), Option<SplitEntry>>,
    pub(crate) pool: SessionPool,
}

impl SybilContext {
    /// Agent `v`'s context, from the caller's decomposition `bd` of `ring`
    /// and its Prop. 6 allocation `alloc`. Panics if `ring` is not a ring.
    pub fn new(
        ring: &Graph,
        bd: &BottleneckDecomposition,
        alloc: &Allocation,
        v: VertexId,
    ) -> Self {
        // The split path starts at the successor, `neighbors(v)[0]` (see
        // `builders::sybil_split_path`).
        let [succ, pred] = [0, 1].map(|i| ring.neighbors(v)[i]);
        SybilContext {
            honest_split: (alloc.sent(v, succ), alloc.sent(v, pred)),
            honest_utility: bd.utility(ring, v),
            ring_class: match bd.class_of(v) {
                AgentClass::B => AgentClass::B,
                _ => AgentClass::C,
            },
            alpha: bd.alpha_of(v).clone(),
            fam: SybilSplitFamily::new(ring.clone(), v),
            paths: BTreeMap::new(),
            pool: SessionPool::new(),
        }
    }

    /// The contexts of `agents` on a validated positive-weight `ring`, one
    /// at a time, from one decomposition and one allocation of the ring.
    pub fn for_agents(
        ring: &Graph,
        agents: impl IntoIterator<Item = VertexId, IntoIter: 'static>,
    ) -> impl Iterator<Item = SybilContext> + '_ {
        let bd = ring_decomposition(ring);
        let alloc = allocate(ring, &bd);
        let agents = agents.into_iter();
        agents.map(move |v| SybilContext::new(ring, &bd, &alloc, v))
    }

    /// Agent `v`'s context on a validated positive-weight `ring`.
    pub fn of(ring: &Graph, v: VertexId) -> Self {
        let mut one = Self::for_agents(ring, [v]);
        one.next().expect("one agent asked for")
    }

    /// The split family `P_v(w₁, w_v − w₁)`.
    pub fn family(&self) -> &SybilSplitFamily {
        &self.fam
    }

    /// The honest split `(w₁⁰, w₂⁰)`: what `v` sends its ring successor and
    /// predecessor under the BD allocation.
    pub fn honest_split(&self) -> &(Rational, Rational) {
        &self.honest_split
    }

    /// `U_v` on the ring.
    pub fn honest_utility(&self) -> &Rational {
        &self.honest_utility
    }

    /// `v`'s class on the ring, `Both` folded into C as in the paper.
    pub fn ring_class(&self) -> AgentClass {
        self.ring_class
    }

    /// `α_v` on the ring.
    pub fn alpha(&self) -> &Rational {
        &self.alpha
    }

    /// Every split path decomposed so far, by `(w₁, w₂)`.
    pub fn splits(&self) -> &BTreeMap<(Rational, Rational), Option<SplitEntry>> {
        &self.paths
    }

    /// The table entry of the split path with copy weights `(w1, w2)`: read,
    /// or built, decomposed and recorded on the first ask.
    pub(crate) fn split_path(&mut self, w1: &Rational, w2: &Rational) -> Option<&SplitEntry> {
        let (fam, pool) = (&self.fam, &self.pool);
        let key = (w1.clone(), w2.clone());
        let entry = self.paths.entry(key).or_insert_with(|| {
            let mut session = pool.checkout();
            let entry = decompose_at(&mut session, fam, w1, w2);
            pool.checkin(session);
            entry
        });
        entry.as_ref()
    }

    /// `(U_{v¹}, U_{v²})` on the split path `(w1, w2)`, through the table.
    pub fn payoff_at(&mut self, w1: &Rational, w2: &Rational) -> Option<(Rational, Rational)> {
        self.split_path(w1, w2).map(|(_, payoff)| payoff.clone())
    }
}

/// The decomposition of `ring`, a validated positive-weight ring.
pub(crate) fn ring_decomposition(ring: &Graph) -> BottleneckDecomposition {
    decompose(ring).expect("a positive-weight ring decomposes")
}

/// The split path `(w1, w2)` of `fam` decomposed through `session`, with
/// the copies' utilities `(U_{v¹}, U_{v²})`; `None` where undecomposable.
pub(crate) fn decompose_at(
    session: &mut DecompositionSession,
    fam: &SybilSplitFamily,
    w1: &Rational,
    w2: &Rational,
) -> Option<SplitEntry> {
    let (p, v1, v2) = fam.path_at(w1, w2);
    let bd = decompose_split(session, &p)?;
    let payoff = (bd.utility(&p, v1), bd.utility(&p, v2));
    Some((bd, payoff))
}

/// Decompose a split graph through `session`; `None` at a degenerate
/// boundary split, where the decomposition is undefined.
pub(crate) fn decompose_split(
    session: &mut DecompositionSession,
    g: &Graph,
) -> Option<BottleneckDecomposition> {
    match session.decompose(g) {
        Ok(bd) => Some(bd),
        Err(BdError::ZeroAlpha { .. } | BdError::ZeroWeightResidue { .. }) => None,
        Err(e) => panic!("unexpected decomposition failure: {e}"),
    }
}
