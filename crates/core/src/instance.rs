//! A weighted ring with the paper's full analysis surface.

use crate::error::Error;
use prs_bd::{allocate, decompose, AgentClass, Allocation, BottleneckDecomposition};
use prs_deviation::{classify_prop11, MisreportFamily, Prop11Case};
use prs_dynamics::{run_until_close, ConvergenceReport};
use prs_graph::{builders, Graph, VertexId};
use prs_numeric::Rational;
use prs_p2psim::SoaSwarm;
use prs_sybil::{attack::AttackConfig, cases::InitialPathReport, SybilContext, SybilOutcome};

/// One ring-shaped resource sharing instance, with cached decomposition.
///
/// All analyses are exact unless stated otherwise; see the component crates
/// for the knobs.
#[derive(Clone)]
pub struct RingInstance {
    graph: Graph,
    bd: BottleneckDecomposition,
}

impl std::fmt::Debug for RingInstance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingInstance")
            .field("weights", &self.graph.weights())
            .field("pairs", &self.bd.k())
            .finish()
    }
}

impl RingInstance {
    /// Build from explicit rational weights (`n ≥ 3`). Weights must be
    /// strictly positive for the decomposition to exist on a ring; a zero
    /// or negative weight is rejected here rather than panicking deep in
    /// the attack sweep.
    pub fn new(weights: Vec<Rational>) -> Result<Self, Error> {
        if let Some(vertex) = weights.iter().position(|w| !w.is_positive()) {
            return Err(prs_graph::GraphError::NonPositiveWeight { vertex }.into());
        }
        let graph = builders::ring(weights)?;
        let bd = decompose(&graph)?;
        Ok(RingInstance { graph, bd })
    }

    /// Build from integer weights.
    pub fn from_integers(weights: &[i64]) -> Result<Self, Error> {
        Self::new(weights.iter().map(|&w| Rational::from_integer(w)).collect())
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of agents.
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// The bottleneck decomposition (Definition 2).
    pub fn decomposition(&self) -> &BottleneckDecomposition {
        &self.bd
    }

    /// The class of agent `v` (Definition 4).
    pub fn class_of(&self, v: VertexId) -> AgentClass {
        self.bd.class_of(v)
    }

    /// The BD allocation (Definition 5).
    pub fn allocation(&self) -> Allocation {
        allocate(&self.graph, &self.bd)
    }

    /// Equilibrium utilities (Proposition 6).
    pub fn equilibrium_utilities(&self) -> Vec<Rational> {
        self.bd.utilities(&self.graph)
    }

    /// Equilibrium utility of one agent.
    pub fn equilibrium_utility(&self, v: VertexId) -> Rational {
        self.bd.utility(&self.graph, v)
    }

    /// Run the proportional response protocol from the Definition 1 initial
    /// condition until it is `eps`-close to the Proposition 6 utilities.
    pub fn run_dynamics(&self, eps: f64, max_rounds: usize) -> ConvergenceReport {
        let target: Vec<f64> = self
            .equilibrium_utilities()
            .iter()
            .map(|u| u.to_f64())
            .collect();
        run_until_close(&mut SoaSwarm::new(&self.graph), &target, eps, max_rounds)
    }

    /// Agent `v`'s Sybil context, built from the cached decomposition.
    fn sybil_context(&self, v: VertexId) -> SybilContext {
        SybilContext::new(&self.graph, &self.bd, &self.allocation(), v)
    }

    /// The honest Sybil split `(w₁⁰, w₂⁰)` of agent `v` (Lemma 9 baseline).
    pub fn honest_split(&self, v: VertexId) -> (Rational, Rational) {
        self.sybil_context(v).honest_split().clone()
    }

    /// Optimize a Sybil attack for agent `v` (Definition 7) and report its
    /// incentive ratio `ζ_v` (a certified lower bound; ≤ 2 by Theorem 8).
    pub fn sybil_attack(&self, v: VertexId, cfg: &AttackConfig) -> SybilOutcome {
        self.sybil_context(v).best_sybil_split(cfg)
    }

    /// Lemma 14 / Lemma 20 classification of agent `v`'s initial split path.
    pub fn initial_path_case(&self, v: VertexId) -> InitialPathReport {
        self.sybil_context(v)
            .classify_initial_path()
            // prs-lint: allow(panic, reason = "Lemmas 14 and 20 are theorems: every initial path fits a published case, and a witness to the contrary is a counterexample worth aborting on")
            .expect("Lemmas 14/20: every initial path fits a published case")
    }

    /// Proposition 11 classification of agent `v`'s misreport α-curve.
    pub fn misreport_case(&self, v: VertexId, refine_bits: u32) -> Prop11Case {
        let fam = MisreportFamily::new(self.graph.clone(), v);
        classify_prop11(&fam, refine_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prs_numeric::{int, ratio};

    #[test]
    fn construction_and_basics() {
        let r = RingInstance::from_integers(&[5, 1, 4, 2]).unwrap();
        assert_eq!(r.n(), 4);
        assert!(r.graph().is_ring());
        let total: Rational = r.equilibrium_utilities().iter().sum();
        assert_eq!(total, r.graph().total_weight());
    }

    #[test]
    fn too_small_ring_rejected() {
        assert!(RingInstance::from_integers(&[1, 2]).is_err());
    }

    #[test]
    fn allocation_utilities_match_prop6() {
        let r = RingInstance::from_integers(&[3, 1, 4, 1, 5]).unwrap();
        let alloc = r.allocation();
        for v in 0..r.n() {
            assert_eq!(alloc.utility(v), r.equilibrium_utility(v));
        }
    }

    #[test]
    fn dynamics_reach_equilibrium() {
        let r = RingInstance::from_integers(&[2, 7, 1, 8]).unwrap();
        let rep = r.run_dynamics(1e-8, 100_000);
        assert!(rep.converged, "{rep:?}");
    }

    #[test]
    fn sybil_ratio_within_theorem8() {
        let r = RingInstance::from_integers(&[4, 1, 2, 8, 1]).unwrap();
        for v in 0..r.n() {
            let out = r.sybil_attack(
                v,
                &AttackConfig::new()
                    .with_grid(16)
                    .with_zoom_levels(3)
                    .with_keep(2),
            );
            assert!(out.ratio >= Rational::one());
            assert!(out.ratio <= int(2));
        }
    }

    #[test]
    fn rational_weights_work_end_to_end() {
        let r =
            RingInstance::new(vec![ratio(1, 2), ratio(3, 4), ratio(5, 6), ratio(7, 8)]).unwrap();
        let (w1, w2) = r.honest_split(2);
        assert_eq!(&w1 + &w2, ratio(5, 6));
    }
}
