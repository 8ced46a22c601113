//! One-call executable audit of every paper claim on a concrete instance.
//!
//! `audit_paper_claims` runs the full battery; each check is exact unless
//! its component documents otherwise. The experiment harness and the
//! integration tests call this over large instance families — a single
//! failure would be a counterexample to the corresponding published result.

use crate::instance::RingInstance;
use prs_bd::allocate;
use prs_deviation::{sweep, MisreportFamily, SweepConfig};
use prs_numeric::Rational;
use prs_sybil::attack::AttackConfig;
use prs_sybil::SybilContext;

/// Which paper claims held on an instance (field per claim).
#[derive(Clone, Debug)]
pub struct PaperAudit {
    /// Proposition 3: decomposition invariants.
    pub prop3: bool,
    /// Proposition 6 / Definition 5: allocation feasibility + utilities.
    pub prop6: bool,
    /// Lemma 9: honest split is payoff-neutral (every agent).
    pub lemma9: bool,
    /// Theorem 10: misreport utility monotone (every agent, at the sweep's
    /// samples).
    pub theorem10: bool,
    /// Proposition 11: α_v(x) monotone per class segment (every agent, at
    /// the sweep's samples).
    pub prop11: bool,
    /// Lemmas 14/20: every initial path fits a published case.
    pub cases: bool,
    /// Stage lemmas 16/18/22/24 along optimal trajectories.
    pub stages: bool,
    /// Theorem 8 upper bound: ζ_v ≤ 2 for every agent.
    pub theorem8: bool,
    /// Largest incentive ratio observed.
    pub max_ratio: Rational,
}

impl PaperAudit {
    /// True iff every audited claim held.
    pub fn all_hold(&self) -> bool {
        self.prop3
            && self.prop6
            && self.lemma9
            && self.theorem10
            && self.prop11
            && self.cases
            && self.stages
            && self.theorem8
    }
}

/// Audit every claim on `ring`. `attack_cfg` controls the Sybil optimizer;
/// `sweep_grid` the misreport sampling density.
pub fn audit_paper_claims(
    ring: &RingInstance,
    attack_cfg: &AttackConfig,
    sweep_grid: usize,
) -> PaperAudit {
    let g = ring.graph();
    let n = ring.n();

    // Prop 3.
    let prop3 = ring.decomposition().check_proposition3(g).is_ok();

    // Prop 6: allocation budget balance + utility formula.
    let alloc = allocate(g, ring.decomposition());
    let prop6 = alloc.check_budget_balance(g).is_ok()
        && (0..n).all(|v| alloc.utility(v) == ring.equilibrium_utility(v));

    // One pass over the agents: the misreport sweeps (Theorem 10, Prop. 11),
    // then Lemma 9, Lemmas 14/20, the attack (most of the time) and the stage
    // audit on one Sybil context from the cached decomposition and `alloc`.
    let mut lemma9 = true;
    let mut theorem10 = true;
    let mut prop11 = true;
    let mut cases = true;
    let mut stages = true;
    let mut theorem8 = true;
    let mut max_ratio = Rational::zero();
    let two = Rational::from_integer(2);
    for v in 0..n {
        let fam = MisreportFamily::new(g.clone(), v);
        let res = sweep(
            &fam,
            &SweepConfig::new()
                .with_grid(sweep_grid)
                .with_refine_bits(16),
        );
        let rep = prs_deviation::check_theorem10_monotonicity(&fam, &res);
        theorem10 &= rep.monotone;
        let series: Vec<_> = res
            .samples
            .iter()
            .filter(|s| s.x.is_positive())
            .map(|s| (s.x.clone(), s.alpha.clone(), s.class))
            .collect();
        prop11 &= prs_deviation::prop11::check_prop11_monotonicity(&series).is_ok();

        let mut ctx = SybilContext::new(g, ring.decomposition(), &alloc, v);
        let (honest, split) = ctx.lemma9_check();
        lemma9 &= honest == split;
        // A path outside every published case comes back as a witness.
        cases &= ctx.classify_initial_path().is_ok();

        let out = ctx.best_sybil_split(attack_cfg);
        if out.ratio > max_ratio {
            max_ratio = out.ratio.clone();
        }
        theorem8 &= out.ratio <= two;

        let w2_star = g.weight(v) - &out.best.w1;
        if let Some(rep) = ctx.audit_stages(&out.best.w1, &w2_star) {
            stages &= rep.all_hold();
        }
    }

    PaperAudit {
        prop3,
        prop6,
        lemma9,
        theorem10,
        prop11,
        cases,
        stages,
        theorem8,
        max_ratio,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> AttackConfig {
        AttackConfig::new()
            .with_grid(12)
            .with_zoom_levels(2)
            .with_keep(2)
    }

    #[test]
    fn audit_passes_on_handpicked_rings() {
        for weights in [
            vec![1i64, 1, 1],
            vec![5, 1, 4, 2],
            vec![10, 1, 10, 1],
            vec![3, 1, 4, 1, 5],
        ] {
            let ring = RingInstance::from_integers(&weights).unwrap();
            let audit = audit_paper_claims(&ring, &quick_cfg(), 12);
            assert!(audit.all_hold(), "audit failed on {weights:?}: {audit:?}");
        }
    }

    #[test]
    fn max_ratio_bounded() {
        let ring = RingInstance::from_integers(&[8, 1, 2, 1]).unwrap();
        let audit = audit_paper_claims(&ring, &quick_cfg(), 8);
        assert!(audit.max_ratio >= Rational::one());
        assert!(audit.max_ratio <= Rational::from_integer(2));
    }
}
