//! Swarm-level metrics: fairness indices and attack-impact summaries.
//!
//! The incentive literature behind the paper ([10], [12]–[14]) evaluates
//! P2P sharing protocols by how fairly download tracks contribution and by
//! how much strategic agents can skew it. These helpers quantify both for
//! simulated swarms.

use crate::swarm::SwarmMetrics;

/// Jain's fairness index of the per-agent download/upload ratios:
/// `(Σ r_v)² / (n · Σ r_v²)` over agents with positive capacity.
/// 1 = perfectly proportional; `1/n` = maximally skewed.
pub fn jain_fairness(metrics: &SwarmMetrics, capacities: &[f64]) -> f64 {
    let ratios: Vec<f64> = metrics
        .utilities
        .iter()
        .zip(capacities)
        .filter(|(_, &w)| w > 0.0)
        .map(|(u, w)| u / w)
        .collect();
    let n = ratios.len() as f64;
    if n == 0.0 {
        return 1.0;
    }
    let sum: f64 = ratios.iter().sum();
    let sum_sq: f64 = ratios.iter().map(|r| r * r).sum();
    if sum_sq == 0.0 {
        return 1.0;
    }
    sum * sum / (n * sum_sq)
}

/// Summary of what one attack did to a swarm, agent by agent.
#[derive(Clone, Debug)]
pub struct AttackImpact {
    /// The attacker's utility gain factor (attacked / honest).
    pub attacker_gain: f64,
    /// Total utility lost by agents who ended up worse off.
    pub collateral_damage: f64,
    /// Total utility gained by agents (other than the attacker) who ended
    /// up better off — an attack shifts allocation, it does not destroy it.
    pub bystander_gain: f64,
    /// Per-agent utility deltas (attacked − honest).
    pub deltas: Vec<f64>,
}

/// Compare an attacked run against the honest baseline.
///
/// Panics if the two runs have different swarm sizes.
pub fn attack_impact(
    honest: &SwarmMetrics,
    attacked: &SwarmMetrics,
    attacker: usize,
) -> AttackImpact {
    assert_eq!(
        honest.utilities.len(),
        attacked.utilities.len(),
        "swarm size mismatch"
    );
    let deltas: Vec<f64> = attacked
        .utilities
        .iter()
        .zip(&honest.utilities)
        .map(|(a, h)| a - h)
        .collect();
    let attacker_gain = if honest.utilities[attacker] > 0.0 {
        attacked.utilities[attacker] / honest.utilities[attacker]
    } else {
        1.0
    };
    let collateral_damage = deltas
        .iter()
        .enumerate()
        .filter(|&(v, &d)| v != attacker && d < 0.0)
        .map(|(_, d)| -d)
        .sum();
    let bystander_gain = deltas
        .iter()
        .enumerate()
        .filter(|&(v, &d)| v != attacker && d > 0.0)
        .map(|(_, d)| d)
        .sum();
    AttackImpact {
        attacker_gain,
        collateral_damage,
        bystander_gain,
        deltas,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::Strategy;
    use crate::soa::SoaSwarm;
    use crate::swarm::SwarmConfig;
    use prs_graph::builders;
    use prs_numeric::int;

    fn run(g: &prs_graph::Graph, attacker: Option<(usize, f64, f64)>) -> SwarmMetrics {
        let mut swarm = match attacker {
            Some((v, w1, w2)) => SoaSwarm::with_strategies(g, |a| {
                if a == v {
                    Strategy::Sybil { w1, w2 }
                } else {
                    Strategy::Honest
                }
            }),
            None => SoaSwarm::new(g),
        };
        swarm.run(&SwarmConfig::default())
    }

    #[test]
    fn uniform_ring_is_perfectly_fair() {
        let g = builders::uniform_ring(6, int(3)).unwrap();
        let m = run(&g, None);
        let fairness = jain_fairness(&m, &g.weights_f64());
        assert!((fairness - 1.0).abs() < 1e-9, "fairness {fairness}");
    }

    #[test]
    fn skewed_ring_is_less_fair() {
        let g = builders::ring(vec![int(1), int(20), int(1), int(20)]).unwrap();
        let m = run(&g, None);
        let fairness = jain_fairness(&m, &g.weights_f64());
        assert!(fairness < 0.95, "expected skew, fairness {fairness}");
        assert!(fairness > 0.25, "Jain index bounded below by 1/n");
    }

    #[test]
    // The attacked run takes about 30 000 rounds, too many for Miri.
    #[cfg_attr(miri, ignore)]
    fn attack_impact_accounts_for_redistribution() {
        let g = builders::ring(vec![int(6), int(1), int(4), int(2), int(5)]).unwrap();
        let honest = run(&g, None);
        // The profitable split found in E13 for this ring: (3.5, 2.5).
        let attacked = run(&g, Some((0, 3.5, 2.5)));
        let impact = attack_impact(&honest, &attacked, 0);
        assert!(impact.attacker_gain > 1.19 && impact.attacker_gain < 1.21);
        // Conservation: total deltas sum to ~0 (resource is only shifted).
        let net: f64 = impact.deltas.iter().sum();
        assert!(net.abs() < 1e-4, "net {net}");
        assert!(impact.collateral_damage > 0.0);
        assert!(impact.bystander_gain > 0.0);
    }

    #[test]
    fn zero_capacity_agents_are_excluded_from_fairness() {
        let g = builders::ring(vec![int(0), int(2), int(2), int(2)]).unwrap();
        let m = run(&g, None);
        let fairness = jain_fairness(&m, &g.weights_f64());
        assert!(fairness.is_finite());
    }
}
