//! Sybil attacks on **general graphs** — the paper's concluding conjecture.
//!
//! Definition 7 in full generality: agent `v` splits into `m ∈ [2, d_v]`
//! fictitious nodes, *partitions its neighbors* among them (each neighbor is
//! attached to exactly one copy), and divides `w_v` among the copies. The
//! paper proves ζ = 2 for rings and conjectures the same bound for general
//! networks; this module provides the machinery to probe that conjecture:
//!
//! * [`split_graph`] — build the post-attack graph for any neighbor
//!   partition and weight division.
//! * [`enumerate_partitions`] — all set partitions of the neighbor set
//!   (Bell-number many; degrees stay small in our experiments).
//! * [`best_general_sybil`] — optimize the attack over partitions and a
//!   weight-simplex grid; every evaluation is exact, so the result is a
//!   certified lower bound on ζ_v and any value above 2 would *refute* the
//!   conjecture.
//!
//! Experiment E14 runs this over trees, stars, complete and random graphs;
//! no violation has been observed (see EXPERIMENTS.md).

// prs-lint: allow-file(panic, reason = "splits of a validated graph are valid by construction, degenerate decompose failures are handled as None, and anything else is a solver bug the search must abort on")

use prs_bd::{decompose, BdError, DecompositionSession};
use prs_graph::{Graph, VertexId};
use prs_numeric::Rational;

/// Build the attack graph: `v` is replaced by `m` copies; copy `j` inherits
/// the neighbors `i` with `partition[i] == j` (indices into `g.neighbors(v)`)
/// and weight `weights[j]`.
///
/// Returns the new graph and the ids of the copies. Copy `0` reuses `v`'s
/// id; copies `1..m` take fresh ids `n, n+1, …`.
pub fn split_graph(
    g: &Graph,
    v: VertexId,
    partition: &[usize],
    weights: &[Rational],
) -> (Graph, Vec<VertexId>) {
    let nbrs = g.neighbors(v);
    let m = weights.len();
    assert_eq!(partition.len(), nbrs.len(), "one group per neighbor");
    assert!(m >= 1, "at least one copy");
    assert!(
        partition.iter().all(|&p| p < m),
        "partition indices must address a copy"
    );
    let n = g.n();
    let copy_ids: Vec<VertexId> = (0..m).map(|j| if j == 0 { v } else { n + j - 1 }).collect();

    let mut new_weights: Vec<Rational> = g.weights().to_vec();
    new_weights[v] = weights[0].clone();
    for w in weights.iter().skip(1) {
        new_weights.push(w.clone());
    }

    let mut edges: Vec<(VertexId, VertexId)> = g
        .edges()
        .iter()
        .copied()
        .filter(|&(a, b)| a != v && b != v)
        .collect();
    for (i, &u) in nbrs.iter().enumerate() {
        edges.push((copy_ids[partition[i]], u));
    }
    let graph = Graph::new(new_weights, &edges).expect("split of a valid graph is valid");
    (graph, copy_ids)
}

/// All set partitions of `{0, …, k-1}` into at most `max_groups` nonempty
/// groups, in restricted-growth-string form (entry `i` = group of item `i`).
/// The trivial one-group partition is included (it reproduces `g` exactly).
pub fn enumerate_partitions(k: usize, max_groups: usize) -> Vec<Vec<usize>> {
    assert!(k <= 12, "Bell(k) explodes past 12 items");
    let mut out = Vec::new();
    let mut current = vec![0usize; k];
    fn rec(
        i: usize,
        used: usize,
        current: &mut Vec<usize>,
        max_groups: usize,
        out: &mut Vec<Vec<usize>>,
    ) {
        if i == current.len() {
            out.push(current.clone());
            return;
        }
        for grp in 0..=used.min(max_groups - 1) {
            current[i] = grp;
            let new_used = used.max(grp + 1);
            rec(i + 1, new_used, current, max_groups, out);
        }
    }
    if k == 0 {
        return vec![vec![]];
    }
    rec(0, 0, &mut current, max_groups.max(1), &mut out);
    out
}

/// Total payoff of one concrete general Sybil attack (sum of the copies'
/// utilities under the BD allocation of the split graph). `None` when the
/// split graph is undecomposable (degenerate weight placement).
pub fn attack_payoff(
    g: &Graph,
    v: VertexId,
    partition: &[usize],
    weights: &[Rational],
) -> Option<Rational> {
    attack_payoff_in(
        g,
        v,
        partition,
        weights,
        &mut DecompositionSession::detached(),
    )
}

/// [`attack_payoff`] through a caller-owned [`DecompositionSession`] — the
/// simplex-grid search's hot path (weight placements on one partition share
/// decomposition shapes).
pub fn attack_payoff_in(
    g: &Graph,
    v: VertexId,
    partition: &[usize],
    weights: &[Rational],
    session: &mut DecompositionSession,
) -> Option<Rational> {
    let (split, copies) = split_graph(g, v, partition, weights);
    match session.decompose(&split) {
        Ok(bd) => Some(copies.iter().map(|&c| bd.utility(&split, c)).sum()),
        Err(BdError::ZeroAlpha { .. }) | Err(BdError::ZeroWeightResidue { .. }) => None,
        Err(e) => panic!("unexpected decomposition failure: {e}"),
    }
}

/// Configuration for the general-graph attack search.
///
/// Construct via [`GeneralAttackConfig::new`] + `with_*` builders; the
/// struct is `#[non_exhaustive]` so new knobs land without breaking callers.
#[non_exhaustive]
#[derive(Clone, Debug)]
pub struct GeneralAttackConfig {
    /// Weight-simplex granularity: weights are multiples of `w_v / grid`.
    pub grid: usize,
    /// Cap on the number of copies `m` (≤ d_v is enforced separately).
    pub max_copies: usize,
}

impl GeneralAttackConfig {
    /// The default search: 12-cell simplex grid, at most 3 copies.
    pub fn new() -> Self {
        GeneralAttackConfig {
            grid: 12,
            max_copies: 3,
        }
    }

    /// Set the weight-simplex granularity.
    pub fn with_grid(mut self, grid: usize) -> Self {
        self.grid = grid;
        self
    }

    /// Set the cap on the number of copies.
    pub fn with_max_copies(mut self, m: usize) -> Self {
        self.max_copies = m;
        self
    }
}

impl Default for GeneralAttackConfig {
    fn default() -> Self {
        GeneralAttackConfig::new()
    }
}

/// Outcome of the general attack search.
#[derive(Clone, Debug)]
pub struct GeneralSybilOutcome {
    /// `U_v` under honesty.
    pub honest_utility: Rational,
    /// Best attack payoff found.
    pub best_payoff: Rational,
    /// Certified lower bound on ζ_v.
    pub ratio: Rational,
    /// Best neighbor partition (group index per neighbor).
    pub best_partition: Vec<usize>,
    /// Best per-copy weights.
    pub best_weights: Vec<Rational>,
    /// Exact decompositions performed.
    pub evaluations: usize,
}

/// All compositions of `grid` into `m` non-negative parts.
fn compositions(grid: usize, m: usize) -> Vec<Vec<usize>> {
    fn rec(remaining: usize, slots: usize, current: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if slots == 1 {
            current.push(remaining);
            out.push(current.clone());
            current.pop();
            return;
        }
        for take in 0..=remaining {
            current.push(take);
            rec(remaining - take, slots - 1, current, out);
            current.pop();
        }
    }
    let mut out = Vec::new();
    rec(grid, m, &mut Vec::new(), &mut out);
    out
}

/// Search the best Sybil attack for `v` on an arbitrary graph: all neighbor
/// partitions into `2..=min(d_v, max_copies)` groups × a weight-simplex
/// grid. Exact at every sample.
pub fn best_general_sybil(
    g: &Graph,
    v: VertexId,
    cfg: &GeneralAttackConfig,
) -> GeneralSybilOutcome {
    let bd = decompose(g).expect("graph decomposes");
    let honest = bd.utility(g, v);
    let d = g.degree(v);
    assert!(d >= 1, "isolated agents cannot share");
    let w_v = g.weight(v).clone();
    let unit = &w_v / &Rational::from_integer(cfg.grid as i64);

    let mut best_payoff = honest.clone(); // doing nothing is always available
    let mut best_partition: Vec<usize> = vec![0; d];
    let mut best_weights: Vec<Rational> = vec![w_v.clone()];
    let mut evals = 0usize;
    // One session for the whole search: weight placements within (and often
    // across) partitions revisit the same decomposition shapes.
    let mut session = DecompositionSession::detached();

    let max_m = d.min(cfg.max_copies).max(1);
    for partition in enumerate_partitions(d, max_m) {
        let m = partition.iter().max().map_or(1, |&g| g + 1);
        if m < 2 {
            continue; // the trivial partition is the honest baseline
        }
        for comp in compositions(cfg.grid, m) {
            let weights: Vec<Rational> = comp
                .iter()
                .map(|&k| &unit * &Rational::from_integer(k as i64))
                .collect();
            evals += 1;
            if let Some(payoff) = attack_payoff_in(g, v, &partition, &weights, &mut session) {
                if payoff > best_payoff {
                    best_payoff = payoff;
                    best_partition = partition.clone();
                    best_weights = weights;
                }
            }
        }
    }

    let ratio = if honest.is_positive() {
        &best_payoff / &honest
    } else {
        Rational::one()
    };
    GeneralSybilOutcome {
        honest_utility: honest,
        best_payoff,
        ratio,
        best_partition,
        best_weights,
        evaluations: evals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prs_graph::{builders, random};
    use prs_numeric::{int, ratio, Rational};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn partition_counts_are_bell_numbers() {
        // Bell numbers 1, 1, 2, 5, 15 for k = 0..4 (unbounded groups).
        assert_eq!(enumerate_partitions(0, 9).len(), 1);
        assert_eq!(enumerate_partitions(1, 9).len(), 1);
        assert_eq!(enumerate_partitions(2, 9).len(), 2);
        assert_eq!(enumerate_partitions(3, 9).len(), 5);
        assert_eq!(enumerate_partitions(4, 9).len(), 15);
        // Capped at 2 groups: Stirling sums 2^(k-1).
        assert_eq!(enumerate_partitions(4, 2).len(), 8);
    }

    #[test]
    fn split_graph_on_ring_matches_path_construction() {
        // Splitting a ring agent into 2 copies with the {succ}/{pred}
        // partition must reproduce the split-path instance.
        let g = builders::ring(vec![int(4), int(2), int(3), int(5)]).unwrap();
        let v = 0;
        let (w1, w2) = (ratio(3, 2), ratio(5, 2));
        // neighbors(0) = [1, 3]: copy 0 gets neighbor 1, copy 1 gets 3.
        let (split, copies) = split_graph(&g, v, &[0, 1], &[w1.clone(), w2.clone()]);
        let bd_split = decompose(&split).unwrap();
        let total: Rational = copies.iter().map(|&c| bd_split.utility(&split, c)).sum();

        let (path, p1, p2) = builders::sybil_split_path(&g, v, w1, w2).unwrap();
        let bd_path = decompose(&path).unwrap();
        let want = &bd_path.utility(&path, p1) + &bd_path.utility(&path, p2);
        assert_eq!(total, want);
    }

    #[test]
    fn trivial_partition_reproduces_original_utilities() {
        let g = builders::ring(vec![int(4), int(2), int(3)]).unwrap();
        let payoff = attack_payoff(&g, 1, &[0, 0], &[int(2)]).unwrap();
        let bd = decompose(&g).unwrap();
        assert_eq!(payoff, bd.utility(&g, 1));
    }

    #[test]
    fn general_search_on_ring_respects_theorem8() {
        let mut rng = StdRng::seed_from_u64(64);
        for _ in 0..4 {
            let g = random::random_ring(&mut rng, 5, 1, 10);
            for v in 0..2 {
                let out = best_general_sybil(
                    &g,
                    v,
                    &GeneralAttackConfig::new().with_grid(10).with_max_copies(2),
                );
                assert!(out.ratio >= Rational::one());
                assert!(
                    out.ratio <= int(2),
                    "ζ = {} on {:?}",
                    out.ratio,
                    g.weights()
                );
            }
        }
    }

    #[test]
    fn conjecture_holds_on_small_stars_and_complete_graphs() {
        // The paper's conjecture: ζ ≤ 2 on general networks. Certified
        // lower bounds must stay below 2 on these families.
        let star = builders::star(vec![int(4), int(1), int(2), int(3)]).unwrap();
        let out = best_general_sybil(
            &star,
            0,
            &GeneralAttackConfig::new().with_grid(8).with_max_copies(3),
        );
        assert!(out.ratio <= int(2), "star: ζ = {}", out.ratio);

        let k4 = builders::complete(vec![int(3), int(1), int(2), int(5)]).unwrap();
        for v in 0..4 {
            let out = best_general_sybil(
                &k4,
                v,
                &GeneralAttackConfig::new().with_grid(6).with_max_copies(3),
            );
            assert!(out.ratio <= int(2), "K4 v={v}: ζ = {}", out.ratio);
        }
    }

    #[test]
    fn complete_network_is_truthful_for_sybil() {
        // On complete graphs the literature proves a *smaller* ratio; in
        // particular splitting should rarely pay at all on symmetric K_n.
        let kn = builders::complete(vec![int(2); 5]).unwrap();
        for v in 0..5 {
            let out = best_general_sybil(
                &kn,
                v,
                &GeneralAttackConfig::new().with_grid(6).with_max_copies(2),
            );
            assert_eq!(out.ratio, Rational::one(), "symmetric K5 admits no gain");
        }
    }

    #[test]
    fn compositions_cover_the_simplex() {
        let comps = compositions(4, 2);
        assert_eq!(comps.len(), 5); // (0,4) (1,3) (2,2) (3,1) (4,0)
        assert!(comps.iter().all(|c| c.iter().sum::<usize>() == 4));
        assert_eq!(compositions(3, 3).len(), 10); // C(5,2)
    }
}
