//! Seeded input generation. Every workload input is a pure function of the
//! `--seed` argument: the same seed gives byte-identical inputs.

use prs_core::bd::{decompose, Delta};
use prs_core::graph::Graph;
use prs_core::numeric::Rational;
use prs_core::p2psim::MembershipEvent;
use std::collections::BTreeSet;

/// SplitMix64: small, fast and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    /// A generator for one workload's stream; `salt` keeps the workloads'
    /// streams apart under the same seed.
    pub fn new(seed: u64, salt: u64) -> Self {
        Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn int(&mut self, lo: u32, hi: u32) -> u32 {
        lo + self.below((hi - lo + 1) as usize) as u32
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Render a ring as an instance file (`prs_core::parse` format).
pub fn ring_text(weights: &[u32]) -> String {
    let mut s = String::with_capacity(weights.len() * 3 + 16);
    s.push_str("ring\nweights:");
    for w in weights {
        s.push(' ');
        s.push_str(&w.to_string());
    }
    s.push('\n');
    s
}

fn random_weights(rng: &mut Rng, n: usize) -> Vec<u32> {
    (0..n).map(|_| rng.int(1, 50)).collect()
}

// ---------------------------------------------------------------------------
// audit
// ---------------------------------------------------------------------------

/// `(ring size, count)` of the seeded part of the audit batch. One ring's
/// audit cost varies by about 15% with its weights and grows roughly with
/// n², so many small rings keep the batch's cost from hinging on a few
/// rings' bottleneck structure.
pub const AUDIT_RINGS: [(usize, usize); 3] = [(8, 16), (12, 2), (16, 1)];

/// One audit-batch entry: a label and its instance file text.
pub struct AuditInstance {
    pub label: String,
    pub text: String,
}

/// The audit batch: seeded rings with weights 1..=50, then the two shipped
/// instances.
pub fn audit_batch(seed: u64) -> Vec<AuditInstance> {
    let mut rng = Rng::new(seed, 1);
    let mut batch = Vec::new();
    for (n, count) in AUDIT_RINGS {
        for i in 0..count {
            batch.push(AuditInstance {
                label: format!("ring-n{n}-{i}"),
                text: ring_text(&random_weights(&mut rng, n)),
            });
        }
    }
    for (label, text) in [
        ("five_ring", include_str!("../../instances/five_ring.prs")),
        (
            "lower_bound_k6",
            include_str!("../../instances/lower_bound_k6.prs"),
        ),
    ] {
        batch.push(AuditInstance {
            label: label.to_string(),
            text: text.to_string(),
        });
    }
    batch
}

// ---------------------------------------------------------------------------
// churn
// ---------------------------------------------------------------------------

pub const CHURN_N: usize = 32;
/// Bottleneck pairs of the churn ring's decomposition. The seed draws rings
/// until one has this many (the median over seeds 1–20), so every seed's
/// session starts from a decomposition of one size: with any pair count,
/// the set-up's cold decomposition took from 1.8 ms (4 pairs) to 3.5 ms
/// (11 pairs) depending on the seed.
pub const CHURN_PAIRS: usize = 7;
pub const CHURN_EVENTS: usize = 3000;
/// The session is compared with a cold decomposition after every this many
/// events, and after the last one.
pub const CHURN_CHECK_EVERY: usize = 500;
const CHURN_CHORDS: usize = 6;

pub struct ChurnInput {
    /// The starting ring as an instance file.
    pub ring_text: String,
    pub script: Vec<Delta>,
    /// `(events applied, mirrored graph at that point)`.
    pub checkpoints: Vec<(usize, Graph)>,
}

/// Mirror `delta` onto `g` with the session's semantics: batches apply in
/// order, and adding a present edge or removing an absent one is a no-op.
pub fn mirror(g: &mut Graph, delta: &Delta) {
    match delta {
        Delta::SetWeight { v, w } => g
            .try_set_weight(*v, w.clone())
            .expect("generated weights are positive"),
        Delta::AddEdge { u, v } => {
            if !g.has_edge(*u, *v) {
                g.add_edge(*u, *v).expect("generated edges are valid");
            }
        }
        Delta::RemoveEdge { u, v } => {
            if g.has_edge(*u, *v) {
                g.remove_edge(*u, *v).expect("generated edges are valid");
            }
        }
        Delta::Batch(items) => items.iter().for_each(|d| mirror(g, d)),
    }
}

/// A seeded n=32 ring with a 7-pair decomposition and a script of 3000
/// events: half Zipf(1.1) single-weight re-reports, a quarter chord
/// add/remove toggles, and a quarter idempotent edge re-announces and
/// net-no-op batches.
pub fn churn_input(seed: u64) -> ChurnInput {
    let mut rng = Rng::new(seed, 2);
    let n = CHURN_N;
    let (ring_text, mut g) = loop {
        let text = ring_text(&random_weights(&mut rng, n));
        let g = prs_core::parse::parse_instance(&text).expect("generated ring parses");
        if decompose(&g).is_ok_and(|bd| bd.k() == CHURN_PAIRS) {
            break (text, g);
        }
    };

    // Zipf(1.1) popularity over a seeded permutation of the vertices.
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let zipf: Vec<f64> = (0..n).map(|r| 1.0 / ((r + 1) as f64).powf(1.1)).collect();
    let total: f64 = zipf.iter().sum();
    let hot = |rng: &mut Rng| {
        let mut u = rng.unit() * total;
        for (r, z) in zipf.iter().enumerate() {
            if u < *z {
                return order[r];
            }
            u -= z;
        }
        order[n - 1]
    };

    let mut chords = BTreeSet::new();
    while chords.len() < CHURN_CHORDS {
        let (a, b) = (rng.below(n), rng.below(n));
        let (u, v) = (a.min(b), a.max(b));
        if v > u + 1 && !(u == 0 && v == n - 1) {
            chords.insert((u, v));
        }
    }
    let chords: Vec<(usize, usize)> = chords.into_iter().collect();

    let mut script = Vec::with_capacity(CHURN_EVENTS);
    let mut checkpoints = Vec::new();
    for i in 0..CHURN_EVENTS {
        let roll = rng.below(8);
        let delta = match roll {
            0..=3 => Delta::SetWeight {
                v: hot(&mut rng),
                w: Rational::from_integer(i64::from(rng.int(1, 50))),
            },
            4 | 5 => {
                let (u, v) = chords[rng.below(chords.len())];
                if g.has_edge(u, v) {
                    Delta::RemoveEdge { u, v }
                } else {
                    Delta::AddEdge { u, v }
                }
            }
            6 => {
                // A peer re-announcing a link that already exists.
                let u = rng.below(n);
                Delta::AddEdge { u, v: (u + 1) % n }
            }
            _ => {
                if rng.below(2) == 0 {
                    let (u, v) = chords[rng.below(chords.len())];
                    let (first, second) = if g.has_edge(u, v) {
                        (Delta::RemoveEdge { u, v }, Delta::AddEdge { u, v })
                    } else {
                        (Delta::AddEdge { u, v }, Delta::RemoveEdge { u, v })
                    };
                    Delta::Batch(vec![first, second])
                } else {
                    let v = hot(&mut rng);
                    let w = Rational::from_integer(i64::from(rng.int(1, 50)));
                    Delta::Batch(vec![
                        Delta::SetWeight { v, w },
                        Delta::SetWeight {
                            v,
                            w: g.weight(v).clone(),
                        },
                    ])
                }
            }
        };
        mirror(&mut g, &delta);
        script.push(delta);
        if (i + 1) % CHURN_CHECK_EVERY == 0 || i + 1 == CHURN_EVENTS {
            checkpoints.push((i + 1, g.clone()));
        }
    }
    ChurnInput {
        ring_text,
        script,
        checkpoints,
    }
}

/// One churn event as a `prs update` script line.
pub fn delta_jsonl(d: &Delta) -> String {
    match d {
        Delta::SetWeight { v, w } => format!(r#"{{"op":"set_weight","v":{v},"w":"{w}"}}"#),
        Delta::AddEdge { u, v } => format!(r#"{{"op":"add_edge","u":{u},"v":{v}}}"#),
        Delta::RemoveEdge { u, v } => format!(r#"{{"op":"remove_edge","u":{u},"v":{v}}}"#),
        Delta::Batch(items) => {
            let inner: Vec<String> = items.iter().map(delta_jsonl).collect();
            format!(r#"{{"op":"batch","deltas":[{}]}}"#, inner.join(","))
        }
    }
}

// ---------------------------------------------------------------------------
// swarm
// ---------------------------------------------------------------------------

/// 2¹⁴ agents: a round's lanes (about 1.4 MiB) fit in one core's 2 MiB L2.
/// At 10⁶ agents (about 85 MiB of lanes, out in the L3 that a shared host
/// splits among its tenants) the fastest pass of a run moved by up to 60%
/// from run to run with the neighbours' memory traffic.
pub const SWARM_AGENTS: usize = 16_384;
/// `step()` rounds run in set-up, before the timed loop.
pub const SWARM_WARMUP: usize = 4;
/// Rounds of the first half: `step()`, with membership events before some.
pub const SWARM_STEP_ROUNDS: usize = 1_200;
/// Rounds of the second half: one `run()` call with tolerance 0.
pub const SWARM_RUN_ROUNDS: usize = 1_200;
pub const SWARM_EVENTS_PER_ROUND: usize = 2;
/// Events come before every this many first-half rounds: the script's
/// targets must stay apart (below), and 2¹⁴ positions hold a few hundred.
pub const SWARM_EVENT_EVERY: usize = 8;
/// Event targets sit at least this many ring positions from every other
/// target, so no event can invalidate another: each leave, rewire and join
/// touches a neighbourhood of its own.
const SWARM_SPACING: usize = 8;

pub struct SwarmInput {
    pub weights: Vec<u32>,
    /// `SWARM_EVENTS_PER_ROUND` events per event round, in order.
    pub events: Vec<MembershipEvent>,
    /// Live agents after every event has applied.
    pub expected_live: usize,
}

impl SwarmInput {
    /// The events applied before first-half round `round`.
    pub fn events_before(&self, round: usize) -> &[MembershipEvent] {
        if !round.is_multiple_of(SWARM_EVENT_EVERY) {
            return &[];
        }
        let at = round / SWARM_EVENT_EVERY * SWARM_EVENTS_PER_ROUND;
        self.events
            .get(at..at + SWARM_EVENTS_PER_ROUND)
            .unwrap_or(&[])
    }
}

/// 2¹⁴ seeded weights in 1..=50 and a valid membership script: join 40%
/// (two adjacent live peers), leave 40%, rewire 20%.
pub fn swarm_input(seed: u64) -> SwarmInput {
    let mut rng = Rng::new(seed, 3);
    let n = SWARM_AGENTS;
    let weights = random_weights(&mut rng, n);
    let mut used: BTreeSet<usize> = BTreeSet::new();
    let mut free_spot = |rng: &mut Rng| loop {
        let p = rng.below(n - SWARM_SPACING) + SWARM_SPACING / 2;
        let clear = used
            .range(p.saturating_sub(SWARM_SPACING)..=p + SWARM_SPACING)
            .next()
            .is_none();
        if clear {
            used.insert(p);
            return p;
        }
    };
    let count = SWARM_STEP_ROUNDS.div_ceil(SWARM_EVENT_EVERY) * SWARM_EVENTS_PER_ROUND;
    let mut events = Vec::with_capacity(count);
    let mut live = n;
    for _ in 0..count {
        let p = free_spot(&mut rng);
        let roll = rng.below(5);
        events.push(match roll {
            0 | 1 => {
                live += 1;
                MembershipEvent::Join {
                    capacity: f64::from(rng.int(1, 50)),
                    peers: vec![p, p + 1],
                }
            }
            2 | 3 => {
                live -= 1;
                MembershipEvent::Leave { agent: p }
            }
            _ => MembershipEvent::Rewire { agent: p },
        });
    }
    SwarmInput {
        weights,
        events,
        expected_live: live,
    }
}

/// One membership event as a `prs swarm --churn` script line.
pub fn membership_jsonl(e: &MembershipEvent, round: usize) -> String {
    match e {
        MembershipEvent::Join { capacity, peers } => {
            let peers: Vec<String> = peers.iter().map(usize::to_string).collect();
            format!(
                r#"{{"op":"join","capacity":{capacity},"peers":[{}],"round":{round}}}"#,
                peers.join(",")
            )
        }
        MembershipEvent::Leave { agent } => {
            format!(r#"{{"op":"leave","agent":{agent},"round":{round}}}"#)
        }
        MembershipEvent::Rewire { agent } => {
            format!(r#"{{"op":"rewire","agent":{agent},"round":{round}}}"#)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        assert_eq!(churn_input(7).script, churn_input(7).script);
        assert_ne!(churn_input(7).script, churn_input(8).script);
        let (a, b) = (audit_batch(3), audit_batch(3));
        assert!(a.iter().zip(&b).all(|(x, y)| x.text == y.text));
    }

    #[test]
    fn churn_checkpoints_end_at_the_last_event() {
        let input = churn_input(1);
        let ring = prs_core::parse::parse_instance(&input.ring_text).unwrap();
        assert_eq!(decompose(&ring).unwrap().k(), CHURN_PAIRS);
        assert_eq!(input.script.len(), CHURN_EVENTS);
        assert_eq!(input.checkpoints.last().map(|c| c.0), Some(CHURN_EVENTS));
    }

    #[test]
    fn swarm_events_come_before_every_eighth_round() {
        let input = swarm_input(5);
        let applied: usize = (0..SWARM_STEP_ROUNDS)
            .map(|r| input.events_before(r).len())
            .sum();
        assert_eq!(applied, input.events.len());
        assert_eq!(input.events_before(0).len(), SWARM_EVENTS_PER_ROUND);
        assert_eq!(input.events_before(SWARM_EVENT_EVERY), &input.events[2..4]);
        assert!(input.events_before(1).is_empty());
    }

    #[test]
    fn jsonl_lines_use_the_cli_grammar() {
        let d = Delta::Batch(vec![
            Delta::SetWeight {
                v: 2,
                w: Rational::from_integer(7),
            },
            Delta::RemoveEdge { u: 1, v: 5 },
        ]);
        assert_eq!(
            delta_jsonl(&d),
            r#"{"op":"batch","deltas":[{"op":"set_weight","v":2,"w":"7"},{"op":"remove_edge","u":1,"v":5}]}"#
        );
        let j = MembershipEvent::Join {
            capacity: 12.0,
            peers: vec![4, 5],
        };
        assert_eq!(
            membership_jsonl(&j, 9),
            r#"{"op":"join","capacity":12,"peers":[4,5],"round":9}"#
        );
    }
}
