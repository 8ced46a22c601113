//! Agent identifiers and the strategies an agent can play.

/// Agent identifier within a swarm.
pub type AgentId = usize;

/// How an agent plays the protocol.
#[derive(Clone, Debug, PartialEq)]
pub enum Strategy {
    /// Follow the proportional response protocol faithfully.
    Honest,
    /// Sybil attack (Definition 7 on a ring): present one fictitious
    /// identity per neighbor, with the agent's capacity split `w₁ + w₂`
    /// between them. Identity 1 faces the lower-numbered peer slot.
    ///
    /// Each identity has a single neighbor, so proportional response makes
    /// it upload its whole sub-capacity to that neighbor every round — the
    /// protocol-level realization of the split path `P_v(w₁, w₂)`.
    Sybil {
        /// Capacity assigned to the identity facing peer slot 0.
        w1: f64,
        /// Capacity assigned to the identity facing peer slot 1.
        w2: f64,
    },
    /// Capacity misreporting (the deviation of Cheng et al. [7] behind
    /// Theorem 10): play the protocol faithfully but pretend to own
    /// `reported ≤ w_v` upload capacity, hoarding the rest. Theorem 10 says
    /// this can never raise the agent's download — verified at protocol
    /// level by the E13 suite.
    Misreport {
        /// The pretended capacity, `0 ≤ reported ≤ w_v`.
        reported: f64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SoaSwarm;
    use prs_graph::builders;
    use prs_numeric::int;

    #[test]
    fn zero_receipts_fall_back_to_the_even_split() {
        // Agent 0's peers own nothing, so it receives nothing and splits
        // its capacity evenly every round.
        let g = builders::ring(vec![int(4), int(0), int(5), int(0)]).unwrap();
        let mut swarm = SoaSwarm::new(&g);
        for _ in 0..3 {
            swarm.step();
            assert_eq!(swarm.outgoing_of(0), &[2.0, 2.0]);
        }
    }

    #[test]
    #[should_panic(expected = "degree 2")]
    fn sybil_needs_two_peers() {
        let g = builders::path(vec![int(5), int(1)]).unwrap();
        SoaSwarm::with_strategies(&g, |v| {
            if v == 0 {
                Strategy::Sybil { w1: 2.0, w2: 3.0 }
            } else {
                Strategy::Honest
            }
        });
    }

    #[test]
    #[should_panic(expected = "reported capacity")]
    fn misreport_cannot_exceed_capacity() {
        let g = builders::ring(vec![int(2), int(1), int(4)]).unwrap();
        SoaSwarm::with_strategies(&g, |v| {
            if v == 0 {
                Strategy::Misreport { reported: 3.0 }
            } else {
                Strategy::Honest
            }
        });
    }
}
