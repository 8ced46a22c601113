//! Dynamic membership for the SoA swarm: join, leave, and rewire between
//! rounds, with free-list slot recycling and incremental CSR patching.
//!
//! Events are validated up front and applied atomically — a rejected event
//! leaves the swarm untouched. Joining agents start cold (even-split
//! upload, zero receipts), exactly like a freshly constructed honest
//! agent, so a churned swarm replays bit-identically against a
//! from-scratch reference (see `tests/swarm_soa_equivalence.rs`).
//!
//! The default [`SoaSwarm::reciprocity_rewire`] policy follows Tsoukatos's
//! reciprocity-driven exchange networks: an agent drops the neighbor that
//! reciprocated least last round and reconnects to the two-hop candidate
//! offering the best marginal share of its capacity.

use crate::agent::AgentId;
use crate::soa::SoaSwarm;
use prs_trace::Counter;

/// Span name under the `p2psim` layer (see `span_const_layers`).
const PSPAN_MEMBERSHIP: &str = "membership_apply";

static JOINS: Counter = Counter::new("p2psim.joins");
static LEAVES: Counter = Counter::new("p2psim.leaves");
static REWIRES: Counter = Counter::new("p2psim.rewires");

/// A between-rounds membership change.
#[derive(Clone, Debug, PartialEq)]
pub enum MembershipEvent {
    /// A new agent joins with `capacity`, wired to the given live peers.
    Join {
        /// Upload capacity `w_v` of the newcomer (must be non-negative).
        capacity: f64,
        /// Live agents to connect to (non-empty, no duplicates).
        peers: Vec<AgentId>,
    },
    /// A live agent departs; its slot is recycled.
    Leave {
        /// The departing agent.
        agent: AgentId,
    },
    /// `agent` re-evaluates its neighborhood under the default
    /// reciprocity policy (drop the least-reciprocating neighbor,
    /// reconnect two hops away).
    Rewire {
        /// The agent applying the policy.
        agent: AgentId,
    },
}

/// What applying a [`MembershipEvent`] did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MembershipOutcome {
    /// A join succeeded; the newcomer lives at this slot.
    Joined(AgentId),
    /// A leave succeeded.
    Left,
    /// A rewire dropped one edge and added another.
    Rewired {
        /// Neighbor dropped (least reciprocating).
        dropped: AgentId,
        /// Two-hop candidate connected instead.
        added: AgentId,
    },
    /// A rewire found no admissible improvement and did nothing.
    NoOp,
}

/// Why a membership event was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MembershipError {
    /// Referenced slot id does not exist.
    UnknownAgent(AgentId),
    /// Referenced slot is not live.
    DeadAgent(AgentId),
    /// A join listed the same peer twice.
    DuplicatePeer(AgentId),
    /// A join listed no peers.
    NoPeers,
    /// Join capacity is negative or non-finite.
    InvalidCapacity,
    /// The event would change the degree of a fixed-split (Sybil) agent,
    /// whose constant lane split is only meaningful at its built degree.
    FixedTopology(AgentId),
    /// A rewire was requested for an isolated agent.
    NoEdges(AgentId),
}

impl std::fmt::Display for MembershipError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MembershipError::UnknownAgent(v) => write!(f, "unknown agent {v}"),
            MembershipError::DeadAgent(v) => write!(f, "agent {v} already left"),
            MembershipError::DuplicatePeer(v) => write!(f, "peer {v} listed twice"),
            MembershipError::NoPeers => write!(f, "a joining agent needs at least one peer"),
            MembershipError::InvalidCapacity => {
                write!(f, "join capacity must be finite and non-negative")
            }
            MembershipError::FixedTopology(v) => {
                write!(f, "agent {v} has a fixed split; its degree cannot change")
            }
            MembershipError::NoEdges(v) => write!(f, "agent {v} has no edges to rewire"),
        }
    }
}

impl std::error::Error for MembershipError {}

impl SoaSwarm {
    /// A live, in-range slot or the matching error.
    fn live_slot(&self, v: AgentId) -> Result<(), MembershipError> {
        if v >= self.n_slots() {
            return Err(MembershipError::UnknownAgent(v));
        }
        if !self.is_alive(v) {
            return Err(MembershipError::DeadAgent(v));
        }
        Ok(())
    }

    /// Apply one membership event between rounds.
    pub fn apply(&mut self, event: &MembershipEvent) -> Result<MembershipOutcome, MembershipError> {
        let mut sp = prs_trace::span("p2psim", PSPAN_MEMBERSHIP);
        sp.attr("event", || {
            match event {
                MembershipEvent::Join { .. } => "join",
                MembershipEvent::Leave { .. } => "leave",
                MembershipEvent::Rewire { .. } => "rewire",
            }
            .to_string()
        });
        match event {
            MembershipEvent::Join { capacity, peers } => {
                self.join(*capacity, peers).map(MembershipOutcome::Joined)
            }
            MembershipEvent::Leave { agent } => {
                self.leave(*agent).map(|()| MembershipOutcome::Left)
            }
            MembershipEvent::Rewire { agent } => self.reciprocity_rewire(*agent),
        }
    }

    /// Add a new agent with the given capacity and peer set. Recycles a
    /// free slot when one exists (the newest departure first), otherwise
    /// appends a fresh slot. The newcomer uploads an even split and has
    /// received nothing yet; all its arcs start cold on both sides.
    pub fn join(&mut self, capacity: f64, peers: &[AgentId]) -> Result<AgentId, MembershipError> {
        if !capacity.is_finite() || capacity < 0.0 {
            return Err(MembershipError::InvalidCapacity);
        }
        if peers.is_empty() {
            return Err(MembershipError::NoPeers);
        }
        for (i, &u) in peers.iter().enumerate() {
            self.live_slot(u)?;
            if self.fixed[u] {
                return Err(MembershipError::FixedTopology(u));
            }
            if peers[..i].contains(&u) {
                return Err(MembershipError::DuplicatePeer(u));
            }
        }
        let v = match self.free.pop() {
            Some(slot) => slot,
            None => {
                let slot = self.topo.add_slot(peers.len(), &mut self.lanes);
                self.capacities.push(0.0);
                self.effective.push(0.0);
                self.fixed.push(false);
                self.alive.push(false);
                self.u_cur.push(0.0);
                self.u_prev.push(0.0);
                self.avg_scratch.push(0.0);
                slot
            }
        };
        for &u in peers {
            // Validated above: distinct live non-fixed peers, v is fresh,
            // so insertion cannot fail.
            let _ = self.topo.insert_edge(v, u, &mut self.lanes);
        }
        let even = capacity / peers.len() as f64;
        for a in self.topo.range(v) {
            self.lanes.outgoing[a] = even;
        }
        self.capacities[v] = capacity;
        self.effective[v] = capacity;
        self.alive[v] = true;
        self.live += 1;
        // Cached utilities must keep matching the (edited) receive lanes.
        self.refresh_utility(v);
        for &u in peers {
            self.refresh_utility(u);
        }
        JOINS.add(1);
        Ok(v)
    }

    /// Remove a live agent: detach every edge, zero its lanes, and push
    /// the slot onto the free list for recycling. The slot id stays
    /// stable — neighbors' ids never shift. Fixed-split *neighbors* block
    /// the leave (their degree would change); a fixed agent may itself
    /// leave, abandoning its attack.
    pub fn leave(&mut self, agent: AgentId) -> Result<(), MembershipError> {
        self.live_slot(agent)?;
        for &u in self.topo.peers(agent) {
            if self.fixed[u] {
                return Err(MembershipError::FixedTopology(u));
            }
        }
        while self.topo.degree(agent) > 0 {
            let u = self.topo.peers(agent)[0];
            // Both endpoints exist and are adjacent: cannot fail.
            let _ = self.topo.remove_edge(agent, u, &mut self.lanes);
            // The ex-peer lost a receipt cell: refresh its cached utility.
            self.refresh_utility(u);
        }
        self.capacities[agent] = 0.0;
        self.effective[agent] = 0.0;
        self.fixed[agent] = false;
        self.u_cur[agent] = 0.0;
        self.u_prev[agent] = 0.0;
        self.avg_scratch[agent] = 0.0;
        self.alive[agent] = false;
        self.live -= 1;
        self.free.push(agent);
        LEAVES.add(1);
        Ok(())
    }

    /// Tsoukatos-style reciprocity rewiring for one agent: drop the
    /// neighbor whose last-round upload to us was smallest (ties → lowest
    /// id), and reconnect to the two-hop candidate `w` maximizing the
    /// marginal share `w_cap / (deg(w) + 1)` (ties → lowest id). Fixed
    /// agents never initiate, are never dropped, and are never targeted.
    /// Returns [`MembershipOutcome::NoOp`] when no admissible candidate
    /// exists or the agent has only fixed neighbors.
    pub fn reciprocity_rewire(
        &mut self,
        agent: AgentId,
    ) -> Result<MembershipOutcome, MembershipError> {
        self.live_slot(agent)?;
        if self.fixed[agent] {
            return Err(MembershipError::FixedTopology(agent));
        }
        if self.topo.degree(agent) == 0 {
            return Err(MembershipError::NoEdges(agent));
        }
        // Weakest link: least reciprocating non-fixed neighbor.
        let mut dropped: Option<(f64, AgentId)> = None;
        let r = self.topo.range(agent);
        for a in r {
            let u = self.topo.peer_at(a);
            if self.fixed[u] {
                continue;
            }
            let got = self.lanes.received[a];
            // Slot order is ascending peer id, so strict `<` keeps the
            // lowest id on ties.
            if dropped.is_none_or(|(best, _)| got < best) {
                dropped = Some((got, u));
            }
        }
        let Some((_, drop_peer)) = dropped else {
            return Ok(MembershipOutcome::NoOp);
        };
        // Best two-hop candidate: alive, non-fixed, not already adjacent,
        // not ourselves, maximizing marginal capacity share.
        let mut added: Option<(f64, AgentId)> = None;
        for &u in self.topo.peers(agent) {
            for &w in self.topo.peers(u) {
                if w == agent || self.fixed[w] || !self.alive[w] {
                    continue;
                }
                if self.topo.find_arc(agent, w).is_some() {
                    continue;
                }
                let share = self.capacities[w] / (self.topo.degree(w) + 1) as f64;
                let better = match added {
                    None => true,
                    Some((best, best_id)) => share > best || (share == best && w < best_id),
                };
                if better {
                    added = Some((share, w));
                }
            }
        }
        let Some((_, add_peer)) = added else {
            return Ok(MembershipOutcome::NoOp);
        };
        // Both operations validated: cannot fail.
        let _ = self.topo.remove_edge(agent, drop_peer, &mut self.lanes);
        let _ = self.topo.insert_edge(agent, add_peer, &mut self.lanes);
        for v in [agent, drop_peer, add_peer] {
            self.refresh_utility(v);
        }
        REWIRES.add(1);
        Ok(MembershipOutcome::Rewired {
            dropped: drop_peer,
            added: add_peer,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::Strategy;
    use crate::swarm::SwarmConfig;
    use prs_graph::builders;
    use prs_numeric::int;

    fn ring6() -> SoaSwarm {
        let g = builders::uniform_ring(6, int(2)).unwrap();
        SoaSwarm::new(&g)
    }

    #[test]
    fn join_recycles_the_newest_freed_slot() {
        let mut s = ring6();
        s.leave(2).unwrap();
        s.leave(4).unwrap();
        assert_eq!(s.live_agents(), 4);
        let v = s.join(3.0, &[1, 3]).unwrap();
        assert_eq!(v, 4, "newest departure recycled first");
        let v2 = s.join(1.0, &[0]).unwrap();
        assert_eq!(v2, 2);
        assert_eq!(
            s.n_slots(),
            6,
            "no slot growth while the free list has room"
        );
        let v3 = s.join(1.0, &[0]).unwrap();
        assert_eq!(v3, 6, "free list empty: fresh slot appended");
        s.check_invariants().unwrap();
    }

    #[test]
    fn join_starts_cold_and_even() {
        let mut s = ring6();
        let v = s.join(4.0, &[0, 3]).unwrap();
        assert_eq!(s.peers(v), &[0, 3]);
        assert_eq!(s.outgoing_of(v), &[2.0, 2.0], "even split of capacity 4");
        assert_eq!(s.received_of(v), &[0.0, 0.0]);
        // Peer-side arcs are cold too: 0 has not uploaded to v yet.
        let a = s.topology().find_arc(0, v).unwrap();
        assert_eq!(s.outgoing_of(0)[a - s.topology().range(0).start], 0.0);
        s.check_invariants().unwrap();
    }

    #[test]
    fn validation_is_atomic() {
        let mut s = ring6();
        let before = s.topology().peers(1).to_vec();
        assert_eq!(
            s.join(1.0, &[1, 99]),
            Err(MembershipError::UnknownAgent(99))
        );
        assert_eq!(s.join(1.0, &[1, 1]), Err(MembershipError::DuplicatePeer(1)));
        assert_eq!(
            s.join(f64::NAN, &[1]),
            Err(MembershipError::InvalidCapacity)
        );
        assert_eq!(s.join(1.0, &[]), Err(MembershipError::NoPeers));
        assert_eq!(
            s.topology().peers(1),
            &before[..],
            "failed join left no trace"
        );
        assert_eq!(s.n_slots(), 6);
        s.check_invariants().unwrap();
    }

    #[test]
    fn leave_blocks_on_fixed_neighbors_but_fixed_agent_may_leave() {
        let g = builders::ring(vec![int(4), int(2), int(6), int(3)]).unwrap();
        let mut s = SoaSwarm::with_strategies(&g, |v| {
            if v == 0 {
                Strategy::Sybil { w1: 2.5, w2: 1.5 }
            } else {
                Strategy::Honest
            }
        });
        assert_eq!(s.leave(1), Err(MembershipError::FixedTopology(0)));
        // Agent 2 is not adjacent to the fixed agent 0, so it may leave.
        s.leave(2).unwrap();
        s.check_invariants().unwrap();
    }

    #[test]
    fn fixed_agent_leave_abandons_the_attack() {
        let g = builders::ring(vec![int(4), int(2), int(6), int(3), int(5)]).unwrap();
        let mut s = SoaSwarm::with_strategies(&g, |v| {
            if v == 0 {
                Strategy::Sybil { w1: 2.5, w2: 1.5 }
            } else {
                Strategy::Honest
            }
        });
        s.leave(0).unwrap();
        assert_eq!(s.live_agents(), 4);
        assert_eq!(s.degree(0), 0);
        let m = s.run(&SwarmConfig::default());
        assert!(m.converged, "line of honest agents still converges");
        s.check_invariants().unwrap();
    }

    #[test]
    fn reciprocity_rewire_drops_weakest_and_adds_best_two_hop() {
        // Ring 0–1–2–3–4–5 with distinct capacities; after one round each
        // agent's receipts differ, so the weakest link is well-defined.
        let g = builders::ring(vec![int(8), int(1), int(8), int(4), int(8), int(4)]).unwrap();
        let mut s = SoaSwarm::new(&g);
        s.step();
        // Agent 0's neighbors are 1 (capacity 1, sends 0.5) and 5
        // (capacity 4, sends 2.0): drop 1. Two-hop candidates through the
        // remaining topology include 2 (via 1) and 4 (via 5), both with
        // capacity 8 and degree 2, share 8/3 each: tie broken to 2.
        let out = s.reciprocity_rewire(0).unwrap();
        assert_eq!(
            out,
            MembershipOutcome::Rewired {
                dropped: 1,
                added: 2
            }
        );
        assert_eq!(s.peers(0), &[2, 5]);
        s.check_invariants().unwrap();
    }

    #[test]
    fn rewire_errors_and_noops() {
        let mut s = ring6();
        assert_eq!(
            s.reciprocity_rewire(9),
            Err(MembershipError::UnknownAgent(9))
        );
        // A triangle has no two-hop candidate that is not already a peer.
        let g = builders::ring(vec![int(1), int(2), int(3)]).unwrap();
        let mut t = SoaSwarm::new(&g);
        t.step();
        assert_eq!(t.reciprocity_rewire(0).unwrap(), MembershipOutcome::NoOp);
    }

    #[test]
    fn apply_dispatches_and_counts() {
        let mut s = ring6();
        let out = s
            .apply(&MembershipEvent::Join {
                capacity: 2.0,
                peers: vec![0, 3],
            })
            .unwrap();
        let MembershipOutcome::Joined(v) = out else {
            panic!("expected a join outcome");
        };
        s.apply(&MembershipEvent::Leave { agent: v }).unwrap();
        s.step();
        s.apply(&MembershipEvent::Rewire { agent: 0 }).unwrap();
        s.check_invariants().unwrap();
    }

    #[test]
    fn churned_swarm_still_converges_to_bd() {
        let mut s = ring6();
        for _ in 0..3 {
            s.step();
        }
        let v = s.join(5.0, &[0, 3]).unwrap();
        s.leave(1).unwrap();
        for _ in 0..3 {
            s.step();
        }
        s.leave(v).unwrap();
        let m = s.run(&SwarmConfig::default());
        assert!(m.converged);
        // Compare against the exact BD allocation of the surviving graph.
        let (g, slot_of) = s.to_graph().unwrap();
        let bd = prs_bd::decompose(&g).unwrap();
        let target: Vec<f64> = bd.utilities(&g).iter().map(|u| u.to_f64()).collect();
        for (i, &slot) in slot_of.iter().enumerate() {
            assert!(
                (m.utilities[slot] - target[i]).abs() < 1e-6,
                "slot {slot}: {} vs BD {}",
                m.utilities[slot],
                target[i]
            );
        }
    }
}
