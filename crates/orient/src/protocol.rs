//! The *fully distributed* stable orientation protocol: Section 5 end to
//! end on the LOCAL simulator.
//!
//! The lockstep driver in [`crate::phases`] measures the algorithm with
//! exact per-phase termination detection. This module is the
//! model-faithful counterpart: every node runs the complete algorithm as a
//! [`td_local::Protocol`], with phases synchronized by a **known-Δ round
//! budget** (the standard device for phase-based LOCAL algorithms — the
//! only global knowledge used, and the reason Theorem 5.1's bound is
//! O(Δ⁴) rather than adaptive).
//!
//! ## Phase schedule
//!
//! Each phase occupies `3 + 2·T` communication rounds, `T` = the token
//! dropping budget in game rounds (Theorem 4.1: `T = O(L·Δ²)`, `L ≤ Δ`):
//!
//! | in-phase round | action |
//! |---|---|
//! | 0 | broadcast current load |
//! | 1 | compute proposals of unoriented edges locally (both endpoints know both loads, so the edge's choice is consistent); each node accepts the smallest proposing edge and announces "occupied" |
//! | 2, 4, … 2T | token dropping *request* rounds |
//! | 3, 5, … 2T+1 | token dropping *grant* rounds (grants flip edges) |
//! | 2T+2 | settling: final grants arrive; orient accepted edges; recompute local load |
//!
//! The embedded token dropping plays on the badness-exactly-1 subgraph
//! with the same tie-breaking and the same one-round occupancy staleness
//! as [`td_core::lockstep`], so the final orientation is **identical** to
//! the lockstep phase driver's (tests pin this). Total rounds are
//! `(2Δ + 2) · (3 + 2T) = Θ(Δ⁴)` — the explicit form of Theorem 5.1.

use crate::orientation::Orientation;
use td_graph::{CsrGraph, Port};
use td_local::{Inbox, NodeInit, Outbox, Protocol, RoundCtx, SimOutcome, Simulator, Status};

/// Per-node input: the global maximum degree (the one piece of global
/// knowledge, used for the phase budget).
#[derive(Clone, Copy, Debug)]
pub struct OrientInput {
    /// Maximum degree Δ of the graph.
    pub delta: u32,
}

/// Protocol message. All fields default to "absent"; one message per edge
/// per round carries every flag relevant to that neighbor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct OrientMsg {
    /// Phase-start load announcement.
    pub load: Option<u32>,
    /// "I accept the proposal of the edge between us" (sent in round 1 of a
    /// phase; the edge will be oriented toward the sender at phase end).
    pub accept: bool,
    /// Token dropping: request a token (child → parent).
    pub request: bool,
    /// Token dropping: grant the token (parent → child; flips the edge).
    pub grant: bool,
    /// Occupancy announcement (true = became occupied, false = emptied).
    pub occ: Option<bool>,
}

/// Orientation state of one incident edge, from this node's perspective.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum EdgeState {
    Unoriented,
    TowardMe,
    AwayFromMe,
}

#[derive(Clone, Copy, Debug)]
struct PortState {
    neighbor: u32,
    state: EdgeState,
    neighbor_load: u32,
    /// Token dropping, within the current phase: is this edge part of the
    /// game (badness exactly 1) and not yet consumed?
    in_game: bool,
    /// Last known occupancy of the neighbor (only meaningful when the
    /// neighbor is my parent in the current game).
    neighbor_occupied: bool,
    /// The neighbor accepted a proposal on this edge this phase.
    accepted_here: bool,
}

/// Per-node output: the orientation of every incident edge.
#[derive(Clone, Debug)]
pub struct OrientOutput {
    /// For each port: `true` if the edge points toward this node.
    pub toward_me: Vec<bool>,
    /// Final load (indegree).
    pub load: u32,
}

/// Node state of the distributed phase algorithm.
pub struct OrientNode {
    id: u32,
    load: u32,
    occupied: bool,
    ports: Vec<PortState>,
    out_buf: Vec<OrientMsg>,
    /// Port of the edge whose proposal I accepted this phase (commit at the
    /// settling round).
    my_accept: Option<u32>,
    phase_len: u32,
    total_phases: u32,
}

/// Token dropping budget in game rounds for one phase (`L ≤ Δ` levels,
/// Theorem 4.1 with an explicit safety constant).
pub fn td_budget(delta: u32) -> u32 {
    2 * delta * delta * delta + 2 * delta + 8
}

/// Number of phases the protocol runs (Lemma 5.5 with its explicit
/// constant: an edge is oriented after at most 2Δ − 1 phases).
pub fn phase_budget(delta: u32) -> u32 {
    2 * delta + 2
}

/// Communication rounds per phase: load round + accept round + 2T token
/// dropping rounds + settling round.
pub fn phase_len(delta: u32) -> u32 {
    3 + 2 * td_budget(delta)
}

/// Total communication rounds of the protocol — the explicit Θ(Δ⁴) of
/// Theorem 5.1: `phase_budget(Δ) · phase_len(Δ)`, computed in u64 so it is
/// defined for every Δ (saturating at `u64::MAX`), including those whose
/// per-phase figures overflow u32.
pub fn total_rounds(delta: u32) -> u64 {
    let d = u64::from(delta);
    let cube = d.saturating_mul(d).saturating_mul(d);
    // phase_len = 3 + 2 · td_budget = 4Δ³ + 4Δ + 19.
    let len = cube.saturating_mul(4).saturating_add(4 * d + 19);
    (2 * d + 2).saturating_mul(len)
}

/// The simulator round cap of a distributed run at maximum degree `delta`:
/// the protocol's budget plus 16 rounds of slack. Fails with a diagnostic
/// naming Δ and the budget when the cap does not fit the simulator's u32
/// round counter, which happens from Δ = 152 on.
pub fn round_cap(delta: u32) -> Result<u32, String> {
    let budget = total_rounds(delta);
    budget
        .checked_add(16)
        .and_then(|cap| u32::try_from(cap).ok())
        .ok_or_else(|| {
            format!(
                "Δ = {delta} needs a budget of {budget} rounds, more than the u32 round \
                 counter holds (the distributed protocol runs up to Δ = 151)"
            )
        })
}

impl OrientNode {
    /// Canonical key of the edge on port `i` (matches `td-graph`'s edge id
    /// order, so acceptance tie-breaking agrees with the lockstep driver).
    fn edge_key(&self, i: usize) -> (u32, u32) {
        let nb = self.ports[i].neighbor;
        (self.id.min(nb), self.id.max(nb))
    }

    /// My level minus the neighbor's level, as seen through loads.
    fn is_parent(&self, i: usize) -> bool {
        // The neighbor is my parent in the game if the edge is oriented
        // toward it with badness 1 (its load = mine + 1).
        self.ports[i].state == EdgeState::AwayFromMe && self.ports[i].neighbor_load == self.load + 1
    }

    fn is_child(&self, i: usize) -> bool {
        self.ports[i].state == EdgeState::TowardMe && self.ports[i].neighbor_load + 1 == self.load
    }
}

impl Protocol for OrientNode {
    type Input = OrientInput;
    type Message = OrientMsg;
    type Output = OrientOutput;

    fn init(node: NodeInit<'_, OrientInput>) -> Self {
        let delta = node.input.delta;
        OrientNode {
            id: node.id.0,
            load: 0,
            occupied: false,
            ports: node
                .neighbor_ids
                .iter()
                .map(|&nb| PortState {
                    neighbor: nb,
                    state: EdgeState::Unoriented,
                    neighbor_load: 0,
                    in_game: false,
                    neighbor_occupied: false,
                    accepted_here: false,
                })
                .collect(),
            out_buf: vec![OrientMsg::default(); node.neighbor_ids.len()],
            my_accept: None,
            phase_len: phase_len(delta),
            total_phases: phase_budget(delta),
        }
    }

    fn round(
        &mut self,
        ctx: &RoundCtx,
        inbox: &Inbox<'_, OrientMsg>,
        outbox: &mut Outbox<'_, '_, OrientMsg>,
    ) -> Status {
        let r_in = ctx.round % self.phase_len;
        let phase = ctx.round / self.phase_len;
        let deg = self.ports.len();
        if deg == 0 {
            return Status::Halt;
        }

        // ---- Process inbox.
        let mut requests: Vec<usize> = Vec::new();
        let mut became_occupied = false;
        let mut grantor: Option<usize> = None;
        for (port, msg) in inbox.iter() {
            let pi = port.idx();
            if let Some(l) = msg.load {
                self.ports[pi].neighbor_load = l;
            }
            if let Some(o) = msg.occ {
                self.ports[pi].neighbor_occupied = o;
            }
            if msg.accept {
                // The neighbor accepted the proposal of our shared edge: it
                // will be oriented toward the neighbor at phase end.
                debug_assert_eq!(self.ports[pi].state, EdgeState::Unoriented);
                self.ports[pi].accepted_here = true;
            }
            if msg.request {
                requests.push(pi);
            }
            if msg.grant {
                // Token arrives; the edge flips toward me NOW (the grantor
                // was its head).
                debug_assert!(!self.occupied);
                debug_assert_eq!(self.ports[pi].state, EdgeState::AwayFromMe);
                self.occupied = true;
                became_occupied = true;
                grantor = Some(pi);
                self.ports[pi].state = EdgeState::TowardMe;
                self.ports[pi].in_game = false;
                self.ports[pi].neighbor_occupied = false;
            }
        }

        // ---- Act according to the in-phase schedule.
        for m in self.out_buf.iter_mut() {
            *m = OrientMsg::default();
        }
        if r_in == 0 {
            // Phase start: everyone announces its load.
            for i in 0..deg {
                self.out_buf[i].load = Some(self.load);
            }
            // Reset phase-local state.
            self.occupied = false;
            for p in self.ports.iter_mut() {
                p.in_game = false;
                p.neighbor_occupied = false;
                p.accepted_here = false;
            }
        } else if r_in == 1 {
            // Loads are fresh. Compute, per unoriented incident edge, its
            // proposal target; accept the smallest proposing edge if any
            // target me.
            let mut best: Option<usize> = None;
            for i in 0..deg {
                if self.ports[i].state != EdgeState::Unoriented {
                    continue;
                }
                let nl = self.ports[i].neighbor_load;
                let nb = self.ports[i].neighbor;
                // Edge proposes to the endpoint with the smaller load, ties
                // to the smaller id (same rule as the lockstep driver).
                let to_me = self.load < nl || (self.load == nl && self.id < nb);
                if to_me && best.is_none_or(|b| self.edge_key(i) < self.edge_key(b)) {
                    best = Some(i);
                }
            }
            if let Some(i) = best {
                self.occupied = true;
                self.my_accept = Some(i as u32);
                self.out_buf[i].accept = true;
                // Everyone (future children) learns I hold a token.
                for j in 0..deg {
                    self.out_buf[j].occ = Some(true);
                }
            }
            // Mark the game edges for this phase: badness exactly 1.
            for i in 0..deg {
                let p = self.ports[i];
                let badness_one = match p.state {
                    EdgeState::AwayFromMe => p.neighbor_load == self.load + 1,
                    EdgeState::TowardMe => self.load == p.neighbor_load + 1,
                    EdgeState::Unoriented => false,
                };
                self.ports[i].in_game = badness_one;
            }
        } else if r_in >= 2 && r_in < self.phase_len - 1 {
            let td_round = r_in - 2;
            if td_round.is_multiple_of(2) {
                // Request round. Newly occupied nodes announce Full to all
                // ports (the grantor already knows; harmless).
                if became_occupied {
                    for j in 0..deg {
                        if Some(j) != grantor {
                            self.out_buf[j].occ = Some(true);
                        }
                    }
                }
                if !self.occupied {
                    let mut bi: Option<usize> = None;
                    for i in 0..deg {
                        let p = self.ports[i];
                        if p.in_game
                            && self.is_parent(i)
                            && p.neighbor_occupied
                            && bi.is_none_or(|b| p.neighbor < self.ports[b].neighbor)
                        {
                            bi = Some(i);
                        }
                    }
                    if let Some(i) = bi {
                        self.out_buf[i].request = true;
                    }
                }
            } else {
                // Grant round.
                if self.occupied {
                    let mut bi: Option<usize> = None;
                    for &i in &requests {
                        let p = self.ports[i];
                        debug_assert!(p.in_game && self.is_child(i));
                        if bi.is_none_or(|b: usize| p.neighbor < self.ports[b].neighbor) {
                            bi = Some(i);
                        }
                    }
                    if let Some(i) = bi {
                        self.out_buf[i].grant = true;
                        // Flip the edge away from me immediately.
                        debug_assert_eq!(self.ports[i].state, EdgeState::TowardMe);
                        self.ports[i].state = EdgeState::AwayFromMe;
                        self.ports[i].in_game = false;
                        self.occupied = false;
                        for j in 0..deg {
                            if j != i && self.ports[j].in_game {
                                self.out_buf[j].occ = Some(false);
                            }
                        }
                    }
                }
            }
        } else {
            // Settling round (r_in == phase_len - 1): final grants were just
            // processed. Commit the phase: orient accepted edges, recompute
            // load locally.
            for i in 0..deg {
                if self.ports[i].accepted_here {
                    debug_assert_eq!(self.ports[i].state, EdgeState::Unoriented);
                    self.ports[i].state = EdgeState::AwayFromMe;
                }
            }
            // The edge I accepted is oriented toward me regardless of where
            // the token travelled (the token models the pending +1 load
            // unit; the flips already rebalanced the rest).
            if let Some(i) = self.my_accept.take() {
                let i = i as usize;
                debug_assert_eq!(self.ports[i].state, EdgeState::Unoriented);
                self.ports[i].state = EdgeState::TowardMe;
            }
            self.load = self
                .ports
                .iter()
                .filter(|p| p.state == EdgeState::TowardMe)
                .count() as u32;
            if phase + 1 >= self.total_phases {
                debug_assert!(
                    self.ports.iter().all(|p| p.state != EdgeState::Unoriented),
                    "v{}: unoriented edge after the Lemma 5.5 phase budget",
                    self.id
                );
                return Status::Halt;
            }
        }

        // ---- Flush.
        for (i, m) in self.out_buf.iter().enumerate() {
            if *m != OrientMsg::default() {
                outbox.send(Port::from(i), *m);
            }
        }
        Status::Continue
    }

    fn finish(self) -> OrientOutput {
        OrientOutput {
            toward_me: self
                .ports
                .iter()
                .map(|p| p.state == EdgeState::TowardMe)
                .collect(),
            load: self.load,
        }
    }
}

/// Result of running the distributed protocol.
#[derive(Clone, Debug)]
pub struct DistributedResult {
    /// The assembled (verified-consistent) orientation.
    pub orientation: Orientation,
    /// Communication rounds until all nodes halted.
    pub comm_rounds: u32,
    /// Messages sent.
    pub messages: u64,
    /// Low-level executor work counters (perf telemetry plane).
    pub perf: td_local::ExecPerf,
    /// Per-round statistics, when the simulator had tracing enabled.
    pub trace: Option<Vec<td_local::RoundStats>>,
}

impl td_local::Summarize for DistributedResult {
    fn summary(&self) -> td_local::RunSummary {
        td_local::RunSummary {
            rounds: self.comm_rounds,
            messages: self.messages,
        }
    }
}

/// Runs the distributed protocol and assembles the global orientation,
/// checking that the two endpoints of every edge agree.
pub fn run_distributed(g: &CsrGraph, sim: &Simulator) -> DistributedResult {
    let delta = g.max_degree() as u32;
    let cap = round_cap(delta).unwrap_or_else(|e| panic!("{e}"));
    let inputs = vec![OrientInput { delta }; g.num_nodes()];
    let sim = sim.with_max_rounds(cap);
    let outcome: SimOutcome<OrientOutput> = sim.run::<OrientNode>(g, &inputs);
    assert!(
        outcome.completed,
        "distributed orientation hit the round cap"
    );

    let mut orientation = Orientation::unoriented(g);
    for (e, u, v) in g.edge_list() {
        let pu = g.port_of(u, e).unwrap();
        let pv = g.port_of(v, e).unwrap();
        let to_u = outcome.outputs[u.idx()].toward_me[pu.idx()];
        let to_v = outcome.outputs[v.idx()].toward_me[pv.idx()];
        assert!(
            to_u != to_v,
            "endpoints of {e} disagree: toward_u={to_u}, toward_v={to_v}"
        );
        orientation.orient(g, e, if to_u { u } else { v });
    }
    DistributedResult {
        orientation,
        comm_rounds: outcome.rounds,
        messages: outcome.messages,
        perf: outcome.perf,
        trace: outcome.trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phases::{solve_stable_orientation, PhaseConfig};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use td_graph::gen::classic::{cycle, path, petersen, star};
    use td_graph::gen::random::gnm;

    fn check(g: &CsrGraph) {
        let dist = run_distributed(g, &Simulator::sequential());
        dist.orientation.verify_stable(g).unwrap();
        // The distributed protocol and the lockstep driver implement the
        // same deterministic algorithm: identical final orientations.
        let lock = solve_stable_orientation(g, PhaseConfig::default());
        assert_eq!(dist.orientation, lock.orientation);
        // Round count is exactly the known-Δ budget (phase-synchronized).
        let delta = g.max_degree() as u32;
        assert!(dist.comm_rounds as u64 <= total_rounds(delta) + 1);
    }

    #[test]
    fn classic_families() {
        for g in [path(9), cycle(8), star(6)] {
            check(&g);
        }
    }

    #[test]
    fn petersen_graph() {
        check(&petersen());
    }

    #[test]
    fn random_graphs_match_lockstep() {
        let mut rng = SmallRng::seed_from_u64(314);
        for _ in 0..5 {
            let g = gnm(24, 48, &mut rng);
            check(&g);
        }
    }

    #[test]
    fn parallel_executor_same_result() {
        let mut rng = SmallRng::seed_from_u64(315);
        let g = gnm(20, 40, &mut rng);
        let a = run_distributed(&g, &Simulator::sequential());
        let b = run_distributed(&g, &Simulator::sparse());
        assert_eq!(a.orientation, b.orientation);
        assert_eq!(a.comm_rounds, b.comm_rounds);
        assert_eq!(a.messages, b.messages);
    }

    #[test]
    fn theorem_5_1_explicit_round_form() {
        // The end-to-end distributed round count is the explicit Θ(Δ⁴).
        for delta in [2u32, 4, 8] {
            let r = total_rounds(delta);
            assert!(r >= (delta as u64).pow(4));
            assert!(r <= 64 * (delta as u64).pow(4) + 512);
        }
    }

    #[test]
    fn round_budget_is_exact_and_capped_at_the_u32_counter() {
        for delta in [0u32, 1, 4, 100, 151, 152, 1023, 1024] {
            if delta <= 1023 {
                // Below 1024 the per-phase figures fit u32: same product.
                let product = phase_budget(delta) as u64 * phase_len(delta) as u64;
                assert_eq!(total_rounds(delta), product, "Δ = {delta}");
            }
            assert_eq!(round_cap(delta).is_ok(), delta <= 151, "Δ = {delta}");
        }
        assert_eq!(round_cap(151), Ok(4_186_817_808 + 16));
        let err = round_cap(152).unwrap_err();
        assert!(
            err.contains("Δ = 152") && err.contains("4298644854"),
            "{err}"
        );
        assert_eq!(total_rounds(u32::MAX), u64::MAX, "saturates, never wraps");
    }

    #[test]
    #[should_panic(expected = "Δ = 152")]
    fn oversized_delta_panics_before_simulating() {
        run_distributed(&star(152), &Simulator::sequential());
    }

    #[test]
    fn isolated_nodes_halt_immediately() {
        let g = CsrGraph::from_edges(3, &[(0, 1)]).unwrap();
        let dist = run_distributed(&g, &Simulator::sequential());
        dist.orientation.verify_stable(&g).unwrap();
    }
}
