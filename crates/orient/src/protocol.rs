//! The *fully distributed* stable orientation protocol: Section 5 end to
//! end on the LOCAL simulator.
//!
//! The lockstep driver in [`crate::phases`] measures the algorithm with
//! exact per-phase termination detection. This module is the
//! model-faithful counterpart: every node runs the complete algorithm as a
//! [`td_local::PortProtocol`], with phases synchronized by a **known-Δ round
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
//!
//! ## Wire format
//!
//! A round sends at most one 8-byte [`OrientMsg`] per edge, carrying every
//! flag relevant to that neighbor:
//!
//! | bit | flag | sent in (in-phase round) | meaning |
//! |---|---|---|---|
//! | 0 | `LOAD` | round 0 | `load` holds the sender's load |
//! | 1 | `ACCEPT` | round 1 | the sender accepted the proposal of the shared edge, which is oriented toward it at phase end |
//! | 2 | `OCCUPIED` | round 1, request rounds | the sender holds a token (it accepted a proposal, or a grant just reached it) |
//! | 3 | `EMPTIED` | grant rounds | to an in-game neighbor: the sender just passed its token on |
//! | 4 | `REQUEST` | request rounds | child asks the parent for its token |
//! | 5 | `GRANT` | grant rounds | parent passes its token to this child (flips the edge) |
//!
//! `load` is meaningful only with `LOAD` and is 0 otherwise. A port with no
//! flag to send gets no message, and a node that sends nothing in a round
//! builds no message.
//!
//! ## Idle rounds
//!
//! With few messages per phase, nearly every node-round is idle, so a node
//! keeps what it needs to see that at once. Its *phase clock* holds the
//! first round of the current phase: the in-phase round is the distance
//! from it, and only a round past the phase's end divides, to find the
//! phase it falls in. The clock is derived from the round number, so a node
//! that skipped rounds still lands in the right phase. A live count of
//! *in-game parent ports* (edges toward a neighbor one load above, marked
//! in in-phase round 1 and decremented as grants consume them) lets an
//! unoccupied node with none skip the request scan, and the requester a
//! node grants to is picked while it reads the inbox. An idle node-round
//! thus costs its inbox scan and a few comparisons, and `round` allocates
//! nothing.
//!
//! ## Port state
//!
//! Each incident edge's state, its orientation included, lives in the
//! node's row of the simulator's port slab, so the node state is a few
//! integers. [`run_distributed`] reads the orientation off the finished
//! rows.

use crate::orientation::Orientation;
use td_graph::{CsrGraph, Port};
use td_local::{Finished, Inbox, NodeInit, Outbox, PortProtocol, RoundCtx, Simulator, Status};

/// Per-node input: the global maximum degree (the one piece of global
/// knowledge, used for the phase budget).
#[derive(Clone, Copy, Debug)]
pub struct OrientInput {
    /// Maximum degree Δ of the graph.
    pub delta: u32,
}

const LOAD: u8 = 1 << 0;
const ACCEPT: u8 = 1 << 1;
const OCCUPIED: u8 = 1 << 2;
const EMPTIED: u8 = 1 << 3;
const REQUEST: u8 = 1 << 4;
const GRANT: u8 = 1 << 5;

/// Protocol message: a flag byte plus the sender's load, which only a load
/// announcement carries (see the module docs for the wire format).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct OrientMsg {
    load: u32,
    flags: u8,
}

impl OrientMsg {
    fn flags(flags: u8) -> Self {
        OrientMsg { load: 0, flags }
    }
}

/// Orientation state of one incident edge, from this node's perspective.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum EdgeState {
    #[default]
    Unoriented,
    TowardMe,
    AwayFromMe,
}

/// One incident edge's state, the node's entry for its port in the port
/// slab. Its `Default` is the state every port starts in.
#[derive(Clone, Copy, Debug, Default)]
pub struct PortState {
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

/// Per-node output. The orientation of each incident edge stays in the
/// node's port row, where [`run_distributed`] reads it.
#[derive(Clone, Copy, Debug)]
pub struct OrientOutput {
    /// Final load (indegree).
    pub load: u32,
}

/// Node state of the distributed phase algorithm.
pub struct OrientNode {
    id: u32,
    load: u32,
    occupied: bool,
    /// In-game parent ports this phase: in-game edges oriented away from
    /// me, each a request target until a grant consumes it.
    game_parents: u32,
    /// Port of the edge whose proposal I accepted this phase (commit at the
    /// settling round).
    my_accept: Option<u32>,
    phase_len: u64,
    total_phases: u64,
    /// The phase clock: the current phase and its first round.
    phase: u64,
    phase_start: u64,
}

/// Token dropping budget in game rounds for one phase (`L ≤ Δ` levels,
/// Theorem 4.1 with an explicit safety constant): `2Δ³ + 2Δ + 8`, computed
/// in u64 and saturating at `u64::MAX`, so it never wraps.
pub fn td_budget(delta: u32) -> u64 {
    let d = u64::from(delta);
    d.saturating_mul(d)
        .saturating_mul(d)
        .saturating_mul(2)
        .saturating_add(2 * d + 8)
}

/// Number of phases the protocol runs (Lemma 5.5 with its explicit
/// constant: an edge is oriented after at most 2Δ − 1 phases), in u64.
pub fn phase_budget(delta: u32) -> u64 {
    2 * u64::from(delta) + 2
}

/// Communication rounds per phase: load round + accept round + 2T token
/// dropping rounds + settling round, computed in u64 and saturating at
/// `u64::MAX`.
pub fn phase_len(delta: u32) -> u64 {
    td_budget(delta).saturating_mul(2).saturating_add(3)
}

/// Total communication rounds of the protocol — the explicit Θ(Δ⁴) of
/// Theorem 5.1: `phase_budget(Δ) · phase_len(Δ)`, computed in u64 so it is
/// defined for every Δ (saturating at `u64::MAX`).
pub fn total_rounds(delta: u32) -> u64 {
    phase_budget(delta).saturating_mul(phase_len(delta))
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
    /// Canonical key of the edge to neighbor `nb` (matches `td-graph`'s
    /// edge id order, so acceptance tie-breaking agrees with the lockstep
    /// driver).
    fn edge_key(&self, nb: u32) -> (u32, u32) {
        (self.id.min(nb), self.id.max(nb))
    }

    /// My level minus the neighbor's level, as seen through loads.
    fn is_parent(&self, p: PortState) -> bool {
        // The neighbor is my parent in the game if the edge is oriented
        // toward it with badness 1 (its load = mine + 1).
        p.state == EdgeState::AwayFromMe && p.neighbor_load == self.load + 1
    }

    fn is_child(&self, p: PortState) -> bool {
        p.state == EdgeState::TowardMe && p.neighbor_load + 1 == self.load
    }
}

impl PortProtocol for OrientNode {
    type Input = OrientInput;
    type Message = OrientMsg;
    type Output = OrientOutput;
    type Port = PortState;

    fn init(node: NodeInit<'_, OrientInput>, _: &mut [PortState]) -> Self {
        let delta = node.input.delta;
        OrientNode {
            id: node.id.0,
            load: 0,
            occupied: false,
            game_parents: 0,
            my_accept: None,
            phase_len: phase_len(delta),
            total_phases: phase_budget(delta),
            phase: 0,
            phase_start: 0,
        }
    }

    fn round(
        &mut self,
        ctx: &RoundCtx,
        ports: &mut [PortState],
        inbox: &Inbox<'_, OrientMsg>,
        outbox: &mut Outbox<'_, '_, OrientMsg>,
    ) -> Status {
        let deg = ports.len();
        if deg == 0 {
            return Status::Halt;
        }
        // Phase clock: only a round past the current phase divides.
        let mut r_in = ctx.round.wrapping_sub(self.phase_start);
        if r_in >= self.phase_len {
            self.phase = ctx.round / self.phase_len;
            self.phase_start = self.phase * self.phase_len;
            r_in = ctx.round - self.phase_start;
        }

        // ---- Process inbox, picking the smallest-id requester on the way.
        let mut requester: Option<usize> = None;
        let mut grantor: Option<usize> = None;
        for (port, msg) in inbox.iter() {
            let pi = port.idx();
            let f = msg.flags;
            if f & LOAD != 0 {
                ports[pi].neighbor_load = msg.load;
            }
            if f & (OCCUPIED | EMPTIED) != 0 {
                ports[pi].neighbor_occupied = f & OCCUPIED != 0;
            }
            if f & ACCEPT != 0 {
                // The neighbor accepted the proposal of our shared edge: it
                // will be oriented toward the neighbor at phase end.
                debug_assert_eq!(ports[pi].state, EdgeState::Unoriented);
                ports[pi].accepted_here = true;
            }
            if f & REQUEST != 0 {
                let nbrs = outbox.neighbor_ids();
                if requester.is_none_or(|b| nbrs[pi] < nbrs[b]) {
                    requester = Some(pi);
                }
            }
            if f & GRANT != 0 {
                // Token arrives; the edge flips toward me NOW (the grantor
                // was its head). It answers my request of two rounds ago,
                // sent on an in-game parent port, which the grant consumes.
                debug_assert!(!self.occupied);
                debug_assert_eq!(ports[pi].state, EdgeState::AwayFromMe);
                debug_assert!(ports[pi].in_game);
                self.game_parents -= 1;
                self.occupied = true;
                grantor = Some(pi);
                ports[pi].state = EdgeState::TowardMe;
                ports[pi].in_game = false;
                ports[pi].neighbor_occupied = false;
            }
        }

        // ---- Act according to the in-phase schedule, sending as it goes.
        if r_in == 0 {
            // Phase start: everyone announces its load.
            outbox.broadcast(OrientMsg {
                load: self.load,
                flags: LOAD,
            });
            // Reset phase-local state.
            self.occupied = false;
            self.game_parents = 0;
            for p in ports.iter_mut() {
                p.in_game = false;
                p.neighbor_occupied = false;
                p.accepted_here = false;
            }
        } else if r_in == 1 {
            // Loads are fresh. Compute, per unoriented incident edge, its
            // proposal target; accept the smallest proposing edge if any
            // target me.
            let nbrs = outbox.neighbor_ids();
            let mut best: Option<usize> = None;
            for i in 0..deg {
                if ports[i].state != EdgeState::Unoriented {
                    continue;
                }
                let nl = ports[i].neighbor_load;
                let nb = nbrs[i];
                // Edge proposes to the endpoint with the smaller load, ties
                // to the smaller id (same rule as the lockstep driver).
                let to_me = self.load < nl || (self.load == nl && self.id < nb);
                if to_me && best.is_none_or(|b| self.edge_key(nb) < self.edge_key(nbrs[b])) {
                    best = Some(i);
                }
            }
            if let Some(i) = best {
                self.occupied = true;
                self.my_accept = Some(i as u32);
                // Everyone (future children) learns I hold a token.
                for j in 0..deg {
                    let accept = if j == i { ACCEPT } else { 0 };
                    outbox.send(Port::from(j), OrientMsg::flags(OCCUPIED | accept));
                }
            }
            // Mark the game edges for this phase: badness exactly 1. Count
            // the in-game parents, the ports a request can go to.
            let mut parents = 0;
            for p in ports.iter_mut() {
                let badness_one = match p.state {
                    EdgeState::AwayFromMe => p.neighbor_load == self.load + 1,
                    EdgeState::TowardMe => self.load == p.neighbor_load + 1,
                    EdgeState::Unoriented => false,
                };
                p.in_game = badness_one;
                parents += u32::from(badness_one && p.state == EdgeState::AwayFromMe);
            }
            self.game_parents = parents;
        } else if r_in < self.phase_len - 1 {
            let td_round = r_in - 2;
            if td_round.is_multiple_of(2) {
                // Request round. Newly occupied nodes announce Full to all
                // other ports.
                if let Some(g) = grantor {
                    for j in (0..deg).filter(|&j| j != g) {
                        outbox.send(Port::from(j), OrientMsg::flags(OCCUPIED));
                    }
                }
                if !self.occupied && self.game_parents > 0 {
                    let nbrs = outbox.neighbor_ids();
                    let mut bi: Option<usize> = None;
                    for i in 0..deg {
                        let p = ports[i];
                        if p.in_game
                            && self.is_parent(p)
                            && p.neighbor_occupied
                            && bi.is_none_or(|b| nbrs[i] < nbrs[b])
                        {
                            bi = Some(i);
                        }
                    }
                    if let Some(i) = bi {
                        outbox.send(Port::from(i), OrientMsg::flags(REQUEST));
                    }
                }
            } else {
                // Grant round.
                if let Some(i) = requester.filter(|_| self.occupied) {
                    debug_assert!(ports[i].in_game && self.is_child(ports[i]));
                    outbox.send(Port::from(i), OrientMsg::flags(GRANT));
                    // Flip the edge away from me immediately.
                    debug_assert_eq!(ports[i].state, EdgeState::TowardMe);
                    ports[i].state = EdgeState::AwayFromMe;
                    ports[i].in_game = false;
                    self.occupied = false;
                    for (j, p) in ports.iter().enumerate() {
                        if p.in_game {
                            outbox.send(Port::from(j), OrientMsg::flags(EMPTIED));
                        }
                    }
                }
            }
        } else {
            // Settling round (r_in == phase_len - 1): final grants were just
            // processed. Commit the phase: orient accepted edges, recompute
            // load locally.
            for p in ports.iter_mut().filter(|p| p.accepted_here) {
                debug_assert_eq!(p.state, EdgeState::Unoriented);
                p.state = EdgeState::AwayFromMe;
            }
            // The edge I accepted is oriented toward me regardless of where
            // the token travelled (the token models the pending +1 load
            // unit; the flips already rebalanced the rest).
            if let Some(i) = self.my_accept.take() {
                let i = i as usize;
                debug_assert_eq!(ports[i].state, EdgeState::Unoriented);
                ports[i].state = EdgeState::TowardMe;
            }
            self.load = ports
                .iter()
                .filter(|p| p.state == EdgeState::TowardMe)
                .count() as u32;
            if self.phase + 1 >= self.total_phases {
                debug_assert!(
                    ports.iter().all(|p| p.state != EdgeState::Unoriented),
                    "v{}: unoriented edge after the Lemma 5.5 phase budget",
                    self.id
                );
                return Status::Halt;
            }
        }
        Status::Continue
    }

    fn finish(self, _: &[PortState]) -> OrientOutput {
        OrientOutput { load: self.load }
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

/// Reads the orientation off a finished run's port rows, checking that
/// the two endpoints of every edge agree.
///
/// # Panics
/// If the run hit the round cap, or two endpoints disagree.
fn assemble(done: Finished<'_, OrientNode>) -> Orientation {
    assert!(
        done.completed(),
        "distributed orientation hit the round cap"
    );
    let g = done.graph();
    let mut orientation = Orientation::unoriented(g);
    for (e, u, v) in g.edge_list() {
        let pu = g.port_of(u, e).unwrap();
        let pv = g.port_of(v, e).unwrap();
        let to_u = done.node(u).1[pu.idx()].state == EdgeState::TowardMe;
        let to_v = done.node(v).1[pv.idx()].state == EdgeState::TowardMe;
        assert!(
            to_u != to_v,
            "endpoints of {e} disagree: toward_u={to_u}, toward_v={to_v}"
        );
        orientation.orient(g, e, if to_u { u } else { v });
    }
    orientation
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
    let outcome = sim.run_with(g, &inputs, assemble);
    DistributedResult {
        orientation: outcome.outputs,
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
    fn distributed_orientation_matches_the_dense_oracle() {
        let mut rng = SmallRng::seed_from_u64(315);
        let g = gnm(20, 40, &mut rng);
        let a = run_distributed(&g, &Simulator::sequential());
        let b = run_distributed(&g, &Simulator::dense());
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
        // Exact values from u128 arithmetic, saturated at u64::MAX.
        let sat = |x: Option<u128>| x.and_then(|x| u64::try_from(x).ok()).unwrap_or(u64::MAX);
        for delta in [0u32, 1, 4, 100, 151, 152, 1023, 1024, 1291, u32::MAX] {
            let d = u128::from(delta);
            let len = 4 * d * d * d + 4 * d + 19;
            assert_eq!(
                td_budget(delta),
                sat(Some(2 * d * d * d + 2 * d + 8)),
                "Δ = {delta}"
            );
            assert_eq!(phase_len(delta), sat(Some(len)), "Δ = {delta}");
            assert_eq!(phase_budget(delta), sat(Some(2 * d + 2)), "Δ = {delta}");
            assert_eq!(
                total_rounds(delta),
                sat((2 * d + 2).checked_mul(len)),
                "Δ = {delta}"
            );
            assert_eq!(round_cap(delta).is_ok(), delta <= 151, "Δ = {delta}");
        }
        // The first Δ whose per-phase figures pass u32: they no longer wrap.
        assert_eq!(phase_len(1024), 4_294_971_411);
        assert_eq!(td_budget(1291), 4_303_372_932);
        assert_eq!(td_budget(u32::MAX), u64::MAX, "saturates, never wraps");
        assert_eq!(phase_len(u32::MAX), u64::MAX, "saturates, never wraps");
        assert_eq!(phase_budget(u32::MAX), 8_589_934_592);
        assert_eq!(round_cap(151), Ok(4_186_817_808 + 16));
        let err = round_cap(152).unwrap_err();
        assert!(
            err.contains("Δ = 152") && err.contains("4298644854"),
            "{err}"
        );
        assert_eq!(total_rounds(u32::MAX), u64::MAX, "saturates, never wraps");
    }

    #[test]
    fn message_is_eight_bytes() {
        assert_eq!(std::mem::size_of::<OrientMsg>(), 8);
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
