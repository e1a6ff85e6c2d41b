//! The paper's **proposal algorithm** (Section 4.1, Theorem 4.1) as a LOCAL
//! protocol.
//!
//! One *game round* is encoded as two communication rounds, exactly as the
//! paper states ("each round of our algorithm actually consists of two
//! synchronous communication rounds"):
//!
//! * **request phase** (odd rounds): every unoccupied node that knows an
//!   occupied parent requests a token from the smallest-id such parent.
//!   Nodes that just received a token announce "occupied" to their children.
//! * **grant phase** (even rounds ≥ 2): every occupied node that received
//!   requests grants its token to the smallest-id requester, consuming the
//!   edge, and announces "empty" to its other children.
//!
//! Round 0 is a one-time `hello` exchange in which neighbors learn each
//! other's level and initial occupancy (the paper's nodes "are not aware of
//! any parameters"; they discover parent/child relations from this
//! exchange). Termination follows the paper's rule: an occupied node with no
//! remaining children, or an unoccupied node with no remaining parents,
//! says goodbye and halts. ("Remaining" = edge not consumed, neighbor not
//! terminated.)
//!
//! Occupancy knowledge is current for "became empty" and one game round
//! stale for "became occupied" — an unavoidable consequence of the 2-round
//! encoding. The [`crate::lockstep`] engine models the same staleness, which
//! makes the two engines' move sequences identical (see tests).
//!
//! # Wire format
//!
//! A round sends at most one 8-byte [`Msg`] per edge, carrying every flag
//! relevant to that neighbor:
//!
//! | bit | flag | meaning |
//! |---|---|---|
//! | 0 | `HELLO` | round-0 introduction; `level` holds the sender's level |
//! | 1 | `OCCUPIED` | in a hello: the sender starts with a token; later, to a child: it just received one |
//! | 2 | `EMPTIED` | to a child: the sender just passed its token on |
//! | 3 | `REQUEST` | child asks the parent for its token |
//! | 4 | `GRANT` | parent passes its token to this child (consumes the edge) |
//! | 5 | `GOODBYE` | the sender has terminated and leaves the game |
//!
//! `level` is meaningful only in a hello and is 0 otherwise. A port with no
//! flag to send gets no message.
//!
//! # Open-port counts
//!
//! A port is *open* while its edge is unconsumed and its neighbor has not
//! said goodbye. Each node keeps live counts of its open parent and child
//! ports (set by the hellos of round 1, decremented when a grant consumes an
//! edge or a goodbye arrives), so the termination rule is O(1) per round:
//! an occupied node halts when it has no open child, an unoccupied one when
//! it has no open parent.
//!
//! # Port state
//!
//! A node's per-port state, and the grants it sent, live in its row of the
//! simulator's port slab ([`td_local::PortProtocol`]), so the node state is
//! a few integers. A grant consumes its edge, so each port records at most
//! one grant: the round it was sent in. [`run_on_simulator`] reads the move
//! log off the finished rows.

use crate::game::TokenGame;
use crate::solution::{MoveEvent, MoveLog, Solution};
use td_graph::{NodeId, Port};
use td_local::{Finished, Inbox, NodeInit, Outbox, PortProtocol, RoundCtx, Simulator, Status};

/// Per-node input: the node's level and whether it initially holds a token.
#[derive(Clone, Copy, Debug)]
pub struct TokenInput {
    /// The node's level.
    pub level: u32,
    /// True if the node starts with a token.
    pub token: bool,
}

/// Builds the per-node input vector for a game instance.
pub fn inputs(game: &TokenGame) -> Vec<TokenInput> {
    game.graph()
        .nodes()
        .map(|v| TokenInput {
            level: game.level(v),
            token: game.has_token(v),
        })
        .collect()
}

const HELLO: u8 = 1 << 0;
const OCCUPIED: u8 = 1 << 1;
const EMPTIED: u8 = 1 << 2;
const REQUEST: u8 = 1 << 3;
const GRANT: u8 = 1 << 4;
const GOODBYE: u8 = 1 << 5;

/// The (combinable) message exchanged by the protocol: a flag byte plus the
/// sender's level, which only a hello carries (see the module docs for the
/// wire format).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct Msg {
    level: u32,
    flags: u8,
}

/// One port's state, the node's entry for it in the port slab. Its
/// `Default` is the state every port starts in.
#[derive(Clone, Copy, Debug, Default)]
pub struct PortState {
    /// The neighbor sits one level up (set by its hello; a child otherwise).
    parent: bool,
    /// The neighbor said goodbye.
    gone: bool,
    /// A grant consumed the edge.
    consumed: bool,
    /// For parent ports: last known occupancy of the parent.
    parent_occupied: bool,
    /// The communication round in which this node granted its token over
    /// the port, or 0 if it did not (grants are sent in rounds ≥ 2).
    granted_at: u32,
}

/// `round` as a `u32`: a one-shot run's rounds stay below its `u32` round
/// cap, so a port records the round of its move in 4 bytes.
pub(crate) fn one_shot_round(round: u64) -> u32 {
    u32::try_from(round).expect("a one-shot run's rounds fit its u32 round cap")
}

impl PortState {
    /// The edge is unconsumed and the neighbor has not said goodbye.
    fn open(self) -> bool {
        !self.gone && !self.consumed
    }
}

/// Per-node local output. The moves a node made stay in its port row,
/// where [`run_on_simulator`] reads them to reconstruct the global solution
/// (the paper notes traversals are derivable from the node-centered output;
/// we do that reconstruction host-side).
#[derive(Clone, Copy, Debug)]
pub struct NodeOutput {
    /// Did this node start with a token?
    pub initial_token: bool,
    /// Does this node end with a token?
    pub final_token: bool,
    /// Grants this node sent, one per edge its token left by.
    pub grants: u32,
}

/// Node state of the proposal algorithm.
pub struct ProposalNode {
    level: u32,
    occupied: bool,
    initial_token: bool,
    /// Open (alive, unconsumed) parent ports.
    open_parents: u32,
    /// Open (alive, unconsumed) child ports.
    open_children: u32,
}

impl ProposalNode {
    /// Takes port `i` out of the open-port counts, if it is open; the
    /// caller then marks its edge consumed or its neighbor gone.
    fn close(&mut self, ports: &[PortState], i: usize) {
        let p = ports[i];
        if p.open() {
            if p.parent {
                self.open_parents -= 1;
            } else {
                self.open_children -= 1;
            }
        }
    }
}

/// The smallest-id open parent known to be occupied, if any.
fn best_occupied_parent(ports: &[PortState], nbrs: &[u32]) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (i, p) in ports.iter().enumerate() {
        if p.parent && p.open() && p.parent_occupied && best.is_none_or(|b| nbrs[i] < nbrs[b]) {
            best = Some(i);
        }
    }
    best
}

impl PortProtocol for ProposalNode {
    type Input = TokenInput;
    type Message = Msg;
    type Output = NodeOutput;
    type Port = PortState;

    fn init(node: NodeInit<'_, TokenInput>, _: &mut [PortState]) -> Self {
        ProposalNode {
            level: node.input.level,
            occupied: node.input.token,
            initial_token: node.input.token,
            open_parents: 0,
            open_children: 0,
        }
    }

    fn round(
        &mut self,
        ctx: &RoundCtx,
        ports: &mut [PortState],
        inbox: &Inbox<'_, Msg>,
        outbox: &mut Outbox<'_, '_, Msg>,
    ) -> Status {
        let r = ctx.round;
        if r == 0 {
            if ports.is_empty() {
                // Isolated node: trivially stuck either way.
                return Status::Halt;
            }
            let flags = if self.occupied {
                HELLO | OCCUPIED
            } else {
                HELLO
            };
            outbox.broadcast(Msg {
                level: self.level,
                flags,
            });
            return Status::Continue;
        }

        // ---- Process the inbox, picking the smallest-id open requester
        // on the way.
        let nbrs = outbox.neighbor_ids();
        let mut became_occupied = false;
        let mut requester: Option<usize> = None;
        for (port, msg) in inbox.iter() {
            let i = port.idx();
            let f = msg.flags;
            if f & HELLO != 0 {
                let parent = msg.level == self.level + 1;
                ports[i].parent = parent;
                if parent {
                    self.open_parents += 1;
                } else {
                    self.open_children += 1;
                }
            }
            if f & (OCCUPIED | EMPTIED) != 0 && ports[i].parent {
                ports[i].parent_occupied = f & OCCUPIED != 0;
            }
            if f & GRANT != 0 {
                debug_assert!(!self.occupied, "granted while occupied");
                debug_assert!(ports[i].parent);
                self.occupied = true;
                became_occupied = true;
                self.close(ports, i);
                ports[i].consumed = true;
                ports[i].parent_occupied = false;
            }
            if f & GOODBYE != 0 {
                self.close(ports, i);
                ports[i].gone = true;
            }
            let p = ports[i];
            if f & REQUEST != 0 && p.open() && requester.is_none_or(|b| nbrs[i] < nbrs[b]) {
                debug_assert!(!p.parent);
                requester = Some(i);
            }
        }

        // ---- Act.
        let mut announce = 0;
        let mut request: Option<usize> = None;
        let mut grant: Option<usize> = None;
        if r % 2 == 1 {
            // Request phase.
            if became_occupied {
                announce = OCCUPIED;
            }
            if !self.occupied && self.open_parents > 0 {
                request = best_occupied_parent(ports, nbrs);
            }
        } else if self.occupied {
            // Grant phase (r >= 2).
            if let Some(i) = requester {
                self.close(ports, i);
                ports[i].consumed = true;
                ports[i].granted_at = one_shot_round(r);
                self.occupied = false;
                grant = Some(i);
                announce = EMPTIED;
            }
        }

        // ---- Termination.
        let die = if self.occupied {
            self.open_children == 0
        } else {
            self.open_parents == 0
        };

        // ---- Send: one message per port that has a flag to carry.
        if announce != 0 || request.is_some() || die {
            for (i, p) in ports.iter().enumerate() {
                let mut flags = 0;
                if !p.gone && !p.parent && Some(i) != grant {
                    flags |= announce;
                }
                if Some(i) == request {
                    flags |= REQUEST;
                }
                if Some(i) == grant {
                    flags |= GRANT;
                }
                if die && !p.gone {
                    flags |= GOODBYE;
                }
                if flags != 0 {
                    outbox.send(Port::from(i), Msg { level: 0, flags });
                }
            }
        }
        if die {
            Status::Halt
        } else {
            Status::Continue
        }
    }

    fn finish(self, ports: &[PortState]) -> NodeOutput {
        NodeOutput {
            initial_token: self.initial_token,
            final_token: self.occupied,
            grants: ports.iter().filter(|p| p.granted_at != 0).count() as u32,
        }
    }
}

/// Result of running the proposal protocol on the simulator.
#[derive(Clone, Debug)]
pub struct ProtocolRunResult {
    /// Reconstructed traversals.
    pub solution: Solution,
    /// Move log in *game rounds* (comm round / 2 − 1).
    pub log: MoveLog,
    /// Communication rounds until the last node halted.
    pub comm_rounds: u32,
    /// Total messages sent.
    pub messages: u64,
    /// Low-level executor work counters (perf telemetry plane).
    pub perf: td_local::ExecPerf,
    /// Per-round statistics, when the simulator had tracing enabled.
    pub trace: Option<Vec<td_local::RoundStats>>,
}

impl td_local::Summarize for ProtocolRunResult {
    fn summary(&self) -> td_local::RunSummary {
        td_local::RunSummary {
            rounds: self.comm_rounds,
            messages: self.messages,
        }
    }
}

/// Runs the protocol on `sim` and reconstructs the global solution.
///
/// # Panics
/// If the simulation hits the round cap before completing.
pub fn run_on_simulator(game: &TokenGame, sim: &Simulator) -> ProtocolRunResult {
    let ins = inputs(game);
    let outcome = sim.run_with(game.graph(), &ins, move_log);
    let log = outcome.outputs;
    let solution = Solution::from_moves(game, &log);
    ProtocolRunResult {
        solution,
        log,
        comm_rounds: outcome.rounds,
        messages: outcome.messages,
        perf: outcome.perf,
        trace: outcome.trace,
    }
}

/// Reads the move log off a finished run's port rows: a grant sent over a
/// port in comm round `r` is a move in game round `r / 2 - 1`, from the
/// node to the neighbor behind the port.
///
/// # Panics
/// If the run hit the round cap before completing.
pub fn move_log(done: Finished<'_, ProposalNode>) -> MoveLog {
    assert!(done.completed(), "proposal protocol hit the round cap");
    let g = done.graph();
    // Counting sort by game round. Nodes are visited in id order and grant
    // at most once per round, so each round's moves come out sorted by
    // source.
    let mut next = vec![0usize; (done.rounds() / 2) as usize];
    for v in g.nodes() {
        for p in done.node(v).1.iter().filter(|p| p.granted_at != 0) {
            debug_assert!(p.granted_at >= 2 && p.granted_at % 2 == 0);
            next[(p.granted_at / 2 - 1) as usize] += 1;
        }
    }
    let mut total = 0;
    for slot in &mut next {
        let count = *slot;
        *slot = total;
        total += count;
    }
    let blank = MoveEvent {
        round: 0,
        from: NodeId(0),
        to: NodeId(0),
    };
    let mut events = vec![blank; total];
    for v in g.nodes() {
        let row = done.node(v).1;
        for (p, &to) in row.iter().zip(g.neighbors(v)) {
            if p.granted_at == 0 {
                continue;
            }
            let round = p.granted_at / 2 - 1;
            let slot = &mut next[round as usize];
            events[*slot] = MoveEvent {
                round,
                from: v,
                to: NodeId(to),
            };
            *slot += 1;
        }
    }
    MoveLog { events }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lockstep;
    use crate::verify::{verify_dynamics, verify_solution};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use td_graph::CsrGraph;

    fn sorted_events(log: &MoveLog) -> Vec<(u32, u32, u32)> {
        let mut v: Vec<(u32, u32, u32)> = log
            .events
            .iter()
            .map(|e| (e.round, e.from.0, e.to.0))
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn protocol_solves_path() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let game = TokenGame::new(g, vec![0, 1, 2], vec![false, false, true]).unwrap();
        let res = run_on_simulator(&game, &Simulator::sequential());
        verify_solution(&game, &res.solution).unwrap();
        verify_dynamics(&game, &res.log).unwrap();
        assert_eq!(
            res.solution.traversals[0].path,
            vec![NodeId(2), NodeId(1), NodeId(0)]
        );
    }

    #[test]
    fn message_is_eight_bytes() {
        assert_eq!(std::mem::size_of::<Msg>(), 8);
    }

    #[test]
    fn protocol_solves_figure2() {
        let game = TokenGame::figure2();
        let res = run_on_simulator(&game, &Simulator::sequential());
        verify_solution(&game, &res.solution).unwrap();
        verify_dynamics(&game, &res.log).unwrap();
    }

    #[test]
    fn protocol_matches_lockstep_exactly() {
        let mut rng = SmallRng::seed_from_u64(42);
        for trial in 0..20 {
            let widths = [6, 8, 8, 6];
            let game = TokenGame::random(&widths, 3, 0.5, &mut rng);
            let proto = run_on_simulator(&game, &Simulator::sequential());
            let lock = lockstep::run(&game);
            assert_eq!(
                sorted_events(&proto.log),
                sorted_events(&lock.log),
                "trial {trial}: move sequences diverge"
            );
            // Comm rounds relate to game rounds by the 2x encoding plus the
            // hello round and bounded termination-detection lag.
            assert!(
                proto.comm_rounds as u64 <= 2 * lock.rounds as u64 + 4,
                "trial {trial}: comm {} vs game rounds {}",
                proto.comm_rounds,
                lock.rounds
            );
            assert!(
                proto.comm_rounds as u64 + 2 >= 2 * lock.rounds as u64,
                "trial {trial}: comm {} vs game rounds {}",
                proto.comm_rounds,
                lock.rounds
            );
        }
    }

    #[test]
    fn protocol_sequential_matches_the_dense_oracle() {
        let mut rng = SmallRng::seed_from_u64(43);
        let game = TokenGame::random(&[10, 12, 12, 10], 3, 0.5, &mut rng);
        let seq = run_on_simulator(&game, &Simulator::sequential());
        let dense = run_on_simulator(&game, &Simulator::dense());
        assert_eq!(seq.log, dense.log);
        assert_eq!(seq.comm_rounds, dense.comm_rounds);
        assert_eq!(seq.messages, dense.messages);
    }

    #[test]
    fn isolated_and_tokenless_nodes() {
        // v0 isolated with token; v1 isolated without; v2-v3 an edge, no tokens.
        let g = CsrGraph::from_edges(4, &[(2, 3)]).unwrap();
        let game = TokenGame::new(g, vec![0, 0, 0, 1], vec![true, false, false, false]).unwrap();
        let res = run_on_simulator(&game, &Simulator::sequential());
        verify_solution(&game, &res.solution).unwrap();
        assert_eq!(res.solution.traversals.len(), 1);
        assert_eq!(res.solution.traversals[0].path, vec![NodeId(0)]);
    }

    #[test]
    fn theorem_4_1_round_bound_on_protocol() {
        // Comm rounds ≤ 2 · c · L · Δ² for the instances we sweep.
        let mut rng = SmallRng::seed_from_u64(44);
        for &(w, levels, deg) in &[(8usize, 3usize, 2usize), (10, 4, 3)] {
            let widths = vec![w; levels];
            let game = TokenGame::random(&widths, deg, 0.5, &mut rng);
            let l = game.height() as u64;
            let d = game.max_degree() as u64;
            let res = run_on_simulator(&game, &Simulator::sequential());
            assert!(
                (res.comm_rounds as u64) <= 2 * (2 * l * d * d + l + d + 4) + 4,
                "comm rounds {} vs L={l}, Δ={d}",
                res.comm_rounds
            );
        }
    }
}
