//! The O(Δ) algorithm for token dropping games with three levels
//! (Section 4.3, Theorem 4.7).
//!
//! Level-1 nodes drive the process: every round, each unoccupied level-1
//! node **requests** a token from an occupied level-2 parent, and each
//! occupied level-1 node **proposes** its token to an unoccupied level-0
//! child. Level-2 nodes grant one request; level-0 nodes accept one
//! proposal. Level-2 nodes terminate as soon as they are unoccupied; level-0
//! nodes terminate once occupied (or out of parents); level-1 nodes follow
//! the general rule. The progress argument (each round some neighbor of a
//! busy level-1 node terminates) yields O(Δ) rounds.
//!
//! Both a lockstep engine and a message-passing [`td_local::PortProtocol`]
//! are provided; their move sequences are identical (all occupancy knowledge in
//! the 3-level game is *current* — level-2 nodes never gain tokens and
//! level-0 nodes terminate the moment they gain one, announcing it with the
//! goodbye that accompanies termination).

use crate::game::TokenGame;
use crate::proposal::one_shot_round;
use crate::solution::{MoveEvent, MoveLog, Solution};
use td_graph::{NodeId, Port};
use td_local::{Inbox, NodeInit, Outbox, PortProtocol, RoundCtx, Simulator, Status};

/// Result of the lockstep 3-level engine.
#[derive(Clone, Debug)]
pub struct ThreeLevelResult {
    /// Reconstructed traversals.
    pub solution: Solution,
    /// Move events, one batch per game round.
    pub log: MoveLog,
    /// Game rounds until all nodes terminated.
    pub rounds: u32,
}

/// Runs the 3-level algorithm in lockstep.
///
/// # Panics
/// If the game has height > 2 (i.e. uses levels other than 0, 1, 2), or does
/// not finish within the Theorem 4.7 budget (with a generous constant).
pub fn run_lockstep(game: &TokenGame) -> ThreeLevelResult {
    assert!(
        game.height() <= 2,
        "three-level algorithm requires levels ⊆ {{0, 1, 2}}"
    );
    let g = game.graph();
    let n = g.num_nodes();
    let d = game.max_degree() as u64;
    let max_rounds = (8 * (d + 8)).min(u32::MAX as u64) as u32;

    let mut occupied: Vec<bool> = (0..n).map(|v| game.has_token(NodeId::from(v))).collect();
    let mut consumed: Vec<bool> = vec![false; g.num_edges()];
    let mut alive: Vec<bool> = vec![true; n];
    let mut alive_count = n;
    let mut log = MoveLog::default();
    let mut rounds: u32 = 0;

    // grant_pick[v] (level 2): smallest requesting level-1 child.
    // accept_pick[c] (level 0): smallest proposing level-1 parent.
    let mut grant_pick: Vec<u32> = vec![u32::MAX; n];
    let mut accept_pick: Vec<u32> = vec![u32::MAX; n];

    while alive_count > 0 {
        assert!(
            rounds < max_rounds,
            "three-level lockstep exceeded {max_rounds} rounds"
        );

        // --- Phase A: level-1 nodes request upward / propose downward.
        for u in 0..n {
            if !alive[u] || game.level(NodeId::from(u)) != 1 {
                continue;
            }
            let node = NodeId::from(u);
            if !occupied[u] {
                // Request from the smallest-id occupied alive parent.
                let mut best: Option<NodeId> = None;
                for (p, parent) in game.parents(node) {
                    let e = g.edge_at(node, p);
                    if consumed[e.idx()] || !alive[parent.idx()] || !occupied[parent.idx()] {
                        continue;
                    }
                    if best.is_none_or(|b| parent < b) {
                        best = Some(parent);
                    }
                }
                if let Some(parent) = best {
                    let slot = &mut grant_pick[parent.idx()];
                    if *slot == u32::MAX || (u as u32) < *slot {
                        *slot = u as u32;
                    }
                }
            } else {
                // Propose to the smallest-id unoccupied alive child.
                let mut best: Option<NodeId> = None;
                for (p, child) in game.children(node) {
                    let e = g.edge_at(node, p);
                    if consumed[e.idx()] || !alive[child.idx()] || occupied[child.idx()] {
                        continue;
                    }
                    if best.is_none_or(|b| child < b) {
                        best = Some(child);
                    }
                }
                if let Some(child) = best {
                    let slot = &mut accept_pick[child.idx()];
                    if *slot == u32::MAX || (u as u32) < *slot {
                        *slot = u as u32;
                    }
                }
            }
        }

        // --- Phase B: grants (2 -> 1) and accepts (1 -> 0), simultaneous.
        let mut moves: Vec<(NodeId, NodeId)> = Vec::new();
        for v in 0..n {
            let child = grant_pick[v];
            grant_pick[v] = u32::MAX;
            if child != u32::MAX {
                moves.push((NodeId::from(v), NodeId(child)));
            }
            let proposer = accept_pick[v];
            accept_pick[v] = u32::MAX;
            if proposer != u32::MAX {
                moves.push((NodeId(proposer), NodeId::from(v)));
            }
        }
        for &(from, to) in &moves {
            let e = g.edge_between(from, to).expect("move along an edge");
            debug_assert!(!consumed[e.idx()]);
            debug_assert!(occupied[from.idx()] && !occupied[to.idx()]);
            consumed[e.idx()] = true;
            occupied[from.idx()] = false;
            occupied[to.idx()] = true;
            log.events.push(MoveEvent {
                round: rounds,
                from,
                to,
            });
        }

        // --- Termination sweep (start-of-round alive set; applied at once).
        let mut dying: Vec<usize> = Vec::new();
        for v in 0..n {
            if !alive[v] {
                continue;
            }
            let node = NodeId::from(v);
            let terminate = match game.level(node) {
                // Level 2: "as soon as they are unoccupied" (Section 4.3) —
                // plus the general rule for an occupied node whose children
                // are all gone (it can never pass its token; without this
                // the game would never terminate globally).
                2 => {
                    !occupied[v]
                        || !game
                            .children(node)
                            .any(|(p, c)| !consumed[g.edge_at(node, p).idx()] && alive[c.idx()])
                }
                0 => {
                    occupied[v]
                        || !game
                            .parents(node)
                            .any(|(p, par)| !consumed[g.edge_at(node, p).idx()] && alive[par.idx()])
                }
                _ => {
                    if occupied[v] {
                        !game
                            .children(node)
                            .any(|(p, c)| !consumed[g.edge_at(node, p).idx()] && alive[c.idx()])
                    } else {
                        !game
                            .parents(node)
                            .any(|(p, par)| !consumed[g.edge_at(node, p).idx()] && alive[par.idx()])
                    }
                }
            };
            if terminate {
                dying.push(v);
            }
        }
        for v in dying {
            alive[v] = false;
            alive_count -= 1;
        }
        rounds += 1;
    }

    let solution = Solution::from_moves(game, &log);
    ThreeLevelResult {
        solution,
        log,
        rounds,
    }
}

// ---------------------------------------------------------------------------
// Message-passing protocol
// ---------------------------------------------------------------------------

/// Message of the 3-level protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct Msg3 {
    /// Round-0 introduction: `(level, occupied)`.
    pub hello: Option<(u32, bool)>,
    /// Level-1 → level-2: request a token.
    pub request: bool,
    /// Level-2 → level-1: grant (consumes the edge).
    pub grant: bool,
    /// Level-1 → level-0: propose my token.
    pub propose: bool,
    /// Level-0 → level-1: accept your proposal (consumes the edge).
    pub accept: bool,
    /// Sender terminated.
    pub goodbye: bool,
}

/// One port's state, the node's entry for it in the port slab. Its
/// `Default` is the state every port starts in.
#[derive(Clone, Copy, Debug, Default)]
pub struct Port3 {
    is_parent: bool,
    /// The neighbor said goodbye.
    gone: bool,
    consumed: bool,
    /// Parent ports: parent occupancy. Child ports: child occupancy.
    other_occupied: bool,
    /// The comm round of the move this node sent over the port (a grant by
    /// level 2, an accepted proposal by level 1, whose move round is the
    /// acceptance round), or 0. A move consumes its edge, so a port carries
    /// at most one, and every move round is at least 2.
    moved_at: u32,
    /// The message this round sends on the port, if not `Msg3::default()`.
    out: Msg3,
}

impl Port3 {
    /// The edge is unconsumed and the neighbor has not said goodbye.
    fn open(self) -> bool {
        !self.gone && !self.consumed
    }
}

/// Per-node output of the 3-level protocol. The moves a node sent stay in
/// its port row, where [`run_protocol`] reads them.
#[derive(Clone, Copy, Debug)]
pub struct NodeOutput3 {
    /// Moves this node *sent* (grants by level-2, accepted proposals by
    /// level-1).
    pub moves_sent: u32,
    /// Whether the node ends up holding a token.
    pub final_token: bool,
}

/// Node state of the 3-level protocol.
pub struct ThreeLevelNode {
    level: u32,
    occupied: bool,
    /// Outstanding proposal port (level-1): set when proposing, cleared on
    /// the answer.
    pending_proposal: Option<usize>,
}

impl ThreeLevelNode {
    fn should_terminate(&self, ports: &[Port3]) -> bool {
        let open = |parent: bool| ports.iter().any(|p| p.open() && p.is_parent == parent);
        match self.level {
            // Unoccupied, or occupied with no children left (general rule).
            2 => !self.occupied || !open(false),
            0 => self.occupied || !open(true),
            _ => {
                if self.pending_proposal.is_some() {
                    // Waiting for an answer; the token may still move.
                    return false;
                }
                !open(!self.occupied)
            }
        }
    }
}

impl PortProtocol for ThreeLevelNode {
    type Input = super::proposal::TokenInput;
    type Message = Msg3;
    type Output = NodeOutput3;
    type Port = Port3;

    fn init(node: NodeInit<'_, super::proposal::TokenInput>, _: &mut [Port3]) -> Self {
        assert!(node.input.level <= 2, "3-level protocol needs levels 0..=2");
        ThreeLevelNode {
            level: node.input.level,
            occupied: node.input.token,
            pending_proposal: None,
        }
    }

    fn round(
        &mut self,
        ctx: &RoundCtx,
        ports: &mut [Port3],
        inbox: &Inbox<'_, Msg3>,
        outbox: &mut Outbox<'_, '_, Msg3>,
    ) -> Status {
        let r = ctx.round;
        if r == 0 {
            if ports.is_empty() {
                return Status::Halt;
            }
            outbox.broadcast(Msg3 {
                hello: Some((self.level, self.occupied)),
                ..Msg3::default()
            });
            return Status::Continue;
        }

        // ---- Process inbox, picking the smallest-id open requester and
        // the smallest-id proposer on the way (a port's state changes only
        // with its own message, so picking now sees what the acts below
        // see).
        let nbrs = outbox.neighbor_ids();
        let mut requester: Option<usize> = None;
        let mut proposer: Option<usize> = None;
        for (port, msg) in inbox.iter() {
            let pi = port.idx();
            let p = &mut ports[pi];
            if let Some((lvl, occ)) = msg.hello {
                p.is_parent = lvl == self.level + 1;
                p.other_occupied = occ;
            }
            if msg.grant {
                debug_assert!(self.level == 1 && !self.occupied);
                self.occupied = true;
                p.consumed = true;
                p.other_occupied = false;
            }
            if msg.accept {
                debug_assert!(self.level == 1 && self.occupied);
                debug_assert_eq!(self.pending_proposal, Some(pi));
                self.occupied = false;
                self.pending_proposal = None;
                p.consumed = true;
                // The move happened in the acceptance round (r - 1).
                p.moved_at = one_shot_round(r - 1);
            }
            if msg.goodbye {
                p.gone = true;
                // A terminated level-0 child is occupied (or unreachable);
                // either way it is gone, which is all the proposer needs.
            }
            if msg.request && p.open() && requester.is_none_or(|b| nbrs[pi] < nbrs[b]) {
                requester = Some(pi);
            }
            if msg.propose && proposer.is_none_or(|b| nbrs[pi] < nbrs[b]) {
                proposer = Some(pi);
            }
        }
        // A rejected proposal is detected by the child's goodbye.
        if let Some(pi) = self.pending_proposal {
            if ports[pi].gone && !ports[pi].consumed {
                self.pending_proposal = None;
            }
        }

        // ---- Act.
        for p in ports.iter_mut() {
            p.out = Msg3::default();
        }
        if r % 2 == 1 {
            // Phase A: level-1 requests / proposals.
            if self.level == 1 {
                // Unoccupied: request from an occupied parent. Occupied:
                // propose to an unoccupied child.
                let parent = !self.occupied;
                if parent || self.pending_proposal.is_none() {
                    let mut best: Option<usize> = None;
                    for (i, p) in ports.iter().enumerate() {
                        if p.open()
                            && p.is_parent == parent
                            && p.other_occupied == parent
                            && best.is_none_or(|b: usize| nbrs[i] < nbrs[b])
                        {
                            best = Some(i);
                        }
                    }
                    if let Some(i) = best {
                        if parent {
                            ports[i].out.request = true;
                        } else {
                            ports[i].out.propose = true;
                            self.pending_proposal = Some(i);
                        }
                    }
                }
            }
        } else {
            // Phase B: level-2 grants, level-0 accepts.
            if self.level == 2 && self.occupied {
                if let Some(i) = requester {
                    ports[i].out.grant = true;
                    ports[i].consumed = true;
                    ports[i].moved_at = one_shot_round(r);
                    self.occupied = false;
                }
            }
            if self.level == 0 && !self.occupied {
                if let Some(i) = proposer {
                    ports[i].out.accept = true;
                    ports[i].consumed = true;
                    self.occupied = true;
                    // The receiving side does not record the move; the
                    // proposer does (upon the accept), keeping each move
                    // single-sourced.
                }
            }
        }

        // ---- Termination.
        let die = self.should_terminate(ports);
        for (i, p) in ports.iter_mut().enumerate() {
            p.out.goodbye = die && !p.gone;
            if p.out != Msg3::default() {
                outbox.send(Port::from(i), p.out);
            }
        }
        if die {
            Status::Halt
        } else {
            Status::Continue
        }
    }

    fn finish(self, ports: &[Port3]) -> NodeOutput3 {
        NodeOutput3 {
            moves_sent: ports.iter().filter(|p| p.moved_at != 0).count() as u32,
            final_token: self.occupied,
        }
    }
}

/// Result of running the 3-level protocol on the simulator.
#[derive(Clone, Debug)]
pub struct ThreeLevelProtocolResult {
    /// Reconstructed traversals.
    pub solution: Solution,
    /// Move log in game rounds.
    pub log: MoveLog,
    /// Communication rounds until the last node halted.
    pub comm_rounds: u32,
    /// Total messages sent.
    pub messages: u64,
}

/// Runs the 3-level protocol and reconstructs the solution from the moves
/// recorded in the finished port rows.
pub fn run_protocol(game: &TokenGame, sim: &Simulator) -> ThreeLevelProtocolResult {
    assert!(game.height() <= 2);
    let ins = super::proposal::inputs(game);
    let outcome = sim.run_with::<ThreeLevelNode, _>(game.graph(), &ins, |done| {
        assert!(done.completed(), "3-level protocol hit the round cap");
        let g = done.graph();
        let mut events: Vec<MoveEvent> = Vec::new();
        for v in g.nodes() {
            for (p, &to) in done.node(v).1.iter().zip(g.neighbors(v)) {
                let r = p.moved_at;
                if r != 0 {
                    debug_assert!(r >= 2 && r % 2 == 0);
                    events.push(MoveEvent {
                        round: r / 2 - 1,
                        from: v,
                        to: NodeId(to),
                    });
                }
            }
        }
        events
    });
    let mut events = outcome.outputs;
    events.sort_by_key(|e| (e.round, e.from));
    let log = MoveLog { events };
    let solution = Solution::from_moves(game, &log);
    ThreeLevelProtocolResult {
        solution,
        log,
        comm_rounds: outcome.rounds,
        messages: outcome.messages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{verify_dynamics, verify_solution};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use td_graph::CsrGraph;

    fn random_3level(w: usize, deg: usize, density: f64, rng: &mut SmallRng) -> TokenGame {
        TokenGame::random(&[w, w, w], deg, density, rng)
    }

    #[test]
    fn lockstep_solves_small() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let game = TokenGame::new(g, vec![0, 1, 2], vec![false, false, true]).unwrap();
        let res = run_lockstep(&game);
        verify_solution(&game, &res.solution).unwrap();
        verify_dynamics(&game, &res.log).unwrap();
        assert_eq!(
            res.solution.traversals[0].path,
            vec![NodeId(2), NodeId(1), NodeId(0)]
        );
    }

    #[test]
    fn random_games_valid() {
        let mut rng = SmallRng::seed_from_u64(31);
        for trial in 0..30 {
            let game = random_3level(10, 3, 0.5, &mut rng);
            let res = run_lockstep(&game);
            verify_solution(&game, &res.solution).unwrap_or_else(|e| panic!("trial {trial}: {e}"));
            verify_dynamics(&game, &res.log).unwrap_or_else(|e| panic!("trial {trial}: {e}"));
        }
    }

    #[test]
    fn protocol_matches_lockstep() {
        let mut rng = SmallRng::seed_from_u64(32);
        for trial in 0..15 {
            let game = random_3level(8, 3, 0.5, &mut rng);
            let lock = run_lockstep(&game);
            let proto = run_protocol(&game, &Simulator::sequential());
            let key = |log: &MoveLog| {
                let mut v: Vec<(u32, u32, u32)> = log
                    .events
                    .iter()
                    .map(|e| (e.round, e.from.0, e.to.0))
                    .collect();
                v.sort_unstable();
                v
            };
            assert_eq!(key(&lock.log), key(&proto.log), "trial {trial}");
            verify_solution(&game, &proto.solution).unwrap();
        }
    }

    #[test]
    fn linear_round_bound_theorem_4_7() {
        // Rounds grow at most linearly in Δ (with a small constant).
        let mut rng = SmallRng::seed_from_u64(33);
        for &deg in &[2usize, 4, 8, 12] {
            let game = random_3level(3 * deg, deg, 0.6, &mut rng);
            let d = game.max_degree() as u32;
            let res = run_lockstep(&game);
            assert!(res.rounds <= 3 * d + 6, "rounds {} vs Δ = {d}", res.rounds);
        }
    }

    #[test]
    fn height_guard() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let game = TokenGame::new(g, vec![0, 1, 2, 3], vec![false; 4]).unwrap();
        let result = std::panic::catch_unwind(|| run_lockstep(&game));
        assert!(result.is_err());
    }

    #[test]
    fn two_level_games_also_work() {
        // Height-1 games are a special case (no level-2 nodes at all).
        let mut rng = SmallRng::seed_from_u64(34);
        let game = TokenGame::random(&[6, 10], 2, 0.7, &mut rng);
        let res = run_lockstep(&game);
        verify_solution(&game, &res.solution).unwrap();
        let proto = run_protocol(&game, &Simulator::sequential());
        verify_solution(&game, &proto.solution).unwrap();
    }
}
