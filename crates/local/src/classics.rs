//! Classic LOCAL-model protocols, reusable and extensively tested.
//!
//! These serve three purposes: (1) they validate the simulator against
//! algorithms with known round complexities, (2) they provide building
//! blocks for examples and tests elsewhere in the workspace, and (3) the
//! bipartite maximal-matching protocol is the standard O(Δ) algorithm
//! \[HKP98\] that the paper cites as the Θ(Δ) reference point for its own
//! lower bounds.

use crate::protocol::{Inbox, NodeInit, Outbox, Protocol, RoundCtx, Status};

/// BFS layering from a set of sources: every node outputs its hop distance
/// to the nearest source. Nodes announce every improvement; a node halts
/// once it has a distance and every neighbor has announced a distance that
/// cannot improve its own (`nbr + 1 >= mine`) — which holds exactly when
/// the wavefront has settled locally, so the protocol finishes in
/// (eccentricity + O(1)) rounds.
///
/// Contract: every connected component must contain a source (otherwise the
/// component never quiesces; the simulator's round cap applies).
pub struct BfsLayering {
    dist: u32,
    announced_dist: Option<u32>,
    nbr_dist: Vec<u32>,
}

impl Protocol for BfsLayering {
    type Input = bool; // is this node a source?
    type Message = u32;
    type Output = u32;

    fn init(node: NodeInit<'_, bool>) -> Self {
        BfsLayering {
            dist: if *node.input { 0 } else { u32::MAX },
            announced_dist: None,
            nbr_dist: vec![u32::MAX; node.degree()],
        }
    }

    fn round(
        &mut self,
        _ctx: &RoundCtx,
        inbox: &Inbox<'_, u32>,
        outbox: &mut Outbox<'_, '_, u32>,
    ) -> Status {
        if self.nbr_dist.is_empty() {
            return Status::Halt; // isolated node (a source or hopeless)
        }
        for (port, &d) in inbox.iter() {
            self.nbr_dist[port.idx()] = d;
            if d.saturating_add(1) < self.dist {
                self.dist = d + 1;
            }
        }
        if self.dist != u32::MAX && self.announced_dist != Some(self.dist) {
            outbox.broadcast(self.dist);
            self.announced_dist = Some(self.dist);
            return Status::Continue;
        }
        let settled = self.dist != u32::MAX
            && self
                .nbr_dist
                .iter()
                .all(|&d| d != u32::MAX && d.saturating_add(1) >= self.dist);
        if settled {
            Status::Halt
        } else {
            Status::Continue
        }
    }

    fn finish(self) -> u32 {
        self.dist
    }
}

/// The proposal-based bipartite maximal matching protocol \[HKP98-style\]:
/// left nodes propose to their lowest-id unmatched right neighbor; right
/// nodes accept the lowest-id proposal. Runs in O(Δ) rounds on bipartite
/// graphs. Outputs, per node, the id of its partner (or `u32::MAX`).
pub struct ProposalMatching {
    /// Side 0 = proposer (left), side 1 = acceptor (right).
    left: bool,
    matched_to: u32,
    /// Left: right neighbors that said "taken". Right: ports whose left
    /// neighbor said "done".
    dead: Vec<bool>,
    /// Proposal outstanding to this port (left side).
    pending: Option<usize>,
}

/// Message for [`ProposalMatching`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct MatchMsg {
    /// Left → right: proposal.
    pub propose: bool,
    /// Right → left: accepted (matched).
    pub accept: bool,
    /// Right → left: I am matched (to someone else); stop proposing.
    pub taken: bool,
    /// Left → right: I am finished (matched or exhausted); I will never
    /// propose again. Lets unmatched right nodes terminate.
    pub done: bool,
}

impl Protocol for ProposalMatching {
    type Input = bool; // true = left (proposer) side
    type Message = MatchMsg;
    type Output = u32;

    fn init(node: NodeInit<'_, bool>) -> Self {
        ProposalMatching {
            left: *node.input,
            matched_to: u32::MAX,
            dead: vec![false; node.degree()],
            pending: None,
        }
    }

    fn round(
        &mut self,
        _ctx: &RoundCtx,
        inbox: &Inbox<'_, MatchMsg>,
        outbox: &mut Outbox<'_, '_, MatchMsg>,
    ) -> Status {
        let deg = self.dead.len();
        if deg == 0 {
            return Status::Halt;
        }
        if self.left {
            let mut finished = false;
            for (port, msg) in inbox.iter() {
                let pi = port.idx();
                if msg.accept {
                    debug_assert_eq!(self.pending, Some(pi));
                    self.matched_to = pi as u32; // resolved to an id in finish()
                    finished = true;
                }
                if msg.taken {
                    self.dead[pi] = true;
                    if self.pending == Some(pi) {
                        self.pending = None;
                    }
                }
            }
            if !finished {
                if self.pending.is_some() {
                    return Status::Continue; // answer still in flight
                }
                // Propose to the first live right neighbor, if any.
                if let Some(i) = (0..deg).find(|&i| !self.dead[i]) {
                    outbox.send(
                        td_graph::Port::from(i),
                        MatchMsg {
                            propose: true,
                            ..MatchMsg::default()
                        },
                    );
                    self.pending = Some(i);
                    return Status::Continue;
                }
                finished = true; // every neighbor is taken
            }
            debug_assert!(finished);
            // Tell everyone we are done so unmatched right nodes can halt.
            outbox.broadcast(MatchMsg {
                done: true,
                ..MatchMsg::default()
            });
            Status::Halt
        } else {
            // Right side: accept the smallest proposer, reject the rest.
            let mut proposals: Vec<usize> = Vec::new();
            for (port, msg) in inbox.iter() {
                if msg.propose {
                    proposals.push(port.idx());
                }
                if msg.done {
                    self.dead[port.idx()] = true;
                }
            }
            if self.matched_to == u32::MAX {
                if let Some(&winner) = proposals.iter().min() {
                    self.matched_to = winner as u32;
                    outbox.send(
                        td_graph::Port::from(winner),
                        MatchMsg {
                            accept: true,
                            ..MatchMsg::default()
                        },
                    );
                    for &pi in proposals.iter().filter(|&&pi| pi != winner) {
                        outbox.send(
                            td_graph::Port::from(pi),
                            MatchMsg {
                                taken: true,
                                ..MatchMsg::default()
                            },
                        );
                    }
                    return Status::Continue;
                }
            } else {
                for &pi in &proposals {
                    outbox.send(
                        td_graph::Port::from(pi),
                        MatchMsg {
                            taken: true,
                            ..MatchMsg::default()
                        },
                    );
                }
            }
            // Halt once every left neighbor has finished.
            if self.dead.iter().all(|&d| d) {
                Status::Halt
            } else {
                Status::Continue
            }
        }
    }

    fn finish(self) -> u32 {
        self.matched_to
    }
}

/// Runs [`ProposalMatching`] on a bipartite graph and returns, per node,
/// the matched *node id* (or `u32::MAX`), plus the rounds used.
///
/// `left[v]` marks the proposer side. Right-side nodes that never receive
/// proposals halt via the round cap logic inside the protocol only when the
/// left side around them is exhausted; this helper runs with a cap of
/// `4Δ + 8` rounds and asserts completion.
pub fn run_proposal_matching(
    g: &td_graph::CsrGraph,
    left: &[bool],
    sim: &crate::Simulator,
) -> (Vec<u32>, u32) {
    let cap = (4 * g.max_degree() as u32) + 8;
    let sim = sim.with_max_rounds(cap);
    let outcome = sim.run::<ProposalMatching>(g, left);
    assert!(outcome.completed, "matching protocol hit the round cap");
    let mut result = vec![u32::MAX; g.num_nodes()];
    for v in g.nodes() {
        let port = outcome.outputs[v.idx()];
        if port != u32::MAX {
            result[v.idx()] = g.neighbors(v)[port as usize];
        }
    }
    // Consistency: matching must be symmetric.
    for v in 0..result.len() {
        let m = result[v];
        if m != u32::MAX {
            debug_assert_eq!(result[m as usize], v as u32, "asymmetric match");
        }
    }
    (result, outcome.rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use td_graph::gen::classic::{complete_bipartite, grid, path};
    use td_graph::gen::random::random_bipartite;
    use td_graph::NodeId;

    #[test]
    fn bfs_layering_matches_host_bfs() {
        let g = grid(5, 6);
        let mut sources = vec![false; 30];
        sources[0] = true;
        sources[17] = true;
        let out = Simulator::sequential().run::<BfsLayering>(&g, &sources);
        assert!(out.completed);
        // Host-side multi-source BFS.
        let d0 = td_graph::algo::bfs_distances(&g, NodeId(0));
        let d17 = td_graph::algo::bfs_distances(&g, NodeId(17));
        for v in 0..30 {
            assert_eq!(out.outputs[v], d0[v].min(d17[v]), "node {v}");
        }
    }

    #[test]
    fn bfs_rounds_bounded_by_diameter() {
        let g = path(40);
        let mut sources = vec![false; 40];
        sources[0] = true;
        let out = Simulator::sequential().run::<BfsLayering>(&g, &sources);
        assert!(out.completed);
        assert!(out.rounds <= 40 + 4);
        assert_eq!(out.outputs[39], 39);
    }

    #[test]
    fn matching_on_complete_bipartite() {
        let g = complete_bipartite(4, 4);
        let left: Vec<bool> = (0..8).map(|v| v < 4).collect();
        let (m, rounds) = run_proposal_matching(&g, &left, &Simulator::sequential());
        // Perfect matching on K_{4,4}.
        assert_eq!(m.iter().filter(|&&x| x != u32::MAX).count(), 8);
        assert!(rounds <= 4 * 4 + 8);
    }

    #[test]
    fn matching_is_maximal_on_random_bipartite() {
        let mut rng = SmallRng::seed_from_u64(404);
        for trial in 0..10 {
            let g = random_bipartite(25, 20, 1..=4, &mut rng);
            let left: Vec<bool> = (0..g.num_nodes()).map(|v| v < 25).collect();
            let (m, _) = run_proposal_matching(&g, &left, &Simulator::sequential());
            // Maximality: every edge has a matched endpoint.
            for (_, u, v) in g.edge_list() {
                assert!(
                    m[u.idx()] != u32::MAX || m[v.idx()] != u32::MAX,
                    "trial {trial}: edge {u}-{v} uncovered"
                );
            }
            // Validity: symmetric and along edges.
            for v in g.nodes() {
                let mv = m[v.idx()];
                if mv != u32::MAX {
                    assert!(g.has_edge(v, NodeId(mv)));
                    assert_eq!(m[mv as usize], v.0);
                }
            }
        }
    }

    #[test]
    fn matching_parallel_equivalent() {
        let mut rng = SmallRng::seed_from_u64(405);
        let g = random_bipartite(20, 15, 1..=3, &mut rng);
        let left: Vec<bool> = (0..g.num_nodes()).map(|v| v < 20).collect();
        let (a, ra) = run_proposal_matching(&g, &left, &Simulator::sequential());
        let (b, rb) = run_proposal_matching(&g, &left, &Simulator::dense());
        assert_eq!(a, b);
        assert_eq!(ra, rb);
    }
}
