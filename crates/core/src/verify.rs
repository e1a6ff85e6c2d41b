//! Independent verifiers for token dropping outputs.
//!
//! [`verify_solution`] checks the paper's three output rules against an
//! instance; [`verify_dynamics`] replays a [`MoveLog`] and checks the game's
//! *temporal* rules (tokens only move down along unconsumed edges into
//! unoccupied nodes). Verifiers share no code with the solvers.

use crate::game::TokenGame;
use crate::solution::{MoveLog, Solution};
use td_graph::NodeId;

/// A violation of the token dropping output specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// The number of traversals differs from the number of tokens.
    WrongTraversalCount {
        /// Traversals present in the solution.
        got: usize,
        /// Tokens in the instance.
        expected: usize,
    },
    /// A traversal does not start on a node that initially holds a token.
    OriginHasNoToken(NodeId),
    /// Two traversals start at the same node.
    DuplicateOrigin(NodeId),
    /// Consecutive path nodes are not joined by an edge.
    NotAnEdge(NodeId, NodeId),
    /// A path step does not descend exactly one level.
    NotDescending(NodeId, NodeId),
    /// Rule (1): an edge is used by two traversals (or twice by one).
    EdgeReused(NodeId, NodeId),
    /// Rule (2): two traversals share a destination.
    DuplicateDestination(NodeId),
    /// Rule (3): a destination has an unconsumed edge to an unoccupied child.
    NotMaximal {
        /// The stuck token's node.
        destination: NodeId,
        /// The unoccupied child it could still move to.
        child: NodeId,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::WrongTraversalCount { got, expected } => {
                write!(f, "{got} traversals for {expected} tokens")
            }
            Violation::OriginHasNoToken(v) => write!(f, "traversal origin {v} has no token"),
            Violation::DuplicateOrigin(v) => write!(f, "two traversals start at {v}"),
            Violation::NotAnEdge(u, v) => write!(f, "path step {u} -> {v} is not an edge"),
            Violation::NotDescending(u, v) => {
                write!(f, "path step {u} -> {v} does not descend one level")
            }
            Violation::EdgeReused(u, v) => write!(f, "edge {{{u}, {v}}} used twice"),
            Violation::DuplicateDestination(v) => write!(f, "two traversals end at {v}"),
            Violation::NotMaximal { destination, child } => write!(
                f,
                "token stuck at {destination} could still move to unoccupied child {child}"
            ),
        }
    }
}

impl std::error::Error for Violation {}

/// Checks a solution against the instance: every token has exactly one
/// traversal; paths follow edges downward; rules (1) edge-disjointness,
/// (2) unique destinations, and (3) maximality.
pub fn verify_solution(game: &TokenGame, sol: &Solution) -> Result<(), Violation> {
    let expected = game.token_count();
    if sol.traversals.len() != expected {
        return Err(Violation::WrongTraversalCount {
            got: sol.traversals.len(),
            expected,
        });
    }

    let n = game.num_nodes();
    let mut origins = vec![false; n];
    let mut destinations = vec![false; n];
    let mut used_edges = vec![false; game.graph().num_edges()];

    for t in &sol.traversals {
        let origin = t.origin();
        if !game.has_token(origin) {
            return Err(Violation::OriginHasNoToken(origin));
        }
        if std::mem::replace(&mut origins[origin.idx()], true) {
            return Err(Violation::DuplicateOrigin(origin));
        }
        for w in t.path.windows(2) {
            let (from, to) = (w[0], w[1]);
            let Some(e) = game.graph().edge_between(from, to) else {
                return Err(Violation::NotAnEdge(from, to));
            };
            if game.level(from) != game.level(to) + 1 {
                return Err(Violation::NotDescending(from, to));
            }
            if std::mem::replace(&mut used_edges[e.idx()], true) {
                return Err(Violation::EdgeReused(from, to));
            }
        }
        let dest = t.destination();
        if std::mem::replace(&mut destinations[dest.idx()], true) {
            return Err(Violation::DuplicateDestination(dest));
        }
    }

    // Rule (3): maximality. Every destination must have no unconsumed edge
    // to an unoccupied child. (Final occupancy == the destination set, since
    // every token has a traversal and destinations are unique.)
    for t in &sol.traversals {
        let dest = t.destination();
        for (p, child) in game.children(dest) {
            let e = game.graph().edge_at(dest, p);
            if !used_edges[e.idx()] && !destinations[child.idx()] {
                return Err(Violation::NotMaximal {
                    destination: dest,
                    child,
                });
            }
        }
    }
    Ok(())
}

/// A violation of the temporal dynamics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DynamicsViolation {
    /// Move from a node that holds no token at that time.
    SourceEmpty(NodeId),
    /// Move into a node that holds a token at that time.
    TargetOccupied(NodeId),
    /// Move along a non-edge or not one level down.
    IllegalStep(NodeId, NodeId),
    /// The same edge is traversed twice.
    EdgeConsumedTwice(NodeId, NodeId),
    /// A node both sends and receives within one round.
    SendReceiveSameRound(NodeId),
    /// Events are not sorted by round.
    UnsortedLog,
}

impl std::fmt::Display for DynamicsViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DynamicsViolation::SourceEmpty(v) => write!(f, "move from empty node {v}"),
            DynamicsViolation::TargetOccupied(v) => write!(f, "move into occupied node {v}"),
            DynamicsViolation::IllegalStep(u, v) => write!(f, "illegal step {u} -> {v}"),
            DynamicsViolation::EdgeConsumedTwice(u, v) => {
                write!(f, "edge {{{u}, {v}}} consumed twice")
            }
            DynamicsViolation::SendReceiveSameRound(v) => {
                write!(f, "{v} both sends and receives in one round")
            }
            DynamicsViolation::UnsortedLog => write!(f, "move log not sorted by round"),
        }
    }
}

impl std::error::Error for DynamicsViolation {}

/// Replays the move log against the instance and checks the game's dynamic
/// rules: each move goes one level down along an unconsumed edge, from an
/// occupied node to a node unoccupied at the start of the round, and no node
/// both sends and receives in one round (our engines are move-synchronous).
pub fn verify_dynamics(game: &TokenGame, log: &MoveLog) -> Result<(), DynamicsViolation> {
    let n = game.num_nodes();
    let mut occupied: Vec<bool> = (0..n).map(|v| game.has_token(NodeId::from(v))).collect();
    let mut consumed = vec![false; game.graph().num_edges()];
    // source_batch[v] == b: v sends a token in batch b (1-based, so the
    // zeroed array marks no node).
    let mut source_batch = vec![0u32; n];

    let mut i = 0;
    let mut batch_no = 0u32;
    let events = &log.events;
    while i < events.len() {
        let r = events[i].round;
        let mut j = i;
        while j < events.len() && events[j].round == r {
            j += 1;
        }
        if j < events.len() && events[j].round < r {
            return Err(DynamicsViolation::UnsortedLog);
        }
        let batch = &events[i..j];
        batch_no += 1;
        // No node may appear as both source and destination in one round.
        // (Out-of-range ids are left to the checks below.)
        for e in batch {
            if let Some(b) = source_batch.get_mut(e.from.idx()) {
                *b = batch_no;
            }
        }
        for e in batch {
            if source_batch.get(e.to.idx()) == Some(&batch_no) {
                return Err(DynamicsViolation::SendReceiveSameRound(e.to));
            }
        }
        // Validate against pre-round occupancy, then apply.
        for e in batch {
            if !occupied[e.from.idx()] {
                return Err(DynamicsViolation::SourceEmpty(e.from));
            }
            if occupied[e.to.idx()] {
                return Err(DynamicsViolation::TargetOccupied(e.to));
            }
            let Some(edge) = game.graph().edge_between(e.from, e.to) else {
                return Err(DynamicsViolation::IllegalStep(e.from, e.to));
            };
            if game.level(e.from) != game.level(e.to) + 1 {
                return Err(DynamicsViolation::IllegalStep(e.from, e.to));
            }
            if std::mem::replace(&mut consumed[edge.idx()], true) {
                return Err(DynamicsViolation::EdgeConsumedTwice(e.from, e.to));
            }
        }
        for e in batch {
            occupied[e.from.idx()] = false;
            occupied[e.to.idx()] = true;
        }
        i = j;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solution::{MoveEvent, Traversal};
    use td_graph::CsrGraph;

    fn path_game() -> TokenGame {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        TokenGame::new(g, vec![0, 1, 2], vec![false, false, true]).unwrap()
    }

    #[test]
    fn accepts_full_drop() {
        let game = path_game();
        let sol = Solution {
            traversals: vec![Traversal {
                path: vec![NodeId(2), NodeId(1), NodeId(0)],
            }],
        };
        verify_solution(&game, &sol).unwrap();
    }

    #[test]
    fn rejects_non_maximal() {
        let game = path_game();
        // Token stops at v1 but the edge v1-v0 is unconsumed and v0 empty.
        let sol = Solution {
            traversals: vec![Traversal {
                path: vec![NodeId(2), NodeId(1)],
            }],
        };
        assert_eq!(
            verify_solution(&game, &sol),
            Err(Violation::NotMaximal {
                destination: NodeId(1),
                child: NodeId(0)
            })
        );
    }

    #[test]
    fn rejects_stationary_when_movable() {
        let game = path_game();
        let sol = Solution {
            traversals: vec![Traversal {
                path: vec![NodeId(2)],
            }],
        };
        assert!(matches!(
            verify_solution(&game, &sol),
            Err(Violation::NotMaximal { .. })
        ));
    }

    #[test]
    fn rejects_wrong_count_and_origin() {
        let game = path_game();
        let sol = Solution { traversals: vec![] };
        assert_eq!(
            verify_solution(&game, &sol),
            Err(Violation::WrongTraversalCount {
                got: 0,
                expected: 1
            })
        );
        let sol = Solution {
            traversals: vec![Traversal {
                path: vec![NodeId(1), NodeId(0)],
            }],
        };
        assert_eq!(
            verify_solution(&game, &sol),
            Err(Violation::OriginHasNoToken(NodeId(1)))
        );
    }

    #[test]
    fn rejects_ascending_and_non_edges() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let game = TokenGame::new(g, vec![0, 1, 2, 3], vec![false, true, true, false]).unwrap();
        // Ascending step 1 -> 2.
        let sol = Solution {
            traversals: vec![
                Traversal {
                    path: vec![NodeId(1), NodeId(2)],
                },
                Traversal {
                    path: vec![NodeId(2)],
                },
            ],
        };
        assert!(matches!(
            verify_solution(&game, &sol),
            Err(Violation::NotDescending(..)) | Err(Violation::DuplicateDestination(_))
        ));
        // Non-edge jump 2 -> 0.
        let sol = Solution {
            traversals: vec![
                Traversal {
                    path: vec![NodeId(1), NodeId(0)],
                },
                Traversal {
                    path: vec![NodeId(2), NodeId(0)],
                },
            ],
        };
        assert!(matches!(
            verify_solution(&game, &sol),
            Err(Violation::NotAnEdge(..)) | Err(Violation::DuplicateDestination(_))
        ));
    }

    #[test]
    fn rejects_duplicate_destination_and_edge_reuse() {
        // Diamond: v3 (l2) over v1, v2 (l1) over v0 (l0); tokens on v1, v2...
        // Simpler: two tokens both claiming v0.
        let g = CsrGraph::from_edges(3, &[(0, 1), (0, 2)]).unwrap();
        let game = TokenGame::new(g, vec![0, 1, 1], vec![false, true, true]).unwrap();
        let sol = Solution {
            traversals: vec![
                Traversal {
                    path: vec![NodeId(1), NodeId(0)],
                },
                Traversal {
                    path: vec![NodeId(2), NodeId(0)],
                },
            ],
        };
        assert_eq!(
            verify_solution(&game, &sol),
            Err(Violation::DuplicateDestination(NodeId(0)))
        );
        // Edge reuse needs the same edge twice.
        let g = CsrGraph::from_edges(2, &[(0, 1)]).unwrap();
        let game = TokenGame::new(g, vec![0, 1], vec![false, true]).unwrap();
        let sol = Solution {
            traversals: vec![Traversal {
                path: vec![NodeId(1), NodeId(0), NodeId(1)],
            }],
        };
        // Path 1 -> 0 -> 1: second step ascends, caught as NotDescending
        // before reuse; build a reuse via duplicate origins instead is
        // blocked earlier. So check the reuse branch with two tokens sharing
        // an edge is impossible in a path; assert the ascent error here.
        assert!(matches!(
            verify_solution(&game, &sol),
            Err(Violation::NotDescending(..))
        ));
    }

    #[test]
    fn dynamics_accepts_valid_replay() {
        let game = path_game();
        let log = MoveLog {
            events: vec![
                MoveEvent {
                    round: 0,
                    from: NodeId(2),
                    to: NodeId(1),
                },
                MoveEvent {
                    round: 1,
                    from: NodeId(1),
                    to: NodeId(0),
                },
            ],
        };
        verify_dynamics(&game, &log).unwrap();
    }

    #[test]
    fn dynamics_rejects_into_occupied() {
        let g = CsrGraph::from_edges(3, &[(0, 2), (1, 2)]).unwrap();
        // v2 at level 1 with token; v0, v1 level 0; v0 occupied.
        let game = TokenGame::new(g, vec![0, 0, 1], vec![true, false, true]).unwrap();
        let log = MoveLog {
            events: vec![MoveEvent {
                round: 0,
                from: NodeId(2),
                to: NodeId(0),
            }],
        };
        assert_eq!(
            verify_dynamics(&game, &log),
            Err(DynamicsViolation::TargetOccupied(NodeId(0)))
        );
    }

    #[test]
    fn dynamics_rejects_send_receive_same_round() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let game = TokenGame::new(g, vec![0, 1, 2], vec![false, true, true]).unwrap();
        let log = MoveLog {
            events: vec![
                MoveEvent {
                    round: 0,
                    from: NodeId(1),
                    to: NodeId(0),
                },
                MoveEvent {
                    round: 0,
                    from: NodeId(2),
                    to: NodeId(1),
                },
            ],
        };
        assert_eq!(
            verify_dynamics(&game, &log),
            Err(DynamicsViolation::SendReceiveSameRound(NodeId(1)))
        );
    }

    #[test]
    fn dynamics_rejects_edge_reuse() {
        let g = CsrGraph::from_edges(2, &[(0, 1)]).unwrap();
        let game = TokenGame::new(g, vec![0, 1], vec![false, true]).unwrap();
        let log = MoveLog {
            events: vec![
                MoveEvent {
                    round: 0,
                    from: NodeId(1),
                    to: NodeId(0),
                },
                // Illegally teleport the token back up for the test by
                // writing a bogus second event; reuse check fires only if
                // the step is otherwise legal, so use SourceEmpty ordering:
                MoveEvent {
                    round: 1,
                    from: NodeId(1),
                    to: NodeId(0),
                },
            ],
        };
        // Second move: v1 is empty now.
        assert_eq!(
            verify_dynamics(&game, &log),
            Err(DynamicsViolation::SourceEmpty(NodeId(1)))
        );
    }
}
