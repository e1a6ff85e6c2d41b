//! Incremental repair of stable orientations under churn.
//!
//! This is the dynamic regime the paper's Section 1.1 motivates: once an
//! orientation is *stable*, a single instance update (an adversarial edge
//! flip, an edge insertion or deletion) creates unhappiness only in the
//! immediate neighborhood of the change, so the repair can restart the
//! distributed protocol **from the dirtied nodes only** instead of
//! recomputing from scratch — avoiding the Θ(n) cascade that an
//! arbitrary-start baseline suffers (the `cascade-orientation` scenario).
//!
//! ## The repair protocol
//!
//! [`OrientRepairNode`] is a deterministic, message-driven flip protocol in
//! the LOCAL model, run on the wake-based [`ChurnSim`] executor. Rounds are
//! grouped into 3-phase cycles:
//!
//! * **phase 0 (propose)** — nodes refresh cached neighbor loads from
//!   incoming `Load` messages; every *head-role* node picks its worst
//!   unhappy in-edge whose tail is tail-role this cycle and proposes to
//!   flip it (the proposal carries the proposer's true load);
//! * **phase 1 (accept)** — every tail-role node accepts the best valid
//!   proposal (re-validated against its own true load: badness ≥ 2) and
//!   commits its side of the flip;
//! * **phase 2 (commit)** — an accepted proposer commits its side; both
//!   endpoints broadcast their new loads, waking exactly the neighborhood
//!   that must re-check happiness.
//!
//! Roles are a deterministic function of the node identifier and the cycle
//! number ([`split_role`]: bit `(cycle/2) mod ceil(log2 n)` of the id, with
//! alternating polarity), so any two distinct ids take opposite roles in
//! some cycle of every `2·ceil(log2 n)`-cycle window — the standard
//! coin-flip symmetry breaking of the
//! \[CHSW12\]-style baseline, derandomized. Accepted flips are node-disjoint
//! within a cycle and each strictly decreases the Σ load² potential by ≥ 2,
//! so the dynamics terminate; quiescence implies every cached load is exact
//! and no edge is unhappy, i.e. the orientation is stable.
//!
//! Because an idle node's step is a no-op (it sends nothing and goes back
//! to sleep), restarting from the dirty set and restarting from *all* nodes
//! ([`RepairMode::FullRecompute`]) produce bit-identical orientations,
//! rounds, and message counts — only the node-step count differs. The
//! differential tests exploit exactly this.

use crate::orientation::Orientation;
use td_graph::{CsrGraph, GraphBuilder, NodeId, Port};
use td_local::churn::{
    id_bits, split_role, ChurnError, ChurnEvent, ChurnSim, RepairMode, RepairStats,
};
use td_local::{Inbox, NodeInit, Outbox, Protocol, RoundCtx, Status};

/// Rounds per propose/accept/commit cycle.
const PHASES: u64 = 3;

/// Message kinds of the repair protocol.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum MsgKind {
    /// Unused slot filler (never observed as a delivered message).
    #[default]
    None,
    /// "My load is now `load`" — cache refresh, wakes the receiver.
    Load,
    /// "Flip the edge between us toward you; my load is `load`."
    Propose,
    /// "Proposal granted."
    Accept,
}

/// One repair-protocol message.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairMsg {
    kind: MsgKind,
    load: u32,
}

/// Host-provided per-node input: the node's converged view of the
/// orientation (its incident edge directions, its load, its neighbors'
/// loads).
#[derive(Clone, Debug)]
pub struct RepairInput {
    /// For each port: is the edge oriented toward me?
    pub toward_me: Vec<bool>,
    /// My load (in-degree).
    pub load: u32,
    /// Cached loads of my neighbors, by port.
    pub nbr_load: Vec<u32>,
    /// If set, broadcast my load on the first step (the host perturbed my
    /// state and my neighbors' caches are stale).
    pub announce: bool,
    /// Identifier bits of the role schedule (`ceil(log2 n)`, known-n LOCAL
    /// — the same flavour of global knowledge as the known-Δ budgets).
    pub id_bits: u32,
}

/// Node state of the deterministic repair protocol.
pub struct OrientRepairNode {
    id: u32,
    id_bits: u32,
    nbr_ids: Vec<u32>,
    toward_me: Vec<bool>,
    load: u32,
    nbr_load: Vec<u32>,
    announce: bool,
    /// Port of my outstanding proposal this cycle.
    proposed: Option<Port>,
    /// I accepted a proposal this cycle and must broadcast my new load.
    committed: bool,
}

impl OrientRepairNode {
    /// Badness of the in-edge on `port` per my caches (I am the head).
    #[inline]
    fn badness(&self, port: usize) -> i64 {
        self.load as i64 - self.nbr_load[port] as i64
    }

    /// True if any in-edge is unhappy per my caches.
    fn any_unhappy(&self) -> bool {
        (0..self.toward_me.len()).any(|p| self.toward_me[p] && self.badness(p) >= 2)
    }

    /// The per-port orientation this node ended with (true = toward me).
    pub fn snapshot(&self) -> (&[bool], u32) {
        (&self.toward_me, self.load)
    }

    fn refresh_caches(&mut self, inbox: &Inbox<'_, RepairMsg>) {
        for (p, m) in inbox.iter() {
            // Proposals double as load carriers: a proposing head overwrote
            // its broadcast slot on this port, so take the load from either.
            if m.kind == MsgKind::Load || m.kind == MsgKind::Propose {
                self.nbr_load[p.idx()] = m.load;
            }
        }
    }
}

impl Protocol for OrientRepairNode {
    type Input = RepairInput;
    type Message = RepairMsg;
    type Output = (Vec<bool>, u32);

    fn init(node: NodeInit<'_, RepairInput>) -> Self {
        debug_assert_eq!(node.input.toward_me.len(), node.degree());
        debug_assert_eq!(node.input.nbr_load.len(), node.degree());
        OrientRepairNode {
            id: node.id.0,
            id_bits: node.input.id_bits,
            nbr_ids: node.neighbor_ids.to_vec(),
            toward_me: node.input.toward_me.clone(),
            load: node.input.load,
            nbr_load: node.input.nbr_load.clone(),
            announce: node.input.announce,
            proposed: None,
            committed: false,
        }
    }

    fn round(
        &mut self,
        ctx: &RoundCtx,
        inbox: &Inbox<'_, RepairMsg>,
        outbox: &mut Outbox<'_, '_, RepairMsg>,
    ) -> Status {
        let phase = ctx.round % PHASES;
        let cycle = ctx.round / PHASES;
        // Housekeeping that is phase-independent: repairs may start at any
        // phase (the round counter persists across events), so cache
        // refreshes and host-requested announcements must not wait for the
        // next cycle boundary.
        self.refresh_caches(inbox);
        if self.announce {
            self.announce = false;
            outbox.broadcast(RepairMsg {
                kind: MsgKind::Load,
                load: self.load,
            });
        }
        match phase {
            0 => {
                self.proposed = None;
                if split_role(self.id, cycle, self.id_bits) {
                    // Worst unhappy in-edge whose tail is tail-role this
                    // cycle; ties broken toward the smaller tail id.
                    let mut best: Option<(i64, u32, usize)> = None;
                    for p in 0..self.toward_me.len() {
                        if !self.toward_me[p] {
                            continue;
                        }
                        let b = self.badness(p);
                        let tail = self.nbr_ids[p];
                        if b < 2 || split_role(tail, cycle, self.id_bits) {
                            continue;
                        }
                        if best.is_none_or(|(bb, bt, _)| b > bb || (b == bb && tail < bt)) {
                            best = Some((b, tail, p));
                        }
                    }
                    if let Some((_, _, p)) = best {
                        outbox.send(
                            Port::from(p),
                            RepairMsg {
                                kind: MsgKind::Propose,
                                load: self.load,
                            },
                        );
                        self.proposed = Some(Port::from(p));
                    }
                }
                if self.proposed.is_some() || self.any_unhappy() {
                    Status::Continue
                } else {
                    Status::Halt
                }
            }
            1 => {
                // Tail side: accept the best valid proposal, re-validated
                // against my own true load (badness = proposer's true load
                // minus mine must still be ≥ 2).
                let mut best: Option<(i64, u32, Port)> = None;
                for (p, m) in inbox.iter() {
                    if m.kind != MsgKind::Propose {
                        continue;
                    }
                    let b = m.load as i64 - self.load as i64;
                    let proposer = self.nbr_ids[p.idx()];
                    if b < 2 {
                        continue;
                    }
                    if best.is_none_or(|(bb, bp, _)| b > bb || (b == bb && proposer < bp)) {
                        best = Some((b, proposer, p));
                    }
                }
                if let Some((_, _, p)) = best {
                    outbox.send(
                        p,
                        RepairMsg {
                            kind: MsgKind::Accept,
                            load: 0,
                        },
                    );
                    // Commit my side: the edge now points at me; the head
                    // will decrement itself on receiving the accept.
                    self.toward_me[p.idx()] = true;
                    self.load += 1;
                    self.nbr_load[p.idx()] -= 1;
                    self.committed = true;
                }
                if self.committed || self.proposed.is_some() || self.any_unhappy() {
                    Status::Continue
                } else {
                    Status::Halt
                }
            }
            _ => {
                if let Some(p) = self.proposed.take() {
                    if matches!(inbox.get(p), Some(m) if m.kind == MsgKind::Accept) {
                        // Head side of the flip: edge leaves me.
                        self.toward_me[p.idx()] = false;
                        self.load -= 1;
                        self.nbr_load[p.idx()] += 1;
                        outbox.broadcast(RepairMsg {
                            kind: MsgKind::Load,
                            load: self.load,
                        });
                    }
                }
                if self.committed {
                    self.committed = false;
                    outbox.broadcast(RepairMsg {
                        kind: MsgKind::Load,
                        load: self.load,
                    });
                }
                if self.any_unhappy() {
                    Status::Continue
                } else {
                    Status::Halt
                }
            }
        }
    }

    fn finish(self) -> (Vec<bool>, u32) {
        (self.toward_me, self.load)
    }
}

/// A live orientation instance under churn: applies [`ChurnEvent`]s and
/// repairs stability incrementally (or via the full-recompute fallback).
pub struct OrientChurnEngine {
    sim: ChurnSim<OrientRepairNode>,
    orientation: Orientation,
    mode: RepairMode,
    max_rounds: u32,
    /// Work counters of sims retired by topology rebuilds (the live sim's
    /// share is read on demand; see [`OrientChurnEngine::exec_perf`]).
    perf_retired: td_local::ExecPerf,
}

impl OrientChurnEngine {
    /// Builds an engine over a complete (not necessarily stable)
    /// orientation. Call [`OrientChurnEngine::stabilize`] to reach the
    /// first stable state before applying events.
    pub fn new(graph: CsrGraph, orientation: Orientation, mode: RepairMode) -> Self {
        assert!(
            orientation.fully_oriented(),
            "churn engine needs a complete orientation"
        );
        let sim = ChurnSim::new(graph.clone(), &Self::inputs(&graph, &orientation));
        OrientChurnEngine {
            sim,
            orientation,
            mode,
            max_rounds: 10_000_000,
            perf_retired: td_local::ExecPerf::default(),
        }
    }

    /// Caps the rounds of a single repair run.
    pub fn with_max_rounds(mut self, max_rounds: u32) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Lifetime [`td_local::ExecPerf`] work counters over every repair this
    /// engine has run, including sims retired by topology rebuilds.
    pub fn exec_perf(&self) -> td_local::ExecPerf {
        let mut p = self.perf_retired;
        p.absorb(self.sim.exec_perf());
        p
    }

    fn inputs(graph: &CsrGraph, orientation: &Orientation) -> Vec<RepairInput> {
        let bits = id_bits(graph.num_nodes());
        graph
            .nodes()
            .map(|v| RepairInput {
                toward_me: (0..graph.degree(v))
                    .map(|p| orientation.head(graph.edge_at(v, Port::from(p))) == Some(v))
                    .collect(),
                load: orientation.load(v),
                nbr_load: graph
                    .neighbors(v)
                    .iter()
                    .map(|&u| orientation.load(NodeId(u)))
                    .collect(),
                announce: false,
                id_bits: bits,
            })
            .collect()
    }

    /// The current (maintained) orientation.
    pub fn orientation(&self) -> &Orientation {
        &self.orientation
    }

    /// The current instance graph.
    pub fn graph(&self) -> &CsrGraph {
        self.sim.graph()
    }

    /// Verifies the maintained orientation is stable.
    pub fn verify(&self) -> Result<(), crate::orientation::UnhappyEdge> {
        self.orientation.verify_stable(self.sim.graph())
    }

    /// Wakes the heads of all currently unhappy edges (or everyone, under
    /// [`RepairMode::FullRecompute`]) and runs to quiescence — used both to
    /// reach the first stable state and as the repair step after events.
    pub fn stabilize(&mut self) -> RepairStats {
        let heads: Vec<NodeId> = {
            let g = self.sim.graph();
            self.orientation
                .unhappy_edges(g)
                .filter_map(|e| self.orientation.head(e))
                .collect()
        };
        self.wake_dirty(&heads);
        self.run_repair()
    }

    /// Applies one event and repairs. Returns the repair cost.
    pub fn apply(&mut self, event: &ChurnEvent) -> Result<RepairStats, ChurnError> {
        match *event {
            ChurnEvent::EdgeFlip { u, v } => self.apply_flip(u, v),
            ChurnEvent::EdgeInsert { u, v } => self.apply_insert(u, v),
            ChurnEvent::EdgeDelete { u, v } => self.apply_delete(u, v),
            _ => Err(ChurnError::Unsupported("orientation")),
        }
    }

    fn apply_flip(&mut self, u: NodeId, v: NodeId) -> Result<RepairStats, ChurnError> {
        let g = self.sim.graph();
        let Some(e) = g.edge_between(u, v) else {
            return Err(ChurnError::NoSuchEntity(format!("edge {{{u}, {v}}}")));
        };
        let pu = g.port_of(u, e).expect("endpoint port");
        let pv = g.port_of(v, e).expect("endpoint port");
        self.orientation.flip(g, e);
        let (lu, lv) = (self.orientation.load(u), self.orientation.load(v));
        // Host-side perturbation of the two endpoint states; their
        // neighbors learn the new loads through the announce broadcasts.
        {
            let su = self.sim.state_mut(u);
            su.toward_me[pu.idx()] = !su.toward_me[pu.idx()];
            su.load = lu;
            su.nbr_load[pu.idx()] = lv;
            su.announce = true;
        }
        {
            let sv = self.sim.state_mut(v);
            sv.toward_me[pv.idx()] = !sv.toward_me[pv.idx()];
            sv.load = lv;
            sv.nbr_load[pv.idx()] = lu;
            sv.announce = true;
        }
        self.wake_dirty(&[u, v]);
        Ok(self.run_repair())
    }

    fn apply_insert(&mut self, u: NodeId, v: NodeId) -> Result<RepairStats, ChurnError> {
        let g = self.sim.graph();
        if u == v || u.idx() >= g.num_nodes() || v.idx() >= g.num_nodes() {
            return Err(ChurnError::NoSuchEntity(format!("endpoints {u}, {v}")));
        }
        if g.edge_between(u, v).is_some() {
            return Err(ChurnError::InvalidEvent(format!(
                "edge {{{u}, {v}}} already exists"
            )));
        }
        // New edge points at the endpoint with the smaller load (ties:
        // smaller id) — the same locally-greedy rule a joining edge would
        // use; it is happy at birth, so only the head's other in-edges can
        // become unhappy.
        let (lu, lv) = (self.orientation.load(u), self.orientation.load(v));
        let head = if (lu, u.0) <= (lv, v.0) { u } else { v };
        let n = g.num_nodes();
        let mut edges: Vec<(u32, u32)> = g.edge_list().map(|(_, a, b)| (a.0, b.0)).collect();
        edges.push((u.0, v.0));
        self.rebuild(n, &edges, Some((u, v, head)), &[u, v]);
        Ok(self.run_repair())
    }

    fn apply_delete(&mut self, u: NodeId, v: NodeId) -> Result<RepairStats, ChurnError> {
        let g = self.sim.graph();
        let Some(del) = g.edge_between(u, v) else {
            return Err(ChurnError::NoSuchEntity(format!("edge {{{u}, {v}}}")));
        };
        let n = g.num_nodes();
        let edges: Vec<(u32, u32)> = g
            .edge_list()
            .filter(|&(e, _, _)| e != del)
            .map(|(_, a, b)| (a.0, b.0))
            .collect();
        // The head loses one load, so edges oriented *away* from it may
        // turn unhappy: wake both endpoints and all their neighbors.
        let mut dirty: Vec<NodeId> = vec![u, v];
        dirty.extend(g.neighbor_ids(u));
        dirty.extend(g.neighbor_ids(v));
        self.rebuild(n, &edges, None, &dirty);
        Ok(self.run_repair())
    }

    /// Rebuilds the network after a shape change, carrying the orientation
    /// over (dropping heads of removed edges, orienting `new_edge` toward
    /// its chosen head) and waking `dirty`.
    fn rebuild(
        &mut self,
        n: usize,
        edges: &[(u32, u32)],
        new_edge: Option<(NodeId, NodeId, NodeId)>,
        dirty: &[NodeId],
    ) {
        let mut b = GraphBuilder::with_capacity(n, edges.len());
        for &(a, c) in edges {
            b.add_edge(NodeId(a), NodeId(c)).expect("simple edge list");
        }
        let graph = b.build().expect("valid rebuilt graph");
        let mut orientation = Orientation::unoriented(&graph);
        for (e, a, c) in graph.edge_list() {
            let head = if let Some((u, v, h)) = new_edge {
                if (a == u && c == v) || (a == v && c == u) {
                    h
                } else {
                    self.head_of(a, c)
                }
            } else {
                self.head_of(a, c)
            };
            orientation.orient(&graph, e, head);
        }
        self.orientation = orientation;
        self.perf_retired.absorb(self.sim.exec_perf());
        self.sim = ChurnSim::new(graph.clone(), &Self::inputs(&graph, &self.orientation));
        self.wake_dirty(dirty);
    }

    /// The head of edge `{a, c}` in the *old* orientation.
    fn head_of(&self, a: NodeId, c: NodeId) -> NodeId {
        let g = self.sim.graph();
        let e = g.edge_between(a, c).expect("edge survived the rebuild");
        self.orientation.head(e).expect("complete orientation")
    }

    fn wake_dirty(&mut self, dirty: &[NodeId]) {
        // An empty dirty set wakes nobody in either mode, so the round
        // counters of an incremental engine and its full-recompute twin
        // stay aligned (the differential tests rely on this).
        if dirty.is_empty() {
            return;
        }
        match self.mode {
            RepairMode::Incremental => {
                for &v in dirty {
                    self.sim.wake(v);
                }
            }
            RepairMode::FullRecompute => self.sim.wake_all(),
        }
    }

    fn run_repair(&mut self) -> RepairStats {
        let stats = self.sim.run(self.max_rounds);
        assert!(stats.completed, "repair hit the round cap");
        // Re-assemble the maintained orientation from the node snapshots,
        // checking that the two endpoints of every edge agree.
        let g = self.sim.graph();
        let mut orientation = Orientation::unoriented(g);
        for (e, u, v) in g.edge_list() {
            let pu = g.port_of(u, e).expect("port");
            let pv = g.port_of(v, e).expect("port");
            let to_u = self.sim.states()[u.idx()].toward_me[pu.idx()];
            let to_v = self.sim.states()[v.idx()].toward_me[pv.idx()];
            assert!(to_u != to_v, "endpoints of {e} disagree after repair");
            orientation.orient(g, e, if to_u { u } else { v });
        }
        self.orientation = orientation;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use td_graph::gen::classic::{cycle, path, star};
    use td_graph::gen::random::{gnm, random_regular};

    fn stable_engine(g: &CsrGraph, seed: u64, mode: RepairMode) -> OrientChurnEngine {
        let mut rng = SmallRng::seed_from_u64(seed);
        let o = Orientation::random(g, &mut rng);
        let mut eng = OrientChurnEngine::new(g.clone(), o, mode);
        eng.stabilize();
        eng.verify()
            .expect("stabilize reaches a stable orientation");
        eng
    }

    #[test]
    fn stabilize_from_worst_case_star() {
        let g = star(10);
        let mut o = Orientation::unoriented(&g);
        for e in g.edges() {
            o.orient(&g, e, NodeId(0));
        }
        let mut eng = OrientChurnEngine::new(g, o, RepairMode::Incremental);
        let stats = eng.stabilize();
        assert!(stats.completed);
        eng.verify().unwrap();
        assert!(eng.orientation().load(NodeId(0)) <= 2);
    }

    #[test]
    fn flip_on_path_repairs_locally() {
        let n = 200u32;
        let g = path(n as usize);
        let mut inc = stable_engine(&g, 3, RepairMode::Incremental);
        let mut full = stable_engine(&g, 3, RepairMode::FullRecompute);
        let ev = ChurnEvent::EdgeFlip {
            u: NodeId(100),
            v: NodeId(101),
        };
        let si = inc.apply(&ev).unwrap();
        let sf = full.apply(&ev).unwrap();
        inc.verify().unwrap();
        assert_eq!(inc.orientation(), full.orientation());
        // Locality: the incremental repair steps only the dirty
        // neighborhood, the fallback steps all n nodes in its first round.
        assert!(
            si.node_steps + (n as u64) - 10 <= sf.node_steps,
            "incremental {} vs full {}",
            si.node_steps,
            sf.node_steps
        );
        // And the repair footprint is far below one sweep of the path.
        assert!(
            si.node_steps < n as u64,
            "repair touched {} node-steps",
            si.node_steps
        );
    }

    #[test]
    fn insert_and_delete_repair() {
        let mut rng = SmallRng::seed_from_u64(11);
        let g = gnm(30, 60, &mut rng);
        let mut eng = stable_engine(&g, 7, RepairMode::Incremental);
        // Find a missing edge to insert.
        let mut ins = None;
        'outer: for a in 0..30u32 {
            for b in (a + 1)..30 {
                if eng.graph().edge_between(NodeId(a), NodeId(b)).is_none() {
                    ins = Some((a, b));
                    break 'outer;
                }
            }
        }
        let (a, b) = ins.unwrap();
        eng.apply(&ChurnEvent::EdgeInsert {
            u: NodeId(a),
            v: NodeId(b),
        })
        .unwrap();
        eng.verify().unwrap();
        assert_eq!(eng.graph().num_edges(), 61);
        eng.apply(&ChurnEvent::EdgeDelete {
            u: NodeId(a),
            v: NodeId(b),
        })
        .unwrap();
        eng.verify().unwrap();
        assert_eq!(eng.graph().num_edges(), 60);
    }

    #[test]
    fn incremental_matches_full_recompute_bit_for_bit() {
        let mut rng = SmallRng::seed_from_u64(5);
        for trial in 0..6 {
            let g = random_regular(16, 4, &mut rng, 500).unwrap();
            let mut inc = stable_engine(&g, trial, RepairMode::Incremental);
            let mut full = stable_engine(&g, trial, RepairMode::FullRecompute);
            assert_eq!(inc.orientation(), full.orientation(), "post-stabilize");
            let mut evrng = SmallRng::seed_from_u64(100 + trial);
            for _ in 0..8 {
                let (u, v) = {
                    let g = inc.graph();
                    let e = td_graph::EdgeId(evrng.gen_range(0..g.num_edges() as u32));
                    g.endpoints(e)
                };
                let ev = ChurnEvent::EdgeFlip { u, v };
                let si = inc.apply(&ev).unwrap();
                let sf = full.apply(&ev).unwrap();
                inc.verify().unwrap();
                assert_eq!(inc.orientation(), full.orientation());
                // Identical dynamics: same rounds and messages; the
                // fallback only pays more node steps.
                assert_eq!(si.rounds, sf.rounds);
                assert_eq!(si.messages, sf.messages);
                assert!(si.node_steps <= sf.node_steps);
            }
        }
    }

    #[test]
    fn rejects_foreign_events() {
        let g = cycle(6);
        let mut eng = stable_engine(&g, 1, RepairMode::Incremental);
        assert_eq!(
            eng.apply(&ChurnEvent::TokenArrive(NodeId(0))),
            Err(ChurnError::Unsupported("orientation"))
        );
        assert!(matches!(
            eng.apply(&ChurnEvent::EdgeFlip {
                u: NodeId(0),
                v: NodeId(3)
            }),
            Err(ChurnError::NoSuchEntity(_))
        ));
    }

    #[test]
    fn long_churn_sequence_stays_stable() {
        let mut rng = SmallRng::seed_from_u64(21);
        let g = random_regular(24, 4, &mut rng, 500).unwrap();
        let mut eng = stable_engine(&g, 2, RepairMode::Incremental);
        for i in 0..40 {
            let (u, v) = {
                let g = eng.graph();
                let e = td_graph::EdgeId(rng.gen_range(0..g.num_edges() as u32));
                g.endpoints(e)
            };
            eng.apply(&ChurnEvent::EdgeFlip { u, v })
                .unwrap_or_else(|err| panic!("event {i}: {err}"));
            eng.verify()
                .unwrap_or_else(|err| panic!("event {i}: {err}"));
        }
    }
}
