//! Incremental repair of stable assignments under churn.
//!
//! The dynamic regime of the paper's Section 1.1, on the customers/servers
//! side: once an assignment is stable, a customer joining or leaving, or a
//! server draining for a rolling restart, perturbs happiness only around
//! the touched server — so the distributed protocol can be restarted from
//! the dirtied nodes alone. This is the mode of operation token-dispatching
//! systems run in production (Comte, *Dynamic Load Balancing with Tokens*):
//! a continuous stream of arrivals, departures, drains and rejoins, each
//! absorbed by a local repair.
//!
//! ## The repair protocol
//!
//! [`AssignRepairNode`] runs on the bipartite customer/server network
//! (customers `0..nc`, servers `nc..nc+ns`) under the wake-based
//! [`ChurnSim`] executor, in deterministic 6-phase cycles:
//!
//! * **p0 (request)** — an unhappy customer whose server is donor-role and
//!   that sees a valid acceptor-role target (cached load ≤ own server's
//!   cached load − 2) asks its server for permission to leave;
//! * **p1 (grant)** — a donor-role server grants its smallest-id requester
//!   (at most one departure per server per cycle, which keeps every move's
//!   Σ load² drop at the clean ≥ 2);
//! * **p2 (propose)** — the granted customer proposes to its best valid
//!   target; *unassigned* customers (new joiners, drain victims) propose
//!   unconditionally and with top priority;
//! * **p3 (accept)** — an available acceptor-role server admits one
//!   proposer (unassigned first, then maximum badness, ties toward the
//!   smaller customer id), commits its load, and broadcasts the update;
//! * **p4 (commit)** — the admitted customer switches servers and notifies
//!   the one it left;
//! * **p5 (depart)** — the old server commits the departure and broadcasts.
//!
//! Donor/acceptor roles come from the derandomized bit schedule
//! ([`split_role`]); donors and acceptors partition the servers, so each
//! server's load moves by at most one per cycle and every move is validated
//! against cycle-start loads — each strictly decreases Σ load² by ≥ 2,
//! which terminates the dynamics. Idle nodes step as no-ops, so
//! incremental and full-recompute ([`RepairMode::FullRecompute`]) runs are
//! bit-identical in outputs, rounds, and messages — only node-steps differ.

use crate::assignment::{Assignment, Instability};
use crate::instance::AssignmentInstance;
use td_graph::{CsrGraph, NodeId, Port};
use td_local::churn::{
    id_bits, split_role, ChurnError, ChurnEvent, ChurnSim, RepairMode, RepairStats,
};
use td_local::{Inbox, NodeInit, Outbox, Protocol, RoundCtx, Status};

/// Rounds per request/grant/propose/accept/commit/depart cycle.
const PHASES: u32 = 6;

/// `from_load` value marking an unassigned proposer (top priority).
const UNASSIGNED_PRIORITY: u32 = u32::MAX;

/// Message kinds of the assignment repair protocol.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum MsgKind {
    /// Unused slot filler.
    #[default]
    None,
    /// Server → customers: "my load is `a`, availability is `b`".
    Update,
    /// Customer → its server: "let me leave this cycle".
    LeaveRequest,
    /// Server → one customer: "you may leave".
    Grant,
    /// Customer → target server: "admit me; my server's load is `a`".
    Propose,
    /// Server → one customer: "admitted; my load is now `a`".
    Accept,
    /// Customer → old server: "I left".
    Left,
}

/// One repair-protocol message.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AssignMsg {
    kind: MsgKind,
    a: u32,
    b: u32,
}

/// Host-provided per-node input.
#[derive(Clone, Debug)]
pub enum AssignRepairInput {
    /// A customer node.
    Customer {
        /// Port of the server I am assigned to, if any.
        assigned: Option<u32>,
        /// Cached server loads, by port.
        cache_load: Vec<u32>,
        /// Cached server availability, by port.
        cache_avail: Vec<bool>,
        /// Identifier bits of the role schedule.
        id_bits: u32,
    },
    /// A server node.
    Server {
        /// My current load.
        load: u32,
        /// Am I accepting customers?
        available: bool,
        /// Broadcast my state on the first step.
        announce: bool,
        /// Identifier bits of the role schedule.
        id_bits: u32,
    },
}

/// Customer-side state. Neighbor ids are read from the network each round
/// ([`Outbox::neighbor_ids`]), so membership changes that renumber nodes
/// leave the state alone.
#[derive(Debug, PartialEq, Eq)]
pub struct CustomerState {
    id_bits: u32,
    /// Port of my current server.
    pub assigned: Option<Port>,
    cache_load: Vec<u32>,
    cache_avail: Vec<bool>,
    proposed: Option<Port>,
}

/// Server-side state.
#[derive(Debug, PartialEq, Eq)]
pub struct ServerState {
    /// Current load.
    pub load: u32,
    /// Accepting customers?
    pub available: bool,
    /// Broadcast my state on the next step.
    pub announce: bool,
}

/// Node state: one side of the bipartite repair protocol.
#[derive(Debug, PartialEq, Eq)]
pub enum AssignRepairNode {
    /// A customer.
    Customer(CustomerState),
    /// A server.
    Server(ServerState),
}

impl CustomerState {
    /// A valid move target this cycle: available, acceptor-role, and (for
    /// assigned movers) at least 2 below my server's cached load. Returns
    /// the best by (load, server id).
    fn target(&self, nbr_ids: &[u32], cycle: u32) -> Option<Port> {
        let limit = match self.assigned {
            Some(ps) => self.cache_load[ps.idx()].checked_sub(2)?,
            None => u32::MAX,
        };
        let mut best: Option<(u32, u32, usize)> = None;
        for (p, &id) in nbr_ids.iter().enumerate() {
            if Some(Port::from(p)) == self.assigned
                || !self.cache_avail[p]
                || self.cache_load[p] > limit
                || split_role(id, cycle, self.id_bits)
            {
                continue;
            }
            let key = (self.cache_load[p], id, p);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        best.map(|(_, _, p)| Port::from(p))
    }

    /// Unhappy = could improve by ≥ 2 (assigned) or has any available
    /// option (unassigned) — role-independent, so an unhappy customer stays
    /// awake across cycles until the roles line up.
    fn unhappy(&self) -> bool {
        match self.assigned {
            Some(ps) => {
                let ls = self.cache_load[ps.idx()];
                (0..self.cache_load.len())
                    .any(|p| p != ps.idx() && self.cache_avail[p] && self.cache_load[p] + 2 <= ls)
            }
            None => self.cache_avail.iter().any(|&a| a),
        }
    }
}

impl Protocol for AssignRepairNode {
    type Input = AssignRepairInput;
    type Message = AssignMsg;
    type Output = Option<u32>;

    fn init(node: NodeInit<'_, AssignRepairInput>) -> Self {
        match node.input {
            AssignRepairInput::Customer {
                assigned,
                cache_load,
                cache_avail,
                id_bits,
            } => {
                debug_assert_eq!(cache_load.len(), node.degree());
                AssignRepairNode::Customer(CustomerState {
                    id_bits: *id_bits,
                    assigned: assigned.map(|p| Port::from(p as usize)),
                    cache_load: cache_load.clone(),
                    cache_avail: cache_avail.clone(),
                    proposed: None,
                })
            }
            AssignRepairInput::Server {
                load,
                available,
                announce,
                ..
            } => AssignRepairNode::Server(ServerState {
                load: *load,
                available: *available,
                announce: *announce,
            }),
        }
    }

    fn round(
        &mut self,
        ctx: &RoundCtx,
        inbox: &Inbox<'_, AssignMsg>,
        outbox: &mut Outbox<'_, '_, AssignMsg>,
    ) -> Status {
        let phase = ctx.round % PHASES;
        let cycle = ctx.round / PHASES;
        let nbr_ids = outbox.neighbor_ids();
        match self {
            AssignRepairNode::Customer(c) => {
                // Server updates can arrive at any phase; refresh first.
                for (p, m) in inbox.iter() {
                    if m.kind == MsgKind::Update {
                        c.cache_load[p.idx()] = m.a;
                        c.cache_avail[p.idx()] = m.b == 1;
                    }
                }
                match phase {
                    0 => {
                        c.proposed = None;
                        if let Some(ps) = c.assigned {
                            // My server must be donor-role to let me go.
                            if split_role(nbr_ids[ps.idx()], cycle, c.id_bits)
                                && c.target(nbr_ids, cycle).is_some()
                            {
                                outbox.send(
                                    ps,
                                    AssignMsg {
                                        kind: MsgKind::LeaveRequest,
                                        ..AssignMsg::default()
                                    },
                                );
                            }
                        }
                    }
                    2 => {
                        let granted = match c.assigned {
                            Some(ps) => {
                                matches!(inbox.get(ps), Some(m) if m.kind == MsgKind::Grant)
                            }
                            None => true, // joiners need no permission
                        };
                        if granted {
                            if let Some(pt) = c.target(nbr_ids, cycle) {
                                let from_load = match c.assigned {
                                    Some(ps) => c.cache_load[ps.idx()],
                                    None => UNASSIGNED_PRIORITY,
                                };
                                outbox.send(
                                    pt,
                                    AssignMsg {
                                        kind: MsgKind::Propose,
                                        a: from_load,
                                        b: 0,
                                    },
                                );
                                c.proposed = Some(pt);
                            }
                        }
                    }
                    4 => {
                        if let Some(pt) = c.proposed.take() {
                            if let Some(m) = inbox.get(pt) {
                                if m.kind == MsgKind::Accept {
                                    c.cache_load[pt.idx()] = m.a;
                                    if let Some(ps) = c.assigned {
                                        outbox.send(
                                            ps,
                                            AssignMsg {
                                                kind: MsgKind::Left,
                                                ..AssignMsg::default()
                                            },
                                        );
                                    }
                                    c.assigned = Some(pt);
                                }
                            }
                        }
                    }
                    _ => {}
                }
                if c.unhappy() || c.proposed.is_some() {
                    Status::Continue
                } else {
                    Status::Halt
                }
            }
            AssignRepairNode::Server(s) => {
                if s.announce {
                    s.announce = false;
                    outbox.broadcast(AssignMsg {
                        kind: MsgKind::Update,
                        a: s.load,
                        b: u32::from(s.available),
                    });
                }
                match phase {
                    1 => {
                        // Grant the smallest-id requester.
                        let mut best: Option<(u32, Port)> = None;
                        for (p, m) in inbox.iter() {
                            if m.kind != MsgKind::LeaveRequest {
                                continue;
                            }
                            let key = (nbr_ids[p.idx()], p);
                            if best.is_none_or(|b| key < b) {
                                best = Some(key);
                            }
                        }
                        if let Some((_, p)) = best {
                            outbox.send(
                                p,
                                AssignMsg {
                                    kind: MsgKind::Grant,
                                    ..AssignMsg::default()
                                },
                            );
                        }
                    }
                    3 if s.available => {
                        {
                            // Admit one proposer: unassigned first, then
                            // max badness, ties toward the smaller id.
                            let mut best: Option<(bool, u32, i64, Port)> = None;
                            for (p, m) in inbox.iter() {
                                if m.kind != MsgKind::Propose {
                                    continue;
                                }
                                let unassigned = m.a == UNASSIGNED_PRIORITY;
                                if !unassigned && m.a < s.load + 2 {
                                    continue; // no longer a valid improvement
                                }
                                let key = (unassigned, m.a, -(nbr_ids[p.idx()] as i64), p);
                                if best.is_none_or(|b| key > b) {
                                    best = Some(key);
                                }
                            }
                            if let Some((_, _, _, p)) = best {
                                s.load += 1;
                                outbox.broadcast(AssignMsg {
                                    kind: MsgKind::Update,
                                    a: s.load,
                                    b: 1,
                                });
                                // The accept overwrites the update on the
                                // winner's port and carries the load itself.
                                outbox.send(
                                    p,
                                    AssignMsg {
                                        kind: MsgKind::Accept,
                                        a: s.load,
                                        b: 0,
                                    },
                                );
                            }
                        }
                    }
                    5 => {
                        let departures = inbox
                            .iter()
                            .filter(|(_, m)| m.kind == MsgKind::Left)
                            .count();
                        if departures > 0 {
                            debug_assert_eq!(departures, 1, "one grant, one departure");
                            s.load -= departures as u32;
                            outbox.broadcast(AssignMsg {
                                kind: MsgKind::Update,
                                a: s.load,
                                b: u32::from(s.available),
                            });
                        }
                    }
                    _ => {}
                }
                // Servers are purely reactive: messages wake them.
                Status::Halt
            }
        }
    }

    fn finish(self) -> Option<u32> {
        match self {
            AssignRepairNode::Customer(c) => c.assigned.map(|p| p.0),
            AssignRepairNode::Server(_) => None,
        }
    }
}

/// A live assignment instance under churn: applies customer joins/leaves
/// and server drains/rejoins ([`ChurnEvent::ServerCapacity`]) and repairs
/// stability incrementally (or via the full-recompute fallback).
///
/// External ids are stable across events: customers keep the id they were
/// created with (departed ids are never reused), servers are `0..ns`
/// forever. The internal bipartite network (alive customers in ascending
/// id order, then the servers) lives in one [`ChurnSim`] for the engine's
/// whole life. Drains and rejoins change node states only, and the arena's
/// stamp machinery keeps untouched regions free. Joins and leaves patch
/// the network in place ([`ChurnSim::rewire`]), leaving the sim as a fresh
/// build from the engine's records would be, up to a round counter the
/// protocol cannot tell from 0; debug builds assert this after every join
/// and leave.
pub struct AssignChurnEngine {
    /// Candidate servers per external customer id, ascending; `None` =
    /// departed.
    customers: Vec<Option<Vec<u32>>>,
    /// Availability per server.
    available: Vec<bool>,
    /// Maintained assignment per external customer id.
    assigned: Vec<Option<u32>>,
    /// Alive external customer ids, ascending = internal network order.
    alive: Vec<u32>,
    sim: ChurnSim<AssignRepairNode>,
    mode: RepairMode,
    max_rounds: u32,
}

/// The repair protocol's period in `ctx.round` for `bits` identifier bits:
/// `round % PHASES` picks the phase, and [`split_role`] reads `cycle % 2`
/// and `(cycle / 2) % bits`, jointly periodic in `2 · bits` cycles.
/// Declared to the sim so neither stamp renormalization nor a membership
/// rewire can disturb the role schedule.
fn round_period(bits: u32) -> u32 {
    PHASES * 2 * bits
}

/// The input a fresh build gives a customer with candidate `list` (whose
/// order is its port order), assignment `assigned` and server loads
/// `load`.
fn customer_input(
    list: &[u32],
    assigned: Option<u32>,
    load: impl Fn(u32) -> u32,
    available: &[bool],
    bits: u32,
) -> AssignRepairInput {
    AssignRepairInput::Customer {
        assigned: assigned.map(|s| list.binary_search(&s).expect("assigned ∈ list") as u32),
        cache_load: list.iter().map(|&s| load(s)).collect(),
        cache_avail: list.iter().map(|&s| available[s as usize]).collect(),
        id_bits: bits,
    }
}

impl AssignRepairNode {
    fn customer_mut(&mut self) -> &mut CustomerState {
        match self {
            AssignRepairNode::Customer(c) => c,
            AssignRepairNode::Server(_) => unreachable!("customer range"),
        }
    }

    fn server_mut(&mut self) -> &mut ServerState {
        match self {
            AssignRepairNode::Server(s) => s,
            AssignRepairNode::Customer(_) => unreachable!("server range"),
        }
    }
}

impl AssignChurnEngine {
    /// Builds an engine from an instance; all servers available, all
    /// customers initially unassigned. Call
    /// [`AssignChurnEngine::stabilize`] to compute the first assignment.
    pub fn new(inst: &AssignmentInstance, mode: RepairMode) -> Self {
        let customers: Vec<Option<Vec<u32>>> = (0..inst.num_customers())
            .map(|c| Some(inst.servers_of(c).to_vec()))
            .collect();
        let available = vec![true; inst.num_servers()];
        let assigned = vec![None; inst.num_customers()];
        let alive: Vec<u32> = (0..inst.num_customers() as u32).collect();
        let sim = Self::build_sim(
            &customers,
            &available,
            &assigned,
            &alive,
            inst.num_servers(),
        );
        AssignChurnEngine {
            customers,
            available,
            assigned,
            alive,
            sim,
            mode,
            max_rounds: 10_000_000,
        }
    }

    /// Accepts only `threads == 1`: repairs always run on the calling
    /// thread. Kept so existing builder chains still compile.
    #[deprecated(note = "repairs always run on one thread; drop the call")]
    pub fn with_threads(self, threads: usize) -> Self {
        assert_eq!(threads, 1, "repairs run on one thread");
        self
    }

    /// Accepts only `shards == 1`: repairs always run on one message
    /// plane. Kept so existing builder chains still compile.
    #[deprecated(note = "repairs always run on one message plane; drop the call")]
    pub fn with_shards(self, shards: usize) -> Self {
        assert_eq!(shards, 1, "repairs run on one message plane");
        self
    }

    /// Caps the rounds of a single repair run.
    pub fn with_max_rounds(mut self, max_rounds: u32) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Lowers the stamp-renormalization horizon of the underlying sim,
    /// which joins and leaves patch in place, so the horizon holds for the
    /// engine's whole life — a test hook for crossing the wrap point
    /// quickly; see [`ChurnSim::set_stamp_horizon`].
    pub fn with_stamp_horizon(mut self, horizon: u32) -> Self {
        self.sim.set_stamp_horizon(horizon);
        self
    }

    /// Lifetime [`td_local::ExecPerf`] work counters over every repair this
    /// engine has run (the sim's own: membership patches keep counting).
    pub fn exec_perf(&self) -> td_local::ExecPerf {
        self.sim.exec_perf()
    }

    fn num_servers(&self) -> usize {
        self.available.len()
    }

    /// Internal network id of external customer `c`.
    fn int_of(&self, c: u32) -> Option<usize> {
        self.alive.binary_search(&c).ok()
    }

    /// Builds the repair network from the engine's records: the path of
    /// [`AssignChurnEngine::new`], and the reference every membership patch
    /// is checked against in debug builds.
    fn build_sim(
        customers: &[Option<Vec<u32>>],
        available: &[bool],
        assigned: &[Option<u32>],
        alive: &[u32],
        num_servers: usize,
    ) -> ChurnSim<AssignRepairNode> {
        let nc = alive.len();
        let n = nc + num_servers;
        let mut loads = vec![0u32; num_servers];
        for &c in alive {
            if let Some(s) = assigned[c as usize] {
                loads[s as usize] += 1;
            }
        }
        let rows = alive
            .iter()
            .map(|&c| customers[c as usize].as_deref().expect("alive customer"));
        let graph = CsrGraph::sorted_bipartite(num_servers, rows)
            .expect("candidate lists are ascending and in range");
        let bits = id_bits(n);
        let inputs: Vec<AssignRepairInput> = (0..n)
            .map(|v| {
                if v < nc {
                    let c = alive[v] as usize;
                    let list = customers[c].as_deref().expect("alive customer");
                    customer_input(list, assigned[c], |s| loads[s as usize], available, bits)
                } else {
                    AssignRepairInput::Server {
                        load: loads[v - nc],
                        available: available[v - nc],
                        announce: false,
                        id_bits: bits,
                    }
                }
            })
            .collect();
        let mut sim = ChurnSim::new(graph, &inputs);
        sim.set_round_period(round_period(bits));
        sim
    }

    /// Panics unless the live sim equals a fresh build from the engine's
    /// records, round counter aside: the rebuild that each membership patch
    /// replaces. A quiescent engine keeps this invariant across repairs
    /// too, since every load change is broadcast to the server's customers.
    /// Debug builds check it after every join and leave.
    fn assert_matches_fresh_build(&self) {
        let fresh = Self::build_sim(
            &self.customers,
            &self.available,
            &self.assigned,
            &self.alive,
            self.num_servers(),
        );
        assert!(
            self.sim.graph() == fresh.graph(),
            "patched network differs from a fresh build"
        );
        let (live, want) = (self.sim.states(), fresh.states());
        if let Some(v) = (0..want.len()).find(|&v| live[v] != want[v]) {
            panic!(
                "node {v} differs from a fresh build: patched {:?}, fresh {:?}",
                live[v], want[v]
            );
        }
        assert_eq!(
            self.sim.round_period(),
            fresh.round_period(),
            "patched round period differs from a fresh build"
        );
    }

    fn wake_dirty(&mut self, dirty: &[NodeId]) {
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
        // Sync the maintained assignment from the node snapshots: port `p`
        // of customer `i` leads to server node `nc + s`.
        let nc = self.alive.len() as u32;
        let (graph, states) = (self.sim.graph(), self.sim.states());
        for (i, &c) in self.alive.iter().enumerate() {
            let AssignRepairNode::Customer(cs) = &states[i] else {
                unreachable!("customer range")
            };
            let node = NodeId::from(i);
            self.assigned[c as usize] = cs.assigned.map(|p| graph.neighbor_at(node, p).0 - nc);
        }
        stats
    }

    /// Wakes every unhappy or unassigned-with-options customer (or every
    /// node under [`RepairMode::FullRecompute`]) and runs to quiescence.
    pub fn stabilize(&mut self) -> RepairStats {
        let dirty: Vec<NodeId> = (0..self.alive.len())
            .filter(|&i| match &self.sim.states()[i] {
                AssignRepairNode::Customer(c) => c.unhappy(),
                AssignRepairNode::Server(_) => false,
            })
            .map(NodeId::from)
            .collect();
        self.wake_dirty(&dirty);
        self.run_repair()
    }

    /// Applies one event and repairs. Returns the repair cost.
    pub fn apply(&mut self, event: &ChurnEvent) -> Result<RepairStats, ChurnError> {
        match event {
            ChurnEvent::CustomerJoin { servers } => self.apply_join(servers),
            ChurnEvent::CustomerLeave(c) => self.apply_leave(*c),
            ChurnEvent::ServerCapacity { server, capacity } => {
                self.apply_capacity(*server, *capacity)
            }
            _ => Err(ChurnError::Unsupported("assignment")),
        }
    }

    fn apply_join(&mut self, servers: &[u32]) -> Result<RepairStats, ChurnError> {
        if servers.is_empty() {
            return Err(ChurnError::InvalidEvent("customer with no servers".into()));
        }
        let mut list = servers.to_vec();
        list.sort_unstable();
        list.dedup();
        if list.len() != servers.len() {
            return Err(ChurnError::InvalidEvent(
                "duplicate candidate server".into(),
            ));
        }
        if list.iter().any(|&s| s as usize >= self.num_servers()) {
            return Err(ChurnError::NoSuchEntity("candidate server".into()));
        }
        // The newcomer takes the largest id, so it becomes customer `nc`.
        // Node ids live in the network alone, so the servers' renumbering
        // needs no state edit.
        let ext = self.customers.len();
        let nc = self.alive.len();
        let ns = self.num_servers();
        let (old_bits, bits) = (id_bits(nc + ns), id_bits(nc + 1 + ns));
        self.customers.push(Some(list));
        self.assigned.push(None);
        self.alive.push(ext as u32);
        let available = &self.available;
        let list = self.customers[ext].as_deref().expect("just added");
        self.sim.set_round_period(round_period(bits));
        self.sim.rewire(|graph, states, _| {
            graph
                .push_left_node(nc, list)
                .expect("the candidate list is ascending and in range");
            let load = |s: u32| match &states[nc + s as usize] {
                AssignRepairNode::Server(ss) => ss.load,
                AssignRepairNode::Customer(_) => unreachable!("server range"),
            };
            let input = customer_input(list, None, load, available, bits);
            if bits != old_bits {
                for state in &mut states[..nc] {
                    state.customer_mut().id_bits = bits;
                }
            }
            let me = NodeId::from(nc);
            let node = AssignRepairNode::init(NodeInit {
                id: me,
                neighbor_ids: graph.neighbors(me),
                input: &input,
            });
            states.insert(nc, node);
        });
        Ok(self.repair_after_patch(&[NodeId::from(nc)]))
    }

    fn apply_leave(&mut self, c: u32) -> Result<RepairStats, ChurnError> {
        let i = self
            .int_of(c)
            .ok_or_else(|| ChurnError::NoSuchEntity(format!("customer {c}")))?;
        let old_server = self.assigned[c as usize].take();
        self.customers[c as usize] = None;
        self.alive.remove(i);
        let nc = self.alive.len();
        let ns = self.num_servers();
        let (old_bits, bits) = (id_bits(nc + 1 + ns), id_bits(nc + ns));
        self.sim.set_round_period(round_period(bits));
        self.sim.rewire(|graph, states, _| {
            graph.remove_left_node(nc + 1, i);
            states.remove(i);
            if bits != old_bits {
                for state in &mut states[..nc] {
                    state.customer_mut().id_bits = bits;
                }
            }
            // The vacated server lost one customer; its others read the
            // new load through the edge mirrors.
            if let Some(s) = old_server {
                let srv = NodeId::from(nc + s as usize);
                let ss = states[srv.idx()].server_mut();
                ss.load -= 1;
                let load = ss.load;
                for p in 0..graph.degree(srv) {
                    let (v, q) = graph.mirror(srv, Port::from(p));
                    states[v.idx()].customer_mut().cache_load[q.idx()] = load;
                }
            }
        });
        // Customers adjacent to the vacated server may now move into it.
        let dirty: Vec<NodeId> = match old_server {
            Some(s) => self
                .sim
                .graph()
                .neighbor_ids(NodeId::from(nc + s as usize))
                .collect(),
            None => Vec::new(),
        };
        Ok(self.repair_after_patch(&dirty))
    }

    /// Wakes `dirty` and repairs after a membership patch. Debug builds
    /// first check the patch: the sim must equal a fresh build, at a round
    /// the protocol cannot tell from 0.
    fn repair_after_patch(&mut self, dirty: &[NodeId]) -> RepairStats {
        if cfg!(debug_assertions) {
            assert_eq!(self.sim.round() % self.sim.round_period(), 0);
            self.assert_matches_fresh_build();
        }
        self.wake_dirty(dirty);
        self.run_repair()
    }

    fn apply_capacity(&mut self, server: u32, capacity: u32) -> Result<RepairStats, ChurnError> {
        if server as usize >= self.num_servers() {
            return Err(ChurnError::NoSuchEntity(format!("server {server}")));
        }
        let drain = capacity == 0;
        if self.available[server as usize] != drain {
            return Err(ChurnError::InvalidEvent(format!(
                "server {server} already {}",
                if drain { "drained" } else { "available" }
            )));
        }
        self.available[server as usize] = !drain;
        let srv_node = NodeId::from(self.alive.len() + server as usize);
        let mut dirty = vec![srv_node];
        if drain {
            // Evict the server's customers: they rejoin through the
            // unassigned path of the protocol.
            for i in 0..self.alive.len() {
                let c = self.alive[i] as usize;
                if self.assigned[c] == Some(server) {
                    self.assigned[c] = None;
                    if let AssignRepairNode::Customer(cs) = self.sim.state_mut(NodeId::from(i)) {
                        cs.assigned = None;
                    }
                    dirty.push(NodeId::from(i));
                }
            }
        }
        if let AssignRepairNode::Server(ss) = self.sim.state_mut(srv_node) {
            ss.available = !drain;
            ss.load = 0;
            ss.announce = true;
        }
        self.wake_dirty(&dirty);
        Ok(self.run_repair())
    }

    /// The maintained assignment of external customer `c` (None if
    /// unassigned or departed).
    pub fn server_of(&self, c: u32) -> Option<u32> {
        self.assigned.get(c as usize).copied().flatten()
    }

    /// The full external-id assignment vector — the bit-compared quantity
    /// of the differential tests.
    pub fn assignment_vector(&self) -> &[Option<u32>] {
        &self.assigned
    }

    /// Per-server loads of the maintained assignment.
    pub fn server_loads(&self) -> Vec<u32> {
        let mut loads = vec![0u32; self.num_servers()];
        for &c in &self.alive {
            if let Some(s) = self.assigned[c as usize] {
                loads[s as usize] += 1;
            }
        }
        loads
    }

    /// Number of alive customers.
    pub fn num_alive(&self) -> usize {
        self.alive.len()
    }

    /// Availability per server.
    pub fn availability(&self) -> &[bool] {
        &self.available
    }

    /// The semi-matching cost Σ load(load+1)/2 of the maintained assignment.
    pub fn cost(&self) -> u64 {
        self.server_loads()
            .iter()
            .map(|&l| (l as u64) * (l as u64 + 1) / 2)
            .sum()
    }

    /// The *effective instance*: alive customers with their candidate lists
    /// restricted to available servers; customers with no available
    /// candidate are dropped (they legitimately stay unassigned). Returns
    /// the instance, its assignment, and the external ids it covers.
    pub fn effective_instance(&self) -> (AssignmentInstance, Assignment, Vec<u32>) {
        let mut lists: Vec<Vec<u32>> = Vec::new();
        let mut ids: Vec<u32> = Vec::new();
        for &c in &self.alive {
            let list: Vec<u32> = self.customers[c as usize]
                .as_ref()
                .expect("alive")
                .iter()
                .copied()
                .filter(|&s| self.available[s as usize])
                .collect();
            if !list.is_empty() {
                lists.push(list);
                ids.push(c);
            }
        }
        let inst = AssignmentInstance::new(self.num_servers(), &lists);
        let mut a = Assignment::unassigned(&inst);
        for (i, &c) in ids.iter().enumerate() {
            if let Some(s) = self.assigned[c as usize] {
                a.assign(i, s);
            }
        }
        (inst, a, ids)
    }

    /// Verifies the maintained assignment is stable on the effective
    /// instance, and that only option-less customers are unassigned.
    pub fn verify(&self) -> Result<(), Instability> {
        let (inst, a, ids) = self.effective_instance();
        // `ids` is an ascending subsequence of `alive`: one merge walk
        // finds the customers it dropped, which have no available
        // candidate and so must be unassigned.
        let mut covered = ids.iter().peekable();
        for &c in &self.alive {
            if covered.next_if_eq(&&c).is_none() && self.assigned[c as usize].is_some() {
                return Err(Instability::Unassigned(c as usize));
            }
        }
        a.verify_stable(&inst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn uniform(nc: usize, ns: usize, seed: u64) -> AssignmentInstance {
        let mut rng = SmallRng::seed_from_u64(seed);
        AssignmentInstance::random(nc, ns, 2.min(ns)..=3.min(ns), &mut rng)
    }

    fn stable_engine(inst: &AssignmentInstance, mode: RepairMode) -> AssignChurnEngine {
        let mut eng = AssignChurnEngine::new(inst, mode);
        let stats = eng.stabilize();
        assert!(stats.completed);
        eng.verify().expect("stabilize reaches stability");
        eng
    }

    #[test]
    fn stabilize_assigns_everyone() {
        let inst = uniform(30, 8, 1);
        let eng = stable_engine(&inst, RepairMode::Incremental);
        assert_eq!(eng.num_alive(), 30);
        for c in 0..30 {
            assert!(eng.server_of(c).is_some(), "customer {c} unassigned");
        }
    }

    #[test]
    fn join_and_leave_repair() {
        let inst = uniform(20, 6, 2);
        let mut eng = stable_engine(&inst, RepairMode::Incremental);
        let stats = eng
            .apply(&ChurnEvent::CustomerJoin {
                servers: vec![0, 1, 2],
            })
            .unwrap();
        assert!(stats.completed);
        eng.verify().unwrap();
        assert_eq!(eng.num_alive(), 21);
        assert!(eng.server_of(20).is_some());
        eng.apply(&ChurnEvent::CustomerLeave(20)).unwrap();
        eng.verify().unwrap();
        assert_eq!(eng.num_alive(), 20);
        assert_eq!(eng.server_of(20), None);
    }

    #[test]
    fn drain_and_rejoin_rebalance() {
        let inst = uniform(24, 6, 3);
        let mut eng = stable_engine(&inst, RepairMode::Incremental);
        let loads_before = eng.server_loads();
        eng.apply(&ChurnEvent::ServerCapacity {
            server: 0,
            capacity: 0,
        })
        .unwrap();
        eng.verify().unwrap();
        assert_eq!(eng.server_loads()[0], 0);
        // Customers whose only candidate was server 0 stay unassigned;
        // everyone else found a home.
        eng.apply(&ChurnEvent::ServerCapacity {
            server: 0,
            capacity: 1,
        })
        .unwrap();
        eng.verify().unwrap();
        let _ = loads_before;
    }

    #[test]
    fn incremental_matches_full_recompute_bit_for_bit() {
        for seed in 0..5u64 {
            let inst = uniform(18, 5, seed);
            let mut inc = stable_engine(&inst, RepairMode::Incremental);
            let mut full = stable_engine(&inst, RepairMode::FullRecompute);
            assert_eq!(inc.assignment_vector(), full.assignment_vector());
            let mut rng = SmallRng::seed_from_u64(900 + seed);
            for step in 0..12 {
                let ev = match rng.gen_range(0..4u32) {
                    0 => {
                        // Two distinct random candidate servers.
                        let a = rng.gen_range(0..5u32);
                        let b = (a + 1 + rng.gen_range(0..4u32)) % 5;
                        ChurnEvent::CustomerJoin {
                            servers: vec![a, b],
                        }
                    }
                    1 => ChurnEvent::CustomerLeave(
                        rng.gen_range(0..inc.assignment_vector().len() as u32),
                    ),
                    2 => ChurnEvent::ServerCapacity {
                        server: rng.gen_range(0..5),
                        capacity: 0,
                    },
                    _ => ChurnEvent::ServerCapacity {
                        server: rng.gen_range(0..5),
                        capacity: 4,
                    },
                };
                let ri = inc.apply(&ev);
                let rf = full.apply(&ev);
                match (&ri, &rf) {
                    (Ok(si), Ok(sf)) => {
                        assert_eq!(si.rounds, sf.rounds, "step {step} {ev:?}");
                        assert_eq!(si.messages, sf.messages, "step {step} {ev:?}");
                        assert!(si.node_steps <= sf.node_steps);
                    }
                    (Err(a), Err(b)) => assert_eq!(a, b),
                    _ => panic!("modes diverged on {ev:?}: {ri:?} vs {rf:?}"),
                }
                assert_eq!(
                    inc.assignment_vector(),
                    full.assignment_vector(),
                    "step {step} {ev:?}"
                );
                inc.verify().unwrap();
            }
        }
    }

    #[test]
    fn join_event_is_local() {
        // A big stable farm: one join must not wake the world.
        let inst = uniform(400, 40, 7);
        let mut inc = stable_engine(&inst, RepairMode::Incremental);
        let mut full = stable_engine(&inst, RepairMode::FullRecompute);
        let ev = ChurnEvent::CustomerJoin {
            servers: vec![3, 17, 29],
        };
        let si = inc.apply(&ev).unwrap();
        let sf = full.apply(&ev).unwrap();
        assert_eq!(inc.assignment_vector(), full.assignment_vector());
        assert!(
            si.node_steps + 350 <= sf.node_steps,
            "incremental {} vs full {}",
            si.node_steps,
            sf.node_steps
        );
    }

    #[test]
    fn rejects_foreign_and_invalid_events() {
        let inst = uniform(6, 3, 9);
        let mut eng = stable_engine(&inst, RepairMode::Incremental);
        assert_eq!(
            eng.apply(&ChurnEvent::TokenArrive(NodeId(0))),
            Err(ChurnError::Unsupported("assignment"))
        );
        assert!(matches!(
            eng.apply(&ChurnEvent::CustomerJoin { servers: vec![] }),
            Err(ChurnError::InvalidEvent(_))
        ));
        assert!(matches!(
            eng.apply(&ChurnEvent::CustomerJoin { servers: vec![99] }),
            Err(ChurnError::NoSuchEntity(_))
        ));
        assert!(matches!(
            eng.apply(&ChurnEvent::ServerCapacity {
                server: 0,
                capacity: 5
            }),
            Err(ChurnError::InvalidEvent(_)) // already available
        ));
    }

    /// 11 customers + 5 servers = 16 nodes: a join crosses to 17 and a
    /// leave back, so the identifier width, and with it every customer's
    /// role schedule and the sim's round period, changes with membership.
    #[test]
    fn membership_across_a_power_of_two_changes_the_role_schedule() {
        let inst = uniform(11, 5, 21);
        let mut eng = stable_engine(&inst, RepairMode::Incremental);
        let bits = |eng: &AssignChurnEngine| eng.sim.round_period() / (PHASES * 2);
        assert_eq!(bits(&eng), 4);
        let events = [
            (
                ChurnEvent::CustomerJoin {
                    servers: vec![4, 0, 2],
                },
                5,
            ),
            (
                ChurnEvent::CustomerJoin {
                    servers: vec![1, 3],
                },
                5,
            ),
            (ChurnEvent::CustomerLeave(3), 5),
            (ChurnEvent::CustomerLeave(11), 4),
            (ChurnEvent::CustomerLeave(0), 4),
            (ChurnEvent::CustomerJoin { servers: vec![0] }, 4),
            (
                ChurnEvent::CustomerJoin {
                    servers: vec![0, 1, 2, 3, 4],
                },
                5,
            ),
        ];
        for (ev, want) in events {
            eng.apply(&ev).unwrap();
            eng.assert_matches_fresh_build();
            eng.verify().unwrap();
            assert_eq!(bits(&eng), want, "after {ev:?}");
        }
        assert_eq!(eng.num_alive(), 12);
    }

    /// Patches down to a network without customers and back up.
    #[test]
    fn network_empties_and_refills() {
        let inst = uniform(2, 2, 5);
        let mut eng = stable_engine(&inst, RepairMode::Incremental);
        for ev in [
            ChurnEvent::CustomerLeave(0),
            ChurnEvent::CustomerLeave(1),
            ChurnEvent::CustomerJoin { servers: vec![1] },
            ChurnEvent::CustomerJoin {
                servers: vec![0, 1],
            },
        ] {
            eng.apply(&ev).unwrap();
            eng.assert_matches_fresh_build();
            eng.verify().unwrap();
        }
        assert_eq!(eng.num_alive(), 2);
        assert_eq!(eng.server_loads(), vec![1, 1]);
    }

    /// The deprecated `with_shards(1).with_threads(1)` chain, which older
    /// callers still build with, leaves the engine on the one churn plane:
    /// after each rewire it matches a fresh build, and every event matches
    /// an engine built without the chain. (The test keeps the name it had
    /// when the chain could select a sharded, threaded plane.)
    #[test]
    #[allow(deprecated)]
    fn sharded_threaded_engine_follows_rewires() {
        let inst = uniform(40, 8, 31);
        let mut flat = AssignChurnEngine::new(&inst, RepairMode::Incremental);
        let mut sharded = AssignChurnEngine::new(&inst, RepairMode::Incremental)
            .with_shards(1)
            .with_threads(1);
        assert_eq!(sharded.stabilize(), flat.stabilize());
        let mut rng = SmallRng::seed_from_u64(77);
        for step in 0..30 {
            let ev = match step % 3 {
                0 => ChurnEvent::CustomerJoin {
                    servers: vec![rng.gen_range(0..4), rng.gen_range(4..8)],
                },
                1 => ChurnEvent::CustomerLeave(
                    rng.gen_range(0..flat.assignment_vector().len() as u32),
                ),
                _ => ChurnEvent::ServerCapacity {
                    server: rng.gen_range(0..8),
                    capacity: rng.gen_range(0..2),
                },
            };
            assert_eq!(sharded.apply(&ev), flat.apply(&ev), "step {step} {ev:?}");
            assert_eq!(sharded.assignment_vector(), flat.assignment_vector());
            sharded.assert_matches_fresh_build();
        }
        sharded.verify().unwrap();
        assert_eq!(sharded.exec_perf(), flat.exec_perf());
    }

    /// The deprecated builders reject any count but 1.
    #[test]
    #[allow(deprecated)]
    #[should_panic(expected = "repairs run on one message plane")]
    fn deprecated_with_shards_rejects_more_than_one() {
        let inst = uniform(4, 2, 1);
        let _ = AssignChurnEngine::new(&inst, RepairMode::Incremental).with_shards(4);
    }

    #[test]
    fn verify_rejects_an_assigned_customer_without_available_candidates() {
        let inst = AssignmentInstance::new(2, &[vec![0], vec![0, 1]]);
        let mut eng = stable_engine(&inst, RepairMode::Incremental);
        eng.apply(&ChurnEvent::ServerCapacity {
            server: 0,
            capacity: 0,
        })
        .unwrap();
        eng.verify().unwrap();
        assert_eq!(eng.server_of(0), None, "customer 0 lost its only server");
        eng.assigned[0] = Some(0);
        assert_eq!(eng.verify(), Err(Instability::Unassigned(0)));
    }

    #[test]
    fn rolling_restart_over_every_server() {
        let inst = uniform(30, 5, 13);
        let mut eng = stable_engine(&inst, RepairMode::Incremental);
        for s in 0..5u32 {
            eng.apply(&ChurnEvent::ServerCapacity {
                server: s,
                capacity: 0,
            })
            .unwrap();
            eng.verify().unwrap();
            eng.apply(&ChurnEvent::ServerCapacity {
                server: s,
                capacity: 1,
            })
            .unwrap();
            eng.verify().unwrap();
        }
        for c in 0..30 {
            assert!(eng.server_of(c).is_some());
        }
    }
}
