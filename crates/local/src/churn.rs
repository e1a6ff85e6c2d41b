//! The churn plane: incremental ("wake-based") protocol execution for
//! dynamic instances.
//!
//! The paper's central motivation for *stable* solutions is dynamic: when
//! one edge or customer changes, a stable solution can be repaired locally
//! instead of recomputed from scratch (Section 1.1). This module provides
//! the executor-level machinery for that regime:
//!
//! * [`ChurnEvent`] — the shared vocabulary of instance updates (edge
//!   insert/delete/flip, token arrival/drop, customer join/leave, server
//!   capacity change). Each problem family's churn engine consumes the
//!   variants that apply to it and rejects the rest.
//! * [`ChurnSim`] — a persistent simulator in which nodes *quiesce* instead
//!   of halting forever: [`crate::Status::Halt`] parks the node, and any
//!   later message wakes it. Between repairs the node states, the port
//!   slab, the message arena, and the round counter all persist, so a
//!   repair touches exactly the nodes that messages reach — untouched
//!   regions are never stepped and pay **zero protocol work**.
//! * [`RepairStats`] — rounds / messages / node-steps of one repair run,
//!   the quantities experiment E15 compares against full recomputation.
//!
//! ## How sleeping nodes stay free
//!
//! A repair runs the crate's one production stepping loop, the one
//! [`crate::Simulator`] runs: a sorted *awake list* instead of a scan of
//! all `n` nodes per round. The [`crate::arena::MessageArena`]'s stamp
//! machinery does the rest: slots written in earlier repairs are never
//! cleared — they are invalidated by their stale stamps (the round counter
//! is monotonic across repairs, so no live stamp ever collides). Waking is
//! piggybacked on sending: the moment a node writes into a neighbor's
//! mailbox slot it also marks the neighbor in a [`WakeSet`], whose marks
//! join the awake list in the round the message is delivered.
//!
//! ## Membership churn
//!
//! Events that add or remove nodes (a customer joining or leaving) change
//! the network itself. [`ChurnSim::rewire`] patches a quiescent sim in
//! place instead of building a new one: the host edits the graph, the node
//! states and the port slab, and the sim re-lays its arena and wake set
//! over the same allocations and moves its round counter to a multiple of
//! the protocol's period, where the protocol sees exactly what a freshly
//! built sim shows it at round 0.
//!
//! ## Determinism
//!
//! The awake set of a round is a *set* (the nodes that returned
//! `Continue` plus the receivers of messages), stepped in ascending id
//! order against the read buffer of the previous round, and every mailbox
//! slot has exactly one writer per round. A repair is therefore a pure function of the states,
//! the wakes and the round counter's residue; the differential tests in
//! `tests/churn_differential.rs` check it against full recomputation.

use crate::metrics::ExecPerf;
use crate::protocol::PortProtocol;
use crate::sim::Plane;
use td_graph::{CsrGraph, NodeId};

/// One update to a live instance. The vocabulary is shared across the
/// problem families; each churn engine accepts the variants that make sense
/// for it (e.g. [`ChurnEvent::TokenArrive`] for token games,
/// [`ChurnEvent::CustomerJoin`] for assignments) and returns an error for
/// the rest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChurnEvent {
    /// Insert the edge `{u, v}`.
    EdgeInsert {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
    },
    /// Delete the edge `{u, v}`.
    EdgeDelete {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
    },
    /// Adversarially flip the orientation of the edge `{u, v}` (the
    /// instance graph is unchanged; the maintained *solution* is perturbed).
    EdgeFlip {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
    },
    /// A token appears on node `v` (token games).
    TokenArrive(NodeId),
    /// The token of node `v` disappears (token games; `v` must be a
    /// traversal origin).
    TokenDrop(NodeId),
    /// A new customer joins with the given candidate server list
    /// (assignments; the engine allocates the customer id).
    CustomerJoin {
        /// Candidate servers of the new customer (external server ids).
        servers: Vec<u32>,
    },
    /// Customer `c` (external id) leaves.
    CustomerLeave(u32),
    /// Server `server` changes capacity. `0` drains the server (its
    /// customers must re-balance elsewhere); any non-zero value makes it
    /// available again. Engines currently treat all non-zero capacities as
    /// unbounded.
    ServerCapacity {
        /// The server (external id).
        server: u32,
        /// New capacity; `0` = drained.
        capacity: u32,
    },
}

impl ChurnEvent {
    /// Encodes the event as one `td-trace/v1` line: a lowercase keyword
    /// followed by space-separated integer operands (`join` uses a
    /// comma-separated server list, `-` when empty). [`decode`] inverts
    /// this exactly.
    ///
    /// [`decode`]: ChurnEvent::decode
    pub fn encode(&self) -> String {
        match self {
            ChurnEvent::EdgeInsert { u, v } => format!("ins {} {}", u.0, v.0),
            ChurnEvent::EdgeDelete { u, v } => format!("del {} {}", u.0, v.0),
            ChurnEvent::EdgeFlip { u, v } => format!("flip {} {}", u.0, v.0),
            ChurnEvent::TokenArrive(v) => format!("arrive {}", v.0),
            ChurnEvent::TokenDrop(v) => format!("drop {}", v.0),
            ChurnEvent::CustomerJoin { servers } => {
                if servers.is_empty() {
                    "join -".to_string()
                } else {
                    let list: Vec<String> = servers.iter().map(u32::to_string).collect();
                    format!("join {}", list.join(","))
                }
            }
            ChurnEvent::CustomerLeave(c) => format!("leave {c}"),
            ChurnEvent::ServerCapacity { server, capacity } => {
                format!("cap {server} {capacity}")
            }
        }
    }

    /// Parses one [`encode`](ChurnEvent::encode)d line. Unknown keywords,
    /// wrong arities, and malformed integers are diagnostics, never panics
    /// — a trace file from a newer schema degrades into a readable error.
    pub fn decode(line: &str) -> Result<ChurnEvent, String> {
        let mut it = line.split_ascii_whitespace();
        let kw = it.next().ok_or_else(|| "empty event line".to_string())?;
        let args: Vec<&str> = it.collect();
        let arity = |n: usize| -> Result<(), String> {
            if args.len() == n {
                Ok(())
            } else {
                Err(format!(
                    "'{kw}' event: expected {n} operand(s), got {}",
                    args.len()
                ))
            }
        };
        let int = |raw: &str| -> Result<u32, String> {
            raw.parse()
                .map_err(|_| format!("'{kw}' event: '{raw}' is not a u32"))
        };
        match kw {
            "ins" | "del" | "flip" => {
                arity(2)?;
                let (u, v) = (NodeId(int(args[0])?), NodeId(int(args[1])?));
                Ok(match kw {
                    "ins" => ChurnEvent::EdgeInsert { u, v },
                    "del" => ChurnEvent::EdgeDelete { u, v },
                    _ => ChurnEvent::EdgeFlip { u, v },
                })
            }
            "arrive" => {
                arity(1)?;
                Ok(ChurnEvent::TokenArrive(NodeId(int(args[0])?)))
            }
            "drop" => {
                arity(1)?;
                Ok(ChurnEvent::TokenDrop(NodeId(int(args[0])?)))
            }
            "join" => {
                arity(1)?;
                let servers = if args[0] == "-" {
                    Vec::new()
                } else {
                    args[0].split(',').map(int).collect::<Result<_, _>>()?
                };
                Ok(ChurnEvent::CustomerJoin { servers })
            }
            "leave" => {
                arity(1)?;
                Ok(ChurnEvent::CustomerLeave(int(args[0])?))
            }
            "cap" => {
                arity(2)?;
                Ok(ChurnEvent::ServerCapacity {
                    server: int(args[0])?,
                    capacity: int(args[1])?,
                })
            }
            other => Err(format!("unknown event keyword '{other}'")),
        }
    }
}

/// A pass-through event sink: hand every applied [`ChurnEvent`] to
/// [`record`](TraceRecorder::record) and the recorder accumulates the
/// stream for serialization (the `td trace record` capture hook). Engines
/// stay unaware of recording — the caller tees events on the way in.
#[derive(Clone, Debug, Default)]
pub struct TraceRecorder {
    events: Vec<ChurnEvent>,
}

impl TraceRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one event to the recorded stream.
    pub fn record(&mut self, ev: &ChurnEvent) {
        self.events.push(ev.clone());
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The recorded stream, in arrival order.
    pub fn events(&self) -> &[ChurnEvent] {
        &self.events
    }

    /// Consumes the recorder, yielding the recorded stream.
    pub fn into_events(self) -> Vec<ChurnEvent> {
        self.events
    }
}

/// Deterministic round-robin symmetry breaking for repair protocols: in
/// `cycle`, node `id` takes the *active* role iff bit `(cycle / 2) mod
/// bits` of its identifier equals the cycle's polarity `cycle mod 2`.
///
/// Any two distinct identifiers below `2^bits` differ in one of the
/// examined bits, so within every window of `2 * bits` cycles they take
/// opposite roles (in both polarities) at least once — the derandomized
/// replacement for the coin-flip role split of the \[CHSW12\]-style
/// baseline. `bits` should be `ceil(log2 n)` (see [`id_bits`]); smaller
/// windows mean shorter worst-case stalls between repairs.
#[inline]
pub fn split_role(id: u32, cycle: u32, bits: u32) -> bool {
    let bit = (id >> ((cycle / 2) % bits.max(1))) & 1;
    bit == (cycle % 2)
}

/// The number of identifier bits [`split_role`] must examine for a network
/// of `n` nodes: `max(1, ceil(log2 n))`.
#[inline]
pub fn id_bits(n: usize) -> u32 {
    (usize::BITS - n.saturating_sub(1).leading_zeros()).max(1)
}

/// An event a churn engine cannot apply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChurnError {
    /// The event variant does not apply to this problem family.
    Unsupported(&'static str),
    /// The event refers to a node/customer/server that does not exist.
    NoSuchEntity(String),
    /// The event is invalid in the current state (e.g. token already
    /// present, edge already exists).
    InvalidEvent(String),
}

impl std::fmt::Display for ChurnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChurnError::Unsupported(family) => {
                write!(f, "event not supported by the {family} engine")
            }
            ChurnError::NoSuchEntity(what) => write!(f, "no such entity: {what}"),
            ChurnError::InvalidEvent(why) => write!(f, "invalid event: {why}"),
        }
    }
}

impl std::error::Error for ChurnError {}

/// Whether a repair restarts the protocol from the dirtied nodes only, or
/// wakes every node (the full-recompute fallback used by the differential
/// tests — same states, same dynamics, every node stepped at least once).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RepairMode {
    /// Wake only the nodes dirtied by the event (default).
    Incremental,
    /// Wake every node: the full-recompute fallback path.
    FullRecompute,
}

/// Cost of one repair run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Rounds until quiescence.
    pub rounds: u32,
    /// Messages sent.
    pub messages: u64,
    /// Total node steps executed (the work measure that separates
    /// incremental repair from the full-recompute fallback: rounds and
    /// messages of the two are identical by determinism, but the fallback
    /// steps every node at least once).
    pub node_steps: u64,
    /// False if the round cap was hit before quiescence.
    pub completed: bool,
}

impl RepairStats {
    /// Accumulates another run's cost into `self`.
    pub fn absorb(&mut self, other: RepairStats) {
        self.rounds += other.rounds;
        self.messages += other.messages;
        self.node_steps += other.node_steps;
        self.completed &= other.completed;
    }

    /// A zero accumulator that starts `completed`.
    pub fn accumulator() -> RepairStats {
        RepairStats {
            completed: true,
            ..RepairStats::default()
        }
    }
}

/// The wake side-channel: per-node "scheduled for next round" flags plus a
/// duplicate-free queue of newly woken nodes. Marking is O(1); merging the
/// queue into the awake list touches only the woken and the awake nodes,
/// never all `n`.
pub struct WakeSet {
    flags: Vec<bool>,
    queue: Vec<u32>,
    /// Scratch buffer of [`WakeSet::merge_into`].
    spare: Vec<u32>,
}

impl WakeSet {
    /// A wake set over `n` nodes, all asleep.
    pub fn new(n: usize) -> Self {
        WakeSet {
            flags: vec![false; n],
            queue: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// Schedules `v` for the next stepping round. Idempotent within a
    /// round; only the first mark enqueues.
    #[inline]
    pub fn mark(&mut self, v: NodeId) {
        let flag = &mut self.flags[v.idx()];
        if !*flag {
            *flag = true;
            self.queue.push(v.0);
        }
    }

    /// Resizes an idle wake set (nothing marked) to `n` nodes, keeping its
    /// allocation.
    fn resize(&mut self, n: usize) {
        assert!(
            self.queue.is_empty(),
            "resizing a wake set with nodes still marked"
        );
        self.flags.resize(n, false);
    }

    /// Merges the marked nodes into `awake`, a sorted, duplicate-free list
    /// that stays so, and clears their flags (so later marks re-enqueue): a
    /// node that is awake already and is marked again is listed once. The
    /// queue, the spare buffer and `awake`'s buffer trade places instead of
    /// being reallocated, so a repair allocates nothing per round once they
    /// have grown to its widest wavefront.
    pub(crate) fn merge_into(&mut self, awake: &mut Vec<u32>) {
        if self.queue.is_empty() {
            return;
        }
        self.queue.sort_unstable();
        for &v in &self.queue {
            self.flags[v as usize] = false;
        }
        if awake.is_empty() {
            std::mem::swap(&mut self.queue, awake);
            return;
        }
        let (old, new) = (&awake[..], &self.queue[..]);
        let merged = &mut self.spare;
        merged.clear();
        let (mut i, mut j) = (0, 0);
        while i < old.len() && j < new.len() {
            // Equal ids advance both sides and are pushed once.
            let (a, b) = (old[i], new[j]);
            merged.push(a.min(b));
            i += usize::from(a <= b);
            j += usize::from(b <= a);
        }
        merged.extend_from_slice(&old[i..]);
        merged.extend_from_slice(&new[j..]);
        std::mem::swap(awake, merged);
        self.queue.clear();
    }
}

/// A persistent, wake-based simulator for churn engines.
///
/// Unlike [`crate::Simulator`], the `ChurnSim` *owns* its graph, node
/// states, port slab and message arena, and survives across repair runs:
/// `Halt` means "quiesce until a message arrives", and the round counter is
/// monotonic so the arena's stamps keep invalidating stale slots for free.
/// Membership churn rewires the sim in place ([`ChurnSim::rewire`]).
///
/// ```
/// use td_local::{ChurnSim, Inbox, NodeInit, Outbox, Protocol, RoundCtx, Status};
/// use td_graph::{gen::classic::path, NodeId};
///
/// /// Flood the maximum value; quiesce as soon as nothing improves.
/// struct Max {
///     best: u64,
///     dirty: bool,
/// }
/// impl Protocol for Max {
///     type Input = u64;
///     type Message = u64;
///     type Output = u64;
///     fn init(n: NodeInit<'_, u64>) -> Self {
///         Max { best: *n.input, dirty: false }
///     }
///     fn round(
///         &mut self,
///         _: &RoundCtx,
///         inbox: &Inbox<'_, u64>,
///         outbox: &mut Outbox<'_, '_, u64>,
///     ) -> Status {
///         for (_, &m) in inbox.iter() {
///             if m > self.best {
///                 self.best = m;
///                 self.dirty = true;
///             }
///         }
///         if self.dirty {
///             self.dirty = false;
///             outbox.broadcast(self.best);
///         }
///         Status::Halt // quiesce; a later message wakes this node
///     }
///     fn finish(self) -> u64 {
///         self.best
///     }
/// }
///
/// let mut sim: ChurnSim<Max> = ChurnSim::new(path(5), &[7, 0, 0, 0, 0]);
/// sim.state_mut(NodeId(0)).dirty = true; // the host applies an update…
/// sim.wake(NodeId(0)); //                   …and wakes the dirtied node
/// let stats = sim.run(1_000);
/// assert!(stats.completed);
/// assert!(sim.states().iter().all(|s| s.best == 7));
/// // Only the flood's wavefront was stepped — no dense n x rounds scan.
/// assert!(stats.node_steps < (5 * stats.rounds) as u64);
/// ```
pub struct ChurnSim<P: PortProtocol> {
    graph: CsrGraph,
    /// The node states, the port slab, the arena, and the awake list: the
    /// nodes the next round steps, empty after a completed run and the
    /// pending frontier after a capped one.
    plane: Plane<P>,
    wake: WakeSet,
    round: u32,
    /// When `round + max_rounds` would reach this value, the stamps are
    /// renormalized before the run (see [`ChurnSim::set_stamp_horizon`]).
    /// Defaults to `u32::MAX - 1`, the arena's reserved-stamp boundary.
    stamp_horizon: u32,
    /// The protocol's behavioral period in `ctx.round` (see
    /// [`ChurnSim::set_round_period`]); renormalization rebases the round
    /// counter by a multiple of `lcm(2, round_period)`.
    round_period: u32,
    /// True after a round-capped run left undelivered messages in the
    /// arena; [`ChurnSim::rewire`] refuses until a run completes.
    in_flight: bool,
    /// Lifetime work counters across every repair run (see
    /// [`ChurnSim::exec_perf`]).
    perf: ExecPerf,
}

impl<P: PortProtocol> ChurnSim<P> {
    /// Boots one node per graph node from `inputs`, all asleep.
    pub fn new(graph: CsrGraph, inputs: &[P::Input]) -> Self {
        let mut plane = Plane::new();
        plane.boot(&graph, inputs);
        plane.arena.restart(graph.num_slots(), 0);
        let n = graph.num_nodes();
        ChurnSim {
            graph,
            plane,
            wake: WakeSet::new(n),
            round: 0,
            stamp_horizon: u32::MAX - 1,
            round_period: 1,
            in_flight: false,
            perf: ExecPerf::default(),
        }
    }

    /// The underlying network.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// Read access to all node states (for snapshotting solutions).
    pub fn states(&self) -> &[P] {
        &self.plane.states
    }

    /// Mutable access to one node's state (for host-side event application).
    pub fn state_mut(&mut self, v: NodeId) -> &mut P {
        &mut self.plane.states[v.idx()]
    }

    /// Schedules `v` to be stepped in the next repair run.
    pub fn wake(&mut self, v: NodeId) {
        self.wake.mark(v);
    }

    /// Schedules every node (the full-recompute fallback).
    pub fn wake_all(&mut self) {
        for v in self.graph.nodes() {
            self.wake.mark(v);
        }
    }

    /// Rewires a quiescent sim (nothing awake, nothing in flight) onto a
    /// changed network in place, for membership churn that adds or removes
    /// nodes and edges.
    ///
    /// `edit` receives the graph, the node states and the port slab. It
    /// must leave one state per node of the edited graph, each the state a
    /// fresh sim would hold for it; typically it patches the graph in its
    /// own buffers (e.g. [`CsrGraph::push_left_node`]) and inserts or
    /// removes states, and moves the port rows of a [`PortProtocol`] with
    /// per-port state along with their slots. The sim then starts over as
    /// [`ChurnSim::new`] would on the edited graph: the slab, the arena and
    /// the wake set are resized to it (slab entries past the edit's end
    /// start at `Default`). The stamp
    /// horizon, the round period and the lifetime [`ChurnSim::exec_perf`]
    /// counters carry over; no buffer is reallocated unless the network
    /// outgrows it.
    ///
    /// The round counter moves up to the next multiple of `lcm(2, period)`
    /// for the current [round period](ChurnSim::set_round_period) (declare
    /// a changed period before rewiring): to the protocol that is round 0
    /// of a fresh sim, and since every stamp left in the arena is older,
    /// the arena needs no scrub. Only near the stamp horizon is it scrubbed
    /// and the counter reset to 0.
    ///
    /// # Panics
    /// If a node is awake, if a round-capped run left messages in flight,
    /// or if `edit` leaves a state count different from the node count.
    pub fn rewire(&mut self, edit: impl FnOnce(&mut CsrGraph, &mut Vec<P>, &mut Vec<P::Port>)) {
        assert!(
            !self.in_flight,
            "rewiring a sim with messages in flight; finish the capped run first"
        );
        assert!(
            self.plane.awake.is_empty() && self.wake.queue.is_empty(),
            "rewiring a sim with nodes awake; run them first"
        );
        let modulus = self.stamp_modulus();
        let plane = &mut self.plane;
        edit(&mut self.graph, &mut plane.states, &mut plane.ports);
        let n = self.graph.num_nodes();
        assert_eq!(plane.states.len(), n, "one state per node required");
        let slots = self.graph.num_slots();
        plane.ports.resize(slots, P::Port::default());
        match self.round.checked_next_multiple_of(modulus) {
            Some(round) if round < self.stamp_horizon => {
                plane.arena.resize(slots);
                self.round = round;
            }
            _ => {
                plane.arena.reset(slots);
                self.round = 0;
            }
        }
        self.wake.resize(n);
    }

    /// The monotonic round counter (diagnostics; persists across repairs —
    /// and is *rebased* toward zero when it approaches the stamp horizon,
    /// see [`ChurnSim::set_stamp_horizon`]; [`ChurnSim::rewire`] moves it
    /// to a multiple of the round period).
    pub fn round(&self) -> u32 {
        self.round
    }

    /// Lowers the stamp-renormalization horizon (default: `u32::MAX - 1`,
    /// the arena's reserved-stamp boundary).
    ///
    /// The round counter is monotonic across repairs so the arena's stale
    /// stamps stay invalid for free — but a *long-running* instance (the
    /// `td serve` daemon) would eventually drive it into the reserved
    /// `u32::MAX` stamp. Instead of asserting, the runners now renormalize
    /// when `round + max_rounds` would reach the horizon: in-flight
    /// messages are re-stamped relative to a rebased round counter and
    /// every stale slot is scrubbed, after which behavior is bit-identical
    /// to a sim whose counter never wrapped. Tests lower the horizon to
    /// cross it in milliseconds instead of centuries.
    pub fn set_stamp_horizon(&mut self, horizon: u32) {
        assert!(horizon >= 4, "horizon must leave room to execute rounds");
        assert!(
            horizon < u32::MAX,
            "stamps reserve u32::MAX; the horizon cannot exceed u32::MAX - 1"
        );
        self.stamp_horizon = horizon;
    }

    /// Declares the protocol's behavioral period in `ctx.round`: the
    /// smallest `p` such that the protocol behaves identically at rounds
    /// `r` and `r + p` (e.g. `phases × role-split period` for the repair
    /// protocols). Renormalization rebases the round counter by a multiple
    /// of `lcm(2, p)` — a multiple of 2 for the arena's buffer parity, a
    /// multiple of `p` so phase-aligned protocols cannot observe the
    /// rebase; [`ChurnSim::rewire`] aligns the counter to such a multiple.
    /// Defaults to 1 (round-agnostic protocol).
    pub fn set_round_period(&mut self, period: u32) {
        assert!(period >= 1, "a protocol's round period is at least 1");
        self.round_period = period;
    }

    /// The declared round period (see [`ChurnSim::set_round_period`]).
    pub fn round_period(&self) -> u32 {
        self.round_period
    }

    /// `lcm(2, round_period)`: moving the round counter by a multiple of it
    /// keeps the arena's buffer parity and the protocol's phase.
    fn stamp_modulus(&self) -> u32 {
        if self.round_period.is_multiple_of(2) {
            self.round_period
        } else {
            self.round_period * 2
        }
    }

    /// Renormalizes the round counter and the arena if `round + max_rounds`
    /// could reach the stamp horizon. The rebased counter keeps the old
    /// one's residue mod `lcm(2, round_period)`: parity keeps in-flight
    /// messages (stamped exactly `round` after a capped run) in the buffer
    /// the next epoch reads, the protocol period keeps phase-aligned
    /// protocols oblivious. All other stamps are necessarily stale and are
    /// scrubbed.
    fn ensure_stamp_headroom(&mut self, max_rounds: u32) {
        if (self.round as u64) + (max_rounds as u64) < self.stamp_horizon as u64 {
            return;
        }
        let modulus = self.stamp_modulus();
        let old = self.round;
        let new = old % modulus;
        self.plane.arena.renormalize(old, new);
        self.round = new;
        assert!(
            (self.round as u64) + (max_rounds as u64) < self.stamp_horizon as u64,
            "a single run's round budget ({max_rounds}) plus the rebased counter ({new}) \
             exceeds the stamp horizon ({})",
            self.stamp_horizon
        );
    }

    /// Lifetime [`ExecPerf`] work counters, accumulated over every repair
    /// run of this sim.
    ///
    /// The churn plane is wake-scheduled — halted nodes are never visited,
    /// let alone scanned — so `halted_scans` is 0 by construction and
    /// `sparse_skips` counts the node-rounds the wake set skipped. Every
    /// delivery is a direct arena write (`local_messages`).
    pub fn exec_perf(&self) -> ExecPerf {
        self.perf
    }

    /// Runs until quiescence (no node awake, no message in flight) or until
    /// `max_rounds` additional rounds have executed. A capped run keeps its
    /// pending frontier awake for the next run.
    pub fn run(&mut self, max_rounds: u32) -> RepairStats {
        self.ensure_stamp_headroom(max_rounds);
        let (stats, perf) = crate::sim::step(
            &self.graph,
            &mut self.plane,
            Some(&mut self.wake),
            self.round..self.round + max_rounds,
            None,
        );
        self.round += stats.rounds;
        self.in_flight = !stats.completed;
        self.perf.absorb(perf);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Inbox, NodeInit, Outbox, Protocol, RoundCtx, Status};
    use td_graph::gen::classic::{cycle, path};
    use td_graph::Port;

    #[test]
    fn churn_events_encode_decode_roundtrip() {
        let all = [
            ChurnEvent::EdgeInsert {
                u: NodeId(3),
                v: NodeId(9),
            },
            ChurnEvent::EdgeDelete {
                u: NodeId(0),
                v: NodeId(1),
            },
            ChurnEvent::EdgeFlip {
                u: NodeId(7),
                v: NodeId(7),
            },
            ChurnEvent::TokenArrive(NodeId(12)),
            ChurnEvent::TokenDrop(NodeId(0)),
            ChurnEvent::CustomerJoin {
                servers: vec![4, 0, 2],
            },
            ChurnEvent::CustomerJoin { servers: vec![] },
            ChurnEvent::CustomerLeave(99),
            ChurnEvent::ServerCapacity {
                server: 5,
                capacity: 0,
            },
            ChurnEvent::ServerCapacity {
                server: u32::MAX,
                capacity: u32::MAX,
            },
        ];
        for ev in &all {
            let line = ev.encode();
            assert!(!line.contains('\n'), "{line:?}: single line");
            let back = ChurnEvent::decode(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(&back, ev, "{line}");
        }
    }

    #[test]
    fn churn_event_decode_rejects_malformed_lines() {
        for bad in [
            "",
            "teleport 3 4",      // unknown keyword (future schema variant)
            "ins 3",             // arity
            "ins 3 4 5",         // arity
            "flip x 4",          // not a u32
            "arrive -1",         // negative
            "join",              // missing list
            "join 1,,2",         // empty list element
            "cap 5",             // arity
            "leave 99999999999", // u32 overflow
        ] {
            let err = ChurnEvent::decode(bad);
            assert!(err.is_err(), "{bad:?}: should be rejected, got {err:?}");
        }
        // The diagnostic names the offending keyword.
        let msg = ChurnEvent::decode("teleport 3 4").unwrap_err();
        assert!(msg.contains("teleport"), "{msg}");
    }

    #[test]
    fn trace_recorder_accumulates_in_order() {
        let mut rec = TraceRecorder::new();
        assert!(rec.is_empty());
        let evs = [
            ChurnEvent::EdgeFlip {
                u: NodeId(1),
                v: NodeId(2),
            },
            ChurnEvent::CustomerLeave(3),
        ];
        for ev in &evs {
            rec.record(ev);
        }
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.events(), &evs[..]);
        assert_eq!(rec.into_events(), evs.to_vec());
    }

    /// Relaxation to a fixpoint: each node holds a value; when woken it
    /// adopts `max(own, received)` and gossips only on change. Quiesces as
    /// soon as the maximum has flooded the awake region.
    struct MaxHold {
        best: u64,
        dirty: bool,
    }

    impl Protocol for MaxHold {
        type Input = u64;
        type Message = u64;
        type Output = u64;

        fn init(node: NodeInit<'_, u64>) -> Self {
            MaxHold {
                best: *node.input,
                // Converged by default: a woken node gossips only after its
                // value actually changes (tests flip this by hand to model
                // a host-applied perturbation).
                dirty: false,
            }
        }

        fn round(
            &mut self,
            _ctx: &RoundCtx,
            inbox: &Inbox<'_, u64>,
            outbox: &mut Outbox<'_, '_, u64>,
        ) -> Status {
            for (_, &m) in inbox.iter() {
                if m > self.best {
                    self.best = m;
                    self.dirty = true;
                }
            }
            if self.dirty {
                self.dirty = false;
                outbox.broadcast(self.best);
            }
            Status::Halt
        }

        fn finish(self) -> u64 {
            self.best
        }
    }

    #[test]
    fn quiescent_without_wakes() {
        let g = path(5);
        let mut sim: ChurnSim<MaxHold> = ChurnSim::new(g, &[1, 2, 3, 4, 5]);
        let stats = sim.run(1000);
        assert_eq!(stats.rounds, 0);
        assert_eq!(stats.node_steps, 0);
        assert!(stats.completed);
    }

    #[test]
    fn wake_floods_only_while_values_improve() {
        let g = path(6);
        let mut sim: ChurnSim<MaxHold> = ChurnSim::new(g, &[9, 0, 0, 0, 0, 0]);
        sim.state_mut(NodeId(0)).dirty = true;
        sim.wake(NodeId(0));
        let stats = sim.run(1000);
        assert!(stats.completed);
        // The 9 floods down the path: rounds = path length + settle.
        assert!(stats.rounds >= 5, "rounds = {}", stats.rounds);
        for v in 0..6 {
            assert_eq!(sim.states()[v].best, 9);
        }
    }

    #[test]
    fn sleeping_region_pays_zero_steps() {
        // Wake one endpoint whose value is NOT the max: the flood dies as
        // soon as no node improves; far nodes are never stepped.
        let g = path(40);
        let mut inputs = vec![5u64; 40];
        inputs[0] = 3; // woken node is dominated immediately
        let mut sim: ChurnSim<MaxHold> = ChurnSim::new(g, &inputs);
        sim.state_mut(NodeId(0)).dirty = true;
        sim.wake(NodeId(0));
        let stats = sim.run(1000);
        assert!(stats.completed);
        // Node 0 gossips its 3; node 1 ignores the dominated value and goes
        // back to sleep. The other 38 nodes are never stepped.
        assert_eq!(stats.node_steps, 2);
        assert_eq!(stats.messages, 1);
    }

    #[test]
    fn round_counter_persists_and_messages_stay_valid() {
        let g = cycle(8);
        let mut sim: ChurnSim<MaxHold> = ChurnSim::new(g, &[0; 8]);
        sim.wake(NodeId(3));
        let a = sim.run(1000);
        assert!(a.completed);
        let r0 = sim.round();
        // Second repair: bump node 5's value by hand, wake it.
        sim.state_mut(NodeId(5)).best = 42;
        sim.state_mut(NodeId(5)).dirty = true;
        sim.wake(NodeId(5));
        let b = sim.run(1000);
        assert!(b.completed);
        assert!(sim.round() > r0);
        for v in 0..8 {
            assert_eq!(sim.states()[v].best, 42, "node {v}");
        }
    }

    #[test]
    fn zero_round_cap_is_executor_independent() {
        let g = path(6);
        let mut sim: ChurnSim<MaxHold> = ChurnSim::new(g, &[1, 0, 0, 0, 0, 0]);
        sim.state_mut(NodeId(0)).dirty = true;
        sim.wake(NodeId(0));
        let capped = sim.run(0);
        assert_eq!(capped.rounds, 0);
        assert!(!capped.completed);
        // The pending wake survives for the next run.
        let rest = sim.run(1000);
        assert!(rest.completed);
        assert!(rest.node_steps > 0);
    }

    #[test]
    fn round_cap_leaves_work_resumable() {
        let g = path(30);
        let mut inputs = vec![0u64; 30];
        inputs[0] = 9;
        let mut sim: ChurnSim<MaxHold> = ChurnSim::new(g, &inputs);
        sim.state_mut(NodeId(0)).dirty = true;
        sim.wake(NodeId(0));
        let a = sim.run(3);
        assert!(!a.completed);
        assert_eq!(a.rounds, 3);
        let b = sim.run(10_000);
        assert!(b.completed);
        assert_eq!(sim.states()[29].best, 9);
    }

    /// Waking only the dirtied node and waking every node (the
    /// full-recompute fallback) run the same dynamics: MaxHold's converged
    /// nodes stay silent when woken, so rounds, messages and final states
    /// agree, and the wake-all run pays only extra steps.
    #[test]
    fn waking_every_node_matches_waking_the_dirty_one() {
        let g = cycle(17);
        let mut inputs = vec![0u64; 17];
        inputs[11] = 7;
        let mut dirty: ChurnSim<MaxHold> = ChurnSim::new(g.clone(), &inputs);
        dirty.state_mut(NodeId(11)).dirty = true;
        dirty.wake(NodeId(11));
        let a = dirty.run(10_000);
        let mut all: ChurnSim<MaxHold> = ChurnSim::new(g, &inputs);
        all.state_mut(NodeId(11)).dirty = true;
        all.wake_all();
        let b = all.run(10_000);
        assert!(a.completed && b.completed);
        assert_eq!((a.rounds, a.messages), (b.rounds, b.messages));
        assert_eq!(
            b.node_steps,
            a.node_steps + 16,
            "the 16 idle nodes step once"
        );
        for v in 0..17 {
            assert_eq!(dirty.states()[v].best, 7);
            assert_eq!(all.states()[v].best, 7);
        }
    }

    /// A repair cut into capped slices of any length resumes to the
    /// uncapped run: same rounds, messages, node steps and final states.
    #[test]
    fn capped_slices_resume_to_the_uncapped_repair() {
        let g = cycle(17);
        let mut inputs = vec![0u64; 17];
        inputs[11] = 7;
        let start = |g: &CsrGraph| {
            let mut sim: ChurnSim<MaxHold> = ChurnSim::new(g.clone(), &inputs);
            sim.state_mut(NodeId(11)).dirty = true;
            sim.wake(NodeId(11));
            sim
        };
        let mut whole = start(&g);
        let want = whole.run(10_000);
        assert!(want.completed);
        for cap in [1u32, 2, 4, 8] {
            let mut sliced = start(&g);
            let mut total = RepairStats::accumulator();
            loop {
                let slice = sliced.run(cap);
                total.absorb(slice);
                total.completed = slice.completed;
                if slice.completed {
                    break;
                }
                assert_eq!(slice.rounds, cap, "cap {cap}");
            }
            assert_eq!(total, want, "cap {cap}");
            assert_eq!(sliced.round(), whole.round(), "cap {cap}");
            for v in 0..17 {
                assert_eq!(sliced.states()[v].best, 7, "cap {cap} node {v}");
            }
        }
    }

    /// Wakes the host adds between a capped run and its resume join the
    /// pending frontier: both floods complete in the resumed run.
    #[test]
    fn wakes_between_capped_runs_join_the_resumed_run() {
        let g = path(30);
        let mut inputs = vec![0u64; 30];
        inputs[0] = 9;
        let mut sim: ChurnSim<MaxHold> = ChurnSim::new(g, &inputs);
        sim.state_mut(NodeId(0)).dirty = true;
        sim.wake(NodeId(0));
        let a = sim.run(3);
        assert!(!a.completed);
        assert_eq!(a.rounds, 3);
        // A second, smaller flood from the far end, started mid-repair.
        sim.state_mut(NodeId(29)).best = 5;
        sim.state_mut(NodeId(29)).dirty = true;
        sim.wake(NodeId(29));
        let b = sim.run(10_000);
        assert!(b.completed);
        assert!(sim.states().iter().all(|s| s.best == 9));
    }

    /// A message whose receiver sits in a *fully* asleep region wakes it:
    /// the flood starts at one end of the path with every other node
    /// asleep, reaches all of them, repeats exactly on a twin sim, and
    /// steps far fewer node-rounds than a dense scan would.
    #[test]
    fn message_wakes_a_fully_quiesced_region() {
        let g = path(16);
        let mut inputs = vec![0u64; 16];
        inputs[0] = 9;
        let flood = || {
            let mut sim: ChurnSim<MaxHold> = ChurnSim::new(g.clone(), &inputs);
            sim.state_mut(NodeId(0)).dirty = true;
            sim.wake(NodeId(0));
            let stats = sim.run(10_000);
            (sim, stats)
        };
        let (sim, a) = flood();
        let (_, b) = flood();
        assert_eq!(a, b);
        for v in 0..16 {
            assert_eq!(sim.states()[v].best, 9, "node {v}");
        }
        assert!(
            a.node_steps < (16 * a.rounds) as u64,
            "steps {} not sparse",
            a.node_steps
        );
    }

    /// A protocol that echoes received payloads back once, port-addressed —
    /// exercises wake-on-message with specific ports.
    struct EchoOnce;

    impl Protocol for EchoOnce {
        type Input = ();
        type Message = u32;
        type Output = ();

        fn init(_: NodeInit<'_, ()>) -> Self {
            EchoOnce
        }

        fn round(
            &mut self,
            ctx: &RoundCtx,
            inbox: &Inbox<'_, u32>,
            outbox: &mut Outbox<'_, '_, u32>,
        ) -> Status {
            if ctx.round == 0 {
                outbox.send(Port::from(0usize), 1);
            } else {
                for (p, &m) in inbox.iter() {
                    if m < 3 {
                        outbox.send(p, m + 1);
                    }
                }
            }
            Status::Halt
        }

        fn finish(self) {}
    }

    #[test]
    fn message_wakes_sleeping_receiver() {
        let g = path(2);
        let mut sim: ChurnSim<EchoOnce> = ChurnSim::new(g, &[(), ()]);
        sim.wake(NodeId(0));
        let stats = sim.run(100);
        assert!(stats.completed);
        // 0 sends 1; 1 wakes, replies 2; 0 wakes, replies 3; 1 wakes, stops.
        assert_eq!(stats.messages, 3);
        assert_eq!(stats.node_steps, 4);
    }

    /// Marking a node twice before it is stepped enqueues it once, and
    /// merging a node that is awake already lists it once — the invariant
    /// behind "a node woken by its own `Continue` *and* an incoming message
    /// in the same round is stepped exactly once".
    #[test]
    fn wakeset_re_mark_in_same_round_enqueues_once() {
        let mut ws = WakeSet::new(5);
        let mut awake = Vec::new();
        ws.mark(NodeId(4));
        ws.mark(NodeId(2));
        ws.mark(NodeId(2));
        ws.mark(NodeId(4));
        ws.merge_into(&mut awake);
        assert_eq!(awake, vec![2, 4]);
        // Merged flags are cleared: the same node can be woken again.
        ws.mark(NodeId(2));
        ws.mark(NodeId(3));
        ws.merge_into(&mut awake);
        assert_eq!(awake, vec![2, 3, 4]);
        awake.clear();
        ws.merge_into(&mut awake);
        assert!(awake.is_empty());
    }

    /// Both neighbors message each other *and* return `Continue` every
    /// round: each node is doubly scheduled (self-continue + incoming
    /// message) yet must be stepped exactly once per round.
    struct ChattyPair;

    impl Protocol for ChattyPair {
        type Input = ();
        type Message = u8;
        type Output = ();

        fn init(_: NodeInit<'_, ()>) -> Self {
            ChattyPair
        }

        fn round(
            &mut self,
            ctx: &RoundCtx,
            _inbox: &Inbox<'_, u8>,
            outbox: &mut Outbox<'_, '_, u8>,
        ) -> Status {
            if ctx.round < 3 {
                outbox.broadcast(1);
                Status::Continue
            } else {
                Status::Halt
            }
        }

        fn finish(self) {}
    }

    #[test]
    fn double_wake_continue_plus_message_steps_once() {
        let g = path(2);
        let mut sim: ChurnSim<ChattyPair> = ChurnSim::new(g, &[(), ()]);
        sim.wake(NodeId(0));
        sim.wake(NodeId(1));
        let stats = sim.run(100);
        assert!(stats.completed);
        // Rounds 0..=2 send + continue, round 3 quiesces: 4 rounds,
        // 2 nodes stepped once each per round despite the double wake.
        assert_eq!(stats.rounds, 4);
        assert_eq!(stats.node_steps, 8);
        assert_eq!(stats.messages, 6);
    }

    /// Round-cap resume one round at a time: after a capped run the flood's
    /// frontier is partially woken (some nodes already stepped, the rest
    /// still asleep), and repeated 1-round slices must make monotonic
    /// progress to the same final state and totals as an uncapped run.
    #[test]
    fn round_cap_resume_with_a_partially_woken_frontier() {
        let g = path(16);
        let mut inputs = vec![0u64; 16];
        inputs[0] = 9;
        let mut capped: ChurnSim<MaxHold> = ChurnSim::new(g.clone(), &inputs);
        capped.state_mut(NodeId(0)).dirty = true;
        capped.wake(NodeId(0));
        // Cap after 2 rounds: the flood is at node 2.
        let first = capped.run(2);
        assert!(!first.completed);
        assert_eq!(first.rounds, 2);
        let mut total = first;
        let mut slices = 0;
        while !total.completed {
            let slice = capped.run(1);
            assert!(slice.rounds <= 1);
            total.absorb(slice);
            total.completed = slice.completed;
            slices += 1;
            assert!(slices < 100, "resume failed to converge");
        }
        let mut free: ChurnSim<MaxHold> = ChurnSim::new(g, &inputs);
        free.state_mut(NodeId(0)).dirty = true;
        free.wake(NodeId(0));
        let uncapped = free.run(10_000);
        assert_eq!(total.rounds, uncapped.rounds);
        assert_eq!(total.messages, uncapped.messages);
        assert_eq!(total.node_steps, uncapped.node_steps);
        for v in 0..16 {
            assert_eq!(capped.states()[v].best, free.states()[v].best, "node {v}");
        }
    }

    /// The lifetime work counters are exact: node-rounds and messages match
    /// the run's [`RepairStats`], every message is a local write, the
    /// wake-based scheduler reports zero halted scans, and the stamp scans
    /// are the stepped nodes' degrees.
    #[test]
    fn exec_perf_counters_are_exact_and_plane_attributed() {
        let g = path(16);
        let mut inputs = vec![0u64; 16];
        inputs[0] = 9;
        let mut flat: ChurnSim<MaxHold> = ChurnSim::new(g, &inputs);
        flat.state_mut(NodeId(0)).dirty = true;
        flat.wake(NodeId(0));
        let a = flat.run(10_000);
        let pf = flat.exec_perf();
        assert_eq!(pf.node_rounds, a.node_steps);
        assert_eq!(pf.local_messages, a.messages);
        assert_eq!(pf.boundary_messages, 0);
        assert_eq!(pf.halted_scans, 0);
        assert_eq!(pf.sparse_skips, (a.rounds as u64) * 16 - a.node_steps);
        // Nodes 0..=14 are stepped twice (node 0's own start or the flood,
        // then the echo from the next node), the far end once; each step
        // exposes the node's whole inbox row: 2·1 + 14·2·2 + 1 slots.
        assert_eq!(a.node_steps, 31);
        assert_eq!(pf.stamp_scans, 59);
    }

    /// Repeated repairs across an artificially-lowered stamp horizon: the
    /// round counter is renormalized mid-lifecycle (where the old code
    /// asserted), and every repair's stats and final state stay
    /// bit-identical to a twin sim whose counter never crosses it.
    #[test]
    fn lowered_horizon_renormalization_is_bit_identical() {
        let g = path(12);
        let mut wrap: ChurnSim<MaxHold> = ChurnSim::new(g.clone(), &[0u64; 12]);
        wrap.set_stamp_horizon(40);
        let mut ctl: ChurnSim<MaxHold> = ChurnSim::new(g, &[0u64; 12]);
        for rep in 1..=20u64 {
            let src = NodeId(((rep as usize * 5) % 12) as u32);
            for sim in [&mut wrap, &mut ctl] {
                sim.state_mut(src).best = rep * 10;
                sim.state_mut(src).dirty = true;
                sim.wake(src);
            }
            let a = wrap.run(32);
            let b = ctl.run(32);
            assert_eq!(a, b, "repair {rep}");
            assert!(a.completed, "repair {rep}");
            for v in 0..12 {
                assert_eq!(
                    wrap.states()[v].best,
                    ctl.states()[v].best,
                    "repair {rep} node {v}"
                );
            }
        }
        // The control's monotonic counter crossed the lowered horizon — the
        // exact point where the pre-fix assert fired — while the wrapping
        // sim was rebased back below it.
        assert!(ctl.round() >= 40, "control round {}", ctl.round());
        assert!(wrap.round() < 40, "wrap round {}", wrap.round());
    }

    /// Renormalization on a wider network whose repairs start far apart
    /// (every seventh node of 16) under a round cap close to the horizon:
    /// every repair and the final state match a never-rebased twin.
    #[test]
    fn wide_plane_survives_stamp_renormalization() {
        let g = path(16);
        let mut wrap: ChurnSim<MaxHold> = ChurnSim::new(g.clone(), &[0u64; 16]);
        wrap.set_stamp_horizon(48);
        let mut ctl: ChurnSim<MaxHold> = ChurnSim::new(g, &[0u64; 16]);
        for rep in 1..=12u64 {
            let src = NodeId(((rep as usize * 7) % 16) as u32);
            for sim in [&mut wrap, &mut ctl] {
                sim.state_mut(src).best = rep * 10;
                sim.state_mut(src).dirty = true;
                sim.wake(src);
            }
            let a = wrap.run(40);
            let b = ctl.run(40);
            assert_eq!(a, b, "repair {rep}");
            assert!(a.completed, "repair {rep}");
        }
        for v in 0..16 {
            assert_eq!(wrap.states()[v].best, ctl.states()[v].best, "node {v}");
        }
        assert!(ctl.round() >= 48, "control round {}", ctl.round());
        assert!(wrap.round() < 48, "wrap round {}", wrap.round());
    }

    /// Renormalization with messages in flight: a capped run leaves the
    /// flood's frontier undelivered, stamped with the break-point round;
    /// the rebase re-stamps it (parity preserved) so the resumed run
    /// delivers it exactly as a never-rebased twin does.
    #[test]
    fn renormalization_preserves_in_flight_messages() {
        let g = path(30);
        let mut inputs = vec![0u64; 30];
        inputs[0] = 9;
        let mut wrap: ChurnSim<MaxHold> = ChurnSim::new(g.clone(), &inputs);
        let mut ctl: ChurnSim<MaxHold> = ChurnSim::new(g, &inputs);
        for sim in [&mut wrap, &mut ctl] {
            sim.state_mut(NodeId(0)).dirty = true;
            sim.wake(NodeId(0));
            let first = sim.run(5);
            assert!(!first.completed);
        }
        // Only the resumed run crosses the horizon (5 + 48 >= 50), so the
        // rebase happens with the frontier message mid-flight.
        wrap.set_stamp_horizon(50);
        let a = wrap.run(48);
        let b = ctl.run(48);
        assert_eq!(a, b);
        assert!(a.completed);
        for v in 0..30 {
            assert_eq!(wrap.states()[v].best, 9, "node {v}");
        }
        // The rebase shows in the counter: wrap resumed from round 1, the
        // control from round 5, and both ran the same rounds.
        assert_eq!(wrap.round() + 4, ctl.round());
    }

    /// A single run whose round budget alone reaches the horizon cannot be
    /// saved by renormalization and must fail loudly, not wrap silently.
    #[test]
    #[should_panic(expected = "exceeds the stamp horizon")]
    fn round_budget_exceeding_horizon_panics() {
        let g = path(4);
        let mut sim: ChurnSim<MaxHold> = ChurnSim::new(g, &[0u64; 4]);
        sim.set_stamp_horizon(16);
        let _ = sim.run(1000);
    }

    /// Rewiring a used sim onto a larger, then a smaller network leaves it
    /// bit-identical to a sim freshly built on each. The arena still holds
    /// the old floods' messages (value 100, in slots that now belong to
    /// other ports), which must never be read again; the lifetime counters
    /// keep counting.
    #[test]
    fn rewire_matches_a_fresh_sim_on_the_new_graph() {
        let zero = || MaxHold {
            best: 0,
            dirty: false,
        };
        let mut sim: ChurnSim<MaxHold> = ChurnSim::new(path(6), &[0; 6]);
        for n in [9usize, 4] {
            sim.state_mut(NodeId(0)).best = 100;
            sim.state_mut(NodeId(0)).dirty = true;
            sim.wake(NodeId(0));
            assert!(sim.run(10_000).completed);
            let before = sim.exec_perf();
            sim.rewire(|g, states, _| {
                *g = path(n);
                states.clear();
                states.resize_with(n, zero);
            });
            assert_eq!(sim.round() % 2, 0, "n {n}: parity of a fresh start");
            assert_eq!(sim.exec_perf(), before, "rewiring is not work");
            let mut fresh: ChurnSim<MaxHold> = ChurnSim::new(path(n), &vec![0; n]);
            for s in [&mut sim, &mut fresh] {
                s.state_mut(NodeId::from(n - 1)).best = 1;
                s.state_mut(NodeId::from(n - 1)).dirty = true;
                s.wake(NodeId::from(n - 1));
            }
            let a = sim.run(10_000);
            let b = fresh.run(10_000);
            assert_eq!(a, b, "n {n}");
            assert!(a.completed && a.rounds >= n as u32 - 1);
            for v in 0..n {
                assert_eq!(sim.states()[v].best, 1, "node {v}: no stale message read");
            }
            let mut expect = before;
            expect.absorb(fresh.exec_perf());
            assert_eq!(sim.exec_perf(), expect);
        }
    }

    /// Where aligning the round counter would reach the stamp horizon,
    /// rewiring scrubs the arena and restarts at round 0 instead.
    #[test]
    fn rewire_near_the_stamp_horizon_restarts_at_zero() {
        let mut sim: ChurnSim<MaxHold> = ChurnSim::new(path(6), &[0; 6]);
        sim.set_stamp_horizon(12);
        sim.set_round_period(3);
        sim.state_mut(NodeId(0)).best = 3;
        sim.state_mut(NodeId(0)).dirty = true;
        sim.wake(NodeId(0));
        assert!(sim.run(8).completed);
        // The next multiple of lcm(2, 3) is the horizon itself.
        assert!((7..12).contains(&sim.round()), "round {}", sim.round());
        sim.rewire(|g, states, _| {
            *g = path(4);
            states.truncate(4);
        });
        assert_eq!(sim.round(), 0);
        let mut fresh: ChurnSim<MaxHold> = ChurnSim::new(path(4), &[3; 4]);
        for s in [&mut sim, &mut fresh] {
            s.state_mut(NodeId(3)).best = 9;
            s.state_mut(NodeId(3)).dirty = true;
            s.wake(NodeId(3));
        }
        assert_eq!(sim.run(8), fresh.run(8));
        assert!(sim.states().iter().all(|s| s.best == 9));
    }

    #[test]
    #[should_panic(expected = "nodes awake")]
    fn rewire_refuses_a_sim_with_nodes_awake() {
        let mut sim: ChurnSim<MaxHold> = ChurnSim::new(path(3), &[0; 3]);
        sim.wake(NodeId(1));
        sim.rewire(|_, _, _| ());
    }

    #[test]
    #[should_panic(expected = "in flight")]
    fn rewire_refuses_a_capped_run() {
        let mut sim: ChurnSim<MaxHold> = ChurnSim::new(path(8), &[0; 8]);
        sim.state_mut(NodeId(0)).best = 1;
        sim.state_mut(NodeId(0)).dirty = true;
        sim.wake(NodeId(0));
        assert!(!sim.run(2).completed);
        sim.rewire(|_, _, _| ());
    }

    #[test]
    #[should_panic(expected = "one state per node")]
    fn rewire_checks_the_state_count() {
        let mut sim: ChurnSim<MaxHold> = ChurnSim::new(path(3), &[0; 3]);
        sim.rewire(|g, _, _| *g = path(4));
    }
}
