//! The node-side programming interface of the LOCAL simulator.

use crate::arena::{ArenaWriter, Slot};
use crate::churn::WakeSet;
use td_graph::{CsrGraph, NodeId, Port};

/// Everything a node is allowed to see when it boots, matching the paper's
/// Section 3: "initially, the only information that a node u has are the
/// identifiers of its neighbors" — plus its problem-specific local input
/// (token/level/role), which is part of the problem instance.
pub struct NodeInit<'a, I> {
    /// This node's globally unique identifier.
    pub id: NodeId,
    /// Identifiers of the neighbors, indexed by port (`neighbor_ids[p]` sits
    /// at the other end of port `p`).
    pub neighbor_ids: &'a [u32],
    /// The node's local share of the problem input.
    pub input: &'a I,
}

impl<'a, I> NodeInit<'a, I> {
    /// Degree of this node (number of ports).
    pub fn degree(&self) -> usize {
        self.neighbor_ids.len()
    }
}

/// Per-round context.
pub struct RoundCtx {
    /// The current round number, starting from 0. The inbox of round `r`
    /// holds the messages sent in round `r - 1` (so it is empty in round 0).
    /// A one-shot run's rounds stay below its `u32` round cap; a churn
    /// plane's clock runs on across repairs.
    pub round: u64,
}

/// Whether a node keeps participating after this round.
///
/// [`crate::Simulator`] and [`crate::churn::ChurnSim`] step nodes with the
/// same loop, which steps a node that returns `Continue` again next round.
/// Under the simulator, `Halt` is final: the node's output is decided and
/// it never runs again. Under `ChurnSim`, `Halt` means *quiesce*: the node
/// parks, and a later incoming message wakes it for another round.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Status {
    /// Keep running next round.
    Continue,
    /// Local output is decided; the node stops (its outgoing messages from
    /// *this* round are still delivered).
    Halt,
}

/// A node's view of the messages received this round: one optional message
/// per port, backed by the node's contiguous run of arena slots.
pub struct Inbox<'a, M> {
    /// The node's slot row of the buffer read this round, one per port.
    pub(crate) row: &'a [Slot<M>],
    /// The stamp of the round being read: a slot holds a message iff its
    /// stamp equals it.
    pub(crate) stamp: u32,
}

impl<'a, M> Inbox<'a, M> {
    /// The message received on `port`, if any.
    ///
    /// # Panics
    /// If `port` is not below the node's degree.
    #[inline]
    pub fn get(&self, port: Port) -> Option<&'a M> {
        self.row[port.idx()].addressed_to(self.stamp)
    }

    /// Iterates over `(port, message)` pairs for all ports that received
    /// one, by a single pass over the node's contiguous slot row.
    pub fn iter(&self) -> impl Iterator<Item = (Port, &'a M)> + '_ {
        let (row, stamp) = (self.row, self.stamp);
        row.iter()
            .enumerate()
            .filter_map(move |(p, s)| s.addressed_to(stamp).map(|m| (Port::from(p), m)))
    }

    /// Number of ports (== the node's degree).
    pub fn num_ports(&self) -> usize {
        self.row.len()
    }

    /// Number of messages received this round.
    pub fn count(&self) -> usize {
        self.iter().count()
    }

    /// True if no message arrived this round.
    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }
}

/// A node's sending interface for the current round.
///
/// Sending writes the payload in place into the *write* buffer slot owned by
/// the receiving endpoint and publishes its stamp, through a reborrow of
/// the round's one [`ArenaWriter`] (see [`crate::arena`]).
pub struct Outbox<'a, 'g, M> {
    pub(crate) writer: ArenaWriter<'a, M>,
    pub(crate) graph: &'g CsrGraph,
    pub(crate) node: NodeId,
    /// The node's first CSR slot: `base + port` is the slot of `port`.
    pub(crate) base: usize,
    /// The node's degree; every port sent on must be below it.
    pub(crate) degree: usize,
    /// Messages sent through this outbox. The production loop points one
    /// outbox at every node of a round in turn, so there it counts the
    /// round's sends.
    pub(crate) sent: u64,
    /// The wake set of a [`crate::churn::ChurnSim`] repair: sending also
    /// schedules the receiver for the delivery round. `None` in a one-shot
    /// [`crate::Simulator`] run, which steps every node that has not halted.
    pub(crate) wake: Option<&'a mut WakeSet>,
}

impl<'g, M: Clone> Outbox<'_, 'g, M> {
    /// Sends `msg` over `port`; it arrives at the neighbor next round.
    /// Sending twice on the same port in one round overwrites (one message
    /// per edge per round, as in the LOCAL model).
    ///
    /// # Panics
    /// If `port` is not below the node's degree.
    #[inline]
    pub fn send(&mut self, port: Port, msg: M) {
        assert!(
            port.idx() < self.degree,
            "port {port} out of range at {} (degree {})",
            self.node,
            self.degree
        );
        let slot = self.base + port.idx();
        self.writer.write(self.graph.mirror_slot(slot), msg);
        if let Some(wake) = self.wake.as_deref_mut() {
            wake.mark(self.graph.neighbor_at(self.node, port));
        }
        self.sent += 1;
    }

    /// Sends a clone of `msg` over every port.
    pub fn broadcast(&mut self, msg: M) {
        for p in 0..self.degree {
            self.send(Port::from(p), msg.clone());
        }
    }

    /// Number of ports available (== the node's degree).
    pub fn num_ports(&self) -> usize {
        self.degree
    }

    /// Identifiers of the neighbors, indexed by port: the
    /// [`NodeInit::neighbor_ids`] of the current network, so a node need
    /// not keep its own copy.
    pub fn neighbor_ids(&self) -> &'g [u32] {
        self.graph.neighbors(self.node)
    }
}

/// A distributed algorithm in the LOCAL model, written from the perspective
/// of a single node.
///
/// The executor creates one `Protocol` value per node via [`Protocol::init`],
/// calls [`Protocol::round`] once per synchronous round until the node halts,
/// then collects local outputs via [`Protocol::finish`]. Every `Protocol` is
/// a [`PortProtocol`] with no per-port state (`Port = ()`); a node that keeps
/// state per port implements [`PortProtocol`] instead.
pub trait Protocol: Sized {
    /// Per-node problem input (e.g. "holds a token", "level 3").
    type Input;
    /// Message type exchanged between neighbors. `Default` seeds the
    /// flat message arena (slot validity is tracked by stamps, so the
    /// default value is never observed as a delivered message).
    type Message: Clone + Default;
    /// Per-node output (e.g. "final orientation of my incident edges").
    type Output;

    /// Boots the node. LOCAL: only local information is available.
    fn init(node: NodeInit<'_, Self::Input>) -> Self;

    /// Executes one synchronous round: read `inbox` (messages sent by
    /// neighbors in the previous round), update local state, write `outbox`.
    fn round(
        &mut self,
        ctx: &RoundCtx,
        inbox: &Inbox<'_, Self::Message>,
        outbox: &mut Outbox<'_, '_, Self::Message>,
    ) -> Status;

    /// Consumes the node state and emits the local output after halting.
    fn finish(self) -> Self::Output;
}

/// A [`Protocol`] that keeps its per-port state in the simulator's *port
/// slab* instead of in the node state.
///
/// The slab is one CSR-aligned `Vec<Self::Port>`, with one entry per slot
/// like the [`crate::arena::MessageArena`]: a node's *row* holds the entries
/// of its ports, in port order (`row[p]` belongs to port `p`). `init`,
/// `round` and `finish` each see the node's row, so the node state can be a
/// fixed-size value, and the simulator keeps the slab, like the arena, from
/// one run to the next instead of allocating per node. Neighbor ids need no
/// copy either: [`Outbox::neighbor_ids`] reads them off the network.
///
/// The stepping loops run `PortProtocol`s: every [`Protocol`] is one, with
/// `Port = ()`.
pub trait PortProtocol: Sized {
    /// Per-node problem input.
    type Input;
    /// Message type exchanged between neighbors (see
    /// [`Protocol::Message`]).
    type Message: Clone + Default;
    /// Per-node output.
    type Output;
    /// Per-port state. Every entry of a row reads `Port::default()` when
    /// `init` runs, on a fresh plane and on a kept one alike.
    type Port: Copy + Default;

    /// Boots the node, which may fill its port row. LOCAL: only local
    /// information is available.
    fn init(node: NodeInit<'_, Self::Input>, ports: &mut [Self::Port]) -> Self;

    /// Executes one synchronous round (see [`Protocol::round`]), with the
    /// node's port row.
    fn round(
        &mut self,
        ctx: &RoundCtx,
        ports: &mut [Self::Port],
        inbox: &Inbox<'_, Self::Message>,
        outbox: &mut Outbox<'_, '_, Self::Message>,
    ) -> Status;

    /// Consumes the node state and emits the local output after halting.
    fn finish(self, ports: &[Self::Port]) -> Self::Output;
}

impl<P: Protocol> PortProtocol for P {
    type Input = P::Input;
    type Message = P::Message;
    type Output = P::Output;
    type Port = ();

    fn init(node: NodeInit<'_, P::Input>, _: &mut [()]) -> Self {
        P::init(node)
    }

    #[inline]
    fn round(
        &mut self,
        ctx: &RoundCtx,
        _: &mut [()],
        inbox: &Inbox<'_, P::Message>,
        outbox: &mut Outbox<'_, '_, P::Message>,
    ) -> Status {
        Protocol::round(self, ctx, inbox, outbox)
    }

    fn finish(self, _: &[()]) -> P::Output {
        Protocol::finish(self)
    }
}
