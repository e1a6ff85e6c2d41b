//! The node-side programming interface of the LOCAL simulator.

use crate::arena::{ArenaReader, ArenaWriter};
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
    pub round: u32,
}

/// Whether a node keeps participating after this round.
///
/// Under [`crate::Simulator`], `Halt` is final: the node's output is
/// decided and it never runs again. Under the churn executor
/// ([`crate::churn::ChurnSim`]), `Halt` means *quiesce*: the node parks,
/// and a later incoming message wakes it for another round.
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
    pub(crate) reader: ArenaReader<'a, M>,
    pub(crate) base: usize,
    pub(crate) degree: usize,
}

impl<'a, M> Inbox<'a, M> {
    /// The message received on `port`, if any.
    #[inline]
    pub fn get(&self, port: Port) -> Option<&'a M> {
        debug_assert!(port.idx() < self.degree);
        // SAFETY: the read buffer is not written during the round (writes
        // go to the other buffer of the double-buffered arena).
        unsafe { self.reader.get(self.base + port.idx()) }
    }

    /// Iterates over `(port, message)` pairs for all ports that received
    /// one, by a single pass over the node's contiguous slot row.
    pub fn iter(&self) -> impl Iterator<Item = (Port, &'a M)> + '_ {
        // SAFETY: as for `get`.
        let row = unsafe { self.reader.row(self.base, self.degree) };
        let want = self.reader.stamp();
        row.iter().enumerate().filter_map(move |(p, s)| {
            if s.stamp == want {
                Some((Port::from(p), &s.msg))
            } else {
                None
            }
        })
    }

    /// Number of ports (== the node's degree).
    pub fn num_ports(&self) -> usize {
        self.degree
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
/// the receiving endpoint and publishes its stamp; the disjointness argument
/// is in [`crate::disjoint`].
pub struct Outbox<'a, 'g, M> {
    pub(crate) writer: ArenaWriter<'a, M>,
    pub(crate) graph: &'g CsrGraph,
    pub(crate) node: NodeId,
    pub(crate) sent: u64,
    /// Wake side-channel of the churn executor: sending schedules the
    /// receiver for the delivery round. `None` under the one-shot
    /// [`crate::Simulator`].
    pub(crate) wake: Option<&'a mut WakeSet>,
}

impl<'g, M: Clone + Default + Send> Outbox<'_, 'g, M> {
    /// Sends `msg` over `port`; it arrives at the neighbor next round.
    /// Sending twice on the same port in one round overwrites (one message
    /// per edge per round, as in the LOCAL model).
    #[inline]
    pub fn send(&mut self, port: Port, msg: M) {
        let slot = self.graph.slot(self.node, port);
        let mirror = self.graph.mirror_slot(slot);
        // SAFETY: slot `mirror` belongs to (neighbor, its port); the only
        // writer of that slot in this round is this node, and nothing reads
        // the write buffer until the next round.
        unsafe { self.writer.write(mirror, msg) };
        if let Some(wake) = self.wake.as_deref_mut() {
            wake.mark(self.graph.neighbor_at(self.node, port));
        }
        self.sent += 1;
    }

    /// Sends a clone of `msg` over every port.
    pub fn broadcast(&mut self, msg: M) {
        for p in 0..self.graph.degree(self.node) {
            self.send(Port::from(p), msg.clone());
        }
    }

    /// Number of ports available (== the node's degree).
    pub fn num_ports(&self) -> usize {
        self.graph.degree(self.node)
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
/// then collects local outputs via [`Protocol::finish`].
pub trait Protocol: Sized + Send {
    /// Per-node problem input (e.g. "holds a token", "level 3").
    type Input: Sync;
    /// Message type exchanged between neighbors. `Default` seeds the
    /// flat message arena (slot validity is tracked by stamps, so the
    /// default value is never observed as a delivered message).
    type Message: Clone + Send + Default;
    /// Per-node output (e.g. "final orientation of my incident edges").
    type Output: Send;

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
