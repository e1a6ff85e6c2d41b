//! # td-local — a simulator for the LOCAL model of distributed computing
//!
//! The paper's algorithms are stated in the standard **LOCAL** model
//! \[Linial 1992; Peleg 2000\]: every node of a graph is a processor with a
//! unique identifier, computation proceeds in *synchronous rounds*, in each
//! round every node may send one (unbounded) message over each incident edge,
//! and messages sent in round `r` are received at the start of round `r + 1`.
//! The complexity measure is the number of rounds until every node has
//! halted with its local output.
//!
//! This crate is a faithful, deterministic simulator for that model:
//!
//! * [`Protocol`] — what a node runs: `init` (sees only its id, degree,
//!   neighbor ids and its problem-specific local input), `round` (reads the
//!   inbox, writes the outbox, decides whether to halt), `finish` (produces
//!   the local output). A [`PortProtocol`] keeps its per-port state in the
//!   simulator's *port slab*, one CSR-aligned entry per slot, and sees the
//!   node's row in all three; every `Protocol` is one, with no port state.
//! * [`Simulator`] — executes a protocol on a [`td_graph::CsrGraph`] until
//!   all nodes halt (or a round cap is hit), counting rounds and messages.
//!   [`Simulator::run_with`] lends the finished states and port rows to a
//!   reader, so a host assembles its result without per-node copies.
//! * **One stepping loop** on the calling thread, shared by one-shot runs
//!   ([`Simulator::sequential`]) and churn repairs: it steps a sorted list
//!   of awake nodes and never visits a halted node again. A dense reference
//!   scan, which visits every node every round, survives only as the test
//!   oracle; outputs, rounds and messages of the two are **bit-identical**,
//!   and the differential suites enforce this.
//! * Zero-allocation runs: the *plane* of a run (node states, port slab,
//!   [`arena::MessageArena`] and awake list) is kept between runs, one per
//!   thread and protocol type, so a warm run allocates nothing that grows
//!   with the network. Payloads are overwritten in place, round delivery is
//!   a buffer-parity flip, and a kept arena starts each run from a stamp
//!   base above everything it holds instead of being cleared.
//! * No `unsafe` code. The arena's two buffers are plain `Vec`s, and each
//!   round borrows one to read and the other, exclusively, to write, so the
//!   borrow checker proves that a round never writes what it reads.
//! * A **churn plane** ([`churn`]): a persistent simulator
//!   ([`churn::ChurnSim`]) that runs the same loop with a wake set, so
//!   `Halt` means *quiesce until a message arrives*: repair protocols
//!   restart from dirtied nodes only and untouched regions pay zero work —
//!   the executor substrate for the incremental repair engines in
//!   `td-orient`/`td-assign`.
//!
//! ## Example: flooding the maximum identifier
//!
//! ```
//! use td_local::{Protocol, NodeInit, RoundCtx, Inbox, Outbox, Status, Simulator};
//! use td_graph::gen::classic::path;
//!
//! struct FloodMax { best: u32, changed: bool }
//!
//! impl Protocol for FloodMax {
//!     type Input = ();
//!     type Message = u32;
//!     type Output = u32;
//!     fn init(node: NodeInit<'_, ()>) -> Self {
//!         FloodMax { best: node.id.0, changed: true }
//!     }
//!     fn round(
//!         &mut self,
//!         ctx: &RoundCtx,
//!         inbox: &Inbox<'_, u32>,
//!         outbox: &mut Outbox<'_, '_, u32>,
//!     ) -> Status {
//!         for (_, m) in inbox.iter() {
//!             if *m > self.best { self.best = *m; self.changed = true; }
//!         }
//!         if self.changed { outbox.broadcast(self.best); self.changed = false; }
//!         // This doc-example uses a fixed budget for simplicity.
//!         if ctx.round >= 8 { Status::Halt } else { Status::Continue }
//!     }
//!     fn finish(self) -> u32 { self.best }
//! }
//!
//! let g = path(6);
//! let outcome = Simulator::sequential().run::<FloodMax>(&g, &vec![(); 6]);
//! assert!(outcome.completed);
//! assert!(outcome.outputs.iter().all(|&b| b == 5));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod churn;
pub mod classics;
pub mod metrics;
pub mod protocol;
pub mod sim;

pub use churn::{
    ChurnError, ChurnEvent, ChurnSim, RepairMode, RepairStats, TraceRecorder, WakeSet,
};
pub use metrics::{ExecPerf, RoundStats, RunSummary, SimOutcome, Summarize};
pub use protocol::{Inbox, NodeInit, Outbox, PortProtocol, Protocol, RoundCtx, Status};
pub use sim::{Finished, Simulator};
