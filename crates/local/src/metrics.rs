//! Execution metrics: what an experiment measures.

/// Per-round statistics, recorded when tracing is enabled.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoundStats {
    /// Round number (0-based).
    pub round: u32,
    /// Nodes that were still running at the start of this round.
    pub active_nodes: usize,
    /// Messages sent during this round.
    pub messages: u64,
}

/// Uniform low-level work counters, collected by the stepping loop and by
/// the dense oracle alike (the perf telemetry plane reads them; collection
/// is a handful of integer adds per stepped node, so they are always on).
///
/// The sparse-scheduling story is told by two mirrored counters:
/// [`ExecPerf::halted_scans`] is the price the dense reference scan pays
/// for iterating past already-halted nodes, while
/// [`ExecPerf::sparse_skips`] counts the halted node-rounds the production
/// loop, one-shot or churn, never touched at all. For the same one-shot run
/// the identity is exact: `halted_scans` of the dense oracle equals
/// `sparse_skips` of [`crate::Simulator::sequential`], which reports
/// `halted_scans == 0`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecPerf {
    /// Protocol `round()` invocations (node-rounds actually stepped).
    pub node_rounds: u64,
    /// Halted residents a dense scan iterated past without stepping.
    pub halted_scans: u64,
    /// Halted node-rounds the sparse scheduler never visited.
    pub sparse_skips: u64,
    /// Messages delivered by a direct arena write: every message.
    pub local_messages: u64,
    /// Always 0: every loop writes every message straight into the one
    /// arena. Kept so existing struct literals of `ExecPerf` still build.
    pub boundary_messages: u64,
    /// Arena inbox stamps exposed to stepped nodes (Σ degree over all
    /// `round()` invocations) — the read-side scan work a protocol can pay.
    pub stamp_scans: u64,
}

impl ExecPerf {
    /// Accumulates another run's counters into `self`.
    pub fn absorb(&mut self, other: ExecPerf) {
        self.node_rounds += other.node_rounds;
        self.halted_scans += other.halted_scans;
        self.sparse_skips += other.sparse_skips;
        self.local_messages += other.local_messages;
        self.boundary_messages += other.boundary_messages;
        self.stamp_scans += other.stamp_scans;
    }
}

/// The result of simulating a protocol to completion (or to the round cap).
///
/// `O` is what the run's reader made of the finished plane: for
/// [`crate::Simulator::run`], `Vec` of every node's local output.
#[derive(Clone, Debug)]
pub struct SimOutcome<O> {
    /// What the reader returned: for [`crate::Simulator::run`], the local
    /// output of every node, indexed by node id; for
    /// [`crate::Simulator::run_with`], whatever its reader assembled.
    pub outputs: O,
    /// Number of communication rounds executed. This is the quantity the
    /// paper's theorems bound.
    pub rounds: u32,
    /// Total messages sent over all rounds (a secondary cost measure; the
    /// LOCAL model does not charge for it, but it is interesting to report).
    pub messages: u64,
    /// True if every node halted before the round cap.
    pub completed: bool,
    /// Per-round statistics if tracing was enabled.
    pub trace: Option<Vec<RoundStats>>,
    /// Low-level work counters (collected by every loop).
    pub perf: ExecPerf,
}

/// The communication-cost summary every protocol stack reports in the same
/// shape: rounds until the last node halted, total messages sent. The
/// scenario registry and the experiment harness consume only this, so a new
/// protocol stack plugs in by implementing [`Summarize`] on its result type.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunSummary {
    /// Communication rounds executed.
    pub rounds: u32,
    /// Total messages sent over all rounds.
    pub messages: u64,
}

/// Anything that can report a uniform [`RunSummary`].
pub trait Summarize {
    /// The run's communication cost.
    fn summary(&self) -> RunSummary;
}

impl<O> Summarize for SimOutcome<O> {
    fn summary(&self) -> RunSummary {
        RunSummary {
            rounds: self.rounds,
            messages: self.messages,
        }
    }
}
