//! The one-shot simulator: a dense reference scan and a sparse single-thread
//! lane, with identical semantics.

use crate::arena::MessageArena;
use crate::metrics::{ExecPerf, RoundStats, SimOutcome};
use crate::protocol::{Inbox, NodeInit, Outbox, Protocol, RoundCtx, Status};
use td_graph::{CsrGraph, NodeId};

/// Which loop steps the nodes. Both implement the *same* synchronous
/// semantics on the calling thread; outputs, rounds, messages and traces are
/// identical (tests enforce this). They differ only in which work counters
/// they pay: the dense scan visits halted nodes, the sparse lane never does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Executor {
    /// Visit every node every round and skip halted ones by flag: the
    /// reference oracle the sparse lane is checked and measured against.
    Sequential,
    /// Iterate `0..n` with no bookkeeping while no node has halted, then a
    /// compacting list of the nodes still running: halted nodes are never
    /// visited again.
    Sparse,
}

/// Configurable simulator for [`Protocol`]s. See the crate docs for an
/// end-to-end example.
#[derive(Clone, Copy, Debug)]
pub struct Simulator {
    executor: Executor,
    max_rounds: u32,
    trace: bool,
}

impl Simulator {
    fn with_executor(executor: Executor) -> Self {
        Simulator {
            executor,
            max_rounds: 10_000_000,
            trace: false,
        }
    }

    /// The dense reference scan with a generous default round cap.
    pub fn sequential() -> Self {
        Self::with_executor(Executor::Sequential)
    }

    /// The sparse lane (see [`Executor::Sparse`]) with the same default
    /// round cap. Outputs are bit-identical to [`Simulator::sequential`].
    ///
    /// ```
    /// use td_local::{classics::BfsLayering, Simulator};
    /// use td_graph::gen::classic::cycle;
    ///
    /// let g = cycle(24);
    /// let mut sources = vec![false; 24];
    /// sources[0] = true;
    /// let seq = Simulator::sequential().run::<BfsLayering>(&g, &sources);
    /// let sp = Simulator::sparse().run::<BfsLayering>(&g, &sources);
    /// // The lane is a pure performance choice: same outputs, rounds, messages.
    /// assert_eq!(sp.outputs, seq.outputs);
    /// assert_eq!((sp.rounds, sp.messages), (seq.rounds, seq.messages));
    /// // The sparse lane never scans a halted node; the dense scan scanned
    /// // exactly the node-rounds it skipped.
    /// assert_eq!(sp.perf.halted_scans, 0);
    /// assert_eq!(sp.perf.sparse_skips, seq.perf.halted_scans);
    /// ```
    pub fn sparse() -> Self {
        Self::with_executor(Executor::Sparse)
    }

    /// Caps the number of rounds; the outcome reports `completed = false` if
    /// the cap is hit.
    pub fn with_max_rounds(mut self, max_rounds: u32) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Enables per-round statistics collection.
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Runs `P` on `graph` with per-node `inputs` until all nodes halt or the
    /// round cap is reached.
    ///
    /// # Panics
    /// If `inputs.len() != graph.num_nodes()`.
    pub fn run<P: Protocol>(&self, graph: &CsrGraph, inputs: &[P::Input]) -> SimOutcome<P::Output> {
        assert_eq!(
            inputs.len(),
            graph.num_nodes(),
            "one input per node required"
        );
        debug_assert!(self.max_rounds < u32::MAX - 1, "stamps reserve u32::MAX");
        let states: Vec<P> = graph
            .nodes()
            .map(|v| {
                P::init(NodeInit {
                    id: v,
                    neighbor_ids: graph.neighbors(v),
                    input: &inputs[v.idx()],
                })
            })
            .collect();
        match self.executor {
            Executor::Sequential => self.run_sequential(graph, states),
            Executor::Sparse => self.run_sparse(graph, states),
        }
    }

    fn run_sequential<P: Protocol>(
        &self,
        graph: &CsrGraph,
        mut states: Vec<P>,
    ) -> SimOutcome<P::Output> {
        let n = graph.num_nodes();
        // The arena is the only message storage: allocated once here, then
        // reused for every round (writes happen in place, delivery is the
        // epoch parity flip).
        let arena: MessageArena<P::Message> = MessageArena::for_graph(graph);
        let mut halted = vec![false; n];
        let mut remaining = n;
        let mut round: u32 = 0;
        let mut messages: u64 = 0;
        let mut perf = ExecPerf::default();
        let mut trace = self.trace.then(Vec::new);

        while remaining > 0 && round < self.max_rounds {
            let (reader, writer) = arena.epoch(round);
            let ctx = RoundCtx { round };
            let active = remaining;
            // The reference executor is a dense scan on purpose (it is the
            // baseline the sparse lane is measured against): every node is
            // visited, halted ones are skipped by flag.
            perf.halted_scans += (n - active) as u64;
            perf.node_rounds += active as u64;
            let mut round_msgs: u64 = 0;
            for v in 0..n {
                if halted[v] {
                    continue;
                }
                let node = NodeId::from(v);
                let inbox = Inbox {
                    reader,
                    base: graph.node_offset(node),
                    degree: graph.degree(node),
                };
                let mut outbox = Outbox {
                    writer,
                    graph,
                    node,
                    sent: 0,
                    wake: None,
                };
                let status = states[v].round(&ctx, &inbox, &mut outbox);
                round_msgs += outbox.sent;
                perf.stamp_scans += graph.degree(node) as u64;
                if status == Status::Halt {
                    halted[v] = true;
                    remaining -= 1;
                }
            }
            messages += round_msgs;
            if let Some(t) = trace.as_mut() {
                t.push(RoundStats {
                    round,
                    active_nodes: active,
                    messages: round_msgs,
                });
            }
            round += 1;
        }

        perf.local_messages = messages;
        SimOutcome {
            outputs: states.into_iter().map(P::finish).collect(),
            rounds: round,
            messages,
            completed: remaining == 0,
            trace,
            perf,
        }
    }

    /// The sparse lane. It must beat the dense scan, not just match it:
    /// while no node has halted it iterates `0..n` with zero bookkeeping (no
    /// halted flags, no list writes), and after the first halt it switches
    /// to the compacting active list.
    fn run_sparse<P: Protocol>(
        &self,
        graph: &CsrGraph,
        mut states: Vec<P>,
    ) -> SimOutcome<P::Output> {
        let n = graph.num_nodes();
        let arena: MessageArena<P::Message> = MessageArena::for_graph(graph);
        // Every node steps in a dense round, so its stamp-scan total is the
        // whole directed-slot count — added once per round instead of per node.
        let dense_stamps = graph.num_edges() as u64 * 2;
        let mut active: Option<Vec<u32>> = None;
        let mut remaining = n;
        let mut round: u32 = 0;
        let mut messages: u64 = 0;
        let mut perf = ExecPerf::default();
        let mut trace = self.trace.then(Vec::new);

        while remaining > 0 && round < self.max_rounds {
            let (reader, writer) = arena.epoch(round);
            let ctx = RoundCtx { round };
            let active_now = remaining;
            perf.sparse_skips += (n - active_now) as u64;
            perf.node_rounds += active_now as u64;
            let mut round_msgs: u64 = 0;
            let mut step = |v: u32, round_msgs: &mut u64| -> Status {
                let node = NodeId(v);
                let inbox = Inbox {
                    reader,
                    base: graph.node_offset(node),
                    degree: graph.degree(node),
                };
                let mut outbox = Outbox {
                    writer,
                    graph,
                    node,
                    sent: 0,
                    wake: None,
                };
                let status = states[v as usize].round(&ctx, &inbox, &mut outbox);
                *round_msgs += outbox.sent;
                status
            };
            match active.as_mut() {
                None => {
                    perf.stamp_scans += dense_stamps;
                    let nn = n as u32;
                    // Fast lane while nobody has ever halted: no flags, no
                    // list, no bookkeeping beyond the step itself.
                    let mut v = 0u32;
                    while v < nn {
                        if step(v, &mut round_msgs) == Status::Halt {
                            break;
                        }
                        v += 1;
                    }
                    if v < nn {
                        // First halt of the run: materialize the active list
                        // from the prefix that is still running and finish the
                        // round in list-building mode.
                        let mut list: Vec<u32> = (0..v).collect();
                        remaining -= 1;
                        v += 1;
                        while v < nn {
                            match step(v, &mut round_msgs) {
                                Status::Halt => remaining -= 1,
                                Status::Continue => list.push(v),
                            }
                            v += 1;
                        }
                        active = Some(list);
                    }
                }
                Some(list) => {
                    let mut keep = 0usize;
                    for i in 0..list.len() {
                        let v = list[i];
                        perf.stamp_scans += graph.degree(NodeId(v)) as u64;
                        let status = step(v, &mut round_msgs);
                        if status == Status::Halt {
                            remaining -= 1;
                        } else {
                            if keep < i {
                                list[keep] = v;
                            }
                            keep += 1;
                        }
                    }
                    list.truncate(keep);
                }
            }
            messages += round_msgs;
            if let Some(t) = trace.as_mut() {
                t.push(RoundStats {
                    round,
                    active_nodes: active_now,
                    messages: round_msgs,
                });
            }
            round += 1;
        }

        perf.local_messages = messages;
        SimOutcome {
            outputs: states.into_iter().map(P::finish).collect(),
            rounds: round,
            messages,
            completed: remaining == 0,
            trace,
            perf,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Inbox, NodeInit, Outbox, RoundCtx};
    use td_graph::gen::classic::{cycle, path, star};
    use td_graph::Port;

    /// Each node learns its BFS distance from node 0 (which knows it is the
    /// source from its input) and halts one round after its distance settles.
    struct BfsDist {
        dist: u32,
        announced: bool,
    }

    impl Protocol for BfsDist {
        type Input = bool; // am I the source?
        type Message = u32;
        type Output = u32;

        fn init(node: NodeInit<'_, bool>) -> Self {
            BfsDist {
                dist: if *node.input { 0 } else { u32::MAX },
                announced: false,
            }
        }

        fn round(
            &mut self,
            _ctx: &RoundCtx,
            inbox: &Inbox<'_, u32>,
            outbox: &mut Outbox<'_, '_, u32>,
        ) -> Status {
            for (_, &d) in inbox.iter() {
                if d + 1 < self.dist {
                    self.dist = d + 1;
                    self.announced = false;
                }
            }
            if self.dist != u32::MAX && !self.announced {
                outbox.broadcast(self.dist);
                self.announced = true;
                return Status::Continue;
            }
            if self.announced {
                Status::Halt
            } else {
                Status::Continue
            }
        }

        fn finish(self) -> u32 {
            self.dist
        }
    }

    fn bfs_inputs(n: usize) -> Vec<bool> {
        let mut v = vec![false; n];
        v[0] = true;
        v
    }

    #[test]
    fn bfs_on_path_sequential() {
        let g = path(6);
        let out = Simulator::sequential().run::<BfsDist>(&g, &bfs_inputs(6));
        assert!(out.completed);
        assert_eq!(out.outputs, vec![0, 1, 2, 3, 4, 5]);
        // Node 5 learns its distance in round 5 and halts in round 6;
        // simulator runs rounds 0..=6 → 7 rounds.
        assert_eq!(out.rounds, 7);
    }

    /// The sparse lane repeats the dense scan's BFS flood.
    #[test]
    fn bfs_parallel_matches_sequential() {
        let g = cycle(31);
        let seq = Simulator::sequential().run::<BfsDist>(&g, &bfs_inputs(31));
        let sp = Simulator::sparse().run::<BfsDist>(&g, &bfs_inputs(31));
        assert_eq!(sp.outputs, seq.outputs);
        assert_eq!(sp.rounds, seq.rounds);
        assert_eq!(sp.messages, seq.messages);
        assert!(sp.completed);
    }

    #[test]
    fn round_cap_reported() {
        let g = path(64);
        let out = Simulator::sequential()
            .with_max_rounds(3)
            .run::<BfsDist>(&g, &bfs_inputs(64));
        assert!(!out.completed);
        assert_eq!(out.rounds, 3);
    }

    #[test]
    fn trace_records_rounds() {
        let g = star(4);
        let out = Simulator::sequential()
            .with_trace(true)
            .run::<BfsDist>(&g, &bfs_inputs(5));
        let trace = out.trace.unwrap();
        assert_eq!(trace.len() as u32, out.rounds);
        assert_eq!(trace[0].active_nodes, 5);
        assert_eq!(trace[0].round, 0);
        let traced_msgs: u64 = trace.iter().map(|r| r.messages).sum();
        assert_eq!(traced_msgs, out.messages);
    }

    /// The sparse lane records the dense scan's per-round trace.
    #[test]
    fn parallel_trace_matches_sequential() {
        let g = cycle(17);
        let seq = Simulator::sequential()
            .with_trace(true)
            .run::<BfsDist>(&g, &bfs_inputs(17));
        let sp = Simulator::sparse()
            .with_trace(true)
            .run::<BfsDist>(&g, &bfs_inputs(17));
        assert_eq!(seq.trace, sp.trace);
    }

    #[test]
    fn empty_graph() {
        let g = td_graph::CsrGraph::from_edges(0, &[]).unwrap();
        let out = Simulator::sparse().run::<BfsDist>(&g, &[]);
        assert!(out.completed);
        assert_eq!(out.rounds, 0);
        let out = Simulator::sequential().run::<BfsDist>(&g, &[]);
        assert!(out.completed);
        assert_eq!(out.rounds, 0);
    }

    /// Message delivered exactly one round later, port-addressed.
    struct PortEcho {
        degree: usize,
        received: Vec<Option<u32>>,
    }

    impl Protocol for PortEcho {
        type Input = ();
        type Message = u32;
        type Output = Vec<Option<u32>>;

        fn init(node: NodeInit<'_, ()>) -> Self {
            PortEcho {
                degree: node.degree(),
                received: vec![None; node.degree()],
            }
        }

        fn round(
            &mut self,
            ctx: &RoundCtx,
            inbox: &Inbox<'_, u32>,
            outbox: &mut Outbox<'_, '_, u32>,
        ) -> Status {
            match ctx.round {
                0 => {
                    // Send my own port number on each port.
                    for p in 0..self.degree {
                        outbox.send(Port::from(p), p as u32);
                    }
                    assert!(inbox.is_empty(), "round 0 inbox must be empty");
                    Status::Continue
                }
                1 => {
                    for (p, &m) in inbox.iter() {
                        self.received[p.idx()] = Some(m);
                    }
                    Status::Halt
                }
                _ => unreachable!(),
            }
        }

        fn finish(self) -> Vec<Option<u32>> {
            self.received
        }
    }

    #[test]
    fn port_addressing_and_mirror_delivery() {
        let g = path(3); // v0 -p0- v1, v1 has ports to v0 (p0) and v2 (p1)
        let out = Simulator::sequential().run::<PortEcho>(&g, &[(); 3]);
        assert!(out.completed);
        assert_eq!(out.rounds, 2);
        // v0 hears v1's port-0 message (v1's port 0 leads to v0).
        assert_eq!(out.outputs[0], vec![Some(0)]);
        // v1 hears v0's port-0 message on its port 0 and v2's port-0 on its port 1.
        assert_eq!(out.outputs[1], vec![Some(0), Some(0)]);
        assert_eq!(out.outputs[2], vec![Some(1)]);
        assert_eq!(out.messages, 4);
    }

    /// A protocol where some nodes halt early; late messages to halted nodes
    /// are dropped silently and do not crash.
    struct HaltEarly {
        id: u32,
    }

    impl Protocol for HaltEarly {
        type Input = ();
        type Message = u32;
        type Output = u32;

        fn init(node: NodeInit<'_, ()>) -> Self {
            HaltEarly { id: node.id.0 }
        }

        fn round(
            &mut self,
            ctx: &RoundCtx,
            _inbox: &Inbox<'_, u32>,
            outbox: &mut Outbox<'_, '_, u32>,
        ) -> Status {
            outbox.broadcast(self.id);
            if self.id.is_multiple_of(2) || ctx.round >= 4 {
                Status::Halt
            } else {
                Status::Continue
            }
        }

        fn finish(self) -> u32 {
            self.id
        }
    }

    #[test]
    fn staggered_halting() {
        let g = cycle(10);
        let out = Simulator::sequential().run::<HaltEarly>(&g, &[(); 10]);
        assert!(out.completed);
        assert_eq!(out.rounds, 5);
        // Even nodes sent 1 round * 2 ports, odd nodes 5 rounds * 2 ports.
        assert_eq!(out.messages, 5 * 2 + 5 * 5 * 2);
        let sp = Simulator::sparse().run::<HaltEarly>(&g, &[(); 10]);
        assert_eq!(sp.rounds, out.rounds);
        assert_eq!(sp.messages, out.messages);
    }

    /// The sparse lane's work counters mirror the dense scan's on the
    /// same flood: the node-rounds it never visited are exactly the ones the
    /// dense scan skipped by flag.
    #[test]
    fn sharded_matches_sequential_on_every_grid_point() {
        let g = cycle(31);
        let seq = Simulator::sequential().run::<BfsDist>(&g, &bfs_inputs(31));
        let sp = Simulator::sparse().run::<BfsDist>(&g, &bfs_inputs(31));
        assert_eq!(sp.outputs, seq.outputs);
        assert_eq!((sp.rounds, sp.messages), (seq.rounds, seq.messages));
        assert!(sp.completed);
        assert_eq!(sp.perf.node_rounds, seq.perf.node_rounds);
        assert_eq!(sp.perf.sparse_skips, seq.perf.halted_scans);
        assert_eq!(sp.perf.stamp_scans, seq.perf.stamp_scans);
        assert_eq!(sp.perf.halted_scans, 0);
    }

    #[test]
    fn sharded_trace_matches_sequential() {
        let g = path(23);
        let seq = Simulator::sequential()
            .with_trace(true)
            .run::<BfsDist>(&g, &bfs_inputs(23));
        let sp = Simulator::sparse()
            .with_trace(true)
            .run::<BfsDist>(&g, &bfs_inputs(23));
        assert_eq!(seq.trace, sp.trace);
    }

    #[test]
    fn sharded_port_addressing_and_cross_shard_batches() {
        let g = path(3);
        let out = Simulator::sparse().run::<PortEcho>(&g, &[(); 3]);
        assert!(out.completed);
        assert_eq!(out.rounds, 2);
        assert_eq!(out.outputs[0], vec![Some(0)]);
        assert_eq!(out.outputs[1], vec![Some(0), Some(0)]);
        assert_eq!(out.outputs[2], vec![Some(1)]);
        assert_eq!(out.messages, 4);
    }

    /// Nodes with input `true` run 21 rounds, the rest halt in round 0:
    /// the quiesced nodes must be skipped for the remaining rounds.
    struct HalfQuiesce {
        long: bool,
    }

    impl Protocol for HalfQuiesce {
        type Input = bool; // run long?
        type Message = u8;
        type Output = ();

        fn init(node: NodeInit<'_, bool>) -> Self {
            HalfQuiesce { long: *node.input }
        }

        fn round(
            &mut self,
            ctx: &RoundCtx,
            _inbox: &Inbox<'_, u8>,
            _outbox: &mut Outbox<'_, '_, u8>,
        ) -> Status {
            if !self.long || ctx.round >= 20 {
                Status::Halt
            } else {
                Status::Continue
            }
        }

        fn finish(self) {}
    }

    /// The quiesced three quarters of the path are never visited again
    /// after round 0: the sparse lane skips them for the remaining rounds.
    #[test]
    fn quiesced_shards_skip_rounds() {
        // Path of 32: the first 8 nodes run 21 rounds, the rest halt in
        // round 0.
        let g = path(32);
        let inputs: Vec<bool> = (0..32).map(|v| v < 8).collect();
        let out = Simulator::sparse().run::<HalfQuiesce>(&g, &inputs);
        assert!(out.completed);
        assert_eq!(out.rounds, 21);
        // 24 nodes skipped in each of rounds 1..=20.
        assert_eq!(out.perf.sparse_skips, 24 * 20);
        assert_eq!(out.perf.node_rounds, 32 + 8 * 20);
        let seq = Simulator::sequential().run::<HalfQuiesce>(&g, &inputs);
        assert_eq!(seq.rounds, out.rounds);
    }

    /// The perf-counter contract behind the sparse lane: for the same run,
    /// the dense scan's `halted_scans` (halted nodes iterated past) equals
    /// the sparse lane's `sparse_skips` (halted node-rounds never visited),
    /// node-rounds and stamp scans agree, every message is a local write,
    /// and the sparse lane never scans a halted node.
    #[test]
    fn sparse_scheduler_counters_mirror_dense_scan() {
        let g = path(32);
        let inputs: Vec<bool> = (0..32).map(|v| v < 8).collect();
        let seq = Simulator::sequential().run::<HalfQuiesce>(&g, &inputs);
        assert!(seq.perf.halted_scans > 0);
        assert_eq!(seq.perf.local_messages, seq.messages);
        assert_eq!(seq.perf.boundary_messages, 0);
        let sp = Simulator::sparse().run::<HalfQuiesce>(&g, &inputs);
        assert_eq!(sp.rounds, seq.rounds);
        assert_eq!(sp.perf.halted_scans, 0);
        assert_eq!(sp.perf.sparse_skips, seq.perf.halted_scans);
        assert_eq!(sp.perf.node_rounds, seq.perf.node_rounds);
        assert_eq!(sp.perf.stamp_scans, seq.perf.stamp_scans);
        assert_eq!(sp.perf.local_messages, sp.messages);
        assert_eq!(sp.perf.boundary_messages, 0);
    }

    /// `ExecPerf` is deterministic: repeated runs reproduce every counter
    /// bit for bit, and the scheduling-independent counters agree between
    /// the two loops.
    #[test]
    fn perf_counters_aggregate_deterministically_across_workers() {
        let g = cycle(64);
        let inputs = bfs_inputs(64);
        let seq = Simulator::sequential().run::<BfsDist>(&g, &inputs);
        let sim = Simulator::sparse();
        let a = sim.run::<BfsDist>(&g, &inputs);
        assert_eq!(a.perf.node_rounds, seq.perf.node_rounds);
        assert_eq!(a.perf.sparse_skips, seq.perf.halted_scans);
        assert_eq!(a.perf.stamp_scans, seq.perf.stamp_scans);
        assert_eq!(a.perf.local_messages, seq.messages);
        let b = sim.run::<BfsDist>(&g, &inputs);
        assert_eq!(a.perf, b.perf);
        assert_eq!(
            seq.perf,
            Simulator::sequential().run::<BfsDist>(&g, &inputs).perf
        );
    }

    #[test]
    fn sharded_empty_graph_and_more_shards_than_nodes() {
        let g = td_graph::CsrGraph::from_edges(0, &[]).unwrap();
        let out = Simulator::sparse().run::<BfsDist>(&g, &[]);
        assert!(out.completed);
        assert_eq!(out.rounds, 0);
        assert_eq!(out.trace, None);
        let g = path(3);
        let out = Simulator::sparse().run::<BfsDist>(&g, &bfs_inputs(3));
        let seq = Simulator::sequential().run::<BfsDist>(&g, &bfs_inputs(3));
        assert_eq!(out.outputs, seq.outputs);
        assert_eq!(out.rounds, seq.rounds);
        assert_eq!(out.messages, seq.messages);
    }

    #[test]
    fn sharded_round_cap_reported() {
        let g = path(64);
        let out = Simulator::sparse()
            .with_max_rounds(3)
            .run::<BfsDist>(&g, &bfs_inputs(64));
        assert!(!out.completed);
        assert_eq!(out.rounds, 3);
    }

    #[test]
    fn zero_round_cap_is_executor_independent() {
        let g = path(8);
        let seq = Simulator::sequential()
            .with_max_rounds(0)
            .run::<BfsDist>(&g, &bfs_inputs(8));
        let out = Simulator::sparse()
            .with_max_rounds(0)
            .run::<BfsDist>(&g, &bfs_inputs(8));
        assert_eq!(out.rounds, seq.rounds);
        assert_eq!(out.rounds, 0);
        assert_eq!(out.messages, 0);
        assert!(!out.completed);
        assert_eq!(out.outputs, seq.outputs);
    }

    /// Node roles for the relay protocol below.
    #[derive(Clone, Copy, PartialEq, Eq)]
    enum Role {
        /// Halts in round 0 without sending anything.
        Mute,
        /// Broadcasts its id in round 0, then halts — the send and the
        /// halt land in the *same* round.
        Source,
        /// Waits; on the first round with any message, records every
        /// `(round, port, payload)`, forwards its id everywhere, halts.
        Relay,
    }

    struct RelayNode {
        id: u32,
        role: Role,
        received: Vec<(u32, u32, u32)>,
    }

    impl Protocol for RelayNode {
        type Input = Role;
        type Message = u32;
        type Output = Vec<(u32, u32, u32)>;

        fn init(node: NodeInit<'_, Role>) -> Self {
            RelayNode {
                id: node.id.0,
                role: *node.input,
                received: Vec::new(),
            }
        }

        fn round(
            &mut self,
            ctx: &RoundCtx,
            inbox: &Inbox<'_, u32>,
            outbox: &mut Outbox<'_, '_, u32>,
        ) -> Status {
            match self.role {
                Role::Mute => Status::Halt,
                Role::Source => {
                    outbox.broadcast(self.id);
                    Status::Halt
                }
                Role::Relay => {
                    if inbox.is_empty() {
                        return Status::Continue;
                    }
                    for (p, &msg) in inbox.iter() {
                        self.received.push((ctx.round, p.idx() as u32, msg));
                    }
                    outbox.broadcast(self.id);
                    Status::Halt
                }
            }
        }

        fn finish(self) -> Self::Output {
            self.received
        }
    }

    /// A message sent in the round its sender halts still arrives, also
    /// when that halt is the one that switches the sparse lane from its
    /// dense prefix to the active list: on the path 0-1-2-3, node 0 (mute)
    /// and node 1 (source) both halt in round 0 and the relay wave must
    /// still reach node 3.
    #[test]
    fn sparse_delivers_the_sends_of_a_halting_round() {
        let g = td_graph::CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let inputs = [Role::Mute, Role::Source, Role::Relay, Role::Relay];
        let seq = Simulator::sequential().run::<RelayNode>(&g, &inputs);
        // Node 2 hears node 1 in round 1, node 3 hears node 2 in round 2.
        assert_eq!(seq.outputs[2], vec![(1, 0, 1)]);
        assert_eq!(seq.outputs[3], vec![(2, 0, 2)]);
        assert!(seq.completed);
        let sp = Simulator::sparse().run::<RelayNode>(&g, &inputs);
        assert_eq!(sp.outputs, seq.outputs);
        assert_eq!((sp.rounds, sp.messages), (seq.rounds, seq.messages));
        assert!(sp.completed);
    }

    /// Two sources that halt in round 0 both reach the relay between them,
    /// on the ports and in the round the dense scan delivers them.
    #[test]
    fn sparse_delivers_from_several_halting_sources() {
        let g = td_graph::CsrGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let inputs = [Role::Source, Role::Relay, Role::Source];
        let seq = Simulator::sequential().run::<RelayNode>(&g, &inputs);
        assert_eq!(seq.outputs[1], vec![(1, 0, 0), (1, 1, 2)]);
        let sp = Simulator::sparse().run::<RelayNode>(&g, &inputs);
        assert_eq!(sp.outputs, seq.outputs);
        assert_eq!((sp.rounds, sp.messages), (seq.rounds, seq.messages));
    }
}
