//! The stepping loops and the execution plane they step. The crate-private
//! `step` is the one production loop: one-shot runs ([`Simulator::run`])
//! and churn repairs ([`crate::ChurnSim::run`]) both step their nodes
//! through it. The dense reference scan behind the doc-hidden
//! `Simulator::dense` survives only as the differential oracle the test
//! suites check `step` against.
//!
//! A run's *plane* is everything it steps besides the network: the node
//! states, the port slab of [`PortProtocol`]s, the message arena and the
//! awake list. A `ChurnSim` owns one for its whole life. [`Simulator::run`]
//! borrows one from a per-thread pool that holds one plane per protocol
//! type and puts it back afterwards, so a warm run on a network no larger
//! than an earlier one allocates nothing that grows with it. A run that
//! panics drops its plane, so the thread's next run builds a fresh one, and
//! a run nested inside another run of the same protocol finds no plane in
//! the pool and builds its own.

use crate::arena::MessageArena;
use crate::churn::{RepairStats, WakeSet};
use crate::metrics::{ExecPerf, RoundStats, SimOutcome};
use crate::protocol::{Inbox, NodeInit, Outbox, PortProtocol, RoundCtx, Status};
use std::any::Any;
use std::cell::RefCell;
use td_graph::{CsrGraph, NodeId};

/// Configurable simulator for [`PortProtocol`]s (every
/// [`crate::Protocol`] is one). See the crate docs for an end-to-end
/// example.
#[derive(Clone, Copy, Debug)]
pub struct Simulator {
    /// Step with the dense reference scan instead of [`step`].
    dense: bool,
    max_rounds: u32,
    trace: bool,
}

impl Simulator {
    /// The production loop with a generous default round cap: every node
    /// starts awake, a node that halts is never visited again.
    ///
    /// ```
    /// use td_local::{classics::BfsLayering, Simulator};
    /// use td_graph::gen::classic::cycle;
    ///
    /// let g = cycle(24);
    /// let mut sources = vec![false; 24];
    /// sources[0] = true;
    /// let out = Simulator::sequential().run::<BfsLayering>(&g, &sources);
    /// assert!(out.completed);
    /// // A halted node is skipped, never scanned: the node-rounds stepped
    /// // and skipped add up to the dense `n x rounds` grid.
    /// assert_eq!(out.perf.halted_scans, 0);
    /// assert_eq!(
    ///     out.perf.node_rounds + out.perf.sparse_skips,
    ///     24 * out.rounds as u64
    /// );
    /// ```
    pub fn sequential() -> Self {
        Simulator {
            dense: false,
            max_rounds: 10_000_000,
            trace: false,
        }
    }

    /// The dense reference scan: every round visits all `n` nodes and
    /// skips the halted ones by flag. It is the oracle the production loop
    /// is checked against: outputs, rounds, messages, traces, node-rounds
    /// and stamp scans agree, and its `halted_scans` equal the production
    /// loop's `sparse_skips`.
    #[doc(hidden)]
    pub fn dense() -> Self {
        Simulator {
            dense: true,
            ..Self::sequential()
        }
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
    /// round cap is reached, and finishes every node: the outcome's
    /// `outputs` are the local outputs, indexed by node id.
    ///
    /// # Panics
    /// If `inputs.len() != graph.num_nodes()`.
    pub fn run<P: PortProtocol + 'static>(
        &self,
        graph: &CsrGraph,
        inputs: &[P::Input],
    ) -> SimOutcome<Vec<P::Output>> {
        self.run_with(graph, inputs, |done: Finished<'_, P>| done.outputs())
    }

    /// Runs `P` like [`Simulator::run`], then lends the finished plane to
    /// `read`, whose result becomes the outcome's `outputs`. The reader sees
    /// every node's final state and port row, so a host can assemble a
    /// global result straight from them instead of from per-node outputs.
    ///
    /// ```
    /// use td_local::{classics::BfsLayering, Simulator};
    /// use td_graph::{gen::classic::path, NodeId};
    ///
    /// let g = path(5);
    /// let sources = [true, false, false, false, false];
    /// // Node 2's row holds the distance each neighbor announced last.
    /// let out = Simulator::sequential()
    ///     .run_with::<BfsLayering, _>(&g, &sources, |done| done.node(NodeId(2)).1.to_vec());
    /// assert!(out.completed);
    /// assert_eq!(out.outputs, vec![1, 3]);
    /// ```
    ///
    /// # Panics
    /// If `inputs.len() != graph.num_nodes()`.
    pub fn run_with<P: PortProtocol + 'static, R>(
        &self,
        graph: &CsrGraph,
        inputs: &[P::Input],
        read: impl FnOnce(Finished<'_, P>) -> R,
    ) -> SimOutcome<R> {
        let mut plane = Plane::<P>::take();
        plane.boot(graph, inputs);
        // A kept arena holds the stamps of earlier runs; the restart moves
        // its base past them instead of clearing it.
        plane.arena.restart(graph.num_slots());
        let mut trace = self.trace.then(Vec::new);
        let (run, perf) = if self.dense {
            dense_scan(graph, &mut plane, self.max_rounds, trace.as_mut())
        } else {
            // Every node starts awake, and `Halt` is final: no wake set.
            plane.awake.clear();
            plane.awake.extend(0..graph.num_nodes() as u32);
            step(graph, &mut plane, None, 0, self.max_rounds, trace.as_mut())
        };
        let outputs = read(Finished {
            graph,
            states: &mut plane.states,
            ports: &plane.ports,
            rounds: run.rounds,
            completed: run.completed,
        });
        plane.keep();
        SimOutcome {
            outputs,
            rounds: run.rounds,
            messages: run.messages,
            completed: run.completed,
            trace,
            perf,
        }
    }
}

/// A finished run's plane, lent to the reader of [`Simulator::run_with`]:
/// every node's final state and port row, before the states are finished.
pub struct Finished<'a, P: PortProtocol> {
    graph: &'a CsrGraph,
    states: &'a mut Vec<P>,
    ports: &'a [P::Port],
    rounds: u32,
    completed: bool,
}

impl<'a, P: PortProtocol> Finished<'a, P> {
    /// The network the run stepped.
    pub fn graph(&self) -> &'a CsrGraph {
        self.graph
    }

    /// Rounds the run executed.
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// True if every node halted before the round cap.
    pub fn completed(&self) -> bool {
        self.completed
    }

    /// Node `v`'s final state and its port row.
    pub fn node(&self, v: NodeId) -> (&P, &'a [P::Port]) {
        (&self.states[v.idx()], row(self.graph, self.ports, v))
    }

    /// Finishes every node, in id order: the reader behind
    /// [`Simulator::run`].
    pub fn outputs(self) -> Vec<P::Output> {
        let Finished {
            graph,
            states,
            ports,
            ..
        } = self;
        states
            .drain(..)
            .zip(graph.nodes())
            .map(|(state, v)| state.finish(row(graph, ports, v)))
            .collect()
    }
}

/// Node `v`'s row of a CSR-aligned slab (the port slab, or an arena
/// buffer): one entry per port, in port order.
#[inline(always)]
fn row<'a, T>(graph: &CsrGraph, slab: &'a [T], v: NodeId) -> &'a [T] {
    &slab[graph.node_offset(v)..][..graph.degree(v)]
}

/// Everything a run steps besides the network: the node states, the port
/// slab, the message arena and the awake list (see the module docs).
pub(crate) struct Plane<P: PortProtocol> {
    pub(crate) states: Vec<P>,
    /// One entry per slot of the network, CSR-aligned like the arena.
    pub(crate) ports: Vec<P::Port>,
    pub(crate) arena: MessageArena<P::Message>,
    /// The nodes the next round steps, sorted and duplicate-free.
    pub(crate) awake: Vec<u32>,
}

thread_local! {
    /// The planes kept between [`Simulator::run`]s on this thread, at most
    /// one per protocol type.
    static PLANES: RefCell<Vec<Box<dyn Any>>> = const { RefCell::new(Vec::new()) };
}

impl<P: PortProtocol> Plane<P> {
    /// A plane with no node, slot or message yet.
    pub(crate) fn new() -> Self {
        Plane {
            states: Vec::new(),
            ports: Vec::new(),
            arena: MessageArena::with_slots(0),
            awake: Vec::new(),
        }
    }

    /// Boots one state per node of `graph` from `inputs`, in id order. The
    /// port slab is laid out for `graph` with every entry
    /// `P::Port::default()`, whatever an earlier run left in it, and each
    /// node's `init` sees its row. The arena and the awake list are left
    /// to the caller.
    ///
    /// # Panics
    /// If `inputs.len() != graph.num_nodes()`.
    pub(crate) fn boot(&mut self, graph: &CsrGraph, inputs: &[P::Input]) {
        assert_eq!(
            inputs.len(),
            graph.num_nodes(),
            "one input per node required"
        );
        self.ports.clear();
        self.ports.resize(graph.num_slots(), P::Port::default());
        self.states.clear();
        let ports = &mut self.ports;
        self.states.extend(graph.nodes().map(|v| {
            let row = &mut ports[graph.node_offset(v)..][..graph.degree(v)];
            P::init(
                NodeInit {
                    id: v,
                    neighbor_ids: graph.neighbors(v),
                    input: &inputs[v.idx()],
                },
                row,
            )
        }));
    }
}

impl<P: PortProtocol + 'static> Plane<P> {
    /// This thread's kept plane for `P`, or a fresh one if the pool has
    /// none: on the thread's first run of `P`, inside another run of `P`,
    /// or after a run of `P` that panicked.
    fn take() -> Box<Self> {
        PLANES
            .with_borrow_mut(|pool| {
                let i = pool.iter().position(|plane| plane.is::<Self>())?;
                pool.swap_remove(i).downcast().ok()
            })
            .unwrap_or_else(|| Box::new(Plane::new()))
    }

    /// Puts the plane back into the pool for the thread's next run of `P`,
    /// dropping the finished states first.
    fn keep(mut self: Box<Self>) {
        self.states.clear();
        // During thread teardown the pool may be gone: the plane is dropped.
        let _ = PLANES.try_with(|pool| {
            let mut pool = pool.borrow_mut();
            match pool.iter_mut().find(|plane| plane.is::<Self>()) {
                Some(kept) => *kept = self,
                None => pool.push(self),
            }
        });
    }
}

/// The production stepping loop. Each round steps the plane's sorted,
/// duplicate-free awake list in ascending id order against the messages
/// of the previous round, starting at round `start`, until the list is
/// empty or `max_rounds` rounds have run (then the run is not `completed`,
/// and the list holds the nodes a later call resumes).
///
/// A node that returns [`Status::Continue`] stays in the list by in-place
/// compaction, which keeps it sorted; one that returns [`Status::Halt`]
/// leaves it. Only with a `wake` set does a send also wake its receiver:
/// the marked nodes are merged into the list at the start of the next
/// round. Halted nodes are never visited, so the returned counters report
/// the node-rounds the loop skipped as `sparse_skips` and no
/// `halted_scans`.
pub(crate) fn step<P: PortProtocol>(
    graph: &CsrGraph,
    plane: &mut Plane<P>,
    mut wake: Option<&mut WakeSet>,
    start: u64,
    max_rounds: u32,
    mut trace: Option<&mut Vec<RoundStats>>,
) -> (RepairStats, ExecPerf) {
    let Plane {
        states,
        ports,
        arena,
        awake,
    } = plane;
    let mut run = RepairStats::accumulator();
    let mut perf = ExecPerf::default();
    let mut round = start;
    let end = start + u64::from(max_rounds);
    loop {
        if let Some(wake) = wake.as_deref_mut() {
            wake.merge_into(awake);
        }
        if awake.is_empty() {
            break;
        }
        if round >= end {
            run.completed = false;
            break;
        }
        let (reader, writer) = arena.epoch(round);
        let ctx = RoundCtx { round };
        let active = awake.len();
        let mut keep = 0;
        // One inbox and one outbox serve the whole round: each stepped node
        // gets them pointed at its own rows, and the outbox counts the
        // round's sends. Building them per node cost orient-regular's idle
        // node-rounds about a tenth more.
        let mut inbox = Inbox {
            row: &[],
            stamp: reader.stamp(),
        };
        let mut outbox = Outbox {
            writer,
            graph,
            node: NodeId(0),
            base: 0,
            degree: 0,
            sent: 0,
            wake: wake.as_deref_mut(),
        };
        for i in 0..active {
            let v = awake[i];
            let node = NodeId(v);
            let (base, degree) = (graph.node_offset(node), graph.degree(node));
            inbox.row = reader.row(base, degree);
            (outbox.node, outbox.base, outbox.degree) = (node, base, degree);
            perf.stamp_scans += degree as u64;
            let row = &mut ports[base..base + degree];
            let status = states[v as usize].round(&ctx, row, &inbox, &mut outbox);
            if status == Status::Continue {
                awake[keep] = v;
                keep += 1;
            }
        }
        let round_msgs = outbox.sent;
        awake.truncate(keep);
        run.node_steps += active as u64;
        run.messages += round_msgs;
        if let Some(t) = trace.as_deref_mut() {
            t.push(RoundStats {
                round: (round - start) as u32,
                active_nodes: active,
                messages: round_msgs,
            });
        }
        round += 1;
    }
    // At most `max_rounds`, a u32.
    run.rounds = (round - start) as u32;
    perf.node_rounds = run.node_steps;
    perf.local_messages = run.messages;
    perf.sparse_skips = u64::from(run.rounds) * graph.num_nodes() as u64 - run.node_steps;
    (run, perf)
}

/// The dense reference scan behind [`Simulator::dense`]: every round visits
/// every node and skips the halted ones by flag, paying one
/// `halted_scans` per node-round that [`step`] skips.
fn dense_scan<P: PortProtocol>(
    graph: &CsrGraph,
    plane: &mut Plane<P>,
    max_rounds: u32,
    mut trace: Option<&mut Vec<RoundStats>>,
) -> (RepairStats, ExecPerf) {
    let Plane {
        states,
        ports,
        arena,
        ..
    } = plane;
    let n = graph.num_nodes();
    let mut halted = vec![false; n];
    let mut remaining = n;
    let mut run = RepairStats::accumulator();
    let mut perf = ExecPerf::default();
    while remaining > 0 && run.rounds < max_rounds {
        let round = u64::from(run.rounds);
        let (reader, mut writer) = arena.epoch(round);
        let ctx = RoundCtx { round };
        let active = remaining;
        perf.halted_scans += (n - active) as u64;
        perf.node_rounds += active as u64;
        let mut round_msgs: u64 = 0;
        for v in 0..n {
            if halted[v] {
                continue;
            }
            let node = NodeId::from(v);
            let (base, degree) = (graph.node_offset(node), graph.degree(node));
            let inbox = Inbox {
                row: reader.row(base, degree),
                stamp: reader.stamp(),
            };
            let mut outbox = Outbox {
                writer: writer.reborrow(),
                graph,
                node,
                base,
                degree,
                sent: 0,
                wake: None,
            };
            let row = &mut ports[base..base + degree];
            let status = states[v].round(&ctx, row, &inbox, &mut outbox);
            round_msgs += outbox.sent;
            perf.stamp_scans += degree as u64;
            if status == Status::Halt {
                halted[v] = true;
                remaining -= 1;
            }
        }
        run.messages += round_msgs;
        if let Some(t) = trace.as_deref_mut() {
            t.push(RoundStats {
                round: run.rounds,
                active_nodes: active,
                messages: round_msgs,
            });
        }
        run.rounds += 1;
    }
    run.completed = remaining == 0;
    run.node_steps = perf.node_rounds;
    perf.local_messages = run.messages;
    (run, perf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Inbox, NodeInit, Outbox, Protocol, RoundCtx};
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

    /// The production loop repeats the dense oracle's BFS flood.
    #[test]
    fn bfs_flood_matches_the_dense_oracle() {
        let g = cycle(31);
        let dense = Simulator::dense().run::<BfsDist>(&g, &bfs_inputs(31));
        let sp = Simulator::sequential().run::<BfsDist>(&g, &bfs_inputs(31));
        assert_eq!(sp.outputs, dense.outputs);
        assert_eq!(sp.rounds, dense.rounds);
        assert_eq!(sp.messages, dense.messages);
        assert!(sp.completed);
    }

    /// On every graph of a small grid, the production loop's work counters
    /// mirror the dense oracle's on the same flood: the node-rounds it
    /// never visited are exactly the ones the dense scan skipped by flag.
    #[test]
    fn work_counters_match_the_dense_oracle_on_every_graph() {
        for g in [cycle(31), path(23), star(8)] {
            let n = g.num_nodes();
            let dense = Simulator::dense().run::<BfsDist>(&g, &bfs_inputs(n));
            let sp = Simulator::sequential().run::<BfsDist>(&g, &bfs_inputs(n));
            assert_eq!(sp.outputs, dense.outputs, "n {n}");
            assert_eq!(
                (sp.rounds, sp.messages),
                (dense.rounds, dense.messages),
                "n {n}"
            );
            assert!(sp.completed, "n {n}");
            assert_eq!(sp.perf.node_rounds, dense.perf.node_rounds, "n {n}");
            assert_eq!(sp.perf.sparse_skips, dense.perf.halted_scans, "n {n}");
            assert_eq!(sp.perf.stamp_scans, dense.perf.stamp_scans, "n {n}");
            assert_eq!(sp.perf.halted_scans, 0, "n {n}");
        }
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

    /// The dense oracle stops at the same cap, with the same outputs.
    #[test]
    fn round_cap_matches_the_dense_oracle() {
        let g = path(64);
        let dense = Simulator::dense()
            .with_max_rounds(3)
            .run::<BfsDist>(&g, &bfs_inputs(64));
        assert!(!dense.completed);
        assert_eq!(dense.rounds, 3);
        let sp = Simulator::sequential()
            .with_max_rounds(3)
            .run::<BfsDist>(&g, &bfs_inputs(64));
        assert_eq!(sp.outputs, dense.outputs);
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

    /// The production loop records the dense oracle's per-round trace.
    #[test]
    fn cycle_trace_matches_the_dense_oracle() {
        let g = cycle(17);
        let dense = Simulator::dense()
            .with_trace(true)
            .run::<BfsDist>(&g, &bfs_inputs(17));
        let sp = Simulator::sequential()
            .with_trace(true)
            .run::<BfsDist>(&g, &bfs_inputs(17));
        assert!(dense.trace.is_some());
        assert_eq!(dense.trace, sp.trace);
    }

    /// The same on a path, whose flood front has one node.
    #[test]
    fn path_trace_matches_the_dense_oracle() {
        let g = path(23);
        let dense = Simulator::dense()
            .with_trace(true)
            .run::<BfsDist>(&g, &bfs_inputs(23));
        let sp = Simulator::sequential()
            .with_trace(true)
            .run::<BfsDist>(&g, &bfs_inputs(23));
        assert!(dense.trace.is_some());
        assert_eq!(dense.trace, sp.trace);
    }

    #[test]
    fn empty_graph() {
        let g = td_graph::CsrGraph::from_edges(0, &[]).unwrap();
        for sim in [Simulator::sequential(), Simulator::dense()] {
            let out = sim.run::<BfsDist>(&g, &[]);
            assert!(out.completed);
            assert_eq!(out.rounds, 0);
        }
    }

    /// The production loop finishes an empty graph at once without a
    /// trace, and repeats the dense oracle on a three-node path.
    #[test]
    fn empty_graph_and_short_path_match_the_dense_oracle() {
        let g = td_graph::CsrGraph::from_edges(0, &[]).unwrap();
        let out = Simulator::sequential().run::<BfsDist>(&g, &[]);
        assert!(out.completed);
        assert_eq!(out.rounds, 0);
        assert_eq!(out.trace, None);
        let g = path(3);
        let out = Simulator::sequential().run::<BfsDist>(&g, &bfs_inputs(3));
        let dense = Simulator::dense().run::<BfsDist>(&g, &bfs_inputs(3));
        assert_eq!(out.outputs, dense.outputs);
        assert_eq!((out.rounds, out.messages), (dense.rounds, dense.messages));
    }

    /// A run whose reader panics leaves no plane behind, and one nested
    /// in the reader of another run of the same protocol finds none to
    /// take: both build a fresh plane, and every run on the thread still
    /// repeats the dense oracle.
    #[test]
    fn panicking_and_nested_runs_build_fresh_planes() {
        let sim = Simulator::sequential();
        let (g, h) = (cycle(31), path(9));
        let want = |g: &td_graph::CsrGraph| {
            Simulator::dense()
                .run::<BfsDist>(g, &bfs_inputs(g.num_nodes()))
                .outputs
        };
        let panicked = std::panic::catch_unwind(|| {
            sim.run_with::<BfsDist, ()>(&g, &bfs_inputs(31), |_| panic!("reader fails"))
        });
        assert!(panicked.is_err());
        assert_eq!(sim.run::<BfsDist>(&h, &bfs_inputs(9)).outputs, want(&h));
        let nested = sim.run_with(&g, &bfs_inputs(31), |done: Finished<'_, BfsDist>| {
            let inner = sim.run::<BfsDist>(&h, &bfs_inputs(9)).outputs;
            (done.outputs(), inner)
        });
        assert_eq!(nested.outputs, (want(&g), want(&h)));
        assert_eq!(sim.run::<BfsDist>(&g, &bfs_inputs(31)).outputs, want(&g));
    }

    /// Warm runs whose kept arena lies `left` rounds before its stamp
    /// limit, for every round of the run in turn and with messages in
    /// flight there, repeat a cold run's outputs, messages and per-round
    /// trace, on the production loop and the dense oracle alike.
    #[test]
    fn warm_runs_near_the_stamp_limit_repeat_the_cold_run() {
        let g = cycle(31);
        for sim in [Simulator::sequential(), Simulator::dense()] {
            let sim = sim.with_trace(true);
            let cold = std::thread::scope(|s| {
                s.spawn(|| sim.run::<BfsDist>(&g, &bfs_inputs(31)))
                    .join()
                    .unwrap()
            });
            assert!(cold.completed && cold.messages > 0);
            for left in 0..u64::from(cold.rounds) {
                let mut plane = Plane::<BfsDist>::take();
                plane.arena.age(0, left);
                plane.keep();
                let warm = sim.run::<BfsDist>(&g, &bfs_inputs(31));
                assert_eq!(warm.outputs, cold.outputs, "left {left}");
                assert_eq!(
                    (warm.rounds, warm.messages, warm.completed),
                    (cold.rounds, cold.messages, cold.completed),
                    "left {left}"
                );
                assert_eq!(warm.trace, cold.trace, "left {left}");
                assert_eq!(warm.perf, cold.perf, "left {left}");
            }
        }
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

    /// The dense oracle delivers the same port-addressed echo.
    #[test]
    fn port_addressing_matches_the_dense_oracle() {
        let g = path(3);
        let out = Simulator::dense().run::<PortEcho>(&g, &[(); 3]);
        assert!(out.completed);
        assert_eq!(out.rounds, 2);
        assert_eq!(out.outputs[0], vec![Some(0)]);
        assert_eq!(out.outputs[1], vec![Some(0), Some(0)]);
        assert_eq!(out.outputs[2], vec![Some(1)]);
        assert_eq!(out.messages, 4);
    }

    /// What a node of the [`OutOfRange`] protocol does in round 0.
    #[derive(Clone, Copy)]
    enum Probe {
        Idle,
        /// Sends on port `degree`, one past the node's last port.
        Send,
        /// Reads the inbox at port `degree`.
        Read,
    }

    struct OutOfRange {
        degree: usize,
        probe: Probe,
    }

    impl Protocol for OutOfRange {
        type Input = Probe;
        type Message = u32;
        type Output = ();

        fn init(node: NodeInit<'_, Probe>) -> Self {
            OutOfRange {
                degree: node.degree(),
                probe: *node.input,
            }
        }

        fn round(
            &mut self,
            _ctx: &RoundCtx,
            inbox: &Inbox<'_, u32>,
            outbox: &mut Outbox<'_, '_, u32>,
        ) -> Status {
            let port = Port::from(self.degree);
            match self.probe {
                Probe::Idle => {}
                Probe::Send => outbox.send(port, 1),
                Probe::Read => assert!(inbox.get(port).is_none()),
            }
            Status::Halt
        }

        fn finish(self) {}
    }

    /// A send on a port the node does not have panics in every build. On
    /// `path(4)`, node 0's port 1 would be node 1's first slot, and the
    /// send would land in node 0's own port-0 inbox.
    #[test]
    #[should_panic(expected = "port p1 out of range at v0")]
    fn send_on_an_out_of_range_port_panics() {
        let probes = [Probe::Send, Probe::Idle, Probe::Idle, Probe::Idle];
        Simulator::sequential().run::<OutOfRange>(&path(4), &probes);
    }

    /// Reading a port the node does not have panics in every build. On
    /// `path(4)`, node 0's port 1 would read node 1's first slot.
    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn reading_an_out_of_range_port_panics() {
        let probes = [Probe::Read, Probe::Idle, Probe::Idle, Probe::Idle];
        Simulator::sequential().run::<OutOfRange>(&path(4), &probes);
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
        let dense = Simulator::dense().run::<HaltEarly>(&g, &[(); 10]);
        assert_eq!(dense.rounds, out.rounds);
        assert_eq!(dense.messages, out.messages);
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
    /// after round 0: the production loop skips them for the remaining
    /// rounds.
    #[test]
    fn quiesced_nodes_skip_rounds_and_match_the_dense_oracle() {
        // Path of 32: the first 8 nodes run 21 rounds, the rest halt in
        // round 0.
        let g = path(32);
        let inputs: Vec<bool> = (0..32).map(|v| v < 8).collect();
        let out = Simulator::sequential().run::<HalfQuiesce>(&g, &inputs);
        assert!(out.completed);
        assert_eq!(out.rounds, 21);
        // 24 nodes skipped in each of rounds 1..=20.
        assert_eq!(out.perf.sparse_skips, 24 * 20);
        assert_eq!(out.perf.node_rounds, 32 + 8 * 20);
        let dense = Simulator::dense().run::<HalfQuiesce>(&g, &inputs);
        assert_eq!(dense.rounds, out.rounds);
    }

    /// The perf-counter contract behind the production loop: for the same
    /// run, the dense oracle's `halted_scans` (halted nodes iterated past)
    /// equals the loop's `sparse_skips` (halted node-rounds never visited),
    /// node-rounds and stamp scans agree, every message is a local write,
    /// and the production loop never scans a halted node.
    #[test]
    fn sparse_scheduler_counters_mirror_dense_scan() {
        let g = path(32);
        let inputs: Vec<bool> = (0..32).map(|v| v < 8).collect();
        let dense = Simulator::dense().run::<HalfQuiesce>(&g, &inputs);
        assert!(dense.perf.halted_scans > 0);
        assert_eq!(dense.perf.local_messages, dense.messages);
        assert_eq!(dense.perf.boundary_messages, 0);
        let sp = Simulator::sequential().run::<HalfQuiesce>(&g, &inputs);
        assert_eq!(sp.rounds, dense.rounds);
        assert_eq!(sp.perf.halted_scans, 0);
        assert_eq!(sp.perf.sparse_skips, dense.perf.halted_scans);
        assert_eq!(sp.perf.node_rounds, dense.perf.node_rounds);
        assert_eq!(sp.perf.stamp_scans, dense.perf.stamp_scans);
        assert_eq!(sp.perf.local_messages, sp.messages);
        assert_eq!(sp.perf.boundary_messages, 0);
    }

    /// `ExecPerf` is deterministic: repeated runs reproduce every counter
    /// bit for bit, and the scheduling-independent counters agree between
    /// the production loop and the dense oracle.
    #[test]
    fn perf_counters_repeat_and_match_the_dense_oracle() {
        let g = cycle(64);
        let inputs = bfs_inputs(64);
        let dense = Simulator::dense().run::<BfsDist>(&g, &inputs);
        let sim = Simulator::sequential();
        let a = sim.run::<BfsDist>(&g, &inputs);
        assert_eq!(a.perf.node_rounds, dense.perf.node_rounds);
        assert_eq!(a.perf.sparse_skips, dense.perf.halted_scans);
        assert_eq!(a.perf.stamp_scans, dense.perf.stamp_scans);
        assert_eq!(a.perf.local_messages, dense.messages);
        let b = sim.run::<BfsDist>(&g, &inputs);
        assert_eq!(a.perf, b.perf);
        assert_eq!(
            dense.perf,
            Simulator::dense().run::<BfsDist>(&g, &inputs).perf
        );
    }

    #[test]
    fn zero_round_cap_is_executor_independent() {
        let g = path(8);
        let dense = Simulator::dense()
            .with_max_rounds(0)
            .run::<BfsDist>(&g, &bfs_inputs(8));
        let out = Simulator::sequential()
            .with_max_rounds(0)
            .run::<BfsDist>(&g, &bfs_inputs(8));
        assert_eq!(out.rounds, dense.rounds);
        assert_eq!(out.rounds, 0);
        assert_eq!(out.messages, 0);
        assert!(!out.completed);
        assert_eq!(out.outputs, dense.outputs);
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
        received: Vec<(u64, u32, u32)>,
    }

    impl Protocol for RelayNode {
        type Input = Role;
        type Message = u32;
        type Output = Vec<(u64, u32, u32)>;

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

    /// A message sent in the round its sender halts still arrives, although
    /// the sender leaves the awake list in that round: on the path
    /// 0-1-2-3, node 0 (mute) and node 1 (source) both halt in round 0 and
    /// the relay wave must still reach node 3.
    #[test]
    fn sparse_delivers_the_sends_of_a_halting_round() {
        let g = td_graph::CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let inputs = [Role::Mute, Role::Source, Role::Relay, Role::Relay];
        let dense = Simulator::dense().run::<RelayNode>(&g, &inputs);
        // Node 2 hears node 1 in round 1, node 3 hears node 2 in round 2.
        assert_eq!(dense.outputs[2], vec![(1, 0, 1)]);
        assert_eq!(dense.outputs[3], vec![(2, 0, 2)]);
        assert!(dense.completed);
        let sp = Simulator::sequential().run::<RelayNode>(&g, &inputs);
        assert_eq!(sp.outputs, dense.outputs);
        assert_eq!((sp.rounds, sp.messages), (dense.rounds, dense.messages));
        assert!(sp.completed);
    }

    /// Two sources that halt in round 0 both reach the relay between them,
    /// on the ports and in the round the dense oracle delivers them.
    #[test]
    fn sparse_delivers_from_several_halting_sources() {
        let g = td_graph::CsrGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let inputs = [Role::Source, Role::Relay, Role::Source];
        let dense = Simulator::dense().run::<RelayNode>(&g, &inputs);
        assert_eq!(dense.outputs[1], vec![(1, 0, 0), (1, 1, 2)]);
        let sp = Simulator::sequential().run::<RelayNode>(&g, &inputs);
        assert_eq!(sp.outputs, dense.outputs);
        assert_eq!((sp.rounds, sp.messages), (dense.rounds, dense.messages));
    }
}
