//! The **perf telemetry plane**: a machine-readable performance trajectory
//! for the whole executor stack.
//!
//! Every PR so far has asserted its speedups in prose (criterion numbers in
//! EXPERIMENTS.md); this module turns them into data. One sweep —
//! scenario × executor × size — runs representative workloads from the
//! [`crate::spec`] families plus one synthetic quiescing showcase through
//! the `dense` reference scan and the `sparse` production loop (and the
//! churn engines through that loop's `churn` form), collecting for each
//! point:
//!
//! * the headline costs: rounds, messages, wall-clock (total and per
//!   round);
//! * the [`ExecPerf`] work counters every loop maintains: node rounds
//!   stepped, halted nodes scanned past (the dense scan) vs halted
//!   node-rounds never visited (the production loop), messages, and arena
//!   stamp scans;
//! * a down-sampled per-round curve of active nodes and messages (the
//!   active-fraction trajectory experiment E18 fits).
//!
//! [`write_json`] serializes the sweep as a versioned (`td-perf/v1`)
//! report — the `td perf` subcommand writes it to `BENCH_10.json` so
//! future PRs can append comparable trajectory points; every run also
//! cross-checks rounds and messages across executors (a perf run that
//! diverges is a bug, not a data point).
//!
//! ```
//! use td_bench::perf::{self, SweepConfig};
//! let mut cfg = SweepConfig::quick();
//! cfg.scenario = Some("drain-wave".into());
//! let report = perf::run_sweep(&cfg).unwrap();
//! assert!(report.points.iter().all(|p| p.rounds > 0));
//! // The production loop never scans a halted node…
//! let sparse = report.points.iter().find(|p| p.executor == "sparse").unwrap();
//! assert_eq!(sparse.counters.halted_scans, 0);
//! // …while the dense reference scan pays for every one of them.
//! let dense = report.points.iter().find(|p| p.executor == "dense").unwrap();
//! assert!(dense.counters.halted_scans > 0);
//! ```

use crate::spec::{WorkloadInstance, WorkloadSpec};
use std::time::Instant;
use td_assign::repair::AssignChurnEngine;
use td_core::proposal;
use td_local::{
    ExecPerf, Inbox, NodeInit, Outbox, Protocol, RepairMode, RepairStats, RoundCtx, RoundStats,
    SimOutcome, Simulator, Status,
};
use td_orient::protocol::run_distributed;
use td_orient::repair::OrientChurnEngine;
use td_orient::Orientation;

/// Schema tag written into every report; bump on any incompatible change.
pub const SCHEMA: &str = "td-perf/v1";

/// Maximum points kept in a down-sampled [`Curve`].
const CURVE_POINTS: usize = 48;

/// A down-sampled per-round trajectory: every `stride`-th round's active
/// node count and message count (plus the final round, so the tail is
/// always visible).
#[derive(Clone, Debug, Default)]
pub struct Curve {
    /// Sampling stride in rounds (1 = every round kept).
    pub stride: u32,
    /// Sampled round numbers.
    pub rounds: Vec<u32>,
    /// Active nodes at the start of each sampled round.
    pub active: Vec<usize>,
    /// Messages sent during each sampled round.
    pub messages: Vec<u64>,
}

impl Curve {
    fn from_trace(trace: &[RoundStats]) -> Curve {
        if trace.is_empty() {
            return Curve::default();
        }
        let stride = trace.len().div_ceil(CURVE_POINTS).max(1);
        let mut c = Curve {
            stride: stride as u32,
            ..Curve::default()
        };
        for (i, r) in trace.iter().enumerate() {
            if i % stride == 0 || i + 1 == trace.len() {
                c.rounds.push(r.round);
                c.active.push(r.active_nodes);
                c.messages.push(r.messages);
            }
        }
        c
    }
}

/// One measured (scenario, executor, size) point.
#[derive(Clone, Debug)]
pub struct PerfPoint {
    /// Perf scenario name (see [`REGISTRY`]).
    pub scenario: &'static str,
    /// The exact workload: a [`WorkloadSpec`] string, or a synthetic
    /// descriptor for the drain-wave showcase.
    pub spec: String,
    /// Pipeline kind label (game / orientation / assignment / churn /
    /// synthetic).
    pub kind: &'static str,
    /// Executor label (`dense`, `sparse`, `churn`).
    pub executor: String,
    /// The scenario's size knob for this point.
    pub size: u32,
    /// Seed used.
    pub seed: u64,
    /// Nodes of the instance.
    pub nodes: usize,
    /// Edges (adjacency entries for assignments).
    pub edges: usize,
    /// Rounds executed.
    pub rounds: u64,
    /// Messages sent.
    pub messages: u64,
    /// Wall-clock of the solve alone, nanoseconds — verification is
    /// excluded on one-shot rows so executor deltas are undiluted; churn
    /// rows time the full repair trace (incl. the per-event verification
    /// every grid point pays identically).
    pub wall_ns: u128,
    /// Executor work counters (zeroed on churn rows, which report
    /// `node_steps` instead).
    pub counters: ExecPerf,
    /// Down-sampled per-round trajectory (one-shot rows only).
    pub curve: Curve,
    /// Churn rows: node steps of the repair trace (the wake-driven
    /// executor's sparse work measure).
    pub node_steps: Option<u64>,
}

impl PerfPoint {
    /// The cache-stable canonical serialization of this point: the
    /// deterministic work counters as flat `<executor>/<name>` integer
    /// metrics, excluding wall-clock (nondeterministic) and the stamp
    /// scans (an allocator detail, not a cost claim). What the experiment
    /// cache stores and keys render output off.
    pub fn canonical_metrics(&self) -> Vec<(String, u64)> {
        let e = &self.executor;
        let mut m = vec![
            (format!("{e}/rounds"), self.rounds),
            (format!("{e}/messages"), self.messages),
        ];
        match self.node_steps {
            Some(steps) => m.push((format!("{e}/node_steps"), steps)),
            None => {
                let c = &self.counters;
                m.push((format!("{e}/node_rounds"), c.node_rounds));
                m.push((format!("{e}/halted_scans"), c.halted_scans));
                m.push((format!("{e}/sparse_skips"), c.sparse_skips));
                m.push((format!("{e}/local_messages"), c.local_messages));
                m.push((format!("{e}/boundary_messages"), c.boundary_messages));
            }
        }
        m
    }

    /// Active fraction: node steps actually executed over the dense
    /// `nodes × rounds` grid a non-sparse executor would scan.
    pub fn active_fraction(&self) -> f64 {
        let dense = self.nodes as u64 * self.rounds;
        if dense == 0 {
            return 0.0;
        }
        let steps = self.node_steps.unwrap_or(self.counters.node_rounds);
        steps as f64 / dense as f64
    }
}

/// A full sweep: configuration echo plus every measured point.
#[derive(Clone, Debug)]
pub struct PerfReport {
    /// Base seed.
    pub seed: u64,
    /// Timing repetitions each point ran (min-of-N wall clock).
    pub repeat: usize,
    /// All measured points, in sweep order.
    pub points: Vec<PerfPoint>,
}

impl PerfReport {
    /// The largest-size point of `scenario` measured under `executor`.
    fn best_point(&self, scenario: &str, executor: &str) -> Option<&PerfPoint> {
        self.points
            .iter()
            .filter(|p| p.scenario == scenario && p.executor == executor)
            .max_by_key(|p| p.size)
    }

    /// Wall-clock speedup of the `sparse` production loop over the `dense`
    /// reference scan for `scenario`, at the largest measured size (both
    /// rows must exist at that size). `> 1` means the production loop won.
    pub fn sparse_speedup(&self, scenario: &str) -> Option<f64> {
        let dense = self.best_point(scenario, "dense")?;
        let sparse = self.best_point(scenario, "sparse")?;
        if sparse.size != dense.size || sparse.wall_ns == 0 {
            return None;
        }
        Some(dense.wall_ns as f64 / sparse.wall_ns as f64)
    }
}

// ------------------------------------------------------------- scenarios ---

/// A named perf workload: what to build and which sizes to sweep.
pub struct PerfScenario {
    /// Registry name (`td perf --scenario <name>`).
    pub name: &'static str,
    /// Pipeline kind label.
    pub kind: &'static str,
    /// Default size sweep.
    pub sizes: &'static [u32],
    /// One-line description, including what `size` means.
    pub about: &'static str,
}

/// The perf scenario registry: one quiescing synthetic showcase plus
/// representative [`crate::spec`] workloads from every pipeline.
pub static REGISTRY: &[PerfScenario] = &[
    PerfScenario {
        name: "drain-wave",
        kind: "synthetic",
        sizes: &[8_192, 32_768, 131_072],
        about: "rolling-restart analogue: 15/16 of a path drains in round 0, a small frontier keeps working; size = nodes",
    },
    PerfScenario {
        name: "rotor",
        kind: "game",
        sizes: &[64, 256, 1024],
        about: "deterministic rotor sweep (quasirandom-style drain); size = width",
    },
    PerfScenario {
        name: "layered",
        kind: "game",
        sizes: &[4, 6],
        about: "random layered token game; size = level width",
    },
    PerfScenario {
        name: "torus",
        kind: "orientation",
        sizes: &[6, 8],
        about: "distributed stable orientation on a side x side torus; size = side",
    },
    PerfScenario {
        name: "zipf-cluster",
        kind: "assignment",
        sizes: &[6, 10],
        about: "clustered Zipf assignment, 2-bounded protocol; size = servers",
    },
    PerfScenario {
        name: "churn-orient",
        kind: "churn",
        sizes: &[48, 96],
        about: "orientation repair under a flip/insert/delete trace; size = nodes",
    },
    PerfScenario {
        name: "churn-assign",
        kind: "churn",
        sizes: &[8, 16],
        about: "assignment repair under a join/leave/drain trace; size = servers",
    },
];

/// Looks a perf scenario up by name.
pub fn find(name: &str) -> Option<&'static PerfScenario> {
    REGISTRY.iter().find(|s| s.name == name)
}

/// Renders the perf registry as an aligned listing.
pub fn listing() -> String {
    let mut t = crate::Table::new(&["name", "kind", "sizes", "description"]);
    for s in REGISTRY {
        let sizes = s
            .sizes
            .iter()
            .map(u32::to_string)
            .collect::<Vec<_>>()
            .join(",");
        t.row(vec![
            s.name.to_string(),
            s.kind.to_string(),
            sizes,
            s.about.to_string(),
        ]);
    }
    t.render()
}

// ------------------------------------------------------------- the sweep ---

/// Sweep configuration (what `td perf`'s flags map onto).
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Restrict to one perf scenario (`None` = all).
    pub scenario: Option<String>,
    /// Override the size sweep (`None` = each scenario's default ladder).
    /// Must be paired with [`SweepConfig::scenario`]: `size` units differ
    /// per scenario (nodes, side, servers…), so one list applied across
    /// the whole registry would build absurd instances — [`run_sweep`]
    /// rejects the combination.
    pub sizes: Option<Vec<u32>>,
    /// Base seed.
    pub seed: u64,
    /// Trim every ladder to its smallest rung (smoke mode).
    pub quick: bool,
    /// Timing repetitions per point: each point runs `repeat` times and
    /// reports the *minimum* wall-clock (the standard noise floor for
    /// single-shot timings; outputs are deterministic, so the counters are
    /// identical across repetitions).
    pub repeat: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            scenario: None,
            sizes: None,
            seed: 42,
            quick: false,
            repeat: 3,
        }
    }
}

impl SweepConfig {
    /// A smoke-sized configuration: every scenario at its smallest size
    /// only, one repetition. What CI and the library tests run.
    pub fn quick() -> Self {
        SweepConfig {
            quick: true,
            repeat: 1,
            ..SweepConfig::default()
        }
    }

    fn sizes_for(&self, sc: &PerfScenario) -> Vec<u32> {
        match &self.sizes {
            Some(s) => s.clone(),
            None if self.quick => vec![sc.sizes[0]],
            None => sc.sizes.to_vec(),
        }
    }
}

/// Runs the sweep. Every one-shot point is cross-checked against the
/// dense reference (same rounds, same messages); `Err` reports the
/// first divergence, an unknown scenario name, or a `sizes` override
/// without a named scenario (size units differ per scenario, so one list
/// applied across the registry would build absurd instances).
pub fn run_sweep(cfg: &SweepConfig) -> Result<PerfReport, String> {
    if cfg.sizes.is_some() && cfg.scenario.is_none() {
        return Err(
            "a sizes override needs a named scenario (size units differ per scenario)".into(),
        );
    }
    let scenarios: Vec<&PerfScenario> = match &cfg.scenario {
        Some(name) => vec![find(name).ok_or_else(|| {
            format!(
                "unknown perf scenario '{name}' (known: {})",
                REGISTRY
                    .iter()
                    .map(|s| s.name)
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })?],
        None => REGISTRY.iter().collect(),
    };
    let mut points = Vec::new();
    for sc in scenarios {
        for size in cfg.sizes_for(sc) {
            let mut batch = match sc.name {
                "drain-wave" => run_drain_wave(cfg, size)?,
                "rotor" | "layered" => run_game(cfg, sc.name, size)?,
                "torus" => run_orientation(cfg, size)?,
                "zipf-cluster" => run_assignment(cfg, size)?,
                "churn-orient" | "churn-assign" => run_churn(cfg, sc.name, size)?,
                other => unreachable!("unregistered perf scenario '{other}'"),
            };
            points.append(&mut batch);
        }
    }
    Ok(PerfReport {
        seed: cfg.seed,
        repeat: cfg.repeat.max(1),
        points,
    })
}

/// The executor labels a sweep of `scenario` produces, in sweep order —
/// the grid the report header records, and the experiment cache keys off.
pub fn grid_labels(scenario: &str) -> Vec<&'static str> {
    if matches!(scenario, "churn-orient" | "churn-assign") {
        vec!["churn"]
    } else {
        executor_grid().map(|(label, _)| label).to_vec()
    }
}

/// The executor grid every one-shot scenario is swept over: the `dense`
/// reference scan and the `sparse` production loop
/// ([`Simulator::sequential`]), whose row isolates the node-granular
/// awake-list win against `dense`.
fn executor_grid() -> [(&'static str, Simulator); 2] {
    [
        ("dense", Simulator::dense()),
        ("sparse", Simulator::sequential()),
    ]
}

struct OneShot {
    nodes: usize,
    edges: usize,
    rounds: u64,
    messages: u64,
    wall_ns: u128,
    counters: ExecPerf,
    curve: Curve,
}

fn point(
    sc_name: &'static str,
    kind: &'static str,
    spec: String,
    executor: String,
    size: u32,
    seed: u64,
    o: OneShot,
) -> PerfPoint {
    PerfPoint {
        scenario: sc_name,
        spec,
        kind,
        executor,
        size,
        seed,
        nodes: o.nodes,
        edges: o.edges,
        rounds: o.rounds,
        messages: o.messages,
        wall_ns: o.wall_ns,
        counters: o.counters,
        curve: o.curve,
        node_steps: None,
    }
}

/// Cross-executor differential: every grid row must report the reference
/// row's rounds and messages (the `dense` row).
fn check_reference(
    scenario: &str,
    executor: &str,
    got: (u64, u64),
    reference: Option<(u64, u64)>,
) -> Result<(), String> {
    match reference {
        Some(r) if r != got => Err(format!(
            "perf {scenario}: {executor} rounds/messages {}/{} diverge from dense {}/{}",
            got.0, got.1, r.0, r.1
        )),
        _ => Ok(()),
    }
}

// ------------------------------------------------------------ drain-wave ---

/// The quiescing showcase: node `v` of a path halts immediately unless it
/// belongs to a small fixed-size leading frontier, which gossips for a
/// fixed budget of rounds — the shape of a rolling restart, where one
/// drained region is being worked on while the rest of the fleet idles.
/// After round 0 almost all residents are cold, so a dense scan pays ~`n`
/// per round while the sparse scheduler pays only the frontier; the gap
/// widens linearly with `n`.
struct DrainWave {
    long: bool,
    steps: u32,
}

const DRAIN_ROUNDS: u32 = 240;

impl Protocol for DrainWave {
    type Input = bool;
    type Message = u32;
    type Output = u32;

    fn init(node: NodeInit<'_, bool>) -> Self {
        DrainWave {
            long: *node.input,
            steps: 0,
        }
    }

    fn round(
        &mut self,
        ctx: &RoundCtx,
        _inbox: &Inbox<'_, u32>,
        outbox: &mut Outbox<'_, '_, u32>,
    ) -> Status {
        self.steps += 1;
        if !self.long {
            return Status::Halt;
        }
        outbox.broadcast(ctx.round);
        if ctx.round + 1 >= DRAIN_ROUNDS {
            Status::Halt
        } else {
            Status::Continue
        }
    }

    fn finish(self) -> u32 {
        self.steps
    }
}

fn run_drain_wave(cfg: &SweepConfig, size: u32) -> Result<Vec<PerfPoint>, String> {
    let n = (size as usize).max(32);
    let g = td_graph::gen::classic::path(n);
    let frontier = 256.min(n / 4);
    let inputs: Vec<bool> = (0..n).map(|v| v < frontier).collect();
    let spec = format!("drain-wave:size={n}:frontier={frontier}:rounds={DRAIN_ROUNDS}");
    let mut out = Vec::new();
    let mut reference = None;
    for (label, sim) in executor_grid() {
        let mut wall_ns = u128::MAX;
        let mut last = None;
        for _ in 0..cfg.repeat.max(1) {
            let t0 = Instant::now();
            let outcome: SimOutcome<Vec<u32>> = sim.with_trace(true).run::<DrainWave>(&g, &inputs);
            wall_ns = wall_ns.min(t0.elapsed().as_nanos());
            last = Some(outcome);
        }
        let outcome = last.expect("repeat >= 1");
        if !outcome.completed {
            return Err(format!("drain-wave {label}: did not complete"));
        }
        // Self-verify the synthetic output: every node knows its step count.
        for (v, &steps) in outcome.outputs.iter().enumerate() {
            let want = if v < frontier { DRAIN_ROUNDS } else { 1 };
            if steps != want {
                return Err(format!(
                    "drain-wave {label}: node {v} stepped {steps} != {want}"
                ));
            }
        }
        check_reference(
            "drain-wave",
            label,
            (outcome.rounds as u64, outcome.messages),
            reference,
        )?;
        reference.get_or_insert((outcome.rounds as u64, outcome.messages));
        out.push(point(
            "drain-wave",
            "synthetic",
            spec.clone(),
            label.to_string(),
            size,
            cfg.seed,
            OneShot {
                nodes: n,
                edges: g.num_edges(),
                rounds: outcome.rounds as u64,
                messages: outcome.messages,
                wall_ns,
                counters: outcome.perf,
                curve: Curve::from_trace(outcome.trace.as_deref().unwrap_or(&[])),
            },
        ));
    }
    Ok(out)
}

// ------------------------------------------------- spec-driven one-shots ---

fn build_spec(family: &str, size: u32, seed: u64) -> Result<WorkloadSpec, String> {
    Ok(WorkloadSpec::new(family)?.with_size(size).with_seed(seed))
}

fn run_game(cfg: &SweepConfig, family: &'static str, size: u32) -> Result<Vec<PerfPoint>, String> {
    let spec = build_spec(family, size, cfg.seed)?;
    let WorkloadInstance::Game(game) = spec.build()? else {
        return Err(format!("{family}: expected a game instance"));
    };
    let mut out = Vec::new();
    let mut reference = None;
    for (label, sim) in executor_grid() {
        let mut wall_ns = u128::MAX;
        let mut last = None;
        for _ in 0..cfg.repeat.max(1) {
            let t0 = Instant::now();
            let res = proposal::run_on_simulator(&game, &sim.with_trace(true));
            wall_ns = wall_ns.min(t0.elapsed().as_nanos());
            last = Some(res);
        }
        let res = last.expect("repeat >= 1");
        td_core::verify_solution(&game, &res.solution).map_err(|e| format!("{family}: {e:?}"))?;
        check_reference(
            family,
            label,
            (res.comm_rounds as u64, res.messages),
            reference,
        )?;
        reference.get_or_insert((res.comm_rounds as u64, res.messages));
        out.push(point(
            family,
            "game",
            spec.to_string(),
            label.to_string(),
            size,
            cfg.seed,
            OneShot {
                nodes: game.num_nodes(),
                edges: game.graph().num_edges(),
                rounds: res.comm_rounds as u64,
                messages: res.messages,
                wall_ns,
                counters: res.perf,
                curve: Curve::from_trace(res.trace.as_deref().unwrap_or(&[])),
            },
        ));
    }
    Ok(out)
}

fn run_orientation(cfg: &SweepConfig, size: u32) -> Result<Vec<PerfPoint>, String> {
    let spec = build_spec("torus", size, cfg.seed)?;
    let WorkloadInstance::Orientation(g) = spec.build()? else {
        return Err("torus: expected an orientation instance".into());
    };
    let mut out = Vec::new();
    let mut reference = None;
    for (label, sim) in executor_grid() {
        let mut wall_ns = u128::MAX;
        let mut last = None;
        for _ in 0..cfg.repeat.max(1) {
            let t0 = Instant::now();
            let res = run_distributed(&g, &sim.with_trace(true));
            wall_ns = wall_ns.min(t0.elapsed().as_nanos());
            last = Some(res);
        }
        let res = last.expect("repeat >= 1");
        res.orientation
            .verify_stable(&g)
            .map_err(|e| format!("torus: {e:?}"))?;
        check_reference(
            "torus",
            label,
            (res.comm_rounds as u64, res.messages),
            reference,
        )?;
        reference.get_or_insert((res.comm_rounds as u64, res.messages));
        out.push(point(
            "torus",
            "orientation",
            spec.to_string(),
            label.to_string(),
            size,
            cfg.seed,
            OneShot {
                nodes: g.num_nodes(),
                edges: g.num_edges(),
                rounds: res.comm_rounds as u64,
                messages: res.messages,
                wall_ns,
                counters: res.perf,
                curve: Curve::from_trace(res.trace.as_deref().unwrap_or(&[])),
            },
        ));
    }
    Ok(out)
}

fn run_assignment(cfg: &SweepConfig, size: u32) -> Result<Vec<PerfPoint>, String> {
    let spec = build_spec("zipf-cluster", size, cfg.seed)?.with_param("bound", 2);
    let WorkloadInstance::Assignment { inst, bound } = spec.build()? else {
        return Err("zipf-cluster: expected an assignment instance".into());
    };
    let mut out = Vec::new();
    let mut reference = None;
    for (label, sim) in executor_grid() {
        let mut wall_ns = u128::MAX;
        let mut last = None;
        for _ in 0..cfg.repeat.max(1) {
            let t0 = Instant::now();
            let res = td_assign::protocol::run_distributed_assignment(
                &inst,
                bound,
                &sim.with_trace(true),
            );
            wall_ns = wall_ns.min(t0.elapsed().as_nanos());
            last = Some(res);
        }
        let res = last.expect("repeat >= 1");
        match bound {
            Some(k) => res
                .assignment
                .verify_k_bounded(&inst, k)
                .map_err(|e| format!("zipf-cluster: {e:?}"))?,
            None => res
                .assignment
                .verify_stable(&inst)
                .map_err(|e| format!("zipf-cluster: {e:?}"))?,
        }
        check_reference(
            "zipf-cluster",
            label,
            (res.comm_rounds as u64, res.messages),
            reference,
        )?;
        reference.get_or_insert((res.comm_rounds as u64, res.messages));
        let edges = (0..inst.num_customers())
            .map(|c| inst.servers_of(c).len())
            .sum();
        out.push(point(
            "zipf-cluster",
            "assignment",
            spec.to_string(),
            label.to_string(),
            size,
            cfg.seed,
            OneShot {
                nodes: inst.num_customers() + inst.num_servers(),
                edges,
                rounds: res.comm_rounds as u64,
                messages: res.messages,
                wall_ns,
                counters: res.perf,
                curve: Curve::from_trace(res.trace.as_deref().unwrap_or(&[])),
            },
        ));
    }
    Ok(out)
}

// ------------------------------------------------------------ churn rows ---

fn run_churn(cfg: &SweepConfig, family: &'static str, size: u32) -> Result<Vec<PerfPoint>, String> {
    let spec = build_spec(family, size, cfg.seed)?;
    let mut wall_ns = u128::MAX;
    let mut last = None;
    for _ in 0..cfg.repeat.max(1) {
        let built = spec.build()?;
        let t0 = Instant::now();
        let measured = run_churn_once(family, built)?;
        wall_ns = wall_ns.min(t0.elapsed().as_nanos());
        last = Some(measured);
    }
    let (stats, nodes, edges) = last.expect("repeat >= 1");
    if !stats.completed {
        return Err(format!("{family}: repair hit the round cap"));
    }
    Ok(vec![PerfPoint {
        scenario: family,
        spec: spec.to_string(),
        kind: "churn",
        executor: "churn".into(),
        size,
        seed: cfg.seed,
        nodes,
        edges,
        rounds: stats.rounds as u64,
        messages: stats.messages,
        wall_ns,
        counters: ExecPerf::default(),
        curve: Curve::default(),
        node_steps: Some(stats.node_steps),
    }])
}

/// One timed repetition of a churn row: stabilize, stream the trace,
/// verify after every event.
fn run_churn_once(
    family: &'static str,
    built: WorkloadInstance,
) -> Result<(RepairStats, usize, usize), String> {
    Ok(match built {
        WorkloadInstance::OrientChurn { graph, trace } => {
            let mut eng = OrientChurnEngine::new(
                graph.clone(),
                Orientation::toward_larger(&graph),
                RepairMode::Incremental,
            );
            let mut total = RepairStats::accumulator();
            total.absorb(eng.stabilize());
            eng.verify()
                .map_err(|e| format!("{family}: initial stabilization: {e:?}"))?;
            for (i, ev) in trace.iter().enumerate() {
                total.absorb(
                    eng.apply(ev)
                        .map_err(|e| format!("{family}: event {i}: {e}"))?,
                );
                eng.verify()
                    .map_err(|e| format!("{family}: after event {i}: {e:?}"))?;
            }
            (total, eng.graph().num_nodes(), eng.graph().num_edges())
        }
        WorkloadInstance::AssignChurn { base, trace } => {
            let mut eng = AssignChurnEngine::new(&base, RepairMode::Incremental);
            let mut total = RepairStats::accumulator();
            total.absorb(eng.stabilize());
            eng.verify()
                .map_err(|e| format!("{family}: initial stabilization: {e:?}"))?;
            for (i, ev) in trace.iter().enumerate() {
                total.absorb(
                    eng.apply(ev)
                        .map_err(|e| format!("{family}: event {i}: {e}"))?,
                );
                eng.verify()
                    .map_err(|e| format!("{family}: after event {i}: {e:?}"))?;
            }
            let edges = (0..base.num_customers()).map(|c| base.degree_of(c)).sum();
            (total, eng.num_alive() + base.num_servers(), edges)
        }
        _ => return Err(format!("{family}: expected a churn instance")),
    })
}

// ------------------------------------------------------------------ JSON ---

fn push_kv_u64(s: &mut String, key: &str, v: u64, trailing: bool) {
    s.push_str(&format!("\"{key}\":{v}{}", if trailing { "," } else { "" }));
}

fn json_array_u64<I: IntoIterator<Item = u64>>(vals: I) -> String {
    let items: Vec<String> = vals.into_iter().map(|v| v.to_string()).collect();
    format!("[{}]", items.join(","))
}

/// The report header shared by `td perf` output and the experiment
/// cache's benchmark regeneration: schema tag, trajectory point, the
/// seed, the timing repeat count, and the executor grid. Ends mid-object,
/// ready for `"points"`.
pub fn header_json(seed: u64, repeat: usize, executors: &[String]) -> String {
    let execs: Vec<String> = executors.iter().map(|e| format!("\"{e}\"")).collect();
    format!(
        "{{\n\"schema\":\"{SCHEMA}\",\n\"bench\":10,\n\"seed\":{seed},\n\"repeat\":{repeat},\n\
         \"executors\":[{}],\n",
        execs.join(",")
    )
}

/// Serializes one measured point as a single-line JSON object — the exact
/// fragment [`write_json`] emits, exposed so the experiment cache can
/// store points verbatim and splice them back byte-identically.
pub fn point_json(p: &PerfPoint) -> String {
    let mut s = String::new();
    s.push('{');
    s.push_str(&format!(
        "\"scenario\":\"{}\",\"spec\":\"{}\",\"kind\":\"{}\",\"executor\":\"{}\",",
        p.scenario, p.spec, p.kind, p.executor
    ));
    s.push_str(&format!("\"size\":{},\"seed\":{},", p.size, p.seed));
    push_kv_u64(&mut s, "nodes", p.nodes as u64, true);
    push_kv_u64(&mut s, "edges", p.edges as u64, true);
    push_kv_u64(&mut s, "rounds", p.rounds, true);
    push_kv_u64(&mut s, "messages", p.messages, true);
    push_kv_u64(&mut s, "wall_ns", p.wall_ns as u64, true);
    let per_round = (p.wall_ns as u64).checked_div(p.rounds).unwrap_or(0);
    push_kv_u64(&mut s, "wall_ns_per_round", per_round, true);
    match p.node_steps {
        Some(steps) => {
            push_kv_u64(&mut s, "node_steps", steps, true);
        }
        None => {
            let c = &p.counters;
            push_kv_u64(&mut s, "node_rounds", c.node_rounds, true);
            push_kv_u64(&mut s, "halted_scans", c.halted_scans, true);
            push_kv_u64(&mut s, "sparse_skips", c.sparse_skips, true);
            push_kv_u64(&mut s, "local_messages", c.local_messages, true);
            push_kv_u64(&mut s, "boundary_messages", c.boundary_messages, true);
            push_kv_u64(&mut s, "stamp_scans", c.stamp_scans, true);
        }
    }
    s.push_str(&format!("\"active_fraction\":{:.6},", p.active_fraction()));
    if p.curve.rounds.is_empty() {
        s.push_str("\"curve\":null");
    } else {
        s.push_str(&format!(
            "\"curve\":{{\"stride\":{},\"rounds\":{},\"active\":{},\"messages\":{}}}",
            p.curve.stride,
            json_array_u64(p.curve.rounds.iter().map(|&r| r as u64)),
            json_array_u64(p.curve.active.iter().map(|&a| a as u64)),
            json_array_u64(p.curve.messages.iter().copied()),
        ));
    }
    s.push('}');
    s
}

/// Serializes a report as the versioned `td-perf/v1` JSON document. The
/// writer is hand-rolled (the workspace is hermetic: no serde), emits only
/// integers, strings of known-safe characters, and fixed-precision
/// fractions, and is covered by a shape test plus a round-trip test
/// through the in-tree [`crate::json`] parser.
pub fn write_json(report: &PerfReport) -> String {
    let mut executors: Vec<String> = Vec::new();
    for p in &report.points {
        if !executors.contains(&p.executor) {
            executors.push(p.executor.clone());
        }
    }
    let mut s = header_json(report.seed, report.repeat, &executors);
    s.push_str("\"points\":[\n");
    let fragments: Vec<String> = report.points.iter().map(point_json).collect();
    s.push_str(&fragments.join(",\n"));
    s.push_str("\n],\n\"derived\":{");
    let mut speedups: Vec<String> = Vec::new();
    for sc in REGISTRY {
        if let Some(x) = report.sparse_speedup(sc.name) {
            speedups.push(format!("\"sparse_speedup_{}\":{x:.3}", sc.name));
        }
    }
    s.push_str(&speedups.join(","));
    s.push_str("}\n}\n");
    s
}

/// Renders the human summary table `td perf` prints next to the JSON file.
pub fn summary_table(report: &PerfReport) -> String {
    let mut t = crate::Table::new(&[
        "scenario",
        "executor",
        "size",
        "n",
        "rounds",
        "messages",
        "wall ms",
        "active%",
        "sparse skips",
    ]);
    for p in &report.points {
        t.row(vec![
            p.scenario.to_string(),
            p.executor.clone(),
            p.size.to_string(),
            p.nodes.to_string(),
            p.rounds.to_string(),
            p.messages.to_string(),
            format!("{:.3}", p.wall_ns as f64 / 1e6),
            format!("{:.1}", 100.0 * p.active_fraction()),
            p.node_steps
                .map_or_else(|| p.counters.sparse_skips.to_string(), |_| "-".into()),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_one(name: &str) -> PerfReport {
        let mut cfg = SweepConfig::quick();
        cfg.scenario = Some(name.to_string());
        run_sweep(&cfg).unwrap_or_else(|e| panic!("{name}: {e}"))
    }

    #[test]
    fn registry_names_unique_and_findable() {
        let mut names: Vec<&str> = REGISTRY.iter().map(|s| s.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate perf scenario names");
        for n in names {
            assert!(find(n).is_some());
        }
        assert!(find("no-such-perf-scenario").is_none());
        assert!(listing().contains("drain-wave"));
    }

    #[test]
    fn unknown_scenario_is_an_error() {
        let mut cfg = SweepConfig::quick();
        cfg.scenario = Some("bogus".into());
        let err = run_sweep(&cfg).unwrap_err();
        assert!(err.contains("unknown perf scenario"), "{err}");
    }

    #[test]
    fn sizes_override_without_scenario_is_an_error() {
        // One size list across the registry would build absurd instances
        // (size units differ per scenario); run_sweep itself refuses, so
        // library callers are as safe as the CLI.
        let mut cfg = SweepConfig::quick();
        cfg.sizes = Some(vec![131_072]);
        let err = run_sweep(&cfg).unwrap_err();
        assert!(err.contains("needs a named scenario"), "{err}");
    }

    #[test]
    fn drain_wave_counters_tell_the_sparse_story() {
        let mut cfg = SweepConfig::quick();
        cfg.scenario = Some("drain-wave".into());
        cfg.sizes = Some(vec![2048]);
        let rep = run_sweep(&cfg).unwrap();
        let by = |ex: &str| rep.points.iter().find(|p| p.executor == ex).unwrap();
        let dense = by("dense");
        let sparse = by("sparse");
        // Bit-identical round/message counts…
        assert_eq!(dense.rounds, sparse.rounds);
        assert_eq!(dense.messages, sparse.messages);
        assert_eq!(dense.counters.node_rounds, sparse.counters.node_rounds);
        // …but the dense scan pays for every halted node while the
        // production loop skips exactly the same node-rounds untouched.
        assert!(dense.counters.halted_scans > 0);
        assert_eq!(sparse.counters.halted_scans, 0);
        assert_eq!(dense.counters.halted_scans, sparse.counters.sparse_skips);
        assert_eq!(sparse.counters.local_messages, sparse.messages);
    }

    #[test]
    fn every_scenario_runs_quick_and_serializes() {
        for sc in REGISTRY {
            // The churn and protocol scenarios are exercised at their
            // smallest rung; the drain wave at a tiny override.
            let mut cfg = SweepConfig::quick();
            cfg.scenario = Some(sc.name.to_string());
            if sc.name == "drain-wave" {
                cfg.sizes = Some(vec![512]);
            }
            let rep = run_sweep(&cfg).unwrap_or_else(|e| panic!("{}: {e}", sc.name));
            assert!(!rep.points.is_empty(), "{}", sc.name);
            for p in &rep.points {
                assert!(p.rounds > 0, "{}: zero rounds", sc.name);
                assert!(p.active_fraction() <= 1.0 + 1e-9, "{}", sc.name);
            }
            let json = write_json(&rep);
            assert!(json.contains(SCHEMA));
            assert!(json.contains(sc.name));
            assert!(json_shape_ok(&json), "{}: malformed JSON:\n{json}", sc.name);
            assert!(summary_table(&rep).contains(sc.name));
        }
    }

    #[test]
    fn churn_rows_report_sparse_node_steps() {
        let rep = quick_one("churn-assign");
        for p in &rep.points {
            let steps = p.node_steps.expect("churn rows carry node_steps");
            assert!(steps > 0, "{}", p.executor);
            // The wake-driven executor steps far fewer node-rounds than the
            // dense grid.
            assert!(p.active_fraction() < 1.0, "{}", p.executor);
        }
        assert_eq!(rep.points.len(), 1, "one churn row per size");
        assert_eq!(rep.points[0].executor, "churn");
    }

    /// A tiny structural validator: balanced braces/brackets outside
    /// strings, no trailing commas before closers. Not a full parser, but
    /// enough to keep the hand-rolled writer honest.
    fn json_shape_ok(s: &str) -> bool {
        let mut depth: i64 = 0;
        let mut in_str = false;
        let mut prev = ' ';
        for ch in s.chars() {
            if in_str {
                if ch == '"' && prev != '\\' {
                    in_str = false;
                }
            } else {
                match ch {
                    '"' => in_str = true,
                    '{' | '[' => depth += 1,
                    '}' | ']' => {
                        if prev == ',' {
                            return false;
                        }
                        depth -= 1;
                        if depth < 0 {
                            return false;
                        }
                    }
                    _ => {}
                }
            }
            if !ch.is_whitespace() {
                prev = ch;
            }
        }
        depth == 0 && !in_str
    }

    #[test]
    fn json_report_round_trips_with_header_fields() {
        // The header now records the repeat count and the resolved
        // executor grid (schema-additive); pin the whole document by
        // parsing it back with the in-tree JSON reader.
        let rep = quick_one("rotor");
        let doc = write_json(&rep);
        let parsed = crate::json::parse(&doc).unwrap();
        assert_eq!(parsed.get("schema").and_then(|v| v.as_str()), Some(SCHEMA));
        assert_eq!(parsed.get("bench").and_then(|v| v.as_u64()), Some(10));
        assert_eq!(
            parsed.get("repeat").and_then(|v| v.as_u64()),
            Some(rep.repeat as u64)
        );
        let execs: Vec<&str> = parsed
            .get("executors")
            .and_then(|e| e.as_arr())
            .expect("executors array")
            .iter()
            .filter_map(|e| e.as_str())
            .collect();
        let points = parsed.get("points").and_then(|p| p.as_arr()).unwrap();
        assert_eq!(points.len(), rep.points.len());
        for (j, p) in points.iter().zip(&rep.points) {
            assert_eq!(
                j.get("executor").and_then(|v| v.as_str()),
                Some(p.executor.as_str())
            );
            assert_eq!(j.get("rounds").and_then(|v| v.as_u64()), Some(p.rounds));
            assert_eq!(j.get("messages").and_then(|v| v.as_u64()), Some(p.messages));
            assert_eq!(
                j.get("wall_ns").and_then(|v| v.as_u64()),
                Some(p.wall_ns as u64)
            );
        }
        // The recorded grid is exactly what grid_labels resolves — cache
        // keys and report headers agree.
        assert_eq!(grid_labels("rotor"), execs);
    }

    /// The churn-assign rows of the committed BENCH_10.json: rounds,
    /// messages and node-steps (joins and leaves patch the repair network
    /// in place and must repeat them exactly).
    #[test]
    fn churn_assign_rows_repeat_bench_10() {
        let cfg = SweepConfig {
            scenario: Some("churn-assign".into()),
            sizes: Some(vec![8, 16]),
            repeat: 1,
            ..SweepConfig::default()
        };
        let rep = run_sweep(&cfg).unwrap();
        let rows: Vec<(u32, &str, u64, u64, Option<u64>)> = rep
            .points
            .iter()
            .map(|p| {
                (
                    p.size,
                    p.executor.as_str(),
                    p.rounds,
                    p.messages,
                    p.node_steps,
                )
            })
            .collect();
        let want = [(8, 253, 506, 946), (16, 231, 526, 1067)]
            .map(|(size, rounds, messages, steps)| (size, "churn", rounds, messages, Some(steps)));
        assert_eq!(rows, want);
    }

    #[test]
    fn grid_labels_cover_churn_and_oneshot_shapes() {
        assert_eq!(grid_labels("churn-orient"), vec!["churn"]);
        assert_eq!(grid_labels("churn-assign"), vec!["churn"]);
        assert_eq!(grid_labels("drain-wave"), vec!["dense", "sparse"]);
        assert_eq!(grid_labels("rotor"), vec!["dense", "sparse"]);
    }

    #[test]
    fn canonical_metrics_are_executor_prefixed_and_deterministic() {
        let rep = quick_one("rotor");
        let dense = rep.points.iter().find(|p| p.executor == "dense").unwrap();
        let m = dense.canonical_metrics();
        assert!(m
            .iter()
            .any(|(k, v)| k == "dense/rounds" && *v == dense.rounds));
        assert!(m.iter().all(|(k, _)| k.starts_with("dense/")));
        assert!(!m.iter().any(|(k, _)| k.ends_with("/wall_ns")));
        let churn = quick_one("churn-assign");
        let c = &churn.points[0];
        assert!(c
            .canonical_metrics()
            .iter()
            .any(|(k, _)| k.ends_with("/node_steps")));
    }

    #[test]
    fn sparse_speedup_reads_the_largest_size() {
        let mut cfg = SweepConfig::quick();
        cfg.scenario = Some("drain-wave".into());
        cfg.sizes = Some(vec![512, 1024]);
        let rep = run_sweep(&cfg).unwrap();
        let s = rep.sparse_speedup("drain-wave").expect("both rows present");
        assert!(s > 0.0);
        assert!(rep.sparse_speedup("no-such").is_none());
    }
}
