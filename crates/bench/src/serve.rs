//! The **`td serve` plane**: a long-running load-balancing daemon plus the
//! open-loop load generator that drives it in-process.
//!
//! The paper treats token dropping as a one-shot computation; this module
//! runs it as a *service*. A daemon thread owns a live churn engine
//! ([`OrientChurnEngine`] or [`AssignChurnEngine`]) over a workload-family
//! instance, pulls [`ChurnEvent`]s from a bounded request channel, applies
//! incremental repair per event, and answers load queries in the same
//! stream. The generator emits a seeded, fixed-budget event mix on an
//! interval tick schedule (`deadline_i = start + i/rate`), *open-loop*:
//! emission times do not depend on service times, so queueing delay is
//! measured rather than masked. When the channel fills, the generator
//! counts the backpressure event and then blocks — events are never
//! dropped, which keeps the final state deterministic under a fixed seed.
//!
//! Repair latency is measured from an event's **scheduled** emission time
//! to repair completion (coordinated-omission-free): if the repair plane
//! falls behind the offered rate, queueing delay compounds and the tail
//! percentiles explode, which is exactly the saturation signal a capacity
//! planner wants. The report pairs `sustained_eps` (throughput actually
//! achieved over the wall clock) with `saturation_eps` (events/sec of pure
//! repair work, `events / Σ apply time`) — the offered load level above
//! which the repair plane falls behind and the queue grows without bound.
//!
//! Determinism contract: under a fixed spec/seed, the event sequence, the
//! tick schedule, the per-event repair traces, and the final-state
//! [`ServeReport::fingerprint`] are bit-identical across runs and thread
//! counts. Wall-clock figures (latency percentiles, eps) are measurements
//! and vary.

use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use td_assign::repair::AssignChurnEngine;
use td_local::{ChurnEvent, ExecPerf, RepairMode, RepairStats};
use td_orient::repair::OrientChurnEngine;
use td_orient::Orientation;

use crate::spec::{FamilyKind, WorkloadInstance, WorkloadSpec};
use crate::Table;

/// Version tag of the JSON document [`write_json`] emits.
pub const SCHEMA: &str = "td-serve/v1";

// ------------------------------------------------------------- histogram ---

/// Exact latency recorder: keeps every sample and reports nearest-rank
/// percentiles, so `p50/p99/p999` are actual observed values (no bucketing
/// error), at 8 bytes per event.
///
/// Sorting happens lazily, at most once per batch of percentile queries:
/// the first query after a `record` sorts in place and subsequent queries
/// reuse the order, so summarizing a report costs one sort instead of one
/// clone-and-sort per percentile.
#[derive(Clone, Debug, Default)]
pub struct LatencyHistogram {
    samples_ns: Vec<u64>,
    sorted: bool,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample.
    pub fn record(&mut self, d: Duration) {
        self.samples_ns.push(d.as_nanos() as u64);
        self.sorted = false;
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples_ns.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples_ns.is_empty()
    }

    /// The exact nearest-rank percentile, in permille (`500` = p50,
    /// `990` = p99, `999` = p99.9, `1000` = max). Returns 0 when empty.
    pub fn percentile_ns(&mut self, permille: u32) -> u64 {
        assert!(permille <= 1000, "permille percentile expected");
        if self.samples_ns.is_empty() {
            return 0;
        }
        if !self.sorted {
            self.samples_ns.sort_unstable();
            self.sorted = true;
        }
        nearest_rank(&self.samples_ns, permille)
    }

    /// Mean sample, in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        if self.samples_ns.is_empty() {
            return 0;
        }
        let sum: u128 = self.samples_ns.iter().map(|&v| v as u128).sum();
        (sum / self.samples_ns.len() as u128) as u64
    }
}

/// The exact nearest-rank percentile of an already-sorted sample vector,
/// in permille: the smallest sample with at least `permille/1000` of the
/// distribution at or below it. Returns 0 when empty. This is the single
/// rank formula — [`LatencyHistogram::percentile_ns`] and every external
/// consumer (tests included) must go through it so the two paths cannot
/// drift.
pub fn nearest_rank(sorted_ns: &[u64], permille: u32) -> u64 {
    assert!(permille <= 1000, "permille percentile expected");
    if sorted_ns.is_empty() {
        return 0;
    }
    debug_assert!(sorted_ns.windows(2).all(|w| w[0] <= w[1]));
    let n = sorted_ns.len() as u64;
    let rank = ((permille as u64 * n).div_ceil(1000)).max(1);
    sorted_ns[(rank - 1) as usize]
}

/// FNV-1a over a word stream — the solution-fingerprint hash every serve /
/// replay consumer shares, so fingerprints printed by different consumers
/// of one trace are directly diffable.
pub(crate) fn fnv1a_words(words: impl IntoIterator<Item = u64>) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for v in words {
        h ^= v;
        h = h.wrapping_mul(PRIME);
    }
    h
}

// ------------------------------------------------------------ the engine ---

/// Either churn engine behind one service interface.
enum ServeEngine {
    Orient(Box<OrientChurnEngine>),
    Assign(Box<AssignChurnEngine>),
}

impl ServeEngine {
    fn apply(&mut self, ev: &ChurnEvent) -> Result<RepairStats, String> {
        match self {
            ServeEngine::Orient(e) => e.apply(ev).map_err(|er| er.to_string()),
            ServeEngine::Assign(e) => e.apply(ev).map_err(|er| er.to_string()),
        }
    }

    fn verify(&self) -> Result<(), String> {
        match self {
            ServeEngine::Orient(e) => e.verify().map_err(|er| format!("{er:?}")),
            ServeEngine::Assign(e) => e.verify().map_err(|er| format!("{er:?}")),
        }
    }

    /// FNV-1a over the current solution: orientation heads per edge, or
    /// `server + 1` per customer slot (0 = unassigned / departed).
    fn fingerprint(&self) -> u64 {
        match self {
            ServeEngine::Orient(e) => fnv1a_words(
                e.graph()
                    .edges()
                    .map(|edge| e.orientation().head(edge).expect("complete orientation").0 as u64),
            ),
            ServeEngine::Assign(e) => fnv1a_words(
                e.assignment_vector()
                    .iter()
                    .map(|a| a.map_or(0, |s| s as u64 + 1)),
            ),
        }
    }

    /// Heaviest server / node load right now (the query answer).
    fn max_load(&self) -> u32 {
        match self {
            ServeEngine::Orient(e) => {
                let g = e.graph();
                g.nodes()
                    .map(|v| e.orientation().load(v))
                    .max()
                    .unwrap_or(0)
            }
            ServeEngine::Assign(e) => e.server_loads().into_iter().max().unwrap_or(0),
        }
    }

    fn nodes(&self) -> usize {
        match self {
            ServeEngine::Orient(e) => e.graph().num_nodes(),
            ServeEngine::Assign(e) => e.num_alive(),
        }
    }

    fn exec_perf(&self) -> ExecPerf {
        match self {
            ServeEngine::Orient(e) => e.exec_perf(),
            ServeEngine::Assign(e) => e.exec_perf(),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            ServeEngine::Orient(_) => "orient",
            ServeEngine::Assign(_) => "assign",
        }
    }
}

// --------------------------------------------------------------- request ---

/// What the generator puts on the daemon's request channel.
enum ServeRequest {
    /// A churn event plus its scheduled emission instant (latency epoch).
    Event { ev: ChurnEvent, emitted: Instant },
    /// A current-load query; the daemon answers over the reply lane.
    Query { reply: mpsc::Sender<LoadSnapshot> },
}

/// Answer to a load query, taken between repairs (always a stable state).
#[derive(Clone, Copy, Debug)]
pub struct LoadSnapshot {
    /// Heaviest server (assignment) / node (orientation) load.
    pub max_load: u32,
    /// Live nodes (graph nodes, or alive customers).
    pub nodes: usize,
}

/// What the daemon thread hands back when it drains out and exits.
struct DaemonOutcome {
    engine: ServeEngine,
    hist: LatencyHistogram,
    repair: RepairStats,
    busy: Duration,
    events: u32,
    queries: u64,
    error: Option<String>,
}

// ---------------------------------------------------------------- config ---

/// Configuration of one serve run (daemon + generator, in-process).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// The workload family instance to serve; must be a churn family
    /// (`small-world`, `power-law`, `churn-orient`, `churn-assign`). The
    /// spec's `events` knob is overwritten with `budget`.
    pub spec: WorkloadSpec,
    /// Offered load in events/sec; 0 = unpaced (emit as fast as possible).
    pub rate: u64,
    /// Total events to emit (the run ends when the budget is exhausted).
    pub budget: u32,
    /// Request channel capacity; a full channel is the backpressure signal.
    pub queue: usize,
    /// Interleave a load query after every `query_every` events (0 = never).
    pub query_every: u32,
    /// Test hook: lowered stamp-renormalization horizon (see
    /// [`td_local::ChurnSim::set_stamp_horizon`]); caps single-run round
    /// budgets to half the horizon so headroom always exists.
    pub stamp_horizon: Option<u32>,
    /// Recorded event stream to serve instead of the spec's generated mix
    /// (the `td trace replay --consumer serve` path). When set, the
    /// effective budget is the trace length and `budget` is ignored; the
    /// spec still names the base instance (graph family / size / seed).
    pub trace: Option<Vec<ChurnEvent>>,
}

impl ServeConfig {
    /// A serve run over `family` at its default size, seed 0, unpaced, with
    /// a 256-event budget.
    pub fn new(family: &str) -> Result<Self, String> {
        let spec = WorkloadSpec::new(family)?;
        match spec.info().kind {
            FamilyKind::OrientChurn | FamilyKind::AssignChurn => {}
            _ => {
                return Err(format!(
                    "family '{family}' is not a churn family; serve needs one of: {}",
                    churn_families().join(", ")
                ))
            }
        }
        Ok(ServeConfig {
            spec,
            rate: 0,
            budget: 256,
            queue: 1024,
            query_every: 64,
            stamp_horizon: None,
            trace: None,
        })
    }

    /// The CI smoke configuration: small instance, low rate, tiny budget.
    pub fn quick() -> Self {
        let mut cfg = ServeConfig::new("churn-orient").expect("registered churn family");
        cfg.spec = cfg.spec.with_size(48).with_seed(7);
        cfg.rate = 5_000;
        cfg.budget = 64;
        cfg
    }
}

/// Names of the families `serve` accepts.
pub fn churn_families() -> Vec<&'static str> {
    crate::spec::FAMILIES
        .iter()
        .filter(|f| matches!(f.kind, FamilyKind::OrientChurn | FamilyKind::AssignChurn))
        .map(|f| f.name)
        .collect()
}

/// The scheduled emission offset of event `i` at `rate` events/sec (the
/// open-loop tick schedule; `rate == 0` means unpaced, offset 0). The
/// nanosecond count saturates at `u64::MAX` (~584 years) instead of
/// silently truncating for extreme `i/rate` combinations.
pub fn tick_offset(rate: u64, i: u64) -> Duration {
    if rate == 0 {
        Duration::ZERO
    } else {
        let ns = i as u128 * 1_000_000_000 / rate as u128;
        Duration::from_nanos(u64::try_from(ns).unwrap_or(u64::MAX))
    }
}

/// True if the open-loop schedule of `budget` events at `rate` events/sec
/// would run past the representable nanosecond range — i.e. the last tick
/// saturates. The CLI rejects such `--rate`/`--budget` pairs up front
/// (exit 2) instead of silently emitting a clamped schedule (the budget is
/// taken as `u64` so the *requested* pair is judged, before any narrowing).
pub fn schedule_overflows(rate: u64, budget: u64) -> bool {
    if rate == 0 || budget == 0 {
        return false;
    }
    let last = (budget as u128 - 1) * 1_000_000_000 / rate as u128;
    last > u64::MAX as u128
}

// ---------------------------------------------------------------- report ---

/// Latency percentiles of one serve run, nanoseconds, nearest-rank exact.
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencySummary {
    /// Samples behind the percentiles (== events applied).
    pub count: u64,
    /// Median.
    pub p50_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// 99.9th percentile.
    pub p999_ns: u64,
    /// Worst observed.
    pub max_ns: u64,
    /// Arithmetic mean.
    pub mean_ns: u64,
}

impl LatencySummary {
    fn from_hist(h: &mut LatencyHistogram) -> Self {
        LatencySummary {
            count: h.len() as u64,
            p50_ns: h.percentile_ns(500),
            p99_ns: h.percentile_ns(990),
            p999_ns: h.percentile_ns(999),
            max_ns: h.percentile_ns(1000),
            mean_ns: h.mean_ns(),
        }
    }
}

/// Everything one serve run measured; serialized by [`write_json`].
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Canonical spec string of the instance served.
    pub spec: String,
    /// Which engine ran: `"orient"` or `"assign"`.
    pub engine: &'static str,
    /// Family size knob.
    pub size: u32,
    /// Workload seed.
    pub seed: u64,
    /// Offered rate (events/sec; 0 = unpaced).
    pub rate: u64,
    /// Event budget of the run.
    pub budget: u32,
    /// Request channel capacity.
    pub queue: usize,
    /// Live nodes at the end of the run.
    pub nodes: usize,
    /// Events actually applied (== budget on a clean run).
    pub events: u32,
    /// Load queries answered in-stream.
    pub queries: u64,
    /// Emissions that found the request channel full and had to block.
    pub backpressure: u64,
    /// Worst generator lag behind the tick schedule.
    pub max_lag_ns: u64,
    /// First emission to daemon exit.
    pub wall_ns: u64,
    /// Time the daemon spent inside `apply` (repair work proper).
    pub busy_ns: u64,
    /// Repair work accumulated over every event.
    pub repair: RepairStats,
    /// Engine lifetime work counters ([`ExecPerf`]) for the run.
    pub perf: ExecPerf,
    /// Repair latency, scheduled-emission → repair-complete.
    pub latency: LatencySummary,
    /// Heaviest load at the end of the run.
    pub max_load: u32,
    /// FNV-1a fingerprint of the final solution (determinism witness).
    pub fingerprint: u64,
}

impl ServeReport {
    /// The cache-stable canonical serialization of this report: the
    /// deterministic subset as flat integer metrics — instance shape,
    /// event totals, repair work, and the final-solution witness.
    /// Wall-clock, latency, and backpressure are load-dependent and
    /// deliberately excluded.
    pub fn canonical_metrics(&self) -> Vec<(String, u64)> {
        vec![
            ("nodes".into(), self.nodes as u64),
            ("events".into(), self.events as u64),
            ("queries".into(), self.queries),
            ("repair_rounds".into(), self.repair.rounds as u64),
            ("repair_messages".into(), self.repair.messages),
            ("repair_node_steps".into(), self.repair.node_steps),
            ("max_load".into(), self.max_load as u64),
            ("fingerprint".into(), self.fingerprint),
        ]
    }

    /// Throughput actually sustained over the wall clock, events/sec.
    pub fn sustained_eps(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.events as f64 * 1e9 / self.wall_ns as f64
    }

    /// Capacity of the repair plane: events/sec of pure repair work
    /// (`events / Σ apply time`). Offering more than this makes the queue
    /// grow without bound — the load level at which the plane falls behind.
    ///
    /// Zero accumulated busy time is handled deliberately rather than by
    /// `0/0`: with no events the capacity is unmeasured (0.0), while events
    /// that took no measurable repair time mean the plane is unsaturable at
    /// this clock resolution (`f64::INFINITY`) — e.g. an all-query run or
    /// `--budget 0`.
    pub fn saturation_eps(&self) -> f64 {
        if self.events == 0 {
            return 0.0;
        }
        if self.busy_ns == 0 {
            return f64::INFINITY;
        }
        self.events as f64 * 1e9 / self.busy_ns as f64
    }

    /// True if the run could not keep up with the offered rate (only
    /// meaningful for paced runs that applied at least one event): the
    /// offered load exceeded capacity, or emission had to block on a full
    /// queue. A run with no events has nothing to fall behind on, even
    /// though its measured capacity is 0.
    pub fn fell_behind(&self) -> bool {
        self.rate > 0
            && self.events > 0
            && (self.rate as f64 > self.saturation_eps() || self.backpressure > 0)
    }

    /// Human-readable summary table.
    pub fn summary_table(&self) -> Table {
        let mut t = Table::new(&["metric", "value"]);
        let mut row = |k: &str, v: String| t.row(vec![k.to_string(), v]);
        row("spec", self.spec.clone());
        row("engine", self.engine.to_string());
        row(
            "offered rate",
            if self.rate == 0 {
                "unpaced".into()
            } else {
                format!("{} ev/s", self.rate)
            },
        );
        row("events", format!("{}/{}", self.events, self.budget));
        row("sustained", format!("{:.1} ev/s", self.sustained_eps()));
        row("saturation", format!("{:.1} ev/s", self.saturation_eps()));
        row("fell behind", self.fell_behind().to_string());
        row("backpressure", self.backpressure.to_string());
        row(
            "p50 latency",
            format!("{:.3} ms", self.latency.p50_ns as f64 / 1e6),
        );
        row(
            "p99 latency",
            format!("{:.3} ms", self.latency.p99_ns as f64 / 1e6),
        );
        row(
            "p999 latency",
            format!("{:.3} ms", self.latency.p999_ns as f64 / 1e6),
        );
        row("max load", self.max_load.to_string());
        row("rounds", self.repair.rounds.to_string());
        row("messages", self.repair.messages.to_string());
        row("fingerprint", format!("{:016x}", self.fingerprint));
        t
    }
}

// ------------------------------------------------------------ the daemon ---

fn spawn_daemon(
    mut engine: ServeEngine,
    rx: mpsc::Receiver<ServeRequest>,
) -> thread::JoinHandle<DaemonOutcome> {
    thread::Builder::new()
        .name("td-serve".into())
        .spawn(move || {
            let mut hist = LatencyHistogram::new();
            let mut repair = RepairStats::accumulator();
            let mut busy = Duration::ZERO;
            let mut events = 0u32;
            let mut queries = 0u64;
            let mut error = None;
            // Drains until every sender is dropped — the generator closing
            // the channel *is* the shutdown request, and the daemon always
            // finishes whatever was already enqueued.
            while let Ok(req) = rx.recv() {
                match req {
                    ServeRequest::Event { ev, emitted } => {
                        let t0 = Instant::now();
                        match engine.apply(&ev) {
                            Ok(stats) => {
                                busy += t0.elapsed();
                                repair.absorb(stats);
                                events += 1;
                                hist.record(emitted.elapsed());
                            }
                            Err(e) => {
                                error.get_or_insert(format!("event {events}: {e}"));
                            }
                        }
                    }
                    ServeRequest::Query { reply } => {
                        queries += 1;
                        let _ = reply.send(LoadSnapshot {
                            max_load: engine.max_load(),
                            nodes: engine.nodes(),
                        });
                    }
                }
            }
            DaemonOutcome {
                engine,
                hist,
                repair,
                busy,
                events,
                queries,
                error,
            }
        })
        .expect("spawn serve daemon")
}

// --------------------------------------------------------- the generator ---

/// Runs one serve session to completion: builds the instance, stabilizes
/// it, spawns the daemon, streams the budgeted open-loop event mix through
/// it, joins the daemon (clean shutdown — no worker outlives this call),
/// verifies the final state, and returns the report.
pub fn serve(cfg: &ServeConfig) -> Result<ServeReport, String> {
    let budget = match &cfg.trace {
        Some(t) => u32::try_from(t.len()).map_err(|_| "trace too long".to_string())?,
        None => cfg.budget,
    };
    let spec = cfg.spec.clone().with_param("events", budget);
    let (mut engine, trace) = match spec.build()? {
        WorkloadInstance::OrientChurn { graph, trace } => {
            let mut eng = OrientChurnEngine::new(
                graph.clone(),
                Orientation::toward_larger(&graph),
                RepairMode::Incremental,
            );
            if let Some(h) = cfg.stamp_horizon {
                eng = eng.with_max_rounds(h / 2).with_stamp_horizon(h);
            }
            (ServeEngine::Orient(Box::new(eng)), trace)
        }
        WorkloadInstance::AssignChurn { base, trace } => {
            let mut eng = AssignChurnEngine::new(&base, RepairMode::Incremental);
            if let Some(h) = cfg.stamp_horizon {
                eng = eng.with_max_rounds(h / 2).with_stamp_horizon(h);
            }
            (ServeEngine::Assign(Box::new(eng)), trace)
        }
        _ => {
            return Err(format!(
                "family '{}' is not a churn family; serve needs one of: {}",
                spec.family,
                churn_families().join(", ")
            ))
        }
    };
    // A recorded trace replaces the generated mix; the base instance (built
    // above — churn families draw the graph before the mix) is unchanged.
    let trace = match &cfg.trace {
        Some(t) => t.clone(),
        None => trace,
    };
    // Reach the first stable state before opening the doors.
    match &mut engine {
        ServeEngine::Orient(e) => {
            e.stabilize();
        }
        ServeEngine::Assign(e) => {
            e.stabilize();
        }
    }
    engine
        .verify()
        .map_err(|e| format!("initial stabilization: {e}"))?;

    let (tx, rx) = mpsc::sync_channel::<ServeRequest>(cfg.queue.max(1));
    let (reply_tx, reply_rx) = mpsc::channel::<LoadSnapshot>();
    let daemon = spawn_daemon(engine, rx);

    let start = Instant::now();
    let mut backpressure = 0u64;
    let mut max_lag = Duration::ZERO;
    let mut queries_sent = 0u64;
    let send = |req: ServeRequest, backpressure: &mut u64| -> Result<(), String> {
        match tx.try_send(req) {
            Ok(()) => Ok(()),
            Err(mpsc::TrySendError::Full(req)) => {
                *backpressure += 1;
                tx.send(req).map_err(|_| "serve daemon hung up".to_string())
            }
            Err(mpsc::TrySendError::Disconnected(_)) => Err("serve daemon hung up".to_string()),
        }
    };
    let mut stream_error = None;
    for (i, ev) in trace.into_iter().enumerate() {
        let deadline = start + tick_offset(cfg.rate, i as u64);
        let now = Instant::now();
        if now < deadline {
            thread::sleep(deadline - now);
        } else {
            max_lag = max_lag.max(now - deadline);
        }
        // The latency epoch is the *scheduled* tick, not the actual send:
        // generator lag and queueing delay both count against the run.
        let emitted = if cfg.rate == 0 {
            Instant::now()
        } else {
            deadline
        };
        if let Err(e) = send(ServeRequest::Event { ev, emitted }, &mut backpressure) {
            stream_error = Some(e);
            break;
        }
        if cfg.query_every > 0 && (i as u32 + 1).is_multiple_of(cfg.query_every) {
            queries_sent += 1;
            if let Err(e) = send(
                ServeRequest::Query {
                    reply: reply_tx.clone(),
                },
                &mut backpressure,
            ) {
                stream_error = Some(e);
                break;
            }
        }
    }
    // Dropping the sender is the shutdown signal; join for a clean exit.
    drop(tx);
    let mut outcome = daemon.join().map_err(|_| "serve daemon panicked")?;
    let wall = start.elapsed();
    if let Some(e) = outcome.error {
        return Err(format!("repair failed: {e}"));
    }
    if let Some(e) = stream_error {
        return Err(format!("event stream broke: {e}"));
    }
    drop(reply_tx);
    let snapshots: Vec<LoadSnapshot> = reply_rx.try_iter().collect();
    assert_eq!(
        snapshots.len() as u64,
        queries_sent,
        "every query answered before shutdown"
    );
    assert_eq!(outcome.queries, queries_sent);
    outcome
        .engine
        .verify()
        .map_err(|e| format!("final state unstable: {e}"))?;

    Ok(ServeReport {
        spec: spec.to_string(),
        engine: outcome.engine.kind(),
        size: spec.size,
        seed: spec.seed,
        rate: cfg.rate,
        budget,
        queue: cfg.queue,
        nodes: outcome.engine.nodes(),
        events: outcome.events,
        queries: outcome.queries,
        backpressure,
        max_lag_ns: max_lag.as_nanos() as u64,
        wall_ns: wall.as_nanos() as u64,
        busy_ns: outcome.busy.as_nanos() as u64,
        repair: outcome.repair,
        perf: outcome.engine.exec_perf(),
        latency: LatencySummary::from_hist(&mut outcome.hist),
        max_load: outcome.engine.max_load(),
        fingerprint: outcome.engine.fingerprint(),
    })
}

// ------------------------------------------------------------------ JSON ---

fn push_kv_u64(s: &mut String, key: &str, v: u64, trailing: bool) {
    s.push_str(&format!("\"{key}\":{v}{}", if trailing { "," } else { "" }));
}

/// Serializes a report as the versioned `td-serve/v1` JSON document. The
/// writer is hand-rolled (the workspace is hermetic: no serde), emits only
/// integers, booleans, fixed-precision fractions, and strings of known-safe
/// characters, and is covered by a shape test.
pub fn write_json(r: &ServeReport) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{{\n\"schema\":\"{SCHEMA}\",\n\"spec\":\"{}\",\n\"engine\":\"{}\",\n",
        r.spec, r.engine
    ));
    s.push_str(&format!("\"size\":{},\"seed\":{},", r.size, r.seed));
    push_kv_u64(&mut s, "rate", r.rate, true);
    push_kv_u64(&mut s, "budget", r.budget as u64, true);
    push_kv_u64(&mut s, "queue", r.queue as u64, true);
    s.push('\n');
    push_kv_u64(&mut s, "nodes", r.nodes as u64, true);
    push_kv_u64(&mut s, "events", r.events as u64, true);
    push_kv_u64(&mut s, "queries", r.queries, true);
    push_kv_u64(&mut s, "backpressure", r.backpressure, true);
    push_kv_u64(&mut s, "max_lag_ns", r.max_lag_ns, true);
    push_kv_u64(&mut s, "wall_ns", r.wall_ns, true);
    push_kv_u64(&mut s, "busy_ns", r.busy_ns, true);
    s.push('\n');
    s.push_str(&format!(
        "\"sustained_eps\":{:.1},\"saturation_eps\":{:.1},\"fell_behind\":{},\n",
        r.sustained_eps(),
        r.saturation_eps(),
        r.fell_behind()
    ));
    s.push_str("\"repair\":{");
    push_kv_u64(&mut s, "rounds", r.repair.rounds as u64, true);
    push_kv_u64(&mut s, "messages", r.repair.messages, true);
    push_kv_u64(&mut s, "node_steps", r.repair.node_steps, false);
    s.push_str("},\n\"perf\":{");
    push_kv_u64(&mut s, "node_rounds", r.perf.node_rounds, true);
    push_kv_u64(&mut s, "halted_scans", r.perf.halted_scans, true);
    push_kv_u64(&mut s, "sparse_skips", r.perf.sparse_skips, true);
    push_kv_u64(&mut s, "local_messages", r.perf.local_messages, true);
    push_kv_u64(&mut s, "boundary_messages", r.perf.boundary_messages, true);
    push_kv_u64(&mut s, "stamp_scans", r.perf.stamp_scans, false);
    s.push_str("},\n\"latency_ns\":{");
    push_kv_u64(&mut s, "count", r.latency.count, true);
    push_kv_u64(&mut s, "p50", r.latency.p50_ns, true);
    push_kv_u64(&mut s, "p99", r.latency.p99_ns, true);
    push_kv_u64(&mut s, "p999", r.latency.p999_ns, true);
    push_kv_u64(&mut s, "max", r.latency.max_ns, true);
    push_kv_u64(&mut s, "mean", r.latency.mean_ns, false);
    s.push_str("},\n");
    push_kv_u64(&mut s, "max_load", r.max_load as u64, true);
    push_kv_u64(&mut s, "fingerprint", r.fingerprint, false);
    s.push_str("\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let mut h = LatencyHistogram::new();
        // 1..=1000 ns, worst-case order for a naive implementation.
        for v in (1..=1000u64).rev() {
            h.record(Duration::from_nanos(v));
        }
        assert_eq!(h.len(), 1000);
        assert_eq!(h.percentile_ns(500), 500);
        assert_eq!(h.percentile_ns(990), 990);
        assert_eq!(h.percentile_ns(999), 999);
        assert_eq!(h.percentile_ns(1000), 1000);
        assert_eq!(h.mean_ns(), 500); // (1+1000)/2 = 500.5, integer floor
                                      // Small sample: nearest rank, never interpolated.
        let mut s = LatencyHistogram::new();
        for v in [10u64, 20, 30] {
            s.record(Duration::from_nanos(v));
        }
        assert_eq!(s.percentile_ns(500), 20);
        assert_eq!(s.percentile_ns(990), 30);
        assert_eq!(s.percentile_ns(999), 30);
        // Empty histogram answers 0 rather than panicking.
        assert_eq!(LatencyHistogram::new().percentile_ns(999), 0);
    }

    #[test]
    fn lazy_sort_matches_per_call_sort_reference() {
        // The histogram now sorts once per batch of queries; the reference
        // below clones and sorts per call the way the old implementation
        // did. Percentiles must be unchanged, including across interleaved
        // record/query sequences that invalidate the sorted order.
        let mut h = LatencyHistogram::new();
        let mut vals: Vec<u64> = Vec::new();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        // The reference clones and sorts per call, then asks the one shared
        // rank formula — the histogram path and this path can only differ
        // in their sort bookkeeping, never in the rank arithmetic.
        let reference = |vals: &[u64], permille: u32| -> u64 {
            let mut sorted = vals.to_vec();
            sorted.sort_unstable();
            nearest_rank(&sorted, permille)
        };
        for round in 0..4 {
            for _ in 0..337 {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let v = x >> 40;
                vals.push(v);
                h.record(Duration::from_nanos(v));
            }
            for p in [0, 1, 250, 500, 900, 990, 999, 1000] {
                assert_eq!(
                    h.percentile_ns(p),
                    reference(&vals, p),
                    "round {round} p{p}"
                );
            }
            assert_eq!(h.mean_ns(), {
                let sum: u128 = vals.iter().map(|&v| v as u128).sum();
                (sum / vals.len() as u128) as u64
            });
        }
    }

    #[test]
    fn tick_schedule_is_deterministic_and_exact() {
        assert_eq!(tick_offset(0, 999), Duration::ZERO);
        assert_eq!(tick_offset(1000, 0), Duration::ZERO);
        assert_eq!(tick_offset(1000, 1), Duration::from_millis(1));
        assert_eq!(tick_offset(1000, 250), Duration::from_millis(250));
        assert_eq!(tick_offset(4, 3), Duration::from_millis(750));
        // Integer division truncates identically on every run.
        assert_eq!(tick_offset(3, 1), Duration::from_nanos(333_333_333));
    }

    #[test]
    fn tick_offset_saturates_instead_of_truncating() {
        // i/rate combinations whose nanosecond count exceeds u64 used to
        // wrap through the silent `as u64` cast; they must pin to the max.
        assert_eq!(tick_offset(1, u64::MAX), Duration::from_nanos(u64::MAX));
        let wrap_point = u64::MAX / 1_000_000_000 + 1;
        assert_eq!(
            tick_offset(1, wrap_point),
            Duration::from_nanos(u64::MAX),
            "first overflowing tick saturates"
        );
        assert_eq!(
            tick_offset(1, wrap_point - 1),
            Duration::from_nanos((wrap_point - 1) * 1_000_000_000),
            "last exact tick is unchanged"
        );
        // Well inside the range nothing changes.
        assert_eq!(tick_offset(1_000_000, 1), Duration::from_nanos(1_000));
    }

    #[test]
    fn schedule_overflow_detection_brackets_the_boundary() {
        assert!(!schedule_overflows(0, u64::MAX), "unpaced never overflows");
        assert!(!schedule_overflows(1, 0), "empty budget never overflows");
        assert!(!schedule_overflows(1_000, 1_000_000_000));
        // At 1 event/sec the last tick of budget b is (b-1)·1e9 ns; u64
        // nanoseconds hold ~584 years ≈ 18.4e9 events.
        let limit = u64::MAX / 1_000_000_000;
        assert!(!schedule_overflows(1, limit + 1), "last tick exactly fits");
        assert!(schedule_overflows(1, limit + 2), "one past the horizon");
        assert!(schedule_overflows(1, u64::MAX));
        // Every u32-range budget is schedulable at any nonzero rate.
        assert!(!schedule_overflows(1, u32::MAX as u64));
    }

    fn report_shell(events: u32, busy_ns: u64, rate: u64, backpressure: u64) -> ServeReport {
        ServeReport {
            spec: "small-world:size=8".into(),
            engine: "orient",
            size: 8,
            seed: 1,
            rate,
            budget: events,
            queue: 16,
            nodes: 8,
            events,
            queries: 0,
            backpressure,
            max_lag_ns: 0,
            wall_ns: 1,
            busy_ns,
            repair: RepairStats::accumulator(),
            perf: ExecPerf::default(),
            latency: LatencySummary::default(),
            max_load: 0,
            fingerprint: 0,
        }
    }

    #[test]
    fn saturation_is_well_defined_at_zero_busy_time() {
        // No events: capacity unmeasured, nothing fell behind.
        let idle = report_shell(0, 0, 1_000, 0);
        assert_eq!(idle.saturation_eps(), 0.0);
        assert!(!idle.fell_behind(), "an empty run cannot fall behind");
        // Events with zero measurable repair time: unsaturable, and an
        // offered rate can never exceed infinite capacity.
        let instant = report_shell(10, 0, u64::MAX, 0);
        assert_eq!(instant.saturation_eps(), f64::INFINITY);
        assert!(!instant.fell_behind());
        // ... unless emission actually blocked on the queue.
        let blocked = report_shell(10, 0, 1_000, 3);
        assert!(blocked.fell_behind());
        // The ordinary path is untouched.
        let normal = report_shell(10, 1_000_000_000, 5, 0);
        assert_eq!(normal.saturation_eps(), 10.0);
        assert!(!normal.fell_behind());
        assert!(report_shell(10, 1_000_000_000, 11, 0).fell_behind());
    }

    #[test]
    fn nearest_rank_is_the_single_percentile_implementation() {
        // Pin the two paths — histogram vs direct — at p50/p99/p999 over
        // an awkward length (not a divisor of 1000).
        let mut h = LatencyHistogram::new();
        let mut vals: Vec<u64> = (0..237).map(|i| (i * 7919) % 1000).collect();
        for &v in &vals {
            h.record(Duration::from_nanos(v));
        }
        vals.sort_unstable();
        for p in [500, 990, 999] {
            assert_eq!(h.percentile_ns(p), nearest_rank(&vals, p), "p{p}");
        }
        assert_eq!(nearest_rank(&[], 999), 0);
    }

    #[test]
    fn serve_is_deterministic_under_fixed_seed() {
        let mut cfg = ServeConfig::new("churn-orient").unwrap();
        cfg.spec = cfg.spec.with_size(48).with_seed(11);
        cfg.budget = 48;
        cfg.query_every = 16;
        let a = serve(&cfg).expect("serve run");
        let b = serve(&cfg).expect("serve run");
        assert_eq!(a.events, 48);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.repair, b.repair);
        assert_eq!(a.perf, b.perf);
        assert_eq!(a.queries, b.queries);
    }

    #[test]
    fn budget_exhaustion_is_a_clean_shutdown() {
        let mut cfg = ServeConfig::new("churn-assign").unwrap();
        cfg.spec = cfg.spec.with_size(8).with_seed(3);
        cfg.budget = 40;
        cfg.query_every = 8;
        cfg.queue = 4; // force backpressure paths too
                       // serve() joins the daemon before returning: a report in hand
                       // proves no worker outlived the run.
        let r = serve(&cfg).expect("serve run");
        assert_eq!(r.events, 40, "full budget applied");
        assert_eq!(r.queries, 5, "every query answered before shutdown");
        assert_eq!(r.latency.count, 40);
        assert!(r.latency.p50_ns <= r.latency.p99_ns);
        assert!(r.latency.p99_ns <= r.latency.p999_ns);
        assert!(r.latency.p999_ns <= r.latency.max_ns);
        assert!(r.sustained_eps() > 0.0);
        assert!(r.saturation_eps() > 0.0);
    }

    #[test]
    fn serve_rejects_non_churn_families() {
        assert!(ServeConfig::new("rotor").is_err());
        assert!(ServeConfig::new("no-such-family").is_err());
        assert!(churn_families().contains(&"churn-assign"));
    }

    #[test]
    fn serve_survives_the_stamp_horizon() {
        // Flip-only trace: the engine never rebuilds its sim, so the round
        // counter climbs monotonically — the exact profile that panicked at
        // the pre-fix assert. A lowered horizon crosses the wrap point
        // dozens of times within one budgeted run.
        let mut cfg = ServeConfig::new("small-world").unwrap();
        cfg.spec = cfg
            .spec
            .with_size(32)
            .with_seed(5)
            .with_param("flip_w", 1)
            .with_param("ins_w", 0)
            .with_param("del_w", 0);
        cfg.budget = 200;
        cfg.stamp_horizon = Some(256);
        let wrapped = serve(&cfg).expect("serve across renormalizations");
        assert_eq!(wrapped.events, 200);
        // Bit-identical to the same run with the default horizon.
        cfg.stamp_horizon = None;
        let plain = serve(&cfg).expect("serve without renormalization");
        assert_eq!(wrapped.fingerprint, plain.fingerprint);
        assert_eq!(wrapped.repair, plain.repair);
    }

    #[test]
    fn json_is_schema_versioned_and_well_shaped() {
        let mut cfg = ServeConfig::quick();
        cfg.budget = 24;
        cfg.rate = 0;
        let r = serve(&cfg).expect("quick serve");
        let json = write_json(&r);
        assert!(json.contains(SCHEMA));
        assert!(json.contains("\"sustained_eps\""));
        assert!(json.contains("\"p999\""));
        assert!(json.contains("\"fingerprint\""));
        assert!(json_shape_ok(&json), "malformed JSON:\n{json}");
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
}
