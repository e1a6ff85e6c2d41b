//! Open-loop assignment service under churn: `AssignChurnEngine` over
//! `churn-assign:size=1024` (1,024 servers, about 2k customers), repairing
//! sequentially (threads = 1, shards = 1).
//!
//! Events are due on a schedule fixed before the run: event `i` at
//! `start + i/100 s`, in the ratio customer join : customer leave : server
//! drain/restore = 2 : 2 : 1, and one load read (`server_loads`, then max)
//! half an interval later. Every latency is timed from its due time by this
//! module's own clock. The load generator spins until each due time, so no
//! wake-up delay of its own enters the latencies; what lateness remains
//! (host stalls) is reported as `bench.driver_lag_ms`.
//!
//! 100 events/s is a small fraction of the engine's capacity on a 2-vCPU
//! host (several hundred events/s), so latency reflects service time rather
//! than queues built up during host stalls.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use td_assign::{AssignChurnEngine, AssignmentInstance};
use td_bench::spec::{WorkloadInstance, WorkloadSpec};
use td_local::{ChurnEvent, ExecPerf, RepairMode, RepairStats};

use crate::stats::{self, ms, percentile};
use crate::trace::{SpanId, Tracer};
use crate::{jnum, jstr, Args, Report, PIN_SEED, SETUPS};

/// Offered event rate, per second.
const RATE: u32 = 100;
const SPEC: &str = "churn-assign:size=1024:join_w=2:leave_w=2:cap_w=1";
/// Stream length whose fingerprint `pins.json` records. The generator is
/// prefix-stable, so this pins every run length.
const PIN_EVENTS: u32 = 1000;
/// Events per block; a traced run alternates untraced and traced blocks.
const BLOCK: usize = 50;
/// Gap between the end of set-up and the first due time.
const LEAD_IN: Duration = Duration::from_millis(20);

struct Input {
    base: AssignmentInstance,
    events: Vec<ChurnEvent>,
}

fn spec(seed: u64, events: u32) -> WorkloadSpec {
    WorkloadSpec::parse(SPEC)
        .expect("benchmark spec is valid")
        .with_seed(seed)
        .with_param("events", events)
}

fn build(
    seed: u64,
    events: u32,
    tr: &mut Tracer,
    req: u64,
    parent: SpanId,
) -> Result<Input, String> {
    let spec = spec(seed, events);
    match tr.call("bench.spec_build", req, parent, || spec.build())? {
        WorkloadInstance::AssignChurn { base, trace } => Ok(Input {
            base,
            events: trace,
        }),
        _ => Err(format!("{spec} is not an assignment churn family")),
    }
}

/// Fingerprint of the base instance and the event stream.
fn input_fingerprint(input: &Input) -> u64 {
    let base = &input.base;
    let customers = (0..base.num_customers()).flat_map(|c| {
        let servers = base.servers_of(c);
        std::iter::once(servers.len() as u64).chain(servers.iter().map(|&s| u64::from(s)))
    });
    let events = input.events.iter().flat_map(|e| {
        e.encode()
            .into_bytes()
            .into_iter()
            .map(u64::from)
            .chain([u64::MAX])
    });
    stats::fingerprint(
        [base.num_servers() as u64, base.num_customers() as u64]
            .into_iter()
            .chain(customers)
            .chain(events),
    )
}

fn assignment_fingerprint(engine: &AssignChurnEngine) -> u64 {
    stats::fingerprint(
        engine
            .assignment_vector()
            .iter()
            .map(|a| a.map_or(u64::MAX, u64::from)),
    )
}

/// Span name of an event's `apply` call, by event kind.
fn apply_span(event: &ChurnEvent) -> &'static str {
    match event {
        ChurnEvent::CustomerJoin { .. } => "assign.apply.join",
        ChurnEvent::CustomerLeave(_) => "assign.apply.leave",
        ChurnEvent::ServerCapacity { capacity: 0, .. } => "assign.apply.drain",
        ChurnEvent::ServerCapacity { .. } => "assign.apply.restore",
        _ => "assign.apply.other",
    }
}

/// Busy-waits until `due`. Sleeping through the gaps lets the hypervisor
/// park the vCPU: on a 2-vCPU host that added millisecond wake-ups and
/// slowed the call after them (capacity 540–655 events/s against 770–890
/// when spinning), so the load generator never sleeps.
fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// What one pass over the event stream measured and produced.
#[derive(Default)]
struct Pass {
    /// Events applied, traced or not.
    applied: usize,
    /// Due time to `apply` returning, for untraced events.
    latency_ms: Vec<f64>,
    /// Due time to the answer, for untraced reads.
    read_ms: Vec<f64>,
    /// Due time to `apply` returning, for traced events.
    traced_ms: Vec<f64>,
    /// Traced events and reads attempted, including failed ones.
    traced_ops: (usize, usize),
    /// Minor page faults taken during traced `apply` calls.
    traced_faults: u64,
    /// How late the load generator started each operation that was ready.
    lag_ms: Vec<f64>,
    /// Time inside `apply` calls.
    busy: Duration,
    /// Events applied and time inside `apply` calls, per second of the
    /// schedule.
    seconds: stats::Seconds,
    /// Time inside `apply` and read calls.
    busy_all: Duration,
    wall: Duration,
    repair: RepairStats,
    perf: ExecPerf,
    assignment: u64,
    reads: u64,
}

/// Applies every event of `input` to `engine`, with a load read after each.
/// Paced, each operation waits for its due time; unpaced, it starts as soon
/// as the previous one returns. With `trace`, blocks of events alternate
/// between untraced and traced, so both see the same host and their
/// difference is the tracing overhead.
fn pass(
    input: &Input,
    engine: &mut AssignChurnEngine,
    paced: bool,
    trace: bool,
    tr: &mut Tracer,
    report: &mut Report,
) -> Pass {
    let mut p = Pass {
        repair: RepairStats::accumulator(),
        ..Pass::default()
    };
    let perf_before = engine.exec_perf();
    let gap = Duration::from_secs(1) / RATE;
    let start = Instant::now() + LEAD_IN;
    let mut prev_end = Instant::now();
    let mut answers = Vec::with_capacity(input.events.len());
    for (i, event) in input.events.iter().enumerate() {
        let req = i as u64;
        let traced = trace && (i / BLOCK) % 2 == 1;
        tr.set_on(traced);
        for is_read in [false, true] {
            let due = if paced {
                let due = start + gap * i as u32 + if is_read { gap / 2 } else { Duration::ZERO };
                wait_until(due);
                due
            } else {
                Instant::now()
            };
            let begin = Instant::now();
            p.lag_ms
                .push(ms(begin.saturating_duration_since(due.max(prev_end))));
            let (root, wait) = if is_read {
                p.traced_ops.1 += usize::from(traced);
                ("read", "bench.read_wait")
            } else {
                p.traced_ops.0 += usize::from(traced);
                ("event", "bench.queue_wait")
            };
            let root = tr.open(root, req, SpanId::ROOT, due);
            let wait = tr.open(wait, req, root, due);
            tr.close(wait, begin);
            report.attempted += 1;
            let count_faults = traced && !is_read;
            let faults = if count_faults {
                stats::minor_faults()
            } else {
                0
            };
            let out = catch_unwind(AssertUnwindSafe(|| {
                if is_read {
                    let max = tr.call("assign.read", req, root, || {
                        engine.server_loads().into_iter().max().unwrap_or(0)
                    });
                    Ok(Some(max))
                } else {
                    let stats = tr.call(apply_span(event), req, root, || engine.apply(event));
                    stats.map(|s| {
                        p.repair.absorb(s);
                        None
                    })
                }
            }));
            let end = Instant::now();
            tr.close(root, end);
            prev_end = end;
            if count_faults {
                p.traced_faults += stats::minor_faults() - faults;
            }
            match out {
                Ok(Ok(Some(max))) => {
                    p.busy_all += end - begin;
                    answers.push(u64::from(max));
                    if !traced {
                        p.read_ms.push(ms(end - due));
                    }
                }
                Ok(Ok(None)) => {
                    p.busy_all += end - begin;
                    p.busy += end - begin;
                    p.seconds.add(i / RATE as usize, end - begin);
                    p.applied += 1;
                    if traced {
                        p.traced_ms.push(ms(end - due));
                    } else {
                        p.latency_ms.push(ms(end - due));
                    }
                }
                Ok(Err(e)) => {
                    report.fail(format!("event {i} ({}): {e}", event.encode()));
                    return p;
                }
                Err(_) => {
                    let what = if is_read { "read" } else { "event" };
                    report.fail(format!("{what} {i} panicked"));
                    return p;
                }
            }
        }
    }
    tr.set_on(false);
    p.wall = prev_end.saturating_duration_since(start);
    p.perf = perf_delta(engine.exec_perf(), perf_before);
    p.assignment = assignment_fingerprint(engine);
    p.reads = stats::fingerprint(answers);
    let verified = engine.verify();
    report.check(
        verified.is_ok(),
        format!("final state not stable: {:?}", verified.err()),
    );
    p
}

fn perf_delta(after: ExecPerf, before: ExecPerf) -> ExecPerf {
    ExecPerf {
        node_rounds: after.node_rounds - before.node_rounds,
        halted_scans: after.halted_scans - before.halted_scans,
        sparse_skips: after.sparse_skips - before.sparse_skips,
        local_messages: after.local_messages - before.local_messages,
        boundary_messages: after.boundary_messages - before.boundary_messages,
        stamp_scans: after.stamp_scans - before.stamp_scans,
    }
}

/// What a set-up produced that every set-up must repeat: the input
/// fingerprint, the stabilize stats and the stabilized assignment.
type SetupOutcome = (u64, RepairStats, u64);

/// Set-ups `reps`: each builds the instance and event stream, constructs
/// the engine, stabilizes and verifies it, and must repeat the first
/// set-up's outcome. Returns the last input and engine.
fn set_ups(
    reps: Range<u32>,
    args: &Args,
    tr: &mut Tracer,
    setup_s: &mut Vec<f64>,
    first: &mut Option<SetupOutcome>,
    report: &mut Report,
) -> Option<(Input, AssignChurnEngine)> {
    tr.set_on(args.trace);
    let mut last = None;
    for rep in reps.map(u64::from) {
        let t0 = Instant::now();
        let root = tr.open("setup", rep, SpanId::ROOT, t0);
        let input = match build(args.seed, events(args), tr, rep, root) {
            Ok(input) => input,
            Err(e) => {
                report.check(false, format!("set-up {rep}: {e}"));
                return None;
            }
        };
        let (engine, stabilize) = tr.call("assign.setup", rep, root, || {
            let mut engine = AssignChurnEngine::new(&input.base, RepairMode::Incremental)
                .with_threads(1)
                .with_shards(1);
            let stats = engine.stabilize();
            (engine, stats)
        });
        let verified = tr.call("assign.verify", rep, root, || engine.verify());
        let t1 = Instant::now();
        tr.close(root, t1);
        setup_s.push((t1 - t0).as_secs_f64());
        report.check(
            verified.is_ok(),
            format!(
                "set-up {rep}: stabilized state not stable: {:?}",
                verified.err()
            ),
        );
        let outcome = (
            input_fingerprint(&input),
            stabilize,
            assignment_fingerprint(&engine),
        );
        match first {
            None => *first = Some(outcome),
            Some(f) => report.check(
                *f == outcome,
                format!("set-up {rep}: inputs, stabilize stats or assignment changed"),
            ),
        }
        last = Some((input, engine));
    }
    last
}

/// Events in a run: the offered rate times the run length.
fn events(args: &Args) -> u32 {
    RATE * args.run.as_secs() as u32
}

pub fn run(args: &Args, report: &mut Report) -> Option<Tracer> {
    let mut tr = Tracer::new(false);
    match build(PIN_SEED, PIN_EVENTS, &mut tr, 0, SpanId::ROOT) {
        Ok(pinned) => report.check_pin("serve-assign", input_fingerprint(&pinned)),
        Err(e) => report.check(false, format!("building the pinned inputs: {e}")),
    }

    // Half the set-ups run before the measured pass and half after it, so
    // set-up time is sampled at both ends of the run; the open-loop
    // schedule leaves no gap long enough for a set-up between events.
    let mut setup_s = Vec::new();
    let mut first = None;
    let (input, mut engine) = set_ups(
        0..SETUPS / 2,
        args,
        &mut tr,
        &mut setup_s,
        &mut first,
        report,
    )?;
    let (fp, _, _) = first.expect("a set-up ran");
    report.rec(
        "executor",
        jstr("AssignChurnEngine(RepairMode::Incremental).with_threads(1).with_shards(1)"),
    );
    report.rec("workers", "1");
    report.rec(
        "instance_spec",
        jstr(&spec(args.seed, events(args)).to_string()),
    );
    report.rec("servers", input.base.num_servers().to_string());
    report.rec("customers", input.base.num_customers().to_string());
    report.rec("events", events(args).to_string());
    report.rec("offered_rate_per_s", RATE.to_string());
    report.rec("input_fingerprint", stats::hex(fp));

    let p = pass(&input, &mut engine, true, args.trace, &mut tr, report);
    // The last set-up's engine repeats the stream unpaced: its repair work,
    // final assignment and read answers must equal the measured pass's.
    drop(engine);
    let (_, mut engine) = set_ups(
        SETUPS / 2..SETUPS,
        args,
        &mut tr,
        &mut setup_s,
        &mut first,
        report,
    )?;
    let again = pass(&input, &mut engine, false, false, &mut tr, report);
    report.check(
        (p.repair, p.assignment, p.reads) == (again.repair, again.assignment, again.reads),
        "repeating the event stream changed the repair totals, final assignment or read answers",
    );

    report.end_to_end(
        &setup_s,
        &p.latency_ms,
        &p.seconds.rates(args.run.as_secs() as usize),
        p.applied,
        p.busy,
    );
    // Reads of about 10 µs move with the host's speed phases like the p50
    // of events does (see `Report::end_to_end`), so their latency goes into
    // the record only; `assign.read_us` traces the read itself.
    report.rec("read_latency_ms", stats::tail_record(&p.read_ms));
    report.rec("generator_lag_ms", stats::tail_record(&p.lag_ms));
    report.rec(
        "generator_lag_max_ms",
        jnum(p.lag_ms.iter().copied().fold(0.0, f64::max)),
    );
    report.rec(
        "repair",
        format!(
            "{{\"rounds\":{},\"messages\":{},\"node_steps\":{}}}",
            p.repair.rounds, p.repair.messages, p.repair.node_steps
        ),
    );
    report.rec("final_assignment_fingerprint", stats::hex(p.assignment));
    report.rec("read_answers_fingerprint", stats::hex(p.reads));

    let r = p.repair;
    report.metric("assign.repair_rounds", f64::from(r.rounds));
    report.metric("assign.repair_messages", r.messages as f64);
    report.metric("assign.repair_node_steps", r.node_steps as f64);
    report.metric(
        "assign.ns_per_repair_step",
        p.busy.as_secs_f64() * 1e9 / r.node_steps.max(1) as f64,
    );
    report.metric(
        "assign.busy_fraction",
        p.busy_all.as_secs_f64() / p.wall.as_secs_f64(),
    );
    report.metric("bench.driver_lag_ms", percentile(&p.lag_ms, 0.9));
    report.local_counters(u64::from(r.rounds), r.messages, &p.perf);
    if !args.trace {
        return None;
    }

    report.span_metric("bench.spec_build_ms", &tr, "bench.spec_build", 0.5, 1.0);
    report.span_metric("assign.setup_ms", &tr, "assign.setup", 0.5, 1.0);
    report.span_metric("assign.verify_ms", &tr, "assign.verify", 0.5, 1.0);
    for (name, span) in [
        ("assign.apply_ms.join", "assign.apply.join"),
        ("assign.apply_ms.leave", "assign.apply.leave"),
        ("assign.apply_ms.drain", "assign.apply.drain"),
        ("assign.apply_ms.restore", "assign.apply.restore"),
    ] {
        report.span_metric(name, &tr, span, 0.5, 1.0);
    }
    report.span_metric("assign.read_us", &tr, "assign.read", 0.5, 1e3);
    report.span_metric("bench.queue_wait_ms.p50", &tr, "bench.queue_wait", 0.5, 1.0);
    report.span_metric("bench.queue_wait_ms.p90", &tr, "bench.queue_wait", 0.9, 1.0);
    report.metric(
        "bench.minor_faults_per_request",
        p.traced_faults as f64 / p.traced_ops.0.max(1) as f64,
    );
    report.metric(
        "bench.trace_overhead_pct",
        stats::overhead_pct(&p.latency_ms, &p.traced_ms),
    );
    report.rec("traced_latency_ms", stats::tail_record(&p.traced_ms));
    let (event_roots, coverage) = tr.coverage("event");
    let (read_roots, _) = tr.coverage("read");
    report.check(
        (event_roots, read_roots) == p.traced_ops,
        format!(
            "{event_roots} event and {read_roots} read spans for {:?} traced events and reads",
            p.traced_ops
        ),
    );
    report.rec(
        "spans",
        format!(
            "{{\"count\":{},\"event_roots\":{event_roots},\"read_roots\":{read_roots},\
             \"coverage\":{}}}",
            tr.spans.len(),
            jnum(coverage)
        ),
    );
    Some(tr)
}
