//! Closed-loop one-shot workloads: one solve plus its check at a time, on a
//! fixed set of seeded instances built during set-up.
//!
//! - `orient-regular`: distributed stable orientation (Thm 5.1) of random
//!   4-regular graphs on 512 nodes, checked by `Orientation::verify_stable`.
//!   The known-Δ phase schedule steps every node for all 2,910 rounds while
//!   few messages are sent, so idle stepping in the `local` round loop is
//!   nearly all the work.
//! - `token-layered`: the token dropping game (Thm 4.1) on layered games of
//!   width 8,192, checked by `td_core::verify_solution`. Hundreds of
//!   thousands of messages in a few dozen rounds with most node-slots
//!   halted: the `local` message plane, the halted-node scan, `core`
//!   verification and the instance build carry the work.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use td_bench::spec::{WorkloadInstance, WorkloadSpec};
use td_core::TokenGame;
use td_graph::CsrGraph;
use td_local::{ExecPerf, Simulator};

use crate::stats::{self, ms};
use crate::trace::{SpanId, Tracer};
use crate::{jnum, jstr, Args, Report, PIN_SEED, SETUPS};

/// Instances in the fixed set. The closed loop cycles through them, so each
/// is solved many times in a run and its counters can be compared.
const INSTANCES: u64 = 8;

#[derive(Clone, Copy)]
pub enum Kind {
    Orient,
    Token,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Orient => "orient-regular",
            Kind::Token => "token-layered",
        }
    }

    /// Spec of instance `k` of the set for `seed`.
    fn spec(self, seed: u64, k: u64) -> WorkloadSpec {
        let family = match self {
            Kind::Orient => "regular:size=512:d=4",
            Kind::Token => "layered:size=8192",
        };
        WorkloadSpec::parse(family)
            .expect("benchmark spec is valid")
            .with_seed(seed.wrapping_mul(INSTANCES).wrapping_add(k))
    }
}

enum Input {
    Graph(CsrGraph),
    Game(TokenGame),
}

impl Input {
    fn fingerprint(&self) -> u64 {
        match self {
            Input::Graph(g) => stats::fingerprint(stats::graph_words(g)),
            Input::Game(g) => stats::fingerprint(
                stats::graph_words(g.graph())
                    .chain(g.levels().iter().map(|&l| u64::from(l)))
                    .chain(g.tokens().iter().map(|&t| u64::from(t))),
            ),
        }
    }
}

/// What a solve returns that must repeat exactly for its instance.
#[derive(Clone, Copy)]
struct Counters {
    rounds: u32,
    messages: u64,
    perf: ExecPerf,
}

impl Counters {
    fn repeats(&self, other: &Counters) -> bool {
        (self.rounds, self.messages, self.perf.node_rounds)
            == (other.rounds, other.messages, other.perf.node_rounds)
    }
}

fn build(kind: Kind, seed: u64, tr: &mut Tracer, parent: SpanId) -> Result<Vec<Input>, String> {
    (0..INSTANCES)
        .map(|k| {
            let spec = kind.spec(seed, k);
            match tr.call("bench.spec_build", k, parent, || spec.build())? {
                WorkloadInstance::Orientation(g) => Ok(Input::Graph(g)),
                WorkloadInstance::Game(g) => Ok(Input::Game(g)),
                _ => Err(format!("{spec} is not a one-shot family")),
            }
        })
        .collect()
}

/// One request: a solve plus its check.
fn solve(
    input: &Input,
    sim: &Simulator,
    tr: &mut Tracer,
    req: u64,
    parent: SpanId,
) -> Result<Counters, String> {
    match input {
        Input::Graph(g) => {
            let r = tr.call("orient.solve", req, parent, || {
                td_orient::protocol::run_distributed(g, sim)
            });
            tr.call("orient.verify", req, parent, || {
                r.orientation.verify_stable(g)
            })
            .map_err(|e| format!("orientation not stable: {e}"))?;
            Ok(Counters {
                rounds: r.comm_rounds,
                messages: r.messages,
                perf: r.perf,
            })
        }
        Input::Game(game) => {
            let r = tr.call("core.solve", req, parent, || {
                td_core::proposal::run_on_simulator(game, sim)
            });
            tr.call("core.verify", req, parent, || {
                td_core::verify_solution(game, &r.solution)
            })
            .map_err(|e| format!("token dropping solution rejected: {e}"))?;
            Ok(Counters {
                rounds: r.comm_rounds,
                messages: r.messages,
                perf: r.perf,
            })
        }
    }
}

/// What the closed loop measured.
#[derive(Default)]
struct Pass {
    /// Checked solves completed, traced or not.
    solves: usize,
    /// Solve-plus-check latencies of untraced requests.
    latency_ms: Vec<f64>,
    /// Solve-plus-check latencies of traced requests.
    traced_ms: Vec<f64>,
    /// Traced requests attempted, including failed ones.
    traced_requests: usize,
    /// Node-rounds of the traced solves.
    traced_node_rounds: u64,
    /// Minor page faults taken during traced requests.
    traced_faults: u64,
    /// Time inside solve-plus-check calls.
    busy: Duration,
    /// Solves and time inside solve-plus-check calls, per second of the run.
    seconds: stats::Seconds,
    /// Duration of each set-up, in s.
    setup_s: Vec<f64>,
}

/// One set-up: builds the instance set from its specs.
fn set_up(
    kind: Kind,
    seed: u64,
    rep: u64,
    tr: &mut Tracer,
    setup_s: &mut Vec<f64>,
) -> Result<Vec<Input>, String> {
    let t0 = Instant::now();
    let root = tr.open("setup", rep, SpanId::ROOT, t0);
    let built = build(kind, seed, tr, root);
    let t1 = Instant::now();
    tr.close(root, t1);
    setup_s.push((t1 - t0).as_secs_f64());
    built
}

/// Request `req`: a checked solve of instance `k`, whose counters must
/// repeat those of the instance's first solve (`firsts`). Every failure is
/// counted in `report`. Returns the solve-plus-check time and node-rounds,
/// or `None` if the solve failed.
fn request(
    inputs: &[Input],
    k: usize,
    req: u64,
    sim: &Simulator,
    tr: &mut Tracer,
    firsts: &mut [Option<Counters>],
    report: &mut Report,
) -> Option<(Duration, u64)> {
    report.attempted += 1;
    let t0 = Instant::now();
    let root = tr.open("request", req, SpanId::ROOT, t0);
    let out = catch_unwind(AssertUnwindSafe(|| solve(&inputs[k], sim, tr, req, root)));
    let t1 = Instant::now();
    tr.close(root, t1);
    let counters = match out {
        Ok(Ok(x)) => x,
        Ok(Err(e)) => {
            report.fail(format!("request {req} (instance {k}): {e}"));
            return None;
        }
        Err(_) => {
            report.fail(format!("request {req} (instance {k}) panicked"));
            return None;
        }
    };
    match firsts[k] {
        None => firsts[k] = Some(counters),
        Some(first) if !first.repeats(&counters) => report.fail(format!(
            "request {req}: instance {k} counters changed: rounds {} -> {}, \
             messages {} -> {}, node_rounds {} -> {}",
            first.rounds,
            counters.rounds,
            first.messages,
            counters.messages,
            first.perf.node_rounds,
            counters.perf.node_rounds
        )),
        Some(_) => {}
    }

    Some((t1 - t0, counters.perf.node_rounds))
}

/// Runs checked solves back to back, cycling through `inputs`, until `run`
/// has passed, after an untimed warm-up request per instance. With `trace`,
/// blocks of requests, one per instance, alternate between untraced and
/// traced, so both see the same host and their difference is the tracing
/// overhead. Set-up `k` of [`SETUPS`] (the first was made before the loop)
/// replaces `inputs` at the first block boundary after `k/SETUPS` of the
/// run, so set-up time is sampled under the same host conditions as the
/// requests, and even a short run gets to its first traced block; each
/// set-up must rebuild the same inputs.
fn pass(
    kind: Kind,
    args: &Args,
    inputs: &mut Vec<Input>,
    setup_s: Vec<f64>,
    tr: &mut Tracer,
    firsts: &mut [Option<Counters>],
    report: &mut Report,
) -> Pass {
    let (run, trace) = (args.run, args.trace);
    let mut p = Pass {
        setup_s,
        ..Pass::default()
    };
    let sim = Simulator::sequential();
    let inputs_fp = set_fingerprint(inputs);
    tr.set_on(false);
    for k in 0..INSTANCES {
        request(inputs, k as usize, k, &sim, tr, firsts, report);
    }
    let start = Instant::now();
    let mut req = INSTANCES;
    let mut rep = 1;
    while start.elapsed() < run {
        if rep < SETUPS && req.is_multiple_of(INSTANCES) && start.elapsed() >= run * rep / SETUPS {
            tr.set_on(trace);
            report.attempted += 1;
            drop(std::mem::take(inputs));
            match set_up(kind, args.seed, u64::from(rep), tr, &mut p.setup_s) {
                Ok(again) if set_fingerprint(&again) == inputs_fp => *inputs = again,
                Ok(_) => {
                    report.fail(format!("set-up {rep} built different inputs"));
                    break;
                }
                Err(e) => {
                    report.fail(format!("set-up {rep}: {e}"));
                    break;
                }
            }
            rep += 1;
        }
        let k = (req % INSTANCES) as usize;
        let traced = trace && (req / INSTANCES) % 2 == 1;
        tr.set_on(traced);
        p.traced_requests += usize::from(traced);
        let faults = if traced { stats::minor_faults() } else { 0 };
        let done = request(inputs, k, req, &sim, tr, firsts, report);
        if traced {
            p.traced_faults += stats::minor_faults() - faults;
        }
        req += 1;
        let Some((took, node_rounds)) = done else {
            continue;
        };
        p.solves += 1;
        p.busy += took;
        p.seconds.add(start.elapsed().as_secs() as usize, took);
        if traced {
            p.traced_ms.push(ms(took));
            p.traced_node_rounds += node_rounds;
        } else {
            p.latency_ms.push(ms(took));
        }
    }
    tr.set_on(false);
    p
}

pub fn run(kind: Kind, args: &Args, report: &mut Report) -> Option<Tracer> {
    let mut tr = Tracer::new(false);
    match build(kind, PIN_SEED, &mut tr, SpanId::ROOT) {
        Ok(pinned) => report.check_pin(kind.name(), set_fingerprint(&pinned)),
        Err(e) => report.check(false, format!("building the pinned inputs: {e}")),
    }

    tr.set_on(args.trace);
    let mut setup_s = Vec::new();
    let mut inputs = match set_up(kind, args.seed, 0, &mut tr, &mut setup_s) {
        Ok(inputs) => inputs,
        Err(e) => {
            report.check(false, format!("set-up: {e}"));
            return None;
        }
    };
    report.rec("executor", jstr("Simulator::sequential()"));
    report.rec("workers", "1");
    report.rec("instance_spec", jstr(&kind.spec(args.seed, 0).to_string()));
    report.rec("input_fingerprint", stats::hex(set_fingerprint(&inputs)));
    let instance_fps: Vec<u64> = inputs.iter().map(Input::fingerprint).collect();

    let mut firsts = vec![None; INSTANCES as usize];
    let p = pass(
        kind,
        args,
        &mut inputs,
        setup_s,
        &mut tr,
        &mut firsts,
        report,
    );
    report.end_to_end(
        &p.setup_s,
        &p.latency_ms,
        &p.seconds.rates(args.run.as_secs() as usize),
        p.solves,
        p.busy,
    );

    // Exact work counters: one solve of each instance in the set.
    let mut total = Counters {
        rounds: 0,
        messages: 0,
        perf: ExecPerf::default(),
    };
    let mut per_instance = Vec::new();
    for (k, c) in firsts.iter().enumerate() {
        let Some(c) = c else { continue };
        total.rounds += c.rounds;
        total.messages += c.messages;
        total.perf.absorb(c.perf);
        per_instance.push(format!(
            "{{\"instance\":{k},\"input_fingerprint\":{},\"rounds\":{},\"messages\":{},\
             \"node_rounds\":{},\"stamp_scans\":{},\"halted_scans\":{},\"sparse_skips\":{}}}",
            stats::hex(instance_fps[k]),
            c.rounds,
            c.messages,
            c.perf.node_rounds,
            c.perf.stamp_scans,
            c.perf.halted_scans,
            c.perf.sparse_skips
        ));
    }
    report.rec("instances", format!("[{}]", per_instance.join(",")));
    report.local_counters(u64::from(total.rounds), total.messages, &total.perf);

    if !args.trace {
        return None;
    }
    report.span_metric("bench.spec_build_ms", &tr, "bench.spec_build", 0.5, 1.0);
    let layer = match kind {
        Kind::Orient => "orient",
        Kind::Token => "core",
    };
    let solve = format!("{layer}.solve");
    let (solve_ms, verify_ms) = match kind {
        Kind::Orient => ("orient.solve_ms", "orient.verify_ms"),
        Kind::Token => ("core.solve_ms", "core.verify_ms"),
    };
    report.span_metric(solve_ms, &tr, &solve, 0.5, 1.0);
    report.span_metric(verify_ms, &tr, &format!("{layer}.verify"), 0.5, 1.0);
    report.metric(
        "local.ns_per_node_round",
        tr.total_ns(&solve) / p.traced_node_rounds.max(1) as f64,
    );
    report.metric(
        "bench.minor_faults_per_request",
        p.traced_faults as f64 / p.traced_requests.max(1) as f64,
    );
    report.metric(
        "bench.trace_overhead_pct",
        stats::overhead_pct(&p.latency_ms, &p.traced_ms),
    );
    report.rec("traced_latency_ms", stats::tail_record(&p.traced_ms));
    let (roots, coverage) = tr.coverage("request");
    report.check(
        roots == p.traced_requests,
        format!(
            "{roots} request spans for {} traced requests",
            p.traced_requests
        ),
    );
    report.rec(
        "spans",
        format!(
            "{{\"count\":{},\"request_roots\":{roots},\"coverage\":{}}}",
            tr.spans.len(),
            jnum(coverage)
        ),
    );
    Some(tr)
}

fn set_fingerprint(inputs: &[Input]) -> u64 {
    stats::fingerprint(inputs.iter().map(Input::fingerprint))
}
