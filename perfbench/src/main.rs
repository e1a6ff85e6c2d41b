//! End-to-end benchmark of the token-dropping workspace.
//!
//! One workload per process, timed from outside the program: every timed
//! call goes through a public function of `td-bench`, `td-orient`,
//! `td-core`, `td-assign` or `td-local`, and no program code is changed.
//!
//! ```text
//! perfbench --workload <orient-regular|token-layered|serve-assign>
//!           --seed <n> --seconds <n> --trace <0|1> [--out <dir>]
//! ```
//!
//! Prints one JSON object on stdout with `correct`, `attempted`, `failed`,
//! `metrics` (every metric the run measured, by its `BENCHMARK.json` name)
//! and `record` (host, configuration, input fingerprints, exact counters,
//! tail percentiles). `run.py` builds this binary, keeps the metrics
//! `BENCHMARK.json` declares and prints the final result line.
//!
//! With `--trace 1` the measured requests alternate in blocks between
//! untraced and traced; every traced request has a span around each call
//! into a layer. The per-layer metrics come from the traced blocks, and the
//! latency difference between the two kinds of block, which ran side by side
//! on the same host, is the tracing overhead. Spans are written to `--out`
//! at the end.

mod oneshot;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Seed whose input fingerprints `pins.json` records.
pub const PIN_SEED: u64 = 1;
/// Set-up repetitions per run; `setup_s` is their median. A single set-up
/// takes milliseconds, so one made only at process start reads whatever
/// speed the host has at that moment; the workloads spread them over the
/// run instead.
pub const SETUPS: u32 = 16;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub run: Duration,
    pub trace: bool,
    pub out: PathBuf,
}

/// What one workload run produces.
#[derive(Default)]
pub struct Report {
    /// Requests plus run-level checks attempted.
    pub attempted: u64,
    /// Of those, the ones that failed (panic, `Err`, failed check, or a
    /// counter that did not repeat).
    pub failed: u64,
    /// Every metric measured, by its `BENCHMARK.json` name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Configuration, fingerprints and exact counters, as rendered JSON.
    pub record: Vec<(String, String)>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn rec(&mut self, key: &str, json: impl Into<String>) {
        self.record.push((key.to_string(), json.into()));
    }

    pub fn fail(&mut self, what: impl AsRef<str>) {
        self.failed += 1;
        eprintln!("perfbench: FAILED: {}", what.as_ref());
    }

    /// Counts one run-level check (not tied to a single request).
    pub fn check(&mut self, ok: bool, what: impl AsRef<str>) {
        self.attempted += 1;
        if !ok {
            self.fail(what);
        }
    }

    /// Records the end-to-end metrics: the median set-up time, request
    /// latency p90, and capacity, the requests completed per second of time
    /// inside request calls that the run sustained in all but its slowest
    /// tenth of seconds (`rates` holds one rate per second of the timed
    /// phase). In a one-client closed loop capacity is the throughput; in the
    /// open loop, the highest offered rate the program sustains.
    ///
    /// The host's speed changes by up to 2x in phases of seconds, and a run
    /// holds a different mix of fast and slow phases each time. Figures
    /// that rank a run's requests high (p90) or its seconds low (capacity)
    /// land in the slow phases, which every run has, and repeat from run to
    /// run. Latency p50 and the mean rate land wherever the mix puts them,
    /// so they go only into the record.
    pub fn end_to_end(
        &mut self,
        setup_s: &[f64],
        latency_ms: &[f64],
        rates: &[f64],
        completed: usize,
        busy: Duration,
    ) {
        use stats::percentile;
        self.metric("setup_s", percentile(setup_s, 0.5));
        self.metric("latency_ms.p90", percentile(latency_ms, 0.9));
        self.metric("capacity_per_s", percentile(rates, 0.1));
        self.rec("setup_s_samples", stats::jlist(setup_s));
        self.rec("latency_ms", stats::tail_record(latency_ms));
        self.rec(
            "mean_rate_per_s",
            jnum(completed as f64 / busy.as_secs_f64()),
        );
        self.rec("rate_per_s_by_second", stats::jlist(rates));
    }

    /// Records percentile `q` of the durations of the spans named `span`,
    /// times `scale` (1 for ms); a run that recorded none of them fails, so
    /// a renamed or skipped span cannot read as a fast layer.
    pub fn span_metric(
        &mut self,
        name: &'static str,
        tr: &trace::Tracer,
        span: &str,
        q: f64,
        scale: f64,
    ) {
        let durations = tr.durations_ms(span);
        self.check(!durations.is_empty(), format!("no {span} spans for {name}"));
        self.metric(name, stats::percentile(&durations, q) * scale);
    }

    /// Records the `local` layer's exact work counters.
    pub fn local_counters(&mut self, rounds: u64, messages: u64, perf: &td_local::ExecPerf) {
        self.metric("local.rounds", rounds as f64);
        self.metric("local.messages", messages as f64);
        self.metric("local.node_rounds", perf.node_rounds as f64);
        self.metric("local.stamp_scans", perf.stamp_scans as f64);
        self.metric("local.halted_scans", perf.halted_scans as f64);
        self.metric("local.sparse_skips", perf.sparse_skips as f64);
        self.metric(
            "local.messages_per_node_round",
            messages as f64 / perf.node_rounds.max(1) as f64,
        );
    }

    /// Checks an input fingerprint of [`PIN_SEED`] against `pins.json`, so
    /// a changed generator fails loudly instead of changing the workload.
    pub fn check_pin(&mut self, workload: &str, fingerprint: u64) {
        let pins = td_bench::json::parse(include_str!("../pins.json")).expect("pins.json parses");
        let pinned = pins.get(workload).and_then(|v| v.as_str()).unwrap_or("");
        let fingerprint = format!("{fingerprint:016x}");
        self.rec("input_pin", jstr(&fingerprint));
        self.check(
            pinned == fingerprint,
            format!(
                "input pin for {workload} at seed {PIN_SEED}: generated {fingerprint}, \
                 pins.json has {pinned:?}"
            ),
        );
    }
}

/// A JSON string literal.
pub fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (which JSON cannot hold) become `null`.
pub fn jnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from("perfbench/out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=60).contains(s))
                        .ok_or_else(|| bad("1..=60"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        run: Duration::from_secs(seconds.ok_or("--seconds is required")?),
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

/// First `model name` of `/proc/cpuinfo`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    report.rec("workload", jstr(&args.workload));
    report.rec("seed", args.seed.to_string());
    report.rec("run_seconds", args.run.as_secs().to_string());
    report.rec("trace", args.trace.to_string());
    report.rec(
        "available_parallelism",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(0)
            .to_string(),
    );
    report.rec("cpu_model", jstr(&cpu_model()));

    let spans = match args.workload.as_str() {
        "orient-regular" => oneshot::run(oneshot::Kind::Orient, &args, &mut report),
        "token-layered" => oneshot::run(oneshot::Kind::Token, &args, &mut report),
        "serve-assign" => serve::run(&args, &mut report),
        other => {
            eprintln!(
                "perfbench: unknown workload {other:?} \
                 (known: orient-regular, token-layered, serve-assign)"
            );
            return ExitCode::from(2);
        }
    };
    report.metric("peak_rss_mb", stats::peak_rss_mb());
    report.rec(
        "process_threads",
        stats::proc_status("Threads").map_or("null".to_string(), |t| t.to_string()),
    );

    if let Some(tracer) = spans {
        let path = args
            .out
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match tracer.write(&path) {
            Ok(()) => report.rec("spans_file", jstr(&path.display().to_string())),
            Err(e) => report.fail(format!("writing {}: {e}", path.display())),
        }
    }

    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(k, v)| format!("{}:{}", jstr(k), jnum(*v)))
        .collect();
    let record: Vec<String> = report
        .record
        .iter()
        .map(|(k, v)| format!("{}:{v}", jstr(k)))
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}},\"record\":{{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(","),
        record.join(",")
    );
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
