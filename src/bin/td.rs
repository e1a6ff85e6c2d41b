//! `td` — command-line front end for the token-dropping toolkit.
//!
//! Run `td --help` for the full usage text (mirrored in the README).
//! `<file>` may be `-` for stdin. Graph files are edge lists
//! (`td_graph::io`); game files use `td_core::game_io`.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::io::{BufReader, Read};
use token_dropping::assign::semi_matching::optimal_semi_matching;
use token_dropping::assign::AssignmentInstance;
use token_dropping::core::{game_io, lockstep, TokenGame};
use token_dropping::graph::{algo, io as gio, CsrGraph};
use token_dropping::local::Simulator;
use token_dropping::orient::phases::{solve_stable_orientation, PhaseConfig};
use token_dropping::orient::protocol::{round_cap, run_distributed};
use token_dropping::prelude::*;

const USAGE: &str =
    "usage: td <gen|info|orient|game|assign|bench|churn|fuzz|perf|serve|trace|compare|exp> ... \
     (td --help for details)";

const HELP: &str = "\
td — distributed token dropping, stable orientations, and semi-matchings
    (Brandt, Keller, Rybicki, Suomela, Uitto — SPAA 2021)

USAGE:
  td gen gnm <n> <m> [seed]            random G(n,m) edge list -> stdout
  td gen regular <n> <d> [seed]        random d-regular graph
  td gen tree <d> <depth>              perfect d-ary tree
  td gen comb <k>                      contention-comb token game (.tdg)
  td gen game <w1,w2,..> <deg> [seed]  random layered token game (.tdg)
  td info <file>                       graph statistics
  td orient <file> [--distributed]     stable orientation + verification
  td game <file>                       solve a token game + verification
  td assign <file> --customers <nc> [--bounded <k>] [--optimal]
                                       stable / k-bounded / optimal assignment
  td bench                             list the registered scenarios
  td bench <scenario> [--size N] [--seed S]
                                       run one scenario and report its cost
  td churn                             list the churn (dynamic) scenarios
  td churn <scenario> [--events N] [--size N] [--seed S] [--full]
           [--compare]                 stream a churn trace through the
                                       incremental repair engine; --full uses
                                       the full-recompute fallback, --compare
                                       also measures from-scratch recompute
  td fuzz                              list the workload generator families
  td fuzz --budget N [--seed S]        run N seeded specs through the
                                       differential fuzz plane (all protocol
                                       stacks x both executors, verifier +
                                       metamorphic checks); failing specs are
                                       printed as repro lines and written to
                                       fuzz-failures.spec
  td fuzz --spec <spec>                replay one spec, e.g.
                                       'small-world:size=32:seed=7'
  td perf                              run the perf telemetry sweep
                                       (scenario x executor x size) and
                                       write the versioned BENCH_10.json
  td perf --list                       list the perf scenarios
  td perf [--scenario <name> [--sizes N,N,..]] [--seed S] [--out FILE]
          [--quick] [--repeat N]
                                       restrict / reshape the sweep
                                       (--sizes needs --scenario: size
                                       units differ per scenario); --quick
                                       runs the smallest size of each
                                       ladder (the CI smoke); --repeat N
                                       takes min-of-N wall timing per point
                                       (default 3, 1 under --quick); a
                                       restricted sweep writes a file only
                                       with --out
  td serve                             list the servable churn families
  td serve <family> [--size N] [--seed S] [--rate R] [--budget B]
           [--queue Q] [--out FILE]
                                       long-running daemon: stream a seeded
                                       open-loop event mix through a live
                                       repair engine, then report events/sec
                                       sustained, the saturation rate (where
                                       the repair plane falls behind), and
                                       p50/p99/p999 repair latency; --rate 0
                                       (the default) emits unpaced, --out
                                       writes the td-serve/v1 JSON report
  td trace                             list the recorded workload shapes
  td trace record --spec <spec> [--out FILE]
  td trace record --shape <name> [--size N] [--seed S] [--events N] [--out FILE]
                                       record a churn event stream into a
                                       portable td-trace/v1 file: either a
                                       spec's own seeded mix, or a registered
                                       shape (diurnal, rack-burst, drain-wave,
                                       flash-crowd, hotspot)
  td trace info <file>                 header, event mix, and fingerprint
  td trace replay <file> [--consumer engine|differential|serve|all]
           [--full] [--rate R]
                                       replay a trace through the repair
                                       engines, the fuzz differential, or a
                                       live serve session;
                                       every consumer reports the same
                                       solution fingerprint
  td trace convert <file> --seed S [--out FILE]
                                       re-derive the same recording under a
                                       new seed
  td compare [--families f1,f2,..] [--protocols p1,p2,..] [--size N]
             [--seed S] [--events N] [--trace FILE]... [--out FILE]
                                       race the competing balancers (token
                                       dropping vs rotor-router vs matching
                                       exchange) over the generator families
                                       and/or recorded traces: convergence
                                       rounds, messages, tokens moved, and
                                       final discrepancy per protocol, each
                                       run checked by its verifier; --out
                                       writes the td-compare/v1 JSON report
  td exp                               list the registered experiments
                                       (same as td exp --list)
  td exp run [id..] [--quick] [--force] [--results DIR] [--seed S]
             [--repeat N]
                                       run experiments through the results
                                       cache: configurations whose
                                       results/<exp>/<key>.json already
                                       exists are skipped untouched,
                                       --force re-executes, and
                                       results/manifest.json records the
                                       hit/miss split; no ids = all,
                                       --quick is the kick-tires tier
                                       (small sizes, repeat 1)
  td exp render [id..] [--quick] [--results DIR] [--plots DIR]
                [--bench FILE] [--experiments-md FILE] [--seed S]
                [--repeat N]
                                       regenerate the derived artifacts
                                       from a warm cache: deterministic
                                       SVG plots under --plots (default
                                       plots/), generated markdown tables
                                       spliced between the
                                       <!-- exp:<id>:begin/end --> markers
                                       of --experiments-md, and (with the
                                       perf experiment) the td-perf/v1
                                       benchmark file at --bench; pass the
                                       exact flags the cache was run with
  td exp check-bench <rendered> <committed>
                                       exit 1 unless every row of a
                                       rendered td-perf/v1 file matches the
                                       committed row of the same scenario,
                                       executor and size on the
                                       deterministic counters (rounds,
                                       messages, node_rounds, node_steps,
                                       halted_scans, sparse_skips,
                                       stamp_scans), and every committed
                                       (scenario, executor) pair has a
                                       rendered row at some size
  td --help | -h                       this text

FILES:
  <file> may be '-' for stdin. Graphs are whitespace edge lists with an
  'n m' header; token games use the .tdg format of td_core::game_io.

EXAMPLES:
  td gen gnm 30 75 7 | td orient -
  td gen comb 5 | td game -
  td bench server-farm --size 24 --seed 3
  td churn rolling-restart --events 20 --compare
  td fuzz --budget 64 --seed 7
  td serve churn-orient --size 48 --rate 2000 --budget 256
  td trace record --shape rack-burst | td trace replay - --consumer all
  td compare --families grid,torus,rotor --size 16
  td exp run e17 e21 --quick && td exp render e17 e21 --quick
";

/// Restore the default SIGPIPE disposition. Rust ignores SIGPIPE at
/// startup, turning `td gen ... | head` into a broken-pipe panic; a
/// pipeline-first CLI should die quietly like every other Unix filter.
#[cfg(unix)]
fn reset_sigpipe() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGPIPE: i32 = 13;
    const SIG_DFL: usize = 0;
    unsafe {
        signal(SIGPIPE, SIG_DFL);
    }
}

#[cfg(not(unix))]
fn reset_sigpipe() {}

fn main() {
    reset_sigpipe();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = run(&args);
    std::process::exit(code);
}

fn run(args: &[String]) -> i32 {
    match args.first().map(String::as_str) {
        Some("--help") | Some("-h") | Some("help") => {
            print!("{HELP}");
            0
        }
        Some("gen") => cmd_gen(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("orient") => cmd_orient(&args[1..]),
        Some("game") => cmd_game(&args[1..]),
        Some("assign") => cmd_assign(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("churn") => cmd_churn(&args[1..]),
        Some("fuzz") => cmd_fuzz(&args[1..]),
        Some("perf") => cmd_perf(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("exp") => cmd_exp(&args[1..]),
        Some(other) => {
            eprintln!("td: unknown subcommand '{other}'");
            eprintln!("{USAGE}");
            2
        }
        None => {
            eprintln!("{USAGE}");
            2
        }
    }
}

/// The numeric/boolean flags shared by the scenario-running subcommands
/// (`td bench`, `td churn`). One parser, so flag semantics cannot drift
/// between the two.
struct RunFlags {
    size: u32,
    events: u32,
    seed: u64,
    full: bool,
    compare: bool,
}

impl RunFlags {
    fn new(default_size: u32, default_events: u32) -> Self {
        RunFlags {
            size: default_size,
            events: default_events,
            seed: 42,
            full: false,
            compare: false,
        }
    }

    /// Parses `args`, accepting `--size/--seed` always and the flags
    /// listed in `extra` additionally. Returns `Err(2)` (the exit
    /// code) after printing a message on any malformed or unknown flag.
    fn parse(&mut self, cmd: &str, args: &[String], extra: &[&str]) -> Result<(), i32> {
        let mut i = 0;
        while i < args.len() {
            let flag = args[i].as_str();
            let known_extra = extra.contains(&flag);
            match flag {
                "--full" if known_extra => {
                    self.full = true;
                    i += 1;
                }
                "--compare" if known_extra => {
                    self.compare = true;
                    i += 1;
                }
                "--size" | "--seed" | "--events" if flag != "--events" || known_extra => {
                    let Some(raw) = args.get(i + 1) else {
                        eprintln!("{cmd}: {flag} needs an integer");
                        return Err(2);
                    };
                    match flag {
                        "--size" => match raw.parse() {
                            Ok(v) => self.size = v,
                            Err(_) => {
                                eprintln!("{cmd}: --size needs an integer");
                                return Err(2);
                            }
                        },
                        "--events" => match raw.parse() {
                            Ok(v) => self.events = v,
                            Err(_) => {
                                eprintln!("{cmd}: --events needs an integer");
                                return Err(2);
                            }
                        },
                        _ => match raw.parse() {
                            Ok(v) => self.seed = v,
                            Err(_) => {
                                eprintln!("{cmd}: --seed needs an integer");
                                return Err(2);
                            }
                        },
                    }
                    i += 2;
                }
                other => {
                    eprintln!("{cmd}: unknown flag '{other}'");
                    return Err(2);
                }
            }
        }
        Ok(())
    }
}

fn cmd_bench(args: &[String]) -> i32 {
    use td_bench::scenario;
    let Some(name) = args.first().map(String::as_str) else {
        println!("registered scenarios:\n");
        print!("{}", scenario::listing());
        println!("\nrun one with: td bench <name> [--size N] [--seed S]");
        return 0;
    };
    let Some(sc) = scenario::find(name) else {
        eprintln!("td bench: unknown scenario '{name}'; registered:\n");
        eprint!("{}", scenario::listing());
        return 2;
    };
    let mut flags = RunFlags::new(sc.default_size(), 0);
    if let Err(code) = flags.parse("td bench", &args[1..], &[]) {
        return code;
    }
    if flags.size < sc.min_size() {
        eprintln!(
            "td bench: {name}: size {} out of range [{}, {}]",
            flags.size,
            sc.min_size(),
            u32::MAX
        );
        return 2;
    }
    let rep = sc.run(flags.size, flags.seed, &Simulator::sequential());
    println!("scenario:   {} ({})", rep.scenario, sc.kind().label());
    println!(
        "instance:   n = {}, m = {}, size = {}, seed = {}",
        rep.nodes, rep.edges, rep.size, rep.seed
    );
    println!("rounds:     {}", rep.rounds);
    println!("messages:   {}", rep.messages);
    println!("wall time:  {:.3} ms", rep.wall.as_secs_f64() * 1e3);
    for (k, v) in &rep.notes {
        println!("  {k}: {v}");
    }
    println!("verified:   ok");
    0
}

fn cmd_churn(args: &[String]) -> i32 {
    use td_bench::churn;
    use token_dropping::local::churn::RepairMode;
    let Some(name) = args.first().map(String::as_str) else {
        println!("registered churn scenarios:\n");
        print!("{}", churn::churn_listing());
        println!("\nrun one with: td churn <name> [--events N] [--size N] [--seed S]");
        return 0;
    };
    let Some(sc) = churn::find_churn(name) else {
        eprintln!("td churn: unknown scenario '{name}'; registered:\n");
        eprint!("{}", churn::churn_listing());
        return 2;
    };
    let mut flags = RunFlags::new(sc.default_size(), sc.default_events());
    if let Err(code) = flags.parse("td churn", &args[1..], &["--events", "--full", "--compare"]) {
        return code;
    }
    let mode = if flags.full {
        RepairMode::FullRecompute
    } else {
        RepairMode::Incremental
    };
    let rep = sc.run(flags.size, flags.events, flags.seed, mode, flags.compare);
    println!(
        "scenario:   {} ({}, churn)",
        rep.scenario,
        sc.kind().label()
    );
    println!(
        "instance:   n = {}, m = {}, size = {}, seed = {}",
        rep.nodes, rep.edges, rep.size, rep.seed
    );
    println!(
        "events:     {} applied, every repair verified stable",
        rep.events
    );
    let per = |x: u64| {
        if rep.events == 0 {
            "-".to_string()
        } else {
            format!("{:.1}", x as f64 / rep.events as f64)
        }
    };
    println!(
        "repair:     {} rounds, {} messages, {} node-steps",
        rep.repair.rounds, rep.repair.messages, rep.repair.node_steps
    );
    println!(
        "per event:  {} rounds, {} messages, {} node-steps",
        per(rep.repair.rounds as u64),
        per(rep.repair.messages),
        per(rep.repair.node_steps)
    );
    if let Some(rec) = &rep.recompute {
        println!(
            "recompute:  {} rounds, {} messages, {} node-steps (from scratch per event)",
            rec.rounds, rec.messages, rec.node_steps
        );
        if rep.repair.node_steps > 0 {
            println!(
                "advantage:  {:.1}x fewer node-steps than recompute",
                rec.node_steps as f64 / rep.repair.node_steps as f64
            );
        }
    }
    println!("wall time:  {:.3} ms", rep.wall.as_secs_f64() * 1e3);
    for (k, v) in &rep.notes {
        println!("  {k}: {v}");
    }
    println!("verified:   ok");
    0
}

fn cmd_fuzz(args: &[String]) -> i32 {
    use td_bench::fuzz;
    use td_bench::spec::{self, WorkloadSpec};
    // `td fuzz` with no arguments lists the generator families.
    if args.is_empty() {
        println!("workload generator families:\n");
        print!("{}", spec::family_listing());
        println!(
            "\nrun a bounded fuzz with: td fuzz --budget N [--seed S]\n\
             replay one spec with:    td fuzz --spec '<family>:size=N:seed=S[:param=v]*'"
        );
        return 0;
    }
    let mut budget: usize = 32;
    let mut seed: u64 = 42;
    let mut corpus_flags = false;
    let mut one_spec: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--budget" => match args.get(i + 1).and_then(|r| r.parse().ok()) {
                Some(v) if v >= 1 => {
                    budget = v;
                    corpus_flags = true;
                    i += 2;
                }
                _ => {
                    eprintln!("td fuzz: --budget needs an integer >= 1");
                    return 2;
                }
            },
            "--seed" => match args.get(i + 1).and_then(|r| r.parse().ok()) {
                Some(v) => {
                    seed = v;
                    corpus_flags = true;
                    i += 2;
                }
                None => {
                    eprintln!("td fuzz: --seed needs an integer");
                    return 2;
                }
            },
            "--spec" => match args.get(i + 1) {
                Some(s) => {
                    one_spec = Some(s.clone());
                    i += 2;
                }
                None => {
                    eprintln!("td fuzz: --spec needs a spec string");
                    return 2;
                }
            },
            other => {
                eprintln!("td fuzz: unknown flag '{other}'");
                return 2;
            }
        }
    }
    // A spec string is already fully seeded and sized; silently ignoring
    // the corpus flags next to it would fake coverage, so reject the mix.
    if one_spec.is_some() && corpus_flags {
        eprintln!(
            "td fuzz: --spec replays one exact spec; --budget/--seed do not \
             apply (put seed=… inside the spec string)"
        );
        return 2;
    }
    let specs: Vec<WorkloadSpec> = match one_spec {
        Some(s) => match WorkloadSpec::parse(&s) {
            Ok(spec) => vec![spec],
            Err(e) => {
                eprintln!("td fuzz: bad spec '{s}': {e}");
                eprintln!("families:\n{}", spec::family_listing());
                return 2;
            }
        },
        None => fuzz::corpus(budget, seed),
    };
    let t0 = std::time::Instant::now();
    let mut failures: Vec<(WorkloadSpec, String)> = Vec::new();
    let mut passed = 0usize;
    for spec in &specs {
        match fuzz::check(spec) {
            Ok(rep) => {
                passed += 1;
                println!(
                    "ok   {spec}  (n = {}, m = {}, rounds = {}, messages = {}, {} executor/mode points)",
                    rep.nodes, rep.edges, rep.rounds, rep.messages, rep.compared
                );
            }
            Err(e) => {
                println!("FAIL {spec}: {e}");
                failures.push((spec.clone(), e));
            }
        }
    }
    println!(
        "\n{passed}/{} specs clean in {:.2} s",
        specs.len(),
        t0.elapsed().as_secs_f64()
    );
    if failures.is_empty() {
        return 0;
    }
    eprintln!("\n{} failing spec(s); repro lines:", failures.len());
    let mut file = String::new();
    for (spec, e) in &failures {
        eprintln!("  {}   # {e}", fuzz::repro_line(spec));
        file.push_str(&format!("{spec}\n"));
    }
    // One spec per line, replayable with `td fuzz --spec` (and by the
    // regression-corpus test once checked in under tests/corpus/).
    if let Err(e) = std::fs::write("fuzz-failures.spec", file) {
        eprintln!("td fuzz: cannot write fuzz-failures.spec: {e}");
    } else {
        eprintln!("failing specs written to fuzz-failures.spec");
    }
    1
}

fn cmd_perf(args: &[String]) -> i32 {
    use td_bench::perf::{self, SweepConfig};
    let mut cfg = SweepConfig::default();
    let mut out_path: Option<String> = None;
    // Pre-scan the perf-specific flags; everything else goes through the
    // shared RunFlags parser so --seed keeps exactly the bench/churn
    // validation semantics (exit 2 on garbage).
    let mut rest: Vec<String> = Vec::new();
    // `--list` is honored only after the whole command line validates, so
    // `td perf --seed x --list` still exits 2 like every other malformed
    // invocation.
    let mut want_list = false;
    // `--repeat N`: min-of-N wall timing for every point. Deferred so
    // `--quick` (which implies repeat 1, like `SweepConfig::quick()`) and
    // an explicit `--repeat` compose in either flag order.
    let mut repeat_flag: Option<usize> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--list" => {
                want_list = true;
                i += 1;
            }
            "--quick" => {
                cfg.quick = true;
                i += 1;
            }
            "--scenario" => match args.get(i + 1) {
                Some(name) => {
                    cfg.scenario = Some(name.clone());
                    i += 2;
                }
                None => {
                    eprintln!("td perf: --scenario needs a name (see td perf --list)");
                    return 2;
                }
            },
            "--out" => match args.get(i + 1) {
                Some(p) => {
                    out_path = Some(p.clone());
                    i += 2;
                }
                None => {
                    eprintln!("td perf: --out needs a file path");
                    return 2;
                }
            },
            "--sizes" => {
                let parsed: Option<Vec<u32>> = args.get(i + 1).and_then(|raw| {
                    raw.split(',')
                        .map(|p| p.trim().parse::<u32>().ok().filter(|&v| v >= 1))
                        .collect()
                });
                match parsed {
                    Some(sizes) if !sizes.is_empty() => {
                        cfg.sizes = Some(sizes);
                        i += 2;
                    }
                    _ => {
                        eprintln!("td perf: --sizes needs a comma-separated list of integers >= 1");
                        return 2;
                    }
                }
            }
            "--repeat" => match args.get(i + 1).and_then(|raw| raw.parse::<usize>().ok()) {
                Some(n) if n >= 1 => {
                    repeat_flag = Some(n);
                    i += 2;
                }
                _ => {
                    eprintln!("td perf: --repeat needs an integer >= 1");
                    return 2;
                }
            },
            // `--size` is the one-shot knob of bench/churn; perf sweeps a
            // ladder, so steer the caller instead of silently accepting it.
            "--size" => {
                eprintln!(
                    "td perf: unknown flag '--size' (perf sweeps a ladder: use --sizes N,N,..)"
                );
                return 2;
            }
            _ => {
                rest.push(args[i].clone());
                i += 1;
            }
        }
    }
    let mut flags = RunFlags::new(0, 0);
    flags.seed = cfg.seed;
    if let Err(code) = flags.parse("td perf", &rest, &[]) {
        return code;
    }
    cfg.seed = flags.seed;
    cfg.repeat = repeat_flag.unwrap_or(if cfg.quick { 1 } else { cfg.repeat });
    // `size` means different things per scenario (nodes, side, servers…):
    // one list applied to every ladder would build absurd instances
    // (a 131072×131072 torus). Overriding sizes requires naming the
    // scenario the numbers are meant for.
    if cfg.sizes.is_some() && cfg.scenario.is_none() {
        eprintln!(
            "td perf: --sizes overrides one scenario's ladder; pair it with \
             --scenario <name> (size units differ per scenario)"
        );
        return 2;
    }
    if want_list {
        println!("perf scenarios:\n");
        print!("{}", perf::listing());
        println!("\nrun the sweep with: td perf [--scenario <name> [--sizes N,N,..]]");
        return 0;
    }
    let t0 = std::time::Instant::now();
    let report = match perf::run_sweep(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("td perf: {e}");
            // Unknown scenario names are usage errors; divergences and
            // verifier failures are runtime failures.
            return if e.contains("unknown perf scenario") {
                2
            } else {
                1
            };
        }
    };
    print!("{}", perf::summary_table(&report));
    for sc in perf::REGISTRY {
        if let Some(x) = report.sparse_speedup(sc.name) {
            println!("sparse speedup ({}, sparse vs dense): {x:.2}x", sc.name);
        }
    }
    // Only a full sweep stands in for the committed BENCH_10.json; a
    // restricted one is written only where --out says.
    let restricted = cfg.scenario.is_some() || cfg.quick;
    let out_path = match out_path {
        Some(p) => p,
        None if restricted => {
            println!(
                "\n{} points: restricted sweep (--scenario/--sizes/--quick), no file written \
                 (save it with --out FILE)",
                report.points.len()
            );
            return 0;
        }
        None => String::from("BENCH_10.json"),
    };
    let json = perf::write_json(&report);
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("td perf: cannot write {out_path}: {e}");
        return 1;
    }
    println!(
        "\n{} points ({} schema) written to {out_path} in {:.2} s",
        report.points.len(),
        perf::SCHEMA,
        t0.elapsed().as_secs_f64()
    );
    0
}

fn cmd_serve(args: &[String]) -> i32 {
    use td_bench::serve::{self, ServeConfig};
    let Some(name) = args.first().map(String::as_str) else {
        println!("servable churn families:\n");
        for f in serve::churn_families() {
            println!("  {f}");
        }
        println!("\nrun one with: td serve <family> [--size N] [--seed S] [--rate R] [--budget B]");
        return 0;
    };
    if name.starts_with('-') {
        eprintln!("td serve: first argument must be a churn family (run td serve for the list)");
        return 2;
    }
    let mut cfg = match ServeConfig::new(name) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("td serve: {e}");
            return 2;
        }
    };
    // Pre-scan the serve-specific flags; everything else goes through the
    // shared RunFlags parser so --size/--seed keep exactly the bench/churn
    // validation semantics (exit 2 on garbage).
    let mut out_path: Option<String> = None;
    let mut budget_req: Option<u64> = None;
    let mut rest: Vec<String> = Vec::new();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--rate" => match args.get(i + 1).and_then(|r| r.parse().ok()) {
                Some(v) => {
                    cfg.rate = v;
                    i += 2;
                }
                None => {
                    eprintln!("td serve: --rate needs an integer (events/sec; 0 = unpaced)");
                    return 2;
                }
            },
            // Parsed wide (u64) so absurd requests are judged as given,
            // not masked by a narrowing parse failure.
            "--budget" => match args.get(i + 1).and_then(|r| r.parse::<u64>().ok()) {
                Some(v) if v >= 1 => {
                    budget_req = Some(v);
                    i += 2;
                }
                _ => {
                    eprintln!("td serve: --budget needs an integer >= 1");
                    return 2;
                }
            },
            "--queue" => match args.get(i + 1).and_then(|r| r.parse::<usize>().ok()) {
                Some(v) if v >= 1 => {
                    cfg.queue = v;
                    i += 2;
                }
                _ => {
                    eprintln!("td serve: --queue needs an integer >= 1");
                    return 2;
                }
            },
            "--out" => match args.get(i + 1) {
                Some(p) => {
                    out_path = Some(p.clone());
                    i += 2;
                }
                None => {
                    eprintln!("td serve: --out needs a file path");
                    return 2;
                }
            },
            _ => {
                rest.push(args[i].clone());
                i += 1;
            }
        }
    }
    let mut flags = RunFlags::new(cfg.spec.size, 0);
    flags.seed = cfg.spec.seed;
    if let Err(code) = flags.parse("td serve", &rest, &[]) {
        return code;
    }
    cfg.spec = cfg.spec.with_size(flags.size).with_seed(flags.seed);
    // A degenerate spec (size 0, out-of-range params) is a usage error,
    // not a runtime failure — reject it before spinning up the daemon.
    if let Err(e) = cfg.spec.validate() {
        eprintln!("td serve: {e}");
        return 2;
    }
    // Absurd --rate/--budget pairs are usage errors too: a schedule whose
    // last tick runs past the u64 nanosecond horizon would stall on a
    // saturated offset instead of pacing.
    if let Some(b) = budget_req {
        if serve::schedule_overflows(cfg.rate, b) {
            eprintln!(
                "td serve: --rate {} with --budget {b} overflows the tick schedule \
                 (last emission would be past the u64 nanosecond horizon)",
                cfg.rate
            );
            return 2;
        }
        match u32::try_from(b) {
            Ok(v) => cfg.budget = v,
            Err(_) => {
                eprintln!(
                    "td serve: --budget {b} exceeds the supported maximum {}",
                    u32::MAX
                );
                return 2;
            }
        }
    }
    let report = match serve::serve(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("td serve: {e}");
            return 1;
        }
    };
    report.summary_table().print();
    if let Some(path) = out_path {
        let json = serve::write_json(&report);
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("td serve: cannot write {path}: {e}");
            return 1;
        }
        println!("\n{} report written to {path}", serve::SCHEMA);
    }
    0
}

fn cmd_trace(args: &[String]) -> i32 {
    use td_bench::trace;
    match args.first().map(String::as_str) {
        None => {
            println!("recorded workload shapes:\n");
            print!("{}", trace::shape_listing());
            println!(
                "\nrecord one with: td trace record --shape <name> [--size N] [--seed S] \
                 [--events N]\nor a spec mix:   td trace record --spec '<spec>'"
            );
            0
        }
        Some("record") => trace_record(&args[1..]),
        Some("info") => trace_info(&args[1..]),
        Some("replay") => trace_replay(&args[1..]),
        Some("convert") => trace_convert(&args[1..]),
        Some(other) => {
            eprintln!("td trace: unknown action '{other}' (record|info|replay|convert)");
            2
        }
    }
}

/// Emits a finished trace to `--out` or stdout (the pipeline-first default).
fn trace_emit(doc: &str, out: Option<&str>) -> i32 {
    match out {
        None => {
            print!("{doc}");
            0
        }
        Some(path) => {
            if let Err(e) = std::fs::write(path, doc) {
                eprintln!("td trace: cannot write {path}: {e}");
                return 1;
            }
            println!("{} trace written to {path}", td_bench::trace::SCHEMA);
            0
        }
    }
}

/// Loads and parses a trace file; any malformation is a data error (exit 1).
fn trace_load(cmd: &str, path: &str) -> Result<td_bench::Trace, i32> {
    td_bench::Trace::read(&read_input(path)).map_err(|e| {
        eprintln!("{cmd}: {path}: {e}");
        1
    })
}

fn trace_record(args: &[String]) -> i32 {
    use td_bench::trace::{find_shape, Trace};
    use td_bench::WorkloadSpec;
    let mut spec_str: Option<String> = None;
    let mut shape: Option<String> = None;
    let mut size: Option<u32> = None;
    let mut seed: Option<u64> = None;
    let mut events: Option<u32> = None;
    let mut out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let Some(raw) = args.get(i + 1) else {
            eprintln!("td trace record: {flag} needs a value");
            return 2;
        };
        match flag {
            "--spec" => spec_str = Some(raw.clone()),
            "--shape" => shape = Some(raw.clone()),
            "--out" => out = Some(raw.clone()),
            "--size" | "--seed" | "--events" => {
                let Ok(v) = raw.parse::<u64>() else {
                    eprintln!("td trace record: {flag} needs an integer");
                    return 2;
                };
                match flag {
                    "--size" => size = Some(v as u32),
                    "--events" => events = Some(v as u32),
                    _ => seed = Some(v),
                }
            }
            other => {
                eprintln!("td trace record: unknown flag '{other}'");
                return 2;
            }
        }
        i += 2;
    }
    let trace = match (spec_str, shape) {
        (Some(s), None) => {
            if size.is_some() || seed.is_some() || events.is_some() {
                eprintln!(
                    "td trace record: --size/--seed/--events apply to --shape; \
                     with --spec, put them in the spec string"
                );
                return 2;
            }
            let spec = match WorkloadSpec::parse(&s) {
                Ok(sp) => sp,
                Err(e) => {
                    eprintln!("td trace record: {e}");
                    return 2;
                }
            };
            match Trace::from_spec(&spec) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("td trace record: {e}");
                    return 2;
                }
            }
        }
        (None, Some(name)) => {
            let info = match find_shape(&name) {
                Ok(i) => i,
                Err(e) => {
                    eprintln!("td trace record: {e}");
                    return 2;
                }
            };
            match Trace::from_shape(
                &name,
                size.unwrap_or(info.default_size),
                seed.unwrap_or(42),
                events.unwrap_or(info.default_events),
            ) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("td trace record: {e}");
                    return 2;
                }
            }
        }
        _ => {
            eprintln!("td trace record: exactly one of --spec or --shape is required");
            return 2;
        }
    };
    trace_emit(&trace.write(), out.as_deref())
}

fn trace_info(args: &[String]) -> i32 {
    let [path] = args else {
        eprintln!("td trace info: expects exactly one file argument ('-' for stdin)");
        return 2;
    };
    match trace_load("td trace info", path) {
        Ok(t) => {
            t.summary_table().print();
            0
        }
        Err(code) => code,
    }
}

fn trace_replay(args: &[String]) -> i32 {
    use td_bench::trace::{replay_differential, replay_engine, replay_serve};
    use token_dropping::local::RepairMode;
    let Some(path) = args
        .first()
        .filter(|a| !a.starts_with('-') || a.as_str() == "-")
    else {
        eprintln!("td trace replay: expects a file argument first ('-' for stdin)");
        return 2;
    };
    let path = path.clone();
    let mut consumer = "engine".to_string();
    let mut rate: u64 = 0;
    let mut rest: Vec<String> = Vec::new();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--consumer" => match args.get(i + 1).map(String::as_str) {
                Some(c @ ("engine" | "differential" | "serve" | "all")) => {
                    consumer = c.to_string();
                    i += 2;
                }
                _ => {
                    eprintln!("td trace replay: --consumer needs engine|differential|serve|all");
                    return 2;
                }
            },
            "--rate" => match args.get(i + 1).and_then(|r| r.parse().ok()) {
                Some(v) => {
                    rate = v;
                    i += 2;
                }
                None => {
                    eprintln!("td trace replay: --rate needs an integer (events/sec; 0 = unpaced)");
                    return 2;
                }
            },
            _ => {
                rest.push(args[i].clone());
                i += 1;
            }
        }
    }
    let mut flags = RunFlags::new(0, 0);
    if let Err(code) = flags.parse("td trace replay", &rest, &["--full"]) {
        return code;
    }
    let mode = if flags.full {
        RepairMode::FullRecompute
    } else {
        RepairMode::Incremental
    };
    let trace = match trace_load("td trace replay", &path) {
        Ok(t) => t,
        Err(code) => return code,
    };
    let mut table =
        td_bench::Table::new(&["consumer", "events", "rounds", "messages", "fingerprint"]);
    let mut fps: Vec<u64> = Vec::new();
    if consumer == "engine" || consumer == "all" {
        match replay_engine(&trace, mode) {
            Ok(o) => {
                fps.push(o.solution_fp);
                table.row(vec![
                    "engine".to_string(),
                    o.events.to_string(),
                    o.stats.rounds.to_string(),
                    o.stats.messages.to_string(),
                    format!("{:016x}", o.solution_fp),
                ]);
            }
            Err(e) => {
                eprintln!("td trace replay: engine: {e}");
                return 1;
            }
        }
    }
    if consumer == "differential" || consumer == "all" {
        match replay_differential(&trace) {
            Ok(r) => table.row(vec![
                format!("differential({}x)", r.compared),
                trace.events.len().to_string(),
                r.rounds.to_string(),
                r.messages.to_string(),
                "-".to_string(),
            ]),
            Err(e) => {
                eprintln!("td trace replay: differential: {e}");
                return 1;
            }
        }
    }
    if consumer == "serve" || consumer == "all" {
        match replay_serve(&trace, rate) {
            Ok(r) => {
                fps.push(r.fingerprint);
                table.row(vec![
                    "serve".to_string(),
                    r.events.to_string(),
                    r.repair.rounds.to_string(),
                    r.repair.messages.to_string(),
                    format!("{:016x}", r.fingerprint),
                ]);
            }
            Err(e) => {
                eprintln!("td trace replay: serve: {e}");
                return 1;
            }
        }
    }
    table.print();
    if fps.windows(2).any(|w| w[0] != w[1]) {
        eprintln!("td trace replay: consumers disagree on the solution fingerprint");
        return 1;
    }
    if consumer == "all" {
        println!("\nall consumers agree: fingerprint {:016x}", fps[0]);
    }
    0
}

fn trace_convert(args: &[String]) -> i32 {
    let Some(path) = args
        .first()
        .filter(|a| !a.starts_with('-') || a.as_str() == "-")
    else {
        eprintln!("td trace convert: expects a file argument first ('-' for stdin)");
        return 2;
    };
    let path = path.clone();
    let mut seed: Option<u64> = None;
    let mut out: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => match args.get(i + 1).and_then(|r| r.parse().ok()) {
                Some(v) => {
                    seed = Some(v);
                    i += 2;
                }
                None => {
                    eprintln!("td trace convert: --seed needs an integer");
                    return 2;
                }
            },
            "--out" => match args.get(i + 1) {
                Some(p) => {
                    out = Some(p.clone());
                    i += 2;
                }
                None => {
                    eprintln!("td trace convert: --out needs a file path");
                    return 2;
                }
            },
            other => {
                eprintln!("td trace convert: unknown flag '{other}'");
                return 2;
            }
        }
    }
    let Some(seed) = seed else {
        eprintln!("td trace convert: --seed is required (the point of converting)");
        return 2;
    };
    let trace = match trace_load("td trace convert", &path) {
        Ok(t) => t,
        Err(code) => return code,
    };
    match trace.reseed(seed) {
        Ok(t) => trace_emit(&t.write(), out.as_deref()),
        Err(e) => {
            eprintln!("td trace convert: {e}");
            1
        }
    }
}

fn cmd_compare(args: &[String]) -> i32 {
    use td_bench::compare::{self, CompareConfig};
    let mut cfg = CompareConfig::default();
    let mut families: Vec<String> = Vec::new();
    let mut traces: Vec<String> = Vec::new();
    let mut out_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = |name: &str| -> Result<String, i32> {
            args.get(i + 1).cloned().ok_or_else(|| {
                eprintln!("td compare: {name} needs a value");
                2
            })
        };
        match flag {
            "--families" => match value(flag) {
                Ok(v) => {
                    families.extend(v.split(',').map(|s| s.trim().to_string()));
                    i += 2;
                }
                Err(code) => return code,
            },
            "--protocols" => match value(flag) {
                Ok(v) => {
                    cfg.protocols = v.split(',').map(|s| s.trim().to_string()).collect();
                    i += 2;
                }
                Err(code) => return code,
            },
            "--size" => match args.get(i + 1).and_then(|r| r.parse().ok()) {
                Some(v) if v >= 1 => {
                    cfg.size = Some(v);
                    i += 2;
                }
                _ => {
                    eprintln!("td compare: --size needs an integer >= 1");
                    return 2;
                }
            },
            "--seed" => match args.get(i + 1).and_then(|r| r.parse().ok()) {
                Some(v) => {
                    cfg.seed = v;
                    i += 2;
                }
                None => {
                    eprintln!("td compare: --seed needs an integer");
                    return 2;
                }
            },
            "--events" => match args.get(i + 1).and_then(|r| r.parse().ok()) {
                Some(v) => {
                    cfg.max_events = Some(v);
                    i += 2;
                }
                None => {
                    eprintln!("td compare: --events needs an integer");
                    return 2;
                }
            },
            "--trace" => match value(flag) {
                Ok(v) => {
                    traces.push(v);
                    i += 2;
                }
                Err(code) => return code,
            },
            "--out" => match value(flag) {
                Ok(v) => {
                    out_path = Some(v);
                    i += 2;
                }
                Err(code) => return code,
            },
            other => {
                eprintln!("td compare: unknown flag '{other}'");
                return 2;
            }
        }
    }
    let t0 = std::time::Instant::now();
    let mut report = match compare::compare_families(&cfg, &families) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("td compare: {e}");
            // Unknown families/protocols are usage errors; a diverging or
            // unverifiable run is a real failure.
            return if e.contains("unknown") { 2 } else { 1 };
        }
    };
    for path in &traces {
        let trace = match trace_load("td compare", path) {
            Ok(t) => t,
            Err(code) => return code,
        };
        let label = std::path::Path::new(path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or(path.as_str())
            .to_string();
        if let Err(e) = compare::compare_trace(&mut report, &label, &trace) {
            eprintln!("td compare: {e}");
            return 1;
        }
    }
    report.table().print();
    for (label, why) in &report.skipped {
        println!("\nskipped {label}: {why}");
    }
    println!(
        "\n{} rows, every run verified, in {:.2} s",
        report.rows.len(),
        t0.elapsed().as_secs_f64()
    );
    if let Some(path) = out_path {
        let json = compare::write_json(&report);
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("td compare: cannot write {path}: {e}");
            return 1;
        }
        println!("{} report written to {path}", compare::SCHEMA);
    }
    0
}

/// Everything `td exp run`/`td exp render` share: the experiment ids, the
/// resolved [`td_bench::ExpConfig`], and the results directory.
struct ExpInvocation {
    ids: Vec<String>,
    cfg: td_bench::ExpConfig,
    results: String,
}

/// Parses the flags common to both `td exp` actions out of `args`, leaving
/// the action-specific flags for `handle` to claim (return `true` if it
/// consumed the flag at the given index; it may look at the value slot).
/// Positional (non-flag) arguments are experiment ids. `Err(2)` on any
/// malformed or unknown flag, exactly like the other subcommands.
fn exp_parse(
    cmd: &str,
    args: &[String],
    mut handle: impl FnMut(&[String], usize) -> Result<Option<usize>, i32>,
) -> Result<ExpInvocation, i32> {
    use td_bench::ExpConfig;
    let mut ids: Vec<String> = Vec::new();
    let mut results = String::from("results");
    let mut quick = false;
    let mut repeat_flag: Option<usize> = None;
    let mut rest: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if let Some(consumed) = handle(args, i)? {
            i += consumed;
            continue;
        }
        match flag {
            "--quick" => {
                quick = true;
                i += 1;
            }
            "--results" => match args.get(i + 1) {
                Some(p) => {
                    results = p.clone();
                    i += 2;
                }
                None => {
                    eprintln!("{cmd}: --results needs a directory path");
                    return Err(2);
                }
            },
            "--repeat" => match args.get(i + 1).and_then(|raw| raw.parse::<usize>().ok()) {
                Some(n) if n >= 1 => {
                    repeat_flag = Some(n);
                    i += 2;
                }
                _ => {
                    eprintln!("{cmd}: --repeat needs an integer >= 1");
                    return Err(2);
                }
            },
            // RunFlags owns --seed; forward the flag AND its value slot so
            // a trailing id is never mistaken for one.
            "--seed" => {
                rest.push(args[i].clone());
                if let Some(v) = args.get(i + 1) {
                    rest.push(v.clone());
                }
                i += 2;
            }
            other if other.starts_with('-') => {
                // Unknown flags fall through to RunFlags for the uniform
                // "unknown flag" diagnostic and exit code.
                rest.push(args[i].clone());
                i += 1;
            }
            id => {
                ids.push(id.to_string());
                i += 1;
            }
        }
    }
    // --quick rebases every default (repeat 1) before explicit flags
    // override, so the two compose in either order.
    let mut cfg = if quick {
        ExpConfig::quick()
    } else {
        ExpConfig::default()
    };
    let mut flags = RunFlags::new(0, 0);
    flags.seed = cfg.seed;
    flags.parse(cmd, &rest, &[])?;
    cfg.seed = flags.seed;
    if let Some(n) = repeat_flag {
        cfg.repeat = n;
    }
    Ok(ExpInvocation { ids, cfg, results })
}

fn cmd_exp(args: &[String]) -> i32 {
    use td_bench::exp;
    match args.first().map(String::as_str) {
        None | Some("--list") => {
            if args.len() > 1 {
                eprintln!("td exp: unexpected trailing argument '{}'", args[1]);
                return 2;
            }
            println!("registered experiments:\n");
            print!("{}", exp::listing());
            println!(
                "\nrun them with:    td exp run [id..] [--quick] [--force]\n\
                 render them with: td exp render [id..] [--quick] [--plots DIR] [--bench FILE]"
            );
            0
        }
        Some("run") => exp_run(&args[1..]),
        Some("render") => exp_render(&args[1..]),
        Some("check-bench") => exp_check_bench(&args[1..]),
        Some(other) => {
            eprintln!("td exp: unknown action '{other}' (run|render|check-bench|--list)");
            2
        }
    }
}

fn exp_check_bench(args: &[String]) -> i32 {
    use td_bench::exp;
    let [rendered, committed] = args else {
        eprintln!("td exp check-bench: expects <rendered.json> <committed.json>");
        return 2;
    };
    let read = |path: &String| {
        std::fs::read_to_string(path).map_err(|e| eprintln!("td exp check-bench: {path}: {e}"))
    };
    let (Ok(r), Ok(c)) = (read(rendered), read(committed)) else {
        return 1;
    };
    match exp::check_bench(&r, &c) {
        Ok(rows) => {
            println!(
                "check-bench: {rows} rows of {rendered} agree with {committed} on {}",
                exp::BENCH_COUNTERS.join(", ")
            );
            0
        }
        Err(errors) => {
            for e in errors {
                eprintln!("td exp check-bench: {e}");
            }
            1
        }
    }
}

fn exp_run(args: &[String]) -> i32 {
    use td_bench::exp;
    let mut force = false;
    let inv = match exp_parse("td exp run", args, |args, i| {
        if args[i] == "--force" {
            force = true;
            Ok(Some(1))
        } else {
            Ok(None)
        }
    }) {
        Ok(inv) => inv,
        Err(code) => return code,
    };
    // Unknown ids are usage errors; resolve before touching the cache.
    if let Err(e) = exp::resolve_ids(&inv.ids) {
        eprintln!("td exp run: {e}");
        return 2;
    }
    let t0 = std::time::Instant::now();
    let manifest = match exp::run(
        &inv.cfg,
        &inv.ids,
        std::path::Path::new(&inv.results),
        force,
    ) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("td exp run: {e}");
            return 1;
        }
    };
    for u in &manifest.units {
        println!("{:6} {}/{}", u.status.label(), u.exp, u.unit);
    }
    println!(
        "\nunits: {}, hits: {}, misses: {} ({} schema, manifest in {}/manifest.json, {:.2} s)",
        manifest.units.len(),
        manifest.hits(),
        manifest.misses(),
        exp::SCHEMA,
        inv.results,
        t0.elapsed().as_secs_f64()
    );
    0
}

fn exp_render(args: &[String]) -> i32 {
    use td_bench::exp;
    let mut plots_dir = String::from("plots");
    let mut bench_path: Option<String> = None;
    let mut md_path: Option<String> = None;
    let inv = match exp_parse("td exp render", args, |args, i| {
        let take_value = |name: &str| -> Result<String, i32> {
            args.get(i + 1).cloned().ok_or_else(|| {
                eprintln!("td exp render: {name} needs a path");
                2
            })
        };
        match args[i].as_str() {
            "--plots" => {
                plots_dir = take_value("--plots")?;
                Ok(Some(2))
            }
            "--bench" => {
                bench_path = Some(take_value("--bench")?);
                Ok(Some(2))
            }
            "--experiments-md" => {
                md_path = Some(take_value("--experiments-md")?);
                Ok(Some(2))
            }
            _ => Ok(None),
        }
    }) {
        Ok(inv) => inv,
        Err(code) => return code,
    };
    if let Err(e) = exp::resolve_ids(&inv.ids) {
        eprintln!("td exp render: {e}");
        return 2;
    }
    let rendered = match exp::render(&inv.cfg, &inv.ids, std::path::Path::new(&inv.results)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("td exp render: {e}");
            return 1;
        }
    };
    if bench_path.is_some() && rendered.bench.is_none() {
        eprintln!("td exp render: --bench needs the perf experiment in the selection");
        return 2;
    }
    if !rendered.plots.is_empty() {
        if let Err(e) = std::fs::create_dir_all(&plots_dir) {
            eprintln!("td exp render: cannot create {plots_dir}: {e}");
            return 1;
        }
    }
    for (name, svg) in &rendered.plots {
        let path = std::path::Path::new(&plots_dir).join(name);
        if let Err(e) = std::fs::write(&path, svg) {
            eprintln!("td exp render: cannot write {}: {e}", path.display());
            return 1;
        }
        println!("plot:    {}", path.display());
    }
    if let (Some(path), Some(bench)) = (&bench_path, &rendered.bench) {
        if let Err(e) = std::fs::write(path, bench) {
            eprintln!("td exp render: cannot write {path}: {e}");
            return 1;
        }
        println!("bench:   {path} ({} schema)", td_bench::perf::SCHEMA);
    }
    if let Some(path) = &md_path {
        let mut text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("td exp render: cannot read {path}: {e}");
                return 1;
            }
        };
        for (id, block) in &rendered.tables {
            text = match exp::splice_generated(&text, id, block) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("td exp render: {path}: {e}");
                    return 1;
                }
            };
        }
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("td exp render: cannot write {path}: {e}");
            return 1;
        }
        println!(
            "tables:  {} section(s) spliced into {path}",
            rendered.tables.len()
        );
    } else {
        println!(
            "tables:  {} section(s) rendered (pass --experiments-md FILE to splice them)",
            rendered.tables.len()
        );
    }
    0
}

fn read_input(path: &str) -> String {
    let mut buf = String::new();
    if path == "-" {
        std::io::stdin()
            .read_to_string(&mut buf)
            .expect("read stdin");
    } else {
        buf = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        });
    }
    buf
}

fn load_graph(path: &str) -> CsrGraph {
    let text = read_input(path);
    gio::read_edge_list(BufReader::new(text.as_bytes())).unwrap_or_else(|e| {
        eprintln!("bad edge list: {e}");
        std::process::exit(1);
    })
}

fn cmd_gen(args: &[String]) -> i32 {
    gen_inner(args).unwrap_or_else(|code| code)
}

/// `td gen` body. Every generator has an exact positional arity: a missing
/// argument, a trailing extra, garbage where an integer belongs, or an
/// integer outside the generator's valid range is a usage error (exit 2
/// with a one-line diagnostic naming the range), never a panic or a silent
/// default — a mistyped seed that quietly fell back to 42 would fake
/// determinism.
fn gen_inner(args: &[String]) -> Result<i32, i32> {
    fn arity(sub: &str, rest: &[String], min: usize, max: usize) -> Result<(), i32> {
        if rest.len() < min {
            eprintln!("td gen {sub}: missing argument(s); see td --help");
            return Err(2);
        }
        if rest.len() > max {
            eprintln!("td gen {sub}: unexpected trailing argument '{}'", rest[max]);
            return Err(2);
        }
        Ok(())
    }
    fn int<T: std::str::FromStr>(sub: &str, what: &str, raw: &str) -> Result<T, i32> {
        raw.parse().map_err(|_| {
            eprintln!("td gen {sub}: {what} must be an integer, got '{raw}'");
            2
        })
    }
    fn in_range(sub: &str, what: &str, v: usize, lo: usize, hi: usize) -> Result<usize, i32> {
        if (lo..=hi).contains(&v) {
            return Ok(v);
        }
        eprintln!("td gen {sub}: {what} {v} out of range [{lo}, {hi}]");
        Err(2)
    }
    let Some(sub) = args.first().map(String::as_str) else {
        eprintln!("usage: td gen <gnm|regular|tree|comb|game> ...");
        return Err(2);
    };
    let rest = &args[1..];
    let seed_at = |i: usize| -> Result<u64, i32> {
        match rest.get(i) {
            Some(raw) => int(sub, "[seed]", raw),
            None => Ok(42),
        }
    };
    match sub {
        "gnm" => {
            arity(sub, rest, 2, 3)?;
            let n: usize = int(sub, "<n>", &rest[0])?;
            let pairs = n.saturating_mul(n.saturating_sub(1)) / 2;
            let m = in_range(sub, "<m>", int(sub, "<m>", &rest[1])?, 0, pairs)?;
            let g = token_dropping::graph::gen::random::gnm(
                n,
                m,
                &mut SmallRng::seed_from_u64(seed_at(2)?),
            );
            gio::write_edge_list(&g, std::io::stdout().lock()).unwrap();
            Ok(0)
        }
        "regular" => {
            arity(sub, rest, 2, 3)?;
            let n = in_range(sub, "<n>", int(sub, "<n>", &rest[0])?, 1, usize::MAX)?;
            let d = in_range(sub, "<d>", int(sub, "<d>", &rest[1])?, 0, n - 1)?;
            if n % 2 == 1 && d % 2 == 1 {
                eprintln!("td gen regular: <n> {n} and <d> {d} are both odd; n * d must be even");
                return Err(2);
            }
            match token_dropping::graph::gen::random::random_regular(
                n,
                d,
                &mut SmallRng::seed_from_u64(seed_at(2)?),
                500,
            ) {
                Some(g) => {
                    gio::write_edge_list(&g, std::io::stdout().lock()).unwrap();
                    Ok(0)
                }
                None => {
                    eprintln!("no simple {d}-regular pairing found");
                    Ok(1)
                }
            }
        }
        "tree" => {
            arity(sub, rest, 2, 2)?;
            let d = in_range(sub, "<d>", int(sub, "<d>", &rest[0])?, 2, usize::MAX)?;
            let depth = int(sub, "<depth>", &rest[1])?;
            let (g, _) =
                token_dropping::graph::gen::structured::perfect_dary_tree(d, depth, 10_000_000);
            gio::write_edge_list(&g, std::io::stdout().lock()).unwrap();
            Ok(0)
        }
        "comb" => {
            arity(sub, rest, 1, 1)?;
            let k = in_range(sub, "<k>", int(sub, "<k>", &rest[0])?, 1, usize::MAX)?;
            let game = TokenGame::contention_comb(k);
            game_io::write_game(&game, std::io::stdout().lock()).unwrap();
            Ok(0)
        }
        "game" => {
            // td gen game w1,w2,w3 deg [seed]
            arity(sub, rest, 2, 3)?;
            let widths: Vec<usize> = rest[0]
                .split(',')
                .map(|w| int(sub, "<w1,w2,..>", w.trim()))
                .collect::<Result<_, _>>()?;
            let deg = in_range(sub, "<deg>", int(sub, "<deg>", &rest[1])?, 1, usize::MAX)?;
            let game =
                TokenGame::random(&widths, deg, 0.5, &mut SmallRng::seed_from_u64(seed_at(2)?));
            game_io::write_game(&game, std::io::stdout().lock()).unwrap();
            Ok(0)
        }
        _ => {
            eprintln!("usage: td gen <gnm|regular|tree|comb|game> ...");
            Err(2)
        }
    }
}

fn cmd_info(args: &[String]) -> i32 {
    // One positional (the file, default '-'); extras used to be silently
    // ignored, hiding e.g. a second file the caller thought was inspected.
    if args.len() > 1 {
        eprintln!("td info: unexpected trailing argument '{}'", args[1]);
        return 2;
    }
    let g = load_graph(args.first().map(String::as_str).unwrap_or("-"));
    println!("nodes:      {}", g.num_nodes());
    println!("edges:      {}", g.num_edges());
    println!("max degree: {}", g.max_degree());
    println!("connected:  {}", algo::is_connected(&g));
    match algo::girth(&g) {
        Some(c) => println!("girth:      {c}"),
        None => println!("girth:      ∞ (forest)"),
    }
    let bip = token_dropping::graph::bipartite::bipartition(&g).is_some();
    println!("bipartite:  {bip}");
    0
}

fn cmd_orient(args: &[String]) -> i32 {
    // Strict parse: one optional file plus --distributed. The old scan
    // (`args.iter().any(..)`) silently ignored every unknown flag, so a
    // typo like --distribtued ran the wrong (centralized) solver.
    let mut path: Option<&str> = None;
    let mut distributed = false;
    for a in args {
        match a.as_str() {
            "--distributed" => distributed = true,
            flag if flag.starts_with("--") => {
                eprintln!("td orient: unknown flag '{flag}'");
                return 2;
            }
            p if path.is_none() => path = Some(p),
            extra => {
                eprintln!("td orient: unexpected trailing argument '{extra}'");
                return 2;
            }
        }
    }
    let g = load_graph(path.unwrap_or("-"));
    let orientation = if distributed {
        // Refuse before simulating: past Δ = 151 the round budget
        // overflows the simulator's u32 round counter.
        if let Err(e) = round_cap(u32::try_from(g.max_degree()).unwrap_or(u32::MAX)) {
            eprintln!("td orient --distributed: {e}");
            return 2;
        }
        let res = run_distributed(&g, &Simulator::sequential());
        println!(
            "# distributed protocol: {} LOCAL rounds, {} messages",
            res.comm_rounds, res.messages
        );
        res.orientation
    } else {
        let res = solve_stable_orientation(&g, PhaseConfig::default());
        println!(
            "# phase driver: {} phases, {} derived LOCAL rounds",
            res.phases, res.comm_rounds
        );
        res.orientation
    };
    orientation
        .verify_stable(&g)
        .expect("output must be stable");
    println!("# verified stable; edges as 'tail -> head':");
    for (e, u, v) in g.edge_list() {
        let head = orientation.head(e).unwrap();
        let tail = if head == u { v } else { u };
        println!("{} {}", tail.0, head.0);
    }
    0
}

fn cmd_game(args: &[String]) -> i32 {
    if args.len() > 1 {
        eprintln!("td game: unexpected trailing argument '{}'", args[1]);
        return 2;
    }
    let path = args.first().map(String::as_str).unwrap_or("-");
    let text = read_input(path);
    let game = game_io::read_game(BufReader::new(text.as_bytes())).unwrap_or_else(|e| {
        eprintln!("bad game file: {e}");
        std::process::exit(1);
    });
    let res = lockstep::run(&game);
    verify_solution(&game, &res.solution).expect("solution must satisfy rules 1-3");
    verify_dynamics(&game, &res.log).expect("dynamics must replay");
    println!(
        "# solved in {} game rounds ({} moves); traversals:",
        res.rounds,
        res.log.len()
    );
    for t in &res.solution.traversals {
        let path: Vec<String> = t.path.iter().map(|v| v.0.to_string()).collect();
        println!("{}", path.join(" "));
    }
    0
}

fn cmd_assign(args: &[String]) -> i32 {
    assign_inner(args).unwrap_or_else(|code| code)
}

fn assign_inner(args: &[String]) -> Result<i32, i32> {
    fn int_flag<T: std::str::FromStr>(flag: &str, raw: Option<&String>) -> Result<T, i32> {
        match raw.and_then(|r| r.parse().ok()) {
            Some(v) => Ok(v),
            None => {
                eprintln!("td assign: {flag} needs an integer");
                Err(2)
            }
        }
    }
    // The file positional may be omitted (stdin). A leading flag used to be
    // swallowed as the path, shifting every later argument into the wrong
    // slot; missing or garbage flag values used to panic via unwrap.
    let (path, flag_args) = match args.first().map(String::as_str) {
        Some(p) if !p.starts_with("--") => (p, &args[1..]),
        _ => ("-", args),
    };
    let mut customers: Option<usize> = None;
    let mut bounded: Option<u32> = None;
    let mut optimal = false;
    let mut i = 0;
    while i < flag_args.len() {
        match flag_args[i].as_str() {
            "--customers" => {
                customers = Some(int_flag("--customers", flag_args.get(i + 1))?);
                i += 2;
            }
            "--bounded" => {
                bounded = Some(int_flag("--bounded", flag_args.get(i + 1))?);
                i += 2;
            }
            "--optimal" => {
                optimal = true;
                i += 1;
            }
            other => {
                eprintln!("td assign: unknown argument '{other}'");
                return Err(2);
            }
        }
    }
    let Some(nc) = customers else {
        eprintln!("td assign: --customers <nc> is required");
        return Err(2);
    };
    let g = load_graph(path);
    let inst = AssignmentInstance::from_bipartite_graph(&g, nc);
    let assignment = if optimal {
        let res = optimal_semi_matching(&inst);
        println!(
            "# optimal semi-matching, {} cost-reducing paths",
            res.paths_applied
        );
        res.assignment
    } else if let Some(k) = bounded {
        let res = token_dropping::assign::bounded::solve_k_bounded(&inst, k);
        res.assignment.verify_k_bounded(&inst, k).unwrap();
        println!(
            "# {k}-bounded stable, {} phases, {} LOCAL rounds",
            res.phases, res.comm_rounds
        );
        res.assignment
    } else {
        let res = token_dropping::assign::phases::solve_stable_assignment(&inst);
        res.assignment.verify_stable(&inst).unwrap();
        println!(
            "# stable, {} phases, {} LOCAL rounds",
            res.phases, res.comm_rounds
        );
        res.assignment
    };
    println!(
        "# cost = {}, max load = {}",
        assignment.cost(),
        assignment.max_load()
    );
    println!("# customer -> server:");
    for c in 0..nc {
        println!("{} {}", c, assignment.server_of(c).unwrap());
    }
    Ok(0)
}
