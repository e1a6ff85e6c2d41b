#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <n> --trace <0|1>

Run from the repository root. The benchmark is the Rust package in this
directory (a workspace of its own); it is built with cargo into
$CARGO_TARGET_DIR (default: .bench_build). Each workload runs in its own
process. Metric names, units and workloads come from BENCHMARK.json; the
per-layer predictions, and the workloads on which each per-layer metric is
measured (a traced run must report exactly those), from predictions.json.

With --trace 0 the result holds every end-to-end metric, with --trace 1
every per-layer metric (a traced run alternates blocks of untraced and
traced requests, and the latency difference between them is printed as the
tracing overhead). A human-readable summary goes to stderr, the full record
of each run and the spans of a traced run to perfbench/out/, and the last
line of stdout is one JSON object:

    {"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value", "unit"}}}

The exit code is 0 only when every request and check passed.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec():
    """BENCHMARK.json and predictions.json, checked against each other."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    predictions = json.loads((HERE / "predictions.json").read_text())
    workloads = {w["name"] for w in bench["workloads"]}
    e2e = {m["name"] for m in bench["end_to_end"]}
    layer = {m["name"] for m in bench["per_layer"]}
    if set(predictions) != layer:
        raise SystemExit(
            "predictions.json and BENCHMARK.json per_layer disagree: "
            f"{sorted(set(predictions) ^ layer)}"
        )
    for name, p in predictions.items():
        for move in p["should_move"]:
            metric, _, workload = move.partition(" @ ")
            if metric not in e2e or workload not in workloads:
                raise SystemExit(f"predictions.json {name}: unknown target {move!r}")
        for flat in p["flat_on"]:
            if flat not in workloads and flat not in e2e:
                raise SystemExit(f"predictions.json {name}: unknown flat_on {flat!r}")
        if not set(p["measured_on"]) <= workloads:
            raise SystemExit(f"predictions.json {name}: unknown measured_on workload")
    return bench, predictions


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build"))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, check=True,
                   timeout=BUILD_TIMEOUT_S)
    target = Path(env["CARGO_TARGET_DIR"])
    if not target.is_absolute():
        target = ROOT / target
    return target / "release" / "perfbench"


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True,
                          timeout=60).stdout


def source_id():
    """The code measured: the commit plus a digest of uncommitted changes, or,
    in a checkout without git, a digest of every source file the build reads."""
    try:
        if Path(git("rev-parse", "--show-toplevel").decode().strip()).resolve() == ROOT:
            head = git("rev-parse", "HEAD").decode().strip()
            diff = git("diff", "HEAD")
            return head + (f"+dirty.{hashlib.sha256(diff).hexdigest()[:12]}" if diff else "")
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    skip = {OUT, HERE / "target"}
    files = [ROOT / f for f in ("Cargo.toml", "Cargo.lock", "rust-toolchain.toml")]
    for top in ("crates", "vendor", "perfbench"):
        files += [p for p in (ROOT / top).rglob("*")
                  if p.is_file() and not skip & set(p.parents)]
    for p in sorted(f for f in files if f.is_file()):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0")
        h.update(p.read_bytes())
    return "no git; sources sha256 " + h.hexdigest()[:16]


def run_workload(binary, bench, predictions, source, workload, args):
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(OUT)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{workload}: no result (exit {proc.returncode})")
    result = json.loads(lines[-1])

    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    known = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}
    unknown = sorted(set(result["metrics"]) - known)
    if unknown:
        raise SystemExit(f"{workload}: undeclared metrics {unknown}")
    if args.trace and result["correct"]:
        # The per-layer metrics the run measured must be exactly the ones
        # predictions.json says this workload measures.
        expected = {k for k, p in predictions.items() if workload in p["measured_on"]}
        got = set(result["metrics"]) & set(predictions)
        if got != expected:
            raise SystemExit(f"{workload}: per-layer metrics missing {sorted(expected - got)}, "
                             f"unexpected {sorted(got - expected)}")
    # A per-layer metric the workload does not exercise, or any metric a
    # failed run could not measure, reads 0.
    metrics, not_measured = {}, []
    for m in declared:
        value = result["metrics"].get(m["name"])
        if value is None:
            if result["correct"] and not args.trace:
                raise SystemExit(f"{workload}: end-to-end metric {m['name']} missing")
            value = 0
            not_measured.append(m["name"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    record = result["record"]
    record.update(host=platform.node(), source=source, not_measured=not_measured)
    full = {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics,
            "all_metrics": result["metrics"], "record": record}
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"result-{workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(full, indent=1) + "\n")
    summarize(workload, full, path)
    if proc.returncode != 0 and result["correct"]:
        raise SystemExit(f"{workload}: exit {proc.returncode} with a correct result")
    return full


def summarize(workload, full, path):
    rec = full["record"]
    log(f"== {workload}  seed {rec['seed']}  {rec['run_seconds']} s  "
        f"{'traced' if rec['trace'] else 'untraced'}")
    log(f"   host {rec['host']}: {rec['available_parallelism']} CPUs, {rec['cpu_model']}; "
        f"executor {rec.get('executor')}, workers {rec.get('workers')}")
    log(f"   source {rec['source']}; "
        f"inputs {rec.get('instance_spec')} (fingerprint {rec.get('input_fingerprint')})")
    for name, m in full["metrics"].items():
        value = m["value"]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        note = "  (not measured)" if name in rec["not_measured"] else ""
        log(f"   {name:32} {shown:>14} {m['unit']}{note}")
    rate = full["failed"] / max(full["attempted"], 1)
    log(f"   {'error_rate':32} {rate:>14.6g} fraction ({full['failed']} of {full['attempted']})")
    for key in ("latency_ms", "read_latency_ms"):
        if key in rec:
            log(f"   {key}: p50 {rec[key]['p50']:.6g} ms, p90 {rec[key]['p90']:.6g} ms, "
                f"p99 {rec[key]['p99']:.6g} ms over {rec[key]['n']} samples")
    if "mean_rate_per_s" in rec:
        log(f"   mean rate {rec['mean_rate_per_s']:.6g} 1/s of busy time")
    if rec["trace"]:
        overhead = full["all_metrics"].get("bench.trace_overhead_pct")
        spans = rec.get("spans", {})
        log(f"   tracing overhead {overhead:+.3g}% on latency p50; {spans.get('count')} spans, "
            f"children cover {100 * spans.get('coverage', 0):.3f}% of request time")
    log(f"   full record: {path.relative_to(ROOT)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be 1..60")

    bench, predictions = load_spec()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names + ["all"]:
        parser.error(f"unknown workload {args.workload!r} (known: {', '.join(names)}, all)")
    try:
        binary = build()
        source = source_id()
        runs = {w: run_workload(binary, bench, predictions, source, w, args)
                for w in (names if args.workload == "all" else [args.workload])}
    except subprocess.CalledProcessError as e:
        log(f"run.py: building the benchmark failed (exit {e.returncode})")
        return 1
    except subprocess.TimeoutExpired as e:
        log(f"run.py: {e.cmd[0]} did not finish within {e.timeout} s; stopped")
        return 1
    if args.workload == "all":
        metrics = {f"{w}/{k}": v for w, r in runs.items() for k, v in r["metrics"].items()}
    else:
        metrics = runs[args.workload]["metrics"]
    attempted = sum(r["attempted"] for r in runs.values())
    failed = sum(r["failed"] for r in runs.values())
    correct = failed == 0 and all(r["correct"] for r in runs.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
