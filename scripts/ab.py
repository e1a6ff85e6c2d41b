#!/usr/bin/env python3
"""A/B runs of the end-to-end benchmark: a parent revision against the
working tree.

    python3 scripts/ab.py <parent-rev> <workload> [--pairs 10] [--seconds 40] [--seed N]

Run from the repository root. The parent revision is exported with
`git archive` into `.ab/` (gitignored). Each pair runs the parent's
`perfbench/run.py` and the working tree's on the same fresh seed
(`--seed`, `--seed + 1`, ...), alternating which side goes first, each side
built into its own `CARGO_TARGET_DIR` under `.ab/`. Neither side's benchmark
files are changed: each runs exactly as committed at its revision.

For every end-to-end metric of BENCHMARK.json it prints each side's median
and quartiles and the number of pairs the change won (ties count for
neither side), then two verdicts:

- gain: the change wins at least nine tenths of the pairs, and its median is
  better than the parent's by more than the parent's interquartile range;
- bound: the change's median is no worse than the parent's by more than the
  metric's BENCHMARK.json bound (relative). Where the parent's own IQR,
  relative to its median, is wider than the bound, the verdict is
  "unresolved" unless every run of the change reads better than every run
  of the parent.

It also prints each side's share of failed operations. On serve-assign,
whose p90 and capacity take a host stall whole, each pair's progress line
shows both runs' longest generator lag (`generator_lag_max_ms` of the run's
record, `perfbench/out/result-serve-assign-seed<N>-trace0.json` under that
side's root), and the summary each side's median and maximum lag, so a
stall can be told from a regression. The raw per-run results go to
`.ab/ab-<workload>-<parent>.json`. Exit 0 when every run reported correct
results, 1 otherwise.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".ab"


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def export(rev):
    """The parent's tree under .ab/, exported once per commit."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout.strip()
    dest = WORK / f"parent-{sha[:12]}"
    if not (dest / "perfbench" / "run.py").is_file():
        dest.mkdir(parents=True, exist_ok=True)
        archive = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return sha[:12], dest


def run_side(root, target, workload, seed, seconds):
    """One untraced benchmark run; returns the last stdout line as JSON."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{root}: run.py printed no result (exit {proc.returncode})")
    return json.loads(lines[-1])


def generator_lag(root, workload, seed):
    """The longest generator lag (ms) of a serve-assign run, read from the
    record it left under `root`; None for the other workloads."""
    if workload != "serve-assign":
        return None
    path = root / "perfbench" / "out" / f"result-{workload}-seed{seed}-trace0.json"
    return json.loads(path.read_text())["record"]["generator_lag_max_ms"]


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def verdicts(metric, parent, change):
    """The report line, with both verdicts, of one end-to-end metric."""
    lower = metric["better"] == "lower"
    better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
    wins = sum(better(c, p) for p, c in zip(parent, change))
    losses = sum(better(p, c) for p, c in zip(parent, change))
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    iqr = pq3 - pq1
    gap = (pmed - cmed) if lower else (cmed - pmed)
    gain = wins >= math.ceil(0.9 * len(parent)) and gap > iqr
    worse = -gap / pmed if pmed else 0.0
    spread = iqr / pmed if pmed else 0.0
    if spread > metric["bound"]:
        every = all(better(c, p) for c in change for p in parent)
        bound = "holds (every run better)" if every else "unresolved"
    else:
        bound = "holds" if worse <= metric["bound"] else "BROKEN"
    return (f"{metric['name']:16} {metric['unit']:4} "
            f"parent {pmed:10.4g} [{pq1:.4g}, {pq3:.4g}]   "
            f"change {cmed:10.4g} [{cq1:.4g}, {cq3:.4g}]   "
            f"wins {wins}/{len(parent)} (losses {losses})   "
            f"{'better' if gap >= 0 else 'worse'} by {abs(100 * worse):.1f}%   "
            f"gain: {'yes' if gain else 'no'}   "
            f"bound {metric['bound']:.0%}: {bound}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r} (known: {', '.join(names)})")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    sha, parent_root = export(args.parent)
    sides = {"parent": (parent_root, WORK / "build-parent"),
             "change": (ROOT, WORK / "build-change")}
    runs = {"parent": [], "change": []}
    for k in range(args.pairs):
        seed = args.seed + k
        order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
        for side in order:
            root, target = sides[side]
            result = run_side(root, target, args.workload, seed, args.seconds)
            result["seed"] = seed
            result["generator_lag_max_ms"] = generator_lag(root, args.workload, seed)
            runs[side].append(result)
        p90 = {s: runs[s][-1]["metrics"]["latency_ms.p90"]["value"] for s in runs}
        lag = {s: runs[s][-1]["generator_lag_max_ms"] for s in runs}
        stalls = "" if lag["parent"] is None else (
            f"; generator lag max parent {lag['parent']:.4g} ms, change {lag['change']:.4g} ms")
        log(f"pair {k + 1}/{args.pairs} seed {seed} ({order[0]} first): "
            f"p90 parent {p90['parent']:.4g} ms, change {p90['change']:.4g} ms{stalls}")

    out = WORK / f"ab-{args.workload}-{sha}.json"
    out.write_text(json.dumps({"parent": sha, "workload": args.workload,
                               "seconds": args.seconds, "runs": runs}, indent=1) + "\n")
    print(f"{args.workload}: parent {sha} vs working tree, {args.pairs} pairs of "
          f"{args.seconds} s runs, seeds {args.seed}..{args.seed + args.pairs - 1}")
    for metric in bench["end_to_end"]:
        values = {s: [r["metrics"][metric["name"]]["value"] for r in runs[s]] for s in runs}
        print(verdicts(metric, values["parent"], values["change"]))
    ok = True
    for side in ("parent", "change"):
        attempted = sum(r["attempted"] for r in runs[side])
        failed = sum(r["failed"] for r in runs[side])
        ok &= all(r["correct"] for r in runs[side])
        print(f"{side} failed {failed} of {attempted} operations "
              f"({failed / max(attempted, 1):.3g}); all correct: "
              f"{all(r['correct'] for r in runs[side])}")
        lags = [r["generator_lag_max_ms"] for r in runs[side]]
        if lags[0] is not None:
            print(f"{side} generator lag max (ms): median {statistics.median(lags):.4g}, "
                  f"max {max(lags):.4g}")
    print(f"raw runs: {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
