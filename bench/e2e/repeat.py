#!/usr/bin/env python3
"""Repeat bench_e2e runs and judge their spread, or compare two builds.

Default mode runs every workload --runs times (default 5) and prints, for
each (workload, metric), the median and quartiles. It flags a measured
metric whose spread (q3 - q1) / median exceeds its bound, and a modeled or
count metric that differs at all between runs of one seed. With
--vary-seeds each run takes another seed (base, base + 1, ...), as a
regression gate would; modeled metrics are then held to their bound too.

    python3 bench/e2e/repeat.py --runs 5
    python3 bench/e2e/repeat.py --runs 10 --vary-seeds --save first.json
    python3 bench/e2e/repeat.py --runs 10 --vary-seeds --baseline first.json

--baseline FILE compares each median with the one a --save run stored and
flags any metric worse than it by more than its bound. This mode also
checks that ./BENCHMARK.json lists the metrics, units, directions and
bounds `bench_e2e --list` prints.

A/B mode alternates two bench_e2e binaries (parent and change) over
--pairs seeds, swapping which side runs first, and applies the
choosing-metrics rule: a gain needs the change to win at least 9 of 10
pairs and the medians to differ by more than the parent's own quartile
spread.

    python3 bench/e2e/repeat.py --a parent/bench_e2e --b change/bench_e2e --pairs 10

Each metric is reported improved, regressed, unchanged or unresolved.
Without --bin (or --a/--b) the binary is built with run.py's build step.
Standard library only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import run

WORKLOADS = ["sim_kernels", "stream_staging", "serve_open", "fit_sweep"]


def registry(exe):
    out = subprocess.run([str(exe), "--list"], stdout=subprocess.PIPE,
                         text=True, check=True).stdout
    return {m["name"]: m for m in map(json.loads, out.splitlines())}


def manifest_drift(reg):
    """Names whose entry in ./BENCHMARK.json differs from --list."""
    path = Path("BENCHMARK.json")
    if not path.exists():
        return []
    doc = json.loads(path.read_text())
    listed = {m["name"]: m for m in doc["end_to_end"] + doc["per_layer"]}
    drift = sorted(listed.keys() ^ reg.keys())
    for name in listed.keys() & reg.keys():
        m, d = listed[name], reg[name]
        if (m["unit"], m["better"], m.get("bound", 0)) != \
                (d["unit"], d["better"], d["bound"]):
            drift.append(name)
    for name in drift:
        print("repeat.py: BENCHMARK.json and --list disagree on %s" % name)
    return drift


def run_once(exe, workload, seed, seconds, trace, out_dir):
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--out", str(out_dir)]
    if trace:
        cmd += ["--trace", str(out_dir / ("TRACE_e2e_%s.json" % workload))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=run.RUN_TIMEOUT_S, check=False)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.exit("repeat.py: %s seed %d failed (exit %d)"
                 % (workload, seed, proc.returncode))
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def worse_by(base, new, higher):
    """Share by which `new` is worse than `base` (negative = better)."""
    if not base:
        return 0.0
    return (base - new) / abs(base) if higher else (new - base) / abs(base)


def repeat(args, exe, reg, out_dir):
    results = {}
    flagged = 0
    for w in args.workloads:
        runs = []
        for i in range(args.runs):
            seed = args.seed + (i if args.vary_seeds else 0)
            runs.append(run_once(exe, w, seed, args.seconds, args.trace,
                                 out_dir))
        results[w] = {m: [r[m] for r in runs] for m in runs[0]}
        print("== %s: %d runs, %s ==" % (
            w, args.runs, "seeds %d.." % args.seed if args.vary_seeds
            else "seed %d" % args.seed))
        print("  %-34s %-9s %6s %14s %14s %14s %8s" % (
            "metric", "kind", "bound", "q1", "median", "q3", "spread"))
        for m, values in results[w].items():
            d = reg[m]
            q1, q2, q3 = quartiles(values)
            s = spread(values)
            flag = ""
            exact = d["kind"] != "measured" and not args.vary_seeds
            if exact and len(set(values)) > 1:
                flag = "DIFFERS"
            elif d["scope"] == "end_to_end" and m != "setup_s" \
                    and s > d["bound"]:
                flag = "SPREAD > BOUND"
            flagged += bool(flag)
            print("  %-34s %-9s %6g %14.6g %14.6g %14.6g %7.2f%% %s" % (
                m, d["kind"], d["bound"], q1, q2, q3, 100 * s, flag))
    if args.baseline:
        base = json.loads(Path(args.baseline).read_text())
        print("== against %s ==" % args.baseline)
        for w, metrics in results.items():
            for m, values in metrics.items():
                d = reg[m]
                if d["scope"] != "end_to_end" or m not in base.get(w, {}):
                    continue
                worse = worse_by(statistics.median(base[w][m]),
                                 statistics.median(values),
                                 d["better"] == "higher")
                flag = "WORSE THAN BOUND" if worse > d["bound"] else "ok"
                flagged += flag != "ok"
                print("  %-16s %-34s %+8.2f%% (bound %g%%) %s" % (
                    w, m, 100 * worse, 100 * d["bound"], flag))
    if args.save:
        Path(args.save).write_text(json.dumps(results, indent=1))
    return flagged


def verdict(a, b, d):
    """Classify change `b` against parent `a` (lists of paired values)."""
    higher = d["better"] == "higher"
    better = (lambda x, y: x > y) if higher else (lambda x, y: x < y)
    wins_b = sum(better(y, x) for x, y in zip(a, b))
    wins_a = sum(better(x, y) for x, y in zip(a, b))
    q1, ma, q3 = quartiles(a)
    mb = statistics.median(b)
    clear = abs(mb - ma) > q3 - q1
    if wins_b >= 0.9 * len(a) and clear:
        return "improved"
    if wins_a >= 0.9 * len(a) and clear:
        return "regressed"
    bound = d["bound"] if d["scope"] == "end_to_end" else 0.0
    if worse_by(ma, mb, higher) > bound:
        return "regressed"
    if spread(a) > bound and not all(better(y, x) for x in a for y in b):
        return "unresolved"
    return "unchanged"


def ab(args, reg, out_dir):
    regressed = 0
    for w in args.workloads:
        a_runs, b_runs = [], []
        for i in range(args.pairs):
            seed = args.seed + i
            order = [(args.a, a_runs), (args.b, b_runs)]
            for exe, sink in (order if i % 2 == 0 else order[::-1]):
                sink.append(run_once(exe, w, seed, args.seconds, args.trace,
                                     out_dir))
        print("== %s: %d pairs ==" % (w, args.pairs))
        print("  %-34s %14s %14s %8s  %s" % (
            "metric", "median A", "median B", "B vs A", "verdict"))
        for m in a_runs[0]:
            a = [r[m] for r in a_runs]
            b = [r[m] for r in b_runs]
            v = verdict(a, b, reg[m])
            regressed += v == "regressed"
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / abs(ma) if ma else 0.0
            print("  %-34s %14.6g %14.6g %+7.2f%%  %s" % (
                m, ma, mb, 100 * change, v))
    return regressed


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1, help="first seed")
    ap.add_argument("--vary-seeds", action="store_true")
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", action="store_true",
                    help="traced runs (per-layer metrics)")
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--bin", help="bench_e2e binary (default: build it)")
    ap.add_argument("--save", help="store the runs' values as JSON")
    ap.add_argument("--baseline", help="a --save file to compare against")
    ap.add_argument("--a", help="parent bench_e2e binary (A/B mode)")
    ap.add_argument("--b", help="change bench_e2e binary (A/B mode)")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()
    args.workloads = args.workloads.split(",")

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    out_dir = build_dir / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.a or args.b:
        if not (args.a and args.b):
            ap.error("A/B mode needs both --a and --b")
        return 1 if ab(args, registry(args.b), out_dir) else 0
    exe = Path(args.bin) if args.bin else run.build(build_dir)
    reg = registry(exe)
    drift = manifest_drift(reg)
    return 1 if repeat(args, exe, reg, out_dir) or drift else 0


if __name__ == "__main__":
    sys.exit(main())
