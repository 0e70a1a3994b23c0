#!/usr/bin/env python3
"""Build bench_e2e from source and run one workload.

    python3 bench/e2e/run.py --workload sim_kernels --seed 1 --seconds 10 --trace 0

Run from the repository root. The build directory is $CARGO_TARGET_DIR if
set, else .bench_build, relative to the current directory; bench_e2e writes
BENCH_e2e_<W>.json (and TRACE_e2e_<W>.json with --trace 1) into its
results/ subdirectory. Build output goes to stderr, so the last line of
stdout is bench_e2e's JSON result. The exit code is bench_e2e's, or 2 when
the build fails and 3 when the run exceeds its time limit.

Extra arguments after the known ones (--quick, --list) pass through.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build(build_dir):
    """Configure and build bench_e2e (a no-op when up to date); return its
    path."""
    # A few compile jobs at most: the host may be shared.
    jobs = min(len(os.sched_getaffinity(0)), 4)
    steps = [["cmake", "-S", str(HERE), "-B", str(build_dir),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(build_dir), "--target", "bench_e2e",
              "-j", str(jobs)]]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.stderr.write("run.py: build failed: %s\n" % " ".join(cmd))
            sys.exit(2)
    return build_dir / "bench_e2e"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = ap.parse_known_args()

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    exe = build(build_dir)
    cmd = [str(exe)] + extra
    if "--list" not in extra:
        if not args.workload:
            ap.error("--workload is required")
        results = build_dir / "results"
        results.mkdir(parents=True, exist_ok=True)
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--out", str(results)]
        if args.trace:
            cmd += ["--trace",
                    str(results / ("TRACE_e2e_%s.json" % args.workload))]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: bench_e2e exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
