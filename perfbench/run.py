#!/usr/bin/env python3
"""Build the termcheck benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload analyze-seq --seed 1 --seconds 30 \
        --trace 0

Workloads: analyze-seq, portfolio-race, daemon-batch (see BENCHMARK.json and
perfbench/README.md). The first run configures and builds the libraries,
termcheckd and the driver with CMake under $CARGO_TARGET_DIR (default
.bench_build); later runs only check that the build is up to date.

The last line of standard output is the result JSON object. The exit code is
nonzero, with no result line, when the build or the run fails, and nonzero
with `"correct": false` when any task got a wrong or unchecked verdict.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("analyze-seq", "portfolio-race", "daemon-batch")
BUILD_TIMEOUT_S = 850
RUN_GRACE_S = 150


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    """Configure, then bring the driver and termcheckd up to date."""
    cmake_dir = os.path.join(out, "cmake")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", cmake_dir,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", cmake_dir, "-j", jobs,
              "--target", "termbench", "termcheckd"]]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    return cmake_dir


def check_schema(result, traced):
    """The printed metric names must be exactly those BENCHMARK.json lists."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return
    with open(path) as f:
        spec = json.load(f)
    listed = spec["per_layer"] if traced else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want != got:
        raise SystemExit("perfbench: metrics differ from BENCHMARK.json: "
                         f"missing {sorted(set(want) - set(got))}, "
                         f"extra {sorted(set(got) - set(want))}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out = build_dir()
    try:
        cmake_dir = build(out)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            FileNotFoundError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [os.path.join(cmake_dir, "termbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--out", os.path.join(out, "results"),
           "--daemon", os.path.join(cmake_dir, "termcheckd")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + RUN_GRACE_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        print(f"perfbench: driver exited with {proc.returncode}",
              file=sys.stderr)
        return proc.returncode or 3
    result = json.loads(lines[-1])
    check_schema(result, args.trace == 1)
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
