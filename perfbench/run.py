#!/usr/bin/env python3
"""Builds and runs the streamed serving benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload citya_stream --seed 1 \
        --seconds 10 --trace 0

Workloads: citya_stream, metro_100k, cityb_read_heavy (perfbench/README.md).
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones;
--chrome-trace FILE (traced runs) also writes the flight timeline as a
Chrome trace. The first run configures and builds perfbench/ (the library
from src/ plus serving_bench.cc) into .bench_build/; later runs rebuild
incrementally. The last line of stdout is the result object printed by
serving_bench. The exit code is non-zero when the build fails, the run
fails or times out, or an output check fails.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "serving_bench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds serving_bench; build logs go to stderr."""
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "serving_bench",
                  "-j", jobs])
    for cmd in steps:
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--chrome-trace", default="")
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.SubprocessError) as err:
        print(f"build failed: {err}", file=sys.stderr)
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.chrome_trace:
        cmd += ["--chrome-trace", args.chrome_trace]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("serving_bench timed out", file=sys.stderr)
        return 1
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        well_formed = set(result) == {"correct", "attempted", "failed",
                                      "metrics"}
    except (IndexError, ValueError):
        well_formed = False
    sys.stdout.write(run.stdout)
    if run.returncode != 0 or not well_formed:
        print(f"serving_bench failed (exit {run.returncode})", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
