#!/usr/bin/env python3
"""The repository benchmark: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the perfbench binary from the checkout's sources (the first run builds
the library too), then runs it. With --trace 0 the S seconds are split over
PROCESSES processes of it, one after another, and every end-to-end metric is
the median over them: kernel calibration, and with it the plan, is measured
once per process, and so is set-up. With --trace 1 one process measures for
S seconds. The last line of stdout is one JSON object: {"correct",
"attempted", "failed", "metrics"}. Workloads and metrics are described in
perfbench/WORKLOADS.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("twopath-mm", "star-mm", "twopath-wcoj", "service-mix")
# Measuring processes per end-to-end run.
PROCESSES = 4
BUILD_TIMEOUT_S = 800
RUN_SLACK_S = 100


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build(out_dir):
    """Configures (once) and builds the binary; build output goes to stderr."""
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", out_dir, "-j", "4"],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return os.path.join(out_dir, "perfbench")


def run_binary(binary, args, timeout):
    """Runs the binary; returns (its stdout lines before the result, result)."""
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True,
                          timeout=timeout, check=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("perfbench printed no result")
    return lines[:-1], json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    binary = build(build_dir())
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--trace", str(args.trace)]
    processes = PROCESSES if args.trace == 0 else 1
    seconds = args.seconds / processes
    results = []
    for _ in range(processes):
        lines, r = run_binary(binary, common + ["--seconds", repr(seconds)],
                              seconds + RUN_SLACK_S)
        for line in lines:
            print(line)
        results.append(r)

    result = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {},
    }
    for name, m in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        result["metrics"][name] = {"value": statistics.median(values),
                                   "unit": m["unit"]}
        if processes > 1:
            print("%s per process: %s" % (
                name, " ".join("%.6g" % v for v in values)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.SubprocessError, OSError, RuntimeError, ValueError,
            KeyError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        sys.exit(1)
