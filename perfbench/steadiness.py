#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

    python3 perfbench/steadiness.py [--workloads a,b] [--seeds 1,2,...]
                                    [--sets 1|2] [--seconds S]

Runs perfbench/run.py once per seed on each workload (tracing off), then
prints, per end-to-end metric, the median and the spread between the first
and third quartile as a share of the median, against the bound fixed in
BENCHMARK.json. A spread above a third of the bound is flagged as not
steady. When the runs of a workload picked different plans (the "plan:"
lines the benchmark prints), the plan change is named as the cause instead of
calling the spread noise. With --sets 2 the seeds run twice and the second
set's medians are compared with the first's, against the same bounds.
Run it from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    # Plan records without their execution counts: which plans ran.
    plans = tuple(sorted(line.rsplit(" x", 1)[0] for line in lines
                         if line.startswith("plan: ")))
    return result, plans


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def check_set(bench, workload, seeds, seconds):
    runs = []
    for seed in seeds:
        result, plans = run_once(workload, seed, seconds)
        runs.append((seed, result, plans))
        m = result["metrics"]
        print("  seed %d: correct=%s failed=%d/%d %s" % (
            seed, result["correct"], result["failed"], result["attempted"],
            " ".join("%s=%.4g %s" % (k, v["value"], v["unit"])
                     for k, v in m.items())),
            flush=True)
    ok = all(r["correct"] and r["failed"] == 0 for _, r, _ in runs)
    medians = {}
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [r["metrics"][name]["value"] for _, r, _ in runs]
        med, rel = spread(values)
        medians[name] = med
        flag = "ok" if rel <= bound / 3 else (
            "NOT STEADY" if rel <= bound else "OVER BOUND")
        if name == "setup_s" and rel > bound / 3:
            flag += " (setup_s spread is not gated)"
        print("  %-18s median %-12.5g spread %6.2f%% bound %5.1f%% %s" % (
            name, med, rel * 100, bound * 100, flag))
    distinct = {}
    for seed, _, plans in runs:
        distinct.setdefault(plans, []).append(seed)
    if len(distinct) > 1:
        print("  plans differ across runs; spread is caused by plan changes:")
        for plans, plan_seeds in distinct.items():
            print("    seeds %s:" % ",".join(map(str, plan_seeds)))
            for p in plans:
                print("      " + p)
    return ok, medians


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    all_ok = True
    for workload in args.workloads.split(","):
        sets = []
        for i in range(args.sets):
            print("%s, set %d:" % (workload, i + 1), flush=True)
            ok, medians = check_set(bench, workload, seeds, args.seconds)
            all_ok &= ok
            sets.append(medians)
        if len(sets) == 2:
            for name, m in bounds.items():
                a, b = sets[0][name], sets[1][name]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                verdict = "ok" if worse <= m["bound"] else "WORSE THAN BOUND"
                print("  %-18s set 2 vs set 1: %+6.2f%% worse (bound %.0f%%) %s"
                      % (name, worse * 100, m["bound"] * 100, verdict))
    print("answers correct on every run" if all_ok else "SOME RUNS FAILED")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
