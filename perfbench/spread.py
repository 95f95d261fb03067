#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs perfbench/run.py once per seed on each named workload and prints, per
metric, the median of the runs and the distance between their first and
third quartiles (statistics.quantiles, n=4) as a share of that median, next
to the metric's bound from BENCHMARK.json. Run from the repository root:

  python3 perfbench/spread.py quick miss16

Each workload runs once at each of the seeds 1..10.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SEEDS = range(1, 11)


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="+")
    args = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        for seed in SEEDS:
            result = run_once(workload, seed, spec["run_seconds"])
            ok = ok and result["correct"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print("%s seed %d: %s" % (
                workload, seed,
                " ".join("%s=%.6g" % (n, v[-1]) for n, v in values.items())),
                flush=True)
        for name, v in values.items():
            q1, median, q3 = statistics.quantiles(v, n=4)
            share = (q3 - q1) / median
            print("%-12s %-14s median %-12.6g spread %6.2f%%  bound %5.1f%%"
                  % (workload, name, median, 100 * share,
                     100 * bounds[name]), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
