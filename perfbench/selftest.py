#!/usr/bin/env python3
"""Self-test of the benchmark.

For each workload: two traced runs at the canonical seed must report
identical exact counts, pass their correctness checks and print every
per_layer metric of BENCHMARK.json; one untraced run at a held-out seed
must pass and print every end_to_end metric. Run from the repository root:

  python3 perfbench/selftest.py [workload ...]

Exits 0 when every check holds.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (perfbench/run.py)

# A seed no tuning run used; the golden comparison applies only at seed 0.
HELD_OUT_SEED = 20261016


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()
    spec = run.load_spec()
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    problems = []
    for workload in workloads:
        docs = []
        for attempt in (1, 2):
            doc, result = run.measure(workload, 0, 1, trace=True)
            docs.append(doc)
            if not result["correct"]:
                problems.append("%s traced run %d not correct: %s"
                                % (workload, attempt, doc["errors"]))
            missing = ({m["name"] for m in spec["per_layer"]}
                       - set(result["metrics"]))
            if missing:
                problems.append("%s traced run lacks %s"
                                % (workload, sorted(missing)))
            json.dumps(result)  # the result line must serialize
        if docs[0]["counts"] != docs[1]["counts"]:
            diff = {k: (v, docs[1]["counts"].get(k))
                    for k, v in docs[0]["counts"].items()
                    if docs[1]["counts"].get(k) != v}
            problems.append("%s exact counts differ between runs: %s"
                            % (workload, diff))
        doc, result = run.measure(workload, HELD_OUT_SEED, 1,
                                  trace=False)
        if not result["correct"] or result["failed"]:
            problems.append("%s held-out seed %d: %d of %d failed: %s"
                            % (workload, HELD_OUT_SEED,
                               result["failed"], result["attempted"],
                               doc["errors"]))
        missing = ({m["name"] for m in spec["end_to_end"]}
                   - set(result["metrics"]))
        if missing:
            problems.append("%s untraced run lacks %s"
                            % (workload, sorted(missing)))
        print("%s: checked (events %d, schedules %d)"
              % (workload, docs[0]["counts"]["sim_events"],
                 docs[0]["counts"]["mc_schedules"]), flush=True)
    for p in problems:
        print("FAIL: " + p)
    print("selftest: %s" % ("ok" if not problems else
                            "%d problem(s)" % len(problems)))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
