#!/usr/bin/env python3
"""mcsim's host-speed benchmark.

Builds libmcsim exactly as the repository's default CMake build does
(RelWithDebInfo unless the top-level CMakeLists.txt says otherwise), builds
the perfbench program against it, runs one workload single-threaded in its
own process for a wall-clock budget, checks the outputs and prints every
metric by name with its unit. The last line of stdout is the result:

  {"correct": true, "attempted": 84, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list (and a Chrome trace-event file is written
under .bench_build/). Run it from the repository root:

  python3 perfbench/run.py --workload quick --seed 0 --seconds 30 --trace 0

Seed 0 is the canonical input (the golden-pinned seeds); any other seed
regenerates every workload's input from it.
"""

import argparse
import json
import math
import os
import re
import shlex
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
LIB_BUILD = os.path.join(BUILD, "mcsim")
BENCH_BUILD = os.path.join(BUILD, "perfbench")
HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def logged(cmd, timeout=850):
    """Run a build step, its output going to .bench_build/build.log."""
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "ab") as log:
        log.write(("$ " + shlex.join(cmd) + "\n").encode())
        log.flush()
        result = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                timeout=timeout, check=False)
    if result.returncode != 0:
        with open(log_path, "rb") as log:
            tail = log.read().decode(errors="replace").splitlines()[-40:]
        print("\n".join(tail), file=sys.stderr)
        fail("build step failed: " + shlex.join(cmd))


def cache_value(cache_path, name):
    try:
        with open(cache_path, encoding="utf-8") as cache:
            for line in cache:
                if line.startswith(name + ":"):
                    return line.rstrip("\n").split("=", 1)[1]
    except OSError:
        pass
    return None


def provenance():
    """Compiler and flags the library was actually compiled with, read from
    the build's compile database."""
    with open(os.path.join(LIB_BUILD, "compile_commands.json"),
              encoding="utf-8") as f:
        entries = json.load(f)
    entry = next((e for e in entries
                  if e["file"].endswith("src/sim/event_queue.cc")), None)
    if entry is None:
        fail("compile database has no entry for src/sim/event_queue.cc")
    args = (entry["arguments"] if "arguments" in entry
            else shlex.split(entry["command"]))
    flags = [a for a in args[1:]
             if re.match(r"-(O|g|f|m|DNDEBUG$)", a) and a != "-fPIC"]
    version = subprocess.run([args[0], "--version"], capture_output=True,
                             text=True, check=False).stdout.splitlines()
    cache = os.path.join(LIB_BUILD, "CMakeCache.txt")
    build_type = cache_value(cache, "CMAKE_BUILD_TYPE") or ""
    return {
        "compiler": args[0],
        "compiler_version": version[0] if version else "unknown",
        "build_type": build_type or "(top-level default)",
        "sanitize": cache_value(cache, "MCSIM_SANITIZE") or "",
        "flags": flags,
    }


def refuse_unoptimized(prov):
    levels = [f[2:] for f in prov["flags"] if f.startswith("-O")]
    optimized = bool(levels) and levels[-1] not in ("0", "g")
    if prov["build_type"] == "Debug" or not optimized:
        fail("refusing to measure an unoptimized build (flags: %s)"
             % " ".join(prov["flags"]))
    if prov["sanitize"] or any(f.startswith("-fsanitize")
                               for f in prov["flags"]):
        fail("refusing to measure a sanitizer build (flags: %s)"
             % " ".join(prov["flags"]))


def build():
    """Configure and build the library (repository build) and perfbench;
    incremental after the first run. Returns (executable, provenance)."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))):
        fail("run from the root of an mcsim checkout (no src/ here)")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(LIB_BUILD, "CMakeCache.txt")):
        logged(["cmake", "-S", ROOT, "-B", LIB_BUILD])
    logged(["cmake", "--build", LIB_BUILD, "--target", "mcsim", "-j", jobs])
    prov = provenance()
    refuse_unoptimized(prov)

    flags = " ".join(prov["flags"])
    bench_cache = os.path.join(BENCH_BUILD, "CMakeCache.txt")
    if cache_value(bench_cache, "CMAKE_CXX_FLAGS") != flags:
        logged(["cmake", "-S", HERE, "-B", BENCH_BUILD,
                "-DCMAKE_BUILD_TYPE=",
                "-DCMAKE_CXX_COMPILER=" + prov["compiler"],
                "-DCMAKE_CXX_FLAGS=" + flags,
                "-DMCSIM_SOURCE_DIR=" + ROOT,
                "-DMCSIM_LIBRARY=" + os.path.join(LIB_BUILD, "src",
                                                  "libmcsim.a")])
    logged(["cmake", "--build", BENCH_BUILD, "-j", jobs])
    return os.path.join(BENCH_BUILD, "perfbench"), prov


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as err:
        fail("cannot read BENCHMARK.json: %s" % err)


def trace_file_ok(path):
    try:
        with open(path, encoding="utf-8") as f:
            events = json.load(f)["traceEvents"]
        return bool(events) and all(e["ph"] == "X" for e in events)
    except (OSError, ValueError, KeyError, TypeError):
        return False


def measure(workload, seed, seconds, trace):
    """Build, run one workload, and check it. Returns (document, result):
    the perfbench program's full document and the result-line object."""
    spec = load_spec()
    if workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload '%s'" % workload)
    exe, prov = build()
    trace_path = os.path.join(BUILD, "trace-%s-s%d.json" % (workload, seed))
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds),
           "--golden-dir", os.path.join(ROOT, "tests", "golden")]
    if trace:
        cmd += ["--trace-out", trace_path]
        if os.path.exists(trace_path):
            os.remove(trace_path)  # a stale file must not pass the check
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                          check=False)
    if proc.returncode != 0:
        fail("perfbench exited with %d" % proc.returncode)
    doc = json.loads(proc.stdout)
    doc["provenance"] = prov

    wanted = spec["per_layer" if trace else "end_to_end"]
    correct = doc["failed"] == 0 and not doc["errors"]
    metrics = {}
    for m in wanted:
        got = doc["metrics"].get(m["name"])
        if (got is None or got["unit"] != m["unit"]
                or not math.isfinite(got["value"])
                or (not trace and got["value"] <= 0)):
            print("perfbench: metric %s missing or invalid: %r"
                  % (m["name"], got), file=sys.stderr)
            correct = False
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    if trace and not trace_file_ok(trace_path):
        print("perfbench: trace file %s does not load" % trace_path,
              file=sys.stderr)
        correct = False
    doc["trace_file"] = trace_path if trace else None
    result = {"correct": correct, "attempted": doc["attempted"],
              "failed": doc["failed"], "metrics": metrics}
    return doc, result


def print_report(doc, result):
    prov = doc["provenance"]
    print("mcsim perfbench: workload %s, seed %s, %d untraced + %d traced "
          "repetitions of %d items"
          % (doc["workload"], doc["seed"], doc["reps"], doc["traced_reps"],
             doc["items"]))
    print("build: %s (%s), build type %s, flags %s"
          % (prov["compiler"], prov["compiler_version"], prov["build_type"],
             " ".join(prov["flags"])))
    print("exact counts (one repetition):")
    for name, value in doc["counts"].items():
        if value:
            print("  %-34s %d" % (name, value))
    print("fail_frac: %d / %d" % (doc["failed"], doc["attempted"]))
    for err in doc["errors"]:
        print("  error: " + err.strip().replace("\n", "\n         "))
    print("%-30s %16s %16s %16s %4s %s"
          % ("metric", "value", "q1", "q3", "n", "unit"))
    for name, m in doc["metrics"].items():
        if name in result["metrics"]:
            print("%-30s %16.6g %16.6g %16.6g %4d %s"
                  % (name, m["value"], m.get("q1", m["value"]),
                     m.get("q3", m["value"]), m.get("n", 1), m["unit"]))
    if doc.get("trace_file"):
        print("trace: " + doc["trace_file"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    doc, result = measure(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print_report(doc, result)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
