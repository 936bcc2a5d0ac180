#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the krsp serving stack.

Builds perfbench/ (the repository's libraries from src/ plus the
krsp_perfbench program, Release) into .bench_build/perfbench, then runs one
workload and passes its output through. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke                 # seconds-long check
    python3 perfbench/run.py --steadiness [--runs 10] [--workload NAME]

--smoke runs every workload, traced and untraced, on tiny inputs and
checks the result line against BENCHMARK.json. --steadiness runs each
workload with seeds 1..runs and prints, per end-to-end metric, the median,
the quartile spread as a share of the median, and the metric's bound.
See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "krsp_perfbench")
CORPUS = os.path.join(ROOT, "data", "corpus")
RUN_TIMEOUT_S = 175
TMP_DIR = os.path.join(BUILD_DIR, "tmp")
# OMP_NUM_THREADS is pinned so the reference solves never size an OpenMP
# team from the host; TMPDIR keeps compiler temporaries in the checkout.
ENV = dict(os.environ, OMP_NUM_THREADS="1", TMPDIR=TMP_DIR)


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    os.makedirs(TMP_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT, env=ENV).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def run_workload(workload, seed, seconds, trace, smoke=False):
    """Runs krsp_perfbench once; returns (stdout lines, parsed result)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--corpus", CORPUS]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          cwd=ROOT, env=ENV, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit("perfbench: %s exited with %d" % (workload, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def smoke():
    """Every workload, untraced and traced, on tiny inputs."""
    spec = load_spec()
    names = {0: [m["name"] for m in spec["end_to_end"]],
             1: [m["name"] for m in spec["per_layer"]]}
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            _, result = run_workload(w["name"], 1, 1, trace, smoke=True)
            where = "%s trace=%d" % (w["name"], trace)
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(where + ": result keys " + str(sorted(result)))
                continue
            if not result["correct"] or result["failed"] != 0:
                problems.append(where + ": incorrect or failed requests")
            if result["attempted"] < 1:
                problems.append(where + ": nothing attempted")
            if sorted(result["metrics"]) != sorted(names[trace]):
                problems.append(where + ": metric names differ from "
                                "BENCHMARK.json")
            print("smoke %-16s trace=%d attempted=%d failed=%d ok" %
                  (w["name"], trace, result["attempted"], result["failed"]))
    for p in problems:
        print("smoke FAIL " + p)
    return 1 if problems else 0


def steadiness(runs, only):
    """Seeds 1..runs per workload: median, quartile spread, bound."""
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for w in spec["workloads"]:
        if only and w["name"] != only:
            continue
        values = {}
        for seed in range(1, runs + 1):
            _, result = run_workload(w["name"], seed, spec["run_seconds"], 0)
            if not result["correct"] or result["failed"]:
                print("%s seed %d: incorrect result" % (w["name"], seed))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            worst = max(worst, spread / bounds[name])
            print(json.dumps({"workload": w["name"], "metric": name,
                              "median": med, "spread": round(spread, 4),
                              "bound": bounds[name], "runs": len(vals),
                              "values": vals}))
    print(json.dumps({"worst_spread_over_bound": round(worst, 4)}))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()

    build()
    if args.smoke:
        return smoke()
    if args.steadiness:
        return steadiness(args.runs, args.workload)
    if not args.workload:
        parser.error("--workload is required")
    lines, _ = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
