#!/usr/bin/env python3
"""Builds the benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload <scan_1m|churn_remote> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The first run configures and builds the
library and the benchmark binary under .bench_build/; later runs rebuild
incrementally.  Build output goes to stderr.

Standard output: the binary's human-readable lines (host fingerprint,
sizes, every metric with its unit, layer self times), then one JSON line
with `correct`, `attempted`, `failed` and `metrics`.  The metrics are the
`end_to_end` list of BENCHMARK.json for --trace 0 and the `per_layer` list
for --trace 1.  A failed correctness check drops the metrics and exits 1.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "qse_perfbench")
# Per-run scratch files (churn_remote's write-ahead logs); the binary
# removes its own, this catches a run that died.
RUN_DIR = os.path.join(ROOT, ".bench_run")
# Below the 180 s a run may take, so a hung run still ends in time.
RUN_TIMEOUT_S = 170


def build():
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "qse_perfbench",
         "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        sys.exit("perfbench: unknown workload %r (have %s)" %
                 (args.workload, ", ".join(names)))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    try:
        run = subprocess.run(
            [BINARY, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: the run did not finish in %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(RUN_DIR, ignore_errors=True)
    lines = run.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit("perfbench: the benchmark ended without a result (exit %d)" %
                 run.returncode)
    if run.returncode != 0 or not result["correct"]:
        for failure in result.get("failures", []):
            print("perfbench: check failed: " + failure, file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": result["attempted"],
                          "failed": result["failed"], "metrics": {}}))
        sys.exit(1)

    metrics = {}
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            sys.exit("perfbench: the run did not report %s in %s" %
                     (metric["name"], metric["unit"]))
        metrics[metric["name"]] = got
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
