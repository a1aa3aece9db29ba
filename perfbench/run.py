#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root.  Builds the simulator and the benchmark from
source into .bench_build/ (Release), runs the named workload, and prints as
its last line one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with
--trace 1 its per_layer metrics, each as {"value", "unit"}.  Exits non-zero,
without a result line, when the build or the run fails.

--selftest builds and runs the benchmark's own tests (tiny inputs).
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD_DIR = os.path.join(".bench_build", "cmake")
TRACE_DIR = os.path.join(".bench_build", "traces")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(target):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", target, "-j", jobs],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log("perfbench: build step failed: " + " ".join(cmd))
            return False
    return True


def metric_table(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec[kind]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    target = "perfbench_test" if args.selftest else "perfbench"
    if not build(target):
        return 1
    exe = os.path.join(BUILD_DIR, target)
    if args.selftest:
        return subprocess.run([exe]).returncode

    table = metric_table("per_layer" if args.trace else "end_to_end")
    os.makedirs(TRACE_DIR, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", TRACE_DIR]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out")
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        log("perfbench: the measuring program failed (exit %d)" % proc.returncode)
        return 1
    print("\n".join(lines[:-1]), flush=True)
    raw = json.loads(lines[-1])
    missing = [name for name, _ in table if name not in raw["metrics"]]
    if missing:
        log("perfbench: no value for " + ", ".join(missing))
        return 1
    result = {
        "correct": bool(raw["correct"]),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {name: {"value": raw["metrics"][name], "unit": unit}
                    for name, unit in table},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
