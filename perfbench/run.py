#!/usr/bin/env python3
"""Build the repository benchmark and run one measurement.

Run from the root of a checkout:

    python3 perfbench/run.py --workload scale-1m --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --known-defects --seed 1

A measurement builds `perfbench` from the checkout's sources into
.bench_build/ (incremental after the first run), runs it, appends the
full record (metrics, details, host provenance, span self times) to
.bench_results/results.jsonl, and prints as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1). A per-layer metric of a module the
workload does not load reads 0. A traced run also writes its spans to
.bench_results/trace-<workload>-seed<n>.json (Chrome trace-event JSON).
"""

import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
TMP_DIR = os.path.join(ROOT, ".bench_build", "tmp")
RESULTS_DIR = os.path.join(ROOT, ".bench_results")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def child_env():
    # Keep compiler and program scratch files inside the checkout.
    os.makedirs(TMP_DIR, exist_ok=True)
    return dict(os.environ, TMPDIR=TMP_DIR)


def fail(message, code=1):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources under src/; run from a full checkout", 3)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(ROOT, ".bench_build", "build.log")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, cwd=ROOT, stdout=log, env=child_env(),
                              stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed; full log in .bench_build/build.log")


def git_revision():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def run_binary(extra):
    try:
        proc = subprocess.run([BINARY] + extra, cwd=ROOT, env=child_env(),
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
    return proc


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that corrupted outputs count as failures")
    parser.add_argument("--known-defects", action="store_true",
                        help="measure the recorded known defects at --seed")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()

    if args.self_test or args.known_defects:
        flags = (["--self-test"] if args.self_test else
                 ["--known-defects", "--seed", str(args.seed)])
        proc = run_binary(flags)
        sys.stdout.write(proc.stdout)
        sys.exit(proc.returncode)

    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"--workload must be one of {', '.join(names)}", 2)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    flags = ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(seconds), "--trace", str(args.trace),
             "--work-dir", WORK_DIR]
    if args.trace:
        flags += ["--trace-out", os.path.join(
            RESULTS_DIR, f"trace-{args.workload}-seed{args.seed}.json")]
    proc = run_binary(flags)
    if proc.returncode != 0:
        fail(f"perfbench exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("perfbench printed no record")
    record = json.loads(lines[-1])
    record["host"]["git_revision"] = git_revision()
    with open(os.path.join(RESULTS_DIR, "results.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value = record["metrics"].get(m["name"])
        if value is None and args.trace:
            value = 0.0  # the workload does not load this module
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{args.workload} measured no finite {m['name']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    for problem in record.get("problems", []):
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
