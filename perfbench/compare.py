#!/usr/bin/env python3
"""Compare two sets of benchmark results, or traced against untraced runs.

    python3 perfbench/compare.py BASE NEW
    python3 perfbench/compare.py --overhead RESULTS

BASE, NEW and RESULTS are results.jsonl files written by perfbench/run.py
(or directories holding one). For each workload x metric the table gives
the run count, median and quartiles of each side (statistics.quantiles,
n=4), then a verdict for end-to-end metrics against their bound in
BENCHMARK.json:

  unresolved  one side's quartile spread, as a share of its median, is
              wider than the bound, and not every NEW run beats every
              BASE run
  worse       NEW's median is worse than BASE's by more than the bound
  better      NEW's median is better by more than BASE's own spread, or
              every NEW run beats every BASE run
  same        otherwise

End-to-end metrics come from untraced runs and per-layer metrics from
traced runs; per-layer metrics have no bound and get no verdict.
--overhead sets the medians of the traced runs' end-to-end numbers
against the untraced runs' in one results file: the tracing overhead.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    if os.path.isdir(path):
        path = os.path.join(path, "results.jsonl")
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def values(records, workload, metric, traced):
    return [r["metrics"][metric] for r in records
            if r["workload"] == workload and bool(r["trace"]) == traced
            and isinstance(r["metrics"].get(metric), (int, float))]


def quartiles(v):
    if len(v) == 1:
        return v[0], v[0], v[0]
    q1, med, q3 = statistics.quantiles(v, n=4)
    return q1, med, q3


def spread(v):
    q1, med, q3 = quartiles(v)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base, new, bound, better):
    sign = -1.0 if better == "lower" else 1.0
    all_better = all(sign * n > sign * b for n in new for b in base)
    if all_better:
        return "better"
    if max(spread(base), spread(new)) > bound:
        return "unresolved"
    b_med = statistics.median(base)
    n_med = statistics.median(new)
    change = sign * (n_med - b_med) / abs(b_med) if b_med else 0.0
    if change < -bound:
        return "worse"
    if change > spread(base):
        return "better"
    return "same"


def fmt(v):
    if not v:
        return "-"
    q1, med, q3 = quartiles(v)
    return f"{med:.6g} [{q1:.4g}, {q3:.4g}] n={len(v)}"


def workloads_of(*record_sets):
    seen = []
    for records in record_sets:
        for r in records:
            if r["workload"] not in seen:
                seen.append(r["workload"])
    return seen


def compare(spec, base, new):
    rows = [("workload", "metric", "base median [q1, q3]",
             "new median [q1, q3]", "verdict")]
    for workload in workloads_of(base, new):
        for traced, metrics in ((False, spec["end_to_end"]),
                                (True, spec["per_layer"])):
            for m in metrics:
                b = values(base, workload, m["name"], traced)
                n = values(new, workload, m["name"], traced)
                if not b and not n:
                    continue
                v = "-"
                if not traced and b and n:
                    v = verdict(b, n, m["bound"], m["better"])
                rows.append((workload, m["name"], fmt(b), fmt(n), v))
    return rows


def overhead(spec, records):
    rows = [("workload", "metric", "untraced median", "traced median",
             "traced / untraced")]
    for workload in workloads_of(records):
        for m in spec["end_to_end"]:
            plain = values(records, workload, m["name"], False)
            traced = values(records, workload, m["name"], True)
            if not plain or not traced:
                continue
            p = statistics.median(plain)
            t = statistics.median(traced)
            rows.append((workload, m["name"], f"{p:.6g} (n={len(plain)})",
                         f"{t:.6g} (n={len(traced)})",
                         f"{t / p:.4f}" if p else "-"))
    return rows


def print_table(rows):
    widths = [max(len(str(r[i])) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip())


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("results", nargs="+")
    parser.add_argument("--overhead", action="store_true")
    parser.add_argument("--bench", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.bench) as f:
        spec = json.load(f)
    if args.overhead:
        if len(args.results) != 1:
            sys.exit("--overhead takes one results file")
        print_table(overhead(spec, load(args.results[0])))
        return
    if len(args.results) != 2:
        sys.exit("give two result sets: BASE NEW")
    print_table(compare(spec, load(args.results[0]), load(args.results[1])))


if __name__ == "__main__":
    main()
