#!/usr/bin/env python3
"""Spread report: runs each workload N times, one seed each, and prints the
median and quartiles of every metric with the quartile spread as a share of
the median -- the figure BENCHMARK.json's bounds are set against.

    python3 perfbench/spread.py [--runs 10] [--seconds 20] [--trace 0]
                                [--first-seed 1] [workload ...]

Run from the repository root. Quartiles use statistics.quantiles(n=4).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def summarize(values):
    """Median, first and third quartile, and (q3 - q1) / median."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(med) if med else 0.0
    return med, q1, q3, spread


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("%s seed %d failed (exit %d)"
                         % (workload, seed, proc.returncode))
    return json.loads(lines[-1])


def main():
    bench = load_benchmark()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*",
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for workload in args.workloads:
        samples = {}
        units = {}
        for i in range(args.runs):
            result = run_once(workload, args.first_seed + i, args.seconds,
                              args.trace)
            if not result["correct"] or result["failed"]:
                raise SystemExit("%s: correctness check failed" % workload)
            for name, m in result["metrics"].items():
                samples.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print("%s (%d runs, %gs each)" % (workload, args.runs, args.seconds))
        print("  %-28s %14s %14s %14s %8s %6s"
              % ("metric", "median", "q1", "q3", "spread", "bound"))
        for name, values in samples.items():
            med, q1, q3, spread = summarize(values)
            bound = bounds.get(name)
            print("  %-28s %14.6g %14.6g %14.6g %7.2f%% %6s"
                  % (name, med, q1, q3, 100 * spread,
                     "" if bound is None else "%g" % bound))
        print("  raw: " + json.dumps(samples))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
