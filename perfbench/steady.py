#!/usr/bin/env python3
"""Steadiness check for the dcp benchmark.

Runs one workload N times, each with another seed, and prints for every
metric the median, the quartiles and the spread (Q3 - Q1) / median,
compared against the metric's bound in BENCHMARK.json. The target is a
spread below a third of the bound.

A/A mode (--aa) makes two sets of N runs of the same build, interleaved
(a1 b1 a2 b2 ...) so drift hits both sides alike, and reports how far the
second set's median moved from the first's in the metric's worse
direction, against the same bound.

Usage (from the repository root):

    python3 perfbench/steady.py --workload sock_partial_hot --runs 10
    python3 perfbench/steady.py --workload sim_churn_durable --runs 10 --aa
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("run failed (seed %d, exit %d):\n%s" %
                 (seed, out.returncode, out.stdout))
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit("incorrect result (seed %d):\n%s" % (seed, out.stdout))
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def report(runs, bounds):
    print("%-40s %14s %14s %14s %8s %7s" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    for name in runs[0]:
        values = [r[name] for r in runs]
        q1, _, q3 = quartiles(values)
        med = statistics.median(values)
        spread = (q3 - q1) / abs(med) if med else 0.0
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = ("ok" if spread < bound / 3 else
                       "WIDE" if spread < bound else "OVER")
        print("%-40s %14.6g %14.6g %14.6g %7.2f%% %7s %s" %
              (name, med, q1, q3, spread * 100,
               "" if bound is None else "%.0f%%" % (bound * 100), verdict))


def report_aa(first, second, bounds, better):
    print("%-24s %14s %14s %9s %7s" %
          ("metric", "median A", "median B", "worse by", "bound"))
    for name in first[0]:
        a = statistics.median(r[name] for r in first)
        b = statistics.median(r[name] for r in second)
        worse = 0.0
        if a:
            worse = (b - a) / abs(a)
            if better.get(name) == "higher":
                worse = -worse
        bound = bounds.get(name)
        verdict = "" if bound is None else ("ok" if worse <= bound else "FAIL")
        print("%-24s %14.6g %14.6g %8.2f%% %7s %s" %
              (name, a, b, worse * 100,
               "" if bound is None else "%.0f%%" % (bound * 100), verdict))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--aa", action="store_true",
                        help="two interleaved sets of runs; compare medians")
    args = parser.parse_args()

    spec = load_spec()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    first, second = [], []
    for i in range(args.runs):
        seed = 1 + i
        first.append(run_once(args.workload, seed, seconds))
        print("seed %d: %s" % (seed, json.dumps(first[-1])), file=sys.stderr)
        if args.aa:
            # The second set uses seeds the first set does not.
            second.append(run_once(args.workload, seed + 1000, seconds))
            print("seed %d: %s" % (seed + 1000, json.dumps(second[-1])),
                  file=sys.stderr)
    print("workload %s, %d runs, %.0f s each" %
          (args.workload, args.runs, seconds))
    report(first, bounds)
    if args.aa:
        print("\nsecond set")
        report(second, bounds)
        print("\nA/A")
        report_aa(first, second, bounds, better)


if __name__ == "__main__":
    main()
