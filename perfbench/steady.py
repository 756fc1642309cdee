#!/usr/bin/env python3
"""Steadiness tool: runs each workload N times, each with another seed, and
prints for every metric the median, the quartiles and the spread (quartile
distance over median) against the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py --runs 10                 # every workload
    python3 perfbench/steady.py --runs 5 --workloads fleet --seed-base 100
    python3 perfbench/steady.py --runs 10 --sets 2        # two sets, compared
    python3 perfbench/steady.py --runs 3 --trace 1        # per-layer metrics

A spread marked '!' is at or above a third of its bound, '!!' above the
bound. With --sets 2 the second set takes the next N seeds, and each metric's
median shift between the sets is printed against its bound ('!!' when the
second median is worse by more than the bound). Exits 1 when a run fails,
reports incorrect output, or the share of failed operations differs between
runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise RuntimeError("%s seed %d exited %d" % (workload, seed, proc.returncode))
    return json.loads(lines[-1])


def summarize(results, bounds):
    """Prints one row per metric; returns {metric: median}."""
    print("%-40s %14s %14s %14s %8s %6s" % ("metric", "median", "q1", "q3", "spread",
                                              "bound"))
    medians = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = values[0]
        spread = (q3 - q1) / abs(median) if median else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = "!!" if spread > bound else ("!" if spread >= bound / 3 else "")
        print("%-40s %14.6g %14.6g %14.6g %7.2f%% %6s %s" % (
            name, median, q1, q3, 100 * spread, "" if bound is None else "%g" % bound, flag))
        medians[name] = median
    return medians


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    metrics = bench["end_to_end"] + bench["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    lower_better = {m["name"]: m["better"] == "lower" for m in metrics}

    ok = True
    for workload in args.workloads.split(","):
        shares = set()
        set_medians = []
        for s in range(args.sets):
            results = []
            for i in range(args.runs):
                seed = args.seed_base + s * args.runs + i
                result = run_once(workload, seed, args.seconds, args.trace)
                results.append(result)
                print("%s seed %d: correct=%s attempted=%d failed=%d" % (
                    workload, seed, result["correct"], result["attempted"],
                    result["failed"]), file=sys.stderr)
                ok = ok and result["correct"]
                shares.add(result["failed"] / result["attempted"])
            first = args.seed_base + s * args.runs
            print("\n%s, seeds %d-%d: %d runs" % (workload, first, first + args.runs - 1,
                                                 len(results)))
            set_medians.append(summarize(results, bounds))
        print("%s: failed share %s" % (workload, sorted(shares)))
        ok = ok and len(shares) == 1
        if args.sets == 2:
            print("\n%-40s %14s %14s %8s %6s" % ("metric", "median 1", "median 2", "worse",
                                               "bound"))
            for name, m1 in set_medians[0].items():
                m2 = set_medians[1][name]
                worse = (m2 - m1) if lower_better.get(name, True) else (m1 - m2)
                worse = worse / abs(m1) if m1 else 0.0
                bound = bounds.get(name)
                flag = "!!" if bound is not None and worse > bound else ""
                print("%-40s %14.6g %14.6g %7.2f%% %6s %s" % (
                    name, m1, m2, 100 * worse, "" if bound is None else "%g" % bound, flag))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
