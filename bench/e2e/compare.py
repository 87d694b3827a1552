#!/usr/bin/env python3
"""Compare two sets of eqbench export JSONs, workload by workload.

    python3 bench/e2e/compare.py BASE_DIR NEW_DIR [--benchmark BENCHMARK.json]

Each directory holds the files eqbench wrote with export=<json> (or
run.py with --export), any number of runs per workload. For every
workload x metric the script prints each side's median and quartiles.
For a metric with a bound in BENCHMARK.json it gives a verdict:

  worse       the new median is worse than the base median by more
              than the bound;
  unresolved  the run-to-run spread (quartile distance over median) of
              either side exceeds the bound, so "no change" cannot be
              told from noise, unless every new run beats every base run;
  ok          neither.

Each workload also gets an error_rate row: failed ops over attempted
ops, summed over a side's runs, with bound 0. The exit code is 1 when
any metric is worse or either side has a failed op, else 0.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCHMARK = os.path.join(HERE, "..", "..", "BENCHMARK.json")


def load_runs(directory):
    """{(workload, trace): [result, ...]} from every *.json in directory."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            doc = json.load(f)
        runs.setdefault((doc["workload"], doc["trace"]), []).append(
            doc["result"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(metric, base, new):
    """Verdict on one bounded metric (choosing-metrics rules)."""
    bound = metric["bound"]
    lower = metric["better"] == "lower"
    b_med = statistics.median(base)
    n_med = statistics.median(new)
    change = (n_med - b_med) / abs(b_med) if b_med else 0.0
    if (change if lower else -change) > bound:
        return "worse"
    if spread(base) > bound or spread(new) > bound:
        all_better = (max(new) < min(base)) if lower else \
            (min(new) > max(base))
        return "ok (every run better)" if all_better else "unresolved"
    return "ok"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--benchmark", default=DEFAULT_BENCHMARK)
    args = ap.parse_args()

    with open(args.benchmark) as f:
        spec = json.load(f)
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    base_runs = load_runs(args.base)
    new_runs = load_runs(args.new)

    bad = False
    print("%-9s %-5s %-30s %-38s %-38s %s" % (
        "workload", "trace", "metric", "base median [q1, q3]",
        "new median [q1, q3]", "verdict"))
    for key in sorted(set(base_runs) & set(new_runs)):
        workload, trace = key
        base, new = base_runs[key], new_runs[key]
        # error_rate = failed ops / attempted ops over a side's runs; its
        # bound is 0, so any failed op on the new side is worse.
        rates = [sum(r["failed"] for r in runs) /
                 sum(r["attempted"] for r in runs) for runs in (base, new)]
        v = "worse" if rates[1] > 0 else "ok"
        bad = bad or v == "worse" or rates[0] > 0
        print("%-9s %-5d %-30s %-38s %-38s %s" % (
            workload, trace, "error_rate", "%.6g" % rates[0],
            "%.6g" % rates[1], v))
        names = [n for n in base[0]["metrics"] if n in new[0]["metrics"]]
        for name in names:
            b = [r["metrics"][name]["value"] for r in base]
            n = [r["metrics"][name]["value"] for r in new]
            cols = []
            for values in (b, n):
                q1, med, q3 = quartiles(values)
                cols.append("%.6g [%.6g, %.6g]" % (med, q1, q3))
            v = verdict(bounded[name], b, n) if name in bounded else ""
            bad = bad or v == "worse"
            print("%-9s %-5d %-30s %-38s %-38s %s" % (
                workload, trace, name, cols[0], cols[1], v))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
