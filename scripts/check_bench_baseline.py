#!/usr/bin/env python3
"""Compare a fresh bench_cycles_per_sec export against the committed
perf baseline (BENCH_BASELINE.json at the repo root).

Two classes of check:

* ``sm_cycles`` must match the baseline exactly. Simulated cycle counts
  are machine-independent, so any drift means the simulator's behaviour
  changed without the baseline being refreshed — always an error.
* ``cycles_per_sec`` is wall-clock throughput and varies with the host;
  it is gated with a tolerance band (default: fail below 0.75x baseline,
  warn below 0.90x).

Refresh the baseline after an intentional perf or behaviour change:

    build/bench/bench_cycles_per_sec export=BENCH_BASELINE.json

and commit the result alongside the change that moved it.

Usage:
    scripts/check_bench_baseline.py FRESH.json [--baseline BENCH_BASELINE.json]
        [--fail-below 0.75] [--warn-below 0.90] [--skip-cycles-check]
        [--expect NAME]...

``--expect NAME`` (repeatable) fails the gate when the named row is
missing from the fresh export — use it to pin rows the bench is
expected to produce (e.g. ``--expect serve:edf``) so a silently dropped
workload can't pass as "nothing regressed".

Exit status: 0 on pass (warnings allowed), 1 on any failure.
When $GITHUB_STEP_SUMMARY is set, a Markdown comparison table is
appended to it.
"""

import argparse
import json
import os
import sys


def load_rows(path):
    with open(path) as f:
        doc = json.load(f)
    return {row["kernel"]: row for row in doc["rows"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("fresh", help="JSON exported by bench_cycles_per_sec")
    ap.add_argument("--baseline", default="BENCH_BASELINE.json")
    ap.add_argument("--fail-below", type=float, default=0.75,
                    help="fail when cycles/sec drops below this fraction "
                         "of baseline (default 0.75)")
    ap.add_argument("--warn-below", type=float, default=0.90,
                    help="warn when cycles/sec drops below this fraction "
                         "of baseline (default 0.90)")
    ap.add_argument("--skip-cycles-check", action="store_true",
                    help="skip the exact sm_cycles comparison")
    ap.add_argument("--expect", action="append", default=[],
                    metavar="NAME",
                    help="fail when this row is missing from the fresh "
                         "export (repeatable)")
    args = ap.parse_args()

    baseline = load_rows(args.baseline)
    fresh = load_rows(args.fresh)

    failures = []
    warnings = []
    lines = [
        "| kernel | base cycles/s | fresh cycles/s | ratio | sm_cycles | status |",
        "|---|---|---|---|---|---|",
    ]

    for kernel, base in baseline.items():
        row = fresh.get(kernel)
        if row is None:
            failures.append(f"{kernel}: missing from fresh export")
            lines.append(f"| {kernel} | — | — | — | — | MISSING |")
            continue

        status = "ok"
        cycles = "match"
        if not args.skip_cycles_check and row["sm_cycles"] != base["sm_cycles"]:
            failures.append(
                f"{kernel}: sm_cycles {row['sm_cycles']} != baseline "
                f"{base['sm_cycles']} — simulated behaviour changed; "
                f"refresh BENCH_BASELINE.json if intentional")
            cycles = f"{row['sm_cycles']} != {base['sm_cycles']}"
            status = "FAIL"

        ratio = row["cycles_per_sec"] / base["cycles_per_sec"]
        if ratio < args.fail_below:
            failures.append(
                f"{kernel}: cycles/sec {row['cycles_per_sec']:.0f} is "
                f"{ratio:.2f}x baseline {base['cycles_per_sec']:.0f} "
                f"(fail threshold {args.fail_below:.2f}x)")
            status = "FAIL"
        elif ratio < args.warn_below:
            warnings.append(
                f"{kernel}: cycles/sec {row['cycles_per_sec']:.0f} is "
                f"{ratio:.2f}x baseline {base['cycles_per_sec']:.0f} "
                f"(warn threshold {args.warn_below:.2f}x)")
            if status == "ok":
                status = "warn"

        lines.append(
            f"| {kernel} | {base['cycles_per_sec']:.0f} "
            f"| {row['cycles_per_sec']:.0f} | {ratio:.2f}x "
            f"| {cycles} | {status} |")

    for name in args.expect:
        if name not in fresh:
            failures.append(
                f"{name}: expected row missing from fresh export")

    for extra in sorted(set(fresh) - set(baseline)):
        warnings.append(f"{extra}: not in baseline (new kernel?)")

    print("\n".join(lines))
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)

    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a") as f:
            f.write("### Perf baseline comparison\n\n")
            f.write("\n".join(lines) + "\n")
            for w in warnings:
                f.write(f"\n> :warning: {w}\n")
            for fl in failures:
                f.write(f"\n> :x: {fl}\n")
            if not failures:
                f.write("\nTo refresh after an intentional change: "
                        "`build/bench/bench_cycles_per_sec "
                        "export=BENCH_BASELINE.json` and commit.\n")

    if failures:
        print("\nperf gate failed. If the regression (or sm_cycles "
              "change) is intentional, refresh the baseline:\n"
              "  build/bench/bench_cycles_per_sec "
              "export=BENCH_BASELINE.json", file=sys.stderr)
        return 1
    print("perf gate passed"
          + (f" with {len(warnings)} warning(s)" if warnings else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
