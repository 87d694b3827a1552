#!/usr/bin/env python3
"""Build eqbench from this checkout and run one benchmark workload.

    python3 bench/e2e/run.py --workload roster --seed 1 --seconds 20 --trace 0

Configures and builds bench/e2e into build/e2e/ at the checkout root
(the first run compiles the simulator, later runs only check it is up
to date), then runs eqbench and relays its output. Build output goes to
stderr; the last stdout line is eqbench's result JSON. The exit code is
eqbench's, or 1 when the build fails (no result is printed then).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build", "e2e")
WORKLOADS = ("roster", "parallel", "autotune", "serve")

# eqbench itself must finish well inside a 180 s run limit.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        sys.exit("run.py: no simulator sources at " + ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True, timeout=300)
    subprocess.run(
        ["cmake", "--build", BUILD, "-j4", "--target", "eqbench"],
        stdout=sys.stderr, check=True, timeout=800)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--export", help="also write the result JSON here")
    args = ap.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as err:
        sys.exit("run.py: build failed: %s" % err)

    cmd = [os.path.join(BUILD, "eqbench"),
           "workload=" + args.workload, "seed=%d" % args.seed,
           "seconds=%d" % args.seconds, "trace=%d" % args.trace,
           "trace_out=" + os.path.join(BUILD, "spans-%s.json" % args.workload)]
    if args.export:
        cmd.append("export=" + args.export)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: eqbench ran past %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").splitlines()
    if not lines:
        sys.exit("run.py: eqbench printed nothing (exit %d)" % proc.returncode)
    try:
        json.loads(lines[-1])
    except ValueError:
        sys.exit("run.py: eqbench's last line is not a result (exit %d)"
                 % proc.returncode)
    print("\n".join(lines), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
