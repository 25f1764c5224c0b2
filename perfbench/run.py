#!/usr/bin/env python3
"""Builds the trio-sim benchmark binary from source and runs one workload.

    python3 perfbench/run.py --workload agg_large --seed 1 --seconds 30 --trace 0

Run it from the repository root. The first run configures and builds the
simulator libraries plus the binary (Release) under .bench_build/perfbench
(or $CARGO_TARGET_DIR/perfbench when that is set); later runs rebuild
incrementally. Build output goes to stderr. The binary's stdout is passed
through: a `host {...}` line, `counts {...}` lines on traced runs, and
last the JSON result line. The exit status is the binary's, or 2 when the
build fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no simulator sources under %s/src" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", build_dir, "-j", jobs,
              "--target", "trio_perfbench"]]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            print("perfbench: build step failed: %s" % " ".join(cmd),
                  file=sys.stderr)
            sys.exit(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["agg_large", "agg_small", "tenant_mix"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        ROOT, ".bench_build")
    build_dir = os.path.join(build_root, "perfbench")
    build(build_dir)

    cmd = [os.path.join(build_dir, "trio_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s did not finish in %d s"
                 % (args.workload, RUN_TIMEOUT_S))
    lines = proc.stdout.splitlines()
    if not lines:
        sys.exit("perfbench: trio_perfbench printed no result (exit %d)"
                 % proc.returncode)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit("perfbench: malformed result line: %s" % lines[-1])
    print("\n".join(lines))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
