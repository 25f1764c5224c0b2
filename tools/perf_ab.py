#!/usr/bin/env python3
"""A/B-runs the repository's benchmark (BENCHMARK.json) on two revisions.

    python3 tools/perf_ab.py --base REV [--head HEAD] [--pairs 10]
        [--seed 7] [--out BENCH_x.json]

Run it from anywhere inside the repository. Each revision is exported
with `git archive` into its own temporary directory (removed on exit), so
uncommitted edits in the working tree are never measured, and each side
builds under its own CARGO_TARGET_DIR: perfbench/run.py places its build
tree there, so the two sides never share one build. The benchmark's
command, workloads, run length and bounds come from the head revision's
BENCHMARK.json. Every workload is run, at its `run_seconds`.

1. One traced run (`--trace 1`) per side and workload builds each side
   and gates the change as host-side only: the script exits 1, before any
   timed run, unless both sides print the same non-empty list of `counts`
   lines and no traced run fails a check.
2. Then N pairs of untraced runs (`--trace 0`) per workload, alternating
   which side runs first from one pair to the next.

The output JSON holds the `host` line, both revisions, the traced
per-layer metrics of each side, and per workload each side's tally of
attempted and failed checks over the timed runs. For each end-to-end
metric it holds each side's runs, median, quartiles and spread
((q3 - q1) / median), the head's pair wins and losses, the head/base
median ratio, the signed `improvement` (the fraction by which the head's
median is better, in the metric's `better` direction) and two verdicts:

* `verdict` is `unresolved` when either side's spread exceeds the
  metric's bound, unless every head run beats every base run; else
  `worse` when the head's median is worse by more than the bound, or the
  head fails a larger share of its checks; else `within_bound`.
* `gain` is true when the verdict is `within_bound`, the head wins at
  least 9 pairs in 10, and its median is better by more than the base's
  interquartile range.

Exit status: 0, or 1 on a counts mismatch or any failed check.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = subprocess.run(
    ["git", "rev-parse", "--show-toplevel"], check=True, text=True,
    cwd=os.path.dirname(os.path.abspath(__file__)),
    stdout=subprocess.PIPE).stdout.strip()


def git(*args):
    return subprocess.run(["git"] + list(args), cwd=ROOT, check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def export(rev, dest):
    """Writes the whole tree of `rev` into `dest`."""
    os.makedirs(dest)
    # From the top level: in a subdirectory git archive exports only that.
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        sys.exit("perf_ab: git archive %s failed" % rev)


class Side:
    def __init__(self, name, rev, tmp):
        self.name = name
        self.rev = rev
        self.commit = git("rev-parse", rev)
        self.tree = os.path.join(tmp, name)
        self.env = dict(os.environ,
                        CARGO_TARGET_DIR=os.path.join(tmp, name + "-build"))
        export(self.commit, self.tree)

    def run(self, command, workload, seed, seconds, trace):
        """(host line, counts lines, result) of one benchmark run."""
        proc = subprocess.run(
            command + ["--workload", workload, "--seed", str(seed),
                       "--seconds", repr(seconds), "--trace", str(trace)],
            cwd=self.tree, env=self.env, stdout=subprocess.PIPE, text=True)
        # A run whose checks fail still prints its result line (and exits
        # 1); its `failed` count is tallied. No result line means no run.
        lines = proc.stdout.splitlines()
        if not lines:
            sys.exit("perf_ab: %s (%s) gave no result on %s, exit %d"
                     % (self.name, self.rev, workload, proc.returncode))
        host = [l[len("host "):] for l in lines if l.startswith("host ")]
        counts = [l for l in lines if l.startswith("counts ")]
        return json.loads(host[0]), counts, json.loads(lines[-1])


def quartiles(runs):
    """(median, q1, q3), linearly interpolated between order statistics."""
    runs = sorted(runs)

    def at(p):
        rank = p * (len(runs) - 1)
        lo = int(rank)
        hi = min(lo + 1, len(runs) - 1)
        return runs[lo] + (runs[hi] - runs[lo]) * (rank - lo)

    return at(0.5), at(0.25), at(0.75)


def failed_share(tally):
    return tally["failed"] / tally["attempted"] if tally["attempted"] else 1.0


def summarize(metric, base_runs, head_runs, base_tally, head_tally):
    # Every comparison is made on signed values, so "greater is better".
    sign = -1.0 if metric["better"] == "lower" else 1.0
    wins = sum(sign * h > sign * b for b, h in zip(base_runs, head_runs))
    losses = sum(sign * h < sign * b for b, h in zip(base_runs, head_runs))
    b_med, b_q1, b_q3 = quartiles(base_runs)
    h_med, h_q1, h_q3 = quartiles(head_runs)
    b_spread = (b_q3 - b_q1) / b_med if b_med else 0.0
    h_spread = (h_q3 - h_q1) / h_med if h_med else 0.0
    improvement = sign * (h_med - b_med) / b_med if b_med else 0.0
    separated = min(sign * h for h in head_runs) > \
        max(sign * b for b in base_runs)
    if max(b_spread, h_spread) > metric["bound"] and not separated:
        verdict = "unresolved"
    elif -improvement > metric["bound"] or \
            failed_share(head_tally) > failed_share(base_tally):
        verdict = "worse"
    else:
        verdict = "within_bound"
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "base": {"runs": base_runs, "median": b_med, "q1": b_q1, "q3": b_q3,
                 "spread": b_spread},
        "head": {"runs": head_runs, "median": h_med, "q1": h_q1, "q3": h_q3,
                 "spread": h_spread},
        "pairs": len(base_runs),
        "head_wins": wins,
        "head_losses": losses,
        "ratio": h_med / b_med if b_med else None,
        "improvement": improvement,
        "verdict": verdict,
        "gain": verdict == "within_bound"
        and wins * 10 >= 9 * len(base_runs)
        and sign * (h_med - b_med) > b_q3 - b_q1,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="parent revision")
    ap.add_argument("--head", default="HEAD", help="changed revision")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out", help="JSON output file (default: stdout)")
    args = ap.parse_args()

    tmp = tempfile.mkdtemp(prefix="perf_ab-")
    try:
        sides = [Side("base", args.base, tmp), Side("head", args.head, tmp)]
        with open(os.path.join(sides[1].tree, "BENCHMARK.json")) as f:
            bench = json.load(f)
        command = bench["command"]
        seconds = bench["run_seconds"]
        workloads = [w["name"] for w in bench["workloads"]]
        out = {"base": {"rev": args.base, "commit": sides[0].commit},
               "head": {"rev": args.head, "commit": sides[1].commit},
               "seed": args.seed, "seconds": seconds, "pairs": args.pairs,
               "workloads": {}}
        traced = {}
        for w in workloads:
            runs = [s.run(command, w, args.seed, 1, 1) for s in sides]
            out["host"] = runs[1][0]
            if not runs[0][1] or runs[0][1] != runs[1][1]:
                print("perf_ab: %s counts missing or different\n"
                      "  base %s\n  head %s" % (w, runs[0][1], runs[1][1]),
                      file=sys.stderr)
                return 1
            failed = [r[2]["failed"] for r in runs]
            if any(failed):
                print("perf_ab: %s traced runs failed checks: base %d, "
                      "head %d" % (w, failed[0], failed[1]), file=sys.stderr)
                return 1
            traced[w] = {s.name: {k: v["value"] for k, v in
                                  r[2]["metrics"].items()}
                         for s, r in zip(sides, runs)}
            print("perf_ab: %s counts identical (%d lines)"
                  % (w, len(runs[1][1])), file=sys.stderr)

        e2e = {w: {s.name: {m["name"]: [] for m in bench["end_to_end"]}
                   for s in sides} for w in workloads}
        tally = {w: {s.name: {"attempted": 0, "failed": 0} for s in sides}
                 for w in workloads}
        for i in range(args.pairs):
            for w in workloads:
                for s in (sides if i % 2 == 0 else sides[::-1]):
                    _, _, result = s.run(command, w, args.seed, seconds, 0)
                    for k in ("attempted", "failed"):
                        tally[w][s.name][k] += result[k]
                    for m in bench["end_to_end"]:
                        e2e[w][s.name][m["name"]].append(
                            result["metrics"][m["name"]]["value"])
                print("perf_ab: pair %d/%d %s done"
                      % (i + 1, args.pairs, w), file=sys.stderr)

        for w in workloads:
            out["workloads"][w] = {"traced": traced[w], "checks": tally[w]}
            if args.pairs:
                out["workloads"][w]["end_to_end"] = {
                    m["name"]: summarize(m, e2e[w]["base"][m["name"]],
                                         e2e[w]["head"][m["name"]],
                                         tally[w]["base"], tally[w]["head"])
                    for m in bench["end_to_end"]}
        text = json.dumps(out, indent=1, sort_keys=True) + "\n"
        if args.out:
            with open(args.out, "w") as f:
                f.write(text)
        else:
            sys.stdout.write(text)
        return 1 if any(t[s]["failed"] for t in tally.values()
                        for s in t) else 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
