#!/usr/bin/env python3
"""Self-test of the benchmark: determinism of its counts and its refusal
to run without the simulator sources.

    python3 perfbench/test_perfbench.py        # from the repository root

Each case runs perfbench/run.py on short traced runs (about a minute in
all once the binary is built).
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]

# Counts that must repeat exactly across runs of one seed.
DETERMINISTIC = ["sim.events", "sim.shard.rounds", "net.frames",
                 "trio.ppe.instructions", "trio.sms.ops", "trio.hash.ops"]


def traced_run(workload, seed):
    """(counts lines, result) of one short traced run."""
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.splitlines()
    counts = [json.loads(l[len("counts "):]) for l in lines
              if l.startswith("counts ")]
    return counts, json.loads(lines[-1])


class Determinism(unittest.TestCase):
    def check_repeats(self, workload):
        first, r1 = traced_run(workload, 11)
        second, r2 = traced_run(workload, 11)
        for r in (r1, r2):
            self.assertTrue(r["correct"])
            self.assertEqual(r["failed"], 0)
            self.assertEqual(r["metrics"]["failed_frac"]["value"], 0)
        self.assertEqual(first, second)
        for key in DETERMINISTIC:
            self.assertIn(key, first[0])
        for key in ("netrpc.calls", "trioml.blocks_completed"):
            self.assertEqual(r1["metrics"][key], r2["metrics"][key])
        return first, r1

    def test_agg_large_repeats(self):
        self.check_repeats("agg_large")

    def test_agg_small_repeats_and_is_shard_count_invariant(self):
        serial, sharded = self.check_repeats("agg_small")[0]
        self.assertEqual(serial["shards"], 1)
        self.assertEqual(sharded["digest"], serial["digest"])
        for key in sharded:
            if key not in ("shards", "sim.shard.rounds"):
                self.assertEqual(sharded[key], serial[key], key)

    def test_tenant_mix_repeats(self):
        _, result = self.check_repeats("tenant_mix")
        self.assertGreater(result["metrics"]["netrpc.calls"]["value"], 0)
        self.assertEqual(result["metrics"]["netrpc.degraded"]["value"], 0)

    def test_different_seeds_change_the_results(self):
        a, _ = traced_run("agg_large", 1)
        b, _ = traced_run("agg_large", 2)
        self.assertNotEqual(a[0]["digest"], b[0]["digest"])


class WithoutSources(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        build_root = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
            ROOT, ".bench_build")
        bare = os.path.join(os.path.abspath(build_root), "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "agg_large",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
