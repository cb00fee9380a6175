#!/usr/bin/env python3
"""The benchmark's own tests.

Run from the root of a source checkout (builds the benchmark on first use):

    python3 perfbench/test_perfbench.py

- A smoke-size run of every workload, traced and untraced, prints every
  metric BENCHMARK.json names, with its unit, and passes the gate.
- A planted corrupt nonce-table entry trips the correctness gate: nonzero
  exit, correct=false, and a nonzero failed_share.
- Without the sources the runner fails fast and prints no result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.abspath(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
RUN = os.path.join(ROOT, "perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def run(workload, trace, *extra, cwd=ROOT, runner=RUN):
    done = subprocess.run(
        [sys.executable, runner, "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--smoke",
         "--setup-reps", "1", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done, result


class SmokeRuns(unittest.TestCase):
    def check_metrics(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        metrics = result["metrics"]
        self.assertEqual(list(metrics), [m["name"] for m in declared])
        for m in declared:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(metrics[m["name"]]["value"], (int, float))

    def test_every_workload_prints_every_metric(self):
        for w in BENCHMARK["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    done, result = run(w["name"], trace)
                    self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
                    self.assertIsNotNone(result)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    self.check_metrics(result, BENCHMARK[key])
                    if trace == 0:
                        for m in BENCHMARK["end_to_end"]:
                            self.assertGreater(result["metrics"][m["name"]]["value"], 0,
                                               m["name"])
                    else:
                        self.assertEqual(result["metrics"]["client.solve_miss"]["value"], 0)


class CorrectnessGate(unittest.TestCase):
    def test_planted_corrupt_nonce_trips_the_gate(self):
        for trace in (0, 1):
            with self.subTest(trace=trace):
                done, result = run("benign_steady", trace, "--plant-corrupt", "3")
                self.assertNotEqual(done.returncode, 0)
                self.assertIsNotNone(result, done.stdout + done.stderr)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                if trace == 0:
                    self.assertLess(result["metrics"]["correct_share"]["value"], 1.0)
                else:
                    self.assertGreater(result["metrics"]["failed_share"]["value"], 0.0)

    def test_runner_fails_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "no-sources")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(bare, "perfbench"))
            done, result = run("benign_steady", 0, cwd=bare,
                               runner=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(done.returncode, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
