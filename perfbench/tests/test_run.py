#!/usr/bin/env python3
"""Self-test of the benchmark harness (perfbench/run.py).

    python3 perfbench/tests/test_run.py

Runs every workload at the reduced "tiny" size in both modes and checks
that each metric BENCHMARK.json names is printed with its unit, that a
corrupted reference digest is reported as a failed study, and that the
benchmark refuses to report from a directory holding only its own files.
Builds into $CARGO_TARGET_DIR like the benchmark itself.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(ROOT, "perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(*args, cwd=ROOT, script=RUN):
    proc = subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return proc, result


def tiny(workload, trace, *extra):
    return bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny", *extra)


class MetricsTest(unittest.TestCase):
    def check(self, result, expected):
        self.assertIsNotNone(result)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in expected})
        for m in expected:
            got = result["metrics"][m["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_every_workload_prints_every_metric_with_its_unit(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"], trace=0):
                proc, result = tiny(w["name"], 0)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                self.check(result, SPEC["end_to_end"])
                human = proc.stdout.strip().splitlines()[:-1]
                for m in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0)
                    line = [l for l in human if l.startswith(m["name"] + " ")]
                    self.assertEqual(len(line), 1, m["name"])
                    self.assertIn(f" {m['unit']} ", line[0])
                    self.assertIn("n=", line[0])
            with self.subTest(workload=w["name"], trace=1):
                proc, result = tiny(w["name"], 1)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                self.check(result, SPEC["per_layer"])


class ReferenceTest(unittest.TestCase):
    def setUp(self):
        self.dir = os.path.join(ROOT, ".bench_runs", f"selftest-{os.getpid()}")
        os.makedirs(self.dir, exist_ok=True)
        self.refs = os.path.join(self.dir, "refs.json")

    def tearDown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def test_corrupted_reference_digest_is_a_failure(self):
        proc, _ = bench("--workload", "lcda-aggregate", "--size", "tiny",
                        "--record-references", "--reference-file", self.refs)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        with open(self.refs) as f:
            refs = json.load(f)

        # The default seed has a reference now, and the outputs match it.
        proc, result = bench("--workload", "lcda-aggregate", "--seconds", "1",
                             "--size", "tiny", "--reference-file", self.refs)
        self.assertIn("reference=yes", proc.stdout)
        self.assertTrue(result["correct"], proc.stderr[-2000:])

        refs["lcda-aggregate"]["1"]["study"]["csv"] = "0" * 64
        with open(self.refs, "w") as f:
            json.dump(refs, f)
        proc, result = bench("--workload", "lcda-aggregate", "--seconds", "1",
                             "--size", "tiny", "--reference-file", self.refs)
        self.assertEqual(proc.returncode, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertIn("differ from the reference", proc.stderr)

    def test_refuses_without_the_sources(self):
        bare = os.path.join(self.dir, "bare")
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc, result = bench("--workload", "lcda-aggregate", "--seed", "1",
                             "--seconds", "1", "--trace", "0", cwd=bare,
                             script=os.path.join(bare, "perfbench", "run.py"))
        self.assertNotEqual(proc.returncode, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
