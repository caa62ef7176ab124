#!/usr/bin/env python3
"""Tests of the benchmark itself, at smoke size (about half a minute).

    python3 perfbench/test_perfbench.py

Runs the whole command on every workload, untraced twice and traced
once, and checks:
  - the last line is the result object, with every metric of
    BENCHMARK.json and nothing else, and the outputs are correct;
  - the deterministic work counts repeat exactly between two runs;
  - the traced run's per-point digests equal the untraced run's (the
    observer-effect check across processes);
  - in a directory holding only BENCHMARK.json and perfbench/, the
    command fails without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, cwd=ROOT, script=RUN):
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    raw_path = os.path.join(cwd, ".bench_build", "run", workload,
                            "raw.json")
    raw = None
    if os.path.exists(raw_path):
        with open(raw_path) as f:
            raw = json.load(f)
    return proc, raw


class BenchmarkTest(unittest.TestCase):

    def check_result(self, proc, names):
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"], proc.stderr[-3000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(sorted(result["metrics"]), sorted(names))
        for name, m in result["metrics"].items():
            self.assertEqual(sorted(m), ["unit", "value"], name)
            self.assertIsInstance(m["value"], (int, float), name)
            self.assertEqual(m["unit"], names[name], name)
        return result

    def test_workloads(self):
        spec = bench_spec()
        e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for w in (x["name"] for x in spec["workloads"]):
            with self.subTest(workload=w):
                first, raw1 = run(w, 0)
                result = self.check_result(first, e2e)
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)
                second, raw2 = run(w, 0)
                self.check_result(second, e2e)
                self.assertTrue(raw1["counts"])
                self.assertEqual(raw1["counts"], raw2["counts"])
                self.assertEqual(raw1["digests"], raw2["digests"])

                traced, raw3 = run(w, 1)
                self.check_result(traced, layers)
                self.assertEqual(raw3["digests"], raw1["digests"])
                for name, value in raw1["counts"].items():
                    self.assertEqual(raw3["counts"][name], value, name)
                self.assertIn("trace.overhead_ms", raw3["layers"])
                work = os.path.join(ROOT, ".bench_build", "run", w)
                for f in ("trace.json", "self_time.txt"):
                    self.assertTrue(os.path.exists(os.path.join(work, f)))

    def test_fails_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc, _ = run("sim-threaded", 0, cwd=bare,
                          script=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
