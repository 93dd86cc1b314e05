#!/usr/bin/env python3
"""The benchmark's own test, run from the root of a checkout:

    python3 perfbench/test_perfbench.py

Builds the perfbench binary the way run.py does, then runs every workload at
reduced size (--size small) and checks that:

- two runs with one seed repeat the digest and the exact counts, with
  zero failed operations (each traced run also checks inside the
  binary that its traced pass reproduces the untraced digest);
- a second seed changes the digest but keeps the row count and the
  skip set;
- every metric BENCHMARK.json lists is produced by the workloads;
- run.py exits non-zero, printing no result, where the library's
  sources are missing.
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["registry", "fleet", "fingerprint"]
# Exact counts that must not depend on the seed.
SEED_FREE = ["rows", "skipped_rows", "cells", "traces", "workloads"]


def load_run_module():
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(HERE, "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.run_module = load_run_module()
        cls.binary = cls.run_module.build()
        cls.reports = {}

    def report(self, workload, seed, trace=1, attempt=0):
        key = (workload, seed, trace, attempt)
        if key not in self.reports:
            self.reports[key] = self.run_module.run_binary(
                self.binary, workload, seed, 0, trace, size="small")
        return self.reports[key]

    def test_runs_repeat_exactly(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a = self.report(w, 1, attempt=0)
                b = self.report(w, 1, attempt=1)
                self.assertEqual(a["failed"], 0, a["failures"])
                self.assertEqual(b["failed"], 0, b["failures"])
                self.assertGreater(a["attempted"], 0)
                self.assertEqual(a["digest"], b["digest"])
                self.assertEqual(a["exact"], b["exact"])

    def test_second_seed_changes_digest_not_shape(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a = self.report(w, 1)
                b = self.report(w, 2)
                self.assertEqual(b["failed"], 0, b["failures"])
                self.assertNotEqual(a["digest"], b["digest"])
                for key in SEED_FREE:
                    self.assertEqual(a["exact"].get(key),
                                     b["exact"].get(key), key)

    def test_every_listed_metric_is_measured(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            spec = json.load(f)
        produced = set()
        for w in WORKLOADS:
            traced = self.report(w, 1)
            produced.update(traced["per_layer"])
            untraced = self.report(w, 1, trace=0)
            for metric in spec["end_to_end"]:
                self.assertGreater(untraced["end_to_end"][metric["name"]],
                                   0, (w, metric["name"]))
        for metric in spec["per_layer"]:
            self.assertIn(metric["name"], produced)

    def test_fails_without_library_sources(self):
        with tempfile.TemporaryDirectory(dir=HERE + "/..") as empty:
            shutil.copy(os.path.join(HERE, "..", "BENCHMARK.json"), empty)
            shutil.copytree(HERE, os.path.join(empty, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "registry", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=empty, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn("correct", proc.stdout)


if __name__ == "__main__":
    unittest.main()
