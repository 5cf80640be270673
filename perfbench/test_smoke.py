"""Smoke test of the benchmark itself, at the smallest size.

    python3 -m pytest perfbench/test_smoke.py     # or: python3 perfbench/test_smoke.py

Runs every workload briefly and checks that each metric named in
``BENCHMARK.json`` is printed with its unit, that the default seed passes its
checks, and that a corrupted payload digest is caught and raises
``failed_frac``.  Takes about a minute on a 2-core box.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(*args: str) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--seed", "0",
         "--seconds", "1", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.stdout, json.loads(lines[-1])


class BenchmarkSmoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            cls.spec = json.load(handle)

    def _assert_metrics(self, stdout: str, result: dict, declared: list) -> None:
        self.assertEqual(
            sorted(result["metrics"]), sorted(m["name"] for m in declared)
        )
        for metric in declared:
            reported = result["metrics"][metric["name"]]
            self.assertEqual(reported["unit"], metric["unit"])
            self.assertIsInstance(reported["value"], float)
            line = f"{metric['name']} = "
            self.assertRegex(
                stdout, re.escape(line) + r"\S+ " + re.escape(metric["unit"])
            )

    def test_every_workload_prints_end_to_end_metrics(self) -> None:
        for workload in (w["name"] for w in self.spec["workloads"]):
            with self.subTest(workload=workload):
                stdout, result = _run("--workload", workload, "--trace", "0")
                self.assertTrue(result["correct"], stdout)
                self.assertEqual(result["failed"], 0)
                self.assertIn("failed_frac 0.0000", stdout)
                self._assert_metrics(stdout, result, self.spec["end_to_end"])

    def test_traced_run_prints_per_layer_metrics(self) -> None:
        stdout, result = _run("--workload", "tiny_jobs", "--trace", "1")
        self.assertTrue(result["correct"], stdout)
        self._assert_metrics(stdout, result, self.spec["per_layer"])

    def test_corrupted_digest_raises_failed_frac(self) -> None:
        stdout, result = _run(
            "--workload", "tiny_jobs", "--trace", "0", "--corrupt-digest"
        )
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        frac = float(re.search(r"failed_frac (\S+)", stdout).group(1))
        self.assertGreater(frac, 0.0)


if __name__ == "__main__":
    unittest.main()
