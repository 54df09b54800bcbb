#!/usr/bin/env python3
"""Self-test for the mwcd benchmark.

    python3 mwcbench/test/selftest.py      (from the repository root)

Runs all three workloads at tiny sizes through mwcbench/run.py and checks
that every metric BENCHMARK.json names is reported with its unit, that no
op failed, and that the deterministic cost sums (service_cost_km,
round_km) repeat exactly for one seed and change for another.
"""
import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
# warm is runnable but not in BENCHMARK.json (see README.md), so the
# workloads are listed here rather than read from the spec.
WORKLOADS = ["cold", "warm", "replan"]
DETERMINISTIC = ("service_cost_km", "round_km")


def run(workload, seed, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "mwcbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "2",
         "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise AssertionError("%s seed %d trace %d exited %d:\n%s" % (
            workload, seed, trace, done.returncode, done.stderr[-4000:]))
    return json.loads(done.stdout.strip().splitlines()[-1])


class BenchmarkSelfTest(unittest.TestCase):
    def check_metrics(self, result, declared):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        units = {m["name"]: m["unit"] for m in declared}
        self.assertEqual(set(result["metrics"]), set(units))
        for name, entry in result["metrics"].items():
            self.assertEqual(entry["unit"], units[name], name)
            self.assertIsInstance(entry["value"], (int, float), name)

    def test_workloads(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = run(workload, 1, 0)
                again = run(workload, 1, 0)
                other = run(workload, 2, 0)
                for result in (first, again, other):
                    self.check_metrics(result, SPEC["end_to_end"])
                    for m in SPEC["end_to_end"]:
                        self.assertGreater(result["metrics"][m["name"]]["value"], 0,
                                           m["name"])
                for name in DETERMINISTIC:
                    value = first["metrics"][name]["value"]
                    self.assertEqual(value, again["metrics"][name]["value"], name)
                    self.assertNotEqual(value, other["metrics"][name]["value"], name)
                self.check_metrics(run(workload, 1, 1), SPEC["per_layer"])


if __name__ == "__main__":
    unittest.main()
