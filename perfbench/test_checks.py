#!/usr/bin/env python3
"""The benchmark's own test: its output checks pass on a clean run and
catch a deliberately dropped delta, on every workload.

    python3 perfbench/test_checks.py

Runs perfbench/run.py (building the benchmark on first use) with a short
--seconds; about a minute once built.
"""
import json
import os
import subprocess
import sys
import unittest

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
ROOT = os.path.dirname(os.path.dirname(RUN))


def run(workload, *extra):
    p = subprocess.run([sys.executable, RUN, "--workload", workload,
                        "--seed", "3", "--seconds", "1", "--trace", "0",
                        *extra],
                       cwd=ROOT, capture_output=True, text=True, timeout=600)
    return p.returncode, json.loads(p.stdout.strip().splitlines()[-1]), p.stdout


class OutputChecks(unittest.TestCase):
    def check_workload(self, workload):
        code, res, out = run(workload)
        self.assertEqual(code, 0, out)
        self.assertTrue(res["correct"], out)
        self.assertEqual(res["failed"], 0, out)
        self.assertGreater(res["attempted"], 0)

        code, res, out = run(workload, "--drop-delta")
        self.assertNotEqual(code, 0, out)
        self.assertFalse(res["correct"], out)
        self.assertGreater(res["failed"], 0, out)
        self.assertIn("check FAIL", out)

    def test_wire_oltp(self):
        self.check_workload("wire-oltp")

    def test_bulk_fanout(self):
        self.check_workload("bulk-fanout")

    def test_paged_durable(self):
        self.check_workload("paged-durable")

    def test_same_seed_same_inputs(self):
        digests = set()
        for _ in range(2):
            _, _, out = run("paged-durable")
            digests.add(out.splitlines()[0].split("input_digest=")[1])
        self.assertEqual(len(digests), 1)


if __name__ == "__main__":
    unittest.main()
