"""Tests of the benchmark harness itself (stdlib unittest, q = 4 workloads).

    python3 bench/test_harness.py
"""

from __future__ import annotations

import json
import time
import unittest
from dataclasses import replace

import gate
import run
import yardstick

ARC_SWEEP = run.WORKLOADS["sweep-arc-q4"]
CONIC_SWEEP = run.WORKLOADS["sweep-conic-q4"]
COUNT_SUFFIXES = ("_calls", "_built", "_classified", "_rejected", "stdout_bytes")


class CorruptedOutputTest(unittest.TestCase):
    """A corrupted output is counted as a failed operation."""

    @classmethod
    def setUpClass(cls):
        cls.harness = run.Harness(time.perf_counter() + 60)
        cls.arc_argv = run.cli_argv(ARC_SWEEP, 0)
        cls.arc = cls.harness.child("cli", cls.arc_argv)
        cls.conic_argv = run.cli_argv(CONIC_SWEEP, 0)
        cls.conic = cls.harness.child("cli", cls.conic_argv)

    def setUp(self):
        self.harness.attempted = self.harness.failed = 0

    def test_genuine_outputs_pass(self):
        self.assertTrue(self.harness.record_cli(ARC_SWEEP, self.arc_argv, self.arc))
        self.assertTrue(self.harness.record_cli(CONIC_SWEEP, self.conic_argv, self.conic))
        self.assertEqual((self.harness.failed, self.harness.attempted), (0, 2))

    def test_altered_tally_fails(self):
        stdout = self.arc.stdout.replace(b'"past": 0', b'"past": 1', 1)
        self.assertNotEqual(stdout, self.arc.stdout)
        # the closed-form gate catches it without any recorded digest
        reason = gate.check(ARC_SWEEP.kind, 4, self.arc_argv, stdout, {})
        self.assertIn("tallies", reason)
        self.assertFalse(self.harness.record_cli(
            ARC_SWEEP, self.arc_argv, replace(self.arc, stdout=stdout)))
        self.assertEqual((self.harness.failed, self.harness.attempted), (1, 1))

    def test_consistent_report_off_the_closed_form_fails(self):
        data = json.loads(self.arc.stdout)
        report = data["reports"][0]
        present = next(m for m in report["members"] if m["class"] == "Present")
        present["class"] = "Future"
        report["tallies"]["present"] -= 1
        report["tallies"]["future"] += 1
        stdout = (json.dumps(data, indent=2) + "\n").encode()
        reason = gate.check(ARC_SWEEP.kind, 4, self.arc_argv, stdout, {})
        self.assertIn("!=", reason)

    def test_altered_csv_class_fails(self):
        stdout = self.conic.stdout.replace(b",Past\n", b",Future\n", 1)
        self.assertIsNotNone(gate.check(CONIC_SWEEP.kind, 4, self.conic_argv, stdout, {}))
        self.assertFalse(self.harness.record_cli(
            CONIC_SWEEP, self.conic_argv, replace(self.conic, stdout=stdout)))
        self.assertEqual(self.harness.failed, 1)

    def test_different_digest_fails(self):
        # same JSON value, different bytes: only the recorded digest sees it
        stdout = self.arc.stdout.replace(b'"exhaustive": true', b'"exhaustive":  true')
        self.assertIsNone(gate.check(ARC_SWEEP.kind, 4, self.arc_argv, stdout, {}))
        self.assertIn(" ".join(self.arc_argv), self.harness.golden)
        self.assertFalse(self.harness.record_cli(
            ARC_SWEEP, self.arc_argv, replace(self.arc, stdout=stdout)))
        self.assertEqual((self.harness.failed, self.harness.attempted), (1, 1))

    def test_nonzero_exit_fails(self):
        out = self.harness.child("cli", ["arrow", "--n", "1", "--mode", "arc"])
        self.assertEqual(out.returncode, 2)
        self.assertFalse(self.harness.record_cli(ARC_SWEEP, self.arc_argv, out))
        self.assertEqual(self.harness.failed, 1)


class SmokeTest(unittest.TestCase):
    def test_end_to_end_runs_are_correct(self):
        for name in run.SMOKE:
            with self.subTest(workload=name):
                result = run.run_workload(name, 0, 0, trace=False)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(result["attempted"], 2 * run.MIN_ROUNDS)
                self.assertEqual(set(result["metrics"]), set(run.END_TO_END_UNITS))

    def test_traced_counts_repeat_exactly(self):
        for name in run.SMOKE:
            with self.subTest(workload=name):
                first, second = (run.run_workload(name, 0, 0, trace=True) for _ in range(2))
                self.assertTrue(first["correct"] and second["correct"])
                self.assertEqual(set(first["metrics"]), set(run.PER_LAYER_UNITS))
                counts = [{k: v["value"] for k, v in r["metrics"].items()
                           if k.endswith(COUNT_SUFFIXES)} for r in (first, second)]
                self.assertEqual(len(counts[0]), 7)
                self.assertEqual(counts[0], counts[1])


class YardstickTest(unittest.TestCase):
    def test_checksum_is_checked(self):
        harness = run.Harness(time.perf_counter() + 60)
        self.assertGreater(harness.yardstick(), 0)
        recorded = yardstick.CHECKSUM
        try:
            yardstick.CHECKSUM = "0" * 16
            with self.assertRaisesRegex(RuntimeError, "yardstick failed"):
                harness.yardstick()
        finally:
            yardstick.CHECKSUM = recorded


class InputsTest(unittest.TestCase):
    def test_irreducible_moduli_counts(self):
        self.assertEqual([len(run.irreducible_moduli(n)) for n in (2, 4, 5, 6)],
                         [1, 3, 6, 9])


if __name__ == "__main__":
    unittest.main()
