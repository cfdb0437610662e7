#!/usr/bin/env python3
"""Self-tests of the benchmark, at tiny sizes.  Run from the checkout root:

    python3 qbench/selftest.py

Checks that every workload emits exactly the metrics BENCHMARK.json names,
that its gates pass, that per-layer self times add up to the root spans,
that the negative controls are rejected by the real verifier and would be
accepted by one that stopped checking, and that the benchmark refuses to
run without the package sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)
RUN = [sys.executable, os.path.join(HERE, "run.py")]


def run_tiny(workload, trace):
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", "3", "--seconds", "0.3",
               "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


class WorkloadRuns(unittest.TestCase):
    def check_result(self, result):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)

    def test_end_to_end_metrics(self):
        names = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                meta, result = run_tiny(workload, 0)
                self.check_result(result)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, names)
                for name, value in result["metrics"].items():
                    self.assertGreater(value["value"], 0, name)
                if workload in workloads.RECURSION:
                    self.assertEqual(set(meta["controls"].values()), {"rejected"})
                    self.assertIsNotNone(meta["trace_sha256"])

    def test_per_layer_metrics_and_self_times(self):
        names = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                meta, result = run_tiny(workload, 1)
                self.check_result(result)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, names)
                spans = meta["spans"]
                # self times of all spans telescope to the root spans
                self.assertAlmostEqual(spans["self_s_sum"] / spans["root_total_s"],
                                       1.0, places=6)
                # the root spans sit inside the timed, traced ops
                self.assertLessEqual(spans["root_total_s"], spans["traced_op_s"])
                self.assertGreater(result["metrics"]["trace_overhead"]["value"], 0)


class Definitions(unittest.TestCase):
    def test_layer_names_match_benchmark_json(self):
        spec = [{"name": n, "unit": u, "better": b}
                for n, u, b in layers.per_layer_spec()]
        self.assertEqual(spec, BENCHMARK["per_layer"])

    def test_suites_match_the_package(self):
        from qshift.properties import PROPERTIES

        self.assertEqual(layers.SUITES, list(PROPERTIES))

    def test_workloads_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]],
                         list(workloads.WORKLOADS))


class NegativeControls(unittest.TestCase):
    def setUp(self):
        self.workdir = os.path.join(ROOT, ".bench_out", f"selftest-{os.getpid()}")
        os.makedirs(self.workdir)
        self.addCleanup(shutil.rmtree, self.workdir)
        self.unit = workloads.prepare("point_stream", 0, self.workdir,
                                      workloads.TINY_SIZES["point_stream"])[0]
        code, _, _ = workloads.run_cli(self.unit["ops"][0])
        self.assertEqual(code, 0)

    def test_real_verifier_rejects_both(self):
        outcomes = workloads.negative_controls(self.unit, self.workdir)
        self.assertEqual(outcomes, {"pi_breakpoint": "rejected",
                                    "gap_on_shifted_point": "rejected"})

    def test_verifier_that_stopped_checking_is_caught(self):
        from qshift.reporting import Report

        with mock.patch("qshift.cli.verify_shift_trace",
                        lambda *a, **k: Report()):
            outcomes = workloads.negative_controls(self.unit, self.workdir)
        self.assertNotIn("rejected", outcomes.values())


class WithoutSources(unittest.TestCase):
    def test_refuses_without_package(self):
        bare = os.path.join(ROOT, ".bench_out", f"bare-{os.getpid()}")
        os.makedirs(bare)
        self.addCleanup(shutil.rmtree, bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "qbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "qbench/run.py", "--workload", "checks",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
