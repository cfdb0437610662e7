"""The benchmark's own self-tests, run as tier-1: every workload emits the
metrics BENCHMARK.json names, its gates pass, and its negative controls
(corrupted traces) are rejected by ``verify``."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_qbench_selftest_passes():
    proc = subprocess.run([sys.executable, "qbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
