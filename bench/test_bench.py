"""Keeps the benchmark harness working: its smoke mode passes and its
inputs are a function of the seed alone."""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_smoke_mode_passes():
    proc = subprocess.run([sys.executable, os.path.join("bench", "run.py"),
                           "--smoke"], cwd=ROOT, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == {"correct": True, "attempted": len(WORKLOADS) + 1,
                      "failed": 0, "metrics": {}}


def test_inputs_depend_only_on_the_seed(tmp_path):
    for cls in WORKLOADS.values():
        first, again, other = (cls(seed, ROOT, str(tmp_path))
                               for seed in (7, 7, 8))
        assert first.pass_inputs >= 100    # ten samples beyond p90
        stream = [run.canonical(first.raw(i)) for i in range(12)]
        assert stream == [run.canonical(again.raw(i)) for i in range(12)]
        assert stream != [run.canonical(other.raw(i)) for i in range(12)]
