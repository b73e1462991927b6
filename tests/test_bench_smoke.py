"""Short runs of both benchmark workloads: every request passes its oracle
and the outputs digest matches the one recorded for the seed.

A change that alters what a request prints, or breaks a request outright,
fails here rather than only in a full benchmark run.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["verify-exhaustive", "requests-narrow"])
def test_bench_workload_is_correct_and_matches_its_digest(workload):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert "(matches the recorded one)" in done.stdout
