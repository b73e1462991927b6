"""The benchmark's tracer must count every call of each layer it wraps.

``perfbench/selftest.py`` checks the tracer against ``sys.setprofile`` on a
few requests; a cache that skipped traced calls, or a layer function the
tracer no longer reaches, would skew the per-layer split without failing a
run of the benchmark itself.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_selftest_passes():
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
