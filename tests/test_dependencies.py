"""The core package keeps zero runtime dependencies: numpy, hypothesis and
pytest stay test-only or bench-only."""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TEST_ONLY = ("numpy", "hypothesis", "pytest")


def test_pyproject_declares_no_runtime_dependencies():
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as fh:
        text = fh.read()
    project = re.search(r"^\[project\]$(.*?)(?=^\[)", text, re.M | re.S)
    assert project and re.search(r"^dependencies = \[\]$", project.group(1),
                                 re.M)


def test_importing_the_package_and_cli_loads_no_test_only_module():
    probe = ("import sys, revadd, revadd.cli\n"
             "print(revadd.__file__)\n"
             f"print(sorted(m for m in sys.modules "
             f"if m.partition('.')[0] in {TEST_ONLY!r}))\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    path, loaded = done.stdout.splitlines()
    assert path.startswith(os.path.join(ROOT, "src", "revadd"))
    assert loaded == "[]"
