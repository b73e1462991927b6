"""The core package keeps zero runtime dependencies: numpy, hypothesis and
pytest stay test-only or bench-only.  It exports exactly its public names.
Its CLI prints the same bytes on every supported Python that can be started
here."""

import json
import os
import re
import shutil
import subprocess
import sys
from types import ModuleType

import pytest

import revadd

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


def test_all_lists_each_public_name_once_in_order():
    names = revadd.__all__
    assert names == sorted(set(names))
    assert set(names) == {name for name, value in vars(revadd).items()
                          if not name.startswith("_")
                          and not isinstance(value, ModuleType)}


# pyproject.toml: requires-python >= 3.10
SUPPORTED_PYTHONS = [f"python3.{minor}" for minor in range(10, 14)]
# requests whose exit codes and stdout must be the same bytes on each of them
CROSS_VERSION_ARGV = [
    ["verify", "fa"], ["verify", "hsa16"],
    ["faults", "csa4", "--model", "sa1", "--json"],
    ["faults", "hsa16", "--samples", "64", "--seed", "7", "--json"],
    ["sim", "hsa16", "--inputs", "A=0x1234,B=0xFFFF,Cin=1"],
    ["table1"], ["table1", "--json"], ["build", "hsa16"],
    ["metrics", "cla2", "--json"],
]
CROSS_VERSION_SCRIPT = """\
import contextlib, io, json, sys
from revadd import cli
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    results.append([code, out.getvalue()])
sys.stdout.write(json.dumps(results))
"""


def _run_cli_requests(python: str) -> list:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run(
        [python, "-c", CROSS_VERSION_SCRIPT, json.dumps(CROSS_VERSION_ARGV)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _other_pythons() -> dict[str, str]:
    """Version -> path of each of ``SUPPORTED_PYTHONS`` that is on PATH,
    starts, and is not the running version."""
    probe = "import sys; print('%d.%d' % sys.version_info[:2])"
    running = "%d.%d" % sys.version_info[:2]
    found = {}
    for name in SUPPORTED_PYTHONS:
        path = shutil.which(name)
        if path is None:
            continue
        try:
            done = subprocess.run([path, "-c", probe], capture_output=True,
                                  text=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        version = done.stdout.strip()
        if done.returncode == 0 and version and version != running:
            found[version] = path
    return found


def test_cli_output_is_the_same_on_every_other_supported_python():
    found = _other_pythons()
    if not found:
        pytest.skip(f"none of {', '.join(SUPPORTED_PYTHONS)} starts as a "
                    f"Python other than the running {sys.version.split()[0]}")
    expected = _run_cli_requests(sys.executable)
    for version, path in sorted(found.items()):
        assert _run_cli_requests(path) == expected, f"Python {version}"
