"""The README's examples print what they show: each ``$ revadd ...`` line
is run through the CLI, and the netlist format block is the serialized
full adder."""

import os
import shlex

import pytest

from revadd import build_design, serialize
from revadd.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
    README = fh.read().splitlines()
PROMPT = "$ revadd "


def _shown_after(i: int) -> str:
    """The lines after README line ``i``, up to the next blank line or
    fence, as the text a command prints."""
    shown = []
    for line in README[i + 1:]:
        if not line or line.startswith("```"):
            break
        shown.append(line)
    return "".join(f"{line}\n" for line in shown)


EXAMPLES = [(line[len(PROMPT):], _shown_after(i))
            for i, line in enumerate(README) if line.startswith(PROMPT)]


def test_readme_shows_examples():
    assert EXAMPLES


@pytest.mark.parametrize("command, shown", EXAMPLES,
                         ids=[command for command, _ in EXAMPLES])
def test_readme_example_prints_what_it_shows(capsys, command, shown):
    assert main(shlex.split(command)) == 0
    assert capsys.readouterr().out == shown


def test_readme_netlist_block_is_the_serialized_full_adder():
    start = README.index("## Netlist format")
    fence = next(i for i in range(start, len(README))
                 if README[i].startswith("```"))
    block = README[fence + 1:README.index("```", fence + 1)]
    assert "".join(f"{line}\n" for line in block) == serialize(
        build_design("fa"))
