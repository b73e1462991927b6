"""Sample counts have a floor of 1 and a ceiling of ``1 << EXHAUSTIVE_LIMIT``,
refused with one wording by the library and, as exit 2, by the CLI.

A refused count must be refused before any vector is drawn or any netlist
evaluated, so each test here replaces the vector source and the evaluator
with traps; a huge count is never run any other way."""

import pytest

from revadd import (build_csa4, build_full_adder,
                    is_parity_preserving_circuit, run_campaign)
from revadd import cli, faults, netlist
from revadd.netlist import EXHAUSTIVE_LIMIT

CEILING = 1 << EXHAUSTIVE_LIMIT
HUGE = 99999999999999999999


class _Trap:
    def __init__(self, *args, **kwargs):
        raise AssertionError("vectors drawn or evaluated for a refused count")


@pytest.fixture
def trapped(monkeypatch):
    for module in (netlist, faults):
        monkeypatch.setattr(module, "evaluate_lines", _Trap)
    monkeypatch.setattr(netlist, "Random", _Trap)


def _message(count):
    return f"sample count must be at most {CEILING}, got {count}"


@pytest.mark.parametrize("count", [CEILING + 1, HUGE])
def test_library_refuses_counts_above_the_ceiling(trapped, count):
    with pytest.raises(ValueError) as campaign:
        run_campaign(build_full_adder(), "flip", samples=count, seed=1)
    with pytest.raises(ValueError) as parity_check:
        is_parity_preserving_circuit(build_full_adder(), count, 0)
    assert str(campaign.value) == str(parity_check.value) == _message(count)


def test_the_ceiling_itself_is_accepted():
    assert is_parity_preserving_circuit(build_csa4(), CEILING, 1)


@pytest.mark.parametrize("argv", [
    ("verify", "hsa16", "--samples", str(HUGE)),
    ("faults", "fa", "--samples", str(HUGE), "--seed", "1"),
    ("verify", "fa", "--samples", str(CEILING + 1)),
    ("faults", "hsa16", "--samples", str(CEILING + 1), "--seed", "1"),
])
def test_cli_refuses_counts_above_the_ceiling(trapped, capsys, argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.rstrip().endswith(
        f"argument --samples: {_message(int(argv[3]))}")
