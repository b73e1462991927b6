"""Every evaluation goes through the module-global ``evaluate_lines`` of
``revadd.netlist`` or ``revadd.faults``: the bench tracer wraps exactly
that name for its per-layer counts, so each check makes a known number of
calls to it."""

import pytest

from revadd import (build_design, is_parity_preserving_circuit, run_campaign,
                    simulate, truth_table)
from revadd import faults, netlist
from revadd.faults import WORD_BITS, FaultSite, simulate_with_fault


@pytest.fixture
def calls(monkeypatch):
    """Patch both seams with one counter; returns the list of calls."""
    seen = []
    evaluate_lines = netlist.evaluate_lines

    def counted(net, input_masks, one, fault=None):
        seen.append(fault)
        return evaluate_lines(net, input_masks, one, fault)

    monkeypatch.setattr(netlist, "evaluate_lines", counted)
    monkeypatch.setattr(faults, "evaluate_lines", counted)
    return seen


@pytest.mark.parametrize("check", [
    lambda net: simulate(net, [1] * len(net.inputs)),
    lambda net: simulate_with_fault(net, FaultSite(net.inputs[0]),
                                    [0] * len(net.inputs)),
    truth_table,
    lambda net: is_parity_preserving_circuit(net, 64, 1),
], ids=["simulate", "simulate_with_fault", "truth_table",
        "is_parity_preserving_circuit"])
def test_each_check_evaluates_once(calls, check):
    check(build_design("cla2"))
    assert len(calls) == 1


@pytest.mark.parametrize("design", ["fa", "rca:6"])
def test_exhaustive_campaign_evaluates_once_plus_once_per_batch(calls,
                                                                design):
    net = build_design(design)
    slot = 8 * (((1 << len(net.inputs)) + 7) // 8)
    per_batch = max(1, WORD_BITS // slot)
    batches = -(-len(net.all_lines()) // per_batch)
    run_campaign(net, "flip")
    assert len(calls) == 1 + batches
    assert calls[0] is None and all(calls[1:])
