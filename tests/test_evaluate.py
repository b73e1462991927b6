"""The slot-compiled evaluator against the dict-based reference, with and
without faults, on every built-in design and on random netlists."""

from random import Random

import pytest

from helpers import random_fanout_free, reference_evaluate_lines
from revadd import GateKind, build_design
from revadd.builders import design_names
from revadd.faults import FAULT_MODELS
from revadd.netlist import evaluate_lines

WIDTHS = (1, 64, 1 << 16)
DESIGNS = [d for d in design_names() if ":" not in d] + [
    f"rca:{n}" for n in range(1, 17)]


def _random_netlists():
    rng = Random(7)
    kinds = list(GateKind)  # FG, TG and PG included
    return [random_fanout_free(rng, f"rnd{i}", rng.randint(1, 8),
                               rng.randint(0, 4), 10, kinds=kinds)
            for i in range(30)]


NETLISTS = [build_design(d) for d in DESIGNS] + _random_netlists()


def _same(net, masks, one, fault=None):
    got = evaluate_lines(net, masks, one, fault)
    want = reference_evaluate_lines(net, masks, one, fault)
    assert list(zip(net.all_lines(), got)) == list(want.items())


def test_random_netlists_include_non_parity_gates():
    kinds = {g.kind for net in NETLISTS for g in net.gates}
    assert {GateKind.FG, GateKind.TG, GateKind.PG} <= kinds


@pytest.mark.parametrize("net", NETLISTS, ids=lambda net: net.name)
def test_compiled_evaluator_matches_the_reference(net):
    rng = Random(net.name)
    lines = net.all_lines()
    for width in WIDTHS:
        one = (1 << width) - 1
        masks = [rng.getrandbits(width) for _ in net.inputs]
        _same(net, masks, one)
        # every line faulted at once, each under its own model and mask
        _same(net, masks, one, {lid: (rng.choice(FAULT_MODELS),
                                      rng.getrandbits(width))
                                for lid in lines})
        if width > 64:
            continue
        # one line at a time, inputs and constants included
        for lid in lines:
            for model in FAULT_MODELS:
                _same(net, masks, one, {lid: (model, rng.getrandbits(width)
                                              if width > 1 else one)})


def test_input_masks_must_match_the_inputs():
    fa = build_design("fa")
    for masks in ([0, 1], [0, 1, 1, 0]):
        with pytest.raises(ValueError, match="has 3 primary inputs, got"):
            evaluate_lines(fa, masks, 1)
