"""The fault map of ``evaluate_lines`` names lines the netlist may lack:
such ids are ignored, but their models are still checked."""

from random import Random

import pytest

from helpers import random_fanout_free, reference_evaluate_lines
from revadd import build_design
from revadd.faults import FAULT_MODELS
from revadd.netlist import evaluate_lines

NETLISTS = [build_design("fa"), build_design("hsa16"),
            random_fanout_free(Random(5), "rnd", 6, 3, 10)]


def _same(net, masks, one, fault):
    got = evaluate_lines(net, masks, one, fault)
    want = reference_evaluate_lines(net, masks, one, fault)
    assert list(zip(net.all_lines(), got)) == list(want.items())
    return got


@pytest.mark.parametrize("width", [1, 64])
@pytest.mark.parametrize("net", NETLISTS, ids=lambda net: net.name)
def test_absent_ids_are_ignored(net, width):
    rng = Random(f"{net.name}/{width}")
    one = (1 << width) - 1
    masks = [rng.getrandbits(width) for _ in net.inputs]
    clean = evaluate_lines(net, masks, one)
    for model in FAULT_MODELS:
        assert _same(net, masks, one, {"ghost": (model, one)}) == clean
    lines = net.all_lines()
    real = {lid: (rng.choice(FAULT_MODELS), rng.getrandbits(width) or one)
            for lid in rng.sample(lines, min(3, len(lines)))}
    mixed = {"ghost": ("flip", one), **real, "phantom": ("sa1", one)}
    assert _same(net, masks, one, mixed) == _same(net, masks, one, real)


@pytest.mark.parametrize("width", [1, 64])
def test_unknown_model_on_an_absent_id_still_raises(width):
    net = build_design("fa")
    one = (1 << width) - 1
    for fault in ({"ghost": ("stuck", one)},
                  {net.inputs[0]: ("flip", one), "ghost": ("stuck", one)}):
        for evaluate in (evaluate_lines, reference_evaluate_lines):
            with pytest.raises(ValueError,
                               match="unknown fault model 'stuck'"):
                evaluate(net, [one] * len(net.inputs), one, fault)
