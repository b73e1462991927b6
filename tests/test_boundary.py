"""The evaluator returns one word per line in ``all_lines()`` order, and
``_boundary`` reads the outputs, then the garbage, from it by slot: checked
against the dict-based reference, and at boundary widths 0 and 1."""

from random import Random

import pytest

from helpers import random_fanout_free, reference_evaluate_lines
from revadd import Netlist, build_design, simulate
from revadd.builders import design_names
from revadd.netlist import _boundary, evaluate_lines


def _netlists():
    rng = Random(16)
    return ([build_design(d) for d in design_names() if ":" not in d]
            + [build_design("rca:4")]
            + [random_fanout_free(rng, f"rnd{i}", rng.randint(1, 8),
                                  rng.randint(0, 4), 10,
                                  ("some", "none", "all")[i % 3])
               for i in range(20)])


@pytest.mark.parametrize("net", _netlists(), ids=lambda net: net.name)
@pytest.mark.parametrize("width", [1, 64])
def test_boundary_reads_outputs_then_garbage(net, width):
    rng = Random(f"{net.name}/{width}")
    one = (1 << width) - 1
    masks = [rng.getrandbits(width) for _ in net.inputs]
    values = evaluate_lines(net, masks, one)
    assert len(values) == len(net.all_lines())
    want = reference_evaluate_lines(net, masks, one)
    assert _boundary(net, values) == (
        [want[lid] for _, lid in net.outputs]
        + [want[lid] for lid in net.garbage])


@pytest.mark.parametrize("net, bits, outputs, garbage", [
    (Netlist("e"), [], {}, ()),
    (Netlist("w", ["a"], [], [], [("O", "a")]), [1], {"O": 1}, ()),
    (Netlist("g", ["a"], [], [], [], ["a"]), [1], {}, (1,)),
    (Netlist("k", [], [("c", 1)], [], [("O", "c")]), [], {"O": 1}, ()),
], ids=["empty", "one output", "one garbage line", "one constant"])
def test_narrow_boundaries_simulate(net, bits, outputs, garbage):
    result = simulate(net, bits)
    assert result.outputs == outputs
    assert result.garbage == garbage
    assert len(evaluate_lines(net, bits, 1)) == len(net.all_lines())
