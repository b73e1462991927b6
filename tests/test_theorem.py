"""The detection theorem on generated circuits: a fanout-free netlist of
parity-preserving gates is reversible and parity-preserving, a flip of any
one line is detected on every vector, and a stuck-at fault is either silent
or detected, never corrupting unseen."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from helpers import random_fanout_free  # noqa: E402
from revadd import (is_parity_preserving_circuit,  # noqa: E402
                    is_reversible_circuit, parse_netlist, run_campaign,
                    serialize, validate)


@settings(max_examples=60, deadline=None, database=None)
@given(rng=st.randoms(use_true_random=False),
       inputs=st.integers(1, 8), constants=st.integers(0, 4),
       max_gates=st.integers(1, 12),
       named=st.sampled_from(["all", "none", "some"]))
def test_generated_circuits_satisfy_the_detection_theorem(
        rng, inputs, constants, max_gates, named):
    net = random_fanout_free(rng, "gen", inputs, constants, max_gates, named)
    assert validate(net) == []
    assert is_reversible_circuit(net) is True
    assert is_parity_preserving_circuit(net) is True
    flip = run_campaign(net, "flip")
    assert flip.detected == flip.sites_total * 2 ** inputs
    for model in ("sa0", "sa1"):
        report = run_campaign(net, model)
        assert report.coverage == 1.0
        assert report.undetected_and_corrupting == 0
    text = serialize(net)
    assert serialize(parse_netlist(text)) == text
