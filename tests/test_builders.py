"""Adder designs: reference compositions, arithmetic oracles, structure."""

from random import Random

import pytest

from helpers import (bits_to_int, check_adder_exhaustive, int_to_bits,
                     operand_vector)
from revadd import (AdderSpec, GateKind, build_cla2, build_csa4,
                    build_design, build_full_adder, build_hsa16, build_rca,
                    builders, gates, is_parity_preserving_circuit, metrics,
                    netlist, simulate, truth_table, validate)

EXPECTED_METRICS = {
    "fa": ({"MIG": 2}, 2, (6, 4, 2), 2, 3),
    "rca:4": ({"MIG": 8}, 8, (24, 16, 8), 8, 12),
    "cla2": ({"MIG": 4, "F2G": 10, "NFT": 5}, 19, (47, 23, 9), 26, 28),
    "csa4": ({"MIG": 8, "NFT": 4, "F2G": 2}, 14, (40, 28, 12), 15, 19),
    "hsa16": ({"MIG": 32, "NFT": 16, "F2G": 8}, 56, (160, 112, 48), 60, 76),
}


@pytest.mark.parametrize("design", sorted(EXPECTED_METRICS))
def test_reference_composition(design):
    gates, total, cost, consts, garb = EXPECTED_METRICS[design]
    m = metrics(build_design(design))
    assert m.gate_count_by_kind == gates
    assert m.total_gates == total
    assert m.cost.as_tuple() == cost
    assert m.constant_inputs == consts
    assert m.garbage_outputs == garb


@pytest.mark.parametrize("design", sorted(EXPECTED_METRICS))
def test_every_builder_validates_clean(design):
    assert validate(build_design(design)) == []


def test_full_adder_arithmetic_exhaustive():
    check_adder_exhaustive(build_full_adder(), 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rca_arithmetic_exhaustive(n):
    check_adder_exhaustive(build_rca(n), n)


def test_cla2_arithmetic_exhaustive():
    check_adder_exhaustive(build_cla2(), 2)


def test_csa4_arithmetic_exhaustive():
    check_adder_exhaustive(build_csa4(), 4)


def test_csa4_extensionally_equals_rca4():
    csa = truth_table(build_csa4())
    rca = truth_table(build_rca(4))
    for (ins_c, outs_c, _), (ins_r, outs_r, _) in zip(csa, rca):
        assert ins_c == ins_r
        assert outs_c == outs_r


def test_rca_width_range():
    with pytest.raises(ValueError, match="out of range"):
        build_rca(0)
    with pytest.raises(ValueError, match="out of range"):
        build_rca(17)
    build_rca(16)  # boundary accepted


def test_spec_example_vectors():
    fa = build_full_adder()
    assert simulate(fa, (1, 0, 1)).outputs == {"Sum": 0, "Cout": 1}

    cla = build_cla2()
    r = simulate(cla, operand_vector(0b11, 0b01, 0, 2))
    assert (r.outputs["S0"], r.outputs["S1"], r.outputs["C2"]) == (0, 0, 1)

    rca = build_rca(4)
    r = simulate(rca, operand_vector(15, 15, 1, 4))
    assert bits_to_int([r.outputs[f"S{i}"] for i in range(4)]) == 15
    assert r.outputs["Cout"] == 1

    csa = build_csa4()
    r = simulate(csa, operand_vector(0b1111, 0, 1, 4))  # full-propagate skip
    assert bits_to_int([r.outputs[f"S{i}"] for i in range(4)]) == 0
    assert r.outputs["Cout"] == 1


def _hsa_result(net, a, b, cin):
    r = simulate(net, operand_vector(a, b, cin, 16))
    s = bits_to_int([r.outputs[f"S{i}"] for i in range(16)])
    return s, r.outputs["Cout"]


def test_hsa16_edge_and_random_vectors():
    net = build_hsa16()
    edges = [0x0000, 0xFFFF, 0xAAAA, 0x5555] + [1 << k for k in range(16)]
    cases = [(a, b, c) for a in edges for b in edges for c in (0, 1)]
    rng = Random(99)
    cases += [(rng.getrandbits(16), rng.getrandbits(16), rng.getrandbits(1))
              for _ in range(2000)]
    for a, b, c in cases:
        s, cout = _hsa_result(net, a, b, c)
        assert s + (cout << 16) == a + b + c, (hex(a), hex(b), c)


def test_hsa16_wraparound_example():
    s, cout = _hsa_result(build_hsa16(), 0xFFFF, 0x0001, 0)
    assert s == 0 and cout == 1


def test_full_adder_matches_minimality_bound_exactly():
    # the fault-tolerant bound: at least 3 garbage and 2 constants; met here
    # with equality
    fa = build_full_adder()
    assert len(fa.constants) == 2
    assert len(fa.garbage) == 3
    assert [name for name, _ in fa.outputs] == ["Sum", "Cout"]


def test_every_builder_is_parity_preserving():
    for design in ("fa", "rca:4", "cla2", "csa4"):
        assert is_parity_preserving_circuit(build_design(design)), design
    assert is_parity_preserving_circuit(build_hsa16(), 1024, seed=5)


def test_hsa_metrics_are_four_csa_blocks():
    hsa = metrics(build_hsa16())
    csa = metrics(build_csa4())
    assert hsa.total_gates == 4 * csa.total_gates
    assert hsa.cost == 4 * csa.cost
    assert hsa.constant_inputs == 4 * csa.constant_inputs
    assert hsa.garbage_outputs == 4 * csa.garbage_outputs
    assert hsa.gate_count_by_kind == {
        tag: 4 * n for tag, n in csa.gate_count_by_kind.items()}


def test_rca_garbage_and_constants_scale_linearly():
    for n in (1, 3, 7):
        net = build_rca(n)
        assert len(net.constants) == 2 * n
        assert len(net.garbage) == 3 * n


def test_adder_spec_invariants():
    assert AdderSpec(16).width == 16
    for width in (2, 6, 18):
        with pytest.raises(ValueError, match="whole number of blocks"):
            AdderSpec(width)
    with pytest.raises(ValueError, match="positive"):
        AdderSpec(width=0)


def test_build_design_registry():
    assert build_design("rca:8").name == "rca8"
    with pytest.raises(KeyError, match="unknown design"):
        build_design("cla4")


def test_operands_are_little_endian():
    # bit 0 of each operand drives the least significant stage
    rca = build_rca(2)
    r = simulate(rca, operand_vector(0b01, 0b00, 0, 2))
    assert (r.outputs["S0"], r.outputs["S1"]) == (1, 0)
    assert int_to_bits(2, 2) == [0, 1]


@pytest.mark.parametrize("design", ["fa", "cla2", "csa4", "hsa16", "rca:8"])
def test_build_design_returns_one_netlist_per_design(design):
    assert build_design(design) is build_design(design)


def test_build_design_keys_on_the_builder_argument():
    assert build_design("rca:8") is build_design("rca:008")
    assert build_design("rca:8") is not build_design("rca:7")


@pytest.mark.parametrize("name", ["rca:0", "rca:99"])
def test_failed_build_is_not_kept(name):
    before = dict(builders._BUILT)
    for _ in range(2):
        with pytest.raises(ValueError, match="out of range 1..16"):
            build_design(name)
    assert builders._BUILT == before


def test_valid_finish_makes_no_validate_call(monkeypatch):
    calls = []
    monkeypatch.setattr(netlist, "validate",
                        lambda net: calls.append(net) or [])
    assert build_full_adder().name == "fa"
    assert calls == []


def test_memoized_design_runs_the_current_gate_table(monkeypatch):
    fa = build_design("fa")
    want = simulate(fa, (1, 1, 1)).outputs
    assert want == {"Sum": 1, "Cout": 1}
    with monkeypatch.context() as m:
        # an identity MIG routes cin to Sum and the constant k0 to Cout
        m.setitem(gates.EVAL, GateKind.MIG, lambda v, one: v)
        assert build_design("fa") is fa
        assert simulate(fa, (1, 1, 1)).outputs == {"Sum": 1, "Cout": 0}
    assert simulate(build_design("fa"), (1, 1, 1)).outputs == want


@pytest.mark.parametrize("name", ["rca:٣", "rca:３", "rca:"])
def test_design_argument_is_ascii_digits(name):
    # int() reads Arabic-Indic and fullwidth digits; a design name does not
    with pytest.raises(KeyError, match="unknown design"):
        build_design(name)
