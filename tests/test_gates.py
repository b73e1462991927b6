"""Gate algebra: bijectivity, parity behavior, identities, cost ledger."""

import pytest

from revadd import (ARITY, PARITY_PRESERVING_KINDS, ArityError, CostVector,
                    GateKind, eval_gate, gate_cost, gate_truth_table,
                    is_parity_preserving_gate, is_reversible_gate, parity)

ALL_KINDS = list(GateKind)
PRESERVING = {GateKind.FRG, GateKind.F2G, GateKind.NFT, GateKind.IG,
              GateKind.MIG}


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_every_kind_is_a_bijection(kind):
    table = gate_truth_table(kind)
    assert len(table) == 1 << ARITY[kind]
    outputs = [o for _, o in table]
    assert len(set(outputs)) == len(outputs)
    # output column is a permutation of the input column
    assert sorted(outputs) == sorted(i for i, _ in table)
    assert is_reversible_gate(kind)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_parity_partition(kind):
    assert is_parity_preserving_gate(kind) == (kind in PRESERVING)


def test_non_preserving_kinds_have_witnesses():
    # FG flips parity on (1,0); TG and PG have their own witnesses
    assert parity((1, 0)) == 1
    assert parity(eval_gate(GateKind.FG, (1, 0))) == 0
    for kind in (GateKind.TG, GateKind.PG):
        rows = gate_truth_table(kind)
        assert any(parity(i) != parity(o) for i, o in rows)


def test_ig_equals_mig_on_all_sixteen_inputs():
    assert gate_truth_table(GateKind.IG) == gate_truth_table(GateKind.MIG)


def test_ig_first_three_outputs_match_peres():
    for v in range(16):
        bits = tuple((v >> (3 - i)) & 1 for i in range(4))
        ig_out = eval_gate(GateKind.IG, bits)
        pg_out = eval_gate(GateKind.PG, bits[:3])
        assert ig_out[:3] == pg_out


def test_feynman_examples():
    assert eval_gate(GateKind.FG, (0, 1)) == (0, 1)
    table = gate_truth_table(GateKind.FG)
    assert [o for _, o in table] == [(0, 0), (0, 1), (1, 1), (1, 0)]


def test_feynman_twice_is_identity():
    for v in range(4):
        bits = ((v >> 1) & 1, v & 1)
        assert eval_gate(GateKind.FG, eval_gate(GateKind.FG, bits)) == bits


def test_fredkin_is_a_controlled_swap():
    assert eval_gate(GateKind.FRG, (1, 0, 1)) == (1, 1, 0)
    for v in range(8):
        a, b, c = (v >> 2) & 1, (v >> 1) & 1, v & 1
        expect = (a, c, b) if a else (a, b, c)
        assert eval_gate(GateKind.FRG, (a, b, c)) == expect


def test_mig_example():
    assert eval_gate(GateKind.MIG, (1, 0, 1, 0)) == (1, 1, 1, 1)


def test_double_feynman_copies():
    # with both targets constant 0 the source is replicated onto all lines
    for a in (0, 1):
        assert eval_gate(GateKind.F2G, (a, 0, 0)) == (a, a, a)


def test_nft_and_or_configurations():
    for b in (0, 1):
        for c in (0, 1):
            assert eval_gate(GateKind.NFT, (0, b, c))[2] == b & c
    for a in (0, 1):
        for c in (0, 1):
            assert eval_gate(GateKind.NFT, (a, 0, c))[1] == a | c


def test_eval_gate_arity_error_names_kind_and_widths():
    with pytest.raises(ArityError, match=r"MIG gate expects 4 lines, got 3"):
        eval_gate(GateKind.MIG, (0, 1, 0))
    with pytest.raises(ArityError, match=r"FG gate expects 2"):
        eval_gate(GateKind.FG, (0, 1, 1))


def test_eval_gate_rejects_non_binary_values():
    with pytest.raises(ValueError, match="non-binary"):
        eval_gate(GateKind.FG, (0, 2))


def test_cost_ledger_constants():
    assert gate_cost(GateKind.MIG).as_tuple() == (3, 2, 1)
    assert gate_cost(GateKind.IG).as_tuple() == (4, 3, 1)
    assert gate_cost(GateKind.FRG).as_tuple() == (2, 4, 1)
    assert gate_cost(GateKind.NFT).as_tuple() == (3, 3, 1)
    assert gate_cost(GateKind.F2G).as_tuple() == (2, 0, 0)
    assert gate_cost(GateKind.FG).as_tuple() == (1, 0, 0)
    assert gate_cost(GateKind.TG).as_tuple() == (1, 1, 0)
    assert gate_cost(GateKind.PG).as_tuple() == (2, 1, 0)


def test_cla_cost_identity_pins_nft():
    # 4 MIG + 10 F2G + 5 NFT must reproduce the 2-bit CLA total
    total = (4 * gate_cost(GateKind.MIG) + 10 * gate_cost(GateKind.F2G)
             + 5 * gate_cost(GateKind.NFT))
    assert total.as_tuple() == (47, 23, 9)


def test_cost_vector_algebra():
    x, y, z = CostVector(1, 2, 3), CostVector(4, 0, 1), CostVector(2, 2, 2)
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x + CostVector() == x
    assert 3 * x == CostVector(3, 6, 9)
    assert x.pretty() == "1α+2β+3δ"


def test_parity_helper():
    assert parity(()) == 0
    assert parity((1, 1, 1)) == 1
    assert parity((1, 0, 1, 0)) == 0


def test_parity_preserving_kinds_are_the_preserving_partition():
    assert PARITY_PRESERVING_KINDS == PRESERVING
