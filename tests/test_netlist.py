"""Netlist structure, validation categories, simulation, tables, metrics."""

import dataclasses
import os
import re
import subprocess
import sys
from collections import Counter
from itertools import zip_longest
from random import Random

import pytest

from helpers import (check_adder_exhaustive, passthrough, pg_full_adder,
                     random_fanout_free, reference_is_reversible,
                     reference_truth_table, reference_validate)
from revadd import (GateInstance, GateKind, Netlist, NetlistBuilder,
                    NetlistError, NetlistParseError, WidthLimitError,
                    build_cla2, build_csa4, build_design, build_full_adder,
                    build_rca, gate_cost, gates, is_parity_preserving_circuit,
                    is_reversible_circuit, metrics, netlist, parse_netlist,
                    run_campaign, serialize, simulate, truth_table, validate)
from revadd.faults import FAULT_MODELS
from revadd.netlist import EXHAUSTIVE_LIMIT, FAULT_TRANSFORMS, variable_masks

MIG = GateKind.MIG
F2G = GateKind.F2G


def categories(net):
    return {v.category for v in validate(net)}


def test_builder_output_is_valid():
    assert validate(build_full_adder()) == []


def _read_twice(nb):
    nb.gate(F2G, ("a", "b", "k"), ("x", "y", "z"))
    nb.gate(F2G, ("a", "x", "y"), ("u", "v", "w"))


@pytest.mark.parametrize("mistake, named", [
    (_read_twice, "[fanout] line 'a' feeds 2 sinks"),
    (lambda nb: nb.gate(F2G, ("a", "ghost", "k"), ("x", "y", "z")),
     "[order] gate 0 (F2G) reads 'ghost'"),
    (lambda nb: nb.gate(MIG, ("a", "b", "k"), ("w", "x", "y", "z")),
     "[width] gate 0 (MIG) has 3 inputs"),
    (lambda nb: nb.input("a"), "[role] line 'a' defined more than once"),
    (lambda nb: nb.const("c", 2), "[role] constant 'c' has polarity 2"),
    (lambda nb: nb.const("c", True), "[role] constant 'c' has polarity True"),
    (lambda nb: nb.const("c", 1.0), "[role] constant 'c' has polarity 1.0"),
], ids=["read-twice", "undefined-input", "mig-arity", "defined-twice",
        "polarity-2", "polarity-True", "polarity-1.0"])
def test_builder_records_mistakes_and_finish_refuses_them(mistake, named):
    nb = NetlistBuilder("bad")
    nb.input("a")
    nb.input("b")
    nb.const("k", 0)
    mistake(nb)  # recording never raises
    with pytest.raises(NetlistError, match=re.escape(named)) as err:
        nb.finish([])
    # the derived garbage adds no sink of its own
    assert ("[fanout]" in str(err.value)) == named.startswith("[fanout]")


def test_fanout_violation():
    # one source feeding two gate inputs
    gates = [
        GateInstance(F2G, ("a", "k0", "k1"), ("x", "y", "z")),
        GateInstance(F2G, ("x", "x", "y"), ("u", "v", "w")),
    ]
    net = Netlist("fan", ["a"], [("k0", 0), ("k1", 0)], gates,
                  [("O", "u")], ["z", "v", "w"])
    found = [v for v in validate(net) if v.category == "fanout"]
    assert found and "x" in found[0].lines


def test_output_also_consumed_is_fanout():
    gates = [GateInstance(F2G, ("a", "k0", "k1"), ("x", "y", "z"))]
    net = Netlist("fan2", ["a"], [("k0", 0), ("k1", 0)], gates,
                  [("O", "a")], ["x", "y", "z"])
    assert "fanout" in categories(net)


def test_boundary_width_violation():
    # 3 inputs vs 2 outputs: with square gates the mismatch follows from a
    # per-line violation (c has no sink), which is reported alone
    net = Netlist("skew", ["a", "b", "c"], [], [], [("O0", "a"), ("O1", "b")],
                  [])
    assert [v.category for v in validate(net)] == ["dangling"]


def test_gate_arity_width_violation():
    gates = [GateInstance(MIG, ("a", "b", "k0"), ("w", "x", "y", "z"))]
    net = Netlist("arity", ["a", "b"], [("k0", 0)], gates,
                  [("O", "w")], ["x", "y", "z"])
    assert "width" in categories(net)


def test_order_violation_use_before_definition():
    gates = [
        GateInstance(F2G, ("later", "k0", "k1"), ("x", "y", "z")),
        GateInstance(F2G, ("a", "k2", "k3"), ("later", "p", "q")),
    ]
    net = Netlist("ooo", ["a"],
                  [("k0", 0), ("k1", 0), ("k2", 0), ("k3", 0)], gates,
                  [("O", "x")], ["y", "z", "p", "q"])
    assert "order" in categories(net)


def test_dangling_and_role_violations():
    net = Netlist("dang", ["a", "b"], [], [], [("O", "a")], [])
    assert categories(net) == {"dangling"}

    net = Netlist("both", ["a"], [], [], [("O", "a")], ["a"])
    assert "role" in categories(net)

    net = Netlist("dup", ["a", "a"], [], [],
                  [("O0", "a"), ("O1", "a")], [])
    assert "role" in categories(net)

    net = Netlist("ghost", ["a"], [], [], [("O", "a")], ["nothere"])
    assert "dangling" in categories(net)


def _invalid_netlists():
    """The invalid netlists of the category tests above; ``dang`` has three
    lines without a sink, so their order shows."""
    fan_gates = [
        GateInstance(F2G, ("a", "k0", "k1"), ("x", "y", "z")),
        GateInstance(F2G, ("x", "x", "y"), ("u", "v", "w")),
    ]
    ooo_gates = [
        GateInstance(F2G, ("later", "k0", "k1"), ("x", "y", "z")),
        GateInstance(F2G, ("a", "k2", "k3"), ("later", "p", "q")),
    ]
    return [
        Netlist("fan", ["a"], [("k0", 0), ("k1", 0)], fan_gates,
                [("O", "u")], ["z", "v", "w"]),
        Netlist("fan2", ["a"], [("k0", 0), ("k1", 0)], fan_gates[:1],
                [("O", "a")], ["x", "y", "z"]),
        Netlist("skew", ["a", "b", "c"], [], [], [("O0", "a"), ("O1", "b")],
                []),
        Netlist("arity", ["a", "b"], [("k0", 0)],
                [GateInstance(MIG, ("a", "b", "k0"), ("w", "x", "y", "z"))],
                [("O", "w")], ["x", "y", "z"]),
        Netlist("ooo", ["a"], [("k0", 0), ("k1", 0), ("k2", 0), ("k3", 0)],
                ooo_gates, [("O", "x")], ["y", "z", "p", "q"]),
        Netlist("dang", ["a", "b", "c", "d"], [], [], [("O", "a")], []),
        Netlist("both", ["a"], [], [], [("O", "a")], ["a"]),
        Netlist("dup", ["a", "a"], [], [], [("O0", "a"), ("O1", "a")], []),
        Netlist("ghost", ["a"], [], [], [("O", "a")], ["nothere"]),
    ]


def _mutant(rng, net, how):
    """``net`` with one seeded structural fault of kind ``how``, or None
    when ``net`` has nothing to apply it to."""
    gates_ = list(net.gates)
    if how == "fanout":  # a gate also reads a line that already has a sink
        i = rng.randrange(len(gates_))
        earlier = list(net.inputs) + [lid for lid, _ in net.constants]
        earlier += [lid for g in gates_[:i] for lid in g.outputs]
        g = gates_[i]
        j = rng.randrange(len(g.inputs))
        choices = [lid for lid in earlier if lid != g.inputs[j]]
        ins = list(g.inputs)
        ins[j] = rng.choice(choices)
        gates_[i] = dataclasses.replace(g, inputs=tuple(ins))
        return dataclasses.replace(net, gates=gates_)
    if how == "drop-garbage":
        if not net.garbage:
            return None
        garbage = list(net.garbage)
        del garbage[rng.randrange(len(garbage))]
        return dataclasses.replace(net, garbage=garbage)
    if how == "swap":  # a gate moved ahead of a gate it reads from
        pairs = [(i, j) for j, gj in enumerate(gates_)
                 for i, gi in enumerate(gates_[:j])
                 if set(gi.outputs) & set(gj.inputs)]
        if not pairs:
            return None
        i, j = rng.choice(pairs)
        gates_[i], gates_[j] = gates_[j], gates_[i]
        return dataclasses.replace(net, gates=gates_)
    if how == "polarity":
        if not net.constants:
            return None
        constants = list(net.constants)
        k = rng.randrange(len(constants))
        constants[k] = (constants[k][0], 2)
        return dataclasses.replace(net, constants=constants)
    if how == "unreadable":  # an id or output name the text cannot read
        if net.garbage and rng.random() < 0.5:  # garbage becomes an output
            garbage = list(net.garbage)
            lid = garbage.pop(rng.randrange(len(garbage)))
            name = rng.choice(("", "O x", "O#"))
            return dataclasses.replace(
                net, outputs=[*net.outputs, (name, lid)], garbage=garbage)
        old = rng.choice(net.all_lines())  # renamed wherever it appears
        new = {old: f"{rng.randrange(10)}{old}"}

        def ren(lids):
            return tuple(new.get(lid, lid) for lid in lids)
        return dataclasses.replace(
            net, inputs=ren(net.inputs),
            constants=[(new.get(lid, lid), v) for lid, v in net.constants],
            gates=[dataclasses.replace(g, inputs=ren(g.inputs),
                                       outputs=ren(g.outputs))
                   for g in gates_],
            outputs=[(name, new.get(lid, lid)) for name, lid in net.outputs],
            garbage=ren(net.garbage))
    assert how == "duplicate-id"  # a gate output takes an input's id
    i = rng.randrange(len(gates_))
    g = gates_[i]
    outs = list(g.outputs)
    outs[rng.randrange(len(outs))] = rng.choice(net.inputs)
    gates_[i] = dataclasses.replace(g, outputs=tuple(outs))
    return dataclasses.replace(net, gates=gates_)


def _seeded_mutants(count):
    rng = Random(4)
    kinds = ("fanout", "drop-garbage", "swap", "polarity", "duplicate-id",
             "unreadable")
    mutants = []
    while len(mutants) < count:
        net = random_fanout_free(rng, f"mut{len(mutants)}", rng.randint(2, 6),
                                 rng.randint(1, 4), 10, ("some", "none")[
                                     len(mutants) % 2])
        if net.gates:
            bad = _mutant(rng, net, kinds[len(mutants) % len(kinds)])
            if bad is not None:
                mutants.append(bad)
    return mutants


def _without_no_sink(found):
    return [v for v in found if "has no sink" not in v.message]


@pytest.mark.parametrize("net", _invalid_netlists() + _seeded_mutants(50),
                         ids=lambda net: net.name)
def test_validate_matches_reference(net):
    want = reference_validate(net)
    got = validate(net)
    assert got, "every netlist here is invalid"
    assert Counter(got) == Counter(want)
    assert _without_no_sink(got) == _without_no_sink(want)


def _random_valid(count):
    rng = Random(11)
    return [random_fanout_free(rng, f"ok{i}", rng.randint(1, 6),
                               rng.randint(0, 4), 10,
                               ("some", "none", "all")[i % 3])
            for i in range(count)]


def _left_to_validate(v):
    """A violation that the parser's checks of the text do not catch
    first: fanout, dangling or both-roles."""
    return (v.category in ("fanout", "dangling")
            or v.message.startswith("lines declared both"))


@pytest.mark.parametrize(
    "net", _invalid_netlists() + _seeded_mutants(50) + _random_valid(30),
    ids=lambda net: net.name)
def test_parser_and_validate_agree(net):
    found = validate(net)
    text = serialize(net)
    if not found:
        assert parse_netlist(text) == net
        return
    with pytest.raises(NetlistParseError) as err:
        parse_netlist(text)
    if all(map(_left_to_validate, found)):
        got = [re.sub(r" \(at [0-9:, ]+\)$", "", d.message)
               for d in err.value.diagnostics]
        assert got == [str(v) for v in found]


@pytest.mark.parametrize("outputs, named", [
    ([("O", "ghost")], "undefined line 'ghost'"),
    ([("O", "a")], "line 'a' feeds 2 sinks"),
    ([("S", "x"), ("T", "x")], "line 'x' feeds 2 sinks"),
], ids=["unknown", "consumed", "output-twice"])
def test_finish_refuses_bad_outputs_naming_the_line(outputs, named):
    nb = NetlistBuilder("bad")
    a, b = nb.input("a"), nb.input("b")
    nb.gate(GateKind.FG, (a, b), ("x", "y"))
    with pytest.raises(NetlistError, match=named):
        nb.finish(outputs)


def test_no_sink_violations_in_definition_order_under_any_hash_seed():
    code = ("from revadd import Netlist, validate\n"
            "net = Netlist('dang', ['a', 'b', 'c', 'd'], [], [], "
            "[('O', 'a')], [])\n"
            "print(','.join(v.lines[0] for v in validate(net)\n"
            "               if 'has no sink' in v.message))\n")
    src = os.path.dirname(os.path.dirname(netlist.__file__))
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "b,c,d", f"PYTHONHASHSEED={seed}"


def test_duplicate_output_names_are_a_role_violation():
    net = Netlist("dupname", ["a", "b"], [], [], [("S", "a"), ("S", "b")], [])
    assert [(v.category, v.lines) for v in validate(net)] == [("role", ("b",))]
    assert "output name 'S'" in validate(net)[0].message
    with pytest.raises(NetlistError, match="output name 'S'"):
        simulate(net, (0, 1))


def test_netlist_is_frozen_with_tuple_fields():
    net = Netlist("lists", ["a"], [("k", 0)],
                  [GateInstance(GateKind.FG, ("a", "k"), ("x", "y"))],
                  [("O", "x")], ["y"])
    for name in ("inputs", "constants", "gates", "outputs", "garbage"):
        assert type(getattr(net, name)) is tuple, name
    with pytest.raises(dataclasses.FrozenInstanceError):
        net.inputs = ("b",)
    assert validate(net) == []
    # the kept violations are no field
    assert net == dataclasses.replace(net)
    assert list(dataclasses.asdict(net)) == [
        "name", "inputs", "constants", "gates", "outputs", "garbage"]
    assert "_violations" not in repr(net)


def test_violations_found_once_per_instance(monkeypatch):
    calls = []
    finder = netlist._find_violations
    monkeypatch.setattr(netlist, "_find_violations",
                        lambda net: calls.append(net.name) or finder(net))
    fa = build_full_adder()  # finish() validates
    assert calls == ["fa"]
    validate(fa)
    simulate(fa, (1, 0, 1))
    metrics(fa)
    run_campaign(fa)
    run_campaign(fa, samples=8, seed=1)
    assert calls == ["fa"]
    validate(dataclasses.replace(fa))
    assert calls == ["fa", "fa"]


def test_mutating_a_returned_list_leaves_the_next_result_unchanged():
    net = _invalid_netlists()[0]
    want = validate(net)
    got = validate(net)
    got.clear()
    got.append("poison")
    assert validate(net) == want and want


def test_simulate_full_adder_examples():
    fa = build_full_adder()
    assert simulate(fa, (1, 1, 0)).outputs == {"Sum": 0, "Cout": 1}
    assert simulate(fa, (0, 0, 0)).outputs == {"Sum": 0, "Cout": 0}
    assert simulate(fa, (1, 0, 1)).outputs == {"Sum": 0, "Cout": 1}


def test_simulate_checks_validity_and_width():
    broken = Netlist("skew", ["a", "b"], [], [], [("O", "a")], [])
    with pytest.raises(NetlistError):
        simulate(broken, (0, 0))
    with pytest.raises(ValueError, match="3 primary inputs"):
        simulate(build_full_adder(), (0, 0))
    with pytest.raises(ValueError, match="non-binary"):
        simulate(build_full_adder(), (0, 2, 0))


def test_simulate_rca4_example():
    net = build_rca(4)
    r = simulate(net, [1, 1, 1, 0, 1, 0, 0, 0, 0])  # A=7, B=1, cin=0
    assert [r.outputs[f"S{i}"] for i in range(4)] == [0, 0, 0, 1]
    assert r.outputs["Cout"] == 0


def test_truth_table_full_adder_is_addition():
    assert check_adder_exhaustive(build_full_adder(), 1) == 8


def test_truth_table_cla2_is_addition():
    assert check_adder_exhaustive(build_cla2(), 2) == 32


def test_truth_table_passthrough_identity():
    for ins, outs, garb in truth_table(passthrough(3)):
        assert outs == ins and garb == ()


def test_truth_table_refuses_wide_inputs():
    with pytest.raises(WidthLimitError, match="21 primary inputs"):
        truth_table(passthrough(21))


def test_parity_circuit_checks():
    assert is_parity_preserving_circuit(build_full_adder())
    assert is_parity_preserving_circuit(passthrough(4))
    assert not is_parity_preserving_circuit(pg_full_adder())


def test_parity_preserving_composition_property():
    # any circuit stacked from parity-preserving kinds conserves parity
    rng = Random(7)
    for trial in range(25):
        net = random_fanout_free(rng, f"rand{trial}", 6, 4, 12, "none")
        assert is_parity_preserving_circuit(net), f"trial {trial}"


def test_sampled_parity_check():
    assert is_parity_preserving_circuit(build_csa4(), 256, seed=3)
    assert not is_parity_preserving_circuit(pg_full_adder(), 256, seed=3)


def test_reversibility_checks():
    assert is_reversible_circuit(build_full_adder())
    assert is_reversible_circuit(build_csa4())
    assert is_reversible_circuit(passthrough(2))
    # any validated netlist over the closed gate set composes bijections,
    # so injectivity holds even when outputs are partly garbage
    fold = Netlist("fold", ["a", "b"], [],
                   [GateInstance(GateKind.FG, ("a", "b"), ("x", "y"))],
                   [("O", "y")], ["x"])
    assert is_reversible_circuit(fold)


def test_sampled_parity_check_refuses_sample_counts_below_one():
    for samples in (0, -3):
        with pytest.raises(ValueError, match="sample count must be positive"):
            is_parity_preserving_circuit(pg_full_adder(), samples, 0)


def test_variable_masks_enumerate_every_vector():
    for n in range(11):
        want = [sum(((v >> i) & 1) << v for v in range(1 << n))
                for i in range(n)]
        assert variable_masks(n) == want, n


def _assert_matches_reference(net):
    assert truth_table(net) == reference_truth_table(net), net.name
    assert is_reversible_circuit(net) == reference_is_reversible(net), net.name


@pytest.mark.parametrize("name", ["fa", "cla2", "csa4", "rca:2", "rca:3",
                                  "rca:4", "rca:5", "rca:6"])
def test_exhaustive_analysis_matches_reference_on_designs(name):
    # hsa16 has 33 primary inputs, beyond exhaustive reach for either side
    _assert_matches_reference(build_design(name))


def test_exhaustive_analysis_matches_reference_on_random_netlists():
    rng = Random(2)
    policies = ("all", "none", "some")
    for trial in range(51):
        named = policies[trial % 3]
        net = random_fanout_free(rng, f"rand{trial}", rng.randint(1, 8),
                                 rng.randint(0, 4), 10, named)
        if named == "all":
            assert net.garbage == ()
        if named == "none":
            assert net.outputs == ()
        _assert_matches_reference(net)


def test_exhaustive_analysis_edge_boundaries():
    # empty column lists still give one row per input vector
    for net in (passthrough(3), passthrough(0), Netlist("constonly", [],
                [("k", 1)], [], [], ["k"])):
        _assert_matches_reference(net)
        assert len(truth_table(net)) == 1 << len(net.inputs)
    assert truth_table(passthrough(0)) == [((), (), ())]


def test_reversibility_check_can_fail(monkeypatch):
    # every valid netlist over the real gates is a bijection, so only a
    # non-injective gate map reaches the False verdict
    fa = build_full_adder()
    assert is_reversible_circuit(fa)
    monkeypatch.setitem(gates.EVAL, MIG, lambda v, one: (v[0], v[1], v[2], 0))
    assert reference_is_reversible(fa) is False
    assert is_reversible_circuit(fa) is False
    assert truth_table(fa) == reference_truth_table(fa)


# boundary widths on each side of every key size _injective packs to
# (one 8-byte key up to 64 lines, then bytes slices above 64 lines)
KEY_WIDTHS = [0, 1, 8, 9, 16, 17, 32, 33, 64, 65, 72]


def _wide_net(width: int) -> Netlist:
    """A netlist with ``width`` boundary lines: up to four inputs, the rest
    constants, an FG gate on the first two inputs, the first half of the
    lines named outputs and the rest garbage."""
    nb = NetlistBuilder(f"wide{width}")
    lines = [nb.input(f"w{i}") for i in range(min(width, 4))]
    lines += [nb.const(f"k{i}", i % 2) for i in range(width - len(lines))]
    if width >= 2:
        lines[:2] = nb.gate(GateKind.FG, lines[:2], ("x0", "x1"))
    return nb.finish([(f"O{i}", lid) for i, lid in enumerate(lines)
                      if i < width // 2])


def _injective_on_rows(net: Netlist, rows) -> bool:
    """``netlist._injective`` over vectors whose boundary rows are given:
    bit v of boundary line i's mask is ``rows[v][i]``."""
    words = [sum(row[i] << v for v, row in enumerate(rows))
             for i in range(net.boundary_out_width())]
    return netlist._injective(words, len(rows))


@pytest.mark.parametrize("width", KEY_WIDTHS)
def test_injective_agrees_with_a_set_of_rows_at_every_key_size(width):
    net = _wide_net(width)
    assert net.boundary_out_width() == width
    assert is_reversible_circuit(net) is reference_is_reversible(net) is True
    rng = Random(width)

    def row():
        return tuple(rng.getrandbits(1) for _ in range(width))

    def agrees(rows):
        verdict = _injective_on_rows(net, rows)
        assert verdict is (len(set(rows)) == len(rows)), rows
        return verdict

    rows = sorted({row() for _ in range(12)})
    assert agrees(rows)
    assert not agrees(rows + [rows[len(rows) // 2]])  # exactly two collide
    agrees([row() for _ in range(40)])
    # two vectors told apart only by the last line of one key byte, for
    # every byte up to the last line of the highest one: a key that
    # dropped any byte would merge them
    for col in sorted({min(c, width - 1) for c in range(7, width + 7, 8)}):
        a = row()
        b = a[:col] + (1 - a[col],) + a[col + 1:]
        assert agrees([a, b])


@pytest.mark.parametrize("width", [w for w in KEY_WIDTHS if w >= 2])
def test_reversibility_check_fails_at_every_key_size(monkeypatch, width):
    # widths 0 and 1 have no room for a gate (the narrowest, FG, has two
    # lines); here FG drops its second line, merging vectors that differ
    # only in input w1
    net = _wide_net(width)
    monkeypatch.setitem(gates.EVAL, GateKind.FG, lambda v, one: (v[0], 0))
    assert reference_is_reversible(net) is False
    assert is_reversible_circuit(net) is False


def _group_net(inputs: int, outputs: int, garbage: int) -> Netlist:
    """A netlist of ``inputs`` inputs whose first ``outputs`` boundary
    lines are named outputs and the next ``garbage`` lines garbage.  Lines
    beyond the inputs are constants of alternating polarity, and a chain of
    FG gates turns line i into the XOR of lines 0..i, so a group of k lines
    over the inputs takes all 2^k values."""
    nb = NetlistBuilder(f"g{inputs}_{outputs}_{garbage}")
    lines = [nb.input(f"i{j}") for j in range(inputs)]
    lines += [nb.const(f"k{j}", j % 2)
              for j in range(outputs + garbage - inputs)]
    for j in range(1, len(lines)):
        lines[j - 1:j + 1] = nb.gate(GateKind.FG, lines[j - 1:j + 1],
                                     (f"x{j}", f"y{j}"))
    return nb.finish([(f"O{j}", lid) for j, lid in enumerate(lines[:outputs])])


# (inputs, outputs, garbage): input counts on each side of the 8-bit split
# of the input rows, and output and garbage groups of 0, 1, 8, 9, 16 and 17
# lines over fewer or more vectors than 2^k, and for 9 to 16 lines over
# fewer or at least 8 * 2^k vectors, where the rows come from pages
ROW_EDGES = [
    (0, 0, 0), (0, 1, 0), (0, 0, 9), (1, 1, 0), (1, 0, 1), (1, 8, 9),
    (1, 16, 1), (8, 8, 0), (8, 0, 8), (8, 8, 9), (8, 9, 8), (9, 9, 0),
    (9, 0, 9), (9, 1, 8), (9, 16, 1), (11, 9, 5), (11, 5, 9), (12, 9, 8),
    (12, 8, 9), (12, 16, 1), (12, 0, 17), (16, 16, 0), (16, 1, 16),
    (16, 8, 9), (16, 12, 4), (17, 16, 1),
]


@pytest.mark.parametrize("inputs, outputs, garbage", ROW_EDGES,
                         ids=[f"{n}in-{o}out-{g}garb" for n, o, g in ROW_EDGES])
def test_truth_table_matches_reference_at_row_table_edges(inputs, outputs,
                                                          garbage):
    net = _group_net(inputs, outputs, garbage)
    assert (len(net.inputs), len(net.outputs), len(net.garbage)) == (
        inputs, outputs, garbage)
    assert truth_table(net) == reference_truth_table(net)


def test_rows_of_sixteen_masks_read_pages():
    # 16 masks read 256-row pages from 2^19 vectors on, which a truth table
    # reaches only at 19 inputs; rows are compared as they come, so neither
    # side is held whole
    total = 1 << 19
    rng = Random(total)
    masks = [rng.getrandbits(total) for _ in range(16)]
    cols = [m.to_bytes(total // 8, "little") for m in masks]
    want = (tuple((c[v >> 3] >> (v & 7)) & 1 for c in cols)
            for v in range(total))
    got = netlist._rows(masks, total)
    assert all(a == b for a, b in zip_longest(got, want))


@pytest.mark.parametrize("net", [
    build_design("fa"), build_design("csa4"), build_design("rca:5"),
    random_fanout_free(Random(12), "rnd12", 12, 2, 12)],
    ids=["fa", "csa4", "rca:5", "rnd12"])
def test_truth_table_rows_share_one_tuple_per_value(net):
    # a group of k <= 8 lines reads its rows from a shared table, so its
    # rows are at most 2^k distinct tuples, however many vectors there are
    rows = truth_table(net)
    for side, k in ((1, len(net.outputs)), (2, len(net.garbage))):
        if k <= 8:
            assert len({id(r[side]) for r in rows}) <= 2 ** k, (side, k)


def test_metrics_full_adder_and_zero_case():
    m = metrics(build_full_adder())
    assert m.gate_count_by_kind == {"MIG": 2}
    assert m.total_gates == 2
    assert m.cost.as_tuple() == (6, 4, 2)
    assert m.constant_inputs == 2
    assert m.garbage_outputs == 3

    z = metrics(passthrough(2))
    assert z.total_gates == 0 and z.cost.as_tuple() == (0, 0, 0)
    assert z.gate_count_by_kind == {}


def test_metrics_additive_over_instances():
    net = build_cla2()
    total = sum((gate_cost(g.kind) for g in net.gates), start=gate_cost(MIG) * 0)
    assert metrics(net).cost == total


def test_removing_an_instance_decrements_its_kind():
    nb = NetlistBuilder("two")
    a = nb.input("a")
    k = [nb.const(f"k{i}", 0) for i in range(4)]
    x, y, z = nb.gate(F2G, (a, k[0], k[1]), ("x", "y", "z"))
    nb.gate(F2G, (x, k[2], k[3]), ("u", "v", "w"))
    big = nb.finish([])

    nb = NetlistBuilder("one")
    a = nb.input("a")
    k = [nb.const(f"k{i}", 0) for i in range(2)]
    nb.gate(F2G, (a, k[0], k[1]), ("x", "y", "z"))
    small = nb.finish([])

    delta = (metrics(big).gate_count_by_kind["F2G"]
             - metrics(small).gate_count_by_kind["F2G"])
    assert delta == 1


def _reordered(net: Netlist, seed: int) -> Netlist:
    """Random topologically-valid permutation of the gate list."""
    rng = Random(seed)
    ready = set(net.inputs) | {lid for lid, _ in net.constants}
    pending = list(net.gates)
    ordered = []
    while pending:
        frontier = [g for g in pending if all(i in ready for i in g.inputs)]
        pick = rng.choice(frontier)
        pending.remove(pick)
        ordered.append(pick)
        ready.update(pick.outputs)
    return Netlist(net.name, net.inputs, net.constants, ordered,
                   net.outputs, net.garbage)


def test_simulation_invariant_under_instance_reorder():
    base = build_cla2()
    want = truth_table(base)
    saw_different_order = False
    for seed in (1, 2, 3):
        shuffled = _reordered(base, seed)
        saw_different_order |= shuffled.gates != base.gates
        assert validate(shuffled) == []
        assert truth_table(shuffled) == want
    assert saw_different_order


def test_every_exhaustive_check_refuses_with_one_message():
    wide = passthrough(EXHAUSTIVE_LIMIT + 1)
    messages = set()
    for check in (truth_table, is_reversible_circuit,
                  is_parity_preserving_circuit, run_campaign):
        with pytest.raises(WidthLimitError) as err:
            check(wide)
        messages.add(str(err.value))
    assert messages == {
        f"netlist 'wires' has {EXHAUSTIVE_LIMIT + 1} primary inputs; "
        f"exhaustive enumeration is limited to {EXHAUSTIVE_LIMIT} "
        "(use a sampled check)"}


def test_every_sampled_check_refuses_zero_samples_with_one_message():
    with pytest.raises(ValueError) as campaign:
        run_campaign(build_full_adder(), "flip", samples=0, seed=1)
    with pytest.raises(ValueError) as parity_check:
        is_parity_preserving_circuit(build_full_adder(), 0, 0)
    assert (str(campaign.value) == str(parity_check.value)
            == "sample count must be positive, got 0")


def test_every_sampled_check_refuses_a_missing_seed_with_one_message():
    with pytest.raises(ValueError) as campaign:
        run_campaign(build_full_adder(), "flip", samples=8)
    with pytest.raises(ValueError) as parity_check:
        is_parity_preserving_circuit(build_full_adder(), 8, None)
    assert (str(campaign.value) == str(parity_check.value)
            == "sampled checks require a seed (reports must be reproducible)")


def test_fault_transforms():
    value, mask = 0b1100, 0b1010
    assert FAULT_TRANSFORMS["flip"](value, mask) == 0b0110
    assert FAULT_TRANSFORMS["sa0"](value, mask) == 0b0100
    assert FAULT_TRANSFORMS["sa1"](value, mask) == 0b1110
    assert FAULT_MODELS == tuple(FAULT_TRANSFORMS) == ("flip", "sa0", "sa1")
