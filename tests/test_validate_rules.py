"""Rules that ``validate`` shares with the builder and the parser: ids and
names the text format can read back, and boundary widths that need no check
of their own."""

from random import Random

import pytest

from helpers import random_fanout_free, reference_validate
from revadd import (GateInstance, GateKind, Netlist, NetlistBuilder,
                    NetlistError, NetlistParseError, parse_netlist, serialize,
                    validate)


def _wire(name="t", lid="a", output="O"):
    """One input wired to one named output."""
    return Netlist(name, [lid], [], [], [(output, lid)])


def _gate_output(lid):
    """A gate whose second output, garbage, is ``lid``."""
    gate = GateInstance(GateKind.FG, ("a", "b"), ("x", lid))
    return Netlist("t", ["a", "b"], [], [gate], [("O", "x")], [lid])


def _unknown_kind(kind):
    """One gate of kind ``kind``, which is not a ``GateKind``."""
    gate = GateInstance(kind, ("a", "b"), ("x", "y"))
    return Netlist("t", ["a", "b"], [], [gate], [("O", "x")], ["y"])


UNREADABLE = [
    (_wire(lid="1x"), "invalid line id '1x'"),
    (_wire(lid="a-b"), "invalid line id 'a-b'"),
    (_wire(lid="a#b"), "invalid line id 'a#b'"),
    (_wire(lid="a b"), "invalid line id 'a b'"),
    (_wire(lid=""), "invalid line id ''"),
    (_gate_output("y!"), "invalid line id 'y!'"),
    (_wire(name="my net"), "netlist name 'my net' is empty or holds "
                           "whitespace or '#'"),
    (_wire(name=""), "netlist name '' is empty or holds whitespace or '#'"),
    (_wire(name="t#1"), "netlist name 't#1' is empty or holds whitespace "
                        "or '#'"),
    (_wire(output="O x"), "output name 'O x' is empty or holds whitespace "
                          "or '#'"),
    (_wire(output="O\t"), "output name 'O\\t' is empty or holds whitespace "
                          "or '#'"),
    (_wire(output=""), "output name '' is empty or holds whitespace or '#'"),
    (_wire(output="#O"), "output name '#O' is empty or holds whitespace "
                         "or '#'"),
    (Netlist("t", [], [("k", True)], [], [("O", "k")]),
     "constant 'k' has polarity True"),
    (_unknown_kind("FG"), "gate 0 has unknown kind 'FG'"),
    (_unknown_kind(["FG"]), "gate 0 has unknown kind ['FG']"),
    (_wire(lid=5), "invalid line id 5"),
    (_gate_output(("y",)), "invalid line id ('y',)"),
    (Netlist("t", [["a"]], [], [], [("O", ["a"])]), "invalid line id ['a']"),
    (Netlist("t", ["a"], [], [], [("O", "a"), "Pb"]),
     "output entry 'Pb' is not a (name, line) pair"),
    (Netlist("t", ["a"], [], [], [("O", "a"), ("P",)]),
     "output entry ('P',) is not a (name, line) pair"),
    (Netlist("t", ["a"], [], [], [("O", "a"), 5]),
     "output entry 5 is not a (name, line) pair"),
    (Netlist("t", ["a"], ["k0"], [], [("O", "a")]),
     "constant entry 'k0' is not a (line, polarity) pair"),
    (Netlist("t", ["a"], [("k",)], [], [("O", "a")]),
     "constant entry ('k',) is not a (line, polarity) pair"),
]


@pytest.mark.parametrize("net, message", UNREADABLE,
                         ids=[m for _, m in UNREADABLE])
def test_validate_refuses_what_the_parser_cannot_read_back(net, message):
    assert [str(v) for v in validate(net)] == [f"[role] {message}"]
    try:
        # a '#' starts a comment, so the text may read as another netlist
        assert parse_netlist(serialize(net)) != net
    except NetlistParseError as err:
        # the text itself is refused first, so no structural diagnostic shows
        assert not any("[role]" in d.message for d in err.diagnostics)


NOT_STRINGS = [
    (_wire(lid=5), ["invalid line id 5"]),
    (_gate_output(("y",)), ["invalid line id ('y',)"]),
    (_wire(name=7), ["netlist name 7 is not a string"]),
    (_wire(output=None), ["output name None is not a string"]),
    (Netlist("t", ["a"], [], [], [(7, "a")], ["a"]),
     ["line 'a' feeds 2 sinks: output 7, garbage",
      "lines declared both output and garbage: a",
      "output name 7 is not a string"]),
    (Netlist("t", ["a", "b"], [],
             [GateInstance(GateKind.FG, ("a", "b"), ("x", "y"))],
             [(0, "x"), ("O", "y")], ["x"]),
     ["line 'x' feeds 2 sinks: output 0, garbage",
      "lines declared both output and garbage: x",
      "output name 0 is not a string"]),
    (Netlist("t", ["a"], [], [], [(None, "a")], ["a"]),
     ["line 'a' feeds 2 sinks: output None, garbage",
      "lines declared both output and garbage: a",
      "output name None is not a string"]),
    (Netlist("t", [5], [], [], [("O", 5)], [5]),
     ["line 5 feeds 2 sinks: output O, garbage",
      "lines declared both output and garbage: 5",
      "invalid line id 5"]),
    (Netlist("t", [["a"]], [], [], [("O", ["a"])]),
     ["invalid line id ['a']"]),
    (Netlist("t", ["a"], [], [], [(["O"], "a")]),
     ["output name ['O'] is not a string"]),
    (Netlist("t", [["a"], 3], [], [], [("O", ["a"]), ("P", 3)]),
     ["invalid line id ['a']", "invalid line id 3"]),
]
NOT_STRING_IDS = [
    "int id", "tuple id", "int name", "None output name",
    "int output name out of gate range", "int output name of a gate",
    "None output name with fanout", "int id output and garbage",
    "unhashable id", "unhashable output name",
    "unhashable id beside a hashable one"]


@pytest.mark.parametrize("net, messages", NOT_STRINGS, ids=NOT_STRING_IDS)
def test_validate_reports_ids_and_names_that_are_not_strings(net, messages):
    assert [v.message for v in validate(net)] == messages


@pytest.mark.parametrize("net, messages", NOT_STRINGS, ids=NOT_STRING_IDS)
def test_reference_validate_reports_non_strings_alike(net, messages):
    assert [v.message for v in reference_validate(net)] == messages


def test_unhashable_ids_are_judged_like_other_lines():
    """A list id still takes part in the structural rules: an output that
    reads a list no source defines dangles, and the list input is left
    without a sink."""
    net = Netlist("t", [["a"]], [], [], [("O", ["b"])], [[1]])
    want = ["output O references undefined line ['b']",
            "garbage references undefined line [1]",
            "line ['a'] has no sink; it must be consumed, a primary "
            "output, or garbage",
            "invalid line id ['a']"]
    assert [v.message for v in validate(net)] == want
    assert [v.message for v in reference_validate(net)] == want


def test_an_entry_that_is_not_a_pair_is_judged_apart():
    """A string entry is not read as the pair of its characters: the rest of
    the netlist is judged without it, and the retry over ids that key no
    dict carries it."""
    lone = Netlist("t", ["a"], [], [], ["Oa"])
    assert [v.message for v in validate(lone)] == [
        "output entry 'Oa' is not a (name, line) pair",
        "line 'a' has no sink; it must be consumed, a primary output, or "
        "garbage"]
    assert "O=a" not in serialize(lone)
    mixed = Netlist("t", [["a"]], [("k",)], [], [("O", ["a"]), 7])
    assert [v.message for v in validate(mixed)] == [
        "constant entry ('k',) is not a (line, polarity) pair",
        "output entry 7 is not a (name, line) pair",
        "invalid line id ['a']"]
    assert serialize(mixed).splitlines()[2:] == [
        "input ['a']", "const ('k',)", "output O=['a'] 7"]


@pytest.mark.parametrize("entry", ["Oa", ("O",), 5], ids=repr)
def test_builder_refuses_an_output_entry_that_is_not_a_pair(entry):
    nb = NetlistBuilder("t")
    nb.input("a")
    with pytest.raises(NetlistError) as err:
        nb.finish([entry])
    assert str(err.value) == (f"netlist 't' is not valid: [role] output "
                              f"entry {entry!r} is not a (name, line) pair")


def test_builder_refuses_an_unreadable_gate_output():
    nb = NetlistBuilder("t")
    a, b = nb.input("a"), nb.input("b")
    nb.gate(GateKind.FG, (a, b), ("x", "2y"))
    with pytest.raises(NetlistError, match=r"\[role\] invalid line id '2y'"):
        nb.finish([("O", "x")])


@pytest.mark.parametrize("net", [
    _wire(lid="a.b"), _wire(lid="_0"), _wire(lid="A_b.c9"),
    _wire(name="rca:4"), _wire(name="t-1.x"), _wire(output="O.1"),
    _wire(output="a=b"), _wire(output="Sum_0"), _gate_output("y.1"),
], ids=lambda net: f"{net.name}/{net.inputs[0]}/{net.outputs[0][0]}")
def test_accepted_ids_and_names_read_back(net):
    assert validate(net) == []
    text = serialize(net)
    assert parse_netlist(text) == net
    assert serialize(parse_netlist(text)) == text


def _perturbed(rng, net):
    """``net`` with one output, garbage entry or input added or dropped,
    so that its boundary widths differ."""
    edits = ["add output", "add garbage", "add input"]
    edits += ["drop output"] * bool(net.outputs)
    edits += ["drop garbage"] * bool(net.garbage)
    edits += ["drop input"] * bool(net.inputs)
    edit = rng.choice(edits)
    lines = net.all_lines() + ["ghost"]
    inputs, outputs, garbage = (list(net.inputs), list(net.outputs),
                                list(net.garbage))
    if edit == "add output":
        outputs.insert(rng.randint(0, len(outputs)),
                       (f"X{rng.randrange(99)}", rng.choice(lines)))
    elif edit == "add garbage":
        garbage.insert(rng.randint(0, len(garbage)), rng.choice(lines))
    elif edit == "add input":
        inputs.insert(rng.randint(0, len(inputs)), rng.choice(
            ["fresh", *net.inputs, *(lid for lid, _ in net.constants)]))
    else:
        seq = {"drop output": outputs, "drop garbage": garbage,
               "drop input": inputs}[edit]
        seq.pop(rng.randrange(len(seq)))
    return Netlist(net.name, inputs, net.constants, net.gates, outputs,
                   garbage)


def test_unequal_boundary_widths_always_come_with_a_violation():
    rng = Random(23)
    seen = set()
    for trial in range(300):
        net = random_fanout_free(rng, f"w{trial}", rng.randint(1, 6),
                                 rng.randint(0, 4), 10,
                                 ("some", "none", "all")[trial % 3])
        assert validate(net) == []
        assert net.boundary_in_width() == net.boundary_out_width()
        bad = _perturbed(rng, net)
        assert bad.boundary_in_width() != bad.boundary_out_width()
        found = validate(bad)
        assert found, serialize(bad)
        assert reference_validate(bad), serialize(bad)
        seen.update(v.category for v in found)
    # every per-line check that a width mismatch can fall back on fired
    assert {"fanout", "dangling", "order", "role"} <= seen


UNKNOWN_KINDS = [
    (Netlist("t", ["a", "b"], [],
             [GateInstance("FG", ("a", "b"), ("x", "y"))], [("O", "x")],
             ["y"]),
     ["[role] gate 0 has unknown kind 'FG'"]),
    (Netlist("t", ["a", "b"], [],
             [GateInstance(["FG"], ("a", "b"), ("x", "y"))], [("O", "x")],
             ["y"]),
     ["[role] gate 0 has unknown kind ['FG']"]),
    # the order and fanout messages name the kind by its repr
    (Netlist("t", ["a"], [],
             [GateInstance("FG", ("a", "b"), ("x", "y")),
              GateInstance(GateKind.FG, ("a", "y"), ("z", "w"))],
             [("O", "x")], ["z", "w"]),
     ["[role] gate 0 has unknown kind 'FG'",
      "[order] gate 0 ('FG') reads 'b' before any earlier source defines it",
      "[fanout] line 'a' feeds 2 sinks: gate 0 ('FG'), gate 1 (FG)"]),
]


@pytest.mark.parametrize("net, messages", UNKNOWN_KINDS,
                         ids=["str kind", "list kind", "str kind in messages"])
def test_validate_reports_a_gate_kind_that_is_not_a_gate_kind(net, messages):
    assert [str(v) for v in validate(net)] == messages
    assert [str(v) for v in reference_validate(net)] == messages


@pytest.mark.parametrize("kind", ["FG", ["FG"]], ids=["str", "list"])
def test_builder_refuses_a_gate_kind_that_is_not_a_gate_kind(kind):
    nb = NetlistBuilder("t")
    nb.gate(kind, (nb.input("a"), nb.input("b")), ("x", "y"))
    with pytest.raises(NetlistError, match=r"\[role\] gate 0 has unknown "
                                           r"kind"):
        nb.finish([("O", "x")])
