"""Rules that ``validate`` shares with the builder and the parser: ids and
names the text format can read back, and boundary widths that need no check
of their own.  A value the text cannot hold at all is refused earlier, with
``TypeError`` when the netlist is built."""

import re
from dataclasses import replace
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
]


def _unknown_kind(kind):
    """One gate of kind ``kind``, which is not a ``GateKind``."""
    gate = GateInstance(kind, ("a", "b"), ("x", "y"))
    return Netlist("t", ["a", "b"], [], [gate], [("O", "x")], ["y"])


# Values the text cannot hold at all, under the message validate once gave
# them: (field, value, build) where ``build`` makes the netlist, which
# construction refuses with TypeError naming ``field`` and ``value``
FOREIGN = [
    (("gates", "FG", lambda: _unknown_kind("FG")),
     "gate 0 has unknown kind 'FG'"),
    (("gates", ["FG"], lambda: _unknown_kind(["FG"])),
     "gate 0 has unknown kind ['FG']"),
    (("inputs", 5, lambda: _wire(lid=5)), "invalid line id 5"),
    (("gates", ("y",), lambda: _gate_output(("y",))),
     "invalid line id ('y',)"),
    (("inputs", ["a"], lambda: Netlist("t", [["a"]], [], [], [("O", ["a"])])),
     "invalid line id ['a']"),
]


@pytest.mark.parametrize("net, message", UNREADABLE + FOREIGN,
                         ids=[m for _, m in UNREADABLE + FOREIGN])
def test_validate_refuses_what_the_parser_cannot_read_back(net, message):
    if isinstance(net, tuple):
        # refused before validate or serialize could see it
        field, value, build = net
        with _refused(field, value):
            build()
        return
    assert [str(v) for v in validate(net)] == [f"[role] {message}"]
    try:
        # a '#' starts a comment, so the text may read as another netlist
        assert parse_netlist(serialize(net)) != net
    except NetlistParseError as err:
        # the text itself is refused first, so no structural diagnostic shows
        assert not any("[role]" in d.message for d in err.diagnostics)


def _gate(ins=("a", "b"), outs=("x", "y"), kind=GateKind.FG):
    return [GateInstance(kind, ins, outs)]


# Netlist fields that hold a value the text format cannot hold at all, the
# field that construction names, and the first such value in it
NOT_STRINGS = [
    (dict(inputs=[5], outputs=[("O", 5)]), "inputs", 5),
    (dict(inputs=["a", "b"], gates=_gate(outs=("x", ("y",))),
          outputs=[("O", "x")], garbage=[("y",)]), "gates", ("y",)),
    (dict(name=7, inputs=["a"], outputs=[("O", "a")]), "name", 7),
    (dict(inputs=["a"], outputs=[(None, "a")]), "outputs", None),
    (dict(inputs=["a"], outputs=[(7, "a")], garbage=["a"]), "outputs", 7),
    (dict(inputs=["a", "b"], gates=_gate(), outputs=[(0, "x"), ("O", "y")],
          garbage=["x"]), "outputs", 0),
    (dict(inputs=["a"], outputs=[(None, "a")], garbage=["a"]), "outputs",
     None),
    (dict(inputs=[5], outputs=[("O", 5)], garbage=[5]), "inputs", 5),
    (dict(inputs=[["a"]], outputs=[("O", ["a"])]), "inputs", ["a"]),
    (dict(inputs=["a"], outputs=[(["O"], "a")]), "outputs", ["O"]),
    (dict(inputs=[["a"], 3], outputs=[("O", ["a"]), ("P", 3)]), "inputs",
     ["a"]),
    (dict(inputs=[b"a"], outputs=[("O", b"a")]), "inputs", b"a"),
    (dict(inputs=[5]), "inputs", 5),
    (dict(inputs=["a"], outputs=[("O", "a"), "Pb"]), "outputs", "Pb"),
    (dict(inputs=["a"], outputs=[("O", "a"), ("P",)]), "outputs", ("P",)),
    (dict(inputs=["a"], outputs=[("O", "a"), 5]), "outputs", 5),
    (dict(inputs=["a"], constants=["k0"], outputs=[("O", "a")]),
     "constants", "k0"),
    (dict(inputs=["a"], constants=[("k",)], outputs=[("O", "a")]),
     "constants", ("k",)),
]
NOT_STRING_IDS = [
    "int id", "tuple id", "int name", "None output name",
    "int output name out of gate range", "int output name of a gate",
    "None output name with fanout", "int id output and garbage",
    "unhashable id", "unhashable output name",
    "unhashable id beside a hashable one", "bytes id", "int id alone",
    "output entry 'Pb'", "output entry ('P',)", "output entry 5",
    "constant entry 'k0'", "constant entry ('k',)"]


def _refused(field, value):
    """``pytest.raises`` for the ``TypeError`` that names ``field`` and
    ``value``."""
    return pytest.raises(TypeError, match=re.escape(
        f"netlist {field} holds {value!r}, which is not "))


@pytest.mark.parametrize("fields, field, value", NOT_STRINGS,
                         ids=NOT_STRING_IDS)
def test_validate_reports_ids_and_names_that_are_not_strings(fields, field,
                                                              value):
    """A name or id that is not a string, or an entry that is not a pair,
    never reaches validate: construction refuses it with ``TypeError``."""
    with _refused(field, value):
        Netlist(**{"name": "t", **fields})


@pytest.mark.parametrize("fields, field, value", NOT_STRINGS,
                         ids=NOT_STRING_IDS)
def test_reference_validate_reports_non_strings_alike(fields, field, value):
    """``dataclasses.replace`` runs the same check, so neither validate nor
    its oracle can be handed such a value through a valid netlist."""
    with _refused(field, value):
        replace(_wire(), **fields)


def test_unhashable_ids_are_judged_like_other_lines():
    """A list id is refused like any other value that is not a string, and
    the first one in field order is the one named."""
    with _refused("inputs", ["a"]):
        Netlist("t", [["a"]], [], [], [("O", ["b"])], [[1]])
    with _refused("outputs", ["b"]):
        Netlist("t", ["a"], [], [], [("O", ["b"])], [[1]])


def test_an_entry_that_is_not_a_pair_is_judged_apart():
    """A string entry is not read as the pair of its characters, and the
    entries are judged before the ids in them."""
    with _refused("outputs", "Oa"):
        Netlist("t", ["a"], [], [], ["Oa"])
    with _refused("constants", ("k",)):
        Netlist("t", [["a"]], [("k",)], [], [("O", ["a"]), 7])


# the field that construction names for each spot of a netlist
_FIELD = {"name": "name", "input": "inputs", "constant id": "constants",
          "constant entry": "constants", "gate kind": "gates",
          "gate input": "gates", "gate output": "gates",
          "output name": "outputs", "output line": "outputs",
          "output entry": "outputs", "garbage": "garbage"}


def _spots(net):
    """Spot -> the positions of ``net`` where it has one: an index, or a
    (gate, position) pair."""
    gates = list(enumerate(net.gates))
    spots = {
        "name": [None], "input": range(len(net.inputs)),
        "constant id": range(len(net.constants)),
        "constant entry": range(len(net.constants)),
        "gate kind": [(i, None) for i, _ in gates],
        "gate input": [(i, j) for i, g in gates for j in range(len(g.inputs))],
        "gate output": [(i, j) for i, g in gates
                        for j in range(len(g.outputs))],
        "output name": range(len(net.outputs)),
        "output line": range(len(net.outputs)),
        "output entry": range(len(net.outputs)),
        "garbage": range(len(net.garbage))}
    return {spot: list(where) for spot, where in spots.items() if where}


def _put(net, spot, where, new):
    """The fields of ``net`` with the value at ``where`` of ``spot``
    replaced by ``new(old value)``; an entry spot replaces the whole
    entry."""
    fields = {"name": net.name, "inputs": [*net.inputs],
              "constants": [*net.constants], "gates": [*net.gates],
              "outputs": [*net.outputs], "garbage": [*net.garbage]}
    seq = fields[_FIELD[spot]]
    if spot == "name":
        fields["name"] = new(net.name)
    elif spot in ("input", "garbage") or spot.endswith("entry"):
        seq[where] = new(seq[where])
    elif spot.startswith("gate"):
        (i, j), g = where, net.gates[where[0]]
        ins, outs = [*g.inputs], [*g.outputs]
        if spot == "gate input":
            ins[j] = new(ins[j])
        elif spot == "gate output":
            outs[j] = new(outs[j])
        kind = new(g.kind) if spot == "gate kind" else g.kind
        seq[i] = GateInstance(kind, tuple(ins), tuple(outs))
    else:  # the line of a constant, or the name or line of an output
        entry = [*seq[where]]
        k = 1 if spot == "output line" else 0
        entry[k] = new(entry[k])
        seq[where] = tuple(entry)
    return fields


class _Id(str):
    """A ``str`` subclass, which the text format holds like any string."""


def test_construction_refuses_a_foreign_value_anywhere():
    """One value the text cannot hold, put at a random position of a random
    field of a valid netlist, is refused by ``Netlist(...)`` and by
    ``dataclasses.replace``, and named with its field; a ``str`` subclass
    at the same position is accepted and changes nothing."""
    rng = Random(27)
    seen = set()
    for trial in range(400):
        net = random_fanout_free(rng, f"f{trial}", rng.randint(1, 6),
                                 rng.randint(0, 4), 10,
                                 ("some", "none", "all")[trial % 3])
        spots = _spots(net)
        spot = rng.choice(sorted(spots))
        where = rng.choice(spots[spot])
        value = ("Oa" if spot.endswith("entry")
                 else rng.choice([5, b"a", None, ("a",), ["a"]]))
        fields = _put(net, spot, where, lambda old: value)
        field = _FIELD[spot]
        with _refused(field, value):
            Netlist(**fields)
        with _refused(field, value):
            replace(net, **{field: fields[field]})
        if not spot.endswith(("entry", "kind")):
            same = Netlist(**_put(net, spot, where, _Id))
            assert same == net and validate(same) == []
            assert serialize(same) == serialize(net)
        seen.add(spot)
    assert seen == set(_FIELD)


@pytest.mark.parametrize("entry", ["Oa", ("O",), 5], ids=repr)
def test_builder_refuses_an_output_entry_that_is_not_a_pair(entry):
    nb = NetlistBuilder("t")
    nb.input("a")
    with _refused("outputs", entry):
        nb.finish([entry])


def test_a_gate_given_lists_is_judged_like_one_given_tuples():
    """``GateInstance`` keeps the sequences it is given, so a gate of the
    wrong arity given lists is reported like one given tuples."""
    gate = GateInstance(GateKind.FG, ["a"], ["x", "y"])
    net = Netlist("t", ["a"], [], [gate], [("O", "x")], ["y"])
    want = ["[width] gate 0 (FG) has 1 inputs/2 outputs, arity is 2"]
    assert [str(v) for v in validate(net)] == want
    assert [str(v) for v in reference_validate(net)] == want


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
    dict(gates=_gate(kind="FG")),
    dict(gates=_gate(kind=["FG"])),
    dict(gates=[*_gate(ins=("a", "b"), kind="FG"),
                *_gate(ins=("a", "y"), outs=("z", "w"))],
         garbage=["z", "w"]),
]


@pytest.mark.parametrize("fields", UNKNOWN_KINDS,
                         ids=["str kind", "list kind", "str kind in messages"])
def test_validate_reports_a_gate_kind_that_is_not_a_gate_kind(fields):
    """A kind that is not a ``GateKind`` is refused at construction, before
    any rule that would name it."""
    kind = fields["gates"][0].kind
    with _refused("gates", kind):
        Netlist(**{"name": "t", "inputs": ["a", "b"],
                   "outputs": [("O", "x")], "garbage": ["y"], **fields})


@pytest.mark.parametrize("kind", ["FG", ["FG"]], ids=["str", "list"])
def test_builder_refuses_a_gate_kind_that_is_not_a_gate_kind(kind):
    nb = NetlistBuilder("t")
    nb.gate(kind, (nb.input("a"), nb.input("b")), ("x", "y"))
    with _refused("gates", kind):
        nb.finish([("O", "x")])
