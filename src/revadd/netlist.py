"""Fanout-free acyclic netlists: validation, simulation, tables, metrics.

A netlist is a list of gate instances over named lines.  Every line has
exactly one source (primary input, constant, or a gate output) and at most
one sink (a gate input); source lines that no gate consumes must be declared
either as named primary outputs or as garbage.  Equal boundary width
(inputs + constants == outputs + garbage) then follows from gates having as
many outputs as inputs.  Line ids and names must also be ones that the text
format of :mod:`revadd.textfmt` reads back.  A value the text cannot hold at
all (a name or id that is not a ``str``, a kind that is not a
:class:`~revadd.gates.GateKind`, an entry that is not a pair) is refused with
``TypeError`` when the netlist is built, so :func:`validate` judges only
what a string can break.

Simulation is word-parallel: every line carries a Python integer used as a
bitmask with one bit per test vector, and the gate expressions from
:mod:`revadd.gates` apply unchanged.  Scalar simulation is the one-vector
special case.  A netlist is compiled once, on its first evaluation, into a
slot program kept on the instance: each line's value lives at a fixed index
of a list, and each gate reads its input slots with one ``itemgetter``.
The evaluator returns that list, one word per line in
:meth:`Netlist.all_lines` order, and the checks read the boundary (outputs,
then garbage) from it by slot.

Truth tables and the reversibility check read the boundary words as byte
columns, one byte per vector for each group of 8 lines, which
:func:`_columns` makes with one 8x8 bit transpose per group (three delta
swaps over every 64-bit lane of one int).  A truth table reads its input
rows, and the output and garbage rows of groups of up to 16 lines, from
row tables that are built once per width and kept, indexed by those
bytes.  Equal rows thus share one tuple across tables, and a table
allocates little more than one ``(ins, outs, garb)`` tuple per vector.
The kept tables hold at most 2^17 rows (11 MiB for 16 lines, 10 MiB for
9 to 15); wider input rows are built per call.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import cache, cached_property, reduce
from itertools import chain, repeat
from operator import getitem, itemgetter, xor
from random import Random
from typing import Callable, NamedTuple, Sequence

from .gates import ARITY, EVAL, CostVector, GateKind, ledger_cost

EXHAUSTIVE_LIMIT = 20  # max primary-input width for exhaustive enumeration
_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*")  # a line id the text reads

# fault model -> transform of a line's value word under the fault mask
FAULT_TRANSFORMS = {
    "flip": lambda val, mask: val ^ mask,
    "sa0": lambda val, mask: val & ~mask,
    "sa1": lambda val, mask: val | mask,
}


def _fault_transform(model: str):
    """The transform of fault model ``model``; the one check of a model
    name, shared by fault sites, campaigns and :func:`evaluate_lines`."""
    try:
        return FAULT_TRANSFORMS[model]
    except KeyError:
        raise ValueError(f"unknown fault model {model!r}; expected one of "
                         f"{tuple(FAULT_TRANSFORMS)}") from None


class WidthLimitError(ValueError):
    """Exhaustive enumeration refused; the input space is too large."""


class NetlistError(ValueError):
    """Operation requires a structurally valid netlist."""


@dataclass(frozen=True)
class GateInstance:
    kind: GateKind
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]


class _Program(NamedTuple):
    """The slot-compiled form of a netlist that :func:`evaluate_lines` runs.

    The slots follow :meth:`Netlist.all_lines`, so a gate's outputs are
    appended in order right after the gate runs.  ``boundary`` holds the
    slots of :meth:`Netlist._boundary_lines`, which is how
    :func:`_boundary` reads them.
    """

    slot: dict[str, int]          # line id -> slot
    steps: tuple[tuple[GateKind, Callable], ...]  # (kind, input-slot reader)
    boundary: tuple[int, ...]     # slots of Netlist._boundary_lines()


@dataclass(frozen=True)
class Netlist:
    """An immutable netlist; construct via :class:`NetlistBuilder`.

    The sequence fields are stored as tuples, whatever sequences they were
    given as.  Construction, ``dataclasses.replace`` included, raises
    ``TypeError`` for a value the text format cannot hold (see
    :func:`_refuse_foreign`).  The structural violations of an instance are
    worked out once, on the first :func:`validate`, and its slot program
    once, on the first :func:`evaluate_lines`.  Both are kept on the
    instance outside the dataclass fields, so equality, ``repr`` and
    ``dataclasses.replace`` ignore them.
    """

    name: str
    inputs: tuple[str, ...] = ()
    constants: tuple[tuple[str, int], ...] = ()
    gates: tuple[GateInstance, ...] = ()
    outputs: tuple[tuple[str, str], ...] = ()  # (name, line)
    garbage: tuple[str, ...] = ()

    def __post_init__(self):
        for f in ("inputs", "constants", "gates", "outputs", "garbage"):
            object.__setattr__(self, f, tuple(getattr(self, f)))
        _refuse_foreign(self)

    @cached_property
    def _violations(self) -> tuple[Violation, ...]:
        return _find_violations(self)

    @cached_property
    def _program(self) -> _Program:
        lines = self.all_lines()
        slot = dict(zip(lines, range(len(lines))))
        read = slot.__getitem__
        steps = [(g.kind, itemgetter(*map(read, g.inputs))) for g in self.gates]
        boundary = tuple(map(read, self._boundary_lines()))
        return _Program(slot, tuple(steps), boundary)

    def all_lines(self) -> list[str]:
        """Every line id in deterministic source order."""
        ids = list(self.inputs)
        ids.extend(lid for lid, _ in self.constants)
        for g in self.gates:
            ids.extend(g.outputs)
        return ids

    def _boundary_lines(self) -> list[str]:
        """The output side's line ids: the outputs in declared order, then
        the garbage."""
        return [lid for _, lid in self.outputs] + list(self.garbage)

    def boundary_in_width(self) -> int:
        return len(self.inputs) + len(self.constants)

    def boundary_out_width(self) -> int:
        return len(self.outputs) + len(self.garbage)


def _refuse_foreign(net: Netlist):
    """Raise ``TypeError`` when ``net`` holds a value that the text format
    cannot hold: a constant or output entry that is not a 2-item tuple or
    list, a gate kind that is not a :class:`GateKind`, or a name or line id
    that is not a ``str``.  The message names the field and its first such
    value.

    No test makes a call per value: the entries' types and lengths are
    gathered in sets, each gate's kind is compared by type, and the ids and
    names of each field go through ``str.join``, which takes nothing but a
    ``str``.  Only a failed test looks for the value."""
    entries = net.constants + net.outputs
    if not ({tuple, list}.issuperset(map(type, entries))
            and {2}.issuperset(map(len, entries))):
        _refuse({"constants": net.constants, "outputs": net.outputs},
                "a 2-item tuple or list",
                lambda e: isinstance(e, (tuple, list)) and len(e) == 2)
    ids = {"name": [net.name], "inputs": net.inputs,
           "constants": [*map(itemgetter(0), net.constants)], "gates": [],
           "outputs": [*chain.from_iterable(net.outputs)],
           "garbage": net.garbage}
    gate_ids = ids["gates"]
    for g in net.gates:
        if type(g.kind) is not GateKind:  # an Enum with members: no subclass
            raise TypeError(f"netlist gates holds {g.kind!r}, which is not "
                            "a GateKind")
        gate_ids += g.inputs
        gate_ids += g.outputs
    try:
        " ".join(map(" ".join, ids.values()))
    except TypeError:
        _refuse(ids, "a str", lambda x: isinstance(x, str))


def _refuse(fields: dict, what: str, ok):
    """Raise ``TypeError`` at the first value in ``fields`` (field name ->
    values) that ``ok`` refuses."""
    for field, values in fields.items():
        for x in values:
            if not ok(x):
                raise TypeError(f"netlist {field} holds {x!r}, which is "
                                f"not {what}")


@dataclass(frozen=True)
class Violation:
    category: str  # fanout | dangling | order | width | role
    message: str
    lines: tuple[str, ...] = ()

    def __str__(self) -> str:
        return f"[{self.category}] {self.message}"


@dataclass(frozen=True)
class SimResult:
    outputs: dict  # output name -> bit, in declared order
    garbage: tuple[int, ...]

    @property
    def output_bits(self) -> tuple[int, ...]:
        return tuple(self.outputs.values())


@dataclass(frozen=True)
class MetricsReport:
    gate_count_by_kind: dict  # kind tag -> count
    total_gates: int
    cost: CostVector
    constant_inputs: int
    garbage_outputs: int

    def to_dict(self) -> dict:
        return {
            "gate_count_by_kind": dict(self.gate_count_by_kind),
            "total_gates": self.total_gates,
            "cost": self.cost.to_dict(),
            "constant_inputs": self.constant_inputs,
            "garbage_outputs": self.garbage_outputs,
        }


class NetlistBuilder:
    """Accumulating constructor: ``input``, ``const`` and ``gate`` record
    what they are given and return the line ids; :meth:`finish` judges the
    whole netlist with :func:`validate`.

    A netlist that :meth:`finish` returns is acyclic and topologically
    ordered, since ``validate`` refuses a gate that reads a line no earlier
    source defines (category ``order``)."""

    def __init__(self, name: str):
        self.name = name
        self._inputs: list[str] = []
        self._constants: list[tuple[str, int]] = []
        self._gates: list[GateInstance] = []

    def input(self, lid: str) -> str:
        self._inputs.append(lid)
        return lid

    def const(self, lid: str, value: int = 0) -> str:
        self._constants.append((lid, value))
        return lid

    def gate(self, kind: GateKind, ins, outs) -> tuple[str, ...]:
        g = GateInstance(kind, tuple(ins), tuple(outs))
        self._gates.append(g)
        return g.outputs

    def finish(self, outputs: list[tuple[str, str]]) -> Netlist:
        """Close the netlist; the lines that no gate reads and no output
        names become garbage, in :meth:`Netlist.all_lines` order.

        Raises ``TypeError`` when what was recorded holds a value the text
        format cannot hold (see :func:`_refuse_foreign`), and
        :class:`NetlistError` listing the :func:`validate` violations of
        what was recorded, e.g. a line read twice (``fanout``), a gate
        reading an undefined line (``order``), a gate of the wrong arity
        (``width``), or a line defined twice or a constant that is not 0 or
        1 (``role``).  The violations found here stay on the netlist, so a
        valid one is never checked again."""
        net = Netlist(self.name, self._inputs, self._constants, self._gates,
                      outputs)
        read = {lid for _, lid in net.outputs}
        for g in net.gates:
            read.update(g.inputs)
        # a line defined twice is listed once, so validate reports the
        # redefinition and not a second garbage sink
        net = replace(net, garbage=dict.fromkeys(
            lid for lid in net.all_lines() if lid not in read))
        if net._violations:
            _check_valid(net)
        return net


def validate(net: Netlist) -> list[Violation]:
    """Structural check; an empty list means the netlist is well formed.

    The violations are found once per netlist, by one pass over its lines
    that formats only what it reports (:func:`_find_violations`), and kept
    on the instance; each call returns a fresh list of them.
    """
    return list(net._violations)


def _find_violations(net: Netlist) -> tuple[Violation, ...]:
    """The violations of ``net``, in the order :func:`validate` reports them,
    from one pass over its lines.

    A line's sinks are kept as cheap int references, in first-sink order:
    gate index ``i``, or ``~b`` for position ``b`` of
    :meth:`Netlist._boundary_lines` (an output, then garbage, as the slot
    program reads them).  ``describe`` names a reference, and is formatted
    only for violations.  Every id and name is a ``str`` (construction
    refuses anything else), so the text rules judge only what a string can
    break.
    """
    v: list[Violation] = []
    defined: dict[str, None] = {}  # definition order

    def redefined(lid: str, what: str) -> Violation:
        return Violation("role", f"line {lid!r} defined more than once "
                         f"(redefined as {what})", (lid,))

    for lid in net.inputs:
        if lid in defined:
            v.append(redefined(lid, "input"))
        defined[lid] = None
    for lid, val in net.constants:
        if lid in defined:
            v.append(redefined(lid, "constant"))
        defined[lid] = None
        if type(val) is not int or val not in (0, 1):  # text reads 0 or 1
            v.append(Violation("role", f"constant {lid!r} has polarity {val!r}",
                               (lid,)))

    sinks: dict[str, list] = {}
    for idx, g in enumerate(net.gates):
        n = ARITY[g.kind]
        if len(g.inputs) != n or len(g.outputs) != n:
            v.append(Violation(
                "width", f"gate {idx} ({g.kind.value}) has {len(g.inputs)} "
                f"inputs/{len(g.outputs)} outputs, arity is {n}",
                (*g.inputs, *g.outputs)))
        for lid in g.inputs:
            if lid not in defined:
                v.append(Violation(
                    "order", f"gate {idx} ({g.kind.value}) reads {lid!r} "
                    "before any earlier source defines it", (lid,)))
            sinks.setdefault(lid, []).append(idx)
        for lid in g.outputs:
            if lid in defined:
                v.append(redefined(lid, f"gate {idx} output"))
            defined[lid] = None

    nout = len(net.outputs)

    def describe(ref: int) -> str:
        if ref >= 0:
            return f"gate {ref} ({net.gates[ref].kind.value})"
        return f"output {net.outputs[~ref][0]}" if ~ref < nout else "garbage"

    for b, lid in enumerate(net._boundary_lines()):
        if lid not in defined:
            v.append(Violation("dangling", f"{describe(~b)} references "
                               f"undefined line {lid!r}", (lid,)))
        sinks.setdefault(lid, []).append(~b)

    for lid, refs in sinks.items():
        if len(refs) > 1:
            v.append(Violation(
                "fanout", f"line {lid!r} feeds {len(refs)} sinks: "
                f"{', '.join(map(describe, refs))}", (lid,)))
    for lid in defined:
        if lid not in sinks:
            v.append(Violation(
                "dangling", f"line {lid!r} has no sink; it must be "
                "consumed, a primary output, or garbage", (lid,)))

    both = sorted({lid for _, lid in net.outputs}.intersection(net.garbage))
    if both:
        v.append(Violation("role", f"lines declared both output and garbage: "
                           f"{', '.join(both)}", tuple(both)))
    names: set[str] = set()
    for name, lid in net.outputs:
        if name in names:
            v.append(Violation("role", f"output name {name!r} declared more "
                               f"than once (again for line {lid!r})", (lid,)))
        names.add(name)

    # the text format must read every id and name back
    v += [Violation("role", f"invalid line id {lid!r}", (lid,))
          for lid in defined if not _ID_RE.fullmatch(lid)]
    for what, name, lines in [("netlist", net.name, ()),
                              *(("output", name, (lid,))
                                for name, lid in net.outputs)]:
        if name.split() != [name] or "#" in name:
            v.append(Violation("role", f"{what} name {name!r} is empty or "
                               "holds whitespace or '#'", lines))
    return tuple(v)


def _check_valid(net: Netlist):
    problems = validate(net)
    if problems:
        raise NetlistError(
            f"netlist {net.name!r} is not valid: " + "; ".join(map(str, problems)))


def evaluate_lines(net: Netlist, input_masks, one: int,
                   fault=None) -> list[int]:
    """Word-parallel evaluation: the value mask of every line, one word per
    line in :meth:`Netlist.all_lines` order (the slot order of the
    program).

    ``input_masks`` aligns with ``net.inputs``; ``one`` is the all-ones mask
    (1 for scalar runs).  ``fault``, when given, maps faulted line ids to
    ``(model, mask)``: right after the line's source produces its value
    ``v``, before any sink reads it, ``FAULT_TRANSFORMS[model](v, mask)``
    replaces it.  With ``mask == one`` that is a single fault on every
    vector of the word; a fault campaign instead gives each faulted line the
    bits of its own slot of a wide word (see
    :func:`revadd.faults.run_campaign`).  An unknown model raises
    ``ValueError``; ids the netlist lacks are ignored.

    Runs the netlist's slot program (compiled on the first call) and
    returns its slot list as is; :func:`_boundary` reads the outputs and
    garbage from it by slot.  Each pass looks its gates up in
    ``revadd.gates.EVAL`` afresh, so the program never holds a gate
    function.
    """
    prog = net._program
    values = list(input_masks)
    if len(values) != len(net.inputs):
        raise ValueError(f"netlist {net.name!r} has {len(net.inputs)} "
                         f"primary inputs, got {len(values)} input values")
    values += [one if pol else 0 for _, pol in net.constants]
    put = values.extend
    steps = iter(prog.steps)
    if fault:
        entries = []  # (slot, transform, mask)
        for lid, (model, mask) in fault.items():
            transform = _fault_transform(model)
            s = prog.slot.get(lid)
            if s is not None:
                entries.append((s, transform, mask))
        entries.sort(key=itemgetter(0))
        for s, transform, mask in entries:
            while len(values) <= s:  # run gates until one appends slot s
                kind, read = next(steps)
                put(EVAL[kind](read(values), one))
            values[s] = transform(values[s], mask)
    for kind, read in steps:
        put(EVAL[kind](read(values), one))
    return values


def simulate(net: Netlist, bits) -> SimResult:
    """Evaluate one primary-input vector; constants take their declared
    polarity and gates run in topological order."""
    _check_valid(net)
    return _simulate_vector(net, bits)


def _simulate_vector(net: Netlist, bits, fault=None) -> SimResult:
    """One-vector run of a netlist already known to be valid; ``fault`` maps
    line ids to ``(model, mask)`` as for :func:`evaluate_lines`."""
    bits = tuple(bits)
    if any(b not in (0, 1) for b in bits):
        raise ValueError(f"non-binary value in input vector {bits!r}")
    words = _boundary(net, evaluate_lines(net, bits, 1, fault=fault))
    outs = dict(zip([name for name, _ in net.outputs], words))
    return SimResult(outs, tuple(words[len(net.outputs):]))


def _boundary(net: Netlist, values) -> list[int]:
    """The value words of :meth:`Netlist._boundary_lines`: the output side
    that parity, reversibility and fault detection judge, read by slot from
    the :func:`evaluate_lines` list ``values``."""
    return list(map(values.__getitem__, net._program.boundary))


def variable_masks(n: int) -> list[int]:
    """Packed enumeration masks: bit v of masks[i] is bit i of the vector
    index v, covering all 2^n vectors.

    Each mask starts as one period (2^i zeros, then 2^i ones) and doubles
    by shift-and-or until it spans 2^n bits: linear in 2^n per mask.
    """
    total = 1 << n
    masks = []
    for i in range(n):
        block = 1 << i
        mask = ((1 << block) - 1) << block
        width = block << 1
        while width < total:
            mask |= mask << width
            width <<= 1
        masks.append(mask)
    return masks


def _vector_count(net: Netlist | None, samples: int | None) -> int:
    """Vectors a check runs over: all 2^n when ``samples`` is None, refused
    above ``EXHAUSTIVE_LIMIT`` inputs; else ``samples``, refused below 1,
    since a check over no vectors would check nothing, and above
    ``1 << EXHAUSTIVE_LIMIT``, so that no check builds a word wider than an
    exhaustive check at the limit does.  ``net`` is read only when
    ``samples`` is None."""
    if samples is None:
        n = len(net.inputs)
        if n > EXHAUSTIVE_LIMIT:
            raise WidthLimitError(
                f"netlist {net.name!r} has {n} primary inputs; exhaustive "
                f"enumeration is limited to {EXHAUSTIVE_LIMIT} (use a "
                "sampled check)")
        return 1 << n
    if samples < 1:
        raise ValueError(f"sample count must be positive, got {samples}")
    if samples > 1 << EXHAUSTIVE_LIMIT:
        raise ValueError(f"sample count must be at most "
                         f"{1 << EXHAUSTIVE_LIMIT}, got {samples}")
    return samples


def _vectors(net: Netlist, samples: int | None = None,
             seed: int | None = None,
             stream: int | None = None) -> tuple[list[int], int]:
    """The input masks of a check and its all-ones word: every vector when
    ``samples`` is None, else one ``getrandbits(samples)`` per input from
    ``Random(seed)``, or ``Random(f"{seed}/{stream}")`` for campaign site
    ``stream``.  Refusals: :func:`_vector_count`, and an unseeded draw."""
    count = _vector_count(net, samples)
    if samples is None:
        masks = variable_masks(len(net.inputs))
    elif seed is None:
        raise ValueError("sampled checks require a seed "
                         "(reports must be reproducible)")
    else:
        rng = Random(seed if stream is None else f"{seed}/{stream}")
        masks = [rng.getrandbits(count) for _ in net.inputs]
    return masks, (1 << count) - 1


# the three delta swaps of an 8x8 bit transpose, within each 64-bit lane:
# (shift, mask of the lane bits that move up by shift)
_SWAPS = ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC),
          (28, 0x00000000F0F0F0F0))


@cache
def _lane_masks(size: int) -> tuple[tuple[int, int], ...]:
    """:data:`_SWAPS` with each lane mask repeated across ``size`` 64-bit
    lanes; built once per lane count and kept.  An exhaustive check over
    2^n vectors has 2^n / 8 lanes and keeps 3 * 2^n bytes, so at most
    6 MB over every n up to ``EXHAUSTIVE_LIMIT``."""
    return tuple((shift, int.from_bytes(lane.to_bytes(8, "little") * size,
                                        "little"))
                 for shift, lane in _SWAPS)


def _columns(masks, total: int):
    """Yield one byte column per group of 8 masks: byte ``v`` of column
    ``g`` has bit ``j`` set where bit ``v`` of mask ``8 * g + j`` is set,
    for v in 0..total-1.

    The group's masks are written out once each with ``to_bytes`` and
    interleaved into one buffer by strided slice assignment, so 64-bit
    lane ``i`` of the buffer, read as one little-endian int, holds byte
    ``i`` of mask ``j`` at its byte ``j``: an 8x8 bit matrix per lane.
    Three delta swaps over the whole int (Warren, *Hacker's Delight*,
    section 7-3), with their lane masks repeated across the lanes,
    transpose every lane at once, so lane ``i``'s byte ``b`` is then the
    group's byte of vector ``8 * i + b``.  The repeated lane masks come
    from :func:`_lane_masks`.  Every step is one C-level pass over
    ``total`` bytes, about 15 per group of 8 masks."""
    size = (total + 7) // 8
    swaps = _lane_masks(size)
    for g in range(0, len(masks), 8):
        buf = bytearray(8 * size)
        for j, m in enumerate(masks[g:g + 8]):
            buf[j::8] = m.to_bytes(size, "little")
        x = int.from_bytes(buf, "little")
        for shift, lanes in swaps:
            t = (x ^ (x >> shift)) & lanes
            x ^= t ^ (t << shift)
        yield x.to_bytes(8 * size, "little")[:total]


# byte -> bit j of it, as a translate table, for j in 0..7
_BIT_OF_BYTE = [bytes((b >> j) & 1 for b in range(256)) for j in range(8)]


@cache
def _row_table(k: int) -> tuple[tuple[int, ...], ...]:
    """All 2^k rows of k bits in order, row v holding bit j of v at
    position j; built on first use and shared by every later call.  Above
    8 bits, row ``v`` is the 8-bit row of its low byte joined to the row
    of ``v >> 8``.  Only :func:`_enumeration` and :func:`_rows` call it,
    for k <= 16, so the tables it keeps are at most 2^17 rows: 11 MiB for
    the 16-bit table, 10 MiB for 9 to 15 bits and 1 MiB for 9 to 12."""
    if k <= 8:
        return tuple(tuple((v >> j) & 1 for j in range(k))
                     for v in range(1 << k))
    low = _row_table(8)
    return tuple(lo + hi for hi in _row_table(k - 8) for lo in low)


def _enumeration(k: int) -> Sequence[tuple[int, ...]]:
    """All 2^k rows of k bits in order, row v holding bit j of v at
    position j.  Up to 16 bits this is the shared :func:`_row_table`, so
    every truth table of one width reads the same row tuples; above,
    row ``v`` is the 8-bit row of its low byte joined to the shared row
    of ``v >> 8``, one new tuple per row, built for the call and not
    kept."""
    if k <= 16:
        return _row_table(k)
    low = _row_table(8)
    return [lo + hi for hi in _enumeration(k - 8) for lo in low]


def _rows(masks, total: int):
    """Transpose packed masks into per-vector rows: row v is the tuple of
    bit v of every mask, for v in 0..total-1.

    A group of k <= 8 masks reads each row from the shared
    :func:`_row_table`, indexed by its :func:`_columns` byte.  One of 9 to
    16 masks over at least 8 vectors per possible row (2^(k+3) <=
    ``total``) reads it from 256-row pages of the shared table, cut for
    the call and indexed by its high and low bytes.  Equal rows then
    share one tuple, and no call builds more tuples than it returns rows.
    Other groups are transposed with ``zip`` over one 0/1 byte column per
    mask, each read from its group's column by one ``translate``.  Pages
    need 8 vectors per row because with fewer, a call would build and keep
    a shared table far larger than what it reads of it.  Either way the
    cost is linear in ``total * len(masks)``; extracting bit v with a
    shift would copy the whole mask per vector.  With no masks there are
    still ``total`` rows, all empty.
    """
    k = len(masks)
    if not k:
        return repeat((), total)
    if k <= 8:
        col, = _columns(masks, total)
        return map(_row_table(k).__getitem__, col)
    if k <= 16 and 1 << (k + 3) <= total:
        lo, hi = _columns(masks, total)
        rows = _row_table(k)
        pages = [rows[i:i + 256] for i in range(0, len(rows), 256)]
        return map(getitem, map(pages.__getitem__, hi), lo)
    bits = [col.translate(table) for col in _columns(masks, total)
            for table in _BIT_OF_BYTE]
    return zip(*bits[:k])


def truth_table(net: Netlist):
    """Rows of (inputs, outputs, garbage) over all primary-input vectors in
    lexicographic order (vector index counts input 0 as the low bit).

    One word-parallel evaluation plus one linear transpose per boundary
    group: linear in the number of vectors times the boundary width.  The
    input rows are :func:`_enumeration`'s and the output and garbage rows
    :func:`_rows`', so a row is about one new tuple per vector: the
    ``(ins, outs, garb)`` triple, plus the input tuple above 16 inputs and
    the side tuples of groups too wide for the shared tables.
    """
    _check_valid(net)
    in_masks, one = _vectors(net)
    words = _boundary(net, evaluate_lines(net, in_masks, one))
    total = one.bit_length()
    nout = len(net.outputs)
    return list(zip(_enumeration(len(in_masks)), _rows(words[:nout], total),
                    _rows(words[nout:], total)))


def _alarm(net: Netlist, masks, one: int, words) -> int:
    """The parity alarm word: the XOR of the input masks ``masks``, of the
    all-ones word ``one`` for each constant of polarity 1, and of the
    boundary words ``words``.  Bit v is set where vector v's input parity
    differs from the parity of ``words``; with no ``words`` it is the input
    parity itself."""
    alarm = reduce(xor, words, reduce(xor, masks, 0))
    for _, pol in net.constants:
        if pol:
            alarm ^= one
    return alarm


def _parity(net: Netlist, samples: int | None = None,
            seed: int | None = None) -> bool:
    """Boundary parity conservation of a netlist already known to be valid:
    no vector raises the :func:`_alarm`, over every input vector or over
    ``samples`` vectors drawn from ``seed`` (see :func:`_vectors`)."""
    masks, one = _vectors(net, samples, seed)
    words = _boundary(net, evaluate_lines(net, masks, one))
    return not _alarm(net, masks, one, words)


def is_parity_preserving_circuit(net: Netlist, samples: int | None = None,
                                 seed: int | None = None) -> bool:
    """Check boundary parity conservation over every input vector when
    ``samples`` is None, else over ``samples`` vectors drawn from ``seed``,
    the two keywords read as :func:`revadd.faults.run_campaign` reads them.

    The exhaustive check is refused above ``EXHAUSTIVE_LIMIT`` inputs.  The
    sampled one raises ValueError when ``samples`` is below 1, since a check
    over no vectors would check nothing, above ``1 << EXHAUSTIVE_LIMIT``, or
    when ``seed`` is None, since an unseeded verdict could not be
    reproduced.
    """
    _check_valid(net)
    return _parity(net, samples, seed)


def _injective(masks, total: int) -> bool:
    """The boundary masks ``masks`` of an exhaustive evaluation over
    ``total`` vectors have ``total`` distinct rows.

    Each vector's row is packed into one key of ``size`` bytes, with key
    byte ``g`` holding :func:`_columns`' byte of the vector for group ``g``
    (boundary lines ``8 * g`` to ``8 * g + 7``); strided slice assignment
    interleaves the columns into one buffer.  Up to 64 lines a key is 8
    bytes (padded with zero bytes) and is counted as an int of a memoryview
    cast, wider ones as ``bytes`` slices.  Every step is one C-level pass
    over ``total`` bytes or digits, so the cost is linear in the number of
    vectors times the boundary width.  With no boundary lines every row is
    empty, and the map is injective iff ``total == 1``.
    """
    size = max(8, (len(masks) + 7) // 8)
    buf = bytearray(total * size)
    for g, column in enumerate(_columns(masks, total)):
        buf[g::size] = column
    if size == 8:
        keys = memoryview(buf).cast("Q")
    else:
        flat = bytes(buf)
        keys = (flat[i:i + size] for i in range(0, len(flat), size))
    return len(set(keys)) == total


def is_reversible_circuit(net: Netlist) -> bool:
    """True iff, with constants fixed, the boundary map from primary inputs
    to (outputs + garbage) is injective."""
    _check_valid(net)
    return _exhaustive_verdicts(net)[0]


def _exhaustive_verdicts(net: Netlist) -> tuple[bool, bool]:
    """``(is_reversible_circuit(net), is_parity_preserving_circuit(net))``
    for a netlist already known to be valid, from one exhaustive
    evaluation."""
    masks, one = _vectors(net)
    words = _boundary(net, evaluate_lines(net, masks, one))
    return (_injective(words, one.bit_length()),
            not _alarm(net, masks, one, words))


def metrics(net: Netlist) -> MetricsReport:
    """Gate counts, additive hardware cost, constants and garbage totals."""
    _check_valid(net)
    counts: dict[str, int] = {}
    for g in net.gates:
        counts[g.kind.value] = counts.get(g.kind.value, 0) + 1
    return MetricsReport(counts, len(net.gates), ledger_cost(counts),
                         len(net.constants), len(net.garbage))
