"""Fanout-free acyclic netlists: validation, simulation, tables, metrics.

A netlist is a list of gate instances over named lines.  Every line has
exactly one source (primary input, constant, or a gate output) and at most
one sink (a gate input); source lines that no gate consumes must be declared
either as named primary outputs or as garbage.  Equal boundary width
(inputs + constants == outputs + garbage) then follows from gates having as
many outputs as inputs.  Line ids and names must also be ones that the text
format of :mod:`revadd.textfmt` reads back.

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
columns, one byte per vector for each group of 8 lines (:func:`_columns`).
A truth table builds its rows from shared row tables indexed by those
bytes, so equal rows share one tuple and a table allocates about one tuple
per vector.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import cache, cached_property, reduce
from itertools import repeat
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
    given as.  The structural violations of an instance are worked out once,
    on the first :func:`validate`, and its slot program once, on the first
    :func:`evaluate_lines`.  Both are kept on the instance outside the
    dataclass fields, so equality, ``repr`` and ``dataclasses.replace``
    ignore them.
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

        Raises :class:`NetlistError` listing the :func:`validate` violations
        of what was recorded, e.g. a line read twice (``fanout``), a gate
        reading an undefined line (``order``), a gate of the wrong arity
        (``width``), or a line defined twice or a constant that is not 0 or
        1 (``role``).  The violations found here stay on the netlist, so a
        valid one is never checked again."""
        net = Netlist(self.name, self._inputs, self._constants, self._gates,
                      outputs)
        read = {lid for _, lid in outputs}
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


class _Shown:
    """Stands in for an id or output name that cannot key a dict, so the
    one pass of :func:`_find_violations` reports it as ``[role]``, like any
    id or name that is not a string: equal to a stand-in for an equal
    value, and shown as the value."""

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        return isinstance(other, _Shown) and self.value == other.value

    def __hash__(self):
        return 0  # the value has no hash; only invalid netlists collide

    def __repr__(self):
        return repr(self.value)


def _keyable(net: Netlist) -> Netlist:
    """A copy of ``net`` with each id or output name that cannot key a dict
    behind a :class:`_Shown` stand-in."""

    def key(x):
        if isinstance(x, str):
            return x
        try:
            hash(x)
        except TypeError:
            return _Shown(x)
        return x

    return _relabel(net, key)


def _relabel(net: Netlist, key) -> Netlist:
    """A copy of ``net`` with each line id and output name mapped by
    ``key``."""

    def keys(xs):
        return tuple(map(key, xs))

    return Netlist(
        net.name, keys(net.inputs),
        [(key(lid), val) for lid, val in net.constants],
        [GateInstance(g.kind, keys(g.inputs), keys(g.outputs))
         for g in net.gates],
        [(key(name), key(lid)) for name, lid in net.outputs],
        keys(net.garbage))


def _find_violations(net: Netlist) -> tuple[Violation, ...]:
    """The violations of ``net``, in the order :func:`validate` reports them.

    A netlist of strings is judged as it is.  When an id or name cannot key
    a dict, the pass raises ``TypeError`` and is run again on
    :func:`_keyable`'s stand-ins, so a netlist of strings pays no per-id
    test."""
    try:
        return _judge(net)
    except TypeError:
        return _judge(_keyable(net))


def _tag(kind) -> str:
    """How a violation names a gate's kind: a :class:`GateKind`'s tag, or
    the ``repr`` of a kind that is not one."""
    return kind.value if isinstance(kind, GateKind) else repr(kind)


def _judge(net: Netlist) -> tuple[Violation, ...]:
    """The one pass of :func:`_find_violations` over ids that key a dict.

    A line's sinks are kept as cheap int references, in first-sink order:
    gate index ``i``, or ``~b`` for position ``b`` of
    :meth:`Netlist._boundary_lines` (an output, then garbage, as the slot
    program reads them).  ``describe`` names a reference, and is formatted
    only for violations.
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
        n = ARITY[g.kind] if isinstance(g.kind, GateKind) else None
        if n is None:
            v.append(Violation("role", f"gate {idx} has unknown kind "
                               f"{g.kind!r}", g.inputs + g.outputs))
        elif len(g.inputs) != n or len(g.outputs) != n:
            v.append(Violation(
                "width", f"gate {idx} ({g.kind.value}) has {len(g.inputs)} "
                f"inputs/{len(g.outputs)} outputs, arity is {n}",
                g.inputs + g.outputs))
        for lid in g.inputs:
            if lid not in defined:
                v.append(Violation(
                    "order", f"gate {idx} ({_tag(g.kind)}) reads {lid!r} "
                    "before any earlier source defines it", (lid,)))
            sinks.setdefault(lid, []).append(idx)
        for lid in g.outputs:
            if lid in defined:
                v.append(redefined(lid, f"gate {idx} output"))
            defined[lid] = None

    nout = len(net.outputs)

    def describe(ref: int) -> str:
        if ref >= 0:
            return f"gate {ref} ({_tag(net.gates[ref].kind)})"
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

    out_set = {lid for _, lid in net.outputs}
    if out_set & set(net.garbage):
        both = sorted(out_set & set(net.garbage), key=str)
        v.append(Violation("role", f"lines declared both output and garbage: "
                           f"{', '.join(map(str, both))}", tuple(both)))
    names: set[str] = set()
    for name, lid in net.outputs:
        if name in names:
            v.append(Violation("role", f"output name {name!r} declared more "
                               f"than once (again for line {lid!r})", (lid,)))
        names.add(name)

    # the text format must read every id and name back
    v += [Violation("role", f"invalid line id {lid!r}", (lid,))
          for lid in defined
          if not (isinstance(lid, str) and _ID_RE.fullmatch(lid))]
    for what, name, lines in [("netlist", net.name, ()),
                              *(("output", name, (lid,))
                                for name, lid in net.outputs)]:
        if not isinstance(name, str):
            v.append(Violation("role", f"{what} name {name!r} is not a "
                               "string", lines))
        elif name.split() != [name] or "#" in name:
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


# binary digit -> 0 or 1 << j, for bit j of a byte
_DIGIT_BITS = [bytes.maketrans(b"01", bytes((0, 1 << j))) for j in range(8)]


def _columns(masks, total: int):
    """Yield one byte column per group of 8 masks: byte ``v`` of column
    ``g`` has bit ``j`` set where bit ``v`` of mask ``8 * g + j`` is set,
    for v in 0..total-1.

    A mask is written out once as a binary string (high bit first), each
    digit is translated to 0 or ``1 << j``, and the group's strings are read
    as big-endian ints and ORed, so byte ``v`` of their little-endian form
    is the group's byte of vector ``v``.  Every step is one C-level pass
    over ``total`` digits or bytes."""
    fmt = f"0{total}b"
    for g in range(0, len(masks), 8):
        column = 0
        for table, m in zip(_DIGIT_BITS, masks[g:g + 8]):
            column |= int.from_bytes(
                format(m, fmt).encode("ascii").translate(table), "big")
        yield column.to_bytes(total, "little")


@cache
def _byte_rows(k: int) -> tuple[tuple[int, ...], ...]:
    """All 2^k rows of k <= 8 bits in order, row v holding bit j of v at
    position j; built on first use and shared by every later call (at most
    511 rows over k = 0..8)."""
    return tuple(tuple((v >> j) & 1 for j in range(k)) for v in range(1 << k))


def _enumeration(k: int) -> Sequence[tuple[int, ...]]:
    """All 2^k rows of k bits in order, row v holding bit j of v at
    position j.  Up to 8 bits this is the shared :func:`_byte_rows` table;
    above, row ``v`` is the 8-bit row of its low byte joined to the row of
    ``v >> 8``, one new tuple per row."""
    if k <= 8:
        return _byte_rows(k)
    low = _byte_rows(8)
    return [lo + hi for hi in _enumeration(k - 8) for lo in low]


def _rows(masks, total: int):
    """Transpose packed masks into per-vector rows: row v is the tuple of
    bit v of every mask, for v in 0..total-1.

    A group of k <= 8 masks reads each row from the shared
    :func:`_byte_rows` table, indexed by its :func:`_columns` byte.  One of
    9 to 16 masks over at least 8 vectors per possible row (2^(k+3) <=
    ``total``) reads it from 256-row pages of :func:`_enumeration`, built
    for the call and indexed by its high and low bytes.  Equal rows then
    share one tuple, and no call builds more tuples than it returns rows.
    Other groups are transposed with ``zip`` over one 0/1 byte string per
    mask: a page row costs a few ``zip`` rows to build, so with fewer
    vectors per row the pages cost more than they save.  Either way the
    cost is linear in ``total * len(masks)``; extracting bit v with a shift
    would copy the whole mask per vector.  With no masks there are still
    ``total`` rows, all empty.
    """
    k = len(masks)
    if not k:
        return repeat((), total)
    if k <= 8:
        col, = _columns(masks, total)
        return map(_byte_rows(k).__getitem__, col)
    if k <= 16 and 1 << (k + 3) <= total:
        lo, hi = _columns(masks, total)
        rows = _enumeration(k)
        pages = [rows[i:i + 256] for i in range(0, len(rows), 256)]
        return map(getitem, map(pages.__getitem__, hi), lo)
    fmt = f"0{total}b"
    return zip(*(format(m, fmt)[::-1].encode("ascii").translate(_DIGIT_BITS[0])
                 for m in masks))


def truth_table(net: Netlist):
    """Rows of (inputs, outputs, garbage) over all primary-input vectors in
    lexicographic order (vector index counts input 0 as the low bit).

    One word-parallel evaluation plus one linear transpose per boundary
    group: linear in the number of vectors times the boundary width.  The
    input rows are :func:`_enumeration`'s and the output and garbage rows
    :func:`_rows`', so a row is about one new tuple per vector: the
    ``(ins, outs, garb)`` triple, plus the input tuple above 8 inputs and
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
