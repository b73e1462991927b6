"""Fanout-free acyclic netlists: validation, simulation, tables, metrics.

A netlist is a list of gate instances over named lines.  Every line has
exactly one source (primary input, constant, or a gate output) and at most
one sink (a gate input); source lines that no gate consumes must be declared
either as named primary outputs or as garbage.  Equal boundary width
(inputs + constants == outputs + garbage) then follows from gates having as
many outputs as inputs, and is re-checked by :func:`validate`.

Simulation is word-parallel: every line carries a Python integer used as a
bitmask with one bit per test vector, and the gate expressions from
:mod:`revadd.gates` apply unchanged.  Scalar simulation is the one-vector
special case.  A netlist is compiled once, on its first evaluation, into a
slot program kept on the instance: each line's value lives at a fixed index
of a list, and each gate reads its input slots with one ``itemgetter``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import repeat
from operator import itemgetter
from random import Random
from typing import Callable, NamedTuple

from .gates import ARITY, EVAL, CostVector, GateKind, ledger_cost

EXHAUSTIVE_LIMIT = 20  # max primary-input width for exhaustive enumeration

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

    Slot ``s`` holds the value of line ``lines[s]``; the slots follow
    :meth:`Netlist.all_lines`, so a gate's outputs are appended in order
    right after the gate runs.
    """

    lines: tuple[str, ...]        # slot -> line id
    slot: dict[str, int]          # line id -> slot
    steps: tuple[tuple[GateKind, Callable], ...]  # (kind, input-slot reader)
    producer: tuple[int, ...]     # slot -> index of its gate, -1 at boundary


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
        lines = tuple(self.all_lines())
        slot = dict(zip(lines, range(len(lines))))
        read = slot.__getitem__
        steps = [(g.kind, itemgetter(*map(read, g.inputs))) for g in self.gates]
        producer = [-1] * self.boundary_in_width()
        for idx, g in enumerate(self.gates):
            producer += [idx] * len(g.outputs)
        return _Program(lines, slot, tuple(steps), tuple(producer))

    def all_lines(self) -> list[str]:
        """Every line id in deterministic source order."""
        ids = list(self.inputs)
        ids.extend(lid for lid, _ in self.constants)
        for g in self.gates:
            ids.extend(g.outputs)
        return ids

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


_GARBAGE = None  # sink reference of a garbage declaration


def _find_violations(net: Netlist) -> tuple[Violation, ...]:
    """The violations of ``net``, in the order :func:`validate` reports them.

    A line's sinks are kept as cheap references (a gate index, an output
    name or ``_GARBAGE``): the first in ``first``, any further ones in
    ``extra``.  Descriptions are formatted only for violations.
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
        if val not in (0, 1):
            v.append(Violation("role", f"constant {lid!r} has polarity {val!r}",
                               (lid,)))

    first: dict[str, object] = {}
    extra: dict[str, list] = {}

    def sink(lid: str, ref):
        if lid in first:
            extra.setdefault(lid, []).append(ref)
        else:
            first[lid] = ref

    for idx, g in enumerate(net.gates):
        n = ARITY[g.kind]
        if len(g.inputs) != n or len(g.outputs) != n:
            v.append(Violation(
                "width", f"gate {idx} ({g.kind.value}) has {len(g.inputs)} "
                f"inputs/{len(g.outputs)} outputs, arity is {n}",
                g.inputs + g.outputs))
        for lid in g.inputs:
            if lid not in defined:
                v.append(Violation(
                    "order", f"gate {idx} ({g.kind.value}) reads {lid!r} "
                    "before any earlier source defines it", (lid,)))
            if lid in first:  # sink(lid, idx), inlined in the hot loop
                extra.setdefault(lid, []).append(idx)
            else:
                first[lid] = idx
        for lid in g.outputs:
            if lid in defined:
                v.append(redefined(lid, f"gate {idx} output"))
            defined[lid] = None

    for name, lid in net.outputs:
        if lid not in defined:
            v.append(Violation("dangling", f"output {name} references "
                               f"undefined line {lid!r}", (lid,)))
        sink(lid, name)
    for lid in net.garbage:
        if lid not in defined:
            v.append(Violation("dangling", "garbage references undefined "
                               f"line {lid!r}", (lid,)))
        sink(lid, _GARBAGE)

    if extra:
        def describe(ref) -> str:
            if ref is _GARBAGE:
                return "garbage"
            if isinstance(ref, int):
                return f"gate {ref} ({net.gates[ref].kind.value})"
            return f"output {ref}"

        for lid in first:
            if lid in extra:
                where = [first[lid], *extra[lid]]
                v.append(Violation(
                    "fanout", f"line {lid!r} feeds {len(where)} sinks: "
                    f"{', '.join(map(describe, where))}", (lid,)))
    if not defined.keys() <= first.keys():
        for lid in defined:
            if lid not in first:
                v.append(Violation(
                    "dangling", f"line {lid!r} has no sink; it must be "
                    "consumed, a primary output, or garbage", (lid,)))

    out_set = {lid for _, lid in net.outputs}
    if out_set & set(net.garbage):
        both = sorted(out_set & set(net.garbage))
        v.append(Violation("role", f"lines declared both output and garbage: "
                           f"{', '.join(both)}", tuple(both)))
    names: set[str] = set()
    for name, lid in net.outputs:
        if name in names:
            v.append(Violation("role", f"output name {name!r} declared more "
                               f"than once (again for line {lid!r})", (lid,)))
        names.add(name)
    if net.boundary_in_width() != net.boundary_out_width():
        v.append(Violation(
            "width", f"boundary width mismatch: {net.boundary_in_width()} "
            f"inputs+constants vs {net.boundary_out_width()} outputs+garbage"))
    return tuple(v)


def _check_valid(net: Netlist):
    problems = validate(net)
    if problems:
        raise NetlistError(
            f"netlist {net.name!r} is not valid: " + "; ".join(map(str, problems)))


def evaluate_lines(net: Netlist, input_masks, one: int, fault=None) -> dict:
    """Word-parallel evaluation: map every line id to its value mask.

    ``input_masks`` aligns with ``net.inputs``; ``one`` is the all-ones mask
    (1 for scalar runs).  ``fault``, when given, maps faulted line ids to
    ``(model, mask)``: right after the line's source produces its value
    ``v``, before any sink reads it, ``FAULT_TRANSFORMS[model](v, mask)``
    replaces it.  With ``mask == one`` that is a single fault on every
    vector of the word; a fault campaign instead gives each faulted line the
    bits of its own slot of a wide word (see
    :func:`revadd.faults.run_campaign`).  An unknown model raises
    ``ValueError``; ids the netlist lacks are ignored.

    Runs the netlist's slot program (compiled on the first call).  Each
    pass looks its gates up in ``revadd.gates.EVAL`` afresh, so the program
    never holds a gate function.
    """
    prog = net._program
    values = list(input_masks)
    if len(values) != len(net.inputs):
        raise ValueError(f"netlist {net.name!r} has {len(net.inputs)} "
                         f"primary inputs, got {len(values)} input values")
    values += [one if pol else 0 for _, pol in net.constants]
    put = values.extend
    if not fault:
        for kind, read in prog.steps:
            put(EVAL[kind](read(values), one))
        return dict(zip(prog.lines, values))
    hits: dict[int, list] = {}  # producing gate (-1: none) -> faulted slots
    slot, producer = prog.slot, prog.producer
    for lid, (model, mask) in fault.items():
        # _fault_transform is reached, and raises, only on an unknown model
        transform = FAULT_TRANSFORMS.get(model) or _fault_transform(model)
        s = slot.get(lid)
        if s is not None:
            hits.setdefault(producer[s], []).append((s, transform, mask))
    for s, transform, mask in hits.get(-1, ()):
        values[s] = transform(values[s], mask)
    for idx, (kind, read) in enumerate(prog.steps):
        put(EVAL[kind](read(values), one))
        for s, transform, mask in hits.get(idx, ()):
            values[s] = transform(values[s], mask)
    return dict(zip(prog.lines, values))


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
    values = evaluate_lines(net, bits, 1, fault=fault)
    outs = {name: values[lid] for name, lid in net.outputs}
    garb = tuple(values[lid] for lid in net.garbage)
    return SimResult(outs, garb)


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


def _vector_count(net: Netlist, samples: int | None) -> int:
    """Vectors a check runs over: all 2^n when ``samples`` is None, refused
    above ``EXHAUSTIVE_LIMIT`` inputs; else ``samples``, refused below 1,
    since a check over no vectors would check nothing."""
    n = len(net.inputs)
    if samples is None:
        if n > EXHAUSTIVE_LIMIT:
            raise WidthLimitError(
                f"netlist {net.name!r} has {n} primary inputs; exhaustive "
                f"enumeration is limited to {EXHAUSTIVE_LIMIT} (use a "
                "sampled check)")
        return 1 << n
    if samples < 1:
        raise ValueError(f"sample count must be positive, got {samples}")
    return samples


def _evaluate_exhaustive(net: Netlist):
    """Evaluate every input vector of a netlist already known to be valid
    in one word-parallel pass (see :func:`_vector_count` for the limit).

    Returns ``(total, input_masks, values)``: the vector count 2^n, the
    enumeration masks and the mask of every line.
    """
    total = _vector_count(net, None)
    masks = variable_masks(len(net.inputs))
    return total, masks, evaluate_lines(net, masks, (1 << total) - 1)


_BINARY_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _rows(masks, total: int):
    """Transpose packed masks into per-vector rows: row v is the tuple of
    bit v of every mask, for v in 0..total-1.

    Each mask is written out once as a binary string (low bit first), so
    the cost is linear in ``total * len(masks)``; extracting bit v with a
    shift would copy the whole mask per vector.  With no masks there are
    still ``total`` rows, all empty.
    """
    if not masks:
        return repeat((), total)
    fmt = f"0{total}b"
    return zip(*(format(m, fmt)[::-1].encode("ascii").translate(_BINARY_DIGITS)
                 for m in masks))


def truth_table(net: Netlist):
    """Rows of (inputs, outputs, garbage) over all primary-input vectors in
    lexicographic order (vector index counts input 0 as the low bit).

    One word-parallel evaluation plus one transpose per boundary line:
    linear in the number of vectors times the boundary width.
    """
    _check_valid(net)
    total, in_masks, values = _evaluate_exhaustive(net)
    out_masks = [values[lid] for _, lid in net.outputs]
    garb_masks = [values[lid] for lid in net.garbage]
    return list(zip(_rows(in_masks, total), _rows(out_masks, total),
                    _rows(garb_masks, total)))


def _input_parity(net: Netlist, input_masks, one: int) -> int:
    """Input-side parity word: the XOR of the primary-input masks and of
    every constant (all-ones word ``one`` for a 1)."""
    pin = 0
    for m in input_masks:
        pin ^= m
    for _, pol in net.constants:
        pin ^= one if pol else 0
    return pin


def _parity_conserved(net: Netlist, values: dict, one: int) -> bool:
    """On every vector, the parity of the inputs (constants included)
    equals the parity of the outputs (garbage included)."""
    pin = _input_parity(net, map(values.__getitem__, net.inputs), one)
    pout = 0
    for _, lid in net.outputs:
        pout ^= values[lid]
    for lid in net.garbage:
        pout ^= values[lid]
    return pin == pout


def is_parity_preserving_circuit(net: Netlist) -> bool:
    """Exhaustively check boundary parity conservation over all input vectors."""
    _check_valid(net)
    total, _, values = _evaluate_exhaustive(net)
    return _parity_conserved(net, values, (1 << total) - 1)


def is_parity_preserving_circuit_sampled(net: Netlist, samples: int,
                                         seed: int) -> bool:
    """Monte-Carlo parity check for wide netlists over ``samples`` vectors.

    Raises ValueError when ``samples`` is below 1: a check over no vectors
    would pass without having checked anything.
    """
    _check_valid(net)
    return _sampled_parity(net, samples, seed)


def _sampled_parity(net: Netlist, samples: int, seed: int) -> bool:
    """:func:`is_parity_preserving_circuit_sampled` for a netlist already
    known to be valid."""
    one = (1 << _vector_count(net, samples)) - 1
    rng = Random(seed)
    masks = [rng.getrandbits(samples) for _ in net.inputs]
    values = evaluate_lines(net, masks, one)
    return _parity_conserved(net, values, one)


def _injective(net: Netlist, total: int, values: dict) -> bool:
    """The boundary masks of an exhaustive evaluation over ``total`` vectors
    have ``total`` distinct rows.

    Linear in the number of vectors times the boundary width: the boundary
    masks are transposed once and the distinct rows counted.
    """
    masks = [values[lid] for _, lid in net.outputs]
    masks += [values[lid] for lid in net.garbage]
    # as bytes, the rows have the same distinct count as the int tuples
    # in a fraction of the memory
    return len(set(map(bytes, _rows(masks, total)))) == total


def is_reversible_circuit(net: Netlist) -> bool:
    """True iff, with constants fixed, the boundary map from primary inputs
    to (outputs + garbage) is injective."""
    _check_valid(net)
    total, _, values = _evaluate_exhaustive(net)
    return _injective(net, total, values)


def _exhaustive_verdicts(net: Netlist) -> tuple[bool, bool]:
    """``(is_reversible_circuit(net), is_parity_preserving_circuit(net))``
    for a netlist already known to be valid, from one exhaustive
    evaluation."""
    total, _, values = _evaluate_exhaustive(net)
    return (_injective(net, total, values),
            _parity_conserved(net, values, (1 << total) - 1))


def metrics(net: Netlist) -> MetricsReport:
    """Gate counts, additive hardware cost, constants and garbage totals."""
    _check_valid(net)
    counts: dict[str, int] = {}
    for g in net.gates:
        counts[g.kind.value] = counts.get(g.kind.value, 0) + 1
    return MetricsReport(counts, len(net.gates), ledger_cost(counts),
                         len(net.constants), len(net.garbage))
