"""Line-oriented text format for netlists: parser and canonical serializer.

Grammar (``#`` starts a comment; a line ends at ``\\n``, so CRLF is
accepted; any other whitespace separates tokens, and a column counts
characters):

    netlist <name>
    version 1
    input <id> ...
    const <id>=0|1 ...
    gate <KIND> <out1> ... <outN> <- <in1> ... <inN>
    output <name>=<id> ...
    garbage <id> ...

Gate statements appear in topological order; every line that no gate
consumes must appear in exactly one of output/garbage.  The parser checks
the text itself (headers, tokens, arity, ids, definition before use); a
document that passes is built, and its structural diagnostics are the
:func:`revadd.netlist.validate` violations placed at source positions.
One reader, with one rule per statement keyword, reads the text in one of
two ways: a legal document is read once, by a quick read that keeps no
positions, and only text with a problem is read again, by a placed read
that reports it (see :func:`parse_netlist`).  The serializer is
deterministic and byte-stable: declarations first, then instances in
topological order, with long declaration sections wrapped at a fixed width.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .gates import ARITY, GateKind
from .netlist import _ID_RE, GateInstance, Netlist, Violation, validate

FORMAT_VERSION = 1
_WRAP = 8  # ids per declaration line when serializing
_TOKEN_RE = re.compile(r"\S+")
_CONST_RE = re.compile(r"(.+)=([01])")
_OUTPUT_RE = re.compile(r"(.+)=(.+)")
_KINDS = {k.value: k for k in GateKind}


@dataclass(frozen=True)
class Diagnostic:
    line: int  # 1-based
    col: int   # 1-based
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: {self.message}"


class NetlistParseError(ValueError):
    """Carries every positioned diagnostic collected during one parse."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("\n".join(str(d) for d in self.diagnostics))


class _Refused(Exception):
    """Raised by a quick read at the first thing it does not read."""


class _Parser:
    """One pass over the words of each line, made in one of two ways.

    A *placed* read (``placed=True``) is the diagnostic parser.  It keeps a
    source position as a ``(line number, word index)`` reference, turned
    into a column only when a diagnostic needs it, and reports every
    problem in the text or, when the text has none, every violation
    :func:`validate` finds.

    A *quick* read applies the same rule to each statement but skips what
    only places diagnostics: it keeps no word positions and checks no id,
    and it returns the netlist unjudged, leaving ids, output names and
    structure to :func:`validate`.  It raises :class:`_Refused` at the
    first problem, and at an ``input`` or ``const`` statement below a gate
    (see :func:`parse_netlist`)."""

    __slots__ = ("lines", "placed", "diags", "name", "headers", "inputs",
                 "constants", "gates", "outputs", "garbage", "defs", "sinks",
                 "out_names")

    def __init__(self, text: str, placed: bool):
        # each line's body, what precedes its "#"
        self.lines = [ln.partition("#")[0] for ln in text.split("\n")]
        self.placed = placed
        self.diags: list[Diagnostic] = []
        self.name: str | None = None
        self.headers: dict[str, tuple[int, int]] = {}  # keyword -> first
        self.inputs: list[str] = []
        self.constants: list[tuple[str, int]] = []
        self.gates: list[GateInstance] = []
        self.outputs: list[tuple[str, str]] = []
        self.garbage: list[str] = []
        self.defs: dict[str, tuple[int, int]] = {}  # line id -> definition
        self.sinks: dict[str, list[tuple[int, int]]] = {}
        self.out_names: dict[str, tuple[int, int]] = {}

    def at(self, ref: tuple[int, int] | None) -> tuple[int, int]:
        """The 1-based ``(line, column)`` of a word reference, found by
        scanning its line again; no reference is 1:1."""
        if ref is None:
            return 1, 1
        row, k = ref
        return row, [*_TOKEN_RE.finditer(self.lines[row - 1])][k].start() + 1

    def where(self, ref: tuple[int, int]) -> str:
        return "%d:%d" % self.at(ref)

    def err(self, ref: tuple[int, int] | None, message: str):
        if not self.placed:
            raise _Refused
        self.diags.append(Diagnostic(*self.at(ref), message))

    def define(self, ref: tuple[int, int], lid: str):
        if not _ID_RE.fullmatch(lid):
            self.err(ref, f"invalid line id {lid!r}")
        elif lid in self.defs:
            self.err(ref, f"line {lid!r} redeclared "
                          f"(first declared at {self.where(self.defs[lid])})")
        else:
            self.defs[lid] = ref

    def consume(self, ref: tuple[int, int], lid: str):
        self.sinks.setdefault(lid, []).append(ref)

    def parse(self) -> Netlist:
        for row, body in enumerate(self.lines, start=1):
            # str.split() and _TOKEN_RE agree on whitespace, which includes
            # the "\r" of a CRLF line end
            words = body.split()
            if not words:
                continue
            handler = _STATEMENTS.get(words[0])
            if handler is None:
                self.err((row, 0), f"unknown statement {words[0]!r} (expected "
                         "netlist/version/input/const/gate/output/garbage)")
                continue
            handler(self, row, words)
        if "netlist" not in self.headers:
            self.err(None, "missing 'netlist <name>' header")
        if "version" not in self.headers:
            self.err(None, "missing 'version 1' header")
        if self.diags:
            raise NetlistParseError(self.diags)
        net = Netlist(self.name, self.inputs, self.constants, self.gates,
                      self.outputs, self.garbage)
        problems = validate(net) if self.placed else ()
        if problems:
            raise NetlistParseError(map(self._place, problems))
        return net

    def _place(self, v: Violation) -> Diagnostic:
        """Position a violation at the first sink of its first line, else at
        that line's definition, else at 1:1."""
        lid = v.lines[0] if v.lines else None
        sinks = self.sinks.get(lid, [])
        ref = sinks[0] if sinks else self.defs.get(lid)
        message = str(v)
        if len(sinks) > 1:
            message += f" (at {', '.join(map(self.where, sinks))})"
        return Diagnostic(*self.at(ref), message)

    def _first(self, row: int, key: str) -> bool:
        """Whether this is the first ``key`` header; a repeat is diagnosed."""
        if key in self.headers:
            self.err((row, 0), f"{key} header redeclared "
                               f"(first at {self.where(self.headers[key])})")
            return False
        self.headers[key] = (row, 0)
        return True

    def _stmt_netlist(self, row, words):
        if not self._first(row, "netlist"):
            return
        if len(words) != 2:
            self.err((row, 0), "expected: netlist <name>")
            return
        self.name = words[1]

    def _stmt_version(self, row, words):
        if not self._first(row, "version"):
            return
        if len(words) != 2 or words[1] != str(FORMAT_VERSION):
            found = words[1] if len(words) > 1 else "nothing"
            self.err((row, min(1, len(words) - 1)),
                     f"unsupported format version {found!r} "
                     f"(expected {FORMAT_VERSION})")

    def _stmt_input(self, row, words):
        if len(words) < 2:
            self.err((row, 0), "expected: input <id> ...")
        if self.placed:
            for k in range(1, len(words)):
                self.define((row, k), words[k])
        elif self.gates:
            raise _Refused  # a declaration below a gate
        self.inputs += words[1:]

    def _stmt_const(self, row, words):
        if len(words) < 2:
            self.err((row, 0), "expected: const <id>=0|1 ...")
        if self.gates and not self.placed:
            raise _Refused  # a declaration below a gate
        for k in range(1, len(words)):
            m = _CONST_RE.fullmatch(words[k])
            if not m:
                self.err((row, k), f"malformed constant {words[k]!r} "
                                   "(expected <id>=0 or <id>=1)")
                continue
            if self.placed:
                self.define((row, k), m[1])
            self.constants.append((m[1], int(m[2])))

    def _stmt_gate(self, row, words):
        if len(words) < 4:
            self.err((row, 0), "expected: gate <KIND> <outs...> <- <ins...>")
            return
        kind = _KINDS.get(words[1])
        if kind is None:
            self.err((row, 1), f"unknown gate kind {words[1]!r} (expected one "
                               f"of {', '.join(_KINDS)})")
            return
        if words.count("<-") != 1:
            self.err((row, 0), "gate statement needs exactly one '<-' "
                               "between outputs and inputs")
            return
        n = ARITY[kind]
        if len(words) != 2 * n + 3 or words[n + 2] != "<-":
            n_out = words.index("<-") - 2
            self.err((row, 1), f"{kind.value} gate has arity {n}, got "
                     f"{n_out} outputs and {len(words) - n_out - 3} inputs")
            return
        if self.placed:
            for k in range(n + 3, len(words)):
                if words[k] not in self.defs:
                    self.err((row, k), f"gate input {words[k]!r} is not "
                             "defined by any earlier input/const/gate "
                             "statement")
                self.consume((row, k), words[k])
            for k in range(2, n + 2):
                self.define((row, k), words[k])
        self.gates.append(GateInstance(kind, tuple(words[n + 3:]),
                                       tuple(words[2:n + 2])))

    def _stmt_output(self, row, words):
        if len(words) < 2:
            self.err((row, 0), "expected: output <name>=<id> ...")
        for k in range(1, len(words)):
            m = _OUTPUT_RE.fullmatch(words[k])
            if not m:
                self.err((row, k), f"malformed output {words[k]!r} "
                                   "(expected <name>=<id>)")
                continue
            if self.placed:
                if m[1] in self.out_names:
                    self.err((row, k), f"output name {m[1]!r} redeclared "
                             f"(first at {self.where(self.out_names[m[1]])})")
                    continue
                self.out_names[m[1]] = (row, k)
                self.consume((row, k), m[2])
            self.outputs.append(m.groups())

    def _stmt_garbage(self, row, words):
        if len(words) < 2:
            self.err((row, 0), "expected: garbage <id> ...")
        if self.placed:
            for k in range(1, len(words)):
                self.consume((row, k), words[k])
        self.garbage += words[1:]


# statement keyword -> handler
_STATEMENTS = {name.removeprefix("_stmt_"): fn
               for name, fn in vars(_Parser).items()
               if name.startswith("_stmt_")}


def parse_netlist(text: str) -> Netlist:
    """Parse a netlist document; raises :class:`NetlistParseError` carrying
    a positioned diagnostic for every problem in the text or, when the text
    has none, for every violation :func:`validate` finds.

    A quick read of :class:`_Parser` comes first, and its netlist is
    returned when :func:`validate` passes it.  Only text the quick read
    refuses, or whose netlist :func:`validate` rejects, is read again, by a
    placed read, the one source of diagnostics.  The result cannot differ
    from the placed read's alone.  Both reads apply the same rule to each
    statement, so the quick read refuses every statement, header and token
    shape the placed read diagnoses.  The placed read's remaining checks
    are on ids (an invalid or redeclared id, a gate input no earlier
    statement defines, a repeated output name), each of which
    :func:`validate` also reports, so such text falls back too.
    :func:`validate` reads the inputs and constants before every gate,
    whatever lines declare them, so the quick read also refuses a
    declaration below a gate: only in such text may a gate read a line
    declared after it.  Text that has a problem thus costs one extra quick
    read, plus a second :func:`validate` when the quick read built its
    netlist."""
    try:
        net = _Parser(text, placed=False).parse()
        if not validate(net):
            return net
    except _Refused:
        pass
    return _Parser(text, placed=True).parse()


def _wrapped(keyword: str, items: list[str]) -> list[str]:
    return [f"{keyword} {' '.join(items[i:i + _WRAP])}"
            for i in range(0, len(items), _WRAP)]


def serialize(net: Netlist) -> str:
    """Canonical text form; byte-stable for a given netlist.

    Every id and name of a netlist is a ``str`` and every kind a
    ``GateKind``, since construction refuses anything else, so the text is
    joined as it is."""
    lines = [f"netlist {net.name}", f"version {FORMAT_VERSION}"]
    lines += _wrapped("input", list(net.inputs))
    lines += _wrapped("const", [f"{lid}={pol}" for lid, pol in net.constants])
    for g in net.gates:
        lines.append(f"gate {g.kind.value} {' '.join(g.outputs)} "
                     f"<- {' '.join(g.inputs)}")
    lines += _wrapped("output", [f"{name}={lid}" for name, lid in net.outputs])
    lines += _wrapped("garbage", list(net.garbage))
    return "\n".join(lines) + "\n"
