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
Parsing takes two passes: a legal document is read once, by an accept pass
that keeps no positions, and only text with a problem is read again by the
diagnostic parser (see :func:`parse_netlist`).  The serializer is
deterministic and byte-stable: declarations first, then instances in
topological order, with long declaration sections wrapped at a fixed width.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .gates import ARITY, GateKind
from .netlist import (_ID_RE, GateInstance, Netlist, Violation, _all_pairs,
                      _is_pair, _relabel, _tag, validate)

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


class _Parser:
    """One pass over the words of each line.  A source position is kept as
    a ``(line number, word index)`` reference and turned into a column only
    when a diagnostic needs it."""

    def __init__(self, text: str):
        self.lines = text.split("\n")
        self.diags: list[Diagnostic] = []
        self.name: str | None = None
        self.header: tuple[int, int] | None = None
        self.version_seen = False
        self.inputs: list[str] = []
        self.constants: list[tuple[str, int]] = []
        self.gates: list[GateInstance] = []
        self.outputs: list[tuple[str, str]] = []
        self.garbage: list[str] = []
        self.defs: dict[str, tuple[int, int]] = {}  # line id -> definition
        self.sinks: dict[str, list[tuple[int, int]]] = {}
        self.out_names: dict[str, tuple[int, int]] = {}

    def at(self, ref: tuple[int, int]) -> tuple[int, int]:
        """The 1-based ``(line, column)`` of a word reference, found by
        scanning its line again."""
        row, k = ref
        body = self.lines[row - 1].split("#", 1)[0]
        return row, list(_TOKEN_RE.finditer(body))[k].start() + 1

    def where(self, ref: tuple[int, int]) -> str:
        return "%d:%d" % self.at(ref)

    def err(self, ref: tuple[int, int], message: str):
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
        for row, raw in enumerate(self.lines, start=1):
            # str.split() and _TOKEN_RE agree on whitespace, which includes
            # the "\r" of a CRLF line end
            words = raw.split("#", 1)[0].split()
            if not words:
                continue
            handler = _STATEMENTS.get(words[0])
            if handler is None:
                self.err((row, 0), f"unknown statement {words[0]!r} (expected "
                         "netlist/version/input/const/gate/output/garbage)")
                continue
            handler(self, row, words)
        if self.header is None:
            self.diags.append(Diagnostic(1, 1, "missing 'netlist <name>' header"))
        if not self.version_seen:
            self.diags.append(Diagnostic(1, 1, "missing 'version 1' header"))
        if self.diags:
            raise NetlistParseError(self.diags)
        net = Netlist(self.name, self.inputs, self.constants, self.gates,
                      self.outputs, self.garbage)
        problems = validate(net)
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
        return Diagnostic(*(self.at(ref) if ref else (1, 1)), message)

    def _stmt_netlist(self, row, words):
        if self.header is not None:
            self.err((row, 0), "netlist header redeclared "
                               f"(first at {self.where(self.header)})")
            return
        self.header = (row, 0)
        if len(words) != 2:
            self.err((row, 0), "expected: netlist <name>")
            return
        self.name = words[1]

    def _stmt_version(self, row, words):
        self.version_seen = True
        if len(words) != 2 or words[1] != str(FORMAT_VERSION):
            found = words[1] if len(words) > 1 else "nothing"
            self.err((row, min(1, len(words) - 1)),
                     f"unsupported format version {found!r} "
                     f"(expected {FORMAT_VERSION})")

    def _stmt_input(self, row, words):
        if len(words) < 2:
            self.err((row, 0), "expected: input <id> ...")
        for k in range(1, len(words)):
            self.define((row, k), words[k])
        self.inputs += words[1:]

    def _stmt_const(self, row, words):
        if len(words) < 2:
            self.err((row, 0), "expected: const <id>=0|1 ...")
        for k in range(1, len(words)):
            m = _CONST_RE.fullmatch(words[k])
            if not m:
                self.err((row, k), f"malformed constant {words[k]!r} "
                                   "(expected <id>=0 or <id>=1)")
                continue
            self.define((row, k), m.group(1))
            self.constants.append((m.group(1), int(m.group(2))))

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
        arrow = words.index("<-")
        n, n_out, n_in = ARITY[kind], arrow - 2, len(words) - arrow - 1
        if n_out != n or n_in != n:
            self.err((row, 1), f"{kind.value} gate has arity {n}, got "
                               f"{n_out} outputs and {n_in} inputs")
            return
        for k in range(arrow + 1, len(words)):
            if words[k] not in self.defs:
                self.err((row, k), f"gate input {words[k]!r} is not defined "
                                   "by any earlier input/const/gate statement")
            self.consume((row, k), words[k])
        for k in range(2, arrow):
            self.define((row, k), words[k])
        self.gates.append(GateInstance(kind, tuple(words[arrow + 1:]),
                                       tuple(words[2:arrow])))

    def _stmt_output(self, row, words):
        if len(words) < 2:
            self.err((row, 0), "expected: output <name>=<id> ...")
        for k in range(1, len(words)):
            m = _OUTPUT_RE.fullmatch(words[k])
            if not m:
                self.err((row, k), f"malformed output {words[k]!r} "
                                   "(expected <name>=<id>)")
                continue
            name, lid = m.group(1), m.group(2)
            if name in self.out_names:
                self.err((row, k), f"output name {name!r} redeclared "
                         f"(first at {self.where(self.out_names[name])})")
                continue
            self.out_names[name] = (row, k)
            self.outputs.append((name, lid))
            self.consume((row, k), lid)

    def _stmt_garbage(self, row, words):
        if len(words) < 2:
            self.err((row, 0), "expected: garbage <id> ...")
        for k in range(1, len(words)):
            self.garbage.append(words[k])
            self.consume((row, k), words[k])


# statement keyword -> handler
_STATEMENTS = {name.removeprefix("_stmt_"): fn
               for name, fn in vars(_Parser).items()
               if name.startswith("_stmt_")}


def _accept(text: str) -> Netlist | None:
    """The netlist a well-formed document describes, read with no position
    bookkeeping, or ``None`` when a statement is one the grammar refuses, a
    header is missing or repeated, or an ``input`` or ``const`` statement
    follows a gate.  Lines and words are split as :meth:`_Parser.parse`
    splits them, and each token shape is read by the parser's own rule;
    ids and output names are left to :func:`validate`."""
    name, version = None, False
    inputs, constants, gates, outputs, garbage = [], [], [], [], []
    for raw in text.split("\n"):
        words = raw.split("#", 1)[0].split()
        if not words:
            continue
        key, n = words[0], len(words)
        if key == "gate":
            kind = _KINDS.get(words[1]) if n > 1 else None
            if kind is None:
                return None
            arity = ARITY[kind]
            if (n != 2 * arity + 3 or words[arity + 2] != "<-"
                    or words.count("<-") != 1):
                return None
            gates.append(GateInstance(kind, tuple(words[arity + 3:]),
                                      tuple(words[2:arity + 2])))
        elif n < 2:
            return None
        elif key == "input" and not gates:
            inputs += words[1:]
        elif key == "const" and not gates:
            for word in words[1:]:
                m = _CONST_RE.fullmatch(word)
                if m is None:
                    return None
                constants.append((m[1], int(m[2])))
        elif key == "output":
            for word in words[1:]:
                m = _OUTPUT_RE.fullmatch(word)
                if m is None:
                    return None
                outputs.append(m.groups())
        elif key == "garbage":
            garbage += words[1:]
        elif key == "netlist" and n == 2 and name is None:
            name = words[1]
        elif (key == "version" and n == 2 and not version
              and words[1] == str(FORMAT_VERSION)):
            version = True
        else:
            return None
    if name is None or not version:
        return None
    return Netlist(name, inputs, constants, gates, outputs, garbage)


def parse_netlist(text: str) -> Netlist:
    """Parse a netlist document; raises :class:`NetlistParseError` carrying
    a positioned diagnostic for every problem in the text or, when the text
    has none, for every violation :func:`validate` finds.

    Two passes share the work.  :func:`_accept` reads the document with no
    position bookkeeping, and its netlist is returned when :func:`validate`
    finds it legal.  Otherwise :class:`_Parser`, the one source of
    diagnostics, reads the text again.  The result cannot differ from the
    parser's alone: the accept pass refuses every statement, header and
    token shape the parser refuses, and the parser's remaining checks are
    on ids (an invalid or redeclared id, a gate input no earlier statement
    defines, a repeated output name), each of which :func:`validate` also
    reports, so such a text falls back too.  :func:`validate` reads the
    inputs and constants before every gate, whatever lines declare them,
    so the accept pass also refuses a declaration that follows a gate: a
    gate may read a line declared below it only in such a text.  Text that
    has a problem thus costs one extra accept pass, plus a second
    :func:`validate` when the accept pass read it whole."""
    net = _accept(text)
    if net is not None and not validate(net):
        return net
    return _Parser(text).parse()


def _wrapped(keyword: str, items: list[str]) -> list[str]:
    return [f"{keyword} {' '.join(items[i:i + _WRAP])}"
            for i in range(0, len(items), _WRAP)]


def _entry_words(entries) -> list[str]:
    """Each constant or output entry as ``a=b``, or by its ``repr`` when it
    is not a pair."""
    if _all_pairs(entries):
        return [f"{a}={b}" for a, b in entries]
    return [f"{e[0]}={e[1]}" if _is_pair(e) else repr(e) for e in entries]


def serialize(net: Netlist) -> str:
    """Canonical text form; byte-stable for a given netlist.

    A line id that is not a string, which :func:`validate` refuses, is
    written as its ``repr``, as a gate kind that is not a ``GateKind`` and
    a constant or output entry that is not a pair are; the text then reads
    back only as a positioned diagnostic.  A netlist of strings is joined
    as it is: only when a join raises ``TypeError`` is the pass run again on
    ids shown by their ``repr``."""
    try:
        return _text(net)
    except TypeError:
        return _text(_relabel(net, lambda x: x if isinstance(x, str)
                              else repr(x)))


def _text(net: Netlist) -> str:
    lines = [f"netlist {net.name}", f"version {FORMAT_VERSION}"]
    lines += _wrapped("input", list(net.inputs))
    lines += _wrapped("const", _entry_words(net.constants))
    for g in net.gates:
        lines.append(f"gate {_tag(g.kind)} {' '.join(g.outputs)} "
                     f"<- {' '.join(g.inputs)}")
    lines += _wrapped("output", _entry_words(net.outputs))
    lines += _wrapped("garbage", list(net.garbage))
    return "\n".join(lines) + "\n"
