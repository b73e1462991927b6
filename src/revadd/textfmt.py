"""Line-oriented text format for netlists: parser and canonical serializer.

Grammar (``#`` starts a comment, tokens are whitespace-separated ASCII):

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
:func:`revadd.netlist.validate` violations placed at source positions.  The
serializer is deterministic and byte-stable: declarations first, then
instances in topological order, with long declaration sections wrapped at a
fixed width.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

from .gates import ARITY, GateKind
from .netlist import GateInstance, Netlist, Violation, validate

FORMAT_VERSION = 1
_WRAP = 8  # ids per declaration line when serializing
_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*")
_TOKEN_RE = re.compile(r"\S+")
_CONST_RE = re.compile(r"(.+)=([01])")
_OUTPUT_RE = re.compile(r"(.+)=(.+)")


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


class _Token(NamedTuple):
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[list[_Token]]:
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        toks = [
            _Token(m.group(0), lineno, m.start() + 1)
            for m in _TOKEN_RE.finditer(body)
        ]
        if toks:
            rows.append(toks)
    return rows


class _Parser:
    def __init__(self, text: str):
        self.rows = _tokenize(text)
        self.diags: list[Diagnostic] = []
        self.name: str | None = None
        self.header: _Token | None = None
        self.version_seen = False
        self.inputs: list[str] = []
        self.constants: list[tuple[str, int]] = []
        self.gates: list[GateInstance] = []
        self.outputs: list[tuple[str, str]] = []
        self.garbage: list[str] = []
        self.defs: dict[str, _Token] = {}    # line id -> defining token
        self.sinks: dict[str, list[_Token]] = {}
        self.out_names: dict[str, _Token] = {}

    def err(self, tok: _Token, message: str):
        self.diags.append(Diagnostic(tok.line, tok.col, message))

    def define(self, tok: _Token, lid: str):
        if not _ID_RE.fullmatch(lid):
            self.err(tok, f"invalid line id {lid!r}")
            return
        if lid in self.defs:
            prev = self.defs[lid]
            self.err(tok, f"line {lid!r} redeclared "
                          f"(first declared at {prev.line}:{prev.col})")
            return
        self.defs[lid] = tok

    def consume(self, tok: _Token, lid: str):
        self.sinks.setdefault(lid, []).append(tok)

    def parse(self) -> Netlist:
        for toks in self.rows:
            head = toks[0]
            handler = getattr(self, f"_stmt_{head.text}", None)
            if handler is None:
                self.err(head, f"unknown statement {head.text!r} (expected "
                               "netlist/version/input/const/gate/output/garbage)")
                continue
            handler(toks)
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
        tok = sinks[0] if sinks else self.defs.get(lid, _Token("", 1, 1))
        message = str(v)
        if len(sinks) > 1:
            message += f" (at {', '.join(f'{t.line}:{t.col}' for t in sinks)})"
        return Diagnostic(tok.line, tok.col, message)

    def _stmt_netlist(self, toks):
        if self.header is not None:
            self.err(toks[0], "netlist header redeclared (first at "
                              f"{self.header.line}:{self.header.col})")
            return
        self.header = toks[0]
        if len(toks) != 2:
            self.err(toks[0], "expected: netlist <name>")
            return
        self.name = toks[1].text

    def _stmt_version(self, toks):
        self.version_seen = True
        if len(toks) != 2 or toks[1].text != str(FORMAT_VERSION):
            tok = toks[1] if len(toks) > 1 else toks[0]
            found = toks[1].text if len(toks) > 1 else "nothing"
            self.err(tok, f"unsupported format version {found!r} "
                          f"(expected {FORMAT_VERSION})")

    def _stmt_input(self, toks):
        if len(toks) < 2:
            self.err(toks[0], "expected: input <id> ...")
        for tok in toks[1:]:
            self.define(tok, tok.text)
            self.inputs.append(tok.text)

    def _stmt_const(self, toks):
        if len(toks) < 2:
            self.err(toks[0], "expected: const <id>=0|1 ...")
        for tok in toks[1:]:
            m = _CONST_RE.fullmatch(tok.text)
            if not m:
                self.err(tok, f"malformed constant {tok.text!r} "
                              "(expected <id>=0 or <id>=1)")
                continue
            self.define(tok, m.group(1))
            self.constants.append((m.group(1), int(m.group(2))))

    def _stmt_gate(self, toks):
        if len(toks) < 4:
            self.err(toks[0], "expected: gate <KIND> <outs...> <- <ins...>")
            return
        ktok = toks[1]
        try:
            kind = GateKind(ktok.text)
        except ValueError:
            self.err(ktok, f"unknown gate kind {ktok.text!r} (expected one "
                           f"of {', '.join(k.value for k in GateKind)})")
            return
        arrow = [i for i, t in enumerate(toks) if t.text == "<-"]
        if len(arrow) != 1:
            self.err(toks[0], "gate statement needs exactly one '<-' "
                              "between outputs and inputs")
            return
        outs = toks[2:arrow[0]]
        ins = toks[arrow[0] + 1:]
        n = ARITY[kind]
        if len(outs) != n or len(ins) != n:
            self.err(ktok, f"{kind.value} gate has arity {n}, got "
                           f"{len(outs)} outputs and {len(ins)} inputs")
            return
        for tok in ins:
            if tok.text not in self.defs:
                self.err(tok, f"gate input {tok.text!r} is not defined by any "
                              "earlier input/const/gate statement")
            self.consume(tok, tok.text)
        for tok in outs:
            self.define(tok, tok.text)
        self.gates.append(GateInstance(kind,
                                       tuple(t.text for t in ins),
                                       tuple(t.text for t in outs)))

    def _stmt_output(self, toks):
        if len(toks) < 2:
            self.err(toks[0], "expected: output <name>=<id> ...")
        for tok in toks[1:]:
            m = _OUTPUT_RE.fullmatch(tok.text)
            if not m:
                self.err(tok, f"malformed output {tok.text!r} "
                              "(expected <name>=<id>)")
                continue
            name, lid = m.group(1), m.group(2)
            if name in self.out_names:
                prev = self.out_names[name]
                self.err(tok, f"output name {name!r} redeclared "
                              f"(first at {prev.line}:{prev.col})")
                continue
            self.out_names[name] = tok
            self.outputs.append((name, lid))
            self.consume(tok, lid)

    def _stmt_garbage(self, toks):
        if len(toks) < 2:
            self.err(toks[0], "expected: garbage <id> ...")
        for tok in toks[1:]:
            self.garbage.append(tok.text)
            self.consume(tok, tok.text)


def parse_netlist(text: str) -> Netlist:
    """Parse a netlist document; raises :class:`NetlistParseError` carrying
    a positioned diagnostic for every problem in the text or, when the text
    has none, for every violation :func:`validate` finds."""
    return _Parser(text).parse()


def _wrapped(keyword: str, items: list[str]) -> list[str]:
    return [f"{keyword} {' '.join(items[i:i + _WRAP])}"
            for i in range(0, len(items), _WRAP)]


def serialize(net: Netlist) -> str:
    """Canonical text form; byte-stable for a given netlist."""
    lines = [f"netlist {net.name}", f"version {FORMAT_VERSION}"]
    lines += _wrapped("input", list(net.inputs))
    lines += _wrapped("const", [f"{lid}={val}" for lid, val in net.constants])
    for g in net.gates:
        lines.append(f"gate {g.kind.value} {' '.join(g.outputs)} "
                     f"<- {' '.join(g.inputs)}")
    lines += _wrapped("output", [f"{name}={lid}" for name, lid in net.outputs])
    lines += _wrapped("garbage", list(net.garbage))
    return "\n".join(lines) + "\n"
