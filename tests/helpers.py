"""Shared test utilities: bit packing, oracles, and small fixture netlists."""

import re
import sys
from random import Random
from typing import NamedTuple

from revadd import (ARITY, PARITY_PRESERVING_KINDS, CampaignReport,
                    GateInstance, GateKind, Netlist, NetlistBuilder,
                    Violation, cli, truth_table)
from revadd.gates import EVAL
from revadd.netlist import FAULT_TRANSFORMS, variable_masks, validate
from revadd.textfmt import FORMAT_VERSION, Diagnostic, NetlistParseError


def int_to_bits(value: int, width: int) -> list[int]:
    return [(value >> i) & 1 for i in range(width)]


def bits_to_int(bits) -> int:
    return sum(b << i for i, b in enumerate(bits))


def operand_vector(a: int, b: int, cin: int, width: int) -> list[int]:
    """Primary-input assignment for the adder builders (a bits, b bits, cin)."""
    return int_to_bits(a, width) + int_to_bits(b, width) + [cin]


def check_adder_exhaustive(net: Netlist, width: int) -> int:
    """Compare every truth-table row against integer addition; returns the
    number of rows checked."""
    rows = truth_table(net)
    assert len(rows) == 1 << (2 * width + 1)
    for ins, outs, _garb in rows:
        a = bits_to_int(ins[:width])
        b = bits_to_int(ins[width:2 * width])
        cin = ins[2 * width]
        s = bits_to_int(outs[:width])
        cout = outs[width]
        assert s + (cout << width) == a + b + cin, (
            f"{net.name}: {a}+{b}+{cin} gave sum={s} cout={cout}")
    return len(rows)


def passthrough(k: int, name: str = "wires") -> Netlist:
    """Zero-gate netlist: k inputs wired straight to k named outputs."""
    inputs = [f"w{i}" for i in range(k)]
    outputs = [(f"O{i}", f"w{i}") for i in range(k)]
    return Netlist(name, inputs, [], [], outputs, [])


def pg_full_adder() -> Netlist:
    """Twin-Peres full adder: correct arithmetic, but not parity-preserving.

    Useful as the counterexample circuit for fault-detection tests.
    """
    pg = GateKind.PG
    gates = [
        GateInstance(pg, ("a", "b", "k0"), ("at", "p", "g")),
        GateInstance(pg, ("p", "cin", "g"), ("pt", "s", "c")),
    ]
    return Netlist("pgfa", ["a", "b", "cin"], [("k0", 0)], gates,
                   [("Sum", "s"), ("Cout", "c")], ["at", "pt"])


def random_fanout_free(rng, name: str, inputs: int, constants: int,
                       max_gates: int, named: str = "some",
                       kinds=PARITY_PRESERVING_KINDS) -> Netlist:
    """Random fanout-free netlist grown from ``kinds`` with
    :class:`NetlistBuilder`.  ``named`` picks which unconsumed lines become
    named outputs: ``"all"`` (no garbage), ``"none"`` (no named outputs) or
    ``"some"`` (a random subset); the rest are garbage."""
    kinds = sorted(kinds, key=lambda k: k.value)
    nb = NetlistBuilder(name)
    free = [nb.input(f"i{j}") for j in range(inputs)]
    free += [nb.const(f"k{j}", rng.randint(0, 1)) for j in range(constants)]
    for gi in range(rng.randint(1, max_gates)):
        kind = rng.choice(kinds)
        width = ARITY[kind]
        if len(free) < width:
            break
        ins = [free.pop(rng.randrange(len(free))) for _ in range(width)]
        free.extend(nb.gate(kind, ins, [f"g{gi}_{p}" for p in range(width)]))
    if named == "all":
        chosen = free
    elif named == "none":
        chosen = []
    else:
        chosen = [lid for lid in free if rng.random() < 0.5]
    return nb.finish([(f"O{j}", lid) for j, lid in enumerate(chosen)])


def reference_validate(net: Netlist) -> list[Violation]:
    """Set-based oracle for :func:`revadd.validate`: a string description
    per sink, and "has no sink" violations in ``set`` order (which follows
    the hash seed).  It knows no duplicate-output-name check.  Ids and
    names the text format cannot read back are matched with this module's
    own patterns, as :func:`reference_parse_netlist` reads them."""
    v: list[Violation] = []
    defined: set[str] = set()
    first_defined: list[str] = []

    def define(lid: str, what: str):
        if lid in defined:
            v.append(Violation("role", f"line {lid!r} defined more than once "
                               f"(redefined as {what})", (lid,)))
        else:
            first_defined.append(lid)
        defined.add(lid)

    for lid in net.inputs:
        define(lid, "input")
    for lid, val in net.constants:
        define(lid, "constant")
        if type(val) is not int or val not in (0, 1):
            v.append(Violation("role", f"constant {lid!r} has polarity {val!r}",
                               (lid,)))

    sinks: dict[str, list[str]] = {}
    for idx, g in enumerate(net.gates):
        tag = g.kind.value
        n = ARITY[g.kind]
        if len(g.inputs) != n or len(g.outputs) != n:
            v.append(Violation(
                "width", f"gate {idx} ({tag}) has {len(g.inputs)} "
                f"inputs/{len(g.outputs)} outputs, arity is {n}",
                (*g.inputs, *g.outputs)))
        for lid in g.inputs:
            if lid not in defined:
                v.append(Violation(
                    "order", f"gate {idx} ({tag}) reads {lid!r} "
                    "before any earlier source defines it", (lid,)))
            sinks.setdefault(lid, []).append(f"gate {idx} ({tag})")
        for lid in g.outputs:
            define(lid, f"gate {idx} output")

    for name, lid in net.outputs:
        if lid not in defined:
            v.append(Violation("dangling", f"output {name} references "
                               f"undefined line {lid!r}", (lid,)))
        sinks.setdefault(lid, []).append(f"output {name}")
    for lid in net.garbage:
        if lid not in defined:
            v.append(Violation("dangling", "garbage references undefined "
                               f"line {lid!r}", (lid,)))
        sinks.setdefault(lid, []).append("garbage")

    for lid, where in sinks.items():
        if len(where) > 1:
            v.append(Violation("fanout", f"line {lid!r} feeds {len(where)} "
                               f"sinks: {', '.join(where)}", (lid,)))
    for lid in defined:
        if lid not in sinks:
            v.append(Violation("dangling", f"line {lid!r} has no sink; it must "
                               "be consumed, a primary output, or garbage",
                               (lid,)))

    out_set = {lid for _, lid in net.outputs}
    if out_set & set(net.garbage):
        both = sorted(out_set & set(net.garbage), key=str)
        v.append(Violation("role", f"lines declared both output and garbage: "
                           f"{', '.join(map(str, both))}", tuple(both)))

    for lid in first_defined:
        if not _ID_RE.fullmatch(lid):
            v.append(Violation("role", f"invalid line id {lid!r}", (lid,)))
    named = [("netlist", net.name, ())]
    named += [("output", name, (lid,)) for name, lid in net.outputs]
    for what, name, lines in named:
        if not _NAME_RE.fullmatch(name):
            v.append(Violation("role", f"{what} name {name!r} is empty or "
                               "holds whitespace or '#'", lines))
    return v


def reference_evaluate_lines(net: Netlist, input_masks, one: int,
                             fault=None) -> dict:
    """Dict-based oracle for :func:`revadd.netlist.evaluate_lines`: looks
    every gate input up by line id, and applies a faulted line's transform
    right after its source assigns it.  Every model of ``fault`` is checked
    first, also one on an id the netlist lacks."""
    for model, _ in (fault or {}).values():
        if model not in FAULT_TRANSFORMS:
            raise ValueError(f"unknown fault model {model!r}; expected one "
                             f"of {tuple(FAULT_TRANSFORMS)}")
    values = dict(zip(net.inputs, input_masks))
    for lid, pol in net.constants:
        values[lid] = one if pol else 0
    if fault:
        for lid in fault.keys() & values.keys():
            model, mask = fault[lid]
            values[lid] = FAULT_TRANSFORMS[model](values[lid], mask)
    for g in net.gates:
        outs = EVAL[g.kind](tuple(values[lid] for lid in g.inputs), one)
        values.update(zip(g.outputs, outs))
        if fault:
            for lid in g.outputs:
                if lid in fault:
                    model, mask = fault[lid]
                    values[lid] = FAULT_TRANSFORMS[model](values[lid], mask)
    return values


def _exhaustive_masks(net: Netlist):
    n = len(net.inputs)
    total = 1 << n
    values = reference_evaluate_lines(net, variable_masks(n),
                                      (1 << total) - 1)
    out_masks = [values[lid] for _, lid in net.outputs]
    garb_masks = [values[lid] for lid in net.garbage]
    return n, total, out_masks, garb_masks


def reference_truth_table(net: Netlist):
    """Per-vector oracle for :func:`revadd.truth_table`: reads bit v of
    every packed mask as bit ``v % 8`` of byte ``v // 8`` of its
    little-endian bytes, one vector at a time.  A shift would copy the mask
    per vector, which makes 2^16 and 2^17 rows take seconds."""
    n, total, out_masks, garb_masks = _exhaustive_masks(net)
    size = (total + 7) // 8
    out_bytes = [m.to_bytes(size, "little") for m in out_masks]
    garb_bytes = [m.to_bytes(size, "little") for m in garb_masks]
    rows = []
    for v in range(total):
        byte, bit = v >> 3, v & 7
        ins = tuple((v >> i) & 1 for i in range(n))
        outs = tuple((b[byte] >> bit) & 1 for b in out_bytes)
        garb = tuple((b[byte] >> bit) & 1 for b in garb_bytes)
        rows.append((ins, outs, garb))
    return rows


def reference_is_reversible(net: Netlist) -> bool:
    """Per-vector oracle for :func:`revadd.is_reversible_circuit`: packs each
    vector's boundary image into an int and stops at the first repeat."""
    _, total, out_masks, garb_masks = _exhaustive_masks(net)
    masks = out_masks + garb_masks
    seen = set()
    for v in range(total):
        image = 0
        for i, m in enumerate(masks):
            image |= ((m >> v) & 1) << i
        if image in seen:
            return False
        seen.add(image)
    return True


def reference_campaign(net: Netlist, model: str = "flip", samples=None,
                       seed=None) -> dict:
    """Per-site oracle for :func:`revadd.run_campaign`: one fault-free and
    one faulted evaluation per site, each site alone in its word, with the
    site's sampled vectors drawn from ``Random(f"{seed}/{site index}")``.
    Returns the report as a dict, and refuses a netlist without lines."""
    lines = net.all_lines()
    if not lines:
        raise ValueError(f"netlist {net.name!r} has no lines to inject")
    n = len(net.inputs)
    nvec = 1 << n if samples is None else samples
    one = (1 << nvec) - 1
    boundary = [lid for _, lid in net.outputs] + list(net.garbage)
    primary = [lid for _, lid in net.outputs]
    detected = silent = corrupting = prim_seen = prim_missed = 0
    for idx, lid in enumerate(lines):
        if samples is None:
            masks = variable_masks(n)
        else:
            rng = Random(f"{seed}/{idx}")
            masks = [rng.getrandbits(nvec) for _ in net.inputs]
        base = reference_evaluate_lines(net, masks, one)
        faulted = reference_evaluate_lines(net, masks, one,
                                           {lid: (model, one)})
        pin = 0
        for m in masks:
            pin ^= m
        for _, pol in net.constants:
            pin ^= one if pol else 0
        pout = diff = pdiff = 0
        for b in boundary:
            pout ^= faulted[b]
            diff |= faulted[b] ^ base[b]
        for p in primary:
            pdiff |= faulted[p] ^ base[p]
        alarm = pin ^ pout
        quiet = one & ~alarm
        detected += alarm.bit_count()
        silent += (quiet & ~diff).bit_count()
        corrupting += (quiet & diff).bit_count()
        prim_seen += pdiff.bit_count()
        prim_missed += (one & ~pdiff).bit_count()
    judged = detected + corrupting
    coverage = 1.0 if judged == 0 else detected / judged
    return CampaignReport(net.name, model, len(lines), nvec, detected, silent,
                          corrupting, coverage, prim_seen, prim_missed,
                          seed=seed).to_dict()


class _Token(NamedTuple):
    text: str
    line: int
    col: int


_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*")
_TOKEN_RE = re.compile(r"\S+")
_CONST_RE = re.compile(r"(.+)=([01])")
_OUTPUT_RE = re.compile(r"(.+)=(.+)")
_NAME_RE = re.compile(r"[^\s#]+")  # one token, no comment


def _tokenize(text: str) -> list[list[_Token]]:
    rows = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        if raw.endswith("\r"):
            raw = raw[:-1]
        body = raw.split("#", 1)[0]
        toks = [
            _Token(m.group(0), lineno, m.start() + 1)
            for m in _TOKEN_RE.finditer(body)
        ]
        if toks:
            rows.append(toks)
    return rows


class _ReferenceParser:
    """Token-object parser: every token carries its own line and column."""

    def __init__(self, text: str):
        self.rows = _tokenize(text)
        self.diags: list[Diagnostic] = []
        self.name: str | None = None
        self.header: _Token | None = None
        self.version: _Token | None = None
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
        if self.version is None:
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
        if self.version is not None:
            self.err(toks[0], "version header redeclared (first at "
                              f"{self.version.line}:{self.version.col})")
            return
        self.version = toks[0]
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


def reference_parse_netlist(text: str) -> Netlist:
    """Token-object oracle for :func:`revadd.parse_netlist`: tokenizes every
    line up front into ``(text, line, column)`` tuples and reads positions
    off them, where the parser keeps word references and finds a column
    only for a diagnostic."""
    return _ReferenceParser(text).parse()


def reference_main(argv) -> int:
    """Oracle for :func:`revadd.cli.main`: every request goes through the
    top-level parser, which hands a command's arguments to its subcommand
    parser, and the command then runs under main's exception handling."""
    ap, _ = cli._parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except cli.UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NetlistParseError as exc:
        print(f"parse error(s):\n{exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
