"""Command-line interface: build, simulate, verify, measure, fault-inject.

Designs are addressed by name (fa, rca:<n>, cla2, csa4, hsa16) or by a
netlist file path.  Multi-bit operands on the command line expand
little-endian across indexed input lines, e.g. ``--inputs
A=0x00FF,B=0x0001,Cin=0`` assigns bit i of A to line ``a<i>``.

Exit codes: 0 success / all checks pass, 1 violations or fault coverage
below 1.0, 2 usage errors.

A command is parsed by its own subcommand parser; the top-level parser runs
only for help and usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from types import MappingProxyType

from . import builders
from .faults import FAULT_MODELS, run_campaign
from .netlist import (Netlist, WidthLimitError, _exhaustive_verdicts, _parity,
                      _vector_count, metrics, simulate, validate)
from .report import emit_table1, gates_str
from .textfmt import NetlistParseError, parse_netlist, serialize


class UsageError(Exception):
    pass


def _load(target: str) -> Netlist:
    try:
        return builders.build_design(target)
    except KeyError:
        pass
    except ValueError as exc:  # a known design, a bad parameter: rca:99
        raise UsageError(str(exc))
    if not os.path.exists(target):
        raise UsageError(f"{target!r} is neither a known design "
                         f"({', '.join(builders.design_names())}) nor a file")
    try:
        with open(target, "r", encoding="ascii") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise UsageError(f"{target!r} is not an ASCII netlist file "
                         f"(byte 0x{exc.object[exc.start]:02X} at offset "
                         f"{exc.start})")
    except OSError as exc:
        raise UsageError(f"cannot read {target!r}: {exc.strerror}")
    return parse_netlist(text)


_OPERAND_ID = re.compile(r"([A-Za-z_]+?)(0|[1-9][0-9]*)?")


@functools.lru_cache(maxsize=64)
def _operand_groups(line_ids: tuple[str, ...]
                    ) -> MappingProxyType[str, tuple[str, ...]]:
    """Group line ids into named operands, each mapped to its ids from bit
    0 up: ``a0..a3`` -> operand ``a``; an unindexed id like ``cin`` is a
    1-bit operand of its own.

    Operand names match case-insensitively, so the ids of one operand must
    spell its name alike (``cin`` with ``Cin`` is refused), and a multi-bit
    operand's indices must be exactly ``0..w-1`` (``a0`` with ``a2`` is
    refused); a lone id keeps its index (``C2``).  An index is a decimal
    without leading zeros, so ``a00`` is an operand of its own.

    The groups of the last 64 id tuples are kept, as read-only mappings of
    tuples, so repeated requests on one design do not regroup its ids.  A
    refused id set raises ``UsageError`` on every call, since a raising call
    is not kept.
    """
    groups: dict[str, list[tuple[int, str]]] = {}
    for lid in line_ids:
        m = _OPERAND_ID.fullmatch(lid)
        if not m:
            groups.setdefault(lid.lower(), []).append((0, lid))
            continue
        name = m.group(1).lower()
        idx = int(m.group(2)) if m.group(2) is not None else 0
        groups.setdefault(name, []).append((idx, lid))
    for name, bits in groups.items():
        bits.sort()
        ids = ", ".join(lid for _, lid in bits)
        if len({lid[:len(name)] for _, lid in bits}) > 1:
            raise UsageError(f"ids {ids} spell operand {name!r} in "
                             "different case")
        if len(bits) > 1 and [i for i, _ in bits] != list(range(len(bits))):
            raise UsageError(f"ids {ids} do not index operand {name!r} "
                             f"as bits 0..{len(bits) - 1}")
    return MappingProxyType({name: tuple(lid for _, lid in bits)
                             for name, bits in groups.items()})


# a decimal as ``int`` reads it: sign, leading zeros, then the other digits
# (the zeros are matched lazily, so a long run of them costs linear time)
_DECIMAL = re.compile(r"\s*([+-]?)(?:0_?)*?(0|[1-9](?:_?[0-9])*)\s*")


def _read_int(text: str, base: int = 10) -> int | float:
    """``int(text, base)`` for base 10 or 0, past Python's digit limit.

    ``int`` reads no decimal of more digits than the limit (640 at the
    least), and counts leading zeros toward it.  Here such a decimal is
    read past its leading zeros (which base 0 refuses, as ``int`` does),
    and one still too long, so at least ``10**640``, is taken as infinite,
    past every range a caller accepts.
    """
    try:
        return int(text, base)
    except ValueError:
        m = _DECIMAL.fullmatch(text)
        if m is None or base == 0 and m[2] != "0" and m.start(2) > m.end(1):
            raise
        try:
            return int(m[1] + m[2])
        except ValueError:
            return float("inf")


def _option_int(text: str) -> int:
    """argparse type for ``--seed`` (and ``--samples``, through
    ``_sample_count``): ``int(text)``, but a decimal too long for ``int``
    is refused without its digits."""
    try:
        value = _read_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value == float("inf"):
        raise argparse.ArgumentTypeError(
            f"value has more than {sys.get_int_max_str_digits()} digits")
    return value


def _sample_count(text: str) -> int:
    """argparse type for ``--samples``: an integer option (``_option_int``),
    and a count that the library would refuse (below 1 or above
    ``1 << EXHAUSTIVE_LIMIT``) is a usage error with the library's
    wording."""
    try:
        return _vector_count(None, _option_int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _quote(text: str) -> str:
    """``repr(text)`` for a usage message, clipped when ``text`` is longer
    than 40 characters to the reprs of its first and last 20, joined by
    ``...``, and its length, so a message stays short whatever was
    typed."""
    if len(text) <= 40:
        return repr(text)
    return f"{text[:20]!r}...{text[-20:]!r} ({len(text):,} characters)"


def _parse_value(text: str) -> int | float:
    """The value ``text`` writes: a decimal, or an ``0x``/``0b``/``0o``
    literal (``_read_int`` in base 0).  A decimal too long for ``int`` is
    taken as infinite, which fits no operand; it is at least ``10**640``,
    so that is wrong only for an operand of more than 2,126 bits."""
    try:
        return _read_int(text, 0)
    except ValueError:
        raise UsageError(f"cannot parse value {_quote(text)} "
                         "(use decimal, 0x hex or 0b binary)")


def _assign_inputs(net: Netlist, assignments: str) -> list[int]:
    groups = _operand_groups(net.inputs)
    values: dict[str, int] = {}
    for part in assignments.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise UsageError(f"malformed input assignment {_quote(part)} "
                             "(expected name=value)")
        name, _, raw = part.partition("=")
        key = name.strip().lower()
        if key not in groups:
            raise UsageError(f"unknown operand {_quote(name)}; this netlist "
                             f"has: {', '.join(sorted(groups))}")
        if key in values:
            raise UsageError(f"operand {_quote(name)} assigned twice")
        values[key] = _parse_value(raw.strip())
    missing = sorted(set(groups) - set(values))
    if missing:
        raise UsageError(f"missing operand value(s): {', '.join(missing)}")
    bits = {}
    for key, val in values.items():
        width = len(groups[key])
        # the value is not printed: it may run to thousands of digits
        if not 0 <= val < (1 << width):
            raise UsageError(f"operand {key!r} value does not fit in "
                             f"{width} bit(s)")
        for pos, lid in enumerate(groups[key]):
            bits[lid] = (val >> pos) & 1
    return [bits[lid] for lid in net.inputs]


def _format_outputs(net: Netlist, result) -> list[str]:
    groups = _operand_groups(tuple(name for name, _ in net.outputs))
    lines = []
    for key, members in groups.items():
        val = 0
        for pos, name in enumerate(members):
            val |= result.outputs[name] << pos
        width = len(members)
        shown = members[0] if width == 1 else key.upper()
        if width > 1:
            lines.append(f"{shown} = 0x{val:0{(width + 3) // 4}X} "
                         f"(0b{val:0{width}b})")
        else:
            lines.append(f"{shown} = {val}")
    return lines


def _cmd_build(args) -> int:
    net = _load(args.design)
    text = serialize(net)
    if args.output:
        try:
            with open(args.output, "w", encoding="ascii") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {args.output!r}: {exc.strerror}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_sim(args) -> int:
    net = _load(args.design)
    bits = _assign_inputs(net, args.inputs)
    result = simulate(net, bits)
    for line in _format_outputs(net, result):
        print(line)
    print(f"garbage = {''.join(map(str, result.garbage))}")
    return 0


def _cmd_verify(args) -> int:
    net = _load(args.design)
    problems = validate(net)
    if problems:
        print(f"validate: {len(problems)} violation(s)")
        for p in problems:
            print(f"  {p}")
        return 1
    print("validate: ok")
    # one validation and one exhaustive evaluation serve both checks
    try:
        rev, par = _exhaustive_verdicts(net)
    except WidthLimitError:
        print(f"reversible: skipped ({len(net.inputs)} primary inputs "
              "exceed the exhaustive limit)")
        par = _parity(net, args.samples, args.seed)
        print(f"parity-preserving: {par} (sampled, {args.samples} vectors, "
              f"seed {args.seed})")
        return 0 if par else 1
    print(f"reversible: {rev} (exhaustive over 2^{len(net.inputs)} vectors)")
    print(f"parity-preserving: {par} (exhaustive)")
    return 0 if rev and par else 1


def _cmd_metrics(args) -> int:
    m = metrics(_load(args.design))
    if args.json:
        print(json.dumps(m.to_dict(), indent=2))
    else:
        print(f"gates: {m.total_gates} ({gates_str(m.gate_count_by_kind)})")
        print(f"cost: {m.cost.pretty()}")
        print(f"constant_inputs: {m.constant_inputs}")
        print(f"garbage_outputs: {m.garbage_outputs}")
    return 0


def _cmd_faults(args) -> int:
    net = _load(args.design)
    try:
        report = run_campaign(net, model=args.model, samples=args.samples,
                              seed=args.seed)
    except WidthLimitError as exc:
        raise UsageError(f"{exc}: --samples N --seed S")
    except ValueError as exc:  # no fault sites, or a sampled run unseeded
        raise UsageError(str(exc))
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        for key, val in report.to_dict().items():
            print(f"{key}: {val}")
    return 0 if report.undetected_and_corrupting == 0 else 1


def _cmd_table1(args) -> int:
    fmt = "json" if args.json else "text"
    sys.stdout.write(emit_table1(fmt))
    return 0


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser,
                       dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subcommand parsers by command name.

    Nothing changes the parsers once they are built, and building them
    costs more than a small request, so main builds them once per process.
    """
    ap = argparse.ArgumentParser(
        prog="revadd",
        description="parity-preserving reversible adder toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="emit a design as netlist text")
    p.add_argument("design")
    p.add_argument("-o", "--output", help="write to file instead of stdout")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("sim", help="simulate one input vector")
    p.add_argument("design")
    p.add_argument("--inputs", required=True,
                   help="e.g. A=0x00FF,B=0x0001,Cin=0 (little-endian)")
    p.set_defaults(func=_cmd_sim)

    p = sub.add_parser("verify",
                       help="validate + reversibility + parity checks")
    p.add_argument("design")
    p.add_argument("--samples", type=_sample_count, default=4096,
                   help="vectors for sampled parity check on wide netlists")
    p.add_argument("--seed", type=_option_int, default=0)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("metrics", help="gate counts, cost, constants, garbage")
    p.add_argument("design")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("faults", help="run a fault-injection campaign")
    p.add_argument("design")
    p.add_argument("--model", choices=FAULT_MODELS, default="flip")
    p.add_argument("--samples", type=_sample_count,
                   help="vectors per fault site (default: exhaustive)")
    p.add_argument("--seed", type=_option_int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_faults)

    p = sub.add_parser("table1",
                       help="computed vs published comparison table")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_table1)
    return ap, sub.choices


def main(argv=None) -> int:
    ap, commands = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = commands.get(argv[0]) if argv else None
    try:
        # the top-level parser would only hand a command's arguments to the
        # same subcommand parser; it runs for help and usage errors, so
        # their messages stay its own
        if command is None:
            args = ap.parse_args(argv)
        else:
            args, extra = command.parse_known_args(argv[1:])
            if extra:  # reported as "unrecognized arguments" by the top level
                args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NetlistParseError as exc:
        print(f"parse error(s):\n{exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
