"""Command-line interface: build, simulate, verify, measure, fault-inject.

Designs are addressed by name (fa, rca:<n>, cla2, csa4, hsa16) or by a
netlist file path.  Multi-bit operands on the command line expand
little-endian across indexed input lines, e.g. ``--inputs
A=0x00FF,B=0x0001,Cin=0`` assigns bit i of A to line ``a<i>``.

Exit codes: 0 success / all checks pass, 1 violations or fault coverage
below 1.0, 2 usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from . import builders
from .faults import FAULT_MODELS, run_campaign
from .netlist import (Netlist, WidthLimitError, _exhaustive_verdicts,
                      _sampled_parity, metrics, simulate, validate)
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


def _operand_groups(line_ids: list[str]) -> dict[str, list[tuple[int, str]]]:
    """Group line ids into named operands: ``a0..a3`` -> operand ``a``;
    an unindexed id like ``cin`` is a 1-bit operand of its own.

    Operand names match case-insensitively, so the ids of one operand must
    spell its name alike (``cin`` with ``Cin`` is refused), and a multi-bit
    operand's indices must be exactly ``0..w-1`` (``a0`` with ``a2`` is
    refused); a lone id keeps its index (``C2``).
    """
    groups: dict[str, list[tuple[int, str]]] = {}
    for lid in line_ids:
        m = re.fullmatch(r"([A-Za-z_]+?)(\d+)?", lid)
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
    return groups


def _sample_count(text: str) -> int:
    """argparse type for ``--samples``: a check over no vectors checks
    nothing, so counts below 1 are usage errors."""
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if count < 1:
        raise argparse.ArgumentTypeError(
            f"sample count must be positive, got {count}")
    return count


def _parse_value(text: str) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise UsageError(f"cannot parse value {text!r} "
                         "(use decimal, 0x hex or 0b binary)")


def _assign_inputs(net: Netlist, assignments: str) -> list[int]:
    groups = _operand_groups(net.inputs)
    values: dict[str, int] = {}
    for part in assignments.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise UsageError(f"malformed input assignment {part!r} "
                             "(expected name=value)")
        name, _, raw = part.partition("=")
        key = name.strip().lower()
        if key not in groups:
            raise UsageError(f"unknown operand {name!r}; this netlist has: "
                             f"{', '.join(sorted(groups))}")
        if key in values:
            raise UsageError(f"operand {name!r} assigned twice")
        values[key] = _parse_value(raw.strip())
    missing = sorted(set(groups) - set(values))
    if missing:
        raise UsageError(f"missing operand value(s): {', '.join(missing)}")
    bits = {}
    for key, val in values.items():
        width = len(groups[key])
        if not 0 <= val < (1 << width):
            raise UsageError(f"operand {key!r} value {val} does not fit in "
                             f"{width} bit(s)")
        for pos, (_, lid) in enumerate(groups[key]):
            bits[lid] = (val >> pos) & 1
    return [bits[lid] for lid in net.inputs]


def _format_outputs(net: Netlist, result) -> list[str]:
    groups = _operand_groups([name for name, _ in net.outputs])
    lines = []
    for key, members in groups.items():
        val = 0
        for pos, (_, name) in enumerate(members):
            val |= result.outputs[name] << pos
        width = len(members)
        shown = members[0][1] if width == 1 else key.upper()
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
    print(f"garbage = {''.join(str(b) for b in result.garbage)}")
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
        par = _sampled_parity(net, args.samples, args.seed)
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
    if args.samples is not None and args.seed is None:
        raise UsageError("--samples requires --seed (reports must be "
                         "reproducible)")
    try:
        report = run_campaign(net, model=args.model, samples=args.samples,
                              seed=args.seed)
    except WidthLimitError as exc:
        raise UsageError(f"{exc}: --samples N --seed S")
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        for key, val in report.to_dict().items():
            print(f"{key}: {val}")
    clean = (report.coverage == 1.0
             and report.undetected_and_corrupting == 0)
    return 0 if clean else 1


def _cmd_table1(args) -> int:
    fmt = "json" if args.json else "text"
    sys.stdout.write(emit_table1(fmt))
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """Nothing changes the parser once it is built, and building it costs
    more than a small request, so main builds it once per process."""
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
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--seed", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_faults)

    p = sub.add_parser("table1",
                       help="computed vs published comparison table")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_table1)
    return ap


def main(argv=None) -> int:
    ap = _parser()
    try:
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
