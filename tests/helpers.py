"""Shared test utilities: bit packing, oracles, and small fixture netlists."""

from random import Random

from revadd import (ARITY, PARITY_PRESERVING_KINDS, CampaignReport,
                    GateInstance, GateKind, Netlist, NetlistBuilder,
                    Violation, truth_table)
from revadd.gates import EVAL
from revadd.netlist import FAULT_TRANSFORMS, variable_masks


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
    the hash seed).  It knows no duplicate-output-name check."""
    v: list[Violation] = []
    defined: set[str] = set()

    def define(lid: str, what: str):
        if lid in defined:
            v.append(Violation("role", f"line {lid!r} defined more than once "
                               f"(redefined as {what})", (lid,)))
        defined.add(lid)

    for lid in net.inputs:
        define(lid, "input")
    for lid, val in net.constants:
        define(lid, "constant")
        if val not in (0, 1):
            v.append(Violation("role", f"constant {lid!r} has polarity {val!r}",
                               (lid,)))

    sinks: dict[str, list[str]] = {}
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
            sinks.setdefault(lid, []).append(f"gate {idx} ({g.kind.value})")
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
        both = sorted(out_set & set(net.garbage))
        v.append(Violation("role", f"lines declared both output and garbage: "
                           f"{', '.join(both)}", tuple(both)))
    if net.boundary_in_width() != net.boundary_out_width():
        v.append(Violation(
            "width", f"boundary width mismatch: {net.boundary_in_width()} "
            f"inputs+constants vs {net.boundary_out_width()} outputs+garbage"))
    return v


def reference_evaluate_lines(net: Netlist, input_masks, one: int,
                             fault=None) -> dict:
    """Dict-based oracle for :func:`revadd.netlist.evaluate_lines`: looks
    every gate input up by line id, and applies a faulted line's transform
    right after its source assigns it."""
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
    """Per-vector oracle for :func:`revadd.truth_table`: reads bit v out of
    every packed mask with a shift, one vector at a time (quadratic)."""
    n, total, out_masks, garb_masks = _exhaustive_masks(net)
    rows = []
    for v in range(total):
        ins = tuple((v >> i) & 1 for i in range(n))
        outs = tuple((m >> v) & 1 for m in out_masks)
        garb = tuple((m >> v) & 1 for m in garb_masks)
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
    Returns the report as a dict."""
    n = len(net.inputs)
    nvec = 1 << n if samples is None else samples
    one = (1 << nvec) - 1
    lines = net.all_lines()
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
