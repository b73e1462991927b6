"""Independent checks of every request's output.

Expected values come from integer addition, from the published composition
of each design, from the cost ledger, and from the paper's two circuit
properties (reversibility and parity preservation), never from the code
under test.  Each check returns ``None`` when the output is right and a
short message when it is not.
"""

from __future__ import annotations

import hashlib
import json
import re

# Published gate multiset, constant inputs and garbage outputs per design.
DESIGN_FACTS = {
    "fa": ({"MIG": 2}, 2, 3),
    "cla2": ({"MIG": 4, "F2G": 10, "NFT": 5}, 26, 28),
    "csa4": ({"MIG": 8, "NFT": 4, "F2G": 2}, 15, 19),
    "hsa16": ({"MIG": 32, "NFT": 16, "F2G": 8}, 60, 76),
}
ADDER_WIDTH = {"fa": 1, "cla2": 2, "csa4": 4, "hsa16": 16}
LEDGER = {"FG": (1, 0, 0), "TG": (1, 1, 0), "PG": (2, 1, 0),
          "FRG": (2, 4, 1), "F2G": (2, 0, 0), "NFT": (3, 3, 1),
          "IG": (4, 3, 1), "MIG": (3, 2, 1)}

# Reference gate equations on single bits, for spot checks of truth tables.
REF_GATES = {
    "F2G": lambda a, b, c: (a, a ^ b, a ^ c),
    "FRG": lambda a, b, c: (a, c if a else b, b if a else c),
    "NFT": lambda a, b, c: (a ^ b, ((1 - b) & c) ^ (a & (1 - c)),
                            (b & c) ^ (a & (1 - c))),
    "MIG": lambda a, b, c, d: (a, a ^ b, (a & b) ^ c, (a & (1 - b)) ^ d),
    "IG": lambda a, b, c, d: (a, a ^ b, (a & b) ^ c,
                              (b & d) ^ ((1 - b) & (a ^ d))),
}

CAMPAIGN_KEYS = ("circuit", "model", "sites_total", "vectors_per_site",
                 "detected", "undetected_but_silent",
                 "undetected_and_corrupting", "coverage",
                 "primary_only_detected", "primary_only_missed")


def design_facts(design):
    """(gate multiset, constants, garbage) of a design."""
    m = re.fullmatch(r"rca:(\d+)", design)
    if m:
        n = int(m.group(1))
        return {"MIG": 2 * n}, 2 * n, 3 * n
    return DESIGN_FACTS[design]


def adder_width(design):
    m = re.fullmatch(r"rca:(\d+)", design)
    return int(m.group(1)) if m else ADDER_WIDTH[design]


def ledger_cost(gates):
    cost = [0, 0, 0]
    for kind, count in gates.items():
        for i, v in enumerate(LEDGER[kind]):
            cost[i] += v * count
    return {"alpha": cost[0], "beta": cost[1], "delta": cost[2]}


def parity(bits):
    p = 0
    for b in bits:
        p ^= b
    return p


def _exit_ok(result):
    rc, _, err = result
    if rc != 0:
        return f"exit code {rc}: {err.strip()[:200]}"
    return None


def check_sim(result, a, b, cin, width):
    """``sim`` prints the sum word, the carry and the garbage bits."""
    bad = _exit_ok(result)
    if bad:
        return bad
    shown = {}
    for line in result[1].splitlines():
        name, sep, value = line.partition(" = ")
        if sep:
            shown[name] = value
    try:
        total = int(shown.get("S", shown.get("Sum")).split()[0], 0)
        carry = int(shown.get("Cout", shown.get("C2")), 0)
    except (AttributeError, TypeError, ValueError):
        return f"unreadable sim output {result[1]!r}"
    if "garbage" not in shown:
        return "sim printed no garbage line"
    if total + (carry << width) != a + b + cin:
        return f"sim gave {total}+carry {carry}, expected {a}+{b}+{cin}"
    return None


def check_verify(result, n_inputs):
    bad = _exit_ok(result)
    if bad:
        return bad
    want = ["validate: ok",
            f"reversible: True (exhaustive over 2^{n_inputs} vectors)",
            "parity-preserving: True (exhaustive)"]
    if result[1].splitlines() != want:
        return f"verify printed {result[1]!r}"
    return None


def check_campaign(result, circuit, model, sites, vectors, seed=None):
    """``faults --json``: full coverage, no corrupting escapes, and counts
    that add up to sites x vectors; every flip is detected outright."""
    bad = _exit_ok(result)
    if bad:
        return bad
    try:
        rep = json.loads(result[1])
    except ValueError:
        return f"faults printed no JSON: {result[1][:200]!r}"
    if any(k not in rep for k in CAMPAIGN_KEYS):
        return f"campaign report lacks keys: {sorted(rep)}"
    total = sites * vectors
    runs = (rep["detected"] + rep["undetected_but_silent"]
            + rep["undetected_and_corrupting"])
    problems = []
    if (rep["circuit"], rep["model"]) != (circuit, model):
        problems.append(f"circuit/model {rep['circuit']}/{rep['model']}")
    if (rep["sites_total"], rep["vectors_per_site"]) != (sites, vectors):
        problems.append(f"{rep['sites_total']} sites x "
                        f"{rep['vectors_per_site']} vectors")
    if runs != total:
        problems.append(f"outcomes sum to {runs}, not {total}")
    if rep["primary_only_detected"] + rep["primary_only_missed"] != total:
        problems.append("primary-only counts do not sum to the total")
    if rep["coverage"] != 1.0 or rep["undetected_and_corrupting"] != 0:
        problems.append(f"coverage {rep['coverage']}, "
                        f"{rep['undetected_and_corrupting']} corrupting")
    if model == "flip" and rep["detected"] != total:
        problems.append(f"only {rep['detected']} of {total} flips detected")
    if seed is not None and rep.get("seed") != seed:
        problems.append(f"seed {rep.get('seed')} echoed, not {seed}")
    return "; ".join(problems) or None


def campaign_digest(result):
    rep = json.loads(result[1])
    stats = {k: rep[k] for k in CAMPAIGN_KEYS + ("seed",) if k in rep}
    return json.dumps(stats, sort_keys=True)


def check_build(result, name, n_gates, parse, serialize):
    """``build`` text re-parses and re-serializes byte-identically."""
    bad = _exit_ok(result)
    if bad:
        return bad
    text = result[1]
    if not text.startswith(f"netlist {name}\n"):
        return f"build emitted header {text.splitlines()[:1]}"
    if sum(1 for ln in text.splitlines() if ln.startswith("gate ")) != n_gates:
        return f"build emitted a gate count other than {n_gates}"
    if serialize(parse(text)) != text:
        return "build output does not round-trip byte-identically"
    return None


def check_metrics(result, gates, consts, garbage):
    bad = _exit_ok(result)
    if bad:
        return bad
    try:
        got = json.loads(result[1])
    except ValueError:
        return f"metrics printed no JSON: {result[1][:200]!r}"
    want = {"gate_count_by_kind": gates, "total_gates": sum(gates.values()),
            "cost": ledger_cost(gates), "constant_inputs": consts,
            "garbage_outputs": garbage}
    if got != want:
        return f"metrics {got} != {want}"
    return None


def check_table1(result, as_json):
    """Only the documented 16-bit alpha row is flagged."""
    bad = _exit_ok(result)
    if bad:
        return bad
    text = result[1]
    if as_json:
        rows = json.loads(text)["rows"]
        flagged = [(r["key"], r["mismatches"]) for r in rows
                   if r["mismatches"]]
        if len(rows) != 10 or flagged != [("hsa16", ["cost"])]:
            return f"table1 flags {flagged} over {len(rows)} rows"
        return None
    flagged = [ln for ln in text.splitlines() if "MISMATCH" in ln]
    if (len(flagged) != 1 or not flagged[0].startswith("16-bit HSA")
            or not flagged[0].endswith("MISMATCH: cost")):
        return f"table1 flags {flagged}"
    if "published 320α+112β+48δ" not in text:
        return "table1 lacks the 16-bit alpha note"
    return None


def check_fault_sim(result, bits, const_parity, n_outputs, n_garbage):
    """One flipped line: boundary parity must disagree (the paper's claim)."""
    outs = tuple(result.outputs.values())
    if len(outs) != n_outputs or len(result.garbage) != n_garbage:
        return f"{len(outs)} outputs and {len(result.garbage)} garbage bits"
    if parity(bits) ^ const_parity == parity(outs) ^ parity(result.garbage):
        return "flipped line escaped the parity check"
    return None


def check_truth_table(rows, n_inputs, const_parity, weights=None, spot=()):
    """Rows enumerate inputs in order, conserve boundary parity and are
    pairwise distinct (reversible).  ``weights`` gives each input's weight
    in a + b + cin for the addition oracle (the outputs read as one
    little-endian word); ``spot`` lists (row, expected outs+garbage) pairs
    from the reference gate equations."""
    total = 1 << n_inputs
    if len(rows) != total:
        return f"{len(rows)} rows, expected {total}"
    images = set()
    for v, (ins, outs, garb) in enumerate(rows):
        if ins != tuple((v >> i) & 1 for i in range(n_inputs)):
            return f"row {v} has inputs {ins}"
        if parity(ins) ^ const_parity != parity(outs) ^ parity(garb):
            return f"row {v} breaks parity"
        images.add(outs + garb)
        if weights is not None:
            expect = sum(w for w, bit in zip(weights, ins) if bit)
            got = sum(bit << j for j, bit in enumerate(outs))
            if got != expect:
                return f"row {v}: sum {got}, expected {expect}"
    if len(images) != total:
        return "boundary map is not injective"
    for v, image in spot:
        if rows[v][1] + rows[v][2] != image:
            return f"row {v} differs from the reference evaluation"
    return None


def truth_table_digest(rows):
    h = hashlib.sha256()
    for ins, outs, garb in rows:
        h.update(bytes(ins + outs + garb))
        h.update(b"\n")
    return h.hexdigest()


def reference_row(net_gates, inputs, constants, outputs, garbage, v):
    """Evaluate one input vector with ``REF_GATES`` (outputs + garbage)."""
    val = {lid: (v >> i) & 1 for i, lid in enumerate(inputs)}
    val.update(constants)
    for kind, ins, outs in net_gates:
        for lid, bit in zip(outs, REF_GATES[kind](*(val[x] for x in ins))):
            val[lid] = bit
    return tuple(val[lid] for lid in list(outputs) + list(garbage))


def adder_weights(input_ids):
    """Weight of each primary input in a + b + cin (a0/a, b0/b, cin)."""
    weights = []
    for lid in input_ids:
        m = re.fullmatch(r"([ab])(\d*)", lid)
        if m:
            weights.append(1 << int(m.group(2) or 0))
        elif lid == "cin":
            weights.append(1)
        else:
            raise ValueError(f"not an adder input: {lid!r}")
    return weights
