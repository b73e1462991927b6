"""Acceptance suite: the eight exit criteria, one test each.

Every criterion is exact (integer equality / boolean); the two large runs
additionally assert their runtime budgets.  Run with ``pytest -s`` to see
the per-criterion PASS lines.
"""

import time
from random import Random

import numpy as np
import pytest

from helpers import check_adder_exhaustive
from revadd import (GateInstance, GateKind, Netlist, build_cla2, build_csa4,
                    build_design, build_full_adder, build_hsa16, build_rca,
                    gate_cost, gate_truth_table, is_parity_preserving_gate,
                    is_reversible_gate, metrics, parse_netlist, run_campaign,
                    serialize, truth_table, validate)
from revadd.netlist import evaluate_lines


def report(criterion: str, ok: bool):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, criterion


def test_criterion_1_gate_suite():
    """Bijectivity, exact parity partition, IG/MIG extensional equality."""
    bijective = all(is_reversible_gate(k) for k in GateKind)
    preserving = {k for k in GateKind if is_parity_preserving_gate(k)}
    partition = preserving == {GateKind.FRG, GateKind.F2G, GateKind.NFT,
                               GateKind.IG, GateKind.MIG}
    ig_mig = gate_truth_table(GateKind.IG) == gate_truth_table(GateKind.MIG)
    report("1 gate suite", bijective and partition and ig_mig)


def test_criterion_2_arithmetic_oracles():
    """Exhaustive addition for fa/rca4/cla2/csa4; 1e6+ vectors for hsa16."""
    t0 = time.monotonic()
    ok = True
    ok &= check_adder_exhaustive(build_full_adder(), 1) == 8
    ok &= check_adder_exhaustive(build_rca(4), 4) == 512
    ok &= check_adder_exhaustive(build_cla2(), 2) == 32
    ok &= check_adder_exhaustive(build_csa4(), 4) == 512

    net = build_hsa16()
    nvec = 1_000_000
    rng = Random(2024)
    masks = [rng.getrandbits(nvec) for _ in range(33)]
    # structured edge vectors appended on top of the random block
    edges = [0x0000, 0xFFFF, 0xAAAA, 0x5555] + [1 << k for k in range(16)]
    extra = [(a, b, c) for a in edges for b in edges for c in (0, 1)]
    for j, (a, b, c) in enumerate(extra):
        pos = nvec + j
        for i in range(16):
            masks[i] |= ((a >> i) & 1) << pos
            masks[16 + i] |= ((b >> i) & 1) << pos
        masks[32] |= c << pos
    nvec += len(extra)
    values = dict(zip(net.all_lines(),
                      evaluate_lines(net, masks, (1 << nvec) - 1)))

    def unpack(mask):
        raw = mask.to_bytes((nvec + 7) // 8, "little")
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8),
                             bitorder="little")[:nvec]
        return bits.astype(np.uint64)

    a_val = sum(unpack(masks[i]) << np.uint64(i) for i in range(16))
    b_val = sum(unpack(masks[16 + i]) << np.uint64(i) for i in range(16))
    cin = unpack(masks[32])
    s_val = sum(unpack(values[lid]) << np.uint64(i)
                for i, (_, lid) in enumerate(net.outputs[:16]))
    cout = unpack(values[net.outputs[16][1]])
    ok &= bool(np.all(s_val + (cout << np.uint64(16)) == a_val + b_val + cin))
    elapsed = time.monotonic() - t0
    ok &= elapsed < 30.0
    print(f"\n  hsa16 oracle: {nvec} vectors in {elapsed:.1f}s")
    report("2 arithmetic oracles", ok)


EXPECTED = {
    "fa": ({"MIG": 2}, 2, (6, 4, 2), 2, 3),
    "rca:4": ({"MIG": 8}, 8, (24, 16, 8), 8, 12),
    "cla2": ({"MIG": 4, "F2G": 10, "NFT": 5}, 19, (47, 23, 9), 26, 28),
    "csa4": ({"MIG": 8, "NFT": 4, "F2G": 2}, 14, (40, 28, 12), 15, 19),
    "hsa16": ({"MIG": 32, "NFT": 16, "F2G": 8}, 56, (160, 112, 48), 60, 76),
}


def test_criterion_3_published_table_reproduction():
    """Computed metrics equal the published values; the 16-bit adder's
    published alpha is the documented inconsistency (non-additive)."""
    ok = True
    for design, (gates, total, cost, consts, garb) in EXPECTED.items():
        m = metrics(build_design(design))
        ok &= m.gate_count_by_kind == gates
        ok &= m.total_gates == total
        ok &= m.cost.as_tuple() == cost
        ok &= m.constant_inputs == consts
        ok &= m.garbage_outputs == garb
    hsa = metrics(build_hsa16())
    ok &= hsa.cost.as_tuple() == (160, 112, 48)
    ok &= hsa.cost.alpha != 320  # published alpha disagrees with additivity
    report("3 published-table reproduction", ok)


def test_criterion_4_reference_row_fidelity():
    """Reference rows follow from the cost ledger arithmetic alone."""
    ig, frg = gate_cost(GateKind.IG), gate_cost(GateKind.FRG)
    ok = (2 * ig).as_tuple() == (8, 6, 2)
    ok &= (4 * frg).as_tuple() == (8, 16, 4)
    ok &= (8 * ig).as_tuple() == (32, 24, 8)
    ok &= (16 * frg).as_tuple() == (32, 64, 16)
    ok &= (20 * frg).as_tuple() == (40, 80, 20)
    report("4 reference-row fidelity", ok)


def test_criterion_5_fault_claim():
    """Single-flip campaigns: full coverage, zero corrupting-undetected."""
    t0 = time.monotonic()
    ok = True
    for build in (build_full_adder, build_cla2, build_csa4):
        r = run_campaign(build(), "flip")
        ok &= r.coverage == 1.0 and r.undetected_and_corrupting == 0
    hsa = build_hsa16()
    sites = len(hsa.all_lines())
    per_site = -(-100_000 // sites)  # at least 1e5 site-vector pairs
    r = run_campaign(hsa, "flip", samples=per_site, seed=1)
    ok &= r.sites_total * r.vectors_per_site >= 100_000
    ok &= r.undetected_and_corrupting == 0 and r.coverage == 1.0
    elapsed = time.monotonic() - t0
    ok &= elapsed < 60.0
    print(f"\n  hsa16 campaign: {r.sites_total}x{r.vectors_per_site} "
          f"runs in {elapsed:.1f}s")
    report("5 fault claim", ok)


def test_criterion_6_full_adder_minimality():
    """Exactly two constants and three garbage lines."""
    fa = build_full_adder()
    report("6 full-adder minimality",
           len(fa.constants) == 2 and len(fa.garbage) == 3)


def test_criterion_7_structural_suite():
    """Builders validate clean; synthetic defects carry the right category."""
    ok = all(validate(build_design(d)) == [] for d in EXPECTED)

    fan = Netlist("fan", ["a"], [("k0", 0), ("k1", 0)],
                  [GateInstance(GateKind.F2G, ("a", "k0", "k1"),
                                ("x", "y", "z")),
                   GateInstance(GateKind.F2G, ("x", "x", "y"),
                                ("u", "v", "w"))],
                  [("O", "u")], ["z", "v", "w"])
    ok &= "fanout" in {v.category for v in validate(fan)}

    # a boundary-width mismatch is reported through its per-line cause
    skew = Netlist("skew", ["a", "b", "c"], [], [],
                   [("O0", "a"), ("O1", "b")], [])
    ok &= {v.category for v in validate(skew)} == {"dangling"}

    arity = Netlist("arity", ["a", "b"], [("k0", 0)],
                    [GateInstance(GateKind.MIG, ("a", "b", "k0"),
                                  ("w", "x", "y", "z"))],
                    [("O", "w")], ["x", "y", "z"])
    ok &= "width" in {v.category for v in validate(arity)}
    report("7 structural suite", ok)


def test_criterion_8_round_trip():
    """parse(serialize()) identity plus byte-stable serialization."""
    ok = True
    for design in EXPECTED:
        net = build_design(design)
        text = serialize(net)
        back = parse_netlist(text)
        ok &= metrics(back) == metrics(net)
        ok &= serialize(back) == text == serialize(build_design(design))
        if len(net.inputs) <= 9:
            ok &= truth_table(back) == truth_table(net)
    report("8 round trip", ok)


if __name__ == "__main__":
    pytest.main([__file__, "-v", "-s"])
