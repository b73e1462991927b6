"""Comparison-table report: published constants, ledger arithmetic, flags."""

import json
import re
from dataclasses import replace
from itertools import combinations, product

import pytest

from revadd import (CostVector, GateKind, build_table1, emit_table1,
                    ledger_cost, report)
from revadd.gates import EVAL
from revadd.netlist import variable_masks
from revadd.report import PUBLISHED_ROWS


def test_published_rows_are_fixed_constants():
    pub = {r.key: r for r in PUBLISHED_ROWS}
    assert pub["ftfa_mig"].cost == CostVector(6, 4, 2)
    assert pub["ftfa_ig"].cost == CostVector(8, 6, 2)
    assert pub["ftfa_frg"].cost == CostVector(8, 16, 4)
    assert pub["rca4_ig"].cost == CostVector(32, 24, 8)
    assert pub["rca4_frg"].cost == CostVector(32, 64, 16)
    assert pub["csa4_frg"].cost == CostVector(40, 80, 20)
    assert pub["csa4_frg"].constants == 11
    assert pub["csa4_frg"].garbage == 16
    assert pub["hsa16"].cost == CostVector(320, 112, 48)


def test_ledger_arithmetic_reproduces_reference_rows():
    assert ledger_cost({"IG": 2}) == CostVector(8, 6, 2)
    assert ledger_cost({"FRG": 4}) == CostVector(8, 16, 4)
    assert ledger_cost({"IG": 8}) == CostVector(32, 24, 8)
    assert ledger_cost({"FRG": 16}) == CostVector(32, 64, 16)
    assert ledger_cost({"FRG": 20}) == CostVector(40, 80, 20)


def test_only_hsa_cost_is_flagged():
    flagged = {r["key"]: r["mismatches"] for r in build_table1()
               if r["mismatches"]}
    assert flagged == {"hsa16": ["cost"]}


def test_report_rows_cover_all_designs():
    rows = build_table1()
    keys = [r["key"] for r in rows]
    assert keys == ["ftfa_mig", "ftfa_ig", "ftfa_frg", "rca4_mig", "rca4_ig",
                    "rca4_frg", "cla2", "csa4", "csa4_frg", "hsa16"]
    built = [r for r in rows if not r.get("reference_only")]
    assert len(built) == 5
    for rec in built:
        comp, pub = rec["computed"], rec["published"]
        assert comp["total_gates"] == pub["total_gates"]
        assert comp["constant_inputs"] == pub["constant_inputs"]
        assert comp["garbage_outputs"] == pub["garbage_outputs"]


def test_json_and_text_renderings_agree_on_flags():
    data = json.loads(emit_table1("json"))
    hsa = next(r for r in data["rows"] if r["key"] == "hsa16")
    assert hsa["mismatches"] == ["cost"]
    text = emit_table1("text")
    assert text.count("MISMATCH") == 1


def _table_with(monkeypatch, row):
    """Text and JSON renderings of a table holding only ``row``."""
    monkeypatch.setattr(report, "PUBLISHED_ROWS", (row,))
    (rec,) = json.loads(emit_table1("json"))["rows"]
    assert [rec] == build_table1()
    _, line, *notes = emit_table1("text").splitlines()
    return rec, re.split(r"\s{2,}", line), notes


@pytest.mark.parametrize("field, value, mismatch, note", [
    ("gates", {"MIG": 3}, "gates",
     "1-bit FTFA: computed gates differs from published value"),
    ("cost", CostVector(7, 4, 2), "cost",
     "1-bit FTFA: computed cost 6α+4β+2δ vs published 7α+4β+2δ"),
    ("constants", 3, "constant_inputs",
     "1-bit FTFA: computed constant_inputs differs from published value"),
    ("garbage", 4, "garbage_outputs",
     "1-bit FTFA: computed garbage_outputs differs from published value"),
])
def test_built_row_flags_each_perturbed_field(monkeypatch, field, value,
                                              mismatch, note):
    row = replace(PUBLISHED_ROWS[0], **{field: value})
    assert row.builder == "fa"
    rec, cells, notes = _table_with(monkeypatch, row)
    assert rec["mismatches"] == [mismatch]
    # the computed columns are the built design's, whatever was published
    assert cells == ["1-bit FTFA", "2 (2 MIG)", "6α+4β+2δ", "2", "3",
                     f"MISMATCH: {mismatch}"]
    assert notes == ["", f"note: {note}"]


def test_reference_row_is_judged_on_its_ledger_cost(monkeypatch):
    row = replace(PUBLISHED_ROWS[1], cost=CostVector(9, 6, 2))
    assert row.builder is None
    rec, cells, notes = _table_with(monkeypatch, row)
    assert rec["reference_only"] is True
    assert rec["mismatches"] == ["cost"]
    assert rec["computed"] == {"cost": {"alpha": 8, "beta": 6, "delta": 2}}
    assert rec["published"]["cost"] == {"alpha": 9, "beta": 6, "delta": 2}
    assert cells == ["1-bit FTFA (IG)", "2 (2 IG)", "8α+6β+2δ", "2", "3",
                     "MISMATCH: cost"]
    assert notes == ["", "note: 1-bit FTFA (IG): computed cost 8α+6β+2δ vs "
                         "published 9α+6β+2δ"]


def test_json_record_keys_keep_their_order():
    for rec in build_table1():
        tail = ["reference_only"] if rec.get("reference_only") else []
        assert list(rec) == (["key", "label", "published", "computed"]
                             + tail + ["mismatches"])


def test_text_rendering_builds_no_records(monkeypatch):
    text = emit_table1("text")
    monkeypatch.setattr(report, "build_table1", None)
    assert emit_table1("text") == text


def test_unknown_report_format_is_refused():
    with pytest.raises(ValueError, match="unknown report format 'csv'"):
        emit_table1("csv")


def test_no_fanout_free_frg_circuit_is_a_full_adder():
    # The ftfa_frg and rca4_frg rows quote 4 FRG gates and 2 constants; no
    # fanout-free placement of 1-4 FRG gates on (a, b, cin, k0, k1), under
    # any constant polarity, holds both the sum and the carry.  A state is
    # the sorted words of the five lines over all 8 vectors: every gate
    # consumes three lines and yields three, and FRG with its two targets
    # swapped yields the same lines swapped, so each control and unordered
    # target pair is one placement.
    a, b, cin = variable_masks(3)
    one = 0xFF
    total, carry = a ^ b ^ cin, (a & b) | (a & cin) | (b & cin)
    frg = EVAL[GateKind.FRG]
    reached = {"sum": False, "carry": False}
    for k0, k1 in product((0, one), repeat=2):
        level = [tuple(sorted((a, b, cin, k0, k1)))]
        seen = set(level)
        for _ in range(4):
            following = []
            for state in level:
                for c, t1, t2 in _placements(5):
                    rest = [w for i, w in enumerate(state)
                            if i not in (c, t1, t2)]
                    rest += frg((state[c], state[t1], state[t2]), one)
                    nxt = tuple(sorted(rest))
                    if nxt not in seen:
                        seen.add(nxt)
                        following.append(nxt)
            level = following
        assert not any(total in s and carry in s for s in seen)
        reached["sum"] |= any(total in s for s in seen)
        reached["carry"] |= any(carry in s for s in seen)
    # each alone is reachable, so the search is not blind to either
    assert reached == {"sum": True, "carry": True}


def _placements(n):
    """``(control, target, target)`` line indices, targets unordered."""
    return [(c, t1, t2) for c in range(n)
            for t1, t2 in combinations(range(n), 2) if c not in (t1, t2)]
