"""Regression report against the published comparison table.

Builds the five designs, computes their metrics, and prints them next to the
published reference values.  The five reference-only rows (IG- and FRG-based
adders that this package does not construct) are judged on the hardware cost
that the cost ledger gives their published gate multiset.  Each row is
compared once, and both renderings read that comparison; the 16-bit adder's
published alpha term is the one known discrepancy (the published figure is
not additive over the design's own four blocks).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import builders
from .gates import CostVector, ledger_cost
from .netlist import MetricsReport, metrics


@dataclass(frozen=True)
class PublishedRow:
    key: str
    label: str
    gates: dict[str, int]       # published gate multiset
    cost: CostVector            # published hardware complexity
    constants: int
    garbage: int
    builder: str | None = None  # design name when this package builds it


# Verbatim reference values; never recomputed.
PUBLISHED_ROWS: tuple[PublishedRow, ...] = (
    PublishedRow("ftfa_mig", "1-bit FTFA", {"MIG": 2},
                 CostVector(6, 4, 2), 2, 3, builder="fa"),
    PublishedRow("ftfa_ig", "1-bit FTFA (IG)", {"IG": 2},
                 CostVector(8, 6, 2), 2, 3),
    PublishedRow("ftfa_frg", "1-bit FTFA (FRG)", {"FRG": 4},
                 CostVector(8, 16, 4), 2, 3),
    PublishedRow("rca4_mig", "4-bit RCA", {"MIG": 8},
                 CostVector(24, 16, 8), 8, 12, builder="rca:4"),
    PublishedRow("rca4_ig", "4-bit RCA (IG)", {"IG": 8},
                 CostVector(32, 24, 8), 8, 12),
    PublishedRow("rca4_frg", "4-bit RCA (FRG)", {"FRG": 16},
                 CostVector(32, 64, 16), 8, 12),
    PublishedRow("cla2", "2-bit CLA", {"MIG": 4, "F2G": 10, "NFT": 5},
                 CostVector(47, 23, 9), 26, 28, builder="cla2"),
    PublishedRow("csa4", "4-bit CSA", {"MIG": 8, "NFT": 4, "F2G": 2},
                 CostVector(40, 28, 12), 15, 19, builder="csa4"),
    PublishedRow("csa4_frg", "4-bit CSA (FRG, with fanout)", {"FRG": 20},
                 CostVector(40, 80, 20), 11, 16),
    PublishedRow("hsa16", "16-bit HSA", {"MIG": 32, "NFT": 16, "F2G": 8},
                 CostVector(320, 112, 48), 60, 76, builder="hsa16"),
)


def _compared():
    """Each row, its computed metrics (a reference-only row's are its
    published ones, costed by the ledger) and the fields that disagree."""
    for row in PUBLISHED_ROWS:
        if row.builder is None:
            m = MetricsReport(row.gates, sum(row.gates.values()),
                              ledger_cost(row.gates), row.constants,
                              row.garbage)
        else:
            m = metrics(builders.build_design(row.builder))
        pairs = {"gates": (m.gate_count_by_kind, row.gates),
                 "cost": (m.cost, row.cost),
                 "constant_inputs": (m.constant_inputs, row.constants),
                 "garbage_outputs": (m.garbage_outputs, row.garbage)}
        yield row, m, [name for name, (got, want) in pairs.items()
                       if got != want]


def build_table1() -> list[dict]:
    """One record per row: published values, computed values, mismatches."""
    return [{"key": row.key, "label": row.label,
             "published": {"gates": dict(row.gates),
                           "total_gates": sum(row.gates.values()),
                           "cost": row.cost.to_dict(),
                           "constant_inputs": row.constants,
                           "garbage_outputs": row.garbage},
             **({"computed": {"cost": m.cost.to_dict()},
                 "reference_only": True} if row.builder is None
                else {"computed": m.to_dict()}),
             "mismatches": mismatches}
            for row, m, mismatches in _compared()]


_KIND_ORDER = ("MIG", "IG", "FRG", "NFT", "F2G", "PG", "TG", "FG")


def gates_str(gates: dict[str, int]) -> str:
    """Gate multiset in canonical kind order, e.g. ``8 MIG+4 NFT+2 F2G``."""
    tags = sorted(gates, key=_KIND_ORDER.index)
    return "+".join(f"{gates[tag]} {tag}" for tag in tags)


def emit_table1(fmt: str = "text") -> str:
    """Render the comparison report as aligned text or a JSON document."""
    if fmt == "json":
        return json.dumps({"rows": build_table1()}, indent=2)
    if fmt != "text":
        raise ValueError(f"unknown report format {fmt!r}")
    rows = [("design", "gates", "cost", "const", "garb", "status")]
    notes = []
    for row, m, mismatches in _compared():
        status = "reference" if row.builder is None else "ok"
        if mismatches:
            status = "MISMATCH: " + ",".join(mismatches)
        for name in mismatches:
            if name == "cost":
                notes.append(f"{row.label}: computed cost {m.cost.pretty()} "
                             f"vs published {row.cost.pretty()}")
            else:
                notes.append(f"{row.label}: computed {name} differs from "
                             "published value")
        rows.append((row.label,
                     f"{m.total_gates} ({gates_str(m.gate_count_by_kind)})",
                     m.cost.pretty(), str(m.constant_inputs),
                     str(m.garbage_outputs), status))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    out = ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip()
           for r in rows]
    if notes:
        out.append("")
        out.extend(f"note: {n}" for n in notes)
    return "\n".join(out) + "\n"
