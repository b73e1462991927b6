"""Reversible gate families: bijections on bit vectors, plus a fixed cost ledger.

Eight gate kinds are supported, each evaluated from an explicit Boolean
expression rather than a stored permutation table, so the expressions below
are the single source of truth.  Truth tables, reversibility checks and
parity checks are all derived from ``eval_gate``, and so is the set of
parity-preserving kinds, ``PARITY_PRESERVING_KINDS``.

The evaluation helpers are written with bitwise operators and an explicit
all-ones word, which lets the netlist simulator run them either on single
bits or on packed bit-parallel words (one bit per test vector).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class ArityError(ValueError):
    """Input width does not match the gate's line count."""


class GateKind(Enum):
    """Tags for the eight supported reversible gate families."""

    FG = "FG"    # Feynman: controlled-NOT
    TG = "TG"    # Toffoli: doubly controlled NOT
    PG = "PG"    # Peres
    FRG = "FRG"  # Fredkin: controlled swap (conservative)
    F2G = "F2G"  # double Feynman: the fanout-free copy gate
    NFT = "NFT"  # fault-tolerant AND/OR/XOR workhorse
    IG = "IG"    # parity-preserving Peres extension
    MIG = "MIG"  # IG with the fourth output re-expressed at lower cost

    # members are singletons compared by identity, so the C-level identity
    # hash is consistent with equality and spares every ARITY/EVAL lookup
    # the Python-level Enum.__hash__
    __hash__ = object.__hash__


ARITY: dict[GateKind, int] = {
    GateKind.FG: 2,
    GateKind.TG: 3,
    GateKind.PG: 3,
    GateKind.FRG: 3,
    GateKind.F2G: 3,
    GateKind.NFT: 3,
    GateKind.IG: 4,
    GateKind.MIG: 4,
}


@dataclass(frozen=True)
class CostVector:
    """Primitive-operation counts: two-input XORs, two-input ANDs, NOTs."""

    alpha: int = 0
    beta: int = 0
    delta: int = 0

    def __add__(self, other: "CostVector") -> "CostVector":
        return CostVector(self.alpha + other.alpha,
                          self.beta + other.beta,
                          self.delta + other.delta)

    def __mul__(self, n: int) -> "CostVector":
        return CostVector(self.alpha * n, self.beta * n, self.delta * n)

    __rmul__ = __mul__

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.alpha, self.beta, self.delta)

    def to_dict(self) -> dict[str, int]:
        return {"alpha": self.alpha, "beta": self.beta, "delta": self.delta}

    def pretty(self) -> str:
        return f"{self.alpha}α+{self.beta}β+{self.delta}δ"


# Cost ledger.  One fixed vector per kind; circuit costs are sums over
# instances.  NFT is booked with a single NOT even though its expression
# holds two distinct complements (shared-inverter counting).
GATE_COST: dict[GateKind, CostVector] = {
    GateKind.FG: CostVector(1, 0, 0),
    GateKind.TG: CostVector(1, 1, 0),
    GateKind.PG: CostVector(2, 1, 0),
    GateKind.FRG: CostVector(2, 4, 1),
    GateKind.F2G: CostVector(2, 0, 0),
    GateKind.NFT: CostVector(3, 3, 1),
    GateKind.IG: CostVector(4, 3, 1),
    GateKind.MIG: CostVector(3, 2, 1),
}


def _eval_fg(v, one):
    a, b = v
    return (a, a ^ b)


def _eval_tg(v, one):
    a, b, c = v
    return (a, b, (a & b) ^ c)


def _eval_pg(v, one):
    a, b, c = v
    return (a, a ^ b, (a & b) ^ c)


def _eval_frg(v, one):
    a, b, c = v
    na = a ^ one
    return (a, (na & b) ^ (a & c), (na & c) ^ (a & b))


def _eval_f2g(v, one):
    a, b, c = v
    return (a, a ^ b, a ^ c)


def _eval_nft(v, one):
    a, b, c = v
    nb = b ^ one
    nc = c ^ one
    return (a ^ b, (nb & c) ^ (a & nc), (b & c) ^ (a & nc))


def _eval_ig(v, one):
    a, b, c, d = v
    nb = b ^ one
    return (a, a ^ b, (a & b) ^ c, (b & d) ^ (nb & (a ^ d)))


def _eval_mig(v, one):
    a, b, c, d = v
    nb = b ^ one
    return (a, a ^ b, (a & b) ^ c, (a & nb) ^ d)


EVAL = {
    GateKind.FG: _eval_fg,
    GateKind.TG: _eval_tg,
    GateKind.PG: _eval_pg,
    GateKind.FRG: _eval_frg,
    GateKind.F2G: _eval_f2g,
    GateKind.NFT: _eval_nft,
    GateKind.IG: _eval_ig,
    GateKind.MIG: _eval_mig,
}


def eval_gate(kind: GateKind, bits) -> tuple[int, ...]:
    """Apply one gate to a bit vector; position 0 is the topmost line (A).

    Raises :class:`ArityError` when the vector width differs from the
    gate's line count.
    """
    bits = tuple(bits)
    want = ARITY[kind]
    if len(bits) != want:
        raise ArityError(
            f"{kind.value} gate expects {want} lines, got {len(bits)}")
    if any(b not in (0, 1) for b in bits):
        raise ValueError(f"non-binary value in input vector {bits!r}")
    return EVAL[kind](bits, 1)


def gate_cost(kind: GateKind) -> CostVector:
    """Fixed ledger constant for one gate instance."""
    return GATE_COST[kind]


def ledger_cost(gates: dict[str, int]) -> CostVector:
    """Hardware cost of a gate multiset (kind tag -> count) straight from
    the cost ledger."""
    total = CostVector()
    for tag, count in gates.items():
        total = total + gate_cost(GateKind(tag)) * count
    return total


def parity(bits) -> int:
    """XOR-fold of a bit vector (a single bit)."""
    p = 0
    for b in bits:
        p ^= b
    return p & 1


def gate_truth_table(kind: GateKind) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All 2^arity (input, output) rows in lexicographic input order.

    Lexicographic here means counting with line 0 (A) as the most
    significant position, so FG enumerates 00, 01, 10, 11.
    """
    n = ARITY[kind]
    rows = []
    for v in range(1 << n):
        bits = tuple((v >> (n - 1 - i)) & 1 for i in range(n))
        rows.append((bits, eval_gate(kind, bits)))
    return rows


def is_reversible_gate(kind: GateKind) -> bool:
    """True iff the gate's outputs are pairwise distinct over every input."""
    outs = {row[1] for row in gate_truth_table(kind)}
    return len(outs) == (1 << ARITY[kind])


def is_parity_preserving_gate(kind: GateKind) -> bool:
    """True iff input parity equals output parity on every input vector."""
    return all(parity(i) == parity(o) for i, o in gate_truth_table(kind))


PARITY_PRESERVING_KINDS = frozenset(
    kind for kind in GateKind if is_parity_preserving_gate(kind))
