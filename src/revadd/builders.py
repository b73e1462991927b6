"""Hand-constructed adder netlists built entirely from parity-preserving gates.

Five designs: a 1-bit full adder, n-bit ripple-carry adders, a 2-bit
carry-look-ahead adder, a 4-bit carry-skip adder, and a 16-bit high-speed
adder made of four carry-skip blocks.  Gate multisets, constant counts and
garbage counts reproduce the reference composition of each design exactly;
all multi-bit operands are little-endian (line 0 = least significant bit).

The ripple-carry, carry-skip and high-speed adders are one carry chain
(``_carry_chain``) over different cells: a full adder per bit, or a
carry-skip block per four bits.  The chain makes their shared ports and
threads the carry from each cell into the next.
"""

from __future__ import annotations

import re

from .gates import GateKind
from .netlist import Netlist, NetlistBuilder

MIG = GateKind.MIG
F2G = GateKind.F2G
NFT = GateKind.NFT
BLOCK = 4  # operand bits per carry-skip block; _csa_block builds only these


def _fa_stage(nb: NetlistBuilder, a: str, b: str, cin: str, tag: str):
    """Twin-MIG full adder cell: two constants, three boundary spares.

    Returns (sum, carry_out, p_export).  p = a^b rides unchanged through the
    second gate and is free for reuse by block-propagate logic; left alone it
    is ordinary garbage.
    """
    k0 = nb.const(f"{tag}k0", 0)
    k1 = nb.const(f"{tag}k1", 0)
    a_t, p, g, _q = nb.gate(MIG, (a, b, k0, k1),
                            (f"{tag}at", f"{tag}p", f"{tag}g", f"{tag}q"))
    p_t, s, cout, _r = nb.gate(MIG, (p, cin, g, a_t),
                               (f"{tag}pt", f"{tag}s", f"{tag}c", f"{tag}r"))
    return s, cout, p_t


def _carry_chain(name: str, width: int, step: int, cell) -> Netlist:
    """A ``width``-bit adder: a carry chain of cells of ``step`` bits each
    (``width`` a multiple of ``step``).

    The ports are the ones every multi-bit adder here shares, and that
    ``sim`` groups into operands: inputs ``a0..`` and ``b0..`` (bit 0
    first) and ``cin``; outputs ``S0..`` and ``Cout``.  ``cell(nb, a, b,
    carry, i)`` builds cell ``i`` over its ``step`` bits of each operand
    and the carry into it, and returns the cell's sums (low bit first) and
    its carry-out, which is the next cell's carry-in.
    """
    nb = NetlistBuilder(name)
    a = [nb.input(f"a{i}") for i in range(width)]
    b = [nb.input(f"b{i}") for i in range(width)]
    carry = nb.input("cin")
    sums = []
    for i, lo in enumerate(range(0, width, step)):
        s, carry = cell(nb, a[lo:lo + step], b[lo:lo + step], carry, i)
        sums += s
    return nb.finish([(f"S{i}", s) for i, s in enumerate(sums)]
                     + [("Cout", carry)])


def build_full_adder() -> Netlist:
    """1-bit full adder: 2 MIG, 2 constants, 3 garbage, outputs Sum/Cout."""
    nb = NetlistBuilder("fa")
    a = nb.input("a")
    b = nb.input("b")
    cin = nb.input("cin")
    s, cout, _ = _fa_stage(nb, a, b, cin, "")
    return nb.finish([("Sum", s), ("Cout", cout)])


def _rca_cell(nb: NetlistBuilder, a, b, carry: str, i: int):
    """Stage ``i`` of a ripple-carry adder: one full adder tagged
    ``fa{i}_``."""
    s, carry, _ = _fa_stage(nb, a[0], b[0], carry, f"fa{i}_")
    return [s], carry


def build_rca(n: int) -> Netlist:
    """n-bit ripple-carry adder: a chain of full-adder cells, each stage's
    carry-out feeding the next stage's carry-in.  2n MIG, 2n constants,
    3n garbage."""
    if not 1 <= n <= 16:
        raise ValueError("ripple width out of range 1..16")
    return _carry_chain(f"rca{n}", n, 1, _rca_cell)


def build_cla2() -> Netlist:
    """2-bit carry-look-ahead adder.

    Carries are formed in parallel from propagate/generate terms rather than
    rippled: C1 = g0 + p0*c0 and C2 = g1 + p1*g0 + p1*p0*c0.  MIG stages
    produce the p/g pairs and the sums, F2G gates replicate shared signals
    and merge the (mutually exclusive) carry terms, and NFT gates form the
    products.  Composition: 4 MIG + 10 F2G + 5 NFT, 26 constants, 28 garbage.
    """
    nb = NetlistBuilder("cla2")
    a0, a1 = nb.input("a0"), nb.input("a1")
    b0, b1 = nb.input("b0"), nb.input("b1")
    cin = nb.input("cin")
    ks = iter(range(26))

    def k() -> str:
        return nb.const(f"k{next(ks)}", 0)

    # propagate/generate stage: p_i = a_i ^ b_i, g_i = a_i & b_i
    a0t, p0, g0, q0 = nb.gate(MIG, (a0, b0, k(), k()), ("a0t", "p0", "g0", "q0"))
    a1t, p1, g1, q1 = nb.gate(MIG, (a1, b1, k(), k()), ("a1t", "p1", "g1", "q1"))

    # replication stage: three-way copies of every shared signal
    c0s, c0x, c0y = nb.gate(F2G, (cin, k(), k()), ("c0s", "c0x", "c0y"))
    p0s, p0x, p0y = nb.gate(F2G, (p0, k(), k()), ("p0s", "p0x", "p0y"))
    p1s, p1x, p1y = nb.gate(F2G, (p1, k(), k()), ("p1s", "p1x", "p1y"))
    g0c, g0x, g0sp = nb.gate(F2G, (g0, k(), k()), ("g0c", "g0x", "g0sp"))

    # look-ahead product terms
    _, _, t1 = nb.gate(NFT, (k(), p0x, c0x), ("n1a", "n1b", "t1"))  # p0*c0
    _, _, t2 = nb.gate(NFT, (k(), p1x, g0x), ("n2a", "n2b", "t2"))  # p1*g0
    _, _, pp = nb.gate(NFT, (k(), p1y, p0y), ("n3a", "n3b", "pp"))  # p1*p0
    _, _, t3 = nb.gate(NFT, (k(), pp, c0y), ("n4a", "n4b", "t3"))   # p1*p0*c0
    # g1 + p1*g0 (OR; the two terms cannot be high together)
    _, x1, _ = nb.gate(NFT, (g1, k(), t2), ("n5a", "x1", "n5c"))

    # carry merges (XOR equals OR for these disjoint terms), each carry
    # leaving the look-ahead unit through its own copy gate
    _, c1p, _ = nb.gate(F2G, (g0c, t1, k()), ("m1a", "c1p", "g0d"))
    c1, c1d, _ = nb.gate(F2G, (c1p, k(), g0sp), ("c1", "c1d", "e1"))
    _, c2p, x1d = nb.gate(F2G, (x1, t3, k()), ("m2a", "c2p", "x1d"))
    c2, _, _ = nb.gate(F2G, (c2p, k(), x1d), ("c2", "c2d", "e2"))

    # sum stage: S_i = p_i ^ carry_i
    _, s0, _, _ = nb.gate(MIG, (p0s, c0s, k(), k()), ("sm0a", "s0", "u0", "v0"))
    _, s1, _, _ = nb.gate(MIG, (p1s, c1, k(), k()), ("sm1a", "s1", "u1", "v1"))

    # spare-rail bundling: fold each bit's pass-through rails into the
    # garbage boundary (completes the reference composition)
    nb.gate(F2G, (a0t, q0, c1d), ("r0", "r1", "r2"))
    nb.gate(F2G, (a1t, q1, k()), ("r3", "r4", "r5"))
    return nb.finish([("S0", s0), ("S1", s1), ("C2", c2)])


def _csa_block(nb: NetlistBuilder, a, b, cin: str, tag: str):
    """4-bit carry-skip block: ripple core plus a skip path.

    The carry-in enters through a two-gate F2G copy chain (one branch feeds
    stage 0, one the skip multiplexer).  The block propagate
    P = p0*p1*p2*p3 is chained from the full adders' exported p signals, and
    a three-signal NFT acts as the skip multiplexer: carry-out = carry-in
    when P, the rippled carry otherwise.  Per block: 8 MIG + 4 NFT + 2 F2G,
    15 constants, 19 garbage.
    """
    cin_a, c_skip, _ = nb.gate(F2G, (cin, nb.const(f"{tag}k0", 0),
                                     nb.const(f"{tag}k1", 0)),
                               (f"{tag}ca", f"{tag}cskip", f"{tag}w1"))
    c_fa, _, _ = nb.gate(F2G, (cin_a, nb.const(f"{tag}k2", 0),
                               nb.const(f"{tag}k3", 0)),
                         (f"{tag}cb", f"{tag}w2", f"{tag}w3"))
    sums = []
    carry = c_fa
    pexp = []
    for i in range(4):
        s, carry, p = _fa_stage(nb, a[i], b[i], carry, f"{tag}fa{i}_")
        sums.append(s)
        pexp.append(p)
    _, _, m1 = nb.gate(NFT, (nb.const(f"{tag}k4", 0), pexp[0], pexp[1]),
                       (f"{tag}h1a", f"{tag}h1b", f"{tag}m1"))
    _, _, m2 = nb.gate(NFT, (nb.const(f"{tag}k5", 0), m1, pexp[2]),
                       (f"{tag}h2a", f"{tag}h2b", f"{tag}m2"))
    _, _, bp = nb.gate(NFT, (nb.const(f"{tag}k6", 0), m2, pexp[3]),
                       (f"{tag}h3a", f"{tag}h3b", f"{tag}bp"))
    # skip multiplexer: third output is bp*c_skip ^ bp'*carry
    _, _, cout = nb.gate(NFT, (carry, c_skip, bp),
                         (f"{tag}mxa", f"{tag}mxb", f"{tag}cout"))
    return sums, cout


def _carry_skip_adder(name: str, width: int) -> Netlist:
    """A chain of ``width // BLOCK`` 4-bit carry-skip blocks (``width`` a
    positive multiple of ``BLOCK``, unchecked), each block's carry-out
    wired directly as the next block's carry-in.  A lone block's line ids
    carry no prefix; block i of a longer chain prefixes its ids with
    ``b{i}_``."""
    return _carry_chain(name, width, BLOCK, lambda nb, a, b, carry, i:
                        _csa_block(nb, a, b, carry,
                                   f"b{i}_" if width > BLOCK else ""))


def build_csa4() -> Netlist:
    """4-bit carry-skip adder: 8 MIG + 4 NFT + 2 F2G, 15 constants,
    19 garbage; behavior identical to the 4-bit ripple-carry adder."""
    return _carry_skip_adder("csa4", 4)


def build_hsa16() -> Netlist:
    """16-bit high-speed adder: four 4-bit carry-skip blocks."""
    return _carry_skip_adder("hsa16", 16)


# CLI name -> builder; ``<n>`` stands for the builder's one integer argument
_DESIGNS = {
    "fa": build_full_adder,
    "rca:<n>": build_rca,
    "cla2": build_cla2,
    "csa4": build_csa4,
    "hsa16": build_hsa16,
}


def design_names() -> list[str]:
    return list(_DESIGNS)


# (builder, its argument if any) -> the netlist it built
_BUILT: dict[tuple, Netlist] = {}


def build_design(name: str) -> Netlist:
    """Build a design by CLI name: fa, rca:<n>, cla2, csa4, hsa16.

    A design is built once per process: netlists are immutable, so each
    later call returns the same instance, with its violations and slot
    program already worked out.  The key is the builder and its integer
    argument, written in ASCII digits, so ``rca:8`` and ``rca:008`` share
    one netlist; a build that raises is not kept.  ``int`` reads no
    decimal longer than Python's digit limit (640 digits at the least),
    and counts leading zeros toward it, so the zeros are dropped first and
    a still longer argument is handed to the builder as infinite, which is
    past every builder's range.
    """
    key, colon, arg = name.partition(":")
    builder = _DESIGNS.get(key + ":<n>" if colon else key)
    if builder is not None and (not colon or re.fullmatch(r"[0-9]+", arg)):
        arg = arg.lstrip("0") or "0"
        args = (int(arg) if len(arg) < 640 else float("inf"),) if colon else ()
        net = _BUILT.get((builder, *args))
        if net is None:
            net = _BUILT[(builder, *args)] = builder(*args)
        return net
    raise KeyError(f"unknown design {name!r} (expected one of: "
                   f"{', '.join(design_names())})")
