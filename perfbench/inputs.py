"""Seeded input generation: random parity-preserving netlists and operands.

Everything here is derived from one ``random.Random`` seeded with a string,
so the same seed gives byte-identical netlist files, argv lists, operands
and campaign seeds on every run and every platform.
"""

from __future__ import annotations

import hashlib


def grow_netlist(revadd, rng, name, n_inputs, n_consts, n_gates, n_outputs):
    """Grow a fanout-free netlist from ``PARITY_PRESERVING_KINDS`` with
    ``NetlistBuilder``.

    A pool holds the lines no gate consumes yet.  Each step picks a kind
    and distinct pool lines for its inputs; the gate's outputs replace them
    in the pool, so the boundary width stays ``n_inputs + n_consts``.  The
    first ``n_outputs`` pool lines (in pool order) become named outputs and
    the rest garbage.
    """
    kinds = sorted(revadd.PARITY_PRESERVING_KINDS, key=lambda k: k.value)
    nb = revadd.NetlistBuilder(name)
    pool = [nb.input(f"x{i}") for i in range(n_inputs)]
    pool += [nb.const(f"k{i}", rng.randrange(2)) for i in range(n_consts)]
    for gi in range(n_gates):
        kind = rng.choice(kinds)
        picks = rng.sample(range(len(pool)), revadd.ARITY[kind])
        outs = nb.gate(kind, [pool[i] for i in picks],
                       [f"g{gi}_{j}" for j in range(len(picks))])
        for i in sorted(picks, reverse=True):
            pool.pop(i)
        pool.extend(outs)
    return nb.finish([(f"Y{j}", lid)
                      for j, lid in enumerate(pool[:n_outputs])])


def operands(rng, width):
    """Random (A, B, carry-in) for a ``width``-bit adder."""
    return rng.getrandbits(width), rng.getrandbits(width), rng.getrandbits(1)


def campaign_seed(rng):
    return rng.randrange(1, 2 ** 31)


class InputLog:
    """Digest of everything handed to the program: file bytes and argv,
    with the run's work directory replaced by a placeholder."""

    def __init__(self, workdir):
        self._workdir = workdir
        self._h = hashlib.sha256()

    def file(self, name, text):
        self._h.update(f"file {name} {len(text)}\n".encode())
        self._h.update(text.encode("ascii"))

    def args(self, argv):
        shown = [a.replace(self._workdir, "<work>") for a in argv]
        self._h.update(("argv " + "\x1f".join(shown) + "\n").encode())

    def value(self, label, obj):
        self._h.update(f"{label} {obj!r}\n".encode())

    def hexdigest(self):
        return self._h.hexdigest()
