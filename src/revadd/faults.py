"""Single-signal fault injection and parity-based detection.

A fault site is one line together with a model (flip, stuck-at-0,
stuck-at-1: the keys of ``revadd.netlist.FAULT_TRANSFORMS``).  The fault
transform applies after the line's source produces its value and before
any sink consumes it; boundary faults hit primary inputs and constants
right after assignment.

In a fanout-free circuit built only from parity-preserving gates, a flipped
signal feeds at most one gate, which conserves parity, so an odd number of
its outputs flip; the oddness walks to the boundary and the output-side
parity no longer matches the input side.  Campaigns measure exactly that,
and additionally count how often the fault would be visible to an observer
who can see only the named primary outputs (garbage lines unobservable).
An exhaustive campaign runs every input vector and is refused above
``revadd.netlist.EXHAUSTIVE_LIMIT`` primary inputs; a sampled campaign
draws a seeded stream of vectors per site.

Campaigns simulate many fault sites side by side (parallel fault
simulation on top of the one-bit-per-vector packing).  With ``nvec``
vectors per site, each site of a batch owns a slot of ``ceil(nvec/8)``
bytes of one wide word: site j's vectors sit at bit ``8*ceil(nvec/8)*j``
upward.  The bits between slots are 0 in the inputs and in the all-ones
word, and every gate keeps them 0.  The faulted run gives each site's line
the fault mask of its own slot, so one faulted evaluation covers the whole
batch; one clean evaluation of the same words is its reference, and
``revadd.netlist._alarm`` its parity alarm.  A batch's word is capped at
``WORD_BITS`` bits, which bounds the memory of wide exhaustive campaigns;
above the cap a batch holds one site.  A short last batch runs at full
width too, but only its own slots are counted.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import reduce
from operator import or_, xor

from .netlist import (FAULT_TRANSFORMS, Netlist, SimResult, _alarm, _boundary,
                      _check_valid, _fault_transform, _simulate_vector,
                      _vector_count, _vectors, evaluate_lines)

FAULT_MODELS = tuple(FAULT_TRANSFORMS)
WORD_BITS = 1 << 16  # widest word a campaign batch packs its sites into


@dataclass(frozen=True)
class FaultSite:
    """One faulted line under one fault model (single-fault assumption)."""

    line: str
    model: str = "flip"

    def __post_init__(self):
        _fault_transform(self.model)


@dataclass(frozen=True)
class CampaignReport:
    """Aggregate detection results over sites x vectors.

    ``detected`` counts runs where boundary parity (outputs plus garbage)
    disagreed with input parity; ``undetected_but_silent`` runs where the
    fault changed no boundary line at all; ``undetected_and_corrupting``
    runs where some boundary line changed yet parity still matched.
    ``primary_only_detected``/``primary_only_missed`` report the stricter
    observation policy where only named primary outputs are visible.  Each
    policy partitions the ``sites_total * vectors_per_site`` runs:
    detected + silent + corrupting and primary-only detected + missed both
    sum to it.
    """

    circuit: str
    model: str
    sites_total: int
    vectors_per_site: int
    detected: int
    undetected_but_silent: int
    undetected_and_corrupting: int
    coverage: float
    primary_only_detected: int
    primary_only_missed: int
    seed: int | None = None

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.seed is None:
            del d["seed"]
        return d


def enumerate_fault_sites(net: Netlist, model: str = "flip") -> list[FaultSite]:
    """One site per line (boundary and internal), in source order."""
    _check_valid(net)
    return [FaultSite(lid, model) for lid in net.all_lines()]


def simulate_with_fault(net: Netlist, fault: FaultSite, bits) -> SimResult:
    """Like simulate, with the faulted line transformed in flight."""
    _check_valid(net)
    if fault.line not in net._program.slot:
        raise KeyError(f"unknown line id {fault.line!r}")
    return _simulate_vector(net, bits, {fault.line: (fault.model, 1)})


def parity_detects(net: Netlist, fault_free_inputs, observed) -> bool:
    """Parity alarm: input-side parity (inputs plus declared constants)
    differs from the observed boundary parity (outputs plus garbage): the
    one-vector :func:`revadd.netlist._alarm`.

    Meaningful as a fault detector only for circuits built from
    parity-preserving kinds, where a fault-free run never alarms.
    """
    return bool(_alarm(net, fault_free_inputs, 1, observed))


def _pack(words, nbytes: int) -> int:
    """Lay ``words`` side by side in slots of ``nbytes`` bytes, the first
    word lowest.  Each word must fit its slot; a lone word is its own
    packing."""
    if len(words) == 1:
        return words[0]
    return int.from_bytes(b"".join(w.to_bytes(nbytes, "little")
                                   for w in words), "little")


def _tile(word: int, k: int, nbytes: int) -> int:
    """``_pack([word] * k, nbytes)`` by repeating one slot's bytes."""
    return int.from_bytes(word.to_bytes(nbytes, "little") * k, "little")


def run_campaign(net: Netlist, model: str = "flip", samples: int | None = None,
                 seed: int | None = None) -> CampaignReport:
    """Inject every fault site over exhaustive or sampled input vectors.

    ``samples=None`` enumerates all primary-input vectors (refused above
    ``EXHAUSTIVE_LIMIT`` inputs).  Sampled mode requires a seed so reports
    reproduce; site i draws its vectors from its own stream
    ``Random(f"{seed}/{i}")``.  Only a sampled report carries the seed,
    since an exhaustive run draws nothing from it.  A netlist with no lines
    is refused in either mode, since it has no fault site to inject.

    Sites run in batches of ``max(1, WORD_BITS // slot)``, where a slot is
    ``nvec`` rounded up to whole bytes (layout in the module docstring).
    Each batch has one faulted pass and one clean pass at the width of a
    full batch, of which only the boundary words and the input parity
    (``_alarm``) are kept.  Sampled batches pack their sites' own streams
    and make their own clean pass; exhaustive sites share the enumeration,
    so it is tiled across the slots and its clean pass made once and
    reused.  A batch's alarm is counted under ``live``, the all-ones word
    of its own slots, narrower than ``ones`` only for a short last batch:
    a circuit that does not preserve parity can raise its alarm in an empty
    slot, but an empty slot carries no fault, so it never differs from the
    clean pass.  A batch counts its alarms, its quiet runs that change the
    boundary and its runs that change a primary output; silent and
    primary-only missed runs are their complements over all runs.
    """
    _check_valid(net)
    _fault_transform(model)
    nvec = _vector_count(net, samples)
    lines = net.all_lines()
    if not lines:  # a campaign over no sites would check nothing
        raise ValueError(f"netlist {net.name!r} has no lines, so a campaign "
                         "has no fault site to inject")
    one = (1 << nvec) - 1
    nbytes = (nvec + 7) // 8
    slot = 8 * nbytes
    per_batch = max(1, WORD_BITS // slot)

    nout = len(net.outputs)
    width = min(per_batch, len(lines))
    live = ones = _tile(one, width, nbytes)
    if samples is None:  # every batch shares the vectors: one clean pass
        masks = [_tile(m, width, nbytes) for m in _vectors(net)[0]]
        base = _boundary(net, evaluate_lines(net, masks, ones))
        pin = _alarm(net, masks, ones, ())

    detected = corrupting = prim_seen = 0
    for start in range(0, len(lines), per_batch):
        batch = lines[start:start + per_batch]
        if samples is not None:
            streams = [_vectors(net, samples, seed, start + j)[0]
                       for j in range(len(batch))]
            masks = [_pack(column, nbytes) for column in zip(*streams)]
            base = _boundary(net, evaluate_lines(net, masks, ones))
            pin = _alarm(net, masks, ones, ())
        if len(batch) < width:  # a short last batch counts its own slots
            live = _tile(one, len(batch), nbytes)
        fault = {lid: (model, one << (slot * j))
                 for j, lid in enumerate(batch)}
        faulted = _boundary(net, evaluate_lines(net, masks, ones, fault))
        alarm = reduce(xor, faulted, pin) & live
        changed = list(map(xor, faulted, base))
        pdiff = reduce(or_, changed[:nout], 0)
        diff = reduce(or_, changed[nout:], pdiff)
        detected += alarm.bit_count()
        corrupting += (diff & ~alarm).bit_count()
        prim_seen += pdiff.bit_count()

    runs = len(lines) * nvec
    judged = detected + corrupting
    coverage = 1.0 if judged == 0 else detected / judged
    return CampaignReport(net.name, model, len(lines), nvec, detected,
                          runs - judged, corrupting, coverage,
                          prim_seen, runs - prim_seen,
                          seed=None if samples is None else seed)
