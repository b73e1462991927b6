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
batch.  A batch's word is capped at ``WORD_BITS`` bits, which bounds the
memory of wide exhaustive campaigns; above the cap a batch holds one site.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from random import Random

from .gates import parity
from .netlist import (FAULT_TRANSFORMS, Netlist, SimResult, _check_valid,
                      _fault_transform, _input_parity, _simulate_vector,
                      _vector_count, evaluate_lines, variable_masks)

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
    observation policy where only named primary outputs are visible.
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
    differs from the observed boundary parity (outputs plus garbage).

    Meaningful as a fault detector only for circuits built from
    parity-preserving kinds, where a fault-free run never alarms.
    """
    return _input_parity(net, fault_free_inputs, 1) != parity(observed)


def _sampled_input_masks(net: Netlist, samples: int, seed: int,
                         site_index: int) -> list[int]:
    """Deterministic per-site vector stream keyed by (seed, site index);
    bit v of each mask belongs to vector index v."""
    rng = Random(f"{seed}/{site_index}")
    return [rng.getrandbits(samples) for _ in net.inputs]


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
    reproduce; site i draws its vectors from its own stream keyed by
    ``(seed, i)``.  Only a sampled report carries the seed, since an
    exhaustive run draws nothing from it.

    Sites run in batches of ``max(1, WORD_BITS // slot)``, where a slot is
    ``nvec`` rounded up to whole bytes (layout in the module docstring).
    Per batch there is one faulted evaluation, plus one fault-free one in
    sampled mode, of which only the boundary words are kept; in exhaustive
    mode every site shares the vectors, so the fault-free run is made once
    over 2^n bits and its inputs and boundary values are tiled across the
    slots (one slot's bytes repeated) once per batch size.
    """
    _check_valid(net)
    _fault_transform(model)
    if samples is not None and seed is None:
        raise ValueError("sampled campaigns require a seed "
                         "(reports must be reproducible)")
    nvec = _vector_count(net, samples)
    one = (1 << nvec) - 1
    nbytes = (nvec + 7) // 8
    slot = 8 * nbytes
    per_batch = max(1, WORD_BITS // slot)

    lines = net.all_lines()
    boundary = [lid for _, lid in net.outputs] + list(net.garbage)
    primary = [lid for _, lid in net.outputs]

    if samples is None:
        shared_masks = variable_masks(len(net.inputs))
        shared_base = evaluate_lines(net, shared_masks, one)
        tiled = {}  # batch size -> (masks, ones, base, input parity)

    detected = silent = corrupting = 0
    prim_seen = prim_missed = 0
    for start in range(0, len(lines), per_batch):
        batch = lines[start:start + per_batch]
        k = len(batch)
        if samples is None:
            if k not in tiled:
                masks = [_tile(m, k, nbytes) for m in shared_masks]
                ones = _tile(one, k, nbytes)
                base = {lid: _tile(shared_base[lid], k, nbytes)
                        for lid in boundary}
                tiled[k] = masks, ones, base, _input_parity(net, masks, ones)
            masks, ones, base, pin = tiled[k]
        else:
            streams = [_sampled_input_masks(net, nvec, seed, start + j)
                       for j in range(k)]
            masks = [_pack(column, nbytes) for column in zip(*streams)]
            ones = _tile(one, k, nbytes)
            values = evaluate_lines(net, masks, ones)
            base = {lid: values[lid] for lid in boundary}
            del values  # keep no inner line's word through the faulted run
            pin = _input_parity(net, masks, ones)
        fault = {lid: (model, one << (slot * j))
                 for j, lid in enumerate(batch)}
        faulted = evaluate_lines(net, masks, ones, fault)
        pout = 0
        diff = 0
        for lid in boundary:
            pout ^= faulted[lid]
            diff |= faulted[lid] ^ base[lid]
        alarm = pin ^ pout
        detected += alarm.bit_count()
        quiet = ones & ~alarm
        silent += (quiet & ~diff).bit_count()
        corrupting += (quiet & diff).bit_count()
        pdiff = 0
        for lid in primary:
            pdiff |= faulted[lid] ^ base[lid]
        prim_seen += pdiff.bit_count()
        prim_missed += (ones & ~pdiff).bit_count()
        del faulted  # nor every line's faulted word through the next batch

    judged = detected + corrupting
    coverage = 1.0 if judged == 0 else detected / judged
    return CampaignReport(net.name, model, len(lines), nvec, detected,
                          silent, corrupting, coverage,
                          prim_seen, prim_missed,
                          seed=None if samples is None else seed)
