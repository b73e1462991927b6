"""Single-signal fault injection and parity-based detection.

A fault site is one line together with a model (flip, stuck-at-0,
stuck-at-1).  The fault transform applies after the line's source produces
its value and before any sink consumes it; boundary faults hit primary
inputs and constants right after assignment.

In a fanout-free circuit built only from parity-preserving gates, a flipped
signal feeds at most one gate, which conserves parity, so an odd number of
its outputs flip; the oddness walks to the boundary and the output-side
parity no longer matches the input side.  Campaigns measure exactly that,
and additionally count how often the fault would be visible to an observer
who can see only the named primary outputs (garbage lines unobservable).
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from .gates import parity
from .netlist import (EXHAUSTIVE_LIMIT, Netlist, NetlistError, SimResult,
                      WidthLimitError, _simulate_vector, evaluate_lines,
                      validate, variable_masks)

FAULT_MODELS = ("flip", "sa0", "sa1")


@dataclass(frozen=True)
class FaultSite:
    """One faulted line under one fault model (single-fault assumption)."""

    line: str
    model: str = "flip"

    def __post_init__(self):
        if self.model not in FAULT_MODELS:
            raise ValueError(f"unknown fault model {self.model!r}; "
                             f"expected one of {FAULT_MODELS}")


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
        d = {
            "circuit": self.circuit,
            "model": self.model,
            "sites_total": self.sites_total,
            "vectors_per_site": self.vectors_per_site,
            "detected": self.detected,
            "undetected_but_silent": self.undetected_but_silent,
            "undetected_and_corrupting": self.undetected_and_corrupting,
            "coverage": self.coverage,
            "primary_only_detected": self.primary_only_detected,
            "primary_only_missed": self.primary_only_missed,
        }
        if self.seed is not None:
            d["seed"] = self.seed
        return d


def enumerate_fault_sites(net: Netlist, model: str = "flip") -> list[FaultSite]:
    """One site per line (boundary and internal), in source order."""
    _valid(net)
    return [FaultSite(lid, model) for lid in net.all_lines()]


def _valid(net: Netlist):
    problems = validate(net)
    if problems:
        raise NetlistError(f"netlist {net.name!r} is not valid: "
                           + "; ".join(map(str, problems)))


def simulate_with_fault(net: Netlist, fault: FaultSite, bits) -> SimResult:
    """Like simulate, with the faulted line transformed in flight."""
    _valid(net)
    if fault.line not in set(net.all_lines()):
        raise KeyError(f"unknown line id {fault.line!r}")
    return _simulate_vector(net, bits, fault)


def parity_detects(net: Netlist, fault_free_inputs, observed) -> bool:
    """Parity alarm: input-side parity (inputs plus declared constants)
    differs from the observed boundary parity (outputs plus garbage).

    Meaningful as a fault detector only for circuits built from
    parity-preserving kinds, where a fault-free run never alarms.
    """
    pin = parity(fault_free_inputs) ^ parity(pol for _, pol in net.constants)
    return pin != parity(observed)


def _sampled_input_masks(net: Netlist, samples: int, seed: int,
                         site_index: int) -> list[int]:
    """Deterministic per-site vector stream keyed by (seed, site index);
    bit v of each mask belongs to vector index v."""
    rng = Random(f"{seed}/{site_index}")
    return [rng.getrandbits(samples) for _ in net.inputs]


def run_campaign(net: Netlist, model: str = "flip", samples: int | None = None,
                 seed: int | None = None,
                 limit: int = EXHAUSTIVE_LIMIT) -> CampaignReport:
    """Inject every fault site over exhaustive or sampled input vectors.

    ``samples=None`` enumerates all primary-input vectors (refused above
    ``limit`` bits).  Sampled mode requires a seed so reports reproduce.
    """
    _valid(net)
    if model not in FAULT_MODELS:
        raise ValueError(f"unknown fault model {model!r}")
    n = len(net.inputs)
    if samples is None:
        if n > limit:
            raise WidthLimitError(
                f"netlist {net.name!r} has {n} primary inputs; exhaustive "
                f"campaigns are limited to {limit} (use sampled mode)")
        nvec = 1 << n
    else:
        if seed is None:
            raise ValueError("sampled campaigns require a seed "
                             "(reports must be reproducible)")
        if samples < 1:
            raise ValueError("sample count must be positive")
        nvec = samples
    one = (1 << nvec) - 1

    sites = enumerate_fault_sites(net, model)
    boundary = [lid for _, lid in net.outputs] + list(net.garbage)
    primary = [lid for _, lid in net.outputs]

    def parity_in(masks) -> int:
        pin = 0
        for m in masks:
            pin ^= m
        for _, pol in net.constants:
            pin ^= one if pol else 0
        return pin

    detected = silent = corrupting = 0
    prim_seen = prim_missed = 0
    if samples is None:
        shared_masks = variable_masks(n)
        shared_base = evaluate_lines(net, shared_masks, one)
        shared_pin = parity_in(shared_masks)
    for idx, site in enumerate(sites):
        if samples is None:
            masks, base, pin = shared_masks, shared_base, shared_pin
        else:
            masks = _sampled_input_masks(net, nvec, seed, idx)
            base = evaluate_lines(net, masks, one)
            pin = parity_in(masks)
        faulted = evaluate_lines(net, masks, one, fault=site)
        pout = 0
        diff = 0
        for lid in boundary:
            pout ^= faulted[lid]
            diff |= faulted[lid] ^ base[lid]
        alarm = pin ^ pout
        detected += alarm.bit_count()
        quiet = one & ~alarm
        silent += (quiet & ~diff).bit_count()
        corrupting += (quiet & diff).bit_count()
        pdiff = 0
        for lid in primary:
            pdiff |= faulted[lid] ^ base[lid]
        prim_seen += pdiff.bit_count()
        prim_missed += (one & ~pdiff).bit_count()

    judged = detected + corrupting
    coverage = 1.0 if judged == 0 else detected / judged
    return CampaignReport(net.name, model, len(sites), nvec, detected,
                          silent, corrupting, coverage,
                          prim_seen, prim_missed, seed=seed)
