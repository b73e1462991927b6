"""Fault sites, injected simulation, parity detection, campaigns."""

from random import Random

import pytest

from helpers import (passthrough, pg_full_adder, random_fanout_free,
                     reference_campaign)
from revadd import (FaultSite, GateKind, WidthLimitError, build_cla2,
                    build_csa4, build_design, build_full_adder, build_hsa16,
                    enumerate_fault_sites, faults, netlist, parity,
                    parity_detects, parse_netlist, run_campaign, simulate,
                    simulate_with_fault, truth_table)
from revadd.faults import FAULT_MODELS, WORD_BITS

# exhaustive, one vector, and sample counts that are and are not whole bytes
SAMPLE_COUNTS = (None, 1, 7, 64, 100)
NON_PARITY_KINDS = (GateKind.FG, GateKind.TG, GateKind.PG)


def test_site_enumeration_counts():
    fa = build_full_adder()
    sites = enumerate_fault_sites(fa)
    assert len(sites) == len(fa.all_lines()) == 13  # 5 boundary-in + 8 gate outs
    assert [s.model for s in sites] == ["flip"] * 13

    assert len(enumerate_fault_sites(passthrough(4))) == 4

    csa = build_csa4()
    assert len(enumerate_fault_sites(csa)) == (
        csa.boundary_in_width() + sum(len(g.outputs) for g in csa.gates))


def test_site_enumeration_is_deterministic():
    a = enumerate_fault_sites(build_cla2())
    b = enumerate_fault_sites(build_cla2())
    assert a == b


def test_fault_site_rejects_unknown_model():
    with pytest.raises(ValueError, match="unknown fault model"):
        FaultSite("a", "burnout")


UNKNOWN_MODEL = ("unknown fault model 'bogus'; expected one of "
                 "('flip', 'sa0', 'sa1')")


@pytest.mark.parametrize("entry", [
    lambda fa: FaultSite("a", "bogus"),
    lambda fa: run_campaign(fa, "bogus"),
    lambda fa: netlist.evaluate_lines(fa, [0, 0, 0], 1, {"a": ("bogus", 1)}),
], ids=["FaultSite", "run_campaign", "evaluate_lines"])
def test_unknown_model_has_one_check_and_one_message(entry):
    with pytest.raises(ValueError) as info:
        entry(build_full_adder())
    assert str(info.value) == UNKNOWN_MODEL


def test_flipped_carry_in_behaves_as_complemented_input():
    fa = build_full_adder()
    faulted = simulate_with_fault(fa, FaultSite("cin", "flip"), (1, 1, 0))
    clean = simulate(fa, (1, 1, 1))
    assert faulted.outputs == clean.outputs == {"Sum": 1, "Cout": 1}


def test_unknown_fault_line_rejected():
    with pytest.raises(KeyError, match="unknown line id"):
        simulate_with_fault(build_full_adder(), FaultSite("zz", "flip"),
                            (0, 0, 0))


def test_simulate_with_fault_rejects_non_binary_bits():
    with pytest.raises(ValueError, match="non-binary"):
        simulate_with_fault(build_full_adder(), FaultSite("a"), (2, 0, 0))


def test_stuck_at_matching_value_is_silent():
    fa = build_full_adder()
    clean = simulate(fa, (0, 0, 0))
    stuck = simulate_with_fault(fa, FaultSite("a", "sa0"), (0, 0, 0))
    assert stuck == clean


def test_single_flip_always_skews_boundary_parity():
    fa = build_full_adder()
    for site in enumerate_fault_sites(fa):
        for ins, _, _ in truth_table(fa):
            r = simulate_with_fault(fa, site, ins)
            observed = r.output_bits + r.garbage
            assert parity_detects(fa, ins, observed), (site.line, ins)


def test_parity_detects_is_quiet_on_clean_runs():
    fa = build_full_adder()
    for ins, outs, garb in truth_table(fa):
        assert not parity_detects(fa, ins, outs + garb)


def test_two_flips_can_mask_each_other():
    fa = build_full_adder()
    ins = (1, 0, 0)
    r = simulate(fa, ins)
    observed = list(r.output_bits + r.garbage)
    observed[0] ^= 1
    observed[1] ^= 1  # second flip restores overall parity
    assert not parity_detects(fa, ins, observed)
    assert parity(observed) == parity(r.output_bits + r.garbage)


@pytest.mark.parametrize("build", [build_full_adder, build_cla2, build_csa4],
                         ids=["fa", "cla2", "csa4"])
def test_exhaustive_flip_campaign_reaches_full_coverage(build):
    net = build()
    report = run_campaign(net, "flip")
    assert report.coverage == 1.0
    assert report.undetected_and_corrupting == 0
    assert report.undetected_but_silent == 0  # a flip always changes the line
    total = report.sites_total * report.vectors_per_site
    assert (report.detected + report.undetected_but_silent
            + report.undetected_and_corrupting) == total


@pytest.mark.parametrize("model", ["sa0", "sa1"])
def test_stuck_at_campaign_classification(model):
    net = build_full_adder()
    report = run_campaign(net, model)
    total = report.sites_total * report.vectors_per_site
    assert (report.detected + report.undetected_but_silent
            + report.undetected_and_corrupting) == total
    # stuck-at is detected exactly where the stuck value differs, i.e. on
    # the flip-equivalent runs; never corrupting-undetected here
    assert report.undetected_and_corrupting == 0
    assert report.undetected_but_silent > 0
    assert report.coverage == 1.0


def test_stuck_at_detection_matches_flip_on_differing_vectors():
    net = build_full_adder()
    site_flip = FaultSite("cin", "flip")
    site_sa1 = FaultSite("cin", "sa1")
    for ins, _, _ in truth_table(net):
        sa = simulate_with_fault(net, site_sa1, ins)
        if ins[2] == 1:
            assert sa == simulate(net, ins)  # silent
        else:
            assert sa == simulate_with_fault(net, site_flip, ins)


def test_sampled_campaign_requires_seed():
    with pytest.raises(ValueError, match="require a seed"):
        run_campaign(build_full_adder(), "flip", samples=10)


def test_only_sampled_campaigns_report_their_seed():
    fa = build_full_adder()
    exhaustive = run_campaign(fa, "flip", seed=1)
    assert exhaustive.seed is None and "seed" not in exhaustive.to_dict()
    assert exhaustive == run_campaign(fa, "flip")
    assert run_campaign(fa, "flip", samples=8, seed=1).to_dict()["seed"] == 1


def test_sampled_campaign_is_deterministic():
    net = build_csa4()
    a = run_campaign(net, "flip", samples=64, seed=11)
    b = run_campaign(net, "flip", samples=64, seed=11)
    assert a == b
    assert a.vectors_per_site == 64
    assert a.coverage == 1.0 and a.undetected_and_corrupting == 0


def test_exhaustive_campaign_refuses_wide_netlists():
    with pytest.raises(WidthLimitError, match="33 primary inputs"):
        run_campaign(build_hsa16(), "flip")


def test_hsa16_sampled_campaign_clean():
    report = run_campaign(build_hsa16(), "flip", samples=16, seed=2)
    assert report.undetected_and_corrupting == 0
    assert report.coverage == 1.0


def test_non_parity_circuit_defeats_the_detector():
    # a Peres-based adder either corrupts without tripping parity or raises
    # false alarms on clean runs; that is why the preserving set matters
    net = pg_full_adder()
    report = run_campaign(net, "flip")
    false_alarm = any(
        parity_detects(net, ins, outs + garb)
        for ins, outs, garb in truth_table(net))
    assert report.undetected_and_corrupting > 0 or false_alarm


def test_primary_only_observation_is_weaker():
    # with garbage unobservable, some single faults hide in garbage cones
    net = build_cla2()
    report = run_campaign(net, "flip")
    total = report.sites_total * report.vectors_per_site
    assert report.detected == total
    assert report.primary_only_detected < total
    assert (report.primary_only_detected
            + report.primary_only_missed) == total


def test_report_dict_keys():
    report = run_campaign(build_full_adder(), "flip")
    d = report.to_dict()
    assert list(d) == ["circuit", "model", "sites_total", "vectors_per_site",
                       "detected", "undetected_but_silent",
                       "undetected_and_corrupting", "coverage",
                       "primary_only_detected", "primary_only_missed"]
    assert d["circuit"] == "fa" and d["coverage"] == 1.0


def _check_against_reference(net, sample_counts=SAMPLE_COUNTS, seed=5):
    for model in FAULT_MODELS:
        for samples in sample_counts:
            seeded = None if samples is None else seed
            got = run_campaign(net, model, samples=samples, seed=seeded)
            assert got.to_dict() == reference_campaign(
                net, model, samples, seeded), (net.name, model, samples)


@pytest.mark.parametrize("design", ["fa", "cla2", "csa4", "rca:2", "rca:3",
                                    "rca:4"])
def test_campaign_matches_per_site_reference_on_designs(design):
    _check_against_reference(build_design(design))


def test_campaign_matches_per_site_reference_on_hsa16_sampled():
    _check_against_reference(build_hsa16(), (1, 7, 64))


def test_campaign_matches_per_site_reference_on_random_netlists():
    rng = Random(2030)
    for i in range(30):
        net = random_fanout_free(rng, f"rnd{i}", rng.randint(1, 6),
                                 rng.randint(0, 3), 8,
                                 ("some", "all", "none")[i % 3])
        _check_against_reference(net)


def test_campaign_matches_per_site_reference_on_edge_netlists():
    rng = Random(7)
    no_inputs = random_fanout_free(rng, "noinputs", 0, 4, 3)
    assert not no_inputs.inputs and no_inputs.gates
    no_outputs = random_fanout_free(rng, "nooutputs", 3, 1, 4, "none")
    assert not no_outputs.outputs
    for net in (passthrough(3), no_inputs, no_outputs):
        _check_against_reference(net)


@pytest.mark.parametrize("samples", [None, 4], ids=["exhaustive", "sampled"])
def test_campaign_over_no_fault_sites_is_refused(samples):
    # a report of coverage 1.0 over no sites would pass having checked
    # nothing
    seed = None if samples is None else 1
    parsed = parse_netlist("netlist z\nversion 1\n")
    for net in (passthrough(0, "empty"), parsed):
        for campaign in (run_campaign, reference_campaign):
            with pytest.raises(ValueError, match=f"netlist {net.name!r} has "
                               "no lines"):
                campaign(net, "flip", samples=samples, seed=seed)


def test_campaign_matches_per_site_reference_on_non_parity_kinds():
    # reports with escapes in them, so agreement is more than both sides
    # reporting every fault detected
    rng = Random(11)
    nets = [pg_full_adder()] + [
        random_fanout_free(rng, f"np{i}", 4, 2, 6, kinds=NON_PARITY_KINDS)
        for i in range(6)]
    for net in nets:
        _check_against_reference(net)
    sa0 = reference_campaign(pg_full_adder(), "sa0")
    assert sa0["undetected_but_silent"] > 0
    assert sa0["undetected_and_corrupting"] > 0


@pytest.mark.parametrize("design, samples", [
    ("csa4", 2 ** 16 // 3 + 1),   # two sites per word
    ("csa4", 2 ** 16 // 5),       # four per word, 74 sites: a short batch
    ("hsa16", 1000),              # 65 per word, 293 sites: a short batch
    ("rca:6", None),              # 2^13 vectors: 8 per word, 73 sites
    ("rca:8", None),              # 2^17 vectors: over the cap, one per word
], ids=["csa4-third", "csa4-fifth", "hsa16-1000", "rca6", "rca8"])
def test_campaign_batch_boundaries_match_reference(design, samples):
    net = build_design(design)
    seed = None if samples is None else 3
    got = run_campaign(net, "flip", samples=samples, seed=seed)
    assert got.to_dict() == reference_campaign(net, "flip", samples, seed)


@pytest.mark.parametrize("word_bits", [8, 24, 64, 200])
@pytest.mark.parametrize("samples", [None, 5], ids=["exhaustive", "sampled"])
def test_campaign_counts_do_not_depend_on_the_batch_layout(monkeypatch,
                                                          word_bits, samples):
    # short last batches on circuits that raise false alarms: a batch's
    # clean boundary and input parity must cover its own sites and no more
    monkeypatch.setattr(faults, "WORD_BITS", word_bits)
    rng = Random(11)
    nets = [pg_full_adder()] + [
        random_fanout_free(rng, f"np{i}", 4, 2, 6, kinds=NON_PARITY_KINDS)
        for i in range(6)]
    for net in nets:
        _check_against_reference(net, (samples,))


@pytest.mark.parametrize("samples", [None, 3], ids=["exhaustive", "sampled"])
def test_campaign_counts_match_reference_at_every_batch_length(monkeypatch,
                                                              samples):
    # a word of p slots for every p up to the site count, so the last batch
    # takes every length from 1 to p - 1; the circuits raise false alarms,
    # which the empty slots of a short last batch must not count
    rng = Random(11)
    nets = [pg_full_adder()] + [
        random_fanout_free(rng, f"np{i}", 4, 2, 6, kinds=NON_PARITY_KINDS)
        for i in range(2)]
    seed = None if samples is None else 2
    for net in nets:
        nvec = (1 << len(net.inputs)) if samples is None else samples
        slot = 8 * ((nvec + 7) // 8)
        for model in FAULT_MODELS:
            want = reference_campaign(net, model, samples, seed)
            for p in range(1, len(net.all_lines()) + 1):
                monkeypatch.setattr(faults, "WORD_BITS", slot * p)
                got = run_campaign(net, model, samples=samples, seed=seed)
                assert got.to_dict() == want, (net.name, model, p)


@pytest.mark.parametrize("design, samples", [
    ("hsa16", 64), ("hsa16", 4096), ("csa4", 2 ** 16 // 5), ("fa", None),
    ("rca:6", None), ("rca:8", None)])
def test_campaign_packs_sites_into_capped_words(monkeypatch, design,
                                                samples):
    net = build_design(design)
    nvec = (1 << len(net.inputs)) if samples is None else samples
    slot = 8 * ((nvec + 7) // 8)
    per_word = max(1, WORD_BITS // slot)
    words = -(-len(net.all_lines()) // per_word)
    widths = []
    evaluate_lines = faults.evaluate_lines

    def counting(net, input_masks, one, fault=None):
        widths.append(one.bit_length())
        return evaluate_lines(net, input_masks, one, fault)

    monkeypatch.setattr(faults, "evaluate_lines", counting)
    run_campaign(net, "flip", samples=samples, seed=1)
    fault_free = 1 if samples is None else words
    assert len(widths) == fault_free + words
    assert max(widths) <= max(WORD_BITS, nvec)


def test_campaign_validates_once(monkeypatch):
    net = build_full_adder()
    calls = []
    validate = netlist.validate
    monkeypatch.setattr(netlist, "validate",
                        lambda net: calls.append(net) or validate(net))
    run_campaign(net, "flip")
    assert calls == [net]
