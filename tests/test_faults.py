"""Fault sites, injected simulation, parity detection, campaigns."""

import pytest

from helpers import passthrough, pg_full_adder
from revadd import (FaultSite, WidthLimitError, build_cla2, build_csa4,
                    build_full_adder, build_hsa16, enumerate_fault_sites,
                    parity, parity_detects, run_campaign, simulate,
                    simulate_with_fault, truth_table)


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
