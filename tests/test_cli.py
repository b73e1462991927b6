"""CLI contract: subcommands, operand expansion, exit codes."""

import json

import pytest

from helpers import pg_full_adder
from revadd import build_design, netlist, parse_netlist, serialize
from revadd.cli import main
from revadd.faults import FAULT_MODELS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_emits_parseable_text(capsys):
    code, out, _ = run(capsys, "build", "fa")
    assert code == 0
    assert parse_netlist(out).name == "fa"


def test_build_to_file(tmp_path, capsys):
    target = tmp_path / "fa.net"
    code, out, _ = run(capsys, "build", "fa", "-o", str(target))
    assert code == 0 and out == ""
    assert target.read_text().startswith("netlist fa")


@pytest.mark.parametrize("where", ["dir", "dir/missing/fa.net"])
def test_build_to_unwritable_path_is_a_usage_error(tmp_path, capsys, where):
    target = tmp_path / where.replace("dir", ".", 1)
    code, out, err = run(capsys, "build", "fa", "-o", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write")


def test_sim_full_adder(capsys):
    code, out, _ = run(capsys, "sim", "fa", "--inputs", "A=1,B=0,Cin=1")
    assert code == 0
    assert "Sum = 0" in out and "Cout = 1" in out


def test_sim_hex_inputs_little_endian(capsys):
    code, out, _ = run(capsys, "sim", "rca:4", "--inputs",
                       "A=0x7,B=0x1,Cin=0")
    assert code == 0
    assert "S = 0x8" in out and "Cout = 0" in out


def test_sim_wide_hex(capsys):
    code, out, _ = run(capsys, "sim", "hsa16", "--inputs",
                       "A=0x00FF,B=0x0001,Cin=0")
    assert code == 0
    assert "S = 0x0100" in out and "Cout = 0" in out


def test_sim_operand_errors_are_usage_errors(capsys):
    assert run(capsys, "sim", "fa", "--inputs", "A=1,B=0")[0] == 2
    assert run(capsys, "sim", "fa", "--inputs", "A=1,B=0,Cin=0,X=1")[0] == 2
    assert run(capsys, "sim", "fa", "--inputs", "A=1 B=0 Cin=0")[0] == 2
    assert run(capsys, "sim", "rca:4",
               "--inputs", "A=0x100,B=0,Cin=0")[0] == 2
    assert run(capsys, "sim", "fa", "--inputs", "A=zz,B=0,Cin=0")[0] == 2


def test_verify_good_design(capsys):
    code, out, _ = run(capsys, "verify", "csa4")
    assert code == 0
    assert "validate: ok" in out
    assert "reversible: True" in out
    assert "parity-preserving: True" in out


def test_verify_wide_design_samples_parity(capsys):
    code, out, _ = run(capsys, "verify", "hsa16")
    assert code == 0
    assert "reversible: skipped" in out
    assert "sampled" in out


@pytest.mark.parametrize("design, code, expected", [
    ("fa", 0, "reversible: True (exhaustive over 2^3 vectors)\n"
              "parity-preserving: True (exhaustive)\n"),
    ("pgfa", 1, "reversible: True (exhaustive over 2^3 vectors)\n"
                "parity-preserving: False (exhaustive)\n"),
    ("hsa16", 0, "reversible: skipped (33 primary inputs exceed the "
                 "exhaustive limit)\n"
                 "parity-preserving: True (sampled, 4096 vectors, seed 0)\n"),
])
def test_verify_validates_and_evaluates_once(capsys, monkeypatch, design,
                                             code, expected):
    net = pg_full_adder() if design == "pgfa" else build_design(design)
    monkeypatch.setattr("revadd.cli._load", lambda target: net)
    calls = []
    validate, evaluate_lines = netlist.validate, netlist.evaluate_lines

    def counted_validate(net):
        calls.append("validate")
        return validate(net)

    def counted_evaluate(*args):
        calls.append("evaluate")
        return evaluate_lines(*args)

    monkeypatch.setattr("revadd.cli.validate", counted_validate)
    monkeypatch.setattr(netlist, "validate", counted_validate)
    monkeypatch.setattr(netlist, "evaluate_lines", counted_evaluate)
    assert run(capsys, "verify", design) == (
        code, "validate: ok\n" + expected, "")
    assert calls == ["validate", "evaluate"]


def test_verify_reports_violations(tmp_path, capsys):
    bad = tmp_path / "bad.net"
    bad.write_text("netlist bad\nversion 1\ninput a b c\n"
                   "output O=a P=b Q=c R=a\n")
    code, out, err = run(capsys, "verify", str(bad))
    assert code == 1
    assert "fanout" in err


def test_metrics_json(capsys):
    code, out, _ = run(capsys, "metrics", "cla2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["gate_count_by_kind"] == {"MIG": 4, "F2G": 10, "NFT": 5}
    assert data["cost"] == {"alpha": 47, "beta": 23, "delta": 9}
    assert data["constant_inputs"] == 26
    assert data["garbage_outputs"] == 28


def test_faults_clean_campaign_exits_zero(capsys):
    code, out, _ = run(capsys, "faults", "fa", "--model", "flip")
    assert code == 0
    assert "coverage: 1.0" in out


def test_faults_json(capsys):
    code, out, _ = run(capsys, "faults", "csa4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["undetected_and_corrupting"] == 0
    assert data["sites_total"] == 74


def test_exhaustive_faults_json_echoes_no_seed(capsys):
    code, out, _ = run(capsys, "faults", "fa", "--seed", "1", "--json")
    assert code == 0
    assert "seed" not in json.loads(out)
    assert out == run(capsys, "faults", "fa", "--json")[1]


def test_faults_sampled_requires_seed(capsys):
    code, _, err = run(capsys, "faults", "hsa16", "--samples", "10")
    assert code == 2
    assert "seed" in err


def test_faults_on_non_parity_circuit_exits_one(tmp_path, capsys):
    path = tmp_path / "pgfa.net"
    path.write_text(serialize(pg_full_adder()))
    code, out, _ = run(capsys, "faults", str(path))
    assert code == 1


def test_table1_text_flags_hsa(capsys):
    code, out, _ = run(capsys, "table1")
    assert code == 0
    assert "MISMATCH" in out
    assert "160α+112β+48δ" in out
    assert "320α+112β+48δ" in out


def test_table1_json(capsys):
    code, out, _ = run(capsys, "table1", "--json")
    assert code == 0
    rows = {r["key"]: r for r in json.loads(out)["rows"]}
    assert rows["ftfa_mig"]["mismatches"] == []
    assert rows["hsa16"]["mismatches"] == ["cost"]
    assert rows["hsa16"]["computed"]["cost"] == {
        "alpha": 160, "beta": 112, "delta": 48}
    assert rows["hsa16"]["published"]["cost"]["alpha"] == 320


def test_unknown_design_or_file(capsys):
    code, _, err = run(capsys, "metrics", "nonesuch")
    assert code == 2
    assert "neither a known design" in err


@pytest.mark.parametrize("argv", [
    ("verify", "hsa16", "--samples", "0"),
    ("verify", "hsa16", "--samples", "-3"),
    ("faults", "csa4", "--samples", "0", "--seed", "1"),
])
def test_sample_counts_below_one_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "sample count must be positive" in err


def test_directory_operand_is_a_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, "verify", str(tmp_path))
    assert code == 2
    assert err.startswith("error: cannot read")


def test_non_ascii_file_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "latin.net"
    path.write_bytes(b"netlist caf\xc3\xa9\nversion 1\n")
    code, _, err = run(capsys, "metrics", str(path))
    assert code == 2
    assert err.startswith("error:") and "not an ASCII netlist file" in err


def test_parse_error_exits_one(tmp_path, capsys):
    bad = tmp_path / "syntax.net"
    bad.write_text("netlist x\nversion 1\ngate XYZ a <- b\n")
    code, _, err = run(capsys, "metrics", str(bad))
    assert code == 1
    assert "unknown gate kind" in err


def test_unknown_subcommand_is_a_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("model", FAULT_MODELS)
def test_faults_accepts_every_fault_model(capsys, model):
    code, out, _ = run(capsys, "faults", "fa", "--model", model, "--json")
    assert code == 0
    assert json.loads(out)["model"] == model


def test_faults_rejects_unknown_model(capsys):
    code, out, err = run(capsys, "faults", "fa", "--model", "bogus")
    assert code == 2 and out == ""
    assert "invalid choice: 'bogus'" in err


@pytest.mark.parametrize("argv", [
    ("build", "rca:0"), ("build", "rca:17"), ("build", "rca:99"),
    ("verify", "rca:21"),
])
def test_out_of_range_design_width_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ripple width") and "1..16" in err


def test_exhaustive_campaign_over_the_limit_is_a_usage_error(capsys):
    code, out, err = run(capsys, "faults", "hsa16")
    assert code == 2 and out == ""
    assert err.startswith("error: netlist 'hsa16' has 33 primary inputs")
    assert "--samples" in err and "--seed" in err


def _wires(tmp_path, inputs, outputs=None):
    """A gateless netlist file wiring each input id to an output."""
    outputs = outputs or [f"O{i}" for i in range(len(inputs))]
    path = tmp_path / "wires.net"
    path.write_text("netlist wires\nversion 1\n"
                    f"input {' '.join(inputs)}\noutput "
                    + " ".join(f"{o}={i}" for o, i in zip(outputs, inputs))
                    + "\n")
    return str(path)


@pytest.mark.parametrize("inputs, assignment, ids", [
    (["a0", "a2", "A1"], "A=0", "a0, A1, a2"),
    (["cin", "Cin"], "Cin=0", "Cin, cin"),
    (["a0", "a2"], "A=0", "a0, a2"),
    (["a", "a0"], "A=0", "a, a0"),
])
def test_sim_refuses_ambiguous_operands_naming_the_ids(tmp_path, capsys,
                                                        inputs, assignment,
                                                        ids):
    code, out, err = run(capsys, "sim", _wires(tmp_path, inputs),
                         "--inputs", assignment)
    assert code == 2 and out == ""
    assert err.startswith(f"error: ids {ids} ")


def test_sim_refuses_ambiguous_output_operands(tmp_path, capsys):
    path = _wires(tmp_path, ["x", "y"], ["S0", "S2"])
    code, out, err = run(capsys, "sim", path, "--inputs", "X=1,Y=0")
    assert code == 2 and out == ""
    assert "ids S0, S2 do not index operand 's' as bits 0..1" in err


def test_sim_lone_id_keeps_its_index(tmp_path, capsys):
    path = _wires(tmp_path, ["a3", "b0", "b1"], ["C2", "S0", "S1"])
    assert run(capsys, "sim", path, "--inputs", "A=1,B=2") == (
        0, "C2 = 1\nS = 0x2 (0b10)\ngarbage = \n", "")


@pytest.mark.parametrize("design", ["fa", "cla2", "csa4", "hsa16"]
                         + [f"rca:{n}" for n in range(1, 17)])
def test_sim_accepts_every_built_in_design(capsys, design):
    net = build_design(design)
    ops = {lid.rstrip("0123456789").upper() for lid in net.inputs}
    code, out, _ = run(capsys, "sim", design, "--inputs",
                       ",".join(f"{op}=0" for op in sorted(ops)))
    assert code == 0 and "garbage = " in out
