"""CLI contract: subcommands, operand expansion, exit codes."""

import json
import os
import subprocess
import sys

import pytest

from helpers import pg_full_adder, reference_main
from revadd import build_design, cli, netlist, parse_netlist, serialize
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


@pytest.mark.parametrize("design, samples", [("fa", "8"), ("hsa16", "64")])
def test_sampled_faults_without_a_seed_is_a_usage_error(capsys, design,
                                                        samples):
    assert run(capsys, "faults", design, "--samples", samples) == (
        2, "", "error: sampled checks require a seed (reports must be "
        "reproducible)\n")


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


@pytest.mark.parametrize("argv, message", [
    (("sim", "fa", "--inputs", f"A=0x{'F' * 5000},B=1,Cin=1"),
     "operand 'a' value does not fit in 1 bit(s)"),
    (("sim", "fa", "--inputs", f"A=0b{'1' * 20000},B=1,Cin=1"),
     "operand 'a' value does not fit in 1 bit(s)"),
    (("sim", "fa", "--inputs", f"A={'9' * 5000},B=1,Cin=1"),
     "operand 'a' value does not fit in 1 bit(s)"),
    (("sim", "rca:4", "--inputs", f"A=1,B=-{'9' * 5000},Cin=0"),
     "operand 'b' value does not fit in 4 bit(s)"),
    (("build", f"rca:{'9' * 5000}"), "ripple width out of range 1..16"),
], ids=["hex", "binary", "decimal", "negative-decimal", "design-width"])
def test_oversized_integers_are_usage_errors_that_do_not_echo_them(
        capsys, argv, message):
    # Python converts no decimal string longer than its digit limit
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, option", [
    (("verify", "fa", "--samples", "9" * 5000), "--samples"),
    (("faults", "fa", "--samples", "4", "--seed", "9" * 5000), "--seed"),
    (("verify", "hsa16", "--seed", "-" + "9" * 5000), "--seed"),
    (("faults", "fa", "--samples", "0" * 5000 + "9" * 4400, "--seed", "1"),
     "--samples"),
], ids=["samples", "seed", "negative-seed", "samples-past-zeros"])
def test_oversized_option_values_are_usage_errors_that_do_not_echo_them(
        capsys, argv, option):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.endswith(f"error: argument {option}: value has more than "
                        f"{sys.get_int_max_str_digits()} digits\n")
    assert "99999" not in err


def test_option_values_and_design_widths_are_read_past_leading_zeros(capsys):
    # Python counts leading zeros toward its digit limit; the value is small
    zeros = "0" * 5000
    assert run(capsys, "faults", "fa", "--samples", zeros + "4",
               "--seed", zeros + "1") == run(capsys, "faults", "fa",
                                             "--samples", "4", "--seed", "1")
    assert run(capsys, "sim", "fa", "--inputs", f"A={zeros},B=1,Cin=1") == run(
        capsys, "sim", "fa", "--inputs", "A=0,B=1,Cin=1")
    assert run(capsys, "build", f"rca:{zeros}8") == run(capsys, "build",
                                                         "rca:8")
    assert build_design(f"rca:{zeros}8") is build_design("rca:8")


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


def test_operand_groups_are_kept_read_only_and_refusals_repeat(tmp_path,
                                                               capsys):
    groups = cli._operand_groups(("a0", "a1", "cin"))
    assert cli._operand_groups(("a0", "a1", "cin")) is groups
    assert dict(groups) == {"a": ("a0", "a1"), "cin": ("cin",)}
    with pytest.raises(TypeError):
        groups["a"] = ("a1", "a0")
    # a refused id set is not kept, so each request is refused again
    path = _wires(tmp_path, ["a0", "a2"])
    for _ in range(2):
        code, out, err = run(capsys, "sim", path, "--inputs", "A=0")
        assert code == 2 and out == ""
        assert err.startswith("error: ids a0, a2 do not index operand 'a'")


@pytest.mark.parametrize("samples", [(), ("--samples", "4", "--seed", "1")],
                         ids=["exhaustive", "sampled"])
def test_faults_over_no_fault_sites_is_a_usage_error(tmp_path, capsys,
                                                     samples):
    path = tmp_path / "z.net"
    path.write_text("netlist z\nversion 1\n")
    assert run(capsys, "faults", str(path), *samples) == (
        2, "", "error: netlist 'z' has no lines, so a campaign has no fault "
        "site to inject\n")


def test_sim_skips_empty_assignment_parts(capsys):
    assert run(capsys, "sim", "fa", "--inputs", "A=1,,B=0,Cin=0,") == run(
        capsys, "sim", "fa", "--inputs", "A=1,B=0,Cin=0")


@pytest.mark.parametrize("assignment, message", [
    ("A", "malformed input assignment 'A' (expected name=value)"),
    ("A=1,a=0,B=0,Cin=0", "operand 'a' assigned twice"),
])
def test_sim_refuses_malformed_and_repeated_operands(capsys, assignment,
                                                     message):
    assert run(capsys, "sim", "fa", "--inputs", assignment) == (
        2, "", f"error: {message}\n")


@pytest.mark.parametrize("assignment, message", [
    ("a=" + "0" * 5000 + "9,b=0,cin=0",
     "cannot parse value '00000000000000000000'...'00000000000000000009' "
     "(5,001 characters) (use decimal, 0x hex or 0b binary)"),
    ("a=1,b=0,cin=0," + "x" * 5000,
     "malformed input assignment 'xxxxxxxxxxxxxxxxxxxx'..."
     "'xxxxxxxxxxxxxxxxxxxx' (5,000 characters) (expected name=value)"),
    ("a=1,b=0,cin=0," + "q" * 5000 + "=1",
     "unknown operand 'qqqqqqqqqqqqqqqqqqqq'...'qqqqqqqqqqqqqqqqqqqq' "
     "(5,000 characters); this netlist has: a, b, cin"),
], ids=["value", "assignment", "operand"])
def test_long_input_text_is_clipped_in_usage_errors(capsys, assignment,
                                                    message):
    assert run(capsys, "sim", "rca:4", "--inputs", assignment) == (
        2, "", f"error: {message}\n")


def test_non_integer_sample_count_is_a_usage_error(capsys):
    code, out, err = run(capsys, "verify", "fa", "--samples", "x")
    assert (code, out) == (2, "")
    assert err.endswith("error: argument --samples: invalid int value: "
                        "'x'\n")


def test_ids_outside_the_operand_pattern_are_operands_of_their_own(
        tmp_path, capsys):
    assert dict(cli._operand_groups(("x.1", "x.2", "y"))) == {
        "x.1": ("x.1",), "x.2": ("x.2",), "y": ("y",)}
    path = _wires(tmp_path, ["x.1", "x.2", "y"])
    assert run(capsys, "sim", path, "--inputs", "X.1=1,x.2=0,y=1") == (
        0, "O = 0x5 (0b101)\ngarbage = \n", "")
    code, out, err = run(capsys, "sim", path, "--inputs", "x=1,y=0")
    assert (code, out) == (2, "")
    assert err == ("error: unknown operand 'x'; this netlist has: x.1, x.2, "
                   "y\n")


def test_operand_indices_are_decimals_without_leading_zeros(tmp_path,
                                                           capsys):
    assert dict(cli._operand_groups(("a00", "a1"))) == {
        "a00": ("a00",), "a": ("a1",)}
    path = _wires(tmp_path, ["a00", "a1"])
    assert run(capsys, "sim", path, "--inputs", "A=2") == (
        2, "", "error: missing operand value(s): a00\n")
    assert run(capsys, "sim", path, "--inputs", "A=1,A00=0") == (
        0, "O = 0x2 (0b10)\ngarbage = \n", "")


@pytest.mark.parametrize("design", ["rca:\u0663", "rca:\uff13"])
def test_design_width_takes_only_ascii_digits(capsys, design):
    code, out, err = run(capsys, "build", design)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {design!r} is neither a known design")


def _fanout_netlist():
    """A netlist no builder or parser would return: line a feeds two
    outputs."""
    return netlist.Netlist("fan", inputs=("a", "b", "c"),
                           outputs=(("O", "a"), ("P", "b"), ("Q", "c"),
                                    ("R", "a")))


def test_verify_lists_the_violations_of_a_loaded_netlist(capsys,
                                                         monkeypatch):
    monkeypatch.setattr("revadd.cli._load", lambda target: _fanout_netlist())
    assert run(capsys, "verify", "fan") == (
        1, "validate: 1 violation(s)\n  [fanout] line 'a' feeds 2 sinks: "
        "output O, output R\n", "")


@pytest.mark.parametrize("argv", [
    ("sim", "fan", "--inputs", "A=1,B=0,C=1"), ("metrics", "fan")])
def test_invalid_loaded_netlist_is_an_error(capsys, monkeypatch, argv):
    monkeypatch.setattr("revadd.cli._load", lambda target: _fanout_netlist())
    assert run(capsys, *argv) == (
        1, "", "error: netlist 'fan' is not valid: [fanout] line 'a' feeds "
        "2 sinks: output O, output R\n")


WELL_FORMED = [
    ("build", "fa"),
    ("sim", "fa", "--inputs", "A=1,B=0,Cin=1"),
    ("verify", "csa4"),
    ("verify", "hsa16", "--samples", "64", "--seed", "3"),
    ("metrics", "cla2"),
    ("metrics", "fa", "--json"),
    ("faults", "fa", "--model", "sa1"),
    ("faults", "hsa16", "--samples", "4", "--seed", "2", "--json"),
    ("table1",),
    ("table1", "--json"),
]

ARGV_CORPUS = WELL_FORMED + [
    (), ("-h",), ("--help",), ("sim", "-h"), ("-h", "build"),
    ("--json", "table1"),
    ("frobnicate",), ("frobnicate", "fa"),
    ("sim",), ("sim", "fa"), ("metrics",),
    ("faults", "fa", "--model", "bogus"), ("verify", "fa", "--seed", "x"),
    ("verify", "hsa16", "--samples", "0"),
    ("faults", "hsa16", "--samples", "2000000", "--seed", "1"),
    ("verify", "hsa16", "--samp", "4"), ("verify", "hsa16", "--samples=4"),
    ("build", "--", "fa"), ("metrics", "fa", "--", "--json"),
    ("build", "fa", "extra"), ("table1", "x"),
    ("sim", "fa", "--inputs", "A=1,,B=0,Cin=0"), ("sim", "fa", "--inputs", "A"),
    ("sim", "fa", "--inputs", "A=1,A=0,B=0,Cin=0"),
    ("verify", "fa", "--samples", "x"),
    ("build", "rca:\u0663"), ("build", "rca:\uff13"),
] + [argv + ("--bogus",) for argv in WELL_FORMED]


@pytest.mark.parametrize("argv", ARGV_CORPUS,
                         ids=lambda argv: " ".join(argv) or "(none)")
def test_main_matches_the_full_top_level_parse(capsys, argv):
    got = run(capsys, *argv)
    want = reference_main(list(argv)), *capsys.readouterr()
    assert got == want


@pytest.mark.parametrize("argv", WELL_FORMED,
                         ids=lambda argv: " ".join(argv))
def test_well_formed_command_skips_the_top_level_parser(capsys, monkeypatch,
                                                         argv):
    ap, _ = cli._parser()
    calls = []
    for name in ("parse_args", "parse_known_args"):
        def counted(*args, _name=name, _parse=getattr(ap, name), **kwargs):
            calls.append(_name)
            return _parse(*args, **kwargs)
        monkeypatch.setattr(ap, name, counted)
    assert run(capsys, *argv)[0] == 0
    assert calls == []
    # a usage error is still the top-level parser's to report
    code, out, err = run(capsys, *argv, "--bogus")
    assert (code, out) == (2, "")
    assert err.endswith("revadd: error: unrecognized arguments: --bogus\n")
    assert calls == ["parse_args", "parse_known_args"]


@pytest.mark.parametrize("argv, code", [
    (("build", "fa"), 0), (("--help",), 0), (("frobnicate",), 2)])
def test_entry_point_reads_its_arguments(argv, code):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "revadd.cli", *argv],
                          env=env, capture_output=True, text=True)
    assert done.returncode == code, done.stderr
    if argv == ("build", "fa"):
        assert done.stdout == serialize(build_design("fa"))
