"""Netlist text format: round trips, byte stability, positioned diagnostics."""

import hashlib
import os
import sys
from random import Random

import pytest

from helpers import random_fanout_free, reference_parse_netlist
from revadd import (NetlistParseError, build_design, build_full_adder,
                    metrics, parse_netlist, serialize, textfmt, truth_table,
                    validate)
from revadd.textfmt import _TOKEN_RE

ALL_DESIGNS = ["fa", "rca:4", "cla2", "csa4", "hsa16"]


@pytest.mark.parametrize("design", ALL_DESIGNS)
def test_round_trip_preserves_structure_and_metrics(design):
    net = build_design(design)
    back = parse_netlist(serialize(net))
    assert validate(back) == []
    assert back.name == net.name
    assert back.inputs == net.inputs
    assert back.constants == net.constants
    assert back.gates == net.gates
    assert back.outputs == net.outputs
    assert back.garbage == net.garbage
    assert metrics(back) == metrics(net)


@pytest.mark.parametrize("design", ["fa", "cla2", "csa4"])
def test_round_trip_preserves_truth_table(design):
    net = build_design(design)
    assert truth_table(parse_netlist(serialize(net))) == truth_table(net)


@pytest.mark.parametrize("design", ALL_DESIGNS)
def test_serialize_is_byte_stable_and_idempotent(design):
    text1 = serialize(build_design(design))
    text2 = serialize(build_design(design))
    assert text1 == text2
    assert serialize(parse_netlist(text1)) == text1


def test_every_built_in_design_serializes_to_the_pinned_bytes():
    # one running sha256 over the text of all 20 designs, in this order
    digest = hashlib.sha256()
    for design in ["fa", "cla2", "csa4", "hsa16",
                   *(f"rca:{n}" for n in range(1, 17))]:
        digest.update(serialize(build_design(design)).encode("ascii"))
    assert digest.hexdigest() == ("c8b8b0c791236308ae4a438aaf67540825bafc06"
                                  "bb8be3306e62f3133d7d49ed")


def test_full_adder_document_shape():
    text = serialize(build_full_adder())
    assert text.count("gate MIG") == 2
    assert text.splitlines()[0] == "netlist fa"
    assert "version 1" in text
    assert text.endswith("\n")


def test_comments_and_blank_lines_accepted():
    text = serialize(build_full_adder())
    noisy = "# header comment\n\n" + text.replace(
        "version 1", "version 1  # format revision")
    assert parse_netlist(noisy).gates == build_full_adder().gates


def diags_of(text):
    """The parser's diagnostics, checked against the reference parser's."""
    with pytest.raises(NetlistParseError) as err:
        parse_netlist(text)
    with pytest.raises(NetlistParseError) as ref:
        reference_parse_netlist(text)
    assert err.value.diagnostics == ref.value.diagnostics
    return err.value.diagnostics


def _readme_netlist() -> str:
    """The document shown under the README's "Netlist format" heading."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        after = fh.read().split("## Netlist format", 1)[1]
    return after.split("```\n", 2)[1]


def test_valid_documents_never_reach_the_diagnostic_parser(monkeypatch):
    """A quick read alone reads a legal document; a placed read, the one
    source of diagnostics, runs only for text that has a problem."""
    rng = Random(22)
    docs = [serialize(build_design(d))
            for d in ["fa", "cla2", "csa4", "hsa16", "rca:1", "rca:8"]]
    docs += [serialize(random_fanout_free(rng, f"r{i}", rng.randint(1, 12),
                                          rng.randint(0, 3), 15,
                                          named=["some", "all", "none"][i % 3]))
             for i in range(50)]
    docs.append(_readme_netlist())
    want = [reference_parse_netlist(doc) for doc in docs]

    class QuickOnly(textfmt._Parser):
        def __init__(self, text, placed):
            assert not placed, "a placed read ran on a legal document"
            super().__init__(text, placed)

    monkeypatch.setattr(textfmt, "_Parser", QuickOnly)
    assert [parse_netlist(doc) for doc in docs] == want


def test_a_declaration_below_the_gate_that_reads_it_is_refused():
    # validate reads the constants before every gate, wherever the text
    # declares them; the parser reads the lines in order
    bad = ("netlist t\nversion 1\ninput a\ngate FG x y <- a k\n"
           "const k=0\noutput O=x P=y\n")
    assert [(d.line, d.col, d.message) for d in diags_of(bad)] == [
        (4, 18, "gate input 'k' is not defined by any earlier "
                "input/const/gate statement")]


def test_an_input_below_the_gate_that_reads_it_is_refused():
    bad = ("netlist t\nversion 1\ninput a\ngate FG x y <- a b\n"
           "input b\noutput X=x Y=y\n")
    assert [(d.line, d.col, d.message) for d in diags_of(bad)] == [
        (4, 18, "gate input 'b' is not defined by any earlier "
                "input/const/gate statement")]


def test_unknown_gate_kind_is_a_positioned_semantic_error():
    bad = ("netlist t\nversion 1\ninput a b c\n"
           "gate XYZ x y z <- a b c\noutput O=x P=y Q=z\n")
    diags = diags_of(bad)
    assert any("unknown gate kind 'XYZ'" in d.message for d in diags)
    d = next(d for d in diags if "unknown gate kind" in d.message)
    assert (d.line, d.col) == (4, 6)


def test_redeclared_id_reports_both_positions():
    bad = ("netlist t\nversion 1\ninput a b\ninput a\n"
           "output O=a P=b Q=a\n")
    diags = diags_of(bad)
    assert any("redeclared" in d.message and "3:7" in d.message
               for d in diags)


def test_duplicate_output_name_keeps_the_positioned_diagnostic():
    bad = ("netlist t\nversion 1\ninput a b\noutput S=a S=b\n")
    assert (4, 12, "output name 'S' redeclared (first at 4:8)") in [
        (d.line, d.col, d.message) for d in diags_of(bad)]


def test_arity_mismatch_diagnostic():
    bad = ("netlist t\nversion 1\ninput a b\n"
           "gate F2G x y <- a b\noutput O=x P=y\n")
    diags = diags_of(bad)
    assert any("arity 3" in d.message for d in diags)


def test_fanout_reports_every_sink_position():
    bad = ("netlist t\nversion 1\ninput a\nconst k0=0 k1=0 k2=0 k3=0\n"
           "gate F2G x y z <- a k0 k1\n"
           "gate F2G u v w <- a k2 k3\n"
           "output O=x P=y\ngarbage z u v w\n")
    diags = diags_of(bad)
    fan = [d for d in diags if "fanout" in d.message]
    assert fan, diags
    assert "5:19" in fan[0].message and "6:19" in fan[0].message


def test_dangling_line_diagnostic():
    bad = "netlist t\nversion 1\ninput a b\noutput O=a\n"
    diags = diags_of(bad)
    assert any("no sink" in d.message and d.line == 3 for d in diags)


def test_undefined_references_diagnosed():
    bad = ("netlist t\nversion 1\ninput a\n"
           "output O=ghost\ngarbage a phantom\n")
    messages = [d.message for d in diags_of(bad)]
    assert any("undefined line 'ghost'" in m for m in messages)
    assert any("undefined line 'phantom'" in m for m in messages)


def test_missing_header_diagnosed():
    messages = [d.message for d in diags_of("input a\noutput O=a\n")]
    assert any("missing 'netlist" in m for m in messages)
    assert any("missing 'version" in m for m in messages)


def test_malformed_tokens_diagnosed():
    assert any("malformed constant" in d.message
               for d in diags_of("netlist t\nversion 1\nconst k=2\n"))
    assert any("unsupported format version" in d.message
               for d in diags_of("netlist t\nversion 9\n"))
    assert any("unknown statement" in d.message
               for d in diags_of("netlist t\nversion 1\nwire a\n"))
    assert any("'<-'" in d.message
               for d in diags_of("netlist t\nversion 1\ninput a b\n"
                                 "gate FG x y a b\noutput O=x P=y\n"))


def test_boundary_accounting_in_parsed_netlists():
    ok = parse_netlist("netlist t\nversion 1\ninput a b\nconst k=0\n"
                       "gate F2G x y z <- a b k\noutput O=x\ngarbage y z\n")
    assert ok.boundary_in_width() == ok.boundary_out_width() == 3
    # unbalanced documents necessarily violate per-line accounting first:
    # here line a feeds two sinks
    diags = diags_of("netlist t\nversion 1\ninput a b c\n"
                     "output O=a P=b Q=c R=a\n")
    assert any("fanout" in d.message for d in diags)


def test_every_diagnostic_carries_a_position():
    samples = [
        "gate\n",
        "netlist\n",
        "netlist t\nversion 1\ninput\n",
        "netlist t\nversion 1\noutput bad\n",
        "netlist t\nversion 1\ngarbage\n",
        "nonsense here\n",
    ]
    for text in samples:
        for d in diags_of(text):
            assert d.line >= 1 and d.col >= 1


def test_use_before_definition_diagnosed():
    bad = ("netlist t\nversion 1\ninput a\nconst k0=0 k1=0 k2=0 k3=0\n"
           "gate F2G x y z <- late k0 k1\n"
           "gate F2G late p q <- a k2 k3\n"
           "output O=x\ngarbage y z p q\n")
    diags = diags_of(bad)
    assert any("not defined by any earlier" in d.message for d in diags)


def test_repeated_netlist_header_diagnosed():
    bad = "netlist t\nversion 1\nnetlist u\ninput a\noutput O=a\n"
    assert [(d.line, d.col, d.message) for d in diags_of(bad)] == [
        (3, 1, "netlist header redeclared (first at 1:1)")]


def test_repeated_version_header_diagnosed():
    bad = "netlist t\nversion 1\nversion 1\ninput a\noutput O=a\n"
    assert [(d.line, d.col, d.message) for d in diags_of(bad)] == [
        (3, 1, "version header redeclared (first at 2:1)")]


def test_redeclared_output_name_is_the_only_diagnostic():
    bad = "netlist t\nversion 1\ninput a b\noutput S=a S=b\n"
    assert [(d.line, d.col, d.message) for d in diags_of(bad)] == [
        (4, 12, "output name 'S' redeclared (first at 4:8)")]


def test_structural_diagnostics_are_placed_violations():
    fan = "netlist t\nversion 1\ninput a b c\noutput O=a P=b Q=c R=a\n"
    # the boundary widths differ too, but that follows from the per-line
    # violation and is not reported beside it
    assert [(d.line, d.col, d.message) for d in diags_of(fan)] == [
        (4, 8, "[fanout] line 'a' feeds 2 sinks: output O, output R "
               "(at 4:8, 4:20)")]
    dangling = "netlist t\nversion 1\ninput a b\noutput O=a\n"
    assert [(d.line, d.col, d.message) for d in diags_of(dangling)] == [
        (3, 9, "[dangling] line 'b' has no sink; it must be consumed, a "
               "primary output, or garbage")]


@pytest.mark.parametrize("text, expected", [
    ("netlist t\nversion 9\n",
     (2, 9, "unsupported format version '9' (expected 1)")),
    ("netlist\nversion 1\n", (1, 1, "expected: netlist <name>")),
])
def test_malformed_header_is_reported_once(text, expected):
    # the header statement is present, so it is not also "missing"
    assert [(d.line, d.col, d.message) for d in diags_of(text)] == [expected]


def test_const_without_ids_is_diagnosed():
    assert [(d.line, d.col, d.message)
            for d in diags_of("netlist t\nversion 1\nconst\n")] == [
        (3, 1, "expected: const <id>=0|1 ...")]


LINE_BREAKS_OF_SPLITLINES = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                             "\u2028", "\u2029", "\r"]


@pytest.mark.parametrize("sep", LINE_BREAKS_OF_SPLITLINES)
def test_only_newline_ends_a_line(sep):
    # every other line break of str.splitlines() is whitespace inside a line
    text = f"netlist t\nversion 1\ninput a{sep}b\noutput O=a P=b\n"
    assert parse_netlist(text).inputs == ("a", "b")
    assert reference_parse_netlist(text) == parse_netlist(text)


def test_whitespace_in_a_line_keeps_later_line_numbers():
    bad = "netlist t\x0b\nversion 1\ninput a b\noutput O=a\n"
    assert [(d.line, d.col) for d in diags_of(bad)] == [(3, 9)]
    crlf = bad.replace("\n", "\r\n")
    assert [(d.line, d.col) for d in diags_of(crlf)] == [(3, 9)]


def test_a_column_counts_characters():
    bad = "netlist t\nversion 1\ninput \u00e9 b\noutput O=b\n"
    assert [(d.line, d.col, d.message) for d in diags_of(bad)] == [
        (3, 7, "invalid line id '\u00e9'")]


def test_words_and_columns_split_at_the_same_characters():
    # a line's words come from str.split(), which splits at the characters
    # str.isspace() accepts, and a column from a rescan with _TOKEN_RE
    assert not [hex(c) for c in range(sys.maxunicode + 1)
                if chr(c).isspace() != (_TOKEN_RE.match(chr(c)) is None)]
