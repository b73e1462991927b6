"""Parser fuzzing: any text either parses or fails with positioned
diagnostics, the reference parser agrees on it, layout that keeps every
column leaves the diagnostics unchanged, and a legal document reads the same
however it is laid out."""

from random import Random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from helpers import random_fanout_free, reference_parse_netlist  # noqa: E402
from revadd import (GateKind, Netlist, NetlistParseError,  # noqa: E402
                    build_design, parse_netlist, serialize)

fuzz = settings(max_examples=150, deadline=None, database=None)

# statement keywords, gate kinds and token shapes the grammar knows, so that
# many generated lines get past the first check of their statement
WORDS = ["netlist", "version", "1", "9", "input", "const", "gate", "output",
         "garbage", "<-", "=", "a", "b", "k", "x", "y", "z", "k=0", "k=1",
         "k=2", "O=a", "O=x", "P=y", "=a", "O=", "1a", "a.b", "_"]
WORDS += [k.value for k in GateKind]

token = st.one_of(
    st.sampled_from(WORDS),
    st.text(st.characters(min_codepoint=0x21, max_codepoint=0x7E),
            min_size=1, max_size=6))
gap = st.sampled_from([" ", "\t", "  ", " \t ", "\x0b", "\x0c"])
comment = st.sampled_from(["", "#", " # note", "\t#x <- y", "#gate FG a"])
line = st.builds(lambda toks, sep, tail: sep.join(toks) + tail,
                 st.lists(token, max_size=8), gap, comment)
document = st.builds(lambda lines, eol: "".join(ln + eol for ln in lines),
                     st.lists(line, max_size=12),
                     st.sampled_from(["\n", "\r\n"]))


def _outcome(text, parse=parse_netlist):
    """The parsed netlist, or the diagnostics as (line, col, message)."""
    try:
        return parse(text)
    except NetlistParseError as exc:
        assert exc.diagnostics
        return [(d.line, d.col, d.message) for d in exc.diagnostics]


@fuzz
@given(st.one_of(document, st.text(max_size=200)))
def test_arbitrary_text_fails_only_with_positioned_diagnostics(text):
    outcome = _outcome(text)
    if not isinstance(outcome, Netlist):
        lines = text.count("\n") + 1  # only "\n" ends a line
        for lineno, col, message in outcome:
            assert 1 <= lineno <= lines and col >= 1 and message


# the bad documents of test_textfmt.py, one per diagnostic class, then
# text with a repeated header or a declaration below a gate
BAD_DOCUMENTS = [
    "netlist t\nversion 1\ninput a b c\ngate XYZ x y z <- a b c\n"
    "output O=x P=y Q=z\n",
    "netlist t\nversion 1\ninput a b\ninput a\noutput O=a P=b Q=a\n",
    "netlist t\nversion 1\ninput a b\noutput S=a S=b\n",
    "netlist t\nversion 1\ninput a b\ngate F2G x y <- a b\noutput O=x P=y\n",
    "netlist t\nversion 1\ninput a\nconst k0=0 k1=0 k2=0 k3=0\n"
    "gate F2G x y z <- a k0 k1\ngate F2G u v w <- a k2 k3\n"
    "output O=x P=y\ngarbage z u v w\n",
    "netlist t\nversion 1\ninput a b\noutput O=a\n",
    "netlist t\nversion 1\ninput a\noutput O=ghost\ngarbage a phantom\n",
    "input a\noutput O=a\n",
    "netlist t\nversion 1\nconst k=2\n",
    "netlist t\nversion 9\n",
    "netlist t\nversion 1\nwire a\n",
    "netlist t\nversion 1\ninput a b\ngate FG x y a b\noutput O=x P=y\n",
    "netlist t\nversion 1\ninput a b c\noutput O=a P=b Q=c R=a\n",
    "gate\n",
    "netlist\nversion 1\n",
    "netlist t\nversion 1\ninput\n",
    "netlist t\nversion 1\noutput bad\n",
    "netlist t\nversion 1\ngarbage\n",
    "nonsense here\n",
    "netlist t\nversion 1\ninput a\nconst k0=0 k1=0 k2=0 k3=0\n"
    "gate F2G x y z <- late k0 k1\ngate F2G late p q <- a k2 k3\n"
    "output O=x\ngarbage y z p q\n",
    "netlist t\nversion 1\nnetlist u\ninput a\noutput O=a\n",
    "netlist t\nversion 1\nversion 1\ninput a\noutput O=a\n",
    "netlist t\nversion 1\ninput a\ngate FG x y <- a k\nconst k=0\n"
    "output O=x P=y\n",
    "netlist t\nversion 1\ninput a\ngate FG x y <- a b\ninput b\n"
    "output O=x P=y\n",
]


@fuzz
@given(doc=st.sampled_from(BAD_DOCUMENTS), data=st.data())
def test_layout_that_keeps_columns_keeps_the_diagnostics(doc, data):
    want = _outcome(doc)
    assert not isinstance(want, Netlist)
    lines = doc.splitlines()
    # a tab for a space is one character as well, and a comment or
    # trailing blanks after a statement move no token
    lines = [data.draw(st.sampled_from([ln, ln.replace(" ", "\t")]))
             + data.draw(st.sampled_from(["", " ", "\t", "  # note",
                                          "#a <- b"]))
             for ln in lines]
    eol = data.draw(st.sampled_from(["\n", "\r\n"]))
    text = "".join(ln + eol for ln in lines)
    assert _outcome(text) == want
    assert _outcome(text, reference_parse_netlist) == want


SOURCES = [serialize(build_design(d)) for d in ("fa", "cla2", "csa4")]


@st.composite
def edited(draw):
    """A design's document with a few words swapped for other words of it:
    many such edits pass the text checks and fail validate(), so their
    diagnostics are placed violations, some with several sinks."""
    rows = [ln.split(" ") for ln in draw(st.sampled_from(SOURCES)).split("\n")]
    words = [w for row in rows for w in row]
    for _ in range(draw(st.integers(1, 3))):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(words))
    return "\n".join(" ".join(row) for row in rows)


def _with_examples(docs):
    def wrap(test):
        for doc in docs:
            test = example(doc)(test)
        return test
    return wrap


# every run checks the bad documents, and a legal document whose unread
# input is declared below a gate
@fuzz
@_with_examples(BAD_DOCUMENTS)
@example("netlist t\nversion 1\ninput a b\ngate FG x y <- a b\ninput c\n"
         "output O=x P=y Q=c\n")
@given(st.one_of(document, st.text(max_size=200), edited()))
def test_parser_agrees_with_the_reference_parser(text):
    assert _outcome(text) == _outcome(text, reference_parse_netlist)


_rng = Random(7)
LEGAL = [build_design(d) for d in ("fa", "cla2", "csa4", "rca:3")] + [
    random_fanout_free(_rng, f"r{i}", _rng.randint(1, 12), _rng.randint(0, 3),
                       12) for i in range(8)]
DECLARATIONS = ("input", "const", "output", "garbage")


@st.composite
def relaid(draw):
    """A legal netlist and its document laid out anew: other gaps, blank
    and comment lines, CRLF, and each run of same-keyword declarations
    merged onto one line or split over several.  Sometimes the input and
    const lines go below the gates, where the parser refuses them."""
    net = draw(st.sampled_from(LEGAL))
    runs = []  # [keyword, words]
    for row in serialize(net).splitlines():
        key, *words = row.split()
        if runs and key in DECLARATIONS and runs[-1][0] == key:
            runs[-1][1] += words
        else:
            runs.append([key, words])
    rows = []
    for key, words in runs:
        cuts = []
        if key in DECLARATIONS and len(words) > 1:
            cuts = sorted(draw(st.sets(st.integers(1, len(words) - 1),
                                       max_size=3)))
        rows += [[key, *words[a:b]]
                 for a, b in zip([0, *cuts], [*cuts, len(words)])]
    late = draw(st.booleans())
    if late:
        rows.sort(key=lambda r: r[0] in ("input", "const"))
    lines = []
    for words in rows:
        lines.append(draw(st.sampled_from(["", " ", "\t"]))
                     + "".join(w + draw(gap) for w in words[:-1]) + words[-1]
                     + draw(comment))
        lines += draw(st.lists(st.sampled_from(["", "\t", "# note"]),
                               max_size=1))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return net, "".join(ln + eol for ln in lines), late


@fuzz
@given(relaid())
def test_relaid_documents_agree_with_the_reference_parser(case):
    net, text, late = case
    outcome = _outcome(text)
    assert outcome == _outcome(text, reference_parse_netlist)
    if late and net.gates:  # the first gate reads a line declared below
        assert not isinstance(outcome, Netlist)
    else:
        assert outcome == net
