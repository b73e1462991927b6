"""Span tracer wrapping the public functions of each revadd layer from outside.

Every wrapped call made while a request is open is timed as a span with a
name, start, end, parent span and request id.  Self time is a span's
duration minus the durations of its direct children.  Spans of the layer
functions are kept in memory as records; the two hot leaf functions
(``gates.eval`` and ``rng.getrandbits``, tens of thousands of calls per
request) are timed the same way and charged to their parent, but only their
counts and times are kept, so a traced run stays small in memory.

A function is wrapped in every ``revadd`` module namespace that holds it,
because modules import functions by name (``faults`` and ``cli`` import
``evaluate_lines``, ``validate`` and the ``netlist`` checks directly);
patching only the defining module would silently miss those calls.

Which end-to-end metric each per-layer metric should move, and where:

cli.main, textfmt.*, builders.build_design, netlist.validate,
netlist.simulate, faults.simulate_with_fault
    latency_p50_ms on requests-narrow; little on verify-exhaustive
netlist.evaluate_lines, gates.eval
    wall_s on requests-narrow (interpretive, 1-512-bit words); little on
    verify-exhaustive, which evaluates each circuit once per check
faults.run_campaign, faults.faulted_gate_evals, rng.getrandbits
    wall_s and latency_tail_ms on requests-narrow; nothing on
    verify-exhaustive, which runs no campaigns
netlist.truth_table, netlist.is_reversible_circuit,
netlist.is_parity_preserving_circuit
    wall_s on verify-exhaustive; little on requests-narrow
report.build_table1
    requests_per_s on requests-narrow only

``faults.cone_gate_share`` is structural: over the pass's campaigns, the
gates in each fault site's forward cone summed over sites, divided by
sites x gates.  It is the share of faulted gate evaluations a cone-limited
campaign would still make.
"""

from __future__ import annotations

import functools
import json
import random
import sys
import time
from collections import defaultdict

# (span name, defining module, attribute) for each wrapped layer function.
LAYER_FUNCTIONS = (
    ("cli.main", "revadd.cli", "main"),
    ("textfmt.parse_netlist", "revadd.textfmt", "parse_netlist"),
    ("textfmt.serialize", "revadd.textfmt", "serialize"),
    ("builders.build_design", "revadd.builders", "build_design"),
    ("netlist.validate", "revadd.netlist", "validate"),
    ("netlist.evaluate_lines", "revadd.netlist", "evaluate_lines"),
    ("netlist.truth_table", "revadd.netlist", "truth_table"),
    ("netlist.is_reversible_circuit", "revadd.netlist",
     "is_reversible_circuit"),
    ("netlist.is_parity_preserving_circuit", "revadd.netlist",
     "is_parity_preserving_circuit"),
    ("netlist.simulate", "revadd.netlist", "simulate"),
    ("faults.simulate_with_fault", "revadd.faults", "simulate_with_fault"),
    ("faults.run_campaign", "revadd.faults", "run_campaign"),
    ("report.build_table1", "revadd.report", "build_table1"),
)
GATE_EVAL = "gates.eval"
GETRANDBITS = "rng.getrandbits"
REQUEST = "request"


class Tracer:
    """Collects spans for the requests run between :meth:`begin_request`
    and :meth:`end_request`; calls made outside a request pass through
    untimed (the benchmark's own oracle checks, for example)."""

    def __init__(self):
        # (id, name, start, end, parent id, request id, self time)
        self.records = []
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self._stack = []    # open spans: [id, child time]
        self._next_id = 0
        self._self_total = 0.0
        self._request = None
        self._undo = []

    # -- spans ---------------------------------------------------------

    def _open(self):
        self._next_id += 1
        frame = [self._next_id, 0.0]
        parent = self._stack[-1][0]
        self._stack.append(frame)
        return frame, parent

    def _close(self, name, frame, parent, t0, t1, keep):
        self._stack.pop()
        dur = t1 - t0
        self._stack[-1][1] += dur
        own = dur - frame[1]
        self.calls[name] += 1
        self.self_s[name] += own
        self._self_total += own
        if keep:
            self.records.append((frame[0], name, t0, t1, parent,
                                 self._request, own))

    def begin_request(self, request_id):
        """Open the root span of one request."""
        if self._stack:
            raise RuntimeError("a request is already open")
        self._request = request_id
        self._next_id += 1
        self._stack.append([self._next_id, 0.0])
        self._self_before = self._self_total
        self._root_start = time.perf_counter()

    def end_request(self):
        """Close the root span; returns (duration, summed self time of every
        span in the request, root included).  The two agree when every
        span's children were charged to it and to nothing else."""
        t1 = time.perf_counter()
        frame = self._stack.pop()
        dur = t1 - self._root_start
        own = dur - frame[1]
        self.calls[REQUEST] += 1
        self.self_s[REQUEST] += own
        self.records.append((frame[0], REQUEST, self._root_start, t1, None,
                             self._request, own))
        total_self = own + self._self_total - self._self_before
        self._request = None
        return dur, total_self

    def wrap(self, name, fn, keep=True):
        """Return ``fn`` wrapped in a span called ``name``."""
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            frame, parent = self._open()
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, frame, parent, t0, clock(), keep)

        return traced

    def _wrap_evaluate_lines(self, fn):
        """``evaluate_lines`` also counts vector bits and faulted gate
        evaluations."""
        traced = self.wrap("netlist.evaluate_lines", fn)
        counters = self.counters
        calls = self.calls

        @functools.wraps(fn)
        def observed(net, input_masks, one, fault=None):
            if not self._stack:
                return fn(net, input_masks, one, fault)
            before = calls[GATE_EVAL]
            try:
                return traced(net, input_masks, one, fault)
            finally:
                counters["netlist.evaluate_lines.vector_bits"] += \
                    one.bit_length()
                if fault is not None:
                    counters["faults.faulted_gate_evals"] += \
                        calls[GATE_EVAL] - before

        return observed

    # -- patching ------------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "revadd"
                                      or modname.startswith("revadd.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def install(self):
        """Wrap every layer function in every revadd namespace, the gate
        evaluators in ``revadd.gates.EVAL`` and ``Random.getrandbits`` as
        seen by revadd."""
        gates = sys.modules["revadd.gates"]
        for name, modname, attr in LAYER_FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            if name == "netlist.evaluate_lines":
                wrapped = self._wrap_evaluate_lines(original)
            else:
                wrapped = self.wrap(name, original)
            self._replace_everywhere(original, wrapped)
        for kind, original in list(gates.EVAL.items()):
            gates.EVAL[kind] = self.wrap(GATE_EVAL, original, keep=False)
            self._undo.append((gates.EVAL, kind, original))

        class TracedRandom(random.Random):
            getrandbits = self.wrap(GETRANDBITS, random.Random.getrandbits,
                                    keep=False)

        self._replace_everywhere(random.Random, TracedRandom)

    def uninstall(self):
        """Put every original function back."""
        for target, key, original in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._undo.clear()

    def unwrapped_references(self):
        """(module, attribute) pairs in revadd namespaces that still hold an
        original layer function while the tracer is installed."""
        originals = {id(original) for target, _, original in self._undo
                     if not isinstance(target, dict)}
        found = []
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "revadd"
                                      or modname.startswith("revadd.")):
                continue
            for attr, value in vars(module).items():
                if id(value) in originals:
                    found.append((modname, attr))
        return found

    def write_spans(self, path):
        """Write the kept span records as JSON lines."""
        keys = ("id", "name", "start", "end", "parent", "request", "self_s")
        with open(path, "w", encoding="ascii") as fh:
            for rec in self.records:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")
