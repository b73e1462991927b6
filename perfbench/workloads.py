"""The workloads: fixed, seeded request lists with an oracle per request.

verify-exhaustive
    ``verify`` on the adders up to rca:5 and on seeded random netlist files
    of 9-12 inputs (four per width), plus ``truth_table`` checks on the
    same circuits.  Exhaustive analysis over 2^9..2^12-bit words does most
    of the work, so this is the workload for linear exhaustive analysis;
    there are no fault campaigns.
requests-narrow
    Many small requests (``sim``, ``simulate_with_fault``, ``faults hsa16
    --samples 64``, exhaustive ``faults`` and ``verify`` on small circuits,
    ``build``, ``metrics``, ``table1``).  The netlist and fault layers run
    at 1-512-bit words, so per-gate interpretation, per-call validation,
    parsing and argparse dominate; no one request class fills most of the
    wall time.

Every request is kept short (at most about 40 ms, apart from the two hsa16
campaigns of requests-narrow at about 135 ms) so that a run repeats each
one dozens of times and its best latency is steady (see
``run.best_latencies``).  Requests of 0.1 s or more average over the host's
speed states, and their best latencies spread by 20% from run to run.  That
is why verify-exhaustive stops at 12 inputs (rca:6 and rca:7 take 0.2 s and
2 s per check), and why there is no workload of 65536-vector campaigns:
those requests work on 8 KB words, and their timings spread by 18-22%
between runs even on small designs.
"""

from __future__ import annotations

import io
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import oracles
from inputs import InputLog, campaign_seed, grow_netlist, operands

MODELS = ("flip", "sa0", "sa1")


@dataclass
class Request:
    """One timed call into the program and the check of its output."""

    cls: str                                # request class, for reporting
    call: Callable[[], object]
    check: Callable[[object], str | None]   # None when the output is right
    digest: Callable[[object], str] | None = None
    site_vectors: int = 0         # sites x vectors of a fault campaign
    exhaustive_vectors: int = 0   # 2^inputs of an exhaustive check
    cone_gates: int = 0           # sum over sites of forward-cone gates
    site_gates: int = 0           # sites x gates of a fault campaign


@dataclass
class Plan:
    requests: list
    warmup: list
    inputs_digest: str


def cone_gates(net):
    """Sum over fault sites of the gates in the site's forward cone: the
    gates a single-fault re-evaluation actually needs."""
    consumer = {}
    for gi, g in enumerate(net.gates):
        for lid in g.inputs:
            consumer[lid] = gi
    cone = [None] * len(net.gates)
    for gi in reversed(range(len(net.gates))):
        reach = {gi}
        for lid in net.gates[gi].outputs:
            if lid in consumer:
                reach |= cone[consumer[lid]]
        cone[gi] = reach
    return sum(len(cone[consumer[lid]]) for lid in net.all_lines()
               if lid in consumer)


class RequestMaker:
    """Builds requests against one program, logging every input."""

    def __init__(self, prog, workdir, rng):
        self.prog = prog
        self.workdir = workdir
        self.rng = rng
        self.log = InputLog(workdir)
        # Oracle helpers are the unwrapped originals, taken before tracing.
        self.parse = prog.textfmt.parse_netlist
        self.serialize = prog.textfmt.serialize

    def cli(self, cls, argv, check, **extra):
        self.log.args(argv)
        argv = list(argv)
        cli = self.prog.cli

        def call():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                rc = cli.main(argv)
            return rc, out.getvalue(), err.getvalue()

        return Request(cls, call, check, **extra)

    def write(self, net):
        text = self.serialize(net)
        path = os.path.join(self.workdir, f"{net.name}.net")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
        self.log.file(os.path.basename(path), text)
        return path

    def random_netlist(self, name, n_inputs, n_consts, n_gates):
        return grow_netlist(self.prog.revadd, self.rng, name, n_inputs,
                            n_consts, n_gates, max(1, n_inputs // 2))

    # -- request kinds -------------------------------------------------

    def verify(self, target, net):
        n = len(net.inputs)
        return self.cli("verify", ["verify", target],
                        lambda r: oracles.check_verify(r, n),
                        exhaustive_vectors=1 << n)

    def truth_table(self, net, adder):
        n = len(net.inputs)
        const_par = oracles.parity(v for _, v in net.constants)
        if adder:
            extra = {"weights": oracles.adder_weights(net.inputs)}
        else:
            gates = [(g.kind.value, g.inputs, g.outputs) for g in net.gates]
            outs = [lid for _, lid in net.outputs]
            rows = sorted({self.rng.randrange(1 << n) for _ in range(16)})
            extra = {"spot": [(v, oracles.reference_row(
                gates, net.inputs, net.constants, outs, net.garbage, v))
                for v in rows]}
        netlist = self.prog.netlist
        return Request("truth_table", lambda: netlist.truth_table(net),
                       lambda rows: oracles.check_truth_table(
                           rows, n, const_par, **extra),
                       digest=oracles.truth_table_digest,
                       exhaustive_vectors=1 << n)

    def campaign(self, target, net, model, samples=None, seed=None,
                 cls="faults"):
        sites = len(net.all_lines())
        vectors = (1 << len(net.inputs)) if samples is None else samples
        argv = ["faults", target, "--model", model, "--json"]
        if samples is not None:
            argv += ["--samples", str(samples), "--seed", str(seed)]
        return self.cli(
            cls, argv,
            lambda r: oracles.check_campaign(r, net.name, model, sites,
                                             vectors, seed),
            digest=oracles.campaign_digest, site_vectors=sites * vectors,
            cone_gates=cone_gates(net), site_gates=sites * len(net.gates))

    def sim(self, design, cls="sim"):
        width = oracles.adder_width(design)
        a, b, cin = operands(self.rng, width)
        return self.cli(cls, ["sim", design, "--inputs",
                              f"A={a:#x},B={b:#x},Cin={cin}"],
                        lambda r: oracles.check_sim(r, a, b, cin, width))

    def fault_sim(self, net):
        site = self.prog.revadd.FaultSite(
            self.rng.choice(net.all_lines()), "flip")
        bits = tuple(self.rng.getrandbits(1) for _ in net.inputs)
        self.log.value("fault_sim", (net.name, site.line, bits))
        const_par = oracles.parity(v for _, v in net.constants)
        faults = self.prog.faults
        return Request(
            "simulate_with_fault",
            lambda: faults.simulate_with_fault(net, site, bits),
            lambda r: oracles.check_fault_sim(r, bits, const_par,
                                              len(net.outputs),
                                              len(net.garbage)))

    def build(self, target, net):
        return self.cli("build", ["build", target],
                        lambda r: oracles.check_build(
                            r, net.name, len(net.gates), self.parse,
                            self.serialize))

    def metrics(self, target, gates, consts, garbage):
        return self.cli("metrics", ["metrics", target, "--json"],
                        lambda r: oracles.check_metrics(r, gates, consts,
                                                        garbage))

    def table1(self, as_json):
        argv = ["table1", "--json"] if as_json else ["table1"]
        return self.cli("table1", argv,
                        lambda r: oracles.check_table1(r, as_json))


def _gate_multiset(net):
    counts = {}
    for g in net.gates:
        counts[g.kind.value] = counts.get(g.kind.value, 0) + 1
    return counts


def setup_verify_exhaustive(prog, seed, workdir):
    mk = RequestMaker(prog, workdir,
                      random.Random(f"verify-exhaustive/{seed}"))
    designs = ["fa", "cla2", "csa4", "rca:4", "rca:5"]
    nets = {d: prog.builders.build_design(d) for d in designs}
    randoms = [mk.random_netlist(f"rnd{n}{v}", n, 3, n + 3)
               for n in range(9, 13) for v in "abcd"]
    files = [mk.write(net) for net in randoms]
    requests = []
    for d in designs:
        requests += [mk.verify(d, nets[d]), mk.truth_table(nets[d], True)]
    for path, net in zip(files, randoms):
        requests += [mk.verify(path, net), mk.truth_table(net, False)]
    warmup = [mk.verify("fa", nets["fa"]), mk.truth_table(nets["fa"], True),
              mk.verify(files[0], randoms[0])]
    return Plan(requests, warmup, mk.log.hexdigest())


def setup_requests_narrow(prog, seed, workdir):
    rng = random.Random(f"requests-narrow/{seed}")
    mk = RequestMaker(prog, workdir, rng)
    small = ["fa", "cla2", "csa4", "rca:2", "rca:3", "rca:4"]
    nets = {d: prog.builders.build_design(d)
            for d in small + ["hsa16"] + [f"rca:{n}" for n in range(5, 9)]}
    randoms = [mk.random_netlist(f"small{n}", n, 2, n + 2)
               for n in range(4, 10)]
    files = [mk.write(net) for net in randoms]
    hsa16 = nets["hsa16"]

    reqs = [mk.sim("hsa16") for _ in range(100)]
    others = [d for d in nets if d != "hsa16"]
    reqs += [mk.sim(rng.choice(others), "sim_small") for _ in range(60)]
    reqs += [mk.fault_sim(hsa16) for _ in range(60)]
    reqs += [mk.campaign("hsa16", hsa16, MODELS[i % 3], 64,
                         campaign_seed(rng), "faults_sampled")
             for i in range(2)]
    reqs += [mk.campaign(d, nets[d], m) for d in small for m in MODELS]
    reqs += [mk.campaign(p, net, m)
             for p, net in zip(files, randoms) for m in MODELS]
    reqs += [mk.verify(d, nets[d]) for d in small for _ in range(2)]
    reqs += [mk.verify(p, net) for p, net in zip(files, randoms)
             for _ in range(2)]
    for d in nets:
        gates, consts, garbage = oracles.design_facts(d)
        reqs += [mk.build(d, nets[d]), mk.metrics(d, gates, consts, garbage)]
    for p, net in zip(files, randoms):
        reqs += [mk.build(p, net),
                 mk.metrics(p, _gate_multiset(net), len(net.constants),
                            len(net.garbage))]
    reqs += [mk.table1(i % 2 == 1) for i in range(12)]
    rng.shuffle(reqs)
    warmup = [mk.sim("fa"), mk.fault_sim(nets["fa"]),
              mk.campaign("fa", nets["fa"], "flip"),
              mk.build("fa", nets["fa"]), mk.table1(False)]
    return Plan(reqs, warmup, mk.log.hexdigest())


WORKLOADS = {
    "verify-exhaustive": setup_verify_exhaustive,
    "requests-narrow": setup_requests_narrow,
}
