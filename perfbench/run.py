"""Closed-loop benchmark of revadd: one client, one process, no threads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a revadd checkout; the package is imported from its
``src`` directory, and the run fails (exit 2, no result) when that is
missing.  Set-up generates the workload's inputs from ``--seed`` (netlist
files go to ``.perfbench-tmp/`` and are removed at the end), then the fixed
request list of the workload (see ``workloads.py``) is run as whole passes
for about ``--seconds`` seconds, at least five passes, with one more
complete set-up after each pass.  Every request's output is checked by an
oracle; a request fails on an unexpected exit code, an exception or an
oracle mismatch.

Timings use each request's best latency across passes: the host switches
between fast and slow states within a second, so a pooled latency or a
per-pass total mostly measures which states a run happened to see.

``--trace 0`` prints the end-to-end metrics:

setup_s                   median of several complete set-ups, each a fresh
                          import of revadd, design builds, input generation,
                          files written and warm-up requests
wall_s                    host time of one pass of the request list: the
                          sum of the requests' best latencies (the oracle
                          checks are excluded)
requests_per_s            requests in one pass divided by wall_s
latency_p50_ms            median of the requests' best latencies
latency_tail_ms           the highest of p50/p75/p90/p95/p99/p99.9 of the
                          requests' best latencies with at least 10 requests
                          beyond it; the report line names the percentile
                          and the count
peak_rss_mb               ru_maxrss of the process

and, where the workload has such requests, ``site_vectors_per_s``,
``exhaustive_vectors_per_s`` and ``error_rate`` on report lines only: the
final JSON carries exactly the metrics every workload has, and
``failed``/``attempted`` carry the error rate.

``--trace 1`` runs half the time untraced and half traced (``tracer.py``)
and prints per-layer metrics, per pass of the request list, plus the
tracing overhead.  Span records are written to ``.perfbench-out/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MIN_PASSES = 5
LADDER = (50, 75, 90, 95, 99, 99.9)
TRACE_TOLERANCE_S = 1e-6


def fail_usage(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def check_program():
    if not os.path.isfile(os.path.join(SRC, "revadd", "__init__.py")):
        fail_usage(f"no revadd sources under {SRC}")
    sys.dont_write_bytecode = True  # every set-up compiles the same way
    sys.path.insert(0, SRC)


def import_program():
    """Import revadd afresh from the checkout's ``src`` and nowhere else."""
    for name in [n for n in sys.modules
                 if n == "revadd" or n.startswith("revadd.")]:
        del sys.modules[name]
    import revadd
    import revadd.cli
    if os.path.dirname(os.path.abspath(revadd.__file__)) != \
            os.path.join(SRC, "revadd"):
        fail_usage(f"imported revadd from {revadd.__file__}, not {SRC}")
    return types.SimpleNamespace(
        revadd=revadd, cli=revadd.cli, netlist=revadd.netlist,
        faults=revadd.faults, textfmt=revadd.textfmt,
        builders=revadd.builders)


class PassResult:
    def __init__(self):
        self.latencies = []
        self.failures = []      # (request index, class, message)
        self.wall = 0.0
        self.trace_mismatch = []
        self.digest = hashlib.sha256()


def run_pass(plan_requests, tracer=None):
    res = PassResult()
    clock = time.perf_counter
    for idx, req in enumerate(plan_requests):
        if tracer is not None:
            tracer.begin_request(idx)
        t0 = clock()
        try:
            out, problem = req.call(), None
        except Exception as exc:  # a crash is a failed request, not a stop
            out, problem = None, f"raised {type(exc).__name__}: {exc}"
        dt = clock() - t0
        if tracer is not None:
            dur, summed = tracer.end_request()
            if abs(dur - summed) > TRACE_TOLERANCE_S:
                res.trace_mismatch.append((idx, dur, summed))
        if problem is None:
            try:
                problem = req.check(out)
                if problem is None and req.digest is not None:
                    res.digest.update(req.digest(out).encode() + b"\n")
            except Exception as exc:
                problem = f"oracle raised {type(exc).__name__}: {exc}"
        if problem is not None:
            res.failures.append((idx, req.cls, problem))
        res.latencies.append(dt)
        res.wall += dt
    return res


def measure(plan, budget_s, at_least, tracer=None, between=None):
    """Whole passes until the next one would end past ``budget_s``;
    ``between`` runs after each pass, inside the budget."""
    passes = []
    start = time.perf_counter()
    while True:
        gc.collect()
        passes.append(run_pass(plan.requests, tracer))
        if between is not None:
            between()
        spent = time.perf_counter() - start
        typical = statistics.median(p.wall for p in passes)
        if len(passes) >= at_least and spent + typical > budget_s:
            return passes


def best_latencies(passes):
    """Each request's best latency across passes.  The host's speed
    switches between states within a second (other tenants); the best of
    many repeats of a short request measures the program, not the mix of
    states a run happened to see."""
    return [min(p.latencies[i] for p in passes)
            for i in range(len(passes[0].latencies))]


def quantile(values, pct):
    """Linear-interpolation percentile of ``values`` (sorted copy)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n):
    """Highest ladder percentile with at least 10 of ``n`` samples beyond."""
    return max(p for p in LADDER if n * (100 - p) / 100 >= 10)


class SetUp:
    """One complete set-up per call: a fresh import of revadd, design
    builds, input generation, files written and the warm-up requests.
    Set-ups are repeated between passes so that their median samples the
    whole run, as the other metrics do."""

    def __init__(self, setup, seed, workdir):
        self.setup, self.seed, self.workdir = setup, seed, workdir
        self.times = []
        self.failures = []

    def __call__(self):
        rep_dir = os.path.join(self.workdir, f"rep{len(self.times)}")
        t0 = time.perf_counter()
        prog = import_program()
        os.makedirs(rep_dir)
        plan = self.setup(prog, self.seed, rep_dir)
        warm = run_pass(plan.warmup)
        self.times.append(time.perf_counter() - t0)
        self.failures += warm.failures
        return plan


def metric(value, unit):
    return {"value": value, "unit": unit}


def report_end_to_end(passes, plan, setup_times, lines):
    best = best_latencies(passes)
    reqs = plan.requests
    wall = sum(best)
    pct = tail_percentile(len(reqs))
    tail = quantile(best, pct)
    m = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "wall_s": metric(wall, "s"),
        "requests_per_s": metric(len(reqs) / wall, "1/s"),
        "latency_p50_ms": metric(quantile(best, 50) * 1e3, "ms"),
        "latency_tail_ms": metric(tail * 1e3, "ms"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    for name, val in m.items():
        lines.append(f"{name} = {val['value']:.6g} {val['unit']}")
    lines.append(f"  setup_s is the median of {len(setup_times)} complete "
                 "set-ups")
    lines.append(f"  latency_tail_ms is p{pct} of the {len(reqs)} requests' "
                 f"best latencies, {sum(1 for x in best if x > tail)} beyond "
                 "it")
    for name, attr in (("site_vectors_per_s", "site_vectors"),
                       ("exhaustive_vectors_per_s", "exhaustive_vectors")):
        work = [(getattr(r, attr), t) for r, t in zip(reqs, best)
                if getattr(r, attr)]
        if work:
            rate = sum(w for w, _ in work) / sum(t for _, t in work)
            lines.append(f"{name} = {rate:.6g} 1/s")
        else:
            lines.append(f"{name}: n/a (no such requests)")
    shares = {}
    for r, t in zip(reqs, best):
        shares[r.cls] = shares.get(r.cls, 0.0) + t
    lines.append("  time by request class: " + ", ".join(
        f"{cls} {t / wall:.0%}" for cls, t in
        sorted(shares.items(), key=lambda kv: -kv[1])))
    return m


def report_per_layer(tracer, traced, untraced, requests):
    import tracer as tracing
    n = len(traced)
    m = {}
    names = [name for name, _, _ in tracing.LAYER_FUNCTIONS]
    names += [tracing.GATE_EVAL, tracing.GETRANDBITS]
    for name in names:
        m[f"{name}.calls"] = metric(tracer.calls[name] / n, "count")
        m[f"{name}.self_s"] = metric(tracer.self_s[name] / n, "s")
    m["netlist.validate.calls_per_request"] = metric(
        tracer.calls["netlist.validate"] / (n * len(requests)),
        "count/request")
    m["netlist.evaluate_lines.vector_bits"] = metric(
        tracer.counters["netlist.evaluate_lines.vector_bits"] / n, "bit")
    m["faults.faulted_gate_evals"] = metric(
        tracer.counters["faults.faulted_gate_evals"] / n, "count")
    site_gates = sum(r.site_gates for r in requests)
    m["faults.cone_gate_share"] = metric(
        sum(r.cone_gates for r in requests) / site_gates if site_gates
        else 0.0, "ratio")
    wall_u = sum(best_latencies(untraced))
    wall_t = sum(best_latencies(traced))
    m["trace.untraced_wall_s"] = metric(wall_u, "s")
    m["trace.traced_wall_s"] = metric(wall_t, "s")
    m["trace.overhead_ratio"] = metric(wall_t / wall_u, "ratio")
    return m


def load_recorded_digest(workload, seed):
    path = os.path.join(HERE, "digests.json")
    try:
        with open(path, encoding="ascii") as fh:
            return json.load(fh).get(workload, {}).get(str(seed))
    except FileNotFoundError:
        return None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    check_program()
    sys.path.insert(0, HERE)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        fail_usage(f"unknown workload {args.workload!r}; expected one of "
                   f"{', '.join(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        fail_usage("--seconds must be positive")
    os.chdir(ROOT)
    workdir = os.path.join(ROOT, ".perfbench-tmp",
                           f"{args.workload}-s{args.seed}-p{os.getpid()}")
    lines = [f"workload: {args.workload}  seed: {args.seed}  "
             f"trace: {args.trace}"]
    set_up = SetUp(workloads.WORKLOADS[args.workload], args.seed, workdir)
    try:
        plan = set_up()
        if args.trace:
            import tracer as tracing
            untraced = measure(plan, args.seconds / 2, 1)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = measure(plan, args.seconds / 2, 1, tracer)
            finally:
                tracer.uninstall()
            passes = untraced + traced
            metrics = report_per_layer(tracer, traced, untraced,
                                       plan.requests)
            for name, val in metrics.items():
                lines.append(f"{name} = {val['value']:.6g} {val['unit']}")
            out_dir = os.path.join(ROOT, ".perfbench-out")
            os.makedirs(out_dir, exist_ok=True)
            tracer.write_spans(os.path.join(
                out_dir, f"spans-{args.workload}-s{args.seed}.jsonl"))
        else:
            passes = measure(plan, args.seconds, MIN_PASSES, between=set_up)
            metrics = report_end_to_end(passes, plan, set_up.times, lines)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    problems = [f"warm-up request {i} ({cls}): {msg}"
                for i, cls, msg in set_up.failures]
    for p in passes:
        problems += [f"request {i} ({cls}): {msg}" for i, cls, msg in
                     p.failures]
        problems += [f"request {i}: traced duration {d:.9f} s but span self "
                     f"times sum to {s:.9f} s" for i, d, s in p.trace_mismatch]
    digests = {p.digest.hexdigest() for p in passes}
    digest = passes[0].digest.hexdigest()
    if len(digests) != 1:
        problems.append("passes produced different campaign/truth-table "
                        "digests")
    recorded = load_recorded_digest(args.workload, args.seed)
    if recorded is not None and recorded != digest:
        problems.append(f"digest {digest} differs from the recorded "
                        f"{recorded}")
    lines.append(f"passes: {len(passes)}  requests/pass: "
                 f"{len(plan.requests)}  pass walls (s): "
                 + " ".join(f"{p.wall:.3f}" for p in passes))
    lines.append(f"error_rate = {failed / attempted:.6g} ratio "
                 f"({failed} of {attempted})")
    lines.append(f"inputs digest: {plan.inputs_digest}")
    lines.append(f"outputs digest: {digest}"
                 + ("" if recorded is None else " (matches the recorded one)"
                    if recorded == digest else " (MISMATCH)"))
    lines += [f"FAIL {p}" for p in problems[:20]]
    print("\n".join(lines))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
