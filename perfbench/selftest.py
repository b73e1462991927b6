"""Self-test of the benchmark's tracer and input generator.

    python3 perfbench/selftest.py

Run from the root of a revadd checkout; exits 1 on the first failed check.

1. Namespace coverage: with the tracer installed, every wrapped function's
   traced call count equals the count of calls to its code object seen by
   ``sys.setprofile``, whichever module namespace the call went through.
   A tracer that patches only the defining modules is shown to miss calls.
2. Time accounting: for every traced request, the self times of all its
   spans sum to the request's duration, and every kept span lies inside its
   parent without overlapping its siblings.
3. Inputs: the same seed gives byte-identical inputs, another seed does not.
4. Uninstalling puts every original function back.
"""

from __future__ import annotations

import dataclasses
import os
import random
import shutil
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SCRATCH = os.path.join(run.ROOT, ".perfbench-tmp", f"selftest-{os.getpid()}")


def check(ok, label):
    print(("PASS " if ok else "FAIL ") + label)
    if not ok:
        sys.exit(1)


def small_requests(prog):
    """A few requests that reach every wrapped function."""
    mk = workloads.RequestMaker(prog, SCRATCH, random.Random("selftest"))
    fa = prog.builders.build_design("fa")
    rnd = mk.random_netlist("rnd6", 6, 2, 8)
    path = mk.write(rnd)
    return [mk.verify("fa", fa), mk.truth_table(fa, True),
            mk.truth_table(rnd, False), mk.verify(path, rnd),
            mk.campaign("fa", fa, "flip"), mk.campaign(path, rnd, "sa1"),
            mk.campaign("fa", fa, "sa0", 8, 5), mk.sim("csa4"),
            mk.fault_sim(fa), mk.build(path, rnd), mk.table1(True)]


def profiled_counts(requests, code_names):
    """Run ``requests``, counting calls made inside them by code object,
    and calls of ``Random.getrandbits``."""
    counts = Counter()

    def prof(frame, event, arg):
        if event == "call":
            name = code_names.get(frame.f_code)
            if name is not None:
                counts[name] += 1
        elif event == "c_call" and getattr(arg, "__name__", "") == \
                "getrandbits" and isinstance(getattr(arg, "__self__", None),
                                             random.Random):
            counts[tracing.GETRANDBITS] += 1

    def profiled(req):
        def call():
            sys.setprofile(prof)
            try:
                return req.call()
            finally:
                sys.setprofile(None)
        return dataclasses.replace(req, call=call)

    result = run.run_pass([profiled(req) for req in requests])
    check(not result.failures, f"small requests pass their oracles "
                               f"{result.failures[:1]}")
    return counts


def traced_counts(requests, tracer):
    result = run.run_pass(requests, tracer)
    check(not result.failures, "small requests pass their oracles traced")
    check(not result.trace_mismatch,
          "span self times sum to each traced request's duration "
          f"{result.trace_mismatch[:1]}")
    return Counter({k: v for k, v in tracer.calls.items()
                    if k != tracing.REQUEST})


def check_nesting(tracer):
    by_id = {rec[0]: rec for rec in tracer.records}
    children = {}
    for rec in tracer.records:
        if rec[4] is not None:
            children.setdefault(rec[4], []).append(rec)
    for pid, kids in children.items():
        parent = by_id.get(pid)
        if parent is None:
            check(False, f"span {kids[0][0]} has a parent that was never "
                         "recorded")
        kids.sort(key=lambda r: r[2])
        for a, b in zip(kids, kids[1:]):
            if a[3] > b[2]:
                check(False, f"sibling spans {a[0]} and {b[0]} overlap")
        for k in kids:
            if not (parent[2] <= k[2] <= k[3] <= parent[3]) \
                    or k[5] != parent[5]:
                check(False, f"span {k[0]} is not inside parent {pid}")
    check(True, f"{len(tracer.records)} kept spans nest inside their parents")


def main():
    run.check_program()
    os.makedirs(SCRATCH)
    try:
        prog = run.import_program()
        requests = small_requests(prog)
        code_names = {getattr(sys.modules[mod], attr).__code__: name
                      for name, mod, attr in tracing.LAYER_FUNCTIONS}
        code_names.update({fn.__code__: tracing.GATE_EVAL
                           for fn in prog.revadd.gates.EVAL.values()})
        expected = profiled_counts(requests, code_names)

        tracer = tracing.Tracer()
        tracer.install()
        try:
            check(not tracer.unwrapped_references(),
                  "no revadd namespace keeps an unwrapped layer function")
            got = traced_counts(requests, tracer)
        finally:
            tracer.uninstall()
        for name in sorted(expected | got):
            check(got[name] == expected[name],
                  f"{name}: traced {got[name]} calls, profiler saw "
                  f"{expected[name]}")
        check_nesting(tracer)
        check(not [rec for rec in tracer.records
                   if rec[1] in (tracing.GATE_EVAL, tracing.GETRANDBITS)],
              "leaf spans are aggregated, not kept")
        check(all(getattr(sys.modules[mod], attr).__code__ in code_names
                  for _, mod, attr in tracing.LAYER_FUNCTIONS),
              "uninstall restores every original function")

        naive = tracing.Tracer()
        for name, mod, attr in tracing.LAYER_FUNCTIONS:
            module = sys.modules[mod]
            naive._undo.append((module, attr, getattr(module, attr)))
            setattr(module, attr, naive.wrap(name, getattr(module, attr)))
        try:
            run.run_pass(requests, naive)
        finally:
            naive.uninstall()
        missed = sorted(name for name, _, _ in tracing.LAYER_FUNCTIONS
                        if naive.calls[name] < expected[name])
        check(bool(missed), "patching only the defining modules misses "
                            f"calls to {', '.join(missed)}")

        for name, setup in workloads.WORKLOADS.items():
            digests = []
            for seed, rep in ((7, "a"), (7, "b"), (8, "c")):
                rep_dir = os.path.join(SCRATCH, f"{name}-{rep}")
                os.makedirs(rep_dir)
                digests.append(setup(prog, seed, rep_dir).inputs_digest)
            check(digests[0] == digests[1] != digests[2],
                  f"{name}: same seed, same inputs; other seed, other inputs")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(SCRATCH))
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
