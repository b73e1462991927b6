"""Record each workload's outputs digest for a range of seeds.

    python3 perfbench/record_digests.py FIRST LAST

Run from the root of a revadd checkout.  Runs one pass of every workload's
request list per seed and adds the digests to ``perfbench/digests.json``,
which ``run.py`` checks its own digest against.  Record digests only at a
commit whose campaign and truth-table results are known to be right: a
later change that claims only speed must reproduce them exactly.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def main():
    first, last = int(sys.argv[1]), int(sys.argv[2])
    run.check_program()
    workdir = os.path.join(run.ROOT, ".perfbench-tmp", f"record-{os.getpid()}")
    path = os.path.join(HERE, "digests.json")
    recorded = {}
    if os.path.exists(path):
        with open(path, encoding="ascii") as fh:
            recorded = json.load(fh)
    try:
        for name, setup in workloads.WORKLOADS.items():
            recorded.setdefault(name, {})
            for seed in range(first, last + 1):
                plan = run.SetUp(setup, seed,
                                 os.path.join(workdir, f"{name}-{seed}"))()
                result = run.run_pass(plan.requests)
                if result.failures:
                    sys.exit(f"{name} seed {seed}: {result.failures[0]}")
                recorded[name][str(seed)] = result.digest.hexdigest()
                print(name, seed, recorded[name][str(seed)], flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(path, "w", encoding="ascii") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
