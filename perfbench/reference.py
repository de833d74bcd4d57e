"""Record the reference fingerprints that the correctness gate compares with.

    python3 perfbench/reference.py --workload torus-heat --seeds 0-15

Runs one untraced pass per seed in the benchmark's workload process and
merges the fingerprints into ``perfbench/reference.json``.  Record it only
from a commit whose numbers are trusted; the gate then pins every later
commit to them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
import types

import run
from gate import MOVED, REFERENCE_PATH, load_reference


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=run.WORKLOADS)
    ap.add_argument("--seeds", required=True, type=seed_range,
                    help="inclusive range such as 0-15")
    args = ap.parse_args(argv)
    reference = load_reference()
    for seed in args.seeds:
        ns = types.SimpleNamespace(
            workload=args.workload, seed=seed, seconds=0.0, trace=0,
            out=os.path.join(run.ROOT, ".perfbench_out", f"ref-{os.getpid()}"))
        try:
            child = run.run_child(ns, [], time.monotonic() + run.TIME_LIMIT_S)
        finally:
            shutil.rmtree(ns.out, ignore_errors=True)
        # a reference is recorded only from a run that passed every other check
        problems = [f for f in child["failures"]
                    if not all(MOVED in p for p in f["problems"])]
        if problems:
            print(f"seed {seed}: not recorded, {problems}", file=sys.stderr)
            return 1
        reference.setdefault(args.workload, {})[str(seed)] = child["fingerprints"]
        with open(REFERENCE_PATH, "w") as fh:
            json.dump(reference, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{args.workload} seed {seed}: recorded "
              f"(wall_s {child['wall_s'][0]:.3f})", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
