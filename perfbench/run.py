"""mmslab benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload {sqrt-sweep,torus-heat,geometry-elliptic}
                             --seed N --seconds S --trace {0,1}

Run it from the root of a checkout.  The workload runs in a fresh
interpreter (``child.py``) whose BLAS thread count is pinned through the
environment before numpy is imported; ``mmslab`` is imported from the
checkout's ``src``.  Set-up time is the median over ``SETUP_PROBES`` extra
interpreters that only import the program and generate the seeded inputs,
plus the workload process itself.

With ``--trace 0`` the result carries the end-to-end metrics of untraced
passes; with ``--trace 1`` the per-layer metrics of one traced pass, with
the tracing overhead measured against one untraced pass.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it name every metric with its unit, the environment and any
gate failure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sqrt-sweep", "torus-heat", "geometry-elliptic")
SETUP_PROBES = 4
BLAS_THREADS_MAX = 2
TIME_LIMIT_S = 175.0


def blas_threads() -> int:
    return max(1, min(len(os.sched_getaffinity(0)), BLAS_THREADS_MAX))


def child_env() -> dict:
    n = str(blas_threads())
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = n
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), HERE])
    return env


def git_commit(root=ROOT):
    """HEAD of the checkout's git repository, or None outside one."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def run_child(args, extra, deadline):
    """Run child.py; returns its parsed last stdout line."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", args.out, "--t0", repr(time.monotonic())] + extra
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - time.monotonic()),
                          text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("workload process printed no result")
    return json.loads(lines[-1])


def end_to_end(setups, child) -> dict:
    attempted = child["attempted"]
    failed = len(child["failures"])
    return {
        "wall_s": {"value": statistics.median(child["wall_s"]), "unit": "s"},
        "cpu_s": {"value": statistics.median(child["cpu_s"]), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": child["peak_rss_mb"], "unit": "MB"},
        "pass_ratio": {"value": (attempted - failed) / attempted, "unit": "1"},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "mmslab", "__init__.py")):
        print(f"no mmslab sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    args.out = os.path.join(ROOT, ".perfbench_out", f"run-{os.getpid()}")
    try:
        setups = [run_child(args, ["--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        child = run_child(args, [], deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(args.out, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(args.out))
        except OSError:             # another run still uses it
            pass
    setups.append(child["setup_s"])

    attempted = child["attempted"]
    failed = len(child["failures"])
    metrics = child["layers"] if args.trace else end_to_end(setups, child)
    env = dict(child["env"], git_commit=git_commit(),
               workload=args.workload, seed=args.seed, trace=args.trace,
               pass_walls_s=child["wall_s"],
               reference_exact=child["reference_exact"])
    print("env " + json.dumps(env, sort_keys=True))
    for failure in child["failures"]:
        print(f"FAILED {failure['task']}: {'; '.join(failure['problems'])}")
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_ratio':28s} {failed / attempted:.6g} 1")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
