"""One benchmark process: set up, run timed passes, gate, optionally trace.

``run.py`` starts this file in a fresh interpreter with the BLAS thread
variables already set, so they take effect when numpy is first imported.
It prints one JSON object as the last line of its standard output.

    python3 perfbench/child.py --workload W --seed N --seconds S --trace 0|1
                               --t0 <parent monotonic clock> --out DIR
                               [--setup-only]
"""

from __future__ import annotations

import argparse
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Every layer metric of a traced run, with its unit.
LABELS = ("counterexample",
          "gaussian-t48", "hcacc-t48", "hcacc-t64", "curvature-t48",
          "curvature-tab32", "gradest-t32",
          "doubling-t64", "poincare-t64", "solve-g128", "hoelder-g128",
          "harnack-g64")
PER_LAYER = (
    [("space.build_s", "s"), ("space.build_calls", "count"),
     ("space.dist_s", "s"), ("space.dist_rows", "count"),
     ("space.dist_repeat_ratio", "1"), ("space.doubling_s", "s"),
     ("space.poincare_s", "s"), ("space.ball_calls", "count"),
     ("form.gamma_s", "s"), ("form.gamma_calls", "count"),
     ("heat.build_s", "s"), ("heat.build_dense", "count"),
     ("heat.build_stepping", "count"), ("heat.dense_n_sum", "count"),
     ("heat.action_s", "s"), ("heat.action_columns", "count"),
     ("heat.kernel_s", "s"), ("heat.kernel_columns", "count"),
     ("heat.gaussian_s", "s"), ("heat.caccioppoli_s", "s"),
     ("quad.s", "s"), ("quad.calls", "count"), ("quad.nodes", "count"),
     ("quad.useful_ratio", "1"), ("quad.levels_max", "count"),
     ("quad.unconverged", "count"),
     ("curvature.estimate_s", "s"), ("curvature.field_time_pairs", "count"),
     ("curvature.commutation_s", "s"),
     ("elliptic.solve_s", "s"), ("elliptic.solves", "count"),
     ("elliptic.unknowns", "count"), ("elliptic.cg_iters", "count"),
     ("elliptic.holder_s", "s"), ("elliptic.harnack_s", "s"),
     ("gradest.counterexample_s", "s"), ("gradest.verify_s", "s"),
     ("gradest.energy_s", "s")]
    + [(f"cli.{label}_s", "s") for label in LABELS]
    + [("cli.report_s", "s"), ("trace.overhead_s", "s"),
       ("trace.spans", "count")])


def run_tasks(task_list, out_dir, run_config, seed, tracer=None):
    """One pass over the task list; returns (outcomes, wall_s, cpu_s).

    An outcome is (passed, report) or the exception run_config raised.
    scipy's 1-norm estimator inside ``expm_multiply`` draws from numpy's
    global generator, so it is seeded first: every pass of one seed then
    does the same arithmetic.
    """
    import numpy as np

    np.random.seed(seed % 2 ** 32)
    outcomes = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for label, config in task_list:
        k = tracer.open(f"cli.{label}") if tracer is not None else None
        try:
            passed, report, _ = run_config(config,
                                           out_dir=os.path.join(out_dir, label))
            outcomes.append((passed, report))
        except Exception as e:      # a failed task is counted, not fatal
            outcomes.append(e)
        finally:
            if k is not None:
                tracer.close(k)
    return outcomes, time.perf_counter() - wall0, time.process_time() - cpu0


def gate_pass(task_list, outcomes, out_dir, expected, reverify):
    """[(label, problems)] for one pass; also returns its fingerprints."""
    import gate

    results, fps = [], {}
    for (label, config), outcome in zip(task_list, outcomes):
        path = os.path.join(out_dir, label, f"report_{config['task']}.json")
        problems, fps[label] = gate.check_task(label, outcome, path, expected,
                                               reverify)
        results.append((label, problems))
    return results, fps


def layer_metrics(tracer, overhead_s: float) -> dict:
    own = tracer.self_times()
    inc = tracer.inclusive_times()
    c = tracer.counts

    def ratio(a, b):
        return c[a] / c[b] if c[b] else 0.0

    values = {
        "space.dist_repeat_ratio": ratio("space.dist_repeats",
                                         "space.dist_from_calls"),
        "quad.s": inc["quad"],
        "quad.useful_ratio": ratio("quad.final_nodes", "quad.nodes"),
        "quad.levels_max": tracer.maxima["quad.levels_max"],
        "cli.report_s": own["cli.report"],
        "trace.overhead_s": overhead_s,
        "trace.spans": len(tracer.names),
    }
    for label in LABELS:
        values[f"cli.{label}_s"] = inc[f"cli.{label}"]
    out = {}
    for name, unit in PER_LAYER:
        if name in values:
            v = values[name]
        elif unit == "s":
            v = own[name[:-2]]
        else:
            v = c[name]
        out[name] = {"value": float(v), "unit": unit}
    return out


def environment(threads: str) -> dict:
    import numpy as np
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": threads,
            "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    # -- set-up: import the program and generate the seeded inputs -------------
    import json
    import resource

    import mmslab
    from mmslab.cli import reverify_report, run_config

    import gate
    import workloads
    from tracer import Tracer, traced

    where = os.path.realpath(mmslab.__file__)
    if not where.startswith(os.path.join(os.path.realpath(ROOT), "src") + os.sep):
        print(f"mmslab imported from {where}, not from this checkout",
              file=sys.stderr)
        return 2
    task_list = workloads.tasks(args.workload, args.seed)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    expected, exact = gate.expected_fingerprints(gate.load_reference(),
                                                 args.workload, args.seed)
    failures = []
    attempted = 0

    def account(results):
        nonlocal attempted
        for label, problems in results:
            attempted += 1
            if problems:
                failures.append({"task": label, "problems": problems})

    # -- timed passes, tracing off ------------------------------------------------
    walls, cpus, fps = [], [], None
    start = time.perf_counter()
    while not walls or (not args.trace
                        and time.perf_counter() - start < args.seconds):
        out_dir = os.path.join(args.out, f"pass{len(walls)}")
        outcomes, wall, cpu = run_tasks(task_list, out_dir, run_config,
                                        args.seed)
        walls.append(wall)
        cpus.append(cpu)
        results, pass_fps = gate_pass(task_list, outcomes, out_dir, expected,
                                      reverify_report)
        account(results)
        if fps is None:
            fps = pass_fps
        else:
            account([("repeat-pass", [] if pass_fps == fps else
                      ["fingerprints differ between passes"])])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- independent oracles, outside the timed passes ----------------------------
    account(gate.heat_oracles())

    result = {"setup_s": setup_s, "wall_s": walls, "cpu_s": cpus,
              "peak_rss_mb": peak_rss_mb, "reference_exact": exact,
              "fingerprints": fps,
              "env": environment(os.environ.get("OPENBLAS_NUM_THREADS", ""))}

    # -- traced pass ----------------------------------------------------------------
    if args.trace:
        tracer = Tracer()
        out_dir = os.path.join(args.out, "traced")
        with traced(tracer):
            outcomes, wall, _ = run_tasks(task_list, out_dir, run_config,
                                          args.seed, tracer)
        results, traced_fps = gate_pass(task_list, outcomes, out_dir, expected,
                                        reverify_report)
        account(results)
        account([("traced-pass", [] if traced_fps == fps else
                  ["traced fingerprints differ from untraced ones"])])
        result["layers"] = layer_metrics(tracer, wall - walls[0])

    result["attempted"] = attempted
    result["failures"] = failures
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
