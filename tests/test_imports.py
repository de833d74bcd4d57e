"""Which scipy modules a fresh interpreter loads.  Importing the package,
running the sqrt|x| sweep and doubling on a cycle or a path load no scipy
module at all: W is held in numpy arrays, and every call into scipy imports
it at call time.  A task that runs ARPACK and SuperLU does load scipy's
sparse solvers, and brings scipy's OpenBLAS into its task."""

import json
import os
import subprocess
import sys
import textwrap

# every scipy module a fresh interpreter has loaded
LOADED = "[m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]"


def fresh(code):
    """Run `code` in a fresh interpreter with this checkout's package first
    on its path; returns the JSON object its last output line holds."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_package_loads_no_solver_stack():
    loaded = fresh(f"""
        import json, sys
        import mmslab, mmslab.cli
        print(json.dumps({LOADED}))
    """)
    assert loaded == []


def test_the_sqrt_sweep_loads_no_solver_stack():
    out = fresh(f"""
        import json, sys
        from mmslab.cli import run_config
        config = {{"task": "counterexample",
                   "params": {{"h_list": [1 / 8, 1 / 16, 1 / 32]}}, "seed": 3}}
        passed, report, _ = run_config(config)
        print(json.dumps({{"passed": passed, "loaded": {LOADED}}}))
    """)
    assert out == {"passed": True, "loaded": []}


def test_a_poincare_task_loads_the_sparse_solvers_and_their_blas():
    # not vacuous: ARPACK and SuperLU load scipy.sparse.linalg, and its
    # OpenBLAS, mapped inside the task, joins the task's report entry
    out = fresh(f"""
        import json, sys
        from mmslab import blas
        from mmslab.cli import run_config
        config = {{"space": {{"family": "torus", "n1": 8, "n2": 8}},
                   "task": "poincare", "params": {{"R0": 4.0, "sample_count": 6}},
                   "seed": 11}}
        passed, report, _ = run_config(config)
        print(json.dumps({{"passed": passed,
                          "loaded": {LOADED},
                          "entry": report["blas"],
                          "now": {{rt.library: rt.get() for rt in blas.runtimes()}}}}))
    """)
    assert out["passed"]
    assert {"scipy.sparse.csgraph", "scipy.sparse.linalg"} <= set(out["loaded"])
    libraries = [e["library"] for e in out["entry"]]
    assert sorted(libraries) == sorted(out["now"])
    assert any(name.startswith("libscipy_openblas-") for name in libraries)
    for e in out["entry"]:
        assert e["task"] == 1 and e["start"] == out["now"][e["library"]]


def test_doubling_on_a_cycle_or_a_path_loads_no_scipy():
    # a graph without factors is the product of one vertex and the graph
    # itself: its masses need no sparse sum over the vertex, and its rows
    # are running sums of the edge lengths
    out = fresh(f"""
        import json, sys
        from mmslab import estimate_doubling, uniform_cycle, weighted_grid_1d
        reps = [estimate_doubling(uniform_cycle(64), 16.0),
                estimate_doubling(weighted_grid_1d((-1.0, 1.0), 1 / 32, "sqrt_abs_x"), 0.5)]
        print(json.dumps({{"C_d": [rep.C_d for rep in reps], "loaded": {LOADED}}}))
    """)
    assert out["loaded"] == []
    assert out["C_d"][0] == 2.2
