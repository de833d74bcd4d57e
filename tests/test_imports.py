"""Which scipy modules a fresh interpreter loads.  Importing the package and
running the sqrt|x| sweep load neither scipy's graph nor its sparse-solver
code (nor scipy.linalg and scipy.special, which they pull in); a task that
runs ARPACK and SuperLU does, and brings scipy's OpenBLAS into its task."""

import json
import os
import subprocess
import sys
import textwrap

HEAVY = ("scipy.sparse.csgraph", "scipy.sparse.linalg", "scipy.linalg", "scipy.special")


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
        print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))
    """)
    assert loaded == []


def test_the_sqrt_sweep_loads_no_solver_stack():
    out = fresh(f"""
        import json, sys
        from mmslab.cli import run_config
        config = {{"task": "counterexample",
                   "params": {{"h_list": [1 / 8, 1 / 16, 1 / 32]}}, "seed": 3}}
        passed, report, _ = run_config(config)
        print(json.dumps({{"passed": passed,
                          "loaded": [m for m in {HEAVY!r} if m in sys.modules]}}))
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
                          "loaded": [m for m in {HEAVY!r} if m in sys.modules],
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
