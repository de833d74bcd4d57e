"""Correctness gate of the benchmark.

A task run fails when any of these holds:

* ``run_config`` raised;
* its report has ``pass`` false;
* ``reverify_report`` on the written report file disagrees with it;
* any quadrature record in the report carries ``converged: false``;
* its numeric fingerprint moved past ``RTOL * |ref| + ATOL`` from the
  stored reference of that seed (``reference.json``).

The reference is stored for a range of seeds.  For a seed outside it, the
entries that are the same at every stored seed are still compared; the
seed-dependent ones are then only required to be finite.

Independent oracles run after the timed pass: the dense and the stepping
heat realizations must give the same kernel columns on the 16x16 torus, and
every column must carry unit mass (sum_y p(t, x, y) mu_y = 1).
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

RTOL = 1e-6
# covers the flat-torus c_kappa (~6e-12, pure round-off) and weak residuals
ATOL = 1e-9
ORACLE_TOL = 1e-10
MOVED = "moved from reference"

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------

def _rec(report, name):
    for rec in report["records"]:
        if rec["name"] == name:
            return rec
    raise KeyError(f"report of task {report['task']!r} has no record {name!r}")


def _fp_counterexample(rep):
    sweep = _rec(rep, "ck_growth")["report"]
    out = {"grad_slope": sweep["grad_slope"]}
    for h, ck, g, gam in zip(sweep["h_list"], sweep["c_kappa"],
                             sweep["sup_grad"], sweep["gamma"]):
        out[f"c_kappa@h={h:g}"] = ck
        out[f"sup_grad@h={h:g}"] = g
        out[f"gamma@h={h:g}"] = gam
    return out


def _fp_gaussian(rep):
    fit = _rec(rep, "gaussian")["report"]
    return {"C": fit["C"], "C1": fit["C1"], "C2": fit["C2"]}


def _fp_heat_caccioppoli(rep):
    return {f"lhs@{r['name']}": r["lhs"] for r in rep["records"]
            if r["name"].startswith("heat_caccioppoli_s=")}


def _fp_curvature(rep):
    rec = _rec(rep, "curvature")
    return {"c_kappa": rec["constant"],
            "commutation_margin": rec["commutation_margin"]}


def _fp_gradest(rep):
    rec = rep["records"][0]
    return {"c_kappa": rec["report"]["inputs"]["c_kappa"],
            "sup_grad": rec["lhs"], "constant": rec["constant"]}


def _fp_doubling(rep):
    d = _rec(rep, "doubling")["report"]
    return {"C_d": d["C_d"], "Q_fit": d["Q_fit"], "C_Q": d["C_Q"]}


def _fp_poincare(rep):
    return {"C_P": _rec(rep, "poincare")["report"]["C_P"]}


def _fp_solve(rep):
    return {"weak_residual": _rec(rep, "weak_residual")["lhs"]}


def _fp_hoelder(rep):
    rec = _rec(rep, "hoelder")
    return {"gamma": rec["report"]["gamma"], "C": rec["report"]["constant"]}


def _fp_harnack(rep):
    return {"C": _rec(rep, "harnack")["constant"]}


_FINGERPRINTS = {
    "counterexample": _fp_counterexample, "gaussian": _fp_gaussian,
    "heat-caccioppoli": _fp_heat_caccioppoli, "curvature": _fp_curvature,
    "gradest": _fp_gradest, "doubling": _fp_doubling,
    "poincare": _fp_poincare, "solve": _fp_solve, "hoelder": _fp_hoelder,
    "harnack": _fp_harnack,
}


def fingerprint(report: dict) -> dict:
    """The numbers of one task report that the gate pins, as floats."""
    return {k: float(v) for k, v in _FINGERPRINTS[report["task"]](report).items()}


# ---------------------------------------------------------------------------
# reference
# ---------------------------------------------------------------------------

def load_reference() -> dict:
    """{workload: {seed: {label: {key: value}}}}, or {} when absent."""
    if not os.path.exists(REFERENCE_PATH):
        return {}
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _close(got, want):
    if not (math.isfinite(got) and math.isfinite(want)):
        return False
    return abs(got - want) <= RTOL * abs(want) + ATOL


def expected_fingerprints(reference: dict, workload: str, seed: int):
    """(expected {label: {key: value}}, exact) for one workload and seed.

    `exact` is False when the seed is not stored: the expectation then holds
    only the entries that agree across every stored seed.
    """
    stored = reference.get(workload, {})
    if str(seed) in stored:
        return stored[str(seed)], True
    common: dict = {}
    seeds = list(stored.values())
    if not seeds:
        return common, False
    for label, keys in seeds[0].items():
        for key, value in keys.items():
            if all(_close(s.get(label, {}).get(key, math.nan), value)
                   for s in seeds[1:]):
                common.setdefault(label, {})[key] = value
    return common, False


def compare_fingerprint(got: dict, expected: dict) -> list:
    """Problems of one task's fingerprint against its expectation."""
    problems = []
    for key, value in got.items():
        if not math.isfinite(value):
            problems.append(f"{key} is not finite ({value})")
        elif key in expected and not _close(value, expected[key]):
            problems.append(f"{key}={value!r} {MOVED} {expected[key]!r}")
    for key in expected:
        if key not in got:
            problems.append(f"{key} missing from the fingerprint")
    return problems


# ---------------------------------------------------------------------------
# per-task gate
# ---------------------------------------------------------------------------

def _unconverged(obj) -> bool:
    if isinstance(obj, dict):
        if obj.get("converged") is False:
            return True
        return any(_unconverged(v) for v in obj.values())
    if isinstance(obj, list):
        return any(_unconverged(v) for v in obj)
    return False


def check_task(label, outcome, report_path, expected, reverify):
    """(reasons one task run failed, its fingerprint or None).

    `outcome` is (passed, report) from run_config or the exception it
    raised; `reverify` is ``mmslab.cli.reverify_report``.  No reasons means
    the run passed.
    """
    if isinstance(outcome, BaseException):
        return [f"raised {type(outcome).__name__}: {outcome}"], None
    passed, report = outcome
    problems = []
    if not passed or not report["pass"]:
        problems.append("report has pass = false")
    if not os.path.exists(report_path):
        problems.append("no report file written")
    else:
        with open(report_path) as fh:
            stored = json.load(fh)
        if not reverify(report_path):
            problems.append("verify-report disagrees with the stored report")
        if _unconverged(stored):
            problems.append("a quadrature reports converged = false")
    try:
        fp = fingerprint(report)
    except (KeyError, IndexError, TypeError) as e:
        return problems + [f"no fingerprint: {e}"], None
    return problems + compare_fingerprint(fp, expected.get(label, {})), fp


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def heat_oracles() -> list:
    """(name, problems) for the realization cross-check and unit mass."""
    from mmslab.heat import build_heat
    from mmslab.space import uniform_torus

    space = uniform_torus(16, 16)
    dense = build_heat(space, mode="dense")
    stepping = build_heat(space, mode="stepping")
    agree, mass = [], []
    for x0 in (0, 37, 255):
        for t in (0.25, 2.0, 16.0):
            pd = dense.kernel(t, x0)
            ps = stepping.kernel(t, x0)
            diff = float(np.max(np.abs(pd - ps)))
            if diff > ORACLE_TOL:
                agree.append(f"x0={x0} t={t}: |dense - stepping| = {diff:.3e}")
            for mode, p in (("dense", pd), ("stepping", ps)):
                err = abs(float(p @ space.mu) - 1.0)
                if err > ORACLE_TOL:
                    mass.append(f"{mode} x0={x0} t={t}: |sum p mu - 1| = {err:.3e}")
    return [("oracle:dense-vs-stepping", agree), ("oracle:unit-mass", mass)]
