"""Configuration-driven experiment runner.

Subcommands:

    mmslab run <config.json> [--out DIR] [--seed N]
    mmslab describe <task>
    mmslab export-space <config.json> <file>
    mmslab verify-report <report.json>

The config is a JSON mapping with keys {space, task, params, seed, out};
unknown keys anywhere are rejected.  Reports are JSON (one per task) with
the echoed config, its hash, the seed, and one record per checked
inequality; sweep tasks also write a flat CSV.  Exit codes: 0 all checks
passed, 1 verification failure, 2 usage/config error, 3 numerical failure.

One rule, `_verdict`, turns a record's stored numbers into its pass flag,
when the report is written and when `verify-report` reads it back: a
`bound` record passes when lhs <= constant * rhs, a `range` record when its
constant is finite and lo <= constant <= hi (a null end is open).

Random fields are drawn from numpy's default generator (PCG64) seeded from
the config, so identical configs reproduce identical reports.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__, blas
from .curvature import (check_commutation, default_sample_fields,
                        estimate_ckappa, variance)
from .elliptic import (Problem, check_caccioppoli, holder_fit, local_sup_bound,
                       solve, solver_path, weak_harnack, weak_residual)
from .errors import ConfigError, NumericalError
from .form import carre_du_champ, check_leibniz, energy, generator_apply
from .gradest import check_prop31, run_counterexample, verify_gradient_estimate
from .heat import build_heat, check_gaussian, check_heat_caccioppoli
from .reports import to_jsonable
from .space import (build_space, estimate_doubling, estimate_poincare, metric_ball,
                    vertex_complement)

CONFIG_KEYS = ("space", "task", "params", "seed", "out")


def _sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _check_keys(mapping, allowed, where):
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")


def _verdict(rec) -> bool:
    """The pass flag of a record, derived from its stored numbers alone."""
    c = rec["constant"]
    if rec["kind"] == "bound":
        return rec["lhs"] <= c * rec["rhs"]
    if rec["kind"] == "range":
        lo, hi = rec["lo"], rec["hi"]
        return (math.isfinite(c) and (lo is None or lo <= c)
                and (hi is None or c <= hi))
    raise ConfigError(f"record {rec['name']!r} has unknown kind {rec['kind']!r}")


def _record(name, lhs, rhs, constant, kind="bound", lo=None, hi=None, **extra):
    """One report record of a kind `_verdict` knows, which sets its pass flag."""
    rec = {"name": name, "kind": kind, "lhs": float(lhs), "rhs": float(rhs),
           "constant": float(constant)}
    if kind == "range":
        rec["lo"], rec["hi"] = (None if v is None else float(v) for v in (lo, hi))
    rec.update(to_jsonable(extra))
    rec["pass"] = _verdict(rec)
    return rec


def _required(mapping, key):
    """mapping[key] for a required config key; a missing one is a config error."""
    if key not in mapping:
        raise ConfigError(f"missing required parameter {key!r}")
    return mapping[key]


def _resolve_vertex(space, ref):
    if isinstance(ref, (list, tuple)):
        return space.vertex_at(ref)
    return int(ref)


def _boundary_field(space, spec):
    _check_keys(spec, {"type", "coeffs", "value", "axis", "origin", "offset",
                       "center"}, "boundary")
    kind = spec.get("type")
    pos = space.positions
    if kind == "constant":
        return np.full(space.n, float(spec.get("value", 1.0)))
    if pos is None:
        raise ConfigError(f"boundary type {kind!r} needs an embedded space")
    if kind == "affine":
        coeffs = [float(c) for c in _required(spec, "coeffs")]
        out = np.full(space.n, coeffs[0])
        for d in range(min(len(coeffs) - 1, pos.shape[1])):
            out += coeffs[d + 1] * pos[:, d]
        return out
    if kind == "sgn_sqrt_x":
        x = pos[:, 0]
        return np.sign(x) * np.sqrt(np.abs(x))
    if kind == "coordinate":
        return pos[:, int(spec.get("axis", 0))].astype(float)
    if kind == "chart":
        axis = int(spec.get("axis", 0))
        c = _resolve_vertex(space, _required(spec, "center"))
        L = pos[:, axis].max() - pos[:, axis].min() + 1.0
        return (pos[:, axis] - pos[c, axis] + L / 2) % L - L / 2
    if kind == "distance_plus":
        origin = _resolve_vertex(space, _required(spec, "origin"))
        return space.distances_from(origin) + float(spec.get("offset", 1.0))
    raise ConfigError(f"unknown boundary type {kind!r}")


def _domain_vertices(space, spec):
    _check_keys(spec, {"type", "center", "radius", "r_in", "r_out"}, "domain")
    kind = spec.get("type")
    if kind == "all_interior":
        if space.rim.size == 0:
            raise ConfigError("all_interior needs a space with a geometric rim")
        return vertex_complement(space.n, space.rim)
    if kind == "ball":
        c = _resolve_vertex(space, _required(spec, "center"))
        return metric_ball(space, c, float(_required(spec, "radius"))).members
    if kind == "annulus":
        c = _resolve_vertex(space, _required(spec, "center"))
        d = space.distances_from(c)
        r_in, r_out = float(_required(spec, "r_in")), float(_required(spec, "r_out"))
        return np.flatnonzero((d > r_in) & (d < r_out))
    raise ConfigError(f"unknown domain type {kind!r}")


def _build_problem(space, params):
    prob_spec = _required(params, "problem")
    _check_keys(prob_spec, {"domain", "boundary", "lambda", "f"}, "problem")
    domain = _domain_vertices(space, _required(prob_spec, "domain"))
    bc = _boundary_field(space, _required(prob_spec, "boundary"))
    lam = np.full(space.n, float(prob_spec.get("lambda", 0.0)))
    f = np.full(space.n, float(prob_spec.get("f", 0.0)))
    return Problem(space, domain, bc, lam, f)


def _positive(params, names):
    for nm in names:
        if nm in params and not (float(params[nm]) > 0):
            raise ConfigError(f"parameter {nm!r} must be positive")


# -- task handlers (each returns a list of records + optional csv rows) ------

def _task_doubling(space, params, seed):
    _check_keys(params, {"R0"}, "params")
    _positive(params, ["R0"])
    rep = estimate_doubling(space, float(_required(params, "R0")))
    return [_record("doubling", rep.C_d, 1.0, rep.C_d, kind="range", lo=1.0,
                    report=rep)], None


def _task_poincare(space, params, seed):
    _check_keys(params, {"R0", "sample_count", "recheck_fields"}, "params")
    _positive(params, ["R0"])
    rep = estimate_poincare(space, float(_required(params, "R0")),
                            int(params.get("sample_count", 24)), seed=seed)
    # independent recheck: random fields on the worst ball must respect C_P
    rng = np.random.default_rng(seed + 1)
    ball = rep.worst_ball
    outer = metric_ball(space, ball.center, 2 * ball.radius)
    violations = 0
    for _ in range(int(params.get("recheck_fields", 100))):
        u = rng.standard_normal(space.n)
        mu_b = space.mu[ball.members]
        mean = float(mu_b @ u[ball.members] / mu_b.sum())
        left = float(np.sqrt(mu_b @ (u[ball.members] - mean) ** 2))
        gam = carre_du_champ(space, u)
        right = rep.C_P * ball.radius * float(
            np.sqrt(space.mu[outer.members] @ gam[outer.members]))
        if left > right * (1 + 1e-9):
            violations += 1
    return [_record("poincare", rep.C_P, 1.0, rep.C_P, kind="range",
                    lo=math.nextafter(0.0, 1.0), report=rep),
            _record("poincare_recheck", violations, 0.0, 1.0)], None


def _task_gaussian(space, params, seed):
    _check_keys(params, {"R", "pairs", "t_min_factor", "t_max_factor",
                         "t_points", "bracket"}, "params")
    H = build_heat(space)
    h = space.min_edge_length
    R = float(params.get("R", np.sqrt(space.n) / 4 * h))
    tmin = float(params.get("t_min_factor", 4.0)) * h * h
    tmax = min(float(params.get("t_max_factor", 64.0)) * h * h, R * R)
    t_grid = np.geomspace(tmin, tmax, int(params.get("t_points", 8)))
    fit = check_gaussian(H, t_grid, int(params.get("pairs", 200)), R,
                         seed=seed, bracket=float(params.get("bracket", 2.0)))
    return [_record("gaussian", fit.violations, 0.0, fit.C, report=fit)], None


def _task_heat_caccioppoli(space, params, seed):
    _check_keys(params, {"x", "R", "s_list", "c"}, "params")
    H = build_heat(space)
    x = _resolve_vertex(space, params.get("x", 0))
    R = float(_required(params, "R"))
    s_list = [float(s) for s in params.get("s_list", [R * R / 4, R * R])]
    c = float(params.get("c", 0.25))
    recs, lhs = [], []
    for s in sorted(s_list):
        rep = check_heat_caccioppoli(H, x, R, s, c=c)
        lhs.append(rep.lhs)
        recs.append(_record(f"heat_caccioppoli_s={s:g}", rep.lhs, rep.rhs,
                            rep.constant, kind="range", report=rep))
    # worst drop of the left side from one s to the next, as a bound <= 0
    drop = max((a - b - 1e-12 * abs(b) for a, b in zip(lhs, lhs[1:])), default=0.0)
    recs.append(_record("lhs_nondecreasing_in_s", drop, 0.0, 1.0))
    return recs, None


def _task_curvature(space, params, seed):
    _check_keys(params, {"T", "n_random", "margin_t"}, "params")
    _positive(params, ["T"])
    H = build_heat(space)
    T = float(params.get("T", 1.0))
    rep = estimate_ckappa(H, T, seed=seed,
                          n_random=int(params.get("n_random", 32)))
    fields = default_sample_fields(H, seed=seed,
                                   n_random=int(params.get("n_random", 32)),
                                   smoothed=False)
    t_m = float(params.get("margin_t", np.sqrt(space.min_edge_length ** 2 * T)))
    margin = check_commutation(H, fields, t_m)
    return [_record("curvature", rep.c_kappa, 1.0, rep.c_kappa, kind="range",
                    lo=0.0, report=rep, commutation_margin=margin,
                    commutation_t=t_m)], None


def _task_solve(space, params, seed):
    _check_keys(params, {"problem"}, "params")
    prob = _build_problem(space, params)
    u = solve(prob)
    res = weak_residual(prob, u)
    scale = float((np.max(np.abs(u)) + np.max(np.abs(prob.source)))
                  * max(float(np.max(space.degree)), 1.0))
    recs = [_record("weak_residual", res, max(scale, 1e-300), 1e-9,
                    solver=solver_path(prob))]
    if np.max(np.abs(prob.lam)) == 0 and np.max(np.abs(prob.source)) == 0:
        comp = vertex_complement(space.n, prob.domain)
        in_min, in_max = float(np.min(u[prob.domain])), float(np.max(u[prob.domain]))
        out_min, out_max = float(np.min(u[comp])), float(np.max(u[comp]))
        # worst excursion of the interior values beyond the boundary range
        recs.append(_record("maximum_principle",
                            max(out_min - in_min, in_max - out_max),
                            abs(out_min) + abs(out_max) + 1e-300, 1e-9))
    return recs, None


def _ball_param(space, params):
    spec = _required(params, "ball")
    _check_keys(spec, {"center", "radius"}, "ball")
    c = _resolve_vertex(space, _required(spec, "center"))
    return metric_ball(space, c, float(_required(spec, "radius")))


def _task_caccioppoli(space, params, seed):
    _check_keys(params, {"problem", "y0", "r1", "r2"}, "params")
    prob = _build_problem(space, params)
    u = solve(prob)
    g = -prob.lam * u + prob.source
    y0 = _resolve_vertex(space, _required(params, "y0"))
    rep = check_caccioppoli(space, u, g, y0, float(_required(params, "r1")),
                            float(_required(params, "r2")))
    return [_record("caccioppoli", rep.lhs, rep.rhs, rep.constant,
                    kind="range", report=rep)], None


def _task_moser(space, params, seed):
    _check_keys(params, {"problem", "ball", "p", "Q"}, "params")
    prob = _build_problem(space, params)
    u = solve(prob)
    ball = _ball_param(space, params)
    rep = local_sup_bound(space, u, prob.lam, ball, float(params.get("p", 2.0)),
                          Q=params.get("Q"))
    return [_record("moser", rep.lhs, rep.rhs, rep.constant,
                    kind="range", report=rep)], None


def _task_harnack(space, params, seed):
    _check_keys(params, {"problem", "ball", "q", "cap"}, "params")
    prob = _build_problem(space, params)
    u = solve(prob)
    ball = _ball_param(space, params)
    cap = float(params.get("cap", 1e3))
    rep = weak_harnack(space, u, ball, float(params.get("q", 0.5)), cap=cap)
    return [_record("harnack", rep.lhs, rep.rhs, rep.constant, kind="range",
                    hi=cap, report=rep)], None


def _task_hoelder(space, params, seed):
    _check_keys(params, {"problem", "ball", "cap"}, "params")
    prob = _build_problem(space, params)
    u = solve(prob)
    ball = _ball_param(space, params)
    g = -prob.lam * u + prob.source
    cap = float(params.get("cap", 1e3))
    rep = holder_fit(space, u, ball, g, cap=cap, seed=seed)
    return [_record("hoelder", rep.constant, 1.0, rep.constant, kind="range",
                    hi=cap, report=rep)], None


def _task_prop31(space, params, seed):
    _check_keys(params, {"problem", "y0", "R"}, "params")
    prob = _build_problem(space, params)
    u = solve(prob)
    g = -prob.lam * u + prob.source
    rep = check_prop31(build_heat(space), space, u, g,
                       _resolve_vertex(space, _required(params, "y0")),
                       float(_required(params, "R")), seed=seed)
    return [_record("prop31", rep.lhs, rep.rhs, rep.constant,
                    kind="range", report=rep)], None


def _task_gradest(space, params, seed):
    _check_keys(params, {"problem", "ball", "mode", "T", "n_random"}, "params")
    mode = params.get("mode", "thm11")
    prob = _build_problem(space, params)
    ball = _ball_param(space, params)
    H = build_heat(space)
    T = float(params.get("T", ball.radius ** 2))
    ck = estimate_ckappa(H, T, seed=seed, n_random=int(params.get("n_random", 16)))
    rep = verify_gradient_estimate(H, space, prob, ball, mode, ck)
    return [_record(f"gradest_{mode}", rep.left, rep.right, rep.constant,
                    kind="range", report=rep)], None


def _task_counterexample(space, params, seed):
    _check_keys(params, {"h_list", "T", "inner_radius", "n_random",
                         "slope_range", "gamma_range", "ck_min_ratio"}, "params")
    rep = run_counterexample([float(h) for h in _required(params, "h_list")],
                             T=float(params.get("T", 1 / 64)),
                             inner_radius=float(params.get("inner_radius", 0.2)),
                             n_random=int(params.get("n_random", 8)), seed=seed)
    slo, shi = params.get("slope_range", (-0.65, -0.35))
    glo, ghi = params.get("gamma_range", (0.4, 0.6))
    min_ratio = float(params.get("ck_min_ratio", 2.0))
    # worst drop of c_kappa from one mesh to the next, as a bound <= 0
    ck = rep.c_kappa
    drop = max(a - b * (1 + 1e-9) for a, b in zip(ck, ck[1:]))
    recs = [
        _record("grad_slope", rep.grad_slope, 1.0, rep.grad_slope, kind="range",
                lo=slo, hi=shi),
        # gamma sits on a grid of 0.05 steps, and 12 * 0.05 > 0.6
        _record("gamma_finest", rep.gamma[-1], 1.0, rep.gamma[-1], kind="range",
                lo=glo, hi=ghi + 1e-12),
        _record("ck_growth", rep.ck_ratio, min_ratio, rep.ck_ratio, kind="range",
                lo=min_ratio, report=rep),
        _record("ck_nondecreasing", drop, 0.0, 1.0),
    ]
    return recs, rep.rows


def _task_all(space, params, seed):
    _check_keys(params, {"n_fields", "T"}, "params")
    rng = np.random.default_rng(seed)
    n_fields = int(params.get("n_fields", 20))
    recs = []

    worst_ident = 0.0
    for _ in range(n_fields):
        u, v, p = rng.standard_normal((3, space.n))
        worst_ident = max(worst_ident, check_leibniz(space, u, v, p))
        worst_ident = max(worst_ident, abs(
            float((v * space.mu) @ generator_apply(space, u))
            + energy(space, v, u)))
    recs.append(_record("exact_identities", worst_ident, 1.0, 1e-10))

    H = build_heat(space)
    ones = np.ones(space.n)
    t_ref = 0.5
    mass_err = float(np.max(np.abs(H.apply(ones, t_ref) - 1.0)))
    f = rng.standard_normal(space.n)
    semi_err = float(np.max(np.abs(
        H.apply(H.apply(f, 0.2), 0.3) - H.apply(f, 0.5))))
    pos_min = float(np.min(H.apply(np.abs(f), t_ref)))
    recs.append(_record("stochastic_completeness", mass_err, 1.0, 1e-10))
    recs.append(_record("semigroup_property", semi_err, 1.0, 1e-8))
    recs.append(_record("positivity", pos_min, 1.0, pos_min, kind="range", lo=0.0))

    T = float(params.get("T", 1.0))
    ck = estimate_ckappa(H, T, seed=seed, n_random=min(n_fields, 16))
    recs.append(_record("curvature", ck.c_kappa, 1.0, ck.c_kappa, kind="range",
                        lo=0.0))

    if space.n == 2:
        errs = [float(np.max(np.abs(H.eigenvalues - [0.0, 2.0]))),
                float(np.max(np.abs(generator_apply(space, np.array([0.0, 1.0]))
                                    - [1.0, -1.0])))]
        for t in (0.01, 0.1, 1.0, 10.0):
            got = H.apply(np.array([0.0, 1.0]), t)
            want = np.array([(1 - np.exp(-2 * t)) / 2, (1 + np.exp(-2 * t)) / 2])
            errs.append(float(np.max(np.abs(got - want))))
            errs.append(abs(H.kernel(t, 0)[0] - (1 + np.exp(-2 * t)) / 2))
            errs.append(float(np.max(np.abs(
                variance(H, np.array([0.0, 1.0]), t)
                - (1 - np.exp(-4 * t)) / 4))))
        recs.append(_record("two_point_closed_forms", max(errs), 1.0, 1e-12))
    return recs, None


# name -> (handler, the inequality it checks, as `describe` prints it)
_TASKS = {
    "doubling": (_task_doubling,
                 "measures C_d in mu(B(x,2r)) <= C_d mu(B(x,r)) and fits the "
                 "power law mu(B(x,R)) <= C_Q (R/r)^Q mu(B(x,r))"),
    "poincare": (_task_poincare,
                 "measures the sharp C_P in ||u - u_B||_L2(B) <= C_P r "
                 "||sqrt(Gamma(u,u))||_L2(2B) over sampled balls"),
    "gaussian": (_task_gaussian,
                 "fits C, C1, C2 in C^-1 mu(B(x,sqrt(t)))^-1 exp(-d^2/(C2 t)) "
                 "<= p(t,x,y) <= C mu(B(x,sqrt(t)))^-1 exp(-d^2/(C1 t))"),
    "heat-caccioppoli": (_task_heat_caccioppoli,
                         "checks int_0^s int_{B(x,2R)\\B(x,R)} |D_y p(t,x,y)|^2 "
                         "dmu dt <= C mu(B(x,R))^-1 exp(-c R^2/s)"),
    "curvature": (_task_curvature,
                  "estimates the smallest c_kappa(T) with T_t(g^2) - (T_t g)^2 "
                  "<= (2t + c_kappa t^2) T_t(|Dg|^2) for t <= T, plus the "
                  "commutation margin min T_t|Dg|^2 - |D T_t g|^2"),
    "solve": (_task_solve,
              "solves the weak equation -int Du.Dphi dmu = int (lambda u - f) "
              "phi dmu on a vertex domain with Dirichlet data and re-verifies "
              "the residual on every interior hat"),
    "caccioppoli": (_task_caccioppoli,
                    "checks int_{B(r1)} |Du|^2 dmu <= C/(r2-r1)^2 int_{B(r2)} "
                    "u^2 dmu + int_{B(r2)} |g||u| dmu for a solved u"),
    "moser": (_task_moser,
              "reports the realized C in sup_B |u| <= C (avg_{2B} |u|^p)^{1/p}"),
    "harnack": (_task_harnack,
                "reports the realized C in (avg_{2B} u^q)^{1/q} <= C inf_B u "
                "for a positive superharmonic u"),
    "hoelder": (_task_hoelder,
                "fits gamma, C in |u(x)-u(y)| <= C (sup|u|(4B) + R^2 "
                "sup|g|(4B)) (d(x,y)/R)^gamma over pairs in 2B"),
    "prop31": (_task_prop31,
               "checks the averaged-energy bound J(x0,R^2) <= C "
               "(sup|u|(8B)^2/R^2 + R^2 sup|g|(8B)^2), "
               "J(x0,t) = (1/t) int_0^t T_s|D(u psi)|^2(x0) ds"),
    "gradest": (_task_gradest,
                "verifies a gradient-estimate conclusion: sup_B|Du| <= "
                "C (1/R + sqrt(c_kappa)) * [norms of u and g] (modes thm31, "
                "thm11) or |Du|/u <= C (sqrt(c_kappa) + 1/R) (mode thm12)"),
    "counterexample": (_task_counterexample,
                       "sweeps the sqrt|x|-weighted square: sup|Du| grows like "
                       "h^{-1/2}, the Hoelder exponent stays near 1/2, and the "
                       "curvature constant diverges (no lower curvature bound, "
                       "hence no Lipschitz regularity)"),
    "all": (_task_all,
            "runs the identity, semigroup, curvature and (on the two-point "
            "space) closed-form batteries on the configured space"),
}
TASKS = tuple(_TASKS)


def run_config(config: dict, out_dir=None, seed=None):
    """Execute one task config; returns (passed, report dict, csv rows)."""
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(config, CONFIG_KEYS, "config")
    task = config.get("task")
    if task not in TASKS:
        raise ConfigError(f"unknown task {task!r}; choose from {TASKS}")
    params = config.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("params must be a mapping")
    seed = int(config.get("seed", 0) if seed is None else seed)
    if task != "counterexample" and "space" not in config:
        raise ConfigError(f"task {task!r} needs a space")

    # one BLAS thread, except in the heat layer's spectral work (`blas`)
    with blas.task() as threads:
        space = None if task == "counterexample" else build_space(config["space"])
        records, csv_rows = _TASKS[task][0](space, params, seed)
    passed = all(r["pass"] for r in records)
    report = {
        "task": task,
        "artifact_version": __version__,
        "seed": seed,
        "config": config,
        "config_sha256": _sha256(config),
        "space": None if space is None else
                 {"name": space.name, "vertices": space.n, "edges": space.n_edges},
        "records": records,
        "pass": passed,
        # not a record: verify-report and the config hash never read it
        "blas": threads,
    }
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"report_{task}.json")
        with open(path, "w") as fh:
            json.dump(to_jsonable(report), fh, indent=2, sort_keys=True)
        if csv_rows:
            cpath = os.path.join(out_dir, f"{task}.csv")
            with open(cpath, "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(csv_rows[0]))
                writer.writeheader()
                writer.writerows(csv_rows)
    return passed, report, csv_rows


def reverify_report(path: str) -> bool:
    """Whether every pass flag of a stored report, and the report's own, is
    the one `_verdict` derives from the stored numbers."""
    with open(path) as fh:
        report = json.load(fh)
    try:
        records = report["records"]
        if any(rec["pass"] is not _verdict(rec) for rec in records):
            return False
        return report["pass"] is all(rec["pass"] for rec in records)
    except KeyError as e:
        raise ConfigError(f"report {path} lacks the field {e.args[0]!r}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mmslab",
        description="metric-measure-space laboratory on weighted graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a task from a JSON config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--seed", type=int, default=None)

    p_desc = sub.add_parser("describe", help="describe the inequality a task checks")
    p_desc.add_argument("task")

    p_exp = sub.add_parser("export-space", help="write the space as plain text")
    p_exp.add_argument("config")
    p_exp.add_argument("file")

    p_ver = sub.add_parser("verify-report",
                           help="re-derive pass flags from a stored report")
    p_ver.add_argument("report")

    args = parser.parse_args(argv)
    try:
        if args.command == "describe":
            if args.task not in _TASKS:
                print(f"unknown task {args.task!r}; tasks: {', '.join(TASKS)}",
                      file=sys.stderr)
                return 2
            print(f"{args.task}: {_TASKS[args.task][1]}")
            return 0
        if args.command == "export-space":
            with open(args.config) as fh:
                config = json.load(fh)
            _check_keys(config, CONFIG_KEYS, "config")
            space = build_space(config.get("space", {}))
            with open(args.file, "w") as fh:
                fh.write(space.to_text())
            print(f"wrote {space.n} vertices / {space.n_edges} edges to {args.file}")
            return 0
        if args.command == "verify-report":
            return 0 if reverify_report(args.report) else 1
        # run
        with open(args.config) as fh:
            config = json.load(fh)
        out_dir = args.out or config.get("out", "reports")
        passed, report, _ = run_config(config, out_dir=out_dir, seed=args.seed)
        for rec in report["records"]:
            flag = "PASS" if rec["pass"] else "FAIL"
            print(f"[{flag}] {rec['name']}: lhs={rec['lhs']:.6g} "
                  f"constant={rec['constant']:.6g}")
        print(f"report written to {out_dir}/report_{report['task']}.json")
        return 0 if passed else 1
    except (ConfigError, json.JSONDecodeError, FileNotFoundError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
