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
from .curvature import _draw, check_commutation, estimate_ckappa, variance
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


# the default of a parameter that has none
_REQUIRED = object()


def _required(mapping, key, default=_REQUIRED):
    """mapping[key], or `default` where the key is absent; a missing key
    without a default is a config error."""
    if key in mapping:
        return mapping[key]
    if default is _REQUIRED:
        raise ConfigError(f"missing required parameter {key!r}")
    return default


def _number(value, name, kind=float):
    """`value` as a `kind` (float or int): the one conversion of every
    numeric config value, where anything that is not a number is a config
    error."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"parameter {name!r} must be {what}, got {value!r}") from None


def _param(mapping, key, default=_REQUIRED, kind=float, positive=False):
    """mapping[key], or `default` where the key is absent, as a `kind`; a
    default of None is an optional parameter, which stays None."""
    value = _required(mapping, key, default)
    if value is None and default is None:
        return None
    value = _number(value, key, kind)
    if positive and not (value > 0):
        raise ConfigError(f"parameter {key!r} must be positive")
    return value


def _numbers(mapping, key, default=_REQUIRED, size=None):
    """mapping[key], or `default` where the key is absent, as a list of
    floats (of `size` entries where given; a null entry of a sized list,
    a range's open end, stays None)."""
    values = _required(mapping, key, default)
    if not isinstance(values, (list, tuple)) or size not in (None, len(values)):
        raise ConfigError(f"parameter {key!r} must be a list of "
                          f"{f'{size} ' if size else ''}numbers")
    return [None if v is None and size else _number(v, key) for v in values]


def _vertex(space, mapping, key, default=_REQUIRED):
    """The vertex mapping[key] names: an index, or the coordinates of an
    embedded vertex."""
    ref = _required(mapping, key, default)
    if isinstance(ref, (list, tuple)):
        return space.vertex_at([_number(c, key) for c in ref])
    return _number(ref, key, int)


def _boundary_field(space, spec):
    _check_keys(spec, {"type", "coeffs", "value", "axis", "origin", "offset",
                       "center"}, "boundary")
    kind = spec.get("type")
    pos = space.positions
    if kind == "constant":
        return np.full(space.n, _param(spec, "value", 1.0))
    if pos is None:
        raise ConfigError(f"boundary type {kind!r} needs an embedded space")
    if kind == "affine":
        coeffs = _numbers(spec, "coeffs")
        out = np.full(space.n, coeffs[0])
        for d in range(min(len(coeffs) - 1, pos.shape[1])):
            out += coeffs[d + 1] * pos[:, d]
        return out
    if kind == "sgn_sqrt_x":
        x = pos[:, 0]
        return np.sign(x) * np.sqrt(np.abs(x))
    if kind == "coordinate":
        return pos[:, _param(spec, "axis", 0, int)].astype(float)
    if kind == "chart":
        axis = _param(spec, "axis", 0, int)
        c = _vertex(space, spec, "center")
        L = pos[:, axis].max() - pos[:, axis].min() + 1.0
        return (pos[:, axis] - pos[c, axis] + L / 2) % L - L / 2
    if kind == "distance_plus":
        origin = _vertex(space, spec, "origin")
        return space.distances_from(origin) + _param(spec, "offset", 1.0)
    raise ConfigError(f"unknown boundary type {kind!r}")


def _domain_vertices(space, spec):
    _check_keys(spec, {"type", "center", "radius", "r_in", "r_out"}, "domain")
    kind = spec.get("type")
    if kind == "all_interior":
        if space.rim.size == 0:
            raise ConfigError("all_interior needs a space with a geometric rim")
        return vertex_complement(space.n, space.rim)
    if kind == "ball":
        c = _vertex(space, spec, "center")
        return metric_ball(space, c, _param(spec, "radius")).members
    if kind == "annulus":
        c = _vertex(space, spec, "center")
        d = space.distances_from(c)
        r_in, r_out = _param(spec, "r_in"), _param(spec, "r_out")
        return np.flatnonzero((d > r_in) & (d < r_out))
    raise ConfigError(f"unknown domain type {kind!r}")


def _build_problem(space, params):
    prob_spec = _required(params, "problem")
    _check_keys(prob_spec, {"domain", "boundary", "lambda", "f"}, "problem")
    domain = _domain_vertices(space, _required(prob_spec, "domain"))
    bc = _boundary_field(space, _required(prob_spec, "boundary"))
    lam = np.full(space.n, _param(prob_spec, "lambda", 0.0))
    f = np.full(space.n, _param(prob_spec, "f", 0.0))
    return Problem(space, domain, bc, lam, f)


# -- task handlers (each returns a list of records + optional csv rows) ------

def _task_doubling(space, params, seed):
    _check_keys(params, {"R0"}, "params")
    rep = estimate_doubling(space, _param(params, "R0", positive=True))
    return [_record("doubling", rep.C_d, 1.0, rep.C_d, kind="range", lo=1.0,
                    report=rep)], None


def _task_poincare(space, params, seed):
    _check_keys(params, {"R0", "sample_count", "recheck_fields"}, "params")
    rep = estimate_poincare(space, _param(params, "R0", positive=True),
                            _param(params, "sample_count", 24, int), seed=seed)
    # independent recheck: random fields on the worst ball must respect C_P
    rng = np.random.default_rng(seed + 1)
    ball = rep.worst_ball
    outer = metric_ball(space, ball.center, 2 * ball.radius)
    violations = 0
    for _ in range(_param(params, "recheck_fields", 100, int, positive=True)):
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
    R = _param(params, "R", np.sqrt(space.n) / 4 * h)
    tmin = _param(params, "t_min_factor", 4.0) * h * h
    tmax = min(_param(params, "t_max_factor", 64.0) * h * h, R * R)
    t_grid = np.geomspace(tmin, tmax, _param(params, "t_points", 8, int, positive=True))
    fit = check_gaussian(H, t_grid, _param(params, "pairs", 200, int), R,
                         seed=seed, bracket=_param(params, "bracket", 2.0))
    return [_record("gaussian", fit.violations, 0.0, fit.C, report=fit)], None


def _task_heat_caccioppoli(space, params, seed):
    _check_keys(params, {"x", "R", "s_list", "c"}, "params")
    H = build_heat(space)
    x = _vertex(space, params, "x", 0)
    R = _param(params, "R")
    s_list = _numbers(params, "s_list", [R * R / 4, R * R])
    if not s_list:
        raise ConfigError("parameter 's_list' must hold at least one time")
    c = _param(params, "c", 0.25)
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
    T = _param(params, "T", 1.0, positive=True)
    n_random = _param(params, "n_random", 32, int)
    t_m = _param(params, "margin_t", np.sqrt(space.min_edge_length ** 2 * T))
    H = build_heat(space)
    rep = estimate_ckappa(H, T, seed=seed, n_random=n_random)
    # the commutation oracle takes the k drawn fields, not their smoothings
    drawn = _draw(space, np.random.default_rng(seed), range(rep.n_fields // 2))
    margin = check_commutation(H, drawn, t_m)
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
    """(ball, row): the `ball` parameter's ball and its center's distance
    row, which the ball is read off."""
    spec = _required(params, "ball")
    _check_keys(spec, {"center", "radius"}, "ball")
    c = _vertex(space, spec, "center")
    row = space.distances_from(c)
    return metric_ball(space, c, _param(spec, "radius"), row), row


def _task_caccioppoli(space, params, seed):
    _check_keys(params, {"problem", "y0", "r1", "r2"}, "params")
    prob = _build_problem(space, params)
    u = solve(prob)
    g = -prob.lam * u + prob.source
    y0 = _vertex(space, params, "y0")
    rep = check_caccioppoli(space, u, g, y0, _param(params, "r1"),
                            _param(params, "r2"))
    return [_record("caccioppoli", rep.lhs, rep.rhs, rep.constant,
                    kind="range", report=rep)], None


def _task_moser(space, params, seed):
    _check_keys(params, {"problem", "ball", "p", "Q"}, "params")
    prob = _build_problem(space, params)
    u = solve(prob)
    ball, _ = _ball_param(space, params)
    rep = local_sup_bound(space, u, prob.lam, ball, _param(params, "p", 2.0),
                          Q=_param(params, "Q", None))
    return [_record("moser", rep.lhs, rep.rhs, rep.constant,
                    kind="range", report=rep)], None


def _task_harnack(space, params, seed):
    _check_keys(params, {"problem", "ball", "q", "cap"}, "params")
    prob = _build_problem(space, params)
    u = solve(prob)
    ball, _ = _ball_param(space, params)
    cap = _param(params, "cap", 1e3)
    rep = weak_harnack(space, u, ball, _param(params, "q", 0.5), cap=cap)
    return [_record("harnack", rep.lhs, rep.rhs, rep.constant, kind="range",
                    hi=cap, report=rep)], None


def _task_hoelder(space, params, seed):
    _check_keys(params, {"problem", "ball", "cap"}, "params")
    prob = _build_problem(space, params)
    u = solve(prob)
    ball, row = _ball_param(space, params)
    g = -prob.lam * u + prob.source
    # the fit peaks with the center's row alive; the problem's fields are
    # not read past g
    del prob
    cap = _param(params, "cap", 1e3)
    rep = holder_fit(space, u, ball, g, cap=cap, seed=seed, row=row)
    return [_record("hoelder", rep.constant, 1.0, rep.constant, kind="range",
                    hi=cap, report=rep)], None


def _task_prop31(space, params, seed):
    _check_keys(params, {"problem", "y0", "R"}, "params")
    prob = _build_problem(space, params)
    u = solve(prob)
    g = -prob.lam * u + prob.source
    rep = check_prop31(build_heat(space), space, u, g,
                       _vertex(space, params, "y0"), _param(params, "R"),
                       seed=seed)
    return [_record("prop31", rep.lhs, rep.rhs, rep.constant,
                    kind="range", report=rep)], None


def _task_gradest(space, params, seed):
    _check_keys(params, {"problem", "ball", "mode", "T", "n_random"}, "params")
    mode = params.get("mode", "thm11")
    prob = _build_problem(space, params)
    ball, _ = _ball_param(space, params)
    H = build_heat(space)
    T = _param(params, "T", ball.radius ** 2)
    ck = estimate_ckappa(H, T, seed=seed, n_random=_param(params, "n_random", 16, int))
    rep = verify_gradient_estimate(H, space, prob, ball, mode, ck)
    return [_record(f"gradest_{mode}", rep.left, rep.right, rep.constant,
                    kind="range", report=rep)], None


def _task_counterexample(space, params, seed):
    _check_keys(params, {"h_list", "T", "inner_radius", "n_random",
                         "slope_range", "gamma_range", "ck_min_ratio"}, "params")
    slo, shi = _numbers(params, "slope_range", (-0.65, -0.35), size=2)
    glo, ghi = _numbers(params, "gamma_range", (0.4, 0.6), size=2)
    min_ratio = _param(params, "ck_min_ratio", 2.0)
    rep = run_counterexample(_numbers(params, "h_list"),
                             T=_param(params, "T", 1 / 64),
                             inner_radius=_param(params, "inner_radius", 0.2),
                             n_random=_param(params, "n_random", 8, int), seed=seed)
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
    n_fields = _param(params, "n_fields", 20, int, positive=True)
    recs = []

    worst_ident = largest = 0.0
    for _ in range(n_fields):
        u, v, p = rng.standard_normal((3, space.n))
        worst_ident = max(worst_ident, check_leibniz(space, u, v, p))
        e_vu = energy(space, v, u)
        worst_ident = max(worst_ident, abs(
            float((v * space.mu) @ generator_apply(space, u)) + e_vu))
        # the identities' terms grow like 1/h^2, and so does their round-off
        largest = max(largest, abs(energy(space, p, u * v)), abs(e_vu),
                      float(np.max(np.abs(generator_apply(space, u * v)))))
    recs.append(_record("exact_identities", worst_ident, max(1.0, largest), 1e-12))

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

    T = _param(params, "T", 1.0)
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
                         "dmu dt <= C mu(B(x,R))^-1 exp(-c R^2/s), the left "
                         "side by a locally adaptive log-time quadrature that "
                         "also converges for s << R^2"),
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
               "J(x0,t) = (1/t) int_0^t T_s|D(u psi)|^2(x0) ds, over the "
               "profile t in [h^2, R^2], each value read off one converged "
               "adaptive log-time quadrature with every profile time a "
               "breakpoint"),
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
    seed = _param(config, "seed", 0, int) if seed is None else int(seed)
    if task != "counterexample" and "space" not in config:
        raise ConfigError(f"task {task!r} needs a space")

    # every OpenBLAS runtime on one thread for the whole task, space build
    # included.  A runtime first mapped during the task (scipy's, by the
    # import for ARPACK or SuperLU) ran on one thread in the solvers' own
    # scopes; it follows the runtimes found, and each is listed at the count
    # it has after the task
    with blas.threads(1) as found:
        space = None if task == "counterexample" else build_space(config["space"])
        records, csv_rows = _TASKS[task][0](space, params, seed)
    ran = [rt for rt, _ in found]
    ran += [rt for rt in blas.runtimes() if rt not in ran]
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
        "blas": [{"library": rt.library, "start": rt.get(), "task": 1} for rt in ran],
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
