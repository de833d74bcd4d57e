"""Gradient estimates for weak solutions, driven by the heat semigroup.

The central object is the time-averaged, kernel-weighted gradient energy of
a cut-off solution,

    J(x0, t) = (1/t) \\int_0^t T_s(Gamma(u psi, u psi))(x0) ds,

whose boundedness at t = R^2, combined with the curvature condition, closes
the Lipschitz estimates.  This module provides the cutoff construction, the
averaged energy and its profile, the exact variance identity behind it, the
semigroup decay checks, the a-priori bound on the averaged energy, the
three theorem-closing verifiers, and the degenerate-weight sweep where
Lipschitz regularity fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import _clip_variance, estimate_ckappa, variance
from .elliptic import Problem, holder_fit, solve, solver_path
from .errors import ConfigError
from .form import carre_du_champ, generator_apply, lip_field
from .heat import HeatOperator, build_heat
from .quad import cumulative_log_quadrature, log_time_quadrature
from .reports import (CurvatureReport, Measurement, RatioReport,
                      ScalingReport)
from .space import (Ball, MetricMeasureSpace, metric_ball, vertex_complement,
                    weighted_grid_2d)

PROFILE_POINTS = 12     # times of an averaged-energy profile on [h^2, R^2]
PROP31_PROBES = 4       # vertices of B(y0, R) probed by `check_prop31`


@dataclass
class Cutoff:
    """Piecewise-linear radial cutoff: 1 on B(y0, 2R), 0 outside B(y0, 4R)."""

    values: np.ndarray
    y0: int
    R: float
    c_psi: float            # realized gradient bound max sqrt(Gamma(psi)) * R
    support: np.ndarray     # members of B(y0, 4R)
    row: np.ndarray         # distances from y0: balls and probe checks read it


def build_cutoff(space: MetricMeasureSpace, y0: int, R: float) -> Cutoff:
    """psi(y) = clamp(2 - d(y0, y)/(2R), 0, 1) in the graph metric."""
    if not (R > 0):
        raise ConfigError("cutoff radius must be positive")
    d = space.distances_from(y0)
    four_b = metric_ball(space, y0, 4 * R, d)
    if four_b.members.size >= space.n:
        raise ConfigError("4R exceeds the space extent")
    psi = np.clip(2.0 - d / (2.0 * R), 0.0, 1.0)
    c_psi = float(np.sqrt(np.max(carre_du_champ(space, psi))) * R)
    return Cutoff(values=psi, y0=int(y0), R=float(R), c_psi=c_psi,
                  support=four_b.members, row=d)


def _require_probe(cutoff, x0):
    if cutoff.row[int(x0)] >= cutoff.R:
        raise ConfigError("probe vertex must lie in B(y0, R)")


def averaged_energy(H: HeatOperator, space: MetricMeasureSpace, u, cutoff: Cutoff,
                    x0: int, t: float) -> float:
    """J(x0, t): nonnegative; tends to Gamma(u psi)(x0) as t drops to mesh
    scale.  The one-time `averaged_energy_profile`."""
    if not (0 < t <= cutoff.R ** 2 * (1 + 1e-12)):
        raise ConfigError("need 0 < t <= R^2")
    return averaged_energy_profile(H, space, u, cutoff, x0, [t])[0][1]


def averaged_energy_profile(H: HeatOperator, space: MetricMeasureSpace, u,
                            cutoff: Cutoff, x0: int, ts) -> list:
    """[(t, J(x0, t))] on an ascending grid.  t * J is read off one
    converged `cumulative_log_quadrature` of a nonnegative integrand at each
    time, so every value carries the rule's tolerance, and the rule's
    positive panel weights make it nondecreasing."""
    _require_probe(cutoff, x0)
    F = carre_du_champ(space, space.check_field(u) * cutoff.values)
    x0 = int(x0)
    ts = np.asarray(ts, dtype=float)

    def eval_batch(tg):
        return [col[x0] for _, col in H.apply_grid(F, tg)]

    cum, _ = cumulative_log_quadrature(eval_batch, ts, zero_limit=float(F[x0]))
    return [(float(t), float(c / t)) for t, c in zip(ts, cum)]


def check_variance_identity(H: HeatOperator, space: MetricMeasureSpace, f,
                            x0: int, eps: float, t: float) -> float:
    """Absolute residual of the exact variance accumulation identity

        \\int_eps^t { T_s(A(f^2))(x0) - 2 T_s(Af)(x0) T_s(f)(x0) } ds
            = Var_t(f)(x0) - Var_eps(f)(x0),

    with the left side integrated independently by quadrature and the right
    side evaluated directly through the semigroup.
    """
    if not (0 < eps < t):
        raise ConfigError("need 0 < eps < t")
    f = space.check_field(f)
    fs = f - 0.5 * (f.max() + f.min())
    x0 = int(x0)
    stack = np.column_stack([generator_apply(space, fs * fs),
                             generator_apply(space, fs), fs])

    def eval_batch(ts):
        out = []
        for _, cols in H.apply_grid(stack, ts):
            out.append(cols[x0, 0] - 2.0 * cols[x0, 1] * cols[x0, 2])
        return out

    lhs, _ = log_time_quadrature(eval_batch, eps, t)
    rhs = float(variance(H, f, t)[x0] - variance(H, f, eps)[x0])
    return abs(lhs - rhs)


def _scale_norm(space, u, g_field, members, R):
    return (float(np.max(np.abs(u[members])))
            + R ** 2 * float(np.max(np.abs(g_field[members]))))


def check_semigroup_holder(H: HeatOperator, space: MetricMeasureSpace, u,
                           cutoff: Cutoff, x0: int, t_grid, gamma: float,
                           g_field) -> Measurement:
    """Decay of the smoothed oscillation around the probe:

        T_t(|u psi(.) - (u psi)(x0)|)(x0)
            <= C (sup|u|(4B) + R^2 sup|g|(4B)) R^{-gamma} t^{gamma/2}.

    Fits the smallest C over the grid and reports the log-log slope of the
    left side (target gamma/2).
    """
    if gamma is None:
        raise ConfigError("gamma required (run a Hoelder fit first)")
    _require_probe(cutoff, x0)
    R = cutoff.R
    t_grid = np.sort(np.asarray(t_grid, dtype=float))
    if np.any(t_grid <= 0) or np.any(t_grid > R ** 2 * (1 + 1e-12)):
        raise ConfigError("t grid must lie in (0, R^2]")
    u = space.check_field(u)
    g_field = space.check_field(g_field)
    w = u * cutoff.values
    F = np.abs(w - w[int(x0)])
    scale = _scale_norm(space, u, g_field, cutoff.support, R)

    lhs = np.array([col[int(x0)] for _, col in H.apply_grid(F, t_grid)])
    unit = scale * R ** (-gamma) * t_grid ** (gamma / 2.0)
    C = float(np.max(lhs / unit)) if scale > 0 else 0.0
    ok = lhs > 0
    slope = (float(np.polyfit(np.log(t_grid[ok]), np.log(lhs[ok]), 1)[0])
             if np.count_nonzero(ok) >= 2 else float("nan"))
    return Measurement(
        name="semigroup_holder", lhs=float(np.max(lhs)),
        rhs=float(np.max(unit)), constant=C,
        extras={"gamma": float(gamma), "slope": slope,
                "target_slope": gamma / 2.0,
                "table": [(float(a), float(b)) for a, b in zip(t_grid, lhs)]})


def variance_log_integral(H: HeatOperator, space: MetricMeasureSpace, u,
                          cutoff: Cutoff, x0: int, g_field,
                          gamma: float = None) -> Measurement:
    """Logarithmic time integral of the cutoff variance:

        \\int_0^{R^2} Var_t(u psi)(x0) dt/t
            <= C [sup|u|(4B) + R^2 sup|g|(4B)]^2,

    computed on [h^2, R^2]; the truncated head is reported as a remainder
    bound Var(h^2)/gamma when a Hoelder exponent is supplied (the variance
    vanishes like t^gamma near zero).
    """
    _require_probe(cutoff, x0)
    u = space.check_field(u)
    g_field = space.check_field(g_field)
    R = cutoff.R
    h2 = space.min_edge_length ** 2
    if h2 >= R ** 2:
        raise ConfigError("R below mesh scale")
    w = u * cutoff.values
    ws = w - 0.5 * (w.max() + w.min())
    stack = np.column_stack([ws * ws, ws])
    x0 = int(x0)

    def var_at(ts):
        return _clip_variance([cols[x0, 0] - cols[x0, 1] ** 2
                               for _, cols in H.apply_grid(stack, ts)], ws)

    integral, info = log_time_quadrature(lambda ts: var_at(ts) / ts, h2, R ** 2)
    scale = _scale_norm(space, u, g_field, cutoff.support, R)
    var_h2 = float(var_at(np.array([h2]))[0])
    remainder = var_h2 / gamma if gamma else None
    C = integral / scale ** 2 if scale > 0 else 0.0
    return Measurement(
        name="variance_log_integral", lhs=float(integral),
        rhs=float(scale ** 2), constant=float(C),
        extras={"remainder_bound": remainder, "var_at_h2": var_h2,
                "quadrature": info})


def _ball_inside(space, members):
    if space.rim.size:
        return not np.any(np.isin(members, space.rim))
    return members.size < space.n


def _profile_times(space, R):
    """`PROFILE_POINTS` geometric times on [h^2, R^2]; R^2 alone when h >= R."""
    h2 = space.min_edge_length ** 2
    if h2 >= R ** 2:
        return np.array([R ** 2])
    return np.geomspace(h2, R ** 2, PROFILE_POINTS)


def check_prop31(H: HeatOperator, space: MetricMeasureSpace, u, g_field,
                 y0: int, R: float, seed: int = 0) -> Measurement:
    """A-priori bound on the averaged energy at the top of the time window:

        J(x0, R^2) <= C ( sup|u|(8B)^2 / R^2 + R^2 sup|g|(8B)^2 ).

    Probes several x0 in B(y0, R); the realized constant covers the whole
    profile t -> J(x0, t) on [h^2, R^2], so it dominates the small-t limit
    as well.  Also reports the variance-side intermediate bound
    Var_{R^2}(u psi)(x0) / (2 R^2).
    """
    eight_b = metric_ball(space, y0, 8 * R)
    if not _ball_inside(space, eight_b.members):
        raise ConfigError("8B escapes the space")
    u = space.check_field(u)
    g_field = space.check_field(g_field)
    rhs = (float(np.max(np.abs(u[eight_b.members]))) ** 2 / R ** 2
           + R ** 2 * float(np.max(np.abs(g_field[eight_b.members]))) ** 2)
    cutoff = build_cutoff(space, y0, R)
    ball = metric_ball(space, y0, R, cutoff.row)
    rng = np.random.default_rng(seed)
    probes = [int(y0)]
    if ball.members.size > 1:
        extra = rng.choice(ball.members,
                           min(PROP31_PROBES - 1, ball.members.size - 1),
                           replace=False)
        probes += [int(v) for v in extra if v != y0]
    ts = _profile_times(space, R)

    j_end = 0.0
    realized = 0.0
    first_profile = None
    for x0 in probes:
        prof = averaged_energy_profile(H, space, u, cutoff, x0, ts)
        if first_profile is None:
            first_profile = prof
        j_end = max(j_end, prof[-1][1])
        realized = max(realized, max(j for _, j in prof) / rhs if rhs > 0 else 0.0)
    var_col = float(variance(H, u * cutoff.values, R ** 2)[probes[0]] / (2 * R ** 2))
    return Measurement(
        name="averaged_energy_bound", lhs=float(j_end), rhs=float(rhs),
        constant=float(realized),
        extras={"R": float(R), "probes": probes, "profile": first_profile,
                "variance_half_bound": var_col, "c_psi": cutoff.c_psi})


def verify_gradient_estimate(H: HeatOperator, space: MetricMeasureSpace,
                             problem: Problem, ball: Ball, mode: str,
                             curvature_report: CurvatureReport) -> RatioReport:
    """Realized constant of one of the three gradient-estimate conclusions.

    mode "thm31":  sup_B |Du| <= C (1/R + sqrt(ck)) [sup|u|(8B) + R^2 sup|g|(8B)]
    mode "thm11":  sup_B |Du| <= C (1/R + sqrt(ck)) avg_{2B} |u| dmu
    mode "thm12":  |Du|/u <= C (sqrt(ck) + 1/R) pointwise on B (u > 0 harmonic)

    |Du| is sqrt(Gamma(u,u)).  ck is the measured curvature constant from
    `curvature_report` (recorded in the inputs).  The report carries the
    averaged-energy profile at the ball center when the 8-fold ball fits in
    the solved domain.
    """
    if curvature_report is None:
        raise ConfigError("a curvature report is required")
    if mode not in ("thm31", "thm11", "thm12"):
        raise ConfigError(f"unknown mode {mode!r}")
    u = solve(problem)
    R, y0 = ball.radius, ball.center
    dom_mask = np.zeros(space.n, dtype=bool)
    dom_mask[problem.domain] = True
    d = space.distances_from(y0)
    two_b = metric_ball(space, y0, 2 * R, d)
    eight_b = metric_ball(space, y0, 8 * R, d)
    grad = np.sqrt(np.clip(carre_du_champ(space, u), 0.0, None))
    ck = float(curvature_report.c_kappa)
    g_field = -problem.lam * u + problem.source
    inputs = {"R": float(R), "c_kappa": ck,
              "curvature_T": float(curvature_report.T),
              "curvature_fields": int(curvature_report.n_fields),
              "lambda_sup": float(np.max(np.abs(problem.lam[problem.domain]))),
              # diagnostic companion to sqrt(Gamma): the neighbor-slope field
              "lip_sup": float(np.max(lip_field(space, u)[ball.members]))}

    if mode == "thm31":
        if not np.all(dom_mask[eight_b.members]):
            raise ConfigError("thm31 needs the problem solved on the 8-fold ball")
        norm = _scale_norm(space, u, g_field, eight_b.members, R)
        left = float(np.max(grad[ball.members]))
        right = (1.0 / R + np.sqrt(ck)) * norm
        inputs["norm"] = norm
    else:
        if not np.all(dom_mask[two_b.members]):
            raise ConfigError(f"{mode} needs the problem solved on the doubled ball")
        if mode == "thm12":
            if inputs["lambda_sup"] != 0.0 or \
                    float(np.max(np.abs(problem.source[problem.domain]))) != 0.0:
                raise ConfigError("thm12 requires lambda = 0 and f = 0")
            if np.min(u[two_b.members]) <= 0:
                raise ConfigError("thm12 requires u > 0 on the doubled ball")
            left = float(np.max(grad[ball.members] / u[ball.members]))
            right = np.sqrt(ck) + 1.0 / R
            inputs["inf_u"] = float(np.min(u[ball.members]))
            inputs["sup_grad"] = float(np.max(grad[ball.members]))
        else:
            mu2 = space.mu[two_b.members]
            avg = float(mu2 @ np.abs(u[two_b.members]) / mu2.sum())
            left = float(np.max(grad[ball.members]))
            right = (1.0 / R + np.sqrt(ck)) * avg
            inputs["avg_abs_u"] = avg

    profile = []
    if _ball_inside(space, eight_b.members) and np.all(dom_mask[eight_b.members]):
        profile = averaged_energy_profile(H, space, u, build_cutoff(space, y0, R),
                                          y0, _profile_times(space, R))

    constant = left / right if right > 0 else 0.0
    return RatioReport(theorem=mode, left=left, right=float(right),
                       constant=float(constant), inputs=inputs, profile=profile)


def run_counterexample(h_list, T: float = 1.0 / 64.0, inner_radius: float = 0.2,
                       n_random: int = 8, seed: int = 0) -> ScalingReport:
    """Refinement sweep of the sqrt|x|-weighted square where Lipschitz fails.

    For each mesh width h: build the space, solve the harmonic problem with
    boundary data sgn(x) sqrt|x|, and record the sup of sqrt(Gamma(u,u))
    over an inner ball at the degeneracy line, the curvature estimate at the
    fixed horizon T, and the fitted Hoelder exponent.  Reports the log-log
    slope of the sup-gradient against h (the continuum rate is -1/2, since
    |Du| ~ |x|^{-1/2} saturates at |x| ~ h) and the growth of the curvature
    constant.
    """
    h_list = [float(h) for h in h_list]
    if len(h_list) < 3 or any(h_list[i] <= h_list[i + 1] for i in range(len(h_list) - 1)):
        raise ConfigError("need at least 3 strictly decreasing mesh widths")
    if not (inner_radius > 0):
        raise ConfigError("inner_radius must be positive, or the inner ball is empty")
    sup_grads, cks, gammas, rows = [], [], [], []
    for h in h_list:
        space = weighted_grid_2d(((-1.0, 1.0), (-1.0, 1.0)), h, "sqrt_abs_x")
        x = space.positions[:, 0]
        bc = np.sign(x) * np.sqrt(np.abs(x))
        interior = vertex_complement(space.n, space.rim)
        problem = Problem(space, interior, bc)
        u = solve(problem)
        center = space.vertex_at((0.0, 0.0))
        row = space.distances_from(center)
        ball = metric_ball(space, center, inner_radius, row)
        grad = np.sqrt(np.clip(carre_du_champ(space, u), 0.0, None))
        sup_g = float(np.max(grad[ball.members]))

        H = build_heat(space)
        t_grid = np.unique(np.geomspace(min(h * h, T), T, 16))
        ck = estimate_ckappa(H, T, t_grid=t_grid, seed=seed,
                             n_random=n_random).c_kappa
        hoe = holder_fit(space, u, ball, np.zeros(space.n), seed=seed, row=row)
        sup_grads.append(sup_g)
        cks.append(float(ck))
        gammas.append(float(hoe.gamma))
        rows.append({"h": h, "n": space.n, "sup_grad": sup_g, "c_kappa": float(ck),
                     "gamma": float(hoe.gamma), "hoelder_constant": hoe.constant,
                     "heat_mode": H.mode, "solver": solver_path(problem)})

    slope = float(np.polyfit(np.log(h_list), np.log(sup_grads), 1)[0])
    ck_ratio = cks[-1] / cks[0] if cks[0] > 0 else float("inf")
    return ScalingReport(h_list=h_list, sup_grad=sup_grads, c_kappa=cks,
                         gamma=gammas, grad_slope=slope, ck_ratio=float(ck_ratio),
                         rows=rows)
