"""Weak-form elliptic solver and local regularity checks.

Solves, on an interior vertex set Omega with Dirichlet data outside,

    -E(u, phi) - \\int lambda u phi dmu + \\int f phi dmu = 0

for every interior hat function phi (the affine right-side family
g(x, u) = -lambda(x) u + f(x) keeps the interior system symmetric).  The
interior system (L_I + lambda M_I) v = b has two solvers, chosen from the
structure of the problem (`solver_path`):

* fast diagonalization: on a product space X x Y whose factors pass
  `space.product_pays`, with Omega = I_x x I_y and lambda constant on it, the
  interior operator is L_x^I (x) M_y^I + M_x^I (x) L_y^I + lambda M_x^I (x)
  M_y^I.  One dense eigendecomposition of the pencil (L^I, M^I) per factor
  (one in all when a square product's one factor object serves both axes
  and I_x = I_y), L^I V = M^I V diag(w), solved as the standard problem
  scaled by (M^I)^-1/2 (`space.laplacian_spectrum`), gives the exact inverse
  v = V_x [(V_x^T B V_y) / (w_x,i + w_y,j + lambda)] V_y^T, with B the right
  side as an |I_x| x |I_y| array; nothing n x n and no sparse interior
  matrix is formed (Lynch, Rice and Thomas, Numer. Math. 6, 1964).  The
  smallest denominator min w_x + min w_y + lambda certifies positive
  definiteness.
* Jacobi-preconditioned conjugate gradients on the sparse interior matrix
  for every other problem, certified by connectivity of the interior
  subgraph (lambda >= 0) or a Lanczos estimate of its smallest eigenvalue.

Both paths re-verify the weak form on every interior hat independently of
the solver.  The checks measure the constants in the Caccioppoli
inequality, the local sup bound, the weak Harnack inequality, and the
Hoelder seminorm of the solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import blas
from .errors import ConfigError, NumericalError
from .form import carre_du_champ
from .reports import HoelderReport, Measurement
from .space import (Ball, MetricMeasureSpace, laplacian_spectrum, metric_ball,
                    product_pays)

# CG stops at this relative residual, or raises after 40 (sqrt(m) + 100)
# iterations on m unknowns.
CG_RTOL = 1e-13
# A positive-definiteness certificate at or below this fraction of the
# operator scale is treated as a failure.
PD_FLOOR = 1e-12
GAMMA_STEP = 0.05           # grid of the fitted Hoelder exponents
HOELDER_SOURCES = 48        # most seeded pair sources in the doubled ball
PAIR_BLOCK = 2 ** 15        # Hoelder pairs per block of the envelope and the constant


@dataclass
class Problem:
    """Dirichlet problem for L u = -lambda u + f on a vertex domain.

    `boundary_values` is a full-length field whose values outside `domain`
    act as Dirichlet data; `lam` and `source` are full-length fields read on
    the domain only.
    """

    space: MetricMeasureSpace
    domain: np.ndarray
    boundary_values: np.ndarray
    lam: np.ndarray = None
    source: np.ndarray = None

    def __post_init__(self):
        dom = np.array(self.domain, dtype=np.intp)
        # np.unique hashes; most callers pass a vertex set already sorted
        if dom.ndim != 1 or np.any(dom[1:] <= dom[:-1]):
            dom = np.unique(dom)
        self.domain = dom
        n = self.space.n
        if self.domain.size == 0 or self.domain[0] < 0 or self.domain[-1] >= n:
            raise ConfigError("domain must be a nonempty set of valid vertices")
        if self.domain.size >= n:
            raise ConfigError("domain must leave at least one boundary vertex")
        self.boundary_values = self.space.check_field(self.boundary_values)
        self.lam = (np.zeros(n) if self.lam is None
                    else self.space.check_field(self.lam))
        self.source = (np.zeros(n) if self.source is None
                       else self.space.check_field(self.source))


def _laplacian_apply(space: MetricMeasureSpace, u) -> np.ndarray:
    """L u = deg * u - W u, the graph Laplacian applied from W's arrays
    (`conductance_apply`) without forming the matrix D - W."""
    return space.degree * u - space.conductance_apply(u)


def _right_side(problem: Problem):
    """(b, u_b): interior right side and the Dirichlet data zeroed on the domain."""
    space = problem.space
    dom = problem.domain
    u_b = problem.boundary_values.copy()
    u_b[dom] = 0.0
    b = (space.mu * problem.source)[dom] - _laplacian_apply(space, u_b)[dom]
    return b, u_b


def solver_path(problem: Problem) -> str:
    """The path `solve` takes: "fast_diagonalization" when the space is a
    product whose factors pass `product_pays`, the domain is I_x x I_y and
    lambda is constant on it; "cg" otherwise."""
    space = problem.space
    if not product_pays(space.factors):
        return "cg"
    dom = problem.domain
    ny = space.factors[1].n
    ix, iy = np.divmod(dom, ny)
    # dom ascends, so ix does: its distinct values are its runs
    n_ix = 1 + np.count_nonzero(ix[1:] != ix[:-1])
    n_iy = np.count_nonzero(np.bincount(iy, minlength=ny))
    lam = problem.lam[dom]
    if n_ix * n_iy == dom.size and np.all(lam == lam[0]):
        return "fast_diagonalization"
    return "cg"


def _fast_diagonalization_solve(problem: Problem, b: np.ndarray) -> np.ndarray:
    """Interior solution on a product domain I_x x I_y with constant lambda."""
    X, Y = problem.space.factors
    dom = problem.domain
    ix, iy = np.divmod(dom, Y.n)
    # dom is I_x x I_y in row-major order: its first |I_y| entries share i
    m_y = int(np.count_nonzero(ix == ix[0]))
    wx, Vx = laplacian_spectrum(X, ix[::m_y])
    # a square product on a square domain has one factor problem, solved once
    same = Y is X and np.array_equal(ix[::m_y], iy[:m_y])
    wy, Vy = (wx, Vx) if same else laplacian_spectrum(Y, iy[:m_y])
    lam = float(problem.lam[dom[0]])
    denom = wx[:, None] + wy[None, :] + lam
    lam_min = float(wx[0] + wy[0] + lam)
    scale = float(wx[-1] + wy[-1] + abs(lam))
    if lam_min <= PD_FLOOR * scale:
        raise NumericalError(
            f"interior operator not positive definite: smallest eigenvalue "
            f"{lam_min:.3e} of the factor spectra (lambda too negative)")
    B = b.reshape(-1, m_y)
    return (Vx @ ((Vx.T @ B @ Vy) / denom) @ Vy.T).ravel()


def _certify_positive_definite(problem: Problem, A, Wd):
    """Positive-definiteness certificate for the sparse interior operator A,
    with Wd the conductances among the interior vertices.

    With lambda >= 0 the operator is SPD as soon as every component of the
    induced interior subgraph has an edge to the boundary (or carries
    positive lambda); only for sign-indefinite lambda is a Lanczos estimate
    of the smallest eigenvalue run.
    """
    space = problem.space
    dom = problem.domain
    lam_dom = problem.lam[dom]
    if np.min(lam_dom) >= 0:
        from scipy.sparse.csgraph import connected_components
        ncomp, labels = connected_components(Wd, directed=False)
        full_deg = space.degree[dom]
        inner_deg = np.asarray(Wd.sum(axis=1)).ravel()
        leak = full_deg - inner_deg > 1e-14 * full_deg
        for comp in range(ncomp):
            members = labels == comp
            if not (np.any(leak[members]) or np.any(lam_dom[members] > 0)):
                raise ConfigError(
                    "singular problem: an interior component touches no "
                    "boundary vertex and lambda vanishes on it")
        return None
    m = A.shape[0]
    if m == 1:
        lam_min = float(A[0, 0])
    else:
        from scipy.sparse.linalg import ArpackNoConvergence, eigsh
        try:
            # ARPACK calls scipy's OpenBLAS, which the import above maps
            with blas.threads(1):
                vals = eigsh(A, k=1, which="SA", tol=1e-6, maxiter=5000,
                             return_eigenvectors=False)
            lam_min = float(vals[0])
        except ArpackNoConvergence as e:
            if e.eigenvalues is not None and len(e.eigenvalues):
                lam_min = float(e.eigenvalues[0])
            else:
                raise NumericalError("Lanczos estimate did not converge") from e
    scale = float(np.max(np.abs(A.diagonal())))
    if lam_min <= PD_FLOOR * scale:
        raise NumericalError(
            f"interior operator not positive definite: smallest eigenvalue "
            f"estimate {lam_min:.3e} (lambda too negative)")
    return lam_min


def cg(A, b, **kwargs):
    """scipy's conjugate gradients, imported at call time.  `_cg_solve` calls
    it by this module-level name because perfbench's tracer rebinds it to
    count iterations; it goes with the benchmark change of ROADMAP item 1,
    once the tracer stops rebinding names."""
    from scipy.sparse.linalg import cg
    return cg(A, b, **kwargs)


def _cg_solve(problem: Problem, b: np.ndarray) -> np.ndarray:
    """Interior solution by Jacobi-preconditioned CG on the sparse system."""
    import scipy.sparse as sp
    space = problem.space
    dom = problem.domain
    Wd = space.conductance_matrix[dom][:, dom]
    # the interior block of D - W + lambda M, with no whole-graph D - W
    A = (sp.diags(space.degree[dom] + (problem.lam * space.mu)[dom]) - Wd).tocsr()
    _certify_positive_definite(problem, A, Wd)
    if float(np.max(np.abs(b))) == 0.0:
        return np.zeros_like(b)
    v, info = cg(A, b, rtol=CG_RTOL, atol=0.0, M=sp.diags(1.0 / A.diagonal()),
                 maxiter=40 * int(np.sqrt(A.shape[0]) + 100))
    if info != 0:
        raise NumericalError(f"CG failed to converge (info={info})")
    return v


def weak_residual(problem: Problem, u) -> float:
    """Max interior-hat residual of the weak form, evaluated from scratch."""
    space = problem.space
    u = space.check_field(u)
    r = ((space.mu * problem.source) - _laplacian_apply(space, u)
         - problem.lam * space.mu * u)[problem.domain]
    return float(np.max(np.abs(r))) if r.size else 0.0


def solve(problem: Problem) -> np.ndarray:
    """Solve the Dirichlet problem on the path `solver_path` picks.

    Fast diagonalization on a product domain with constant lambda (certified
    by the factor spectra), Jacobi-PCG otherwise (certified by connectivity
    or Lanczos); a certificate at or below `PD_FLOOR` times the operator
    scale raises `NumericalError`.  The returned field agrees with
    `boundary_values` outside the domain and satisfies the weak form on every
    interior hat to within 1e-9 * (|u|_inf + |f|_inf) * operator scale,
    re-verified independently of the solver.
    """
    b, u = _right_side(problem)
    # at one BLAS thread, as in a task: the products of either path round
    # differently on more threads
    with blas.threads(1):
        if solver_path(problem) == "fast_diagonalization":
            u[problem.domain] = _fast_diagonalization_solve(problem, b)
        else:
            u[problem.domain] = _cg_solve(problem, b)

    scale = (float(np.max(np.abs(u))) + float(np.max(np.abs(problem.source))))
    op_scale = float(np.max(problem.space.degree)) + float(
        np.max(np.abs(problem.lam * problem.space.mu)))
    tol = 1e-9 * max(scale * op_scale, 1e-300)
    res = weak_residual(problem, u)
    if res > tol:
        raise NumericalError(f"weak-form residual {res:.3e} exceeds {tol:.3e}")
    return u


def classify_harmonicity(space: MetricMeasureSpace, u, domain):
    """Classify u on a vertex set via the sign of -E(u, hat) over its hats.

    Returns (label, margin) with label in {"harmonic", "subharmonic",
    "superharmonic", "neither"}; the margin is the worst deviation from the
    defining inequalities of the assigned class.
    """
    u = space.check_field(u)
    domain = np.asarray(domain, dtype=np.intp)
    s = -_laplacian_apply(space, u)[domain]
    scale = (space.degree * np.abs(u) + space.conductance_apply(np.abs(u)))
    tol = 1e-8 * max(float(np.max(scale[domain])), 1e-300)
    lo, hi = float(np.min(s)), float(np.max(s))
    if lo >= -tol and hi <= tol:
        return "harmonic", max(abs(lo), abs(hi))
    if lo >= -tol:
        return "subharmonic", max(0.0, -lo)
    if hi <= tol:
        return "superharmonic", max(0.0, hi)
    return "neither", max(-lo, hi)


def check_caccioppoli(space: MetricMeasureSpace, u, g_field, y0: int,
                      r1: float, r2: float) -> Measurement:
    """Interior gradient energy against L2 mass plus the source coupling:

        \\int_{B(y0,r1)} Gamma(u,u) dmu
            <= C/(r2-r1)^2 \\int_{B(y0,r2)} u^2 dmu + \\int_{B(y0,r2)} |g||u| dmu
    """
    if not (r1 < r2):
        raise ConfigError("need r1 < r2")
    if r2 - r1 < space.min_edge_length * (1 - 1e-12):
        raise ConfigError("degenerate annulus: r2 - r1 below mesh scale")
    u = space.check_field(u)
    g_field = space.check_field(g_field)
    # both balls off one distance row: on a tabulated grid a row is a
    # Dijkstra run
    row = space.distances_from(y0)
    inner = metric_ball(space, y0, r1, row)
    outer = metric_ball(space, y0, r2, row)
    lhs = float(space.mu[inner.members]
                @ carre_du_champ(space, u)[inner.members])
    mass = float(space.mu[outer.members] @ u[outer.members] ** 2)
    coupling = float(space.mu[outer.members]
                     @ (np.abs(g_field) * np.abs(u))[outer.members])
    if lhs <= coupling or mass == 0.0:
        C = 0.0          # sentinel: the source term alone already dominates
    else:
        C = (lhs - coupling) * (r2 - r1) ** 2 / mass
    rhs = mass / (r2 - r1) ** 2
    return Measurement(
        name="caccioppoli", lhs=lhs, rhs=rhs, constant=float(C),
        extras={"r1": float(r1), "r2": float(r2), "mass_term": mass,
                "coupling_term": coupling})


def local_sup_bound(space: MetricMeasureSpace, u, lam, ball: Ball,
                    p: float, Q: float = None) -> Measurement:
    """Realized constant of |u|_inf(B) <= C (avg_{2B} |u|^p dmu)^{1/p}."""
    if not (p > 0):
        raise ConfigError("p must be positive")
    u = space.check_field(u)
    outer = metric_ball(space, ball.center, 2 * ball.radius)
    lhs = float(np.max(np.abs(u[ball.members]))) if ball.members.size else 0.0
    mu2 = space.mu[outer.members]
    rhs = float((mu2 @ np.abs(u[outer.members]) ** p / mu2.sum()) ** (1.0 / p))
    C = lhs / rhs if rhs > 0 else 0.0
    extras = {"p": float(p)}
    if Q is not None and Q > 2:
        lam = space.check_field(lam)
        lam_sup = float(np.max(np.abs(lam[outer.members])))
        extras["lambda_normalized"] = C / (1.0 + lam_sup * ball.radius ** 2) ** (Q / 4)
        extras["Q"] = float(Q)
    return Measurement(name="local_sup_bound", lhs=lhs, rhs=rhs,
                       constant=float(C), extras=extras)


def weak_harnack(space: MetricMeasureSpace, u, ball: Ball, q: float,
                 cap: float = 1e3) -> Measurement:
    """Realized constant of (avg_{2B} u^q dmu)^{1/q} <= C inf_B u.

    Requires u > 0 and superharmonic (or harmonic) on the doubled ball.
    Scans a q grid and reports the largest exponent whose constant stays
    below the cap.
    """
    if not (q > 0):
        raise ConfigError("q must be positive")
    u = space.check_field(u)
    outer = metric_ball(space, ball.center, 2 * ball.radius)
    if np.min(u[outer.members]) <= 0:
        raise ConfigError("u must be strictly positive on the doubled ball")
    label, margin = classify_harmonicity(space, u, outer.members)
    if label not in ("superharmonic", "harmonic"):
        raise ConfigError(f"u must be superharmonic on the doubled ball, got {label}")

    mu2 = space.mu[outer.members]
    inf_b = float(np.min(u[ball.members]))

    def realized(qq):
        avg = float(mu2 @ u[outer.members] ** qq / mu2.sum())
        return avg ** (1.0 / qq) / inf_b

    C = realized(q)
    q_grid = np.geomspace(1.0 / 16.0, 4.0, 15)
    scan = [(float(qq), float(realized(qq))) for qq in q_grid]
    admissible = [qq for qq, cc in scan if cc <= cap]
    return Measurement(
        name="weak_harnack", lhs=float(realized(q) * inf_b), rhs=inf_b,
        constant=float(C),
        extras={"q": float(q), "q_scan": scan,
                "largest_admissible_q": max(admissible) if admissible else None,
                "cap": float(cap), "harmonicity": label,
                "harmonicity_margin": float(margin)})


def holder_fit(space: MetricMeasureSpace, u, ball: Ball, g_field,
               cap: float = 1e3, seed: int = 0, row=None) -> HoelderReport:
    """Hoelder exponent and constant of u over pairs in the doubled ball:

        |u(x) - u(y)| <= constant * scale * (d(x,y)/R)^gamma,
        scale = |u|_inf(4B) + R^2 |g|_inf(4B).

    The exponent is fitted by log-log regression on the upper envelope of
    |u(x)-u(y)| over distance bins (snapped to the gamma grid), because the
    largest-exponent-under-a-cap rule saturates at mesh scale; the cap is
    kept as a validity guard and gamma is lowered if the constant exceeds
    it.  Pair distances run from a bounded set of seeded source vertices
    to every vertex of 2B (`distance_rows` at those targets).  Two points
    of B(x, 2R) are less than 4R apart, so Dijkstra may stop at 4R.
    2B and 4B are read off `row`, the center's distance row, where the
    caller holds it.
    """
    u = space.check_field(u)
    g_field = space.check_field(g_field)
    R = ball.radius
    if ball.members.size < 4:
        raise ConfigError("ball too small for a Hoelder fit (< 4 vertices)")
    d = space.distances_from(ball.center) if row is None else row
    four_b = d < 4 * R
    scale = (float(np.max(np.abs(u[four_b])))
             + R ** 2 * float(np.max(np.abs(g_field[four_b]))))

    members = np.flatnonzero(d < 2 * R)
    rng = np.random.default_rng(seed)
    if members.size <= HOELDER_SOURCES:
        sources = members
    else:
        extra = rng.choice(members, HOELDER_SOURCES - 1, replace=False)
        sources = np.unique(np.concatenate([[ball.center], extra]))
    D = space.distance_rows(sources, members, limit=4 * R)     # sources x 2B-members
    # single-edge increments are one-sided at mesh scale and bias the
    # envelope upward; fit over separations of at least two mesh lengths
    pos = (D >= 2 * space.min_edge_length * (1 - 1e-9)) & np.isfinite(D)
    d_all = D[pos]
    del D
    # |u(x) - u(y)| of the admissible pairs only, one source at a time, in
    # the row-major order of d_all
    ud_all = np.empty_like(d_all)
    at = 0
    for u_x, row in zip(u[sources], pos):
        part = np.subtract(u_x, u[members[row]])
        ud_all[at:at + part.size] = np.abs(part, out=part)
        at += part.size
    del pos
    n_pairs = int(d_all.size)
    if n_pairs == 0:
        raise ConfigError("ball too small for a Hoelder fit (no admissible pairs)")

    if scale == 0.0 or float(ud_all.max(initial=0.0)) <= 1e-14 * max(scale, 1e-300):
        return HoelderReport(gamma=1.0, constant=0.0, ball=ball,
                             pair_sample=n_pairs, scale=scale)

    # envelope: the largest |du| per log-spaced distance bin (its first pair
    # in pair order), regressed in log-log; the pairs go a block at a time
    edges = np.geomspace(float(d_all.min()), float(d_all.max()) * (1 + 1e-12), 11)
    blocks = [slice(a, a + PAIR_BLOCK) for a in range(0, n_pairs, PAIR_BLOCK)]
    top, top_d = np.full(10, -1.0), np.zeros(10)
    for blk in blocks:
        d, du = d_all[blk], ud_all[blk]
        which = np.clip(np.digitize(d, edges) - 1, 0, 9)
        for b in np.flatnonzero(np.bincount(which, minlength=10)):
            k = int(np.argmax(np.where(which == b, du, -1.0)))
            if du[k] > top[b]:
                top[b], top_d[b] = du[k], d[k]
    pts = [(np.log(top_d[b]), np.log(top[b])) for b in range(10)
           if top[b] > 1e-14 * scale]
    if len(pts) >= 4:
        lx, ly = np.array(pts[1:]).T        # drop the mesh-scale bin
        slope = float(np.polyfit(lx, ly, 1)[0])
    elif len(pts) >= 3:
        lx, ly = np.array(pts).T
        slope = float(np.polyfit(lx, ly, 1)[0])
    else:
        slope = 1.0
    gamma = float(np.clip(np.round(slope / GAMMA_STEP) * GAMMA_STEP,
                          GAMMA_STEP, 1.0))

    buf = np.empty(min(n_pairs, PAIR_BLOCK))

    def constant_at(gam):
        # max of ud_all / (scale * (d_all / R) ** gam), a block at a time in
        # one buffer, with the operator's power (it takes sqrt at gam = 0.5)
        const = -np.inf
        for blk in blocks:
            d = d_all[blk]
            out = np.divide(d, R, out=buf[:d.size])
            out **= gam
            np.multiply(scale, out, out=out)
            np.divide(ud_all[blk], out, out=out)
            const = max(const, float(np.max(out)))
        return const

    const = constant_at(gamma)
    while const > cap and gamma > GAMMA_STEP * 1.5:
        gamma = round(gamma - GAMMA_STEP, 10)
        const = constant_at(gamma)
    return HoelderReport(gamma=gamma, constant=const, ball=ball,
                         pair_sample=n_pairs, scale=scale)
