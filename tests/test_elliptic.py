"""Weak solver and the Caccioppoli / sup-bound / Harnack / Hoelder checks."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra
from hypothesis import given, settings, strategies as st

from conftest import close, connected_graphs, tabulated_grid
from mmslab import ConfigError, NumericalError, cli
from mmslab import elliptic as el_mod
from mmslab import space as sp_mod
from mmslab.elliptic import (Problem, check_caccioppoli, classify_harmonicity,
                             holder_fit, local_sup_bound, solve, solver_path,
                             weak_harnack, weak_residual)
from mmslab.space import MetricMeasureSpace, metric_ball, product_space


def uniform_square(h):
    return sp_mod.weighted_grid_2d(((-1.0, 1.0), (-1.0, 1.0)), h, "constant")


def interior_of(space):
    return np.setdiff1d(np.arange(space.n), space.rim)


def sqrt_square_solution(h):
    g = sp_mod.weighted_grid_2d(((-1.0, 1.0), (-1.0, 1.0)), h, "sqrt_abs_x")
    x = g.positions[:, 0]
    bc = np.sign(x) * np.sqrt(np.abs(x))
    u = solve(Problem(g, interior_of(g), bc))
    return g, u, bc


def test_affine_solved_exactly():
    g = uniform_square(1 / 16)
    affine = 0.3 + 1.7 * g.positions[:, 0] - 0.4 * g.positions[:, 1]
    prob = Problem(g, interior_of(g), affine)
    u = solve(prob)
    assert np.max(np.abs(u - affine)) <= 1e-10
    assert weak_residual(prob, u) <= 1e-10


def test_weak_residual_with_zeroth_order_term():
    g = uniform_square(1 / 8)
    prob = Problem(g, interior_of(g), np.ones(g.n),
                   lam=np.full(g.n, 0.35), source=np.zeros(g.n))
    u = solve(prob)
    assert weak_residual(prob, u) <= 1e-9 * (np.max(np.abs(u)) + 0.0 + 1.0)


def test_negative_lambda_rejected_when_indefinite():
    g = uniform_square(1 / 8)
    prob = Problem(g, interior_of(g), np.ones(g.n), lam=np.full(g.n, -1000.0))
    with pytest.raises(NumericalError):
        solve(prob)


def test_mildly_negative_lambda_certified_and_solved():
    g = uniform_square(1 / 8)
    # far below the first Dirichlet eigenvalue ~ pi^2/2 of the square
    prob = Problem(g, interior_of(g), np.ones(g.n), lam=np.full(g.n, -1.0))
    u = solve(prob)
    assert weak_residual(prob, u) <= 1e-9 * (np.max(np.abs(u)) + 1.0) * 8


# -- the two solver paths ---------------------------------------------------

def on_cg(problem):
    """The same problem on the grid rebuilt from text, which has no factors
    and so is solved by CG."""
    flat = MetricMeasureSpace.from_text(problem.space.to_text())
    twin = Problem(flat, problem.domain, problem.boundary_values,
                   problem.lam, problem.source)
    assert solver_path(twin) == "cg"
    return twin


def rectangle(space, xs, ys):
    """Vertices of the grid rectangle xs x ys (open intervals), as I_x x I_y."""
    X, Y = space.factors
    ix = np.flatnonzero((X.positions[:, 0] > xs[0]) & (X.positions[:, 0] < xs[1]))
    iy = np.flatnonzero((Y.positions[:, 0] > ys[0]) & (Y.positions[:, 0] < ys[1]))
    return (ix[:, None] * Y.n + iy[None, :]).ravel()


FAST_CASES = {
    "harmonic": lambda g, x, y: (interior_of(g), 0.0, 0.0),
    "lambda": lambda g, x, y: (interior_of(g), 2.5, 0.0),
    "source": lambda g, x, y: (interior_of(g), 0.0, 1.0 + x * y),
    "rectangle": lambda g, x, y: (rectangle(g, (-0.6, 0.8), (-0.9, 0.3)), 0.7,
                                  np.cos(3 * x)),
    "negative_lambda": lambda g, x, y: (interior_of(g), -1.0, 0.0),
}


@pytest.mark.parametrize("case", sorted(FAST_CASES))
@pytest.mark.parametrize("weight", ["constant", "sqrt_abs_x"])
@pytest.mark.parametrize("h", [1 / 16, 1 / 32])
def test_fast_diagonalization_matches_cg(h, weight, case):
    g = sp_mod.weighted_grid_2d(((-1.0, 1.0), (-1.0, 1.0)), h, weight)
    x, y = g.positions.T
    domain, lam, f = FAST_CASES[case](g, x, y)
    bc = np.sign(x) * np.sqrt(np.abs(x)) + 0.3 * y + np.sin(2 * y)
    prob = Problem(g, domain, bc, np.full(g.n, lam), np.zeros(g.n) + f)
    assert solver_path(prob) == "fast_diagonalization"
    u = solve(prob)
    assert close(u, solve(on_cg(prob)), 1e-10)
    assert weak_residual(prob, u) <= 1e-12 * max(1.0, float(np.max(np.abs(u))))


def test_indefinite_problem_raises_on_cg_too():
    g = uniform_square(1 / 8)
    prob = Problem(g, interior_of(g), np.ones(g.n), lam=np.full(g.n, -1000.0))
    with pytest.raises(NumericalError, match="not positive definite"):
        solve(on_cg(prob))


def test_fast_path_never_calls_cg(monkeypatch):
    def no_cg(*args, **kwargs):
        raise AssertionError("CG called on a product domain")

    monkeypatch.setattr("mmslab.elliptic.cg", no_cg)
    g = uniform_square(1 / 16)
    solve(Problem(g, interior_of(g), g.positions[:, 0] ** 2))


def test_failed_factor_eigendecomposition_raises_numerical_error(monkeypatch):
    def fail(S):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    g = uniform_square(1 / 8)
    prob = Problem(g, interior_of(g), g.positions[:, 0] ** 2)
    assert solver_path(prob) == "fast_diagonalization"
    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NumericalError, match="eigendecomposition failed"):
        solve(prob)


@pytest.mark.parametrize("weight", ["constant", "sqrt_abs_x"])
def test_interior_factor_spectra_are_mu_orthonormal_at_h64(weight):
    # V^T M^I V = I and L^I V = M^I V diag(w) to a few ulp; scipy's default
    # MRRR on the same scaled matrix read 2.3e-13 on the sqrt|x| factor
    g = sp_mod.weighted_grid_2d(((-1.0, 1.0), (-1.0, 1.0)), 1 / 64, weight)
    for factor in g.factors:
        idx = interior_of(factor)
        m = factor.mu[idx]
        w, V = sp_mod.laplacian_spectrum(factor, idx)
        assert np.all(np.diff(w) >= 0)
        assert np.max(np.abs(V.T @ (m[:, None] * V) - np.eye(idx.size))) <= 1e-13
        L = (sp.diags(factor.degree) - factor.conductance_matrix).tocsr()[idx][:, idx]
        assert np.max(np.abs(L @ V - (m[:, None] * V) * w[None, :])) \
            <= 1e-12 * float(np.max(np.abs(w)))


def test_other_problems_stay_on_cg():
    torus = sp_mod.uniform_torus(16, 16)
    ball = metric_ball(torus, torus.vertex_at((8, 8)), 5.0).members
    problems = [Problem(torus, ball, torus.positions[:, 0])]
    # an elongated product fails product_pays, even on a product domain
    thin = sp_mod.uniform_torus(3, 400)
    problems.append(Problem(thin, (np.arange(2)[:, None] * 400
                                   + np.arange(10, 390)[None, :]).ravel(),
                            thin.positions[:, 1]))
    # lambda that varies on the domain
    g = uniform_square(1 / 16)
    problems.append(Problem(g, interior_of(g), np.ones(g.n),
                            lam=1.0 + g.positions[:, 0] ** 2))
    for prob in problems:
        assert solver_path(prob) == "cg"
        u = solve(prob)
        assert weak_residual(prob, u) <= 1e-10 * max(1.0, float(np.max(np.abs(u))))


@st.composite
def product_problems(draw):
    """A product of random connected graphs, a random sub-rectangle of it
    (not the whole space), a constant lambda >= 0 and random data."""
    X, Y = draw(connected_graphs()), draw(connected_graphs())
    ix = draw(st.lists(st.integers(0, X.n - 1), min_size=1, unique=True))
    iy = draw(st.lists(st.integers(0, Y.n - 1), min_size=1, unique=True))
    if len(ix) == X.n and len(iy) == Y.n:
        iy = iy[1:]
    space = product_space(X, Y)
    domain = (np.array(ix)[:, None] * Y.n + np.array(iy)[None, :]).ravel()
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lam = draw(st.sampled_from([0.0, 0.01, 1.0, 5.0]))
    return Problem(space, domain, rng.standard_normal(space.n),
                   np.full(space.n, lam), rng.standard_normal(space.n))


@settings(max_examples=60, deadline=None)
@given(product_problems())
def test_fast_diagonalization_matches_cg_on_random_products(prob):
    assert solver_path(prob) == "fast_diagonalization"
    assert close(solve(prob), solve(on_cg(prob)), 1e-10)


def test_full_space_domain_rejected():
    # a proper domain always touches its complement on a connected graph, so
    # the lambda = 0 system is singular only when no boundary vertex is left
    g = uniform_square(1 / 4)
    with pytest.raises(ConfigError):
        Problem(g, np.arange(g.n), np.ones(g.n))


def test_unsorted_domain_with_duplicates_is_sorted_and_deduplicated():
    g = uniform_square(1 / 8)
    interior = interior_of(g)
    rng = np.random.default_rng(0)
    messy = rng.permutation(np.concatenate([interior, interior[::3]]))
    prob = Problem(g, messy, g.positions[:, 0])
    assert np.array_equal(prob.domain, interior)
    assert solver_path(prob) == "fast_diagonalization"
    assert np.array_equal(Problem(g, list(messy), np.zeros(g.n)).domain, interior)
    # a domain that is already sorted is copied, not shared with the caller
    dom = interior.copy()
    prob = Problem(g, dom, np.zeros(g.n))
    dom[0] = 0
    assert np.array_equal(prob.domain, interior)


def test_detached_center_is_pinned_by_its_removed_ring():
    g = uniform_square(1 / 4)
    hole = metric_ball(g, g.vertex_at((0.0, 0.0)), 0.3).members
    domain = np.setdiff1d(interior_of(g), hole)
    domain = np.concatenate([domain, [g.vertex_at((0.0, 0.0))]])
    bc = np.full(g.n, 2.0)
    u = solve(Problem(g, domain, bc))
    assert u[g.vertex_at((0.0, 0.0))] == pytest.approx(2.0)


def test_1d_sqrt_weight_converges_at_half_rate():
    errs = []
    for h in (1 / 8, 1 / 16, 1 / 32, 1 / 64):
        g = sp_mod.weighted_grid_1d((-1.0, 1.0), h, "sqrt_abs_x")
        x = g.positions[:, 0]
        exact = np.sign(x) * np.sqrt(np.abs(x))
        u = solve(Problem(g, interior_of(g), exact))
        errs.append(float(np.max(np.abs(u - exact))))
    assert all(errs[i] > errs[i + 1] for i in range(3))
    # observed rate approaches the h^{1/2} law from below (0.385 over this
    # range, per-halving ratios increasing toward sqrt(2))
    slope = np.polyfit(np.log([1 / 8, 1 / 16, 1 / 32, 1 / 64]), np.log(errs), 1)[0]
    assert 0.3 <= slope <= 0.6
    ratios = [errs[i] / errs[i + 1] for i in range(3)]
    assert all(r1 < r2 for r1, r2 in zip(ratios, ratios[1:]))
    assert ratios[-1] >= 1.3


def test_classify_harmonicity():
    g = uniform_square(1 / 8)
    interior = interior_of(g)
    x2 = g.positions[:, 0] ** 2 + g.positions[:, 1] ** 2
    assert classify_harmonicity(g, -x2, interior)[0] == "superharmonic"
    assert classify_harmonicity(g, x2, interior)[0] == "subharmonic"
    u = solve(Problem(g, interior, g.positions[:, 0].astype(float)))
    label, margin = classify_harmonicity(g, u, interior)
    assert label == "harmonic" and margin <= 1e-9
    mixed = g.positions[:, 0] ** 3        # discrete Laplacian 6x changes sign
    assert classify_harmonicity(g, mixed, interior)[0] == "neither"


def test_maximum_principle_random_boundary():
    g = uniform_square(1 / 8)
    rng = np.random.default_rng(0)
    interior = interior_of(g)
    for _ in range(3):
        bc = rng.standard_normal(g.n)
        u = solve(Problem(g, interior, bc))
        lo, hi = bc[g.rim].min(), bc[g.rim].max()
        assert np.min(u[interior]) >= lo - 1e-10
        assert np.max(u[interior]) <= hi + 1e-10


def test_comparison_principle():
    g = uniform_square(1 / 8)
    rng = np.random.default_rng(1)
    interior = interior_of(g)
    a = rng.standard_normal(g.n)
    b = a + np.abs(rng.standard_normal(g.n))
    ua = solve(Problem(g, interior, a))
    ub = solve(Problem(g, interior, b))
    assert np.all(ua <= ub + 1e-10)


# -- Caccioppoli -------------------------------------------------------------

def test_caccioppoli_constant_field_sentinel():
    g = uniform_square(1 / 8)
    rep = check_caccioppoli(g, np.full(g.n, 2.0), np.zeros(g.n),
                            g.vertex_at((0.0, 0.0)), 0.25, 0.5)
    assert rep.lhs == 0.0 and rep.constant == 0.0


def test_caccioppoli_stable_under_refinement():
    consts = []
    for h in (1 / 8, 1 / 16):
        g = uniform_square(h)
        bc = g.positions[:, 0] ** 2 - g.positions[:, 1] ** 2
        u = solve(Problem(g, interior_of(g), bc))
        rep = check_caccioppoli(g, u, np.zeros(g.n), g.vertex_at((0.0, 0.0)),
                                0.25, 0.5)
        consts.append(rep.constant)
    assert max(consts) / min(consts) <= 2.0


def test_caccioppoli_eigen_type_across_inner_radii():
    g = uniform_square(1 / 16)
    lam = np.full(g.n, 0.8)
    prob = Problem(g, interior_of(g), np.ones(g.n), lam=lam)
    u = solve(prob)
    gfield = -lam * u
    y0 = g.vertex_at((0.0, 0.0))
    consts = [check_caccioppoli(g, u, gfield, y0, r1, 0.6).constant
              for r1 in (0.2, 0.3, 0.4)]
    assert all(np.isfinite(c) and c >= 0 for c in consts)


def test_caccioppoli_degenerate_annulus():
    g = uniform_square(1 / 8)
    with pytest.raises(ConfigError):
        check_caccioppoli(g, np.zeros(g.n), np.zeros(g.n), 0, 0.25, 0.27)


# -- Moser sup bound ---------------------------------------------------------

def test_sup_bound_constant_field():
    g = uniform_square(1 / 8)
    ball = metric_ball(g, g.vertex_at((0.0, 0.0)), 0.25)
    rep = local_sup_bound(g, np.ones(g.n), np.zeros(g.n), ball, 1.0)
    assert rep.lhs == pytest.approx(1.0) and rep.constant == pytest.approx(1.0)


def test_sup_bound_power_mean_ordering():
    g, u, _ = sqrt_square_solution(1 / 16)
    u = u + 2.0     # positive
    ball = metric_ball(g, g.vertex_at((0.0, 0.0)), 0.2)
    c1 = local_sup_bound(g, u, np.zeros(g.n), ball, 1.0).constant
    c2 = local_sup_bound(g, u, np.zeros(g.n), ball, 2.0).constant
    assert c1 >= c2 - 1e-12


def test_sup_bound_refinement_stability_and_remark_column():
    consts = []
    for h in (1 / 8, 1 / 16):
        g = uniform_square(h)
        bc = g.positions[:, 0] ** 2 - g.positions[:, 1] ** 2 + 3.0
        u = solve(Problem(g, interior_of(g), bc))
        ball = metric_ball(g, g.vertex_at((0.0, 0.0)), 0.25)
        rep = local_sup_bound(g, u, np.zeros(g.n), ball, 1.0, Q=2.5)
        assert "lambda_normalized" in rep.extras
        consts.append(rep.constant)
    assert max(consts) / min(consts) <= 2.0


# -- weak Harnack -------------------------------------------------------------

def test_harnack_constant_field_is_one():
    g = uniform_square(1 / 8)
    ball = metric_ball(g, g.vertex_at((0.0, 0.0)), 0.25)
    for q in (0.25, 0.5, 1.0, 2.0):
        rep = weak_harnack(g, np.ones(g.n), ball, q)
        assert rep.constant == pytest.approx(1.0, rel=1e-12)


def _positive_harmonic_on_annulus(n=32):
    sp = sp_mod.uniform_torus(n, n)
    y0 = sp.vertex_at((n // 2, n // 2))
    d = sp.distances_from(y0)
    domain = np.flatnonzero((d > 2) & (d < n // 3))
    u = solve(Problem(sp, domain, d.astype(float) + 1.0))
    xc = int(np.flatnonzero(d == n // 6)[0])
    return sp, u, metric_ball(sp, xc, 1.5)


def test_harnack_positive_harmonic():
    sp, u, ball = _positive_harmonic_on_annulus()
    rep = weak_harnack(sp, u, ball, 0.5)
    assert np.isfinite(rep.constant) and rep.constant >= 1.0
    assert rep.extras["largest_admissible_q"] is not None


def test_harnack_superharmonic_barrier():
    # harmonic plus a positive superharmonic bump is still superharmonic
    sp, u, ball = _positive_harmonic_on_annulus()
    y0 = ball.center
    d = sp.distances_from(y0)
    domain = np.flatnonzero(d < 4)
    bump_prob = Problem(sp, domain, np.zeros(sp.n), source=np.ones(sp.n))
    bump = solve(bump_prob)
    assert np.min(bump[domain]) >= -1e-12
    rep = weak_harnack(sp, u + bump, ball, 0.5)
    assert rep.extras["harmonicity"] in ("superharmonic", "harmonic")
    assert np.isfinite(rep.constant)


def test_harnack_rejects_sign_changing(cycle32):
    u = np.sin(2 * np.pi * np.arange(32) / 32)
    ball = metric_ball(cycle32, 0, 3.0)
    with pytest.raises(ConfigError):
        weak_harnack(cycle32, u, ball, 0.5)


# -- Hoelder -------------------------------------------------------------------

def test_holder_affine_is_lipschitz():
    g = uniform_square(1 / 16)
    u = solve(Problem(g, interior_of(g),
                      0.5 + g.positions[:, 0] - 2 * g.positions[:, 1]))
    ball = metric_ball(g, g.vertex_at((0.0, 0.0)), 0.2)
    rep = holder_fit(g, u, ball, np.zeros(g.n))
    assert rep.gamma == pytest.approx(1.0)
    assert 0 < rep.constant < 10


def test_holder_constant_field():
    g = uniform_square(1 / 16)
    ball = metric_ball(g, g.vertex_at((0.0, 0.0)), 0.2)
    rep = holder_fit(g, np.full(g.n, 3.3), ball, np.zeros(g.n))
    assert rep.gamma == 1.0 and rep.constant == 0.0


def test_holder_sqrt_counterexample_exponent():
    # the continuum solution sgn(x) sqrt|x| is exactly C^{1/2} across x = 0
    g, u, _ = sqrt_square_solution(1 / 64)
    ball = metric_ball(g, g.vertex_at((0.0, 0.0)), 0.2)
    rep = holder_fit(g, u, ball, np.zeros(g.n))
    assert 0.4 <= rep.gamma <= 0.6 + 1e-12
    assert rep.constant <= 1e3


def test_holder_small_ball_rejected():
    g = uniform_square(1 / 8)
    tiny = metric_ball(g, g.vertex_at((0.0, 0.0)), 0.05)
    with pytest.raises(ConfigError):
        holder_fit(g, np.zeros(g.n), tiny, np.zeros(g.n))


def hull_distances(space, hull, sources, targets):
    """Distances (len(sources), len(targets)) inside the subgraph induced on
    `hull`, one Dijkstra per source over the hull: the reference for the
    Hoelder pairs.  A vertex on a geodesic between two points of B(x, 2R)
    lies within half their distance, less than 2R, of one of them, so with
    the 4B hull the induced distance between 2B vertices is the global one."""
    loc = -np.ones(space.n, dtype=np.intp)
    loc[hull] = np.arange(hull.size)
    li, lj = loc[space.edge_i], loc[space.edge_j]
    keep = (li >= 0) & (lj >= 0)
    rows = np.concatenate([li[keep], lj[keep]])
    cols = np.concatenate([lj[keep], li[keep]])
    data = np.concatenate([space.edge_l[keep], space.edge_l[keep]])
    g = sp.csr_matrix((data, (rows, cols)), shape=(hull.size, hull.size))
    return dijkstra(g, directed=False, indices=loc[sources])[:, loc[targets]]


@pytest.mark.parametrize("space,center,radius", [
    (sp_mod.weighted_grid_2d(((-1, 1), (-1, 1)), 1 / 16, "sqrt_abs_x"), (0.0, 0.0), 0.2),
    (sp_mod.weighted_grid_2d(((-1, 1), (-1, 1)), 1 / 32, "sqrt_abs_x"), (0.0, 0.0), 0.2),
    (sp_mod.weighted_grid_2d(((-1, 1), (-1, 1)), 1 / 64, "sqrt_abs_x"), (0.25, -0.5), 0.2),
    (sp_mod.uniform_torus(32, 32), (3.0, 30.0), 6.0),      # 4B wraps around
    (tabulated_grid(1 / 32), (0.0, 0.0), 0.2),
    (tabulated_grid(1 / 24), (0.5, -0.75), 0.25),         # 4B meets the rim
    (tabulated_grid(0.1), (-0.3, 0.6), 0.3),
    (tabulated_grid(1 / 64), (0.25, -0.5), 0.1),
], ids=["sqrt16", "sqrt32", "sqrt64", "torus32", "tab32", "tab24", "tab10", "tab64"])
def test_distance_rows_to_targets_equal_the_hull_dijkstra(space, center, radius):
    # factor sums on the products, Dijkstra on the tabulated grids, with
    # and without the stop at 4R that holder_fit asks for
    x = space.vertex_at(center)
    members = metric_ball(space, x, 2 * radius).members
    hull = metric_ball(space, x, 4 * radius).members
    sources = np.random.default_rng(1).choice(members, 48, replace=False)
    want = hull_distances(space, hull, sources, members)
    assert want.shape == (48, members.size)
    # whole rows live a block of sources at a time: at h = 1/64 the 48
    # whole rows (6.4 MB) took the traced peak to 7.3 MB
    tracemalloc.start()
    try:
        got = space.distance_rows(sources, members)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    assert peak <= want.nbytes + 8 * sp_mod._ROW_BLOCK + 2 ** 21
    assert np.array_equal(space.distance_rows(sources, members, limit=4 * radius), want)


RING_SPACES = [
    (lambda: sp_mod.weighted_grid_1d((-1.0, 1.0), 1 / 64, "sqrt_abs_x"), [0.1, 0.2, 0.3, 0.4, 0.5]),
    (lambda: sp_mod.weighted_grid_1d((-1.0, 1.0), 1 / 24, "sqrt_abs_x"), [0.1, 0.2, 0.3, 0.4, 0.5]),
    (lambda: sp_mod.weighted_grid_1d((-1.0, 1.0), 0.1, "constant"), [0.25, 0.35, 0.5, 0.7, 1.0]),
    (lambda: sp_mod.uniform_cycle(48), [2.5, 4.0, 6.0, 9.0, 13.0]),     # 4B wraps from 6.0
    (lambda: sp_mod.uniform_cycle(7), [2.5, 3.0, 3.5, 4.0, 5.0]),
]


@pytest.mark.parametrize("make,radii", RING_SPACES,
                         ids=["sqrt64", "sqrt24", "const10", "cycle48", "cycle7"])
def test_holder_reads_ring_rows_on_paths_and_cycles(make, radii, monkeypatch):
    # the running sums of `distance_rows` are the hull Dijkstra's bits; with
    # them holder_fit runs no Dijkstra and builds no length graph
    space = make()
    center = space.n // 2
    rng = np.random.default_rng(5)
    for radius in radii:
        members = metric_ball(space, center, 2 * radius).members
        hull = metric_ball(space, center, 4 * radius).members
        sources = members if members.size <= 48 else rng.choice(members, 48, replace=False)
        want = hull_distances(space, hull, sources, members)
        assert np.array_equal(space.distance_rows(sources, members, limit=4 * radius), want)

    def no_dijkstra(*args, **kwargs):
        raise AssertionError("holder_fit ran Dijkstra on a path or a cycle")

    monkeypatch.setattr("scipy.sparse.csgraph.dijkstra", no_dijkstra)
    u = np.cos(0.7 * np.arange(space.n)) + np.sqrt(np.arange(space.n))
    for radius in radii:
        ball = metric_ball(space, center, radius)
        rep = holder_fit(space, u, ball, np.zeros(space.n))
        assert rep.pair_sample > 0 and np.isfinite(rep.constant)
    assert "_len_graph" not in space.__dict__


def test_holder_on_a_tabulated_grid_takes_the_hull_path(monkeypatch):
    # a constant tabulated weight builds the same graph as the product grid,
    # without factors: holder_fit must run one Dijkstra stopped at 4R for
    # its pairs there and give the product route's report to the bit
    h = 1 / 32
    prod = uniform_square(h)
    tab = sp_mod.weighted_grid_2d(((-1.0, 1.0), (-1.0, 1.0)), h,
                                  tabulated=np.ones(prod.n))
    assert tab.factors is None and np.array_equal(tab.mu, prod.mu)
    x = prod.positions[:, 0]
    u = np.sign(x) * np.sqrt(np.abs(x)) + 0.1 * prod.positions[:, 1] ** 2
    center = prod.vertex_at((0.0, 0.0))
    want = holder_fit(prod, u, metric_ball(prod, center, 0.2), np.zeros(prod.n))
    ball = metric_ball(tab, center, 0.2)
    limits = []

    def recorded(*args, **kwargs):
        limits.append(kwargs["limit"])
        return dijkstra(*args, **kwargs)

    monkeypatch.setattr("scipy.sparse.csgraph.dijkstra", recorded)
    got = holder_fit(tab, u, ball, np.zeros(tab.n))
    assert limits == [np.inf, 4 * 0.2]      # the center's row, then the pairs
    assert (got.gamma, got.constant, got.pair_sample, got.scale) == \
        (want.gamma, want.constant, want.pair_sample, want.scale)
    assert 0.4 <= got.gamma <= 0.6 + 1e-12


# -- the lean checks: L u without L, pair arrays formed once --------------------

def holder_reference(space, u, ball, g_field, cap=1e3, seed=0):
    """The fit of `holder_fit` with whole pair arrays: distances from the
    distance rows, every difference |u(x) - u(y)| formed, binned by
    `np.digitize`, and the constant from one expression over all pairs.
    Returns (gamma, constant, pair_sample, scale)."""
    R = ball.radius
    two_b = metric_ball(space, ball.center, 2 * R)
    four_b = metric_ball(space, ball.center, 4 * R)
    scale = (float(np.max(np.abs(u[four_b.members])))
             + R ** 2 * float(np.max(np.abs(g_field[four_b.members]))))
    members = two_b.members
    if members.size <= el_mod.HOELDER_SOURCES:
        sources = members
    else:
        extra = np.random.default_rng(seed).choice(
            members, el_mod.HOELDER_SOURCES - 1, replace=False)
        sources = np.unique(np.concatenate([[ball.center], extra]))
    D = space.distance_rows(sources)[:, members]
    ud = np.abs(u[sources][:, None] - u[members][None, :])
    pos = (D >= 2 * space.min_edge_length * (1 - 1e-9)) & np.isfinite(D)
    d_all, ud_all = D[pos], ud[pos]
    edges = np.geomspace(float(d_all.min()), float(d_all.max()) * (1 + 1e-12), 11)
    which = np.clip(np.digitize(d_all, edges) - 1, 0, 9)
    pts = []
    for b in range(10):
        m = which == b
        if np.any(m):
            k = np.argmax(ud_all[m])
            if ud_all[m][k] > 1e-14 * scale:
                pts.append((np.log(d_all[m][k]), np.log(ud_all[m][k])))
    lx, ly = np.array(pts[1:] if len(pts) >= 4 else pts).T
    slope = float(np.polyfit(lx, ly, 1)[0]) if len(pts) >= 3 else 1.0
    step = el_mod.GAMMA_STEP
    gamma = float(np.clip(np.round(slope / step) * step, step, 1.0))

    def constant_at(gam):
        return float(np.max(ud_all / (scale * (d_all / R) ** gam)))

    const = constant_at(gamma)
    while const > cap and gamma > step * 1.5:
        gamma = round(gamma - step, 10)
        const = constant_at(gamma)
    return gamma, const, int(d_all.size), scale


def sqrt_solution_128():
    g = sp_mod.weighted_grid_2d(((-1.0, 1.0), (-1.0, 1.0)), 1 / 128, "sqrt_abs_x")
    x = g.positions[:, 0]
    return g, solve(Problem(g, interior_of(g), np.sign(x) * np.sqrt(np.abs(x))))


@pytest.mark.parametrize("h,center,radius,cap,seed", [
    (1 / 32, (0.0, 0.0), 0.2, 1e3, 0),
    (1 / 32, (0.25, -0.5), 0.3, 1e3, 4),
    (1 / 32, (0.0, 0.0), 0.25, 0.05, 2),        # the cap lowers gamma step by step
    (1 / 64, (0.0, 0.0), 0.1, 1e3, 1),
], ids=["center", "off-center", "capped", "h64"])
def test_holder_fit_keeps_the_whole_array_report(h, center, radius, cap, seed):
    g, u, _ = sqrt_square_solution(h)
    ball = metric_ball(g, g.vertex_at(center), radius)
    rep = holder_fit(g, u, ball, -0.5 * u, cap=cap, seed=seed)
    want = holder_reference(g, u, ball, -0.5 * u, cap=cap, seed=seed)
    assert (rep.gamma, rep.constant, rep.pair_sample, rep.scale) == want
    if cap < 1:
        assert rep.gamma < 0.5


def test_holder_fit_on_a_generic_graph_keeps_the_whole_array_report():
    tab = sp_mod.weighted_grid_2d(((-1.0, 1.0), (-1.0, 1.0)), 1 / 16,
                                  tabulated=np.random.default_rng(2).uniform(0.5, 2.0, 33 * 33))
    x = tab.positions[:, 0]
    u = solve(Problem(tab, interior_of(tab), np.sign(x) * np.sqrt(np.abs(x))))
    ball = metric_ball(tab, tab.vertex_at((0.0, 0.0)), 0.3)
    rep = holder_fit(tab, u, ball, np.zeros(tab.n), seed=5)
    assert (rep.gamma, rep.constant, rep.pair_sample, rep.scale) == \
        holder_reference(tab, u, ball, np.zeros(tab.n), seed=5)


def test_holder_fit_forms_each_pair_array_once():
    # the hoelder task of the benchmark at h = 1/128: 254404 admissible
    # pairs.  Whole-array temporaries (D, |u(x) - u(y)|, the bin indices and
    # the quotient of the constant) peak at 14.3 MB; the fit holds D and its
    # pairs d_all, then d_all and |du| of the pairs, and blocks of those
    # (2.7 pair arrays here with the balls)
    g, u = sqrt_solution_128()
    ball = metric_ball(g, g.vertex_at((0.0, 0.0)), 0.2)
    want = holder_reference(g, u, ball, np.zeros(g.n), seed=3)
    tracemalloc.start()
    try:
        rep = holder_fit(g, u, ball, np.zeros(g.n), seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.gamma, rep.constant, rep.pair_sample, rep.scale) == want
    assert rep.pair_sample == 254404
    assert peak <= 3 * 8 * rep.pair_sample


def test_hoelder_task_on_a_built_grid_stays_within_10_mb():
    # solve, the ball and the fit on a prebuilt h = 1/128 grid; forming
    # D - W twice and the whole pair arrays took 17.3 MB
    g = sp_mod.weighted_grid_2d(((-1.0, 1.0), (-1.0, 1.0)), 1 / 128, "sqrt_abs_x")
    params = {"problem": {"domain": {"type": "all_interior"},
                          "boundary": {"type": "sgn_sqrt_x"}},
              "ball": {"center": [0.0, 0.0], "radius": 0.2}}
    cli._task_hoelder(g, params, 3)
    tracemalloc.start()
    try:
        recs, _ = cli._task_hoelder(g, params, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert recs[0]["report"]["gamma"] == 0.55
    assert peak <= 10 * 2 ** 20


@pytest.mark.parametrize("make", [
    lambda: sp_mod.weighted_grid_2d(((-1.0, 1.0), (-1.0, 1.0)), 1 / 32, "sqrt_abs_x"),
    lambda: sp_mod.weighted_grid_2d(((-1.0, 1.0), (-1.0, 1.0)), 1 / 16,
                                    tabulated=np.random.default_rng(7).uniform(0.5, 2.0, 33 * 33)),
    lambda: sp_mod.uniform_torus(20, 24),
], ids=["sqrt32", "tabulated16", "torus"])
def test_weak_checks_agree_with_the_assembled_laplacian(make):
    space = make()
    rng = np.random.default_rng(0)
    dom = np.flatnonzero(rng.uniform(size=space.n) < 0.7)
    prob = Problem(space, dom, rng.standard_normal(space.n),
                   lam=rng.uniform(0.0, 1.0, space.n), source=rng.standard_normal(space.n))
    L = sp.diags(space.degree) - space.conductance_matrix
    # the right side reads L on Dirichlet data that vanish on the domain:
    # no diagonal term, so the same bits as the assembled D - W
    b, u_b = el_mod._right_side(prob)
    assert b.tobytes() == ((space.mu * prob.source)[dom] - (L @ u_b)[dom]).tobytes()
    u = solve(prob)
    want = float(np.max(np.abs(((space.mu * prob.source) - L @ u
                                - prob.lam * space.mu * u)[dom])))
    scale = float(np.max(np.abs(u)) + np.max(np.abs(prob.source))) * float(np.max(space.degree))
    assert abs(weak_residual(prob, u) - want) <= 1e-14 * scale
    s = -(L @ u)[dom]
    label, margin = classify_harmonicity(space, u, dom)
    assert label == "neither"
    assert abs(margin - max(-float(s.min()), float(s.max()))) <= 1e-14 * scale
