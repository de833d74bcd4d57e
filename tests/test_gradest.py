"""Cutoffs, averaged energy, decay checks, theorem verifiers, and the sweep."""

import numpy as np
import pytest

from mmslab import ConfigError, NumericalError
from mmslab import quad
from mmslab import space as sp_mod
from mmslab.curvature import estimate_ckappa, variance
from mmslab.elliptic import Problem, holder_fit, solve
from mmslab.form import carre_du_champ
from mmslab.gradest import (Cutoff, averaged_energy, averaged_energy_profile,
                            build_cutoff, check_prop31, check_semigroup_holder,
                            check_variance_identity, run_counterexample,
                            variance_log_integral, verify_gradient_estimate)
from mmslab.heat import build_heat
from mmslab.space import MetricMeasureSpace, metric_ball

from conftest import tabulated_grid


def torus_chart(sp, n, y0):
    p0 = sp.positions[y0]
    dx = (sp.positions[:, 0] - p0[0] + n / 2) % n - n / 2
    dy = (sp.positions[:, 1] - p0[1] + n / 2) % n - n / 2
    return dx, dy


@pytest.fixture(scope="module")
def torus32():
    return sp_mod.uniform_torus(32, 32)


@pytest.fixture(scope="module")
def heat32(torus32):
    return build_heat(torus32)


@pytest.fixture(scope="module")
def sqrt32():
    sp = sp_mod.weighted_grid_2d(((-1, 1), (-1, 1)), 1 / 32, "sqrt_abs_x")
    x = sp.positions[:, 0]
    bc = np.sign(x) * np.sqrt(np.abs(x))
    interior = np.setdiff1d(np.arange(sp.n), sp.rim)
    u = solve(Problem(sp, interior, bc))
    return sp, u


def all_ones_cutoff(space, y0, R):
    # window version of the cutoff for the trivial cases: psi = 1 everywhere
    return Cutoff(values=np.ones(space.n), y0=y0, R=R, c_psi=0.0,
                  support=np.arange(space.n), row=space.distances_from(y0))


# -- cutoff -------------------------------------------------------------------

def test_cutoff_plateau_and_support(torus32):
    y0 = torus32.vertex_at((16, 16))
    R = 2.0
    cut = build_cutoff(torus32, y0, R)
    d = torus32.distances_from(y0)
    assert np.all(cut.values[d < 2 * R] == 1.0)
    assert np.all(cut.values[d >= 4 * R] == 0.0)
    assert np.all((0.0 <= cut.values) & (cut.values <= 1.0))
    assert cut.c_psi <= 2.0 * (1.0 + 1.0 / R)


def test_cutoff_needs_room(torus32):
    with pytest.raises(ConfigError):
        build_cutoff(torus32, 0, 10.0)     # 4R = 40 swallows the torus


def test_cutoff_reads_the_center_row_once(monkeypatch):
    # on a tabulated grid each row is a Dijkstra run: the support 4B is
    # read off the row the cutoff is built from
    space = tabulated_grid(1 / 16)
    y0 = space.vertex_at((0.0, 0.0))
    d = space.distances_from(y0)
    rows = []
    distances_from = MetricMeasureSpace.distances_from

    def counted(self, v):
        rows.append(int(v))
        return distances_from(self, v)

    monkeypatch.setattr(MetricMeasureSpace, "distances_from", counted)
    cut = build_cutoff(space, y0, 0.125)
    assert rows == [y0]
    assert np.array_equal(cut.support, np.flatnonzero(d < 0.5))
    assert np.array_equal(cut.values, np.clip(2.0 - d / 0.25, 0.0, 1.0))


def test_the_checks_read_each_center_row_once_or_twice(heat32, torus32, monkeypatch):
    # check_prop31 reads y0's row for 8B and for the cutoff, whose row
    # serves B and the probe checks; verify_gradient_estimate for 2B and 8B
    # and for the cutoff; run_counterexample once per mesh, for the ball
    # and the Hoelder fit (they read it 6, 4 and 2 times)
    y0 = torus32.vertex_at((16, 16))
    u = torus_chart(torus32, 32, y0)[0]
    domain = np.flatnonzero(torus32.distances_from(y0) < 14)
    prob = Problem(torus32, domain, u + 3.0)
    ck = estimate_ckappa(heat32, 4.0, seed=0, n_random=4)
    rows = []
    distances_from = MetricMeasureSpace.distances_from

    def counted(self, v):
        rows.append(int(v))
        return distances_from(self, v)

    monkeypatch.setattr(MetricMeasureSpace, "distances_from", counted)
    check_prop31(heat32, torus32, u, np.zeros(torus32.n), y0, 1.5)
    assert rows == [y0, y0]
    rows.clear()
    ball = metric_ball(torus32, y0, 1.5, distances_from(torus32, y0))
    for mode in ("thm31", "thm11", "thm12"):
        rep = verify_gradient_estimate(heat32, torus32, prob, ball, mode, ck)
        assert rows == [y0, y0] and rep.profile, mode
        rows.clear()
    rep = run_counterexample([1 / 8, 1 / 16, 1 / 32], seed=3)
    assert len(rows) == 3 and len(rep.rows) == 3
    with pytest.raises(ConfigError, match="8B escapes"):      # 4B does too
        check_prop31(heat32, torus32, u, np.zeros(torus32.n), y0, 9.0)


# -- averaged energy ----------------------------------------------------------

def test_averaged_energy_zero_for_constant_window(heat32, torus32):
    y0 = torus32.vertex_at((16, 16))
    cut = all_ones_cutoff(torus32, y0, 2.0)
    assert averaged_energy(heat32, torus32, np.full(torus32.n, 5.0), cut,
                           y0, 4.0) == pytest.approx(0.0, abs=1e-14)


def test_averaged_energy_nonnegative_and_small_t_limit(heat32, torus32):
    y0 = torus32.vertex_at((16, 16))
    R = 3.0
    cut = build_cutoff(torus32, y0, R)
    u = np.sin(2 * np.pi * torus32.positions[:, 0] / 32)
    gam = carre_du_champ(torus32, u * cut.values)
    j_small = averaged_energy(heat32, torus32, u, cut, y0, 1.0)   # t = h^2
    assert j_small >= 0.0
    assert abs(j_small - gam[y0]) <= 0.1 * gam[y0]


def test_profile_monotone_in_t_times_j(heat32, torus32):
    y0 = torus32.vertex_at((16, 16))
    cut = build_cutoff(torus32, y0, 3.0)
    u = torus_chart(torus32, 32, y0)[0]
    prof = averaged_energy_profile(heat32, torus32, u, cut, y0,
                                   np.geomspace(1.0, 9.0, 10))
    tj = [t * j for t, j in prof]
    assert all(a <= b + 1e-12 for a, b in zip(tj, tj[1:]))
    assert all(j >= 0 for _, j in prof)


def test_averaged_energy_probe_must_sit_in_ball(heat32, torus32):
    y0 = torus32.vertex_at((16, 16))
    cut = build_cutoff(torus32, y0, 2.0)
    far = torus32.vertex_at((0, 0))
    with pytest.raises(ConfigError):
        averaged_energy(heat32, torus32, np.ones(torus32.n), cut, far, 1.0)


def test_unconverged_quadrature_raises(heat32, torus32, monkeypatch):
    # a node cap below the first grid: no quadrature can start, and each
    # says so instead of returning a value (a smooth one-time profile
    # converges on the first grid itself)
    monkeypatch.setattr(quad, "MAX_NODES", 4 * quad.BASE_PANELS)
    y0 = torus32.vertex_at((16, 16))
    cut = build_cutoff(torus32, y0, 2.0)
    u = torus32.positions[:, 0].copy()
    with pytest.raises(NumericalError):
        averaged_energy(heat32, torus32, u, cut, y0, 1.0)
    with pytest.raises(NumericalError):
        check_variance_identity(heat32, torus32, u, y0, 0.01, 1.0)
    with pytest.raises(NumericalError):
        variance_log_integral(heat32, torus32, u, cut, y0, np.zeros(torus32.n))


# -- variance identity ---------------------------------------------------------

def test_variance_identity_two_point_closed_form(two_point):
    H = build_heat(two_point)
    f = np.array([0.0, 1.0])
    eps, t = 0.05, 0.8
    res = check_variance_identity(H, two_point, f, 1, eps, t)
    rhs = (1 - np.exp(-4 * t)) / 4 - (1 - np.exp(-4 * eps)) / 4
    assert res <= 1e-6 * rhs


def test_variance_identity_constant_field(cycle32):
    H = build_heat(cycle32)
    res = check_variance_identity(H, cycle32, np.full(cycle32.n, 2.0), 0,
                                  0.01, 1.0)
    assert res <= 1e-14


def test_variance_identity_random_fields_every_family(cycle32):
    spaces = [
        cycle32,
        sp_mod.two_point(),
        sp_mod.uniform_torus(12, 12),
        sp_mod.weighted_grid_1d((-1, 1), 1 / 16, "sqrt_abs_x"),
        sp_mod.weighted_grid_2d(((-1, 1), (-1, 1)), 1 / 8, "sqrt_abs_x"),
    ]
    rng = np.random.default_rng(9)
    for sp in spaces:
        assert sp.n <= 1000
        H = build_heat(sp)
        t_hi = max(sp.min_edge_length ** 2 * 4, 0.5)
        eps = t_hi / 100
        n_fields = 20 if sp is cycle32 else 6
        for _ in range(n_fields):
            f = rng.standard_normal(sp.n)
            res = check_variance_identity(H, sp, f, 1, eps, t_hi)
            scale = abs(variance(H, f, t_hi)[1]) + abs(variance(H, f, eps)[1])
            assert res <= 1e-5 * scale


# -- semigroup Hoelder decay ----------------------------------------------------

def test_semigroup_holder_constant_window(heat32, torus32):
    y0 = torus32.vertex_at((16, 16))
    cut = all_ones_cutoff(torus32, y0, 3.0)
    rep = check_semigroup_holder(heat32, torus32, np.full(torus32.n, 1.5),
                                 cut, y0, np.geomspace(1.0, 9.0, 6), 1.0,
                                 np.zeros(torus32.n))
    assert rep.lhs <= 1e-13


def test_semigroup_holder_smooth_slope_half():
    g = sp_mod.weighted_grid_2d(((-1, 1), (-1, 1)), 1 / 64, "constant")
    H = build_heat(g)
    y0 = g.vertex_at((0.0, 0.0))
    R = 0.25
    cut = build_cutoff(g, y0, R)
    u = 0.9 * g.positions[:, 0] - 0.4 * g.positions[:, 1]
    h2 = g.min_edge_length ** 2
    rep = check_semigroup_holder(H, g, u, cut, y0,
                                 np.geomspace(h2, R * R / 8, 10), 1.0,
                                 np.zeros(g.n))
    assert 0.4 <= rep.extras["slope"] <= 0.6
    assert np.isfinite(rep.constant)


def test_semigroup_holder_counterexample_slope_quarter():
    # x0 on the degeneracy line; t window kept inside the resolved regime
    sp = sp_mod.weighted_grid_2d(((-1, 1), (-1, 1)), 1 / 64, "sqrt_abs_x")
    x = sp.positions[:, 0]
    bc = np.sign(x) * np.sqrt(np.abs(x))
    u = solve(Problem(sp, np.setdiff1d(np.arange(sp.n), sp.rim), bc))
    H = build_heat(sp)
    y0 = sp.vertex_at((0.0, 0.0))
    R = 0.25
    cut = build_cutoff(sp, y0, R)
    h = sp.min_edge_length
    rep = check_semigroup_holder(H, sp, u, cut, y0,
                                 np.geomspace(16 * h * h, R * R / 4, 10), 0.5,
                                 np.zeros(sp.n))
    assert 0.15 <= rep.extras["slope"] <= 0.35


def test_semigroup_holder_needs_gamma(heat32, torus32):
    cut = build_cutoff(torus32, 0, 2.0)
    with pytest.raises(ConfigError):
        check_semigroup_holder(heat32, torus32, np.ones(torus32.n), cut, 0,
                               [1.0], None, np.zeros(torus32.n))


# -- variance log integral -------------------------------------------------------

def test_variance_log_integral_constant_window(heat32, torus32):
    y0 = torus32.vertex_at((16, 16))
    cut = all_ones_cutoff(torus32, y0, 3.0)
    rep = variance_log_integral(heat32, torus32, np.full(torus32.n, 2.0), cut,
                                y0, np.zeros(torus32.n), gamma=1.0)
    assert rep.lhs <= 1e-12


def test_variance_log_integral_finite_and_stable():
    vals = []
    for h in (1 / 8, 1 / 16):
        g = sp_mod.weighted_grid_2d(((-1, 1), (-1, 1)), h, "constant")
        H = build_heat(g)
        y0 = g.vertex_at((0.0, 0.0))
        cut = build_cutoff(g, y0, 0.2)
        u = g.positions[:, 0] + 0.3
        rep = variance_log_integral(H, g, u, cut, y0, np.zeros(g.n), gamma=1.0)
        assert np.isfinite(rep.lhs) and rep.lhs >= 0
        assert rep.extras["remainder_bound"] is not None
        vals.append(rep.constant)
    assert max(vals) / min(vals) <= 2.0


def test_variance_log_integral_probe_stability(heat32, torus32):
    y0 = torus32.vertex_at((16, 16))
    cut = build_cutoff(torus32, y0, 3.0)
    u = torus_chart(torus32, 32, y0)[0]
    ball = metric_ball(torus32, y0, 3.0)
    rng = np.random.default_rng(4)
    consts = []
    for x0 in rng.choice(ball.members, 4, replace=False):
        rep = variance_log_integral(heat32, torus32, u, cut, int(x0),
                                    np.zeros(torus32.n))
        consts.append(rep.constant)
    assert max(consts) / min(consts) <= 2.0


def test_variance_log_integral_raises_on_a_negative_variance(heat32, torus32):
    # a heat action whose T_t(g~^2) falls 1e-6 short of (T_t g~)^2 is broken,
    # not round-off: the integral raises below the clamp floor, as
    # `variance` does, instead of clipping the variance to zero
    class Broken:
        def apply_grid(self, F, ts):
            for t, cols in heat32.apply_grid(F, ts):
                cols = cols.copy()
                cols[:, 0] = cols[:, 1] ** 2 - 1e-6
                yield t, cols

    y0 = torus32.vertex_at((16, 16))
    cut = build_cutoff(torus32, y0, 3.0)
    u = torus_chart(torus32, 32, y0)[0]
    with pytest.raises(NumericalError, match="below clamp floor"):
        variance_log_integral(Broken(), torus32, u, cut, y0, np.zeros(torus32.n))


# -- a-priori averaged-energy bound ----------------------------------------------

def test_prop31_zero_solution(heat32, torus32):
    y0 = torus32.vertex_at((16, 16))
    rep = check_prop31(heat32, torus32, np.zeros(torus32.n),
                       np.zeros(torus32.n), y0, 1.5)
    assert rep.lhs == 0.0 and rep.constant == 0.0


def test_prop31_harmonic_refinement_stability():
    consts = []
    for n in (16, 32):
        sp = sp_mod.uniform_torus(n, n)
        H = build_heat(sp)
        y0 = sp.vertex_at((n // 2, n // 2))
        u = torus_chart(sp, n, y0)[0]
        rep = check_prop31(H, sp, u, np.zeros(sp.n), y0, n / 16.0)
        consts.append(rep.constant)
        # the realized constant dominates the whole profile by construction
        prof_max = max(j for _, j in rep.extras["profile"])
        assert prof_max <= rep.constant * rep.rhs * (1 + 1e-9)
    assert max(consts) / min(consts) <= 4.0


def test_prop31_eigen_equation(torus32, heat32):
    y0 = torus32.vertex_at((16, 16))
    d = torus32.distances_from(y0)
    domain = np.flatnonzero(d < 14)
    lam = np.full(torus32.n, 0.05)
    bc = torus_chart(torus32, 32, y0)[0] + 3.0
    u = solve(Problem(torus32, domain, bc, lam=lam))
    rep = check_prop31(heat32, torus32, u, -lam * u, y0, 1.5)
    assert np.isfinite(rep.constant) and rep.constant >= 0


def test_prop31_profile_is_the_averaged_energy_at_every_time(sqrt32, torus32,
                                                             heat32):
    # every profile value is summed from converged pieces, so it agrees
    # with the one-interval rule at its time; a 12-node trapezoid was off
    # by 21% at t = h^2 on the sqrt|x| grid and by 0.28% on the torus
    sp, u = sqrt32
    y0 = torus32.vertex_at((16, 16))
    cases = [(build_heat(sp), sp, u, sp.vertex_at((0.0, 0.0)), 0.1),
             (heat32, torus32, torus_chart(torus32, 32, y0)[0], y0, 1.5)]
    for H, space, field, center, R in cases:
        rep = check_prop31(H, space, field, np.zeros(space.n), center, R)
        prof = rep.extras["profile"]
        ts = [t for t, _ in prof]
        assert ts == list(np.geomspace(space.min_edge_length ** 2, R ** 2, 12))
        cut = build_cutoff(space, center, R)
        for t, j in prof:
            want = averaged_energy(H, space, field, cut, center, t)
            assert abs(j - want) <= 2e-6 * want


def test_prop31_profile_below_mesh_scale_is_one_time(heat32, torus32):
    # h = 1 > R: the profile is J at R^2 alone, the one-time averaged energy
    y0 = torus32.vertex_at((16, 16))
    R = 0.75
    u = torus_chart(torus32, 32, y0)[0]
    rep = check_prop31(heat32, torus32, u, np.zeros(torus32.n), y0, R)
    cut = build_cutoff(torus32, y0, R)
    assert rep.extras["profile"] == \
        [(R ** 2, averaged_energy(heat32, torus32, u, cut, y0, R ** 2))]


def test_prop31_needs_room(heat32, torus32):
    with pytest.raises(ConfigError):
        check_prop31(heat32, torus32, np.ones(torus32.n), np.zeros(torus32.n),
                     0, 5.0)    # 8R = 40 swallows the torus


# -- gradient-estimate verifiers ---------------------------------------------------

def test_gradest_constant_solution_gives_zero(torus32, heat32):
    y0 = torus32.vertex_at((16, 16))
    d = torus32.distances_from(y0)
    domain = np.flatnonzero(d < 8)
    prob = Problem(torus32, domain, np.ones(torus32.n))
    ball = metric_ball(torus32, y0, 2.0)
    ck = estimate_ckappa(heat32, 4.0, seed=0, n_random=4)
    for mode in ("thm11", "thm12"):
        rep = verify_gradient_estimate(heat32, torus32, prob, ball, mode, ck)
        assert rep.left == pytest.approx(0.0, abs=1e-9)
        assert rep.constant == pytest.approx(0.0, abs=1e-9)


def test_gradest_thm31_profile_and_stability():
    consts = []
    for n in (32, 64):
        sp = sp_mod.uniform_torus(n, n)
        H = build_heat(sp)
        y0 = sp.vertex_at((n // 2, n // 2))
        dx, dy = torus_chart(sp, n, y0)
        d = sp.distances_from(y0)
        R = n / 32.0
        domain = np.flatnonzero(d < 8 * R + 2)
        prob = Problem(sp, domain, dx + 0.25 * dy)
        ball = metric_ball(sp, y0, R)
        ck = estimate_ckappa(H, R * R, seed=1, n_random=4)
        rep = verify_gradient_estimate(H, sp, prob, ball, "thm31", ck)
        assert len(rep.profile) > 0          # 8B fits, so the profile is emitted
        assert rep.inputs["c_kappa"] == ck.c_kappa
        consts.append(rep.constant)
    assert max(consts) / min(consts) <= 4.0


def test_gradest_thm12_requires_positive_harmonic(torus32, heat32):
    y0 = torus32.vertex_at((16, 16))
    d = torus32.distances_from(y0)
    domain = np.flatnonzero(d < 8)
    ball = metric_ball(torus32, y0, 2.0)
    ck = estimate_ckappa(heat32, 4.0, seed=0, n_random=4)
    sign_changing = Problem(torus32, domain,
                            torus_chart(torus32, 32, y0)[0])
    with pytest.raises(ConfigError):
        verify_gradient_estimate(heat32, torus32, sign_changing, ball,
                                 "thm12", ck)
    with_lambda = Problem(torus32, domain, np.ones(torus32.n),
                          lam=np.full(torus32.n, 0.1))
    with pytest.raises(ConfigError):
        verify_gradient_estimate(heat32, torus32, with_lambda, ball,
                                 "thm12", ck)
    with pytest.raises(ConfigError):
        verify_gradient_estimate(heat32, torus32, sign_changing, ball,
                                 "thm11", None)


def test_gradest_thm12_consistent_with_thm11(torus32, heat32):
    y0 = torus32.vertex_at((16, 16))
    d = torus32.distances_from(y0)
    domain = np.flatnonzero((d > 3) & (d < 10))
    prob = Problem(torus32, domain, d.astype(float) + 1.0)
    xc = int(np.flatnonzero(d == 6)[0])
    ball = metric_ball(torus32, xc, 1.5)
    ck = estimate_ckappa(heat32, 1.5 ** 2, seed=1, n_random=4)
    rep12 = verify_gradient_estimate(heat32, torus32, prob, ball, "thm12", ck)
    rep11 = verify_gradient_estimate(heat32, torus32, prob, ball, "thm11", ck)
    assert np.isfinite(rep12.constant) and rep12.constant > 0
    # max(|Du|/u) * inf u is a lower bound for sup |Du|
    assert rep12.left * rep12.inputs["inf_u"] <= rep11.left * (1 + 1e-12)


def test_gradest_divergence_with_frozen_curvature():
    # on the degenerate family, freezing c_kappa at the coarsest mesh makes
    # the realized constant diverge under refinement (factor-8 meshes)
    consts = []
    ck0 = None
    for h in (1 / 8, 1 / 64):
        sp = sp_mod.weighted_grid_2d(((-1, 1), (-1, 1)), h, "sqrt_abs_x")
        x = sp.positions[:, 0]
        bc = np.sign(x) * np.sqrt(np.abs(x))
        interior = np.setdiff1d(np.arange(sp.n), sp.rim)
        prob = Problem(sp, interior, bc)
        H = build_heat(sp)
        if ck0 is None:
            ck0 = estimate_ckappa(H, 1 / 64, seed=2, n_random=4)
        ball = metric_ball(sp, sp.vertex_at((0.0, 0.0)), 0.2)
        rep = verify_gradient_estimate(H, sp, prob, ball, "thm11", ck0)
        consts.append(rep.constant)
    assert consts[1] / consts[0] >= 2.0


# -- counterexample sweep -----------------------------------------------------------

def test_counterexample_validates_input():
    with pytest.raises(ConfigError):
        run_counterexample([1 / 8, 1 / 16])
    with pytest.raises(ConfigError):
        run_counterexample([1 / 8, 1 / 16, 1 / 12])
    with pytest.raises(ConfigError, match="inner_radius"):     # an empty inner ball
        run_counterexample([1 / 8, 1 / 16, 1 / 32], inner_radius=0.0)


def test_counterexample_mini_sweep():
    rep = run_counterexample([1 / 8, 1 / 16, 1 / 32], seed=3)
    assert all(np.isfinite(v) and v > 0 for v in rep.sup_grad)
    assert rep.sup_grad == sorted(rep.sup_grad)
    assert rep.c_kappa == sorted(rep.c_kappa)
    assert rep.ck_ratio >= 2.0
    assert -0.65 <= rep.grad_slope <= -0.35
    assert len(rep.rows) == 3 and rep.rows[0]["h"] == 1 / 8
    assert [row["heat_mode"] for row in rep.rows] == ["product"] * 3
    assert [row["solver"] for row in rep.rows] == ["fast_diagonalization"] * 3


def test_holder_gamma_on_counterexample(sqrt32):
    sp, u = sqrt32
    ball = metric_ball(sp, sp.vertex_at((0.0, 0.0)), 0.2)
    rep = holder_fit(sp, u, ball, np.zeros(sp.n))
    assert 0.4 <= rep.gamma <= 0.6 + 1e-12
