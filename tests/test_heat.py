"""Heat semigroup axioms, closed-form oracles, and kernel bound checks."""

import numpy as np
import pytest

from mmslab import ConfigError, NumericalError
from mmslab import heat
from mmslab import space as sp_mod
from mmslab.cli import main
from mmslab.heat import (build_heat, check_gaussian, check_heat_caccioppoli,
                         heat_apply, heat_kernel)


def test_two_point_eigenvalues(two_point):
    assert np.allclose(build_heat(two_point).eigenvalues, [0.0, 2.0], atol=1e-14)


def test_cycle_eigenvalues_circulant(cycle32):
    got = np.sort(build_heat(cycle32).eigenvalues)
    want = np.sort(2.0 * (1 - np.cos(2 * np.pi * np.arange(32) / 32)))
    assert np.max(np.abs(got - want)) <= 1e-12


def test_apply_t0_identity(cycle32):
    H = build_heat(cycle32)
    f = np.random.default_rng(0).standard_normal(cycle32.n)
    assert np.array_equal(heat_apply(H, f, 0.0), f)
    with pytest.raises(ConfigError):
        heat_apply(H, f, -0.1)


def test_stochastic_completeness(torus16):
    H = build_heat(torus16)
    ones = np.ones(torus16.n)
    for t in (0.05, 0.7, 5.0):
        assert np.max(np.abs(heat_apply(H, ones, t) - 1.0)) <= 1e-12


def test_two_point_closed_form(two_point):
    H = build_heat(two_point)
    f = np.array([0.0, 1.0])
    for t in (0.01, 0.1, 1.0, 10.0):
        want = np.array([(1 - np.exp(-2 * t)) / 2, (1 + np.exp(-2 * t)) / 2])
        assert np.max(np.abs(heat_apply(H, f, t) - want)) <= 1e-12
        assert heat_kernel(H, t, 0)[0] == pytest.approx((1 + np.exp(-2 * t)) / 2,
                                                        abs=1e-12)


def test_kernel_probability_and_symmetry(torus16):
    H = build_heat(torus16)
    rng = np.random.default_rng(1)
    for t in (0.2, 1.0, 4.0):
        for x0 in rng.integers(torus16.n, size=4):
            p = heat_kernel(H, t, int(x0))
            assert np.min(p) >= 0.0
            assert float(p @ torus16.mu) == pytest.approx(1.0, abs=1e-10)
        x, y = rng.integers(torus16.n, size=2)
        assert heat_kernel(H, t, int(x))[y] == pytest.approx(
            heat_kernel(H, t, int(y))[x], abs=1e-10)
    with pytest.raises(ConfigError):
        heat_kernel(H, 0.0, 0)


def test_semigroup_property_and_contraction(cycle64):
    H = build_heat(cycle64)
    rng = np.random.default_rng(2)
    for _ in range(5):
        f = rng.standard_normal(cycle64.n)
        s, t = rng.uniform(0.05, 2.0, size=2)
        err = np.max(np.abs(heat_apply(H, heat_apply(H, f, t), s)
                            - heat_apply(H, f, s + t)))
        assert err <= 1e-8
        assert np.max(np.abs(heat_apply(H, f, t))) <= np.max(np.abs(f)) * (1 + 1e-12)


def test_positivity_exact(torus16):
    H = build_heat(torus16)
    rng = np.random.default_rng(3)
    for t in (0.01, 0.5, 3.0):
        f = np.abs(rng.standard_normal(torus16.n))
        assert np.min(heat_apply(H, f, t)) >= 0.0


def test_variance_nonnegative_pointwise(cycle32):
    H = build_heat(cycle32)
    rng = np.random.default_rng(4)
    for t in (0.05, 1.0):
        g = rng.standard_normal(cycle32.n)
        v = heat_apply(H, g * g, t) - heat_apply(H, g, t) ** 2
        assert np.min(v) >= -1e-12


def test_stepping_agrees_with_dense(cycle64):
    Hd = build_heat(cycle64, mode="dense")
    Hs = build_heat(cycle64, mode="stepping")
    rng = np.random.default_rng(5)
    f = rng.standard_normal(cycle64.n)
    for t in (0.03, 0.7, 6.0):
        assert np.max(np.abs(Hd.apply(f, t) - Hs.apply(f, t))) <= 1e-9
    p_d = Hd.kernel(1.3, 7)
    p_s = Hs.kernel(1.3, 7)
    assert np.max(np.abs(p_d - p_s)) <= 1e-9
    # kernel symmetry survives the stepping realization
    assert Hs.kernel(0.9, 3)[11] == pytest.approx(Hs.kernel(0.9, 11)[3], abs=1e-9)


def test_dense_cap_enforced(cycle64):
    with pytest.raises(ConfigError):
        build_heat(cycle64, mode="dense", dense_cap=10)


def test_heat_grid_monotone_interface(torus16):
    H = build_heat(torus16)
    F = np.random.default_rng(6).standard_normal(torus16.n)
    ts = np.geomspace(0.1, 2.0, 5)
    got = [v.copy() for _, v in H.apply_grid(F, ts)]
    for t, v in zip(ts, got):
        assert np.max(np.abs(v - H.apply_batch(F, t))) <= 1e-10


# -- Gaussian bounds ---------------------------------------------------------

def test_gaussian_fit_torus16(torus16):
    H = build_heat(torus16)
    fit = check_gaussian(H, np.geomspace(4.0, 16.0, 6), 80, R=4.0, seed=0)
    assert fit.violations == 0
    assert fit.C1 >= fit.C2 > 0
    assert fit.C >= 1.0


def test_gaussian_rejects_subscale_times(torus16):
    H = build_heat(torus16)
    with pytest.raises(ConfigError):
        check_gaussian(H, np.array([0.25]), 10, R=4.0)   # below h^2
    with pytest.raises(ConfigError):
        check_gaussian(H, np.array([]), 10, R=4.0)


def test_cycle_diagonal_kernel_times_ball_mass_bounded(cycle64):
    # circulant closed form: p(t,x,x) = (1/n) sum_k exp(-theta_k t)
    H = build_heat(cycle64)
    n = cycle64.n
    theta = 2.0 * (1 - np.cos(2 * np.pi * np.arange(n) / n))
    ratios = []
    for t in np.geomspace(1.0, 16.0, 7):
        diag = float(np.exp(-theta * t).sum() / n)
        assert heat_kernel(H, t, 0)[0] == pytest.approx(diag, rel=1e-10)
        mass = sp_mod.metric_ball(cycle64, 0, np.sqrt(t)).measure
        ratios.append(diag * mass)
    assert 0.2 <= min(ratios) and max(ratios) <= 5.0


def test_equilibrium_regime_brackets(torus16):
    # at t >> diameter^2 the kernel is near 1/mu(X): both bounds hold with
    # a moderate constant since every exponential factor is close to 1
    H = build_heat(torus16)
    t = 300.0
    p = heat_kernel(H, t, 0)
    eq = 1.0 / torus16.total_mass
    assert np.max(np.abs(p - eq)) <= 1e-6 * eq


# -- heat Caccioppoli --------------------------------------------------------

def test_heat_caccioppoli_monotone_and_limits(torus16):
    H = build_heat(torus16)
    x = torus16.vertex_at((8, 8))
    R = 2.0
    h2 = torus16.min_edge_length ** 2
    lhs = []
    for s in (h2, R * R / 4, R * R):
        rep = check_heat_caccioppoli(H, x, R, s, c=0.25)
        lhs.append(rep.lhs)
        assert rep.constant >= 0.0
    assert lhs[0] < lhs[-1]
    assert lhs == sorted(lhs)


def test_heat_caccioppoli_empty_annulus(torus16):
    H = build_heat(torus16)
    with pytest.raises(ConfigError):
        check_heat_caccioppoli(H, 0, 0.25, 0.05)    # R below mesh scale
    with pytest.raises(ConfigError):
        check_heat_caccioppoli(H, 0, 6.0, 1.0)      # 3R swallows the torus


def test_heat_caccioppoli_unconverged_quadrature_raises(torus16, monkeypatch,
                                                        tmp_path):
    def unconverged(eval_batch, a, b, **kwargs):
        return 1.0, {"converged": False, "levels": 7, "nodes": 1025,
                     "last_change": 0.5}

    monkeypatch.setattr(heat, "log_time_quadrature", unconverged)
    with pytest.raises(NumericalError):
        check_heat_caccioppoli(build_heat(torus16), torus16.vertex_at((8, 8)),
                               2.0, 1.0)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"space": {"family": "torus", "n1": 16, "n2": 16}, '
                   '"task": "heat-caccioppoli", '
                   '"params": {"x": [8, 8], "R": 2.0, "s_list": [1.0]}}')
    assert main(["run", str(cfg), "--out", str(tmp_path / "rep")]) == 3
