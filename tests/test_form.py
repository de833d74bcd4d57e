"""Exact identities of the discrete Dirichlet-form calculus."""

import numpy as np
import pytest

from conftest import gamma_out_of_place
from mmslab import space as sp_mod
from mmslab.form import (carre_du_champ, check_leibniz, energy,
                         generator_apply, lip_field)
from mmslab.heat import build_heat


def three_path():
    return sp_mod.MetricMeasureSpace(
        [0.5, 1.0, 0.5], [(0, 1, 1.0, 1.0), (1, 2, 1.0, 1.0)])


def test_gamma_constant_is_zero(cycle32):
    g = carre_du_champ(cycle32, np.full(cycle32.n, 2.5))
    assert np.all(g == 0.0)


def test_gamma_three_path_values():
    sp = three_path()
    assert carre_du_champ(sp, np.array([0.0, 1.0, 2.0]))[1] == pytest.approx(1.0)
    assert carre_du_champ(sp, np.array([0.0, 1.0, 0.0]))[1] == pytest.approx(1.0)


def test_gamma_fills_a_given_column_with_the_same_bits():
    space = sp_mod.weighted_grid_2d(((-1, 1), (-1, 1)), 1 / 16, "sqrt_abs_x")
    rng = np.random.default_rng(4)
    f, g = rng.standard_normal((2, space.n))
    stack = np.full((3, space.n), np.nan).T          # column-major
    carre_du_champ(space, f, out=stack[:, 0])
    carre_du_champ(space, f, g, out=stack[:, 1])
    got = carre_du_champ(space, g, out=stack[:, 2])
    assert np.shares_memory(got, stack)
    assert np.array_equal(stack[:, 0], gamma_out_of_place(space, f))
    assert np.array_equal(stack[:, 1], gamma_out_of_place(space, f, g))
    assert np.array_equal(stack[:, 2], gamma_out_of_place(space, g))
    assert np.array_equal(carre_du_champ(space, f), stack[:, 0])


def test_gamma_nonnegative(torus16):
    rng = np.random.default_rng(0)
    for _ in range(20):
        assert np.min(carre_du_champ(torus16, rng.standard_normal(torus16.n))) >= 0


def test_energy_examples():
    sp = three_path()
    f = np.array([0.0, 1.0, 2.0])
    assert energy(sp, f, np.ones(3)) == pytest.approx(0.0, abs=1e-15)
    assert energy(sp, f) == pytest.approx(2.0)


def test_energy_symmetric_and_matches_gamma_integral(torus16):
    rng = np.random.default_rng(1)
    for _ in range(100):
        f, g = rng.standard_normal((2, torus16.n))
        e1 = energy(torus16, f, g)
        assert abs(e1 - energy(torus16, g, f)) <= 1e-12 * max(1, abs(e1))
        e2 = float(torus16.mu @ carre_du_champ(torus16, f, g))
        assert abs(e1 - e2) <= 1e-10 * max(1, abs(e1))


def test_energy_bilinear(cycle32):
    rng = np.random.default_rng(2)
    for _ in range(25):
        a, b = rng.standard_normal(2)
        f, g, h = rng.standard_normal((3, cycle32.n))
        lhs = energy(cycle32, a * f + b * g, h)
        rhs = a * energy(cycle32, f, h) + b * energy(cycle32, g, h)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_generator_two_point(two_point):
    assert np.allclose(generator_apply(two_point, np.array([0.0, 1.0])), [1.0, -1.0])
    assert np.all(generator_apply(two_point, np.ones(2)) == 0.0)


def test_integration_by_parts(torus16):
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        f, g = rng.standard_normal((2, torus16.n))
        lhs = float((g * torus16.mu) @ generator_apply(torus16, f))
        worst = max(worst, abs(lhs + energy(torus16, g, f)))
    assert worst <= 1e-10


def test_leibniz_trivial(cycle32):
    ones = np.ones(cycle32.n)
    assert check_leibniz(cycle32, ones, ones, ones) == pytest.approx(0.0, abs=1e-15)


def test_leibniz_random_triples(cycle32):
    rng = np.random.default_rng(4)
    worst = max(check_leibniz(cycle32, *rng.standard_normal((3, cycle32.n)))
                for _ in range(100))
    assert worst <= 1e-11


def test_leibniz_two_point_hand_expanded(two_point):
    # single edge, c = 1, mu = (1,1): expand both sides of the form identity
    u = np.array([0.4, -1.3])
    phi = np.array([1.0, 0.0])
    lhs = (phi[0] - phi[1]) * (u[0] ** 2 - u[1] ** 2)
    rhs = ((phi[0] * u[0] - phi[1] * u[1]) * (u[0] - u[1]) * 2
           - (u[0] - u[1]) ** 2 * (phi[0] + phi[1]))
    assert abs(lhs - rhs) <= 1e-15
    assert check_leibniz(two_point, u, u, phi) <= 1e-15


def test_lip_examples():
    sp = three_path()
    assert np.all(lip_field(sp, np.full(3, 7.0)) == 0.0)
    g = sp_mod.weighted_grid_1d((-1, 1), 0.25, "constant")
    lip = lip_field(g, g.positions[:, 0])
    assert np.allclose(lip, 1.0)


@pytest.mark.parametrize("builder", [
    sp_mod.two_point,
    lambda: sp_mod.uniform_cycle(48),
    lambda: sp_mod.uniform_torus(12, 12),
    lambda: sp_mod.weighted_grid_1d((-1, 1), 1 / 32, "sqrt_abs_x"),
    lambda: sp_mod.weighted_grid_2d(((-1, 1), (-1, 1)), 1 / 8, "sqrt_abs_x"),
])
def test_generator_kernel_is_constants(builder):
    # connectedness: the second-smallest eigenvalue of -A is strictly positive
    space = builder()
    H = build_heat(space, mode="dense")
    theta = H.eigenvalues
    assert theta[0] <= 1e-10
    assert theta[1] > 1e-8
    _, (_, basis) = H._factors
    phi0 = basis[:, 0]
    assert np.max(np.abs(phi0 - phi0[0])) <= 1e-8 * max(abs(phi0[0]), 1e-30)
    if space.factors is not None:
        assert np.max(np.abs(build_heat(space).eigenvalues - theta)) <= 1e-10
