"""Heat semigroup axioms, closed-form oracles, and kernel bound checks."""

import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings, strategies as st

from conftest import assert_markov_semigroup, close, connected_graphs, tabulated_grid
from mmslab import ConfigError, NumericalError
from mmslab import blas, heat, quad
from mmslab import space as sp_mod
from mmslab.cli import main, run_config
from mmslab.form import carre_du_champ
from mmslab.heat import build_heat, check_gaussian, check_heat_caccioppoli
from mmslab.space import MetricMeasureSpace, _ball_masses

SQUARE = ((-1.0, 1.0), (-1.0, 1.0))


def test_two_point_eigenvalues(two_point):
    assert np.allclose(build_heat(two_point).eigenvalues, [0.0, 2.0], atol=1e-14)


def test_cycle_eigenvalues_circulant(cycle32):
    got = np.sort(build_heat(cycle32).eigenvalues)
    want = np.sort(2.0 * (1 - np.cos(2 * np.pi * np.arange(32) / 32)))
    assert np.max(np.abs(got - want)) <= 1e-12


def test_apply_t0_identity(cycle32):
    H = build_heat(cycle32)
    f = np.random.default_rng(0).standard_normal(cycle32.n)
    assert np.array_equal(H.apply(f, 0.0), f)
    with pytest.raises(ConfigError):
        H.apply(f, -0.1)


def test_stochastic_completeness(torus16):
    H = build_heat(torus16)
    ones = np.ones(torus16.n)
    for t in (0.05, 0.7, 5.0):
        assert np.max(np.abs(H.apply(ones, t) - 1.0)) <= 1e-12


def test_two_point_closed_form(two_point):
    H = build_heat(two_point)
    f = np.array([0.0, 1.0])
    for t in (0.01, 0.1, 1.0, 10.0):
        want = np.array([(1 - np.exp(-2 * t)) / 2, (1 + np.exp(-2 * t)) / 2])
        assert np.max(np.abs(H.apply(f, t) - want)) <= 1e-12
        assert H.kernel(t, 0)[0] == pytest.approx((1 + np.exp(-2 * t)) / 2,
                                                  abs=1e-12)


def test_kernel_probability_and_symmetry(torus16):
    H = build_heat(torus16)
    rng = np.random.default_rng(1)
    for t in (0.2, 1.0, 4.0):
        for x0 in rng.integers(torus16.n, size=4):
            p = H.kernel(t, int(x0))
            assert np.min(p) >= 0.0
            assert float(p @ torus16.mu) == pytest.approx(1.0, abs=1e-10)
        x, y = rng.integers(torus16.n, size=2)
        assert H.kernel(t, int(x))[y] == pytest.approx(
            H.kernel(t, int(y))[x], abs=1e-10)
    with pytest.raises(ConfigError):
        H.kernel(0.0, 0)


def test_semigroup_property_and_contraction(cycle64):
    H = build_heat(cycle64)
    rng = np.random.default_rng(2)
    for _ in range(5):
        f = rng.standard_normal(cycle64.n)
        s, t = rng.uniform(0.05, 2.0, size=2)
        err = np.max(np.abs(H.apply(H.apply(f, t), s)
                            - H.apply(f, s + t)))
        assert err <= 1e-8
        assert np.max(np.abs(H.apply(f, t))) <= np.max(np.abs(f)) * (1 + 1e-12)


def test_positivity_exact(torus16):
    H = build_heat(torus16)
    rng = np.random.default_rng(3)
    for t in (0.01, 0.5, 3.0):
        f = np.abs(rng.standard_normal(torus16.n))
        assert np.min(H.apply(f, t)) >= 0.0


def test_variance_nonnegative_pointwise(cycle32):
    H = build_heat(cycle32)
    rng = np.random.default_rng(4)
    for t in (0.05, 1.0):
        g = rng.standard_normal(cycle32.n)
        v = H.apply(g * g, t) - H.apply(g, t) ** 2
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


def test_dense_cap_enforced(monkeypatch):
    def eigh(S):
        raise AssertionError("eigendecomposition started past the dense cap")

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    # forced dense stops where "auto" does, past the factor cap's 4000 too
    for n in (heat.DENSE_CAP + 1, sp_mod.FACTOR_CAP):
        with pytest.raises(ConfigError,
                           match=rf"capped at {heat.DENSE_CAP} vertices \(space has {n}\)"):
            build_heat(sp_mod.uniform_cycle(n), mode="dense")


def test_auto_is_dense_up_to_1024_vertices():
    assert heat.DENSE_CAP == 1024
    assert build_heat(sp_mod.uniform_cycle(1024)).mode == "dense"
    assert build_heat(sp_mod.uniform_cycle(1025)).mode == "stepping"


def test_heat_grid_monotone_interface(torus16):
    H = build_heat(torus16)
    F = np.random.default_rng(6).standard_normal(torus16.n)
    ts = np.geomspace(0.1, 2.0, 5)
    got = [v.copy() for _, v in H.apply_grid(F, ts)]
    for t, v in zip(ts, got):
        assert np.max(np.abs(v - H.apply_batch(F, t))) <= 1e-10


# -- one generator per operation ---------------------------------------------------

@pytest.fixture(scope="module")
def three_modes():
    space = sp_mod.weighted_grid_2d(SQUARE, 1 / 8, "sqrt_abs_x")
    H = [build_heat(space), build_heat(space, mode="dense"),
         build_heat(space, mode="stepping")]
    assert [op.mode for op in H] == ["product", "dense", "stepping"]
    return space, H


def test_single_times_are_one_time_of_the_grids(three_modes):
    space, H = three_modes
    F = np.random.default_rng(11).standard_normal((space.n, 3))
    xs = np.array([0, 40, space.n - 1])
    ts = np.array([1e-3, 0.02, 0.3])
    for op in H:
        for G in (F, F[:, 0]):
            for t, out in op.apply_grid(G, ts):
                assert np.array_equal(op.apply_batch(G, t), out), (op.mode, t)
        for x in (xs, 40):
            for t, cols in op.kernel_grid(x, ts):
                assert np.array_equal(op.kernel(t, x), cols), (op.mode, t)


def test_kernel_grid_over_many_sources_matches_each_source(three_modes):
    space, H = three_modes
    xs = np.array([3, 40, 144, space.n - 1])
    ts = np.array([1e-3, 0.02, 0.3])
    for op in H:
        grid = list(op.kernel_grid(xs, ts))
        assert [t for t, _ in grid] == list(ts)
        for k, x in enumerate(xs):
            for (_, cols), (_, col) in zip(grid, op.kernel_grid(int(x), ts)):
                assert cols.shape == (space.n, xs.size)
                assert np.array_equal(cols[:, k], col), (op.mode, x)


def test_a_spectral_kernel_grid_writes_each_source_into_its_row():
    # a column is the product of its source's rows of the factor tables,
    # written straight into its row of the output; no gathered (k, n) copy
    # of the table rows is made, so a grid holds one output and the tables
    cases = [(sp_mod.uniform_torus(12, 16), np.arange(0, 192, 5)),
             (sp_mod.uniform_torus(16, 16), np.array([0, 17, 17, 255])),
             (sp_mod.uniform_cycle(200), np.arange(0, 200, 3))]
    for X, xs in cases:
        H = build_heat(X)
        groups = H._factor_groups(xs)
        for t, cols in H.kernel_grid(xs, [0.1, 1.0]):
            (KX, ix), (KY, iy) = H._factor_kernels(groups, t)
            want = KX[ix][:, :, None] * KY[iy][:, None, :]
            assert np.array_equal(cols, want.reshape(xs.size, -1).T), (H.mode, t)
    X = sp_mod.uniform_cycle(1000)
    H = build_heat(X)
    assert H.mode == "dense"
    xs = np.arange(X.n)
    # the output, and the table of the cycle factor, one row per source
    output = table = 8 * X.n * xs.size
    tracemalloc.start()
    try:
        for _, cols in H.kernel_grid(xs, [1.0, 4.0]):
            del cols
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= output + table + 2 ** 20


def test_dense_mode_keeps_the_spectral_formulas():
    # a dense space is the product of one vertex (theta = [0], basis [[1]])
    # and itself: coefficients F^T (basis mu), synthesis ((coefficients
    # e^{-theta t}) basis^T)^T over the modes within the cut, and kernel
    # columns the clamped factor column basis (e^{-theta t} basis[x]) over
    # the same modes (the one-vertex factor's is [1.0]), bit for bit; the
    # kernel is the clamped action on 1_x/mu_x to round-off
    space = tabulated_grid(1 / 8)
    D = build_heat(space, mode="dense")
    (t1, b1), (theta, basis) = D._factors
    assert np.array_equal(t1, [0.0]) and np.array_equal(b1, [[1.0]])
    F = np.random.default_rng(12).standard_normal((space.n, 5))
    coeff = D._coefficients(F)
    assert np.array_equal(coeff[:, 0],
                          np.ascontiguousarray(F.T) @ (basis * space.mu[:, None]))
    xs = np.array([0, 17, space.n - 1])
    ts = np.array([1e-3, 0.05, 2.0])
    grid = list(D.apply_grid(F, ts))
    for k, t in enumerate(ts):
        m = int(np.searchsorted(theta * t, heat.MODE_CUT, side="right"))
        want = ((coeff[:, 0, :m] * np.exp(-theta[:m] * t)) @ basis[:, :m].T).T
        rows = np.empty((F.shape[1], space.n))
        D._synthesize(coeff, t, rows)
        assert np.array_equal(rows.T, want)
        assert np.array_equal(D.apply_batch(F, t), want)
        assert np.array_equal(grid[k][1], want)
        K = D.kernel(t, xs)
        for j, x in enumerate(xs):
            column = basis[:, :m] @ (basis[x, :m] * np.exp(-theta[:m] * t))
            assert np.min(column) >= -1e-10 * np.max(column)
            assert np.array_equal(K[:, j], np.clip(column, 0.0, None)), (t, x)
        cols = D.apply_batch(D._delta(xs), t)
        assert np.min(cols) >= -1e-10 * np.max(cols)
        assert close(K, np.clip(cols, 0.0, None), 1e-14)
    # the last time cuts modes
    assert m < space.n
    assert np.array_equal(D.eigenvalues, theta)


# -- kernel values from the factor kernels -----------------------------------------
#
# On the spectral path p(t, (a, b), (c, d)) = p^X(t, a, c) p^Y(t, b, d); a dense
# space is one vertex times itself.  The oracle is scipy's dense `expm` (Pade
# scaling and squaring) of a generator assembled here from the edge arrays.

def edge_generator(space):
    """Dense A = M^-1 (W - D), from edge_i, edge_j, edge_c and mu alone."""
    W = np.zeros((space.n, space.n))
    np.add.at(W, (space.edge_i, space.edge_j), space.edge_c)
    np.add.at(W, (space.edge_j, space.edge_i), space.edge_c)
    return (W - np.diag(W.sum(axis=1))) / space.mu[:, None]


@pytest.fixture(scope="module", params=["torus12x16", "sqrt8"])
def kernel_spaces(request):
    space = (sp_mod.uniform_torus(12, 16) if request.param == "torus12x16"
             else sp_mod.weighted_grid_2d(SQUARE, 1 / 8, "sqrt_abs_x"))
    H = [build_heat(space), build_heat(space, mode="dense"),
         build_heat(space, mode="stepping")]
    assert [op.mode for op in H] == ["product", "dense", "stepping"]
    return space, space.min_edge_length ** 2 * np.array([0.25, 4.0, 64.0]), H


def test_kernel_columns_match_expm_of_the_edge_generator(kernel_spaces):
    # measured: at most 1.7e-13 of the column maximum (dense at 64 h^2)
    from scipy.linalg import expm

    space, ts, H = kernel_spaces
    A = edge_generator(space)
    xs = np.array([0, 37, space.n // 2, space.n - 1])
    for t in ts:
        want = expm(t * A)[:, xs] / space.mu[xs]
        for op in H:
            assert relative_difference(op.kernel(t, xs), want) <= 1e-12, (op.mode, t)


def test_kernel_columns_have_unit_mass_and_are_symmetric(kernel_spaces):
    space, ts, H = kernel_spaces
    for op in H:
        for t, K in op.kernel_grid(np.arange(space.n), ts):
            assert np.min(K) >= 0.0
            assert close(space.mu @ K, np.ones(space.n), 1e-12), (op.mode, t)
            assert close(K, K.T, 1e-13), (op.mode, t)


def test_kernel_pairs_are_the_kernel_grid_columns_read_at_the_pairs(kernel_spaces):
    space, ts, H = kernel_spaces
    rng = np.random.default_rng(5)
    xs = rng.integers(space.n, size=30)
    xs[10:15] = xs[0]                   # repeated sources
    ys = rng.integers(space.n, size=xs.size)
    for op in H:
        pairs = list(op.kernel_pairs(xs, ys, ts))
        assert [t for t, _, _ in pairs] == list(ts)
        for (_, values, maxima), (_, cols) in zip(pairs, op.kernel_grid(xs, ts)):
            assert np.array_equal(values, cols[ys, np.arange(xs.size)]), op.mode
            assert np.array_equal(maxima, np.max(cols, axis=0)), op.mode
        # a column's bits do not depend on the sources asked with it, dense
        # included
        for t, cols in op.kernel_grid(xs, ts):
            for j in (0, 11, 29):
                assert np.array_equal(cols[:, j], op.kernel(t, int(xs[j]))), op.mode


def test_the_spectral_kernel_forms_no_delta_stack(kernel_spaces, monkeypatch):
    space, ts, H = kernel_spaces

    def refuse(*args, **kwargs):
        raise AssertionError("the spectral kernel went through an action")

    for name in ("_delta", "_coefficients", "_synthesize", "apply_grid"):
        monkeypatch.setattr(heat.HeatOperator, name, refuse)
    xs = np.array([0, 7, space.n - 1])
    for op in H[:2]:
        assert len(list(op.kernel_grid(xs, ts))) == ts.size
        assert len(list(op.kernel_pairs(xs, xs[::-1], ts))) == ts.size
        h = space.min_edge_length
        check_gaussian(op, h * h * np.array([1.0, 4.0, 16.0]), 20, R=6 * h, seed=1)


def test_the_gaussian_fit_reads_one_row_per_source_and_no_source_columns(monkeypatch):
    # torus 48^2 as in the default task.  A repeated source reuses its row
    # (the draws are the per-draw reference's: see
    # test_gaussian_ball_masses_match_the_per_pair_reference), and the
    # kernel columns of the sources are never gathered: an (n, sources)
    # array alone would be twice the bound
    torus = sp_mod.uniform_torus(48, 48)
    H = build_heat(torus)
    t_grid = np.geomspace(4.0, 64.0, 8)
    check_gaussian(H, t_grid, 200, R=12.0, seed=3)
    rows, read = [], torus.distances_from
    monkeypatch.setattr(torus, "distances_from", lambda x: rows.append(x) or read(x))
    tracemalloc.start()
    try:
        fit = check_gaussian(H, t_grid, 200, R=12.0, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fit.pair_sample == 200
    assert len(set(rows)) == len(rows) < 200
    assert peak < 0.5 * 8 * torus.n * len(rows)


def test_a_dense_gaussian_fit_holds_one_time_of_factor_tables(monkeypatch):
    # the default task on the tabulated grid at h = 1/15 (n = 961, dense):
    # one factor table is a row of n doubles per distinct source.  The fit
    # peaked at 0.51 MB traced while it made one column at a time, and a
    # table made while the last time's is alive would take it past the bound
    h = 1 / 15
    space = sp_mod.build_space({"family": "grid", "dim": 2, "h": h, "tabulated":
                                [1 + (k % 7) / 4 for k in range(31 * 31)]})
    H = build_heat(space)
    assert H.mode == "dense"
    R = np.sqrt(space.n) / 4 * h
    t_grid = np.geomspace(4 * h * h, min(64 * h * h, R * R), 8)
    check_gaussian(H, t_grid, 200, R, seed=3)
    rows, read = [], space.distances_from
    monkeypatch.setattr(space, "distances_from", lambda x: rows.append(x) or read(x))
    tracemalloc.start()
    try:
        fit = check_gaussian(H, t_grid, 200, R, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fit.pair_sample == 200 and len(set(rows)) == len(rows) == 189
    assert peak < 0.51 * 2 ** 20 + 8 * space.n * len(rows)


# -- Chebyshev stepping realization ---------------------------------------------

@pytest.fixture(scope="module")
def tab16():
    # n = 1089, past the dense cap: stepping only
    space = tabulated_grid(1 / 16)
    h2 = (1 / 16) ** 2
    times = (h2 / 4, h2, 1 / 64, 0.25, 2.0)
    return space, times, build_heat(space, mode="stepping")


@pytest.fixture(scope="module")
def tab15():
    # the largest square tabulated grid under the dense cap (n = 961), where
    # stepping and dense can both be forced
    space = tabulated_grid(1 / 15)
    h2 = (1 / 15) ** 2
    times = (h2 / 4, h2, 1 / 64, 0.25, 2.0)
    return (space, times, build_heat(space, mode="dense"),
            build_heat(space, mode="stepping"))


def test_stepping_matches_dense_on_a_tabulated_grid(tab15):
    space, times, D, S = tab15
    F = np.random.default_rng(9).standard_normal((space.n, 5))
    grids = {H.mode: list(H.apply_grid(F, times)) for H in (D, S)}
    kgrids = {H.mode: list(H.kernel_grid(40, times)) for H in (D, S)}
    for k, t in enumerate(times):
        assert close(S.apply_batch(F, t), D.apply_batch(F, t)), t
        assert close(S.apply_batch(F[:, 0], t), D.apply_batch(F[:, 0], t)), t
        assert grids["stepping"][k][0] == t
        assert close(grids["stepping"][k][1], grids["dense"][k][1]), t
        assert close(kgrids["stepping"][k][1], kgrids["dense"][k][1]), t
        for x0 in (0, 40, space.n // 2, space.n - 1):
            assert close(S.kernel(t, x0), D.kernel(t, x0)), (t, x0)


def test_stepping_kernel_mass_positivity_and_symmetry(tab16):
    space, times, S = tab16
    rng = np.random.default_rng(11)
    for t in times:
        x, y = (int(v) for v in rng.integers(space.n, size=2))
        px, py = S.kernel(t, x), S.kernel(t, y)
        for p in (px, py):
            assert np.min(p) >= 0.0
            assert abs(float(p @ space.mu) - 1.0) <= 1e-13
        assert abs(px[y] - py[x]) <= 1e-12 * max(1.0, float(np.max(px)))


def test_stepping_leaves_the_global_generator_alone(tab16):
    space, _, S = tab16
    state = np.random.get_state()
    S.apply_batch(np.ones(space.n), 0.1)
    after = np.random.get_state()
    assert all(np.array_equal(a, b) for a, b in zip(state, after))


def test_unconverged_chebyshev_series_raises(tab16, monkeypatch):
    from scipy.special import ive

    space, times, _ = tab16
    # a fresh operator: the fixture's keeps the coefficients of its last sweep
    S = build_heat(space, mode="stepping")
    monkeypatch.setattr("scipy.special.ive", lambda k, z: np.full(np.shape(k), 0.25))
    with pytest.raises(NumericalError):
        S.apply_batch(np.ones(space.n), 0.1)
    with pytest.raises(NumericalError):
        S.kernel(0.1, 0)
    # in a sweep, the series of an increment that is not the group's largest
    # fails while the largest one converges: the sweep still raises
    z_small = 0.5 * S._lam * times[0]
    monkeypatch.setattr("scipy.special.ive",
                        lambda k, z: np.full(np.shape(k), 0.25) if z <= z_small
                        else ive(k, z))
    grid = times[:3]
    S.apply_batch(np.ones(space.n), grid[-1])          # converges alone
    F = np.ones((space.n, 2))
    assert heat._GRID_BLOCK >= len(grid) * F.size       # one group
    with pytest.raises(NumericalError):
        list(S.apply_grid(F, grid))
    with pytest.raises(NumericalError):
        list(S.kernel_grid(0, grid))


def test_stepping_blocks_give_the_same_bits_on_any_thread(tab16, monkeypatch):
    # four column blocks, run one after the other at one BLAS thread
    # whatever count the caller starts at
    space, times, S = tab16
    width = heat._COLUMN_BLOCK // space.n
    F = np.random.default_rng(12).standard_normal((space.n, 3 * width + 7))

    def actions(G):
        # the grid runs in two groups, of two times and of one
        monkeypatch.setattr(heat, "_GRID_BLOCK", 2 * G.size)
        return [S.apply_batch(G, 0.01)] + [v for _, v in S.apply_grid(G, times[:3])]

    runs = []
    for start in (1, 2):
        with blas.threads(start):
            runs.append(actions(F)
                        + [S.kernel(0.01, np.arange(0, space.n, 4))])
    for a, b in zip(*runs):
        assert np.array_equal(a, b)
    # a block lost or written twice would show against its columns swept
    # alone
    for j in range(0, F.shape[1], width):
        for whole, alone in zip(runs[0], actions(F[:, j:j + width])):
            assert np.array_equal(whole[:, j:j + width], alone)


def test_wide_sweeps_start_no_thread(tab16):
    # a stepping sweep of four column blocks and a product sweep of eleven
    # run on the calling thread alone
    space, times, S = tab16
    rng = np.random.default_rng(17)
    before = threading.active_count()
    F = rng.standard_normal((space.n, 3 * (heat._COLUMN_BLOCK // space.n) + 1))
    for _ in S.apply_grid(F, times[:3]):
        assert threading.active_count() == before
    X = sp_mod.weighted_grid_2d(SQUARE, 1 / 64, "sqrt_abs_x")
    H = build_heat(X)
    assert H.mode == "product" and -(-31 // (heat._COLUMN_BLOCK // X.n)) == 11
    G = rng.standard_normal((X.n, 31))
    for _ in H.apply_grid(G, [1 / 64 ** 2, 4 / 64 ** 2]):
        assert threading.active_count() == before
    assert threading.active_count() == before


def test_stepping_kernel_grid_clamps_copies_not_the_sweep(tab16, monkeypatch):
    space, times, S = tab16
    # groups of two: times[1] and times[3] end a group and start the next
    monkeypatch.setattr(heat, "_GRID_BLOCK", 2 * space.n)
    delta = np.zeros(space.n)
    delta[40] = 1.0 / space.mu[40]
    sweep = [v.copy() for _, v in S.apply_grid(delta, times)]
    # a clamp that visibly writes in place: if it reached the start of the
    # next group, later columns would grow by more than the factor 2
    monkeypatch.setattr(heat.HeatOperator, "_clamp",
                        staticmethod(lambda arr, rel=1e-10: np.multiply(arr, 2.0, out=arr)))
    for v, (_, col) in zip(sweep, S.kernel_grid(40, times)):
        assert np.array_equal(col, 2.0 * v)


@pytest.mark.parametrize("per_group", [1, 2, 3, 5])
def test_stepping_kernel_grid_copies_only_the_outputs_that_start_a_group(
        tab16, monkeypatch, per_group):
    space, times, S = tab16
    monkeypatch.setattr(heat, "_GRID_BLOCK", per_group * space.n)
    swept = []
    apply_grid = heat.HeatOperator.apply_grid

    def recorded(self, F, ts):
        for t, out in apply_grid(self, F, ts):
            swept.append(out)
            yield t, out

    monkeypatch.setattr(heat.HeatOperator, "apply_grid", recorded)
    cols = [col for _, col in S.kernel_grid(40, times)]
    starts = [i % per_group == per_group - 1 and i < len(times) - 1
              for i in range(len(times))]
    assert [col is out for col, out in zip(cols, swept)] == [not s for s in starts]


@pytest.mark.parametrize("per_group", [1, 2, 3, 5])
def test_stepping_grid_groups_agree_with_dense_and_apply_batch(tab15, monkeypatch,
                                                               per_group):
    space, times, D, S = tab15
    F = np.random.default_rng(13).standard_normal((space.n, 4))
    monkeypatch.setattr(heat, "_GRID_BLOCK", per_group * F.size)
    sizes = []
    sweep = S._chebyshev_sweep

    def counted(G, dts):
        sizes.append(len(dts))
        return sweep(G, dts)

    monkeypatch.setattr(S, "_chebyshev_sweep", counted)
    got = list(S.apply_grid(F, times))
    full, rest = divmod(len(times), per_group)
    assert sizes == [per_group] * full + [rest] * (rest > 0)
    for (t, v), (t_dense, v_dense), t_want in zip(got, D.apply_grid(F, times), times):
        assert t == t_dense == t_want
        assert close(v, v_dense, 1e-10), (per_group, t)
        once = S.apply_batch(F, t)
        assert close(v, once, 1e-10), (per_group, t)
        if per_group == len(times):
            # one group from F: each time has the bits of its own recurrence
            assert np.array_equal(v, once)


def test_stepping_outputs_do_not_depend_on_the_column_block_width(tab16, monkeypatch):
    # the fold's product sees a ring row of n w doubles, padded: without the
    # padding its tail would round by other instructions as n w changes
    space, times, S = tab16
    F = np.random.default_rng(15).standard_normal((space.n, 9))
    got = []
    for width in (1, 2, 3, 7):
        assert space.n * width % heat._PAD
        monkeypatch.setattr(heat, "_COLUMN_BLOCK", width * space.n)
        got.append([out.copy() for _, out in S.apply_grid(F, times)]
                   + [S.apply_batch(F[:, 4], times[2])])
    for outs in got[1:]:
        assert all(np.array_equal(a, b) for a, b in zip(got[0], outs))
    assert np.array_equal(got[0][-1], got[0][2][:, 4])


def test_a_long_stepping_group_has_the_bits_of_each_lone_recurrence(tab16):
    # twelve times in one group, whose series end in different fold chunks
    # and run on past two of them
    space, _, S = tab16
    F = np.random.default_rng(16).standard_normal((space.n, 3))
    ts = np.geomspace(space.min_edge_length ** 2 / 4, 0.25, 12)
    assert heat._GRID_BLOCK >= ts.size * F.size
    lengths = [heat._chebyshev_coefficients(0.5 * S._lam * t).size for t in ts]
    assert min(lengths) > 2 * heat._FOLD
    assert len({-(-m // heat._FOLD) for m in lengths}) > 2
    for t, out in S.apply_grid(F, ts):
        assert np.array_equal(out, S.apply_batch(F, t)), t


def test_stepping_sweep_holds_one_group_of_outputs(tab16, monkeypatch):
    space, _, S = tab16
    k, per_group = 480, 2
    ts = np.geomspace(space.min_edge_length ** 2 / 4, 1 / 64, 8)
    monkeypatch.setattr(heat, "_GRID_BLOCK", per_group * space.n * k)
    S.apply_batch(np.ones(space.n), 0.01)       # builds 2X, which stays
    width = heat._COLUMN_BLOCK // space.n
    tracemalloc.start()
    try:
        F = np.random.default_rng(14).standard_normal((space.n, k))
        for _ in S.apply_grid(F, ts):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # F, one group of outputs and the previous output, which starts the
    # group; for the one block at work, three recurrence terms, and an
    # accumulator and an update per output of a column block (the fold holds
    # a ring of five terms, a new term's product and the product of one fold)
    bound = (per_group + 2) * F.nbytes \
        + (3 + 2 * per_group) * 8 * width * space.n + 2 ** 20
    assert peak <= bound
    # F and the grid's eight outputs alone would not fit
    assert (len(ts) + 1) * F.nbytes > bound


def test_only_the_stepping_group_starts_reject_writes(tab16, monkeypatch):
    # two times a group over seven times: four groups, whose first three
    # end in the output that starts the next one
    space, _, S = tab16
    k = 5
    ts = np.geomspace(space.min_edge_length ** 2, 1 / 16, 7)
    monkeypatch.setattr(heat, "_GRID_BLOCK", 2 * space.n * k)
    F = np.random.default_rng(3).standard_normal((space.n, k))
    untouched = [out.copy() for _, out in S.apply_grid(F, ts)]
    starts = []
    for i, (_, out) in enumerate(S.apply_grid(F, ts)):
        assert np.array_equal(out, untouched[i])
        if out.flags.writeable:
            np.clip(out, 0.0, None, out=out)     # a caller's in-place clamp
        else:
            starts.append(i)
            with pytest.raises(ValueError):
                out[0, 0] = 0.0
    assert starts == [1, 3, 5]
    # kernel columns clamp a copy of a group's start
    kernel = [cols.copy() for _, cols in S.kernel_grid([40, 700], ts)]
    assert all(np.array_equal(cols, np.clip(out, 0.0, None)) for cols, (_, out)
               in zip(kernel, S.apply_grid(S._delta(np.array([40, 700])), ts)))


def test_product_and_dense_heat_leave_scipy_special_unimported():
    # scipy.special adds about 4 MB of resident memory; only stepping needs it
    code = """if True:
        import sys
        import numpy as np
        import mmslab.cli
        from mmslab import space
        from mmslab.heat import build_heat
        modes = []
        for s in (space.uniform_torus(16, 16), space.uniform_cycle(32)):
            H = build_heat(s)
            modes.append(H.mode)
            F = np.ones((s.n, 2))
            H.apply(F[:, 0], 0.3), H.apply_batch(F, 0.3), H.kernel(0.3, [0, 1])
            list(H.apply_grid(F, [0.1, 0.2])), list(H.kernel_grid(0, [0.1, 0.2]))
        before = "scipy.special" in sys.modules
        build_heat(space.uniform_cycle(32), mode="stepping").apply(np.ones(32), 0.3)
        print(*modes, before, "scipy.special" in sys.modules)
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["product", "dense", "False", "True"]


def test_failed_eigendecomposition_raises_numerical_error(cycle32, torus16,
                                                          monkeypatch):
    def fail(S):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    # "auto" builds the uniform torus as a product of two cycles
    for space, mode in ((cycle32, "dense"), (torus16, "auto")):
        with pytest.raises(NumericalError, match="eigendecomposition failed"):
            build_heat(space, mode=mode)


def test_product_factor_bases_are_mu_orthonormal_at_h64():
    # divide and conquer keeps the factor bases orthonormal to a few ulp;
    # scipy's default MRRR read 2.7e-13 here
    space = sp_mod.weighted_grid_2d(SQUARE, 1 / 64, "sqrt_abs_x")
    H = build_heat(space)
    assert H.mode == "product"
    for factor, (theta, basis) in zip(space.factors, H._factors):
        gram = basis.T @ (factor.mu[:, None] * basis)
        assert np.max(np.abs(gram - np.eye(factor.n))) <= 1e-13


def top_mode_fields(space):
    """A delta 1_x/mu_x at the origin and the checkerboard (-1)^(i+j), whose
    weight sits in the top modes."""
    i, j = np.divmod(np.arange(space.n), space.factors[1].n)
    delta = np.zeros(space.n)
    x0 = space.vertex_at((0.0, 0.0))
    delta[x0] = 1.0 / space.mu[x0]
    return np.column_stack([delta, (-1.0) ** (i + j)])


@pytest.fixture(scope="module")
def sqrt16_spectral():
    # 33 x 31 vertices at h = 1/16 (n = 1023), under the dense cap
    space = sp_mod.weighted_grid_2d(((-1.0, 1.0), (-1.0, 0.875)), 1 / 16, "sqrt_abs_x")
    H = [build_heat(space), build_heat(space, mode="dense")]
    assert [op.mode for op in H] == ["product", "dense"]
    return space, H


@pytest.mark.parametrize("cut", [1.0, 4.0, 10.0, heat.MODE_CUT])
def test_product_mode_cut_stays_within_its_bound(cut, sqrt16_spectral, monkeypatch):
    # the modes dropped at theta t > L add at most
    # e^-L |F|_{L2(mu)} mu_x^{-1/2} at x; smaller cuts make that visible.  A
    # dense space is the product of one vertex and itself, so it cuts too
    space, spectral = sqrt16_spectral
    F = top_mode_fields(space)
    ts = (1 / 256, 1 / 64, 0.25)
    scale = np.sqrt(space.mu @ F ** 2)[None, :] / np.sqrt(space.mu)[:, None]
    for H in spectral:
        monkeypatch.setattr(heat, "MODE_CUT", np.inf)
        full = [v.copy() for _, v in H.apply_grid(F, ts)]
        monkeypatch.setattr(heat, "MODE_CUT", cut)
        worst = 0.0
        for (t, got), want in zip(H.apply_grid(F, ts), full):
            err = np.abs(got - want) / scale
            assert np.max(err) <= np.exp(-cut) + 1e-13, (H.mode, t)
            worst = max(worst, float(np.max(err)))
        if cut < heat.MODE_CUT:
            assert worst >= 1e-3 * np.exp(-cut), H.mode
        # at the module's cut the last time keeps 9 of the 33 and 31 modes on
        # the axes of the product, and part of the dense spectrum
        _, (ty, _) = H._factors
        assert np.sum(ty * ts[-1] <= heat.MODE_CUT) < ty.size, H.mode


def test_product_actions_are_column_major_views(three_modes):
    space, (P, D, _) = three_modes
    F = np.asfortranarray(np.random.default_rng(3).standard_normal((space.n, 5)))
    for t, out in P.apply_grid(F, [0.001, 0.1]):
        assert out.flags.f_contiguous and not out.flags.owndata
        assert close(out, D.apply_batch(F, t))
    assert P.apply(F[:, 0], 0.1).shape == (space.n,)


def test_edge_bound_on_the_tabulated_grid_and_the_uniform_torus(tab16, torus16):
    assert_edge_bound(tab16[0])
    # on the uniform torus every vertex has the same degree/mu, so the bound
    # is Gershgorin's and the heat oracles' stepping operator keeps its
    # interval
    assert build_heat(torus16, mode="stepping")._lam \
        == float(np.max(2.0 * torus16.degree / torus16.mu))


@settings(max_examples=60, deadline=None)
@given(connected_graphs(max_n=12))
def test_edge_bound_lies_between_the_spectrum_and_gershgorin(graph):
    assert_edge_bound(graph)


def assert_edge_bound(space):
    """lam of the stepping realization bounds the spectrum of -A and is at
    most Gershgorin's 2 max degree/mu."""
    lam = build_heat(space, mode="stepping")._lam
    inv_sqrt_mu = 1.0 / np.sqrt(space.mu)
    L = (scipy.sparse.diags(space.degree) - space.conductance_matrix).toarray()
    S = (L * inv_sqrt_mu[:, None]) * inv_sqrt_mu[None, :]
    top = float(np.linalg.eigvalsh(0.5 * (S + S.T))[-1])
    assert lam >= top * (1 - 1e-12)
    assert lam <= float(np.max(2.0 * space.degree / space.mu))


@settings(max_examples=40, deadline=None)
@given(connected_graphs(max_n=12), st.floats(0.01, 5.0))
def test_random_imported_graphs_step_like_dense(graph, t):
    space = MetricMeasureSpace.from_text(graph.to_text())
    D, S = build_heat(space, mode="dense"), build_heat(space, mode="stepping")
    F = np.random.default_rng(0).standard_normal((space.n, 3))
    assert close(S.apply_batch(F, t), D.apply_batch(F, t), 1e-10)
    assert close(S.kernel(t, space.n - 1), D.kernel(t, space.n - 1), 1e-10)
    for (_, a), (_, b) in zip(S.apply_grid(F, [t / 3, t]), D.apply_grid(F, [t / 3, t])):
        assert close(a, b, 1e-10)
    for H in (D, S):
        assert_markov_semigroup(H, t)


def test_apply_of_a_nonnegative_field_is_exactly_nonnegative(monkeypatch):
    # on the tabulated grid at h = 1/15 (n = 961) the dense spectral sum for
    # a point source at t = 1e-3 has entries of about -1e-16 far from the
    # source, where the kernel is close to zero
    space = tabulated_grid(1 / 15)
    D, S = build_heat(space, mode="dense"), build_heat(space, mode="stepping")
    P = build_heat(sp_mod.weighted_grid_2d(SQUARE, 1 / 15, "sqrt_abs_x"))
    assert (D.mode, S.mode, P.mode) == ("dense", "stepping", "product")
    for x0 in (0, 100, space.n // 2):
        delta = np.zeros(space.n)
        delta[x0] = 1.0
        for t in (1e-3, 1 / 400, 0.1):
            got = {H.mode: H.apply(delta, t) for H in (D, S, P)}
            assert all(np.min(v) >= 0.0 for v in got.values()), (x0, t)
            assert close(got["stepping"], got["dense"]), (x0, t)
    # past the round-off floor a negative value is an error, not clamped away
    monkeypatch.setattr(D, "apply_batch", lambda F, t: -np.ones(space.n))
    with pytest.raises(NumericalError):
        D.apply(np.ones(space.n), 0.1)


# -- stepping past the dense cap against expm_multiply -----------------------------
#
# scipy's `expm_multiply` (Al-Mohy and Higham, SIAM J. Sci. Comput. 33, 2011:
# truncated Taylor steps with a norm-based step count) is an algorithm
# independent of the Chebyshev stepping, applied to a generator assembled
# here from the space's arrays, without the heat module.  It is the
# cross-check of stepping on spaces past the dense cap.

def generator(space):
    """A = -M^-1 (D - W) in CSR, from the space's degrees, W and mu."""
    L = scipy.sparse.diags(space.degree) - space.conductance_matrix
    return -(L.multiply(1.0 / space.mu[:, None])).tocsr()


def relative_difference(got, want) -> float:
    return float(np.max(np.abs(got - want))) / float(np.max(np.abs(want)))


@pytest.fixture(scope="module")
def tab32():
    # n = 4225, and the time grid of the curvature task at T = 1/64
    # (`estimate_ckappa`'s default): 24 geometric times from h^2
    h = 1 / 32
    space = tabulated_grid(h)
    S = build_heat(space)
    assert S.mode == "stepping"
    return space, np.unique(np.geomspace(h * h, 1 / 64, 24)), S


def test_stepping_matches_expm_multiply_at_h32():
    from scipy.sparse.linalg import expm_multiply

    h = 1 / 32
    space = tabulated_grid(h, seed=1)
    S = build_heat(space, mode="stepping")
    A = generator(space)
    F = np.random.default_rng(10).standard_normal((space.n, 3))
    for t in (h * h / 4, 1 / 64):
        assert close(S.apply_batch(F, t), expm_multiply(A * t, F)), t


def test_a_stepping_sweep_over_the_curvature_grid_matches_expm_multiply(tab32):
    # one recurrence over all 24 times (one group), checked at h^2, a middle
    # time and 1/64
    from scipy.sparse.linalg import expm_multiply

    space, ts, S = tab32
    F = np.random.default_rng(17).standard_normal((space.n, 3))
    assert heat._GRID_BLOCK >= ts.size * F.size
    sweep = {t: out.copy() for t, out in S.apply_grid(F, ts)}
    A = generator(space)
    for t in ts[[0, ts.size // 2, -1]]:
        assert relative_difference(sweep[t], expm_multiply(A * t, F)) <= 1e-12, t


def test_stepping_kernel_columns_match_expm_multiply(tab32):
    from scipy.sparse.linalg import expm_multiply

    space, ts, S = tab32
    xs = np.array([0, space.vertex_at((0.0, 0.0)), space.n - 1])
    columns = {t: cols.copy() for t, cols in S.kernel_grid(xs, ts)}
    deltas = np.zeros((space.n, xs.size))
    deltas[xs, np.arange(xs.size)] = 1.0 / space.mu[xs]
    A = generator(space)
    for t in ts[[0, ts.size // 2, -1]]:
        want = expm_multiply(A * t, deltas)
        assert relative_difference(columns[t], want) <= 1e-12, t


# -- Gaussian bounds ---------------------------------------------------------

def test_gaussian_fit_torus16(torus16):
    H = build_heat(torus16)
    fit = check_gaussian(H, np.geomspace(4.0, 16.0, 6), 80, R=4.0, seed=0)
    assert fit.violations == 0
    assert fit.C1 >= fit.C2 > 0
    assert fit.C >= 1.0


def gaussian_reference(H, t_grid, pair_count, R, seed=0, bracket=2.0):
    """check_gaussian with one ball-mass sort per (pair, time)."""
    space = H.space
    h = space.min_edge_length
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < pair_count:
        x = int(rng.integers(space.n))
        d = space.distances_from(x)
        ok = np.flatnonzero((d >= h * (1 - 1e-12)) & (d < R))
        if ok.size:
            y = int(rng.choice(ok))
            pairs.append((x, y, float(d[y])))
    logs, zs = [], []
    for t in t_grid:
        for x, y, d in pairs:
            mb = _ball_masses(space.distances_from(x), space.mu,
                              np.array([np.sqrt(t)]))[0]
            logs.append(np.log(H.kernel(t, x)[y]) + np.log(mb))
            zs.append(d * d / t)
    yv, z = np.asarray(logs), np.asarray(zs)
    c0 = abs(-1.0 / (float(np.cov(z, yv, bias=True)[0, 1]) / float(np.var(z))))
    c1, c2 = bracket * c0, c0 / bracket
    C = float(np.exp(max(float(np.max(yv + z / c1)),
                         float(np.max(-(yv + z / c2))), 0.0)))
    return C, c1, c2


def test_gaussian_ball_masses_match_the_per_pair_reference():
    torus = sp_mod.uniform_torus(24, 24)
    H = build_heat(torus)
    t_grid = np.geomspace(1.0, 36.0, 5)
    fit = check_gaussian(H, t_grid, 40, R=6.0, seed=3)
    assert (fit.C, fit.C1, fit.C2) == gaussian_reference(H, t_grid, 40, 6.0, seed=3)
    # one kernel grid over the sorted times; the samples keep the given order
    shuffled = t_grid[[3, 0, 4, 1, 2]]
    fit = check_gaussian(H, shuffled, 40, R=6.0, seed=3)
    assert (fit.C, fit.C1, fit.C2) == gaussian_reference(H, shuffled, 40, 6.0, seed=3)


@pytest.mark.parametrize("space", [{"family": "torus", "n1": 128, "n2": 128},
                                   {"family": "grid", "dim": 2, "h": 1 / 64}],
                         ids=["torus128", "grid64"])
def test_gaussian_leaves_out_kernel_values_at_round_off(space, monkeypatch):
    # the default task at seed 3 samples pairs whose kernel lies below double
    # round-off of its column (on the torus, 31 steps apart at t = 4); they
    # raised "nonpositive kernel value"
    config = {"space": space, "task": "gaussian", "seed": 3}
    passed, report, _ = run_config(config)
    fit = report["records"][0]["report"]
    assert passed and fit["violations"] == 0
    # fewer than a tenth of the (time, pair) samples, the default 8 times
    # of 200 pairs (25 on the torus, 36 on the grid)
    assert fit["pair_sample"] == 200
    assert 0 < fit["skipped"] < 8 * fit["pair_sample"] // 10
    # the counts the full spectral synthesis left out: reading the kernel
    # off the factor kernels moves no sample across the floor
    assert fit["skipped"] == {"torus": 25, "grid": 36}[space["family"]]
    monkeypatch.setattr(heat, "GAUSSIAN_FLOOR", 2.0)
    with pytest.raises(NumericalError, match="round-off"):
        run_config(config)


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
        assert H.kernel(t, 0)[0] == pytest.approx(diag, rel=1e-10)
        mass = sp_mod.metric_ball(cycle64, 0, np.sqrt(t)).measure
        ratios.append(diag * mass)
    assert 0.2 <= min(ratios) and max(ratios) <= 5.0


def test_equilibrium_regime_brackets(torus16):
    # at t >> diameter^2 the kernel is near 1/mu(X): both bounds hold with
    # a moderate constant since every exponential factor is close to 1
    H = build_heat(torus16)
    t = 300.0
    p = H.kernel(t, 0)
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


@pytest.mark.parametrize("case", ["torus16", "sqrt16", "tab16"])
def test_heat_caccioppoli_annulus_energy_is_the_carre_du_champ_integral(
        case, torus16, sqrt_square_16, tab16, monkeypatch):
    if case == "torus16":
        H, x, R = build_heat(torus16), torus16.vertex_at((8, 8)), 2.0
    else:
        space = sqrt_square_16 if case == "sqrt16" else tab16[0]
        H = build_heat(space) if case == "sqrt16" else tab16[2]
        x, R = space.vertex_at((0.0, 0.0)), 0.125
    assert H.mode == {"torus16": "product", "sqrt16": "product",
                      "tab16": "stepping"}[case]
    space = H.space
    seen = {}

    def capture(eval_batch, a, b, **kwargs):
        seen.update(eval_batch=eval_batch, zero_limit=kwargs["zero_limit"])
        return 1.0, {"converged": True, "levels": 1, "nodes": 17, "last_change": 0.0}

    monkeypatch.setattr(heat, "log_time_quadrature", capture)
    check_heat_caccioppoli(H, x, R, R * R)
    inner = sp_mod.metric_ball(space, x, R).members
    annulus = np.setdiff1d(sp_mod.metric_ball(space, x, 2 * R).members, inner)

    def reference(f):
        return float(space.mu[annulus] @ carre_du_champ(space, f)[annulus])

    ts = np.geomspace(1e-4 * R * R, R * R, 9)
    want = [reference(col) for _, col in H.kernel_grid(x, ts)]
    assert np.allclose(seen["eval_batch"](ts), want, rtol=1e-13, atol=0.0)
    delta = np.zeros(space.n)
    delta[x] = 1.0 / space.mu[x]
    assert seen["zero_limit"] == pytest.approx(reference(delta), rel=1e-13)


def test_heat_caccioppoli_reads_its_balls_off_one_distance_row(tab16, monkeypatch):
    # a tabulated grid, where each row is a Dijkstra: B(x, R), B(x, 2R) and
    # B(x, 3R) come from one row, with metric_ball's members and mass
    space, _, S = tab16
    x, R = space.vertex_at((0.0, 0.0)), 0.125
    inner = sp_mod.metric_ball(space, x, R)
    outer = sp_mod.metric_ball(space, x, 2 * R)
    rows = []
    row = sp_mod.MetricMeasureSpace.distances_from
    monkeypatch.setattr(sp_mod.MetricMeasureSpace, "distances_from",
                        lambda self, v: rows.append(v) or row(self, v))
    rep = check_heat_caccioppoli(S, x, R, R * R / 4)
    assert rows == [x]
    assert rep.extras["ball_mass"] == inner.measure
    assert rep.extras["annulus_size"] == outer.members.size - inner.members.size


def test_heat_caccioppoli_converges_far_below_R_squared():
    # s = R^2/128 and R^2/64 on the 48^2 torus, where the annulus energy of
    # the kernel is e^{-R^2/(4t)}-small on most of the log grid; the left
    # side grows with s
    space = sp_mod.uniform_torus(48, 48)
    H, x = build_heat(space), space.vertex_at((24, 24))
    lhs = [check_heat_caccioppoli(H, x, 8.0, s).lhs
           for s in (0.5, 1.0, 4.0, 16.0, 64.0)]
    assert 0.0 < lhs[0] and lhs == sorted(lhs)


def test_heat_caccioppoli_empty_annulus(torus16):
    H = build_heat(torus16)
    with pytest.raises(ConfigError):
        check_heat_caccioppoli(H, 0, 0.25, 0.05)    # R below mesh scale
    with pytest.raises(ConfigError):
        check_heat_caccioppoli(H, 0, 6.0, 1.0)      # 3R swallows the torus


def test_heat_caccioppoli_unconverged_quadrature_raises(torus16, monkeypatch,
                                                        tmp_path):
    # a node cap of the first grid leaves no refinement: the quadrature
    # cannot converge, and says so
    monkeypatch.setattr(quad, "MAX_NODES", 4 * quad.BASE_PANELS + 1)
    with pytest.raises(NumericalError, match="did not converge"):
        check_heat_caccioppoli(build_heat(torus16), torus16.vertex_at((8, 8)),
                               2.0, 1.0)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"space": {"family": "torus", "n1": 16, "n2": 16}, '
                   '"task": "heat-caccioppoli", '
                   '"params": {"x": [8, 8], "R": 2.0, "s_list": [1.0]}}')
    assert main(["run", str(cfg), "--out", str(tmp_path / "rep")]) == 3
