"""Cartesian-product spaces, the product metric and the product heat realization.

The built-in torus and separable grid are products of 1-d spaces; these
tests pin their construction against the double-loop builders they
replaced, check the product metric d_X + d_Y against Dijkstra on the
assembled graph, and cross-check the product realization against the dense
and stepping ones.
"""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import dijkstra

from conftest import assert_markov_semigroup, close, connected_graphs
from mmslab import ConfigError
from mmslab import space as sp_mod
from mmslab.heat import DENSE_CAP, build_heat
from mmslab.space import (FACTOR_CAP, MetricMeasureSpace, product_pays,
                          product_space)

SQUARE = ((-1.0, 1.0), (-1.0, 1.0))


# -- double-loop reference builders -------------------------------------------

def loop_torus(n1, n2):
    def idx(a, b):
        return (a % n1) * n2 + (b % n2)
    edges = []
    for a in range(n1):
        for b in range(n2):
            edges.append((idx(a, b), idx(a + 1, b), 1.0, 1.0))
            edges.append((idx(a, b), idx(a, b + 1), 1.0, 1.0))
    pos = np.array([(a, b) for a in range(n1) for b in range(n2)], dtype=float)
    return np.ones(n1 * n2), edges, pos, []


def sqrt_abs_x_antiderivative(x):
    return (2.0 / 3.0) * np.sign(x) * np.abs(x) ** 1.5


# reference separable weights wx(x): cell integral and point value
CONSTANT = SimpleNamespace(integral_x=lambda a, b: b - a, value_x=lambda x: 1.0)
SQRT_ABS_X = SimpleNamespace(
    integral_x=lambda a, b: sqrt_abs_x_antiderivative(b) - sqrt_abs_x_antiderivative(a),
    value_x=lambda x: np.sqrt(np.abs(x)))


def loop_grid(h, weight=None, wtab=None):
    """Finite-volume square [-1, 1]^2 built vertex by vertex and face by face."""
    xs = -1.0 + h * np.arange(int(round(2.0 / h)) + 1)
    n = xs.size
    lo = np.maximum(xs - h / 2, -1.0)
    hi = np.minimum(xs + h / 2, 1.0)

    def idx(i, j):
        return i * n + j

    mu = np.empty(n * n)
    pos = np.empty((n * n, 2))
    for i in range(n):
        for j in range(n):
            pos[idx(i, j)] = (xs[i], xs[j])
            if weight is not None:
                mu[idx(i, j)] = weight.integral_x(lo[i], hi[i]) * (hi[j] - lo[j])
            else:
                mu[idx(i, j)] = wtab[i, j] * (hi[i] - lo[i]) * (hi[j] - lo[j])
    edges = []
    for i in range(n):
        for j in range(n):
            if i + 1 < n:
                wbar = (weight.value_x((xs[i] + xs[i + 1]) / 2) if weight is not None
                        else 0.5 * (wtab[i, j] + wtab[i + 1, j]))
                edges.append((idx(i, j), idx(i + 1, j), wbar * (hi[j] - lo[j]) / h, h))
            if j + 1 < n:
                wbar = (weight.integral_x(lo[i], hi[i]) / (hi[i] - lo[i])
                        if weight is not None
                        else 0.5 * (wtab[i, j] + wtab[i, j + 1]))
                edges.append((idx(i, j), idx(i, j + 1), wbar * (hi[i] - lo[i]) / h, h))
    rim = [idx(i, j) for i in range(n) for j in range(n)
           if i in (0, n - 1) or j in (0, n - 1)]
    return mu, edges, pos, rim


def edge_map(i, j, c, l):
    return {(min(a, b), max(a, b)): (cc, ll) for a, b, cc, ll in zip(i, j, c, l)}


def assert_same_space(space, reference):
    mu, edges, pos, rim = reference
    assert np.array_equal(space.mu, mu)
    assert np.array_equal(space.positions, pos)
    assert np.array_equal(space.rim, np.asarray(rim, dtype=np.intp))
    want = edge_map(*zip(*edges))
    got = edge_map(space.edge_i.tolist(), space.edge_j.tolist(),
                   space.edge_c.tolist(), space.edge_l.tolist())
    assert got.keys() == want.keys()
    for key, (c, l) in want.items():
        assert got[key][0] == pytest.approx(c, rel=1e-14, abs=0.0)
        assert got[key][1] == l


@pytest.mark.parametrize("n1,n2", [(3, 3), (5, 8), (16, 16)])
def test_torus_matches_double_loop(n1, n2):
    torus = sp_mod.uniform_torus(n1, n2)
    assert_same_space(torus, loop_torus(n1, n2))
    assert [f.n for f in torus.factors] == [n1, n2]


@pytest.mark.parametrize("h", [1.0, 0.25, 1 / 16])
@pytest.mark.parametrize("weight,w", [("constant", CONSTANT), ("sqrt_abs_x", SQRT_ABS_X)])
def test_separable_grid_matches_double_loop(h, weight, w):
    grid = sp_mod.weighted_grid_2d(SQUARE, h, weight)
    assert_same_space(grid, loop_grid(h, weight=w))
    assert grid.factors is not None


@pytest.mark.parametrize("h", [0.25, 0.1, 1 / 12])
def test_tabulated_grid_matches_double_loop(h):
    m = int(round(2.0 / h)) + 1
    wtab = np.exp(0.5 * np.random.default_rng(0).standard_normal((m, m)))
    grid = sp_mod.weighted_grid_2d(SQUARE, h, tabulated=wtab)
    assert_same_space(grid, loop_grid(h, wtab=wtab))
    assert grid.factors is None


@pytest.mark.parametrize("bounds,h", [(SQUARE, 0.1), (SQUARE, 1 / 24),
                                      (((0.0, 1.5), (-0.6, 0.3)), 0.1),
                                      (((0.0, 1.5), (-0.6, 0.3)), 0.3)],
                         ids=["square-0.1", "square-1/24", "box-0.1", "box-0.3"])
def test_tabulated_grid_is_the_face_formula_to_the_bit(bounds, h):
    # the lattice's arrays written out whole, the x-edges first: masses
    # w |cell| and conductances 0.5 (w + w') |face| / h, in this order of
    # operations, with the cells clipped at the box
    (ax, bx), (ay, by) = bounds
    xs = ax + h * np.arange(int(round((bx - ax) / h)) + 1)
    ys = ay + h * np.arange(int(round((by - ay) / h)) + 1)
    wtab = np.exp(0.5 * np.random.default_rng(2).standard_normal((xs.size, ys.size)))
    grid = sp_mod.weighted_grid_2d(bounds, h, tabulated=wtab)
    dx = np.minimum(xs + h / 2, bx) - np.maximum(xs - h / 2, ax)
    dy = np.minimum(ys + h / 2, by) - np.maximum(ys - h / 2, ay)
    idx = np.arange(xs.size * ys.size).reshape(xs.size, ys.size)
    cx = 0.5 * (wtab[:-1, :] + wtab[1:, :]) * dy[None, :] / h
    cy = 0.5 * (wtab[:, :-1] + wtab[:, 1:]) * dx[:, None] / h
    want = {"mu": (wtab * dx[:, None] * dy[None, :]).ravel(),
            "edge_i": np.concatenate([idx[:-1, :].ravel(), idx[:, :-1].ravel()]),
            "edge_j": np.concatenate([idx[1:, :].ravel(), idx[:, 1:].ravel()]),
            "edge_c": np.concatenate([cx.ravel(), cy.ravel()]),
            "edge_l": np.full(cx.size + cy.size, h),
            "positions": np.column_stack([np.repeat(xs, ys.size), np.tile(ys, xs.size)])}
    for attr, value in want.items():
        got = getattr(grid, attr)
        assert got.dtype == value.dtype and got.tobytes() == value.tobytes(), attr
    assert grid.factors is None


# -- the Kronecker-sum generator ---------------------------------------------------

def generator(space):
    return sp.diags(1.0 / space.mu) @ (space.conductance_matrix - sp.diags(space.degree))


@pytest.mark.parametrize("space", [
    sp_mod.uniform_torus(6, 9),
    sp_mod.weighted_grid_2d(SQUARE, 1 / 8, "sqrt_abs_x"),
], ids=["torus", "sqrt-grid"])
def test_kronecker_sum_is_the_assembled_generator(space):
    X, Y = space.factors
    ksum = (sp.kron(generator(X), sp.identity(Y.n))
            + sp.kron(sp.identity(X.n), generator(Y)))
    A = generator(space)
    assert abs(ksum - A).max() <= 1e-13 * abs(A).max()


# -- the product metric d_X + d_Y against Dijkstra ----------------------------------

def dijkstra_rows(space, sources):
    return dijkstra(space._len_graph, directed=False, indices=sources)


def sample_sources(space, count=12):
    rng = np.random.default_rng(space.n)
    return np.unique(np.concatenate([[0, space.n // 2, space.n - 1],
                                     rng.integers(space.n, size=count)]))


# every product space the benchmark builds, and two small ones
@pytest.mark.parametrize("make", [
    lambda: sp_mod.uniform_torus(5, 7),
    lambda: sp_mod.uniform_torus(16, 16),
    lambda: sp_mod.uniform_torus(32, 32),
    lambda: sp_mod.uniform_torus(48, 48),
    lambda: sp_mod.uniform_torus(64, 64),
    *[lambda h=h, w=w: sp_mod.weighted_grid_2d(SQUARE, h, w)
      for h in (1 / 16, 1 / 32, 1 / 64, 1 / 128)
      for w in ("constant", "sqrt_abs_x")],
], ids=["torus5x7", "torus16", "torus32", "torus48", "torus64",
        *[f"grid-{w}-1/{m}" for m in (16, 32, 64, 128)
          for w in ("constant", "sqrt")]])
def test_product_distances_equal_dijkstra_bit_for_bit(make):
    space = make()
    src = sample_sources(space, 4 if space.n > 20000 else 12)
    want = dijkstra_rows(space, src)
    assert np.array_equal(space.distance_rows(src), want)
    for v, row in zip(src, want):
        assert np.array_equal(space.distances_from(v), row)


def test_product_distances_on_a_non_dyadic_mesh():
    space = sp_mod.weighted_grid_2d(SQUARE, 0.1, "sqrt_abs_x")
    src = sample_sources(space)
    np.testing.assert_allclose(space.distance_rows(src), dijkstra_rows(space, src),
                               rtol=1e-14, atol=0.0)


def test_generic_graph_distances_equal_dijkstra():
    # the torus read back from text has no factors, so every call runs Dijkstra
    space = MetricMeasureSpace.from_text(sp_mod.uniform_torus(8, 8).to_text())
    assert space.factors is None and space._ring is None
    src, targets = np.array([9, 0, 63, 9]), np.array([5, 9, 40, 0, 5])
    want = dijkstra_rows(space, src)
    assert np.array_equal(space.distances_from(9), want[0])
    assert np.array_equal(space.distance_rows(src), want)
    assert np.array_equal(space.distance_rows(src, targets), want[:, targets])
    assert np.array_equal(space.distance_rows(src, targets, limit=8.0), want[:, targets])


# -- product realization against dense and stepping ------------------------------

@pytest.fixture(scope="module", params=["torus16", "sqrt16"])
def realizations(request):
    if request.param == "torus16":
        space, times = sp_mod.uniform_torus(16, 16), (0.01, 0.3, 2.0, 16.0)
    else:
        # 33 x 31 vertices (n = 1023), under the dense cap
        h = 1 / 16
        space = sp_mod.weighted_grid_2d(((-1.0, 1.0), (-1.0, 0.875)), h, "sqrt_abs_x")
        times = (h * h / 4, h * h, 1 / 64, 0.25)
    H = {"dense": build_heat(space, mode="dense"), "product": build_heat(space),
         "stepping": build_heat(space, mode="stepping")}
    assert H["product"].mode == "product"
    return space, times, H


def test_auto_mode_follows_space_structure(realizations):
    space, _, _ = realizations
    assert build_heat(space).mode == "product"
    imported = MetricMeasureSpace.from_text(space.to_text())
    assert imported.factors is None
    # dense up to 1024 vertices: the 16 x 16 torus and the 33 x 31 grid
    assert imported.n in (256, 1023) and build_heat(imported).mode == "dense"
    # an imported graph above the dense cap steps
    big = MetricMeasureSpace.from_text(sp_mod.uniform_torus(64, 64).to_text())
    assert big.factors is None and big.n > DENSE_CAP
    assert build_heat(big).mode == "stepping"
    wtab = np.ones((17, 17))
    assert build_heat(sp_mod.weighted_grid_2d(SQUARE, 0.125, tabulated=wtab)).mode == "dense"


def test_product_matches_dense_and_stepping(realizations):
    space, times, H = realizations
    P = H["product"]
    F = np.random.default_rng(7).standard_normal((space.n, 5))
    x0s = (0, 37, space.n // 2, space.n - 1)
    grids = {mode: list(H[mode].apply_grid(F, times)) for mode in H}
    kgrids = {mode: list(H[mode].kernel_grid(37, times)) for mode in H}
    for k, t in enumerate(times):
        want = P.apply_batch(F, t)
        for mode in ("dense", "stepping"):
            assert close(H[mode].apply_batch(F, t), want), (mode, t)
            assert close(grids[mode][k][1], grids["product"][k][1]), (mode, t)
            assert close(kgrids[mode][k][1], kgrids["product"][k][1]), (mode, t)
            for x0 in x0s:
                assert close(H[mode].kernel(t, x0), P.kernel(t, x0)), (mode, t, x0)
        assert close(grids["product"][k][1], want)
        assert np.array_equal(kgrids["product"][k][1], P.kernel(t, 37))
    theta = H["dense"].eigenvalues
    assert close(P.eigenvalues, theta)
    with pytest.raises(ConfigError):
        H["stepping"].eigenvalues


def test_product_kernel_exact_positivity_symmetry_and_mass(realizations):
    space, times, H = realizations
    P = H["product"]
    rng = np.random.default_rng(8)
    for t in times:
        f = np.abs(rng.standard_normal(space.n))
        assert np.min(P.apply(f, t)) >= 0.0
        x, y = (int(v) for v in rng.integers(space.n, size=2))
        px, py = P.kernel(t, x), P.kernel(t, y)
        assert np.min(px) >= 0.0
        # a column is the clamped action on 1_x/mu_x, so symmetry holds to
        # round-off (measured at most 8e-16 of the column maximum)
        assert abs(px[y] - py[x]) <= 1e-14 * max(px.max(), py.max())
        assert float(px @ space.mu) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ConfigError):
        P.kernel_matrix(1.0)


def test_auto_mode_leaves_costly_products_to_the_generic_path(cycle32):
    assert build_heat(cycle32).mode == "dense"
    # a factor above the dense cap, on stand-in factor sizes: the choice
    # falls back to the vertex count
    def sizes(*ns):
        return [SimpleNamespace(n=n) for n in ns]

    assert product_pays(sizes(FACTOR_CAP, FACTOR_CAP // 16))
    assert not product_pays(sizes(FACTOR_CAP + 1, FACTOR_CAP // 2))
    assert not product_pays(sizes(FACTOR_CAP // 2, FACTOR_CAP + 1))
    # elongated products: forming the long factor's kernel per time would
    # dominate, so they keep the dense (n <= cap) or stepping choice
    assert build_heat(sp_mod.uniform_torus(3, 4000)).mode == "stepping"
    assert build_heat(sp_mod.uniform_torus(4000, 3)).mode == "stepping"
    assert build_heat(sp_mod.uniform_torus(3, 200)).mode == "dense"
    assert build_heat(sp_mod.uniform_torus(3, 48)).mode == "product"
    with pytest.raises(ConfigError):
        build_heat(sp_mod.uniform_torus(8, 8), mode="product")


def test_product_kernel_columns_agree_with_the_grid_and_the_action(realizations):
    space, times, H = realizations
    P = H["product"]
    t = times[1] * 1.5
    cols = [P.kernel(t, x) for x in range(0, space.n, 7)]
    grid = list(P.kernel_grid(7, [t / 2, t, 2 * t]))
    assert np.array_equal(grid[1][1], cols[1])
    delta = np.zeros(space.n)
    delta[7] = 1.0 / space.mu[7]
    assert close(P.apply_batch(delta, t), cols[1])
    assert close(P.apply_batch(2 * delta, t), 2 * cols[1])


def test_product_kernel_grid_matches_dense_on_a_long_grid():
    # factors of 128 and 8 vertices, a 64-time grid: every column of the
    # grid is the one-time column, and dense agrees to round-off
    space = sp_mod.uniform_torus(128, 8)
    P, D = build_heat(space), build_heat(space, mode="dense")
    assert P.mode == "product"
    ts = np.geomspace(0.01, 40.0, 64)
    for x0 in (0, 517, space.n - 1):
        grid = list(P.kernel_grid(x0, ts))
        assert [t for t, _ in grid] == list(ts)
        for t, col in grid:
            assert close(col, D.kernel(t, x0)), (x0, t)
            assert np.array_equal(col, P.kernel(t, x0)), (x0, t)
    assert close(P.kernel(0.3, [5, 517])[:, 1], P.kernel(0.3, 517), 1e-14)


@pytest.mark.parametrize("t", [0.01, 0.7, 16.0])
def test_product_kernel_matrix_is_symmetric_to_round_off(torus16, t):
    # a column is the outer product of its source's two clamped factor
    # kernel columns: symmetric and of unit mass to round-off (measured at
    # most 7e-16 of the maximum and 3e-14), exactly nonnegative, and the
    # dense realization's to 1e-12
    for space in (torus16, sp_mod.uniform_torus(128, 8)):
        P = build_heat(space)
        K = P.kernel(t, np.arange(space.n))
        assert close(K, K.T, 1e-14)
        assert np.min(K) >= 0.0
        assert close(space.mu @ K, np.ones(space.n), 1e-12)
        assert close(K, build_heat(space, mode="dense").kernel(t, np.arange(space.n)))
        # one source per call, as kernel_grid asks
        xs = np.arange(3, space.n, 29)
        single = np.column_stack([P.kernel(t, x)[xs] for x in xs])
        assert close(single, K[np.ix_(xs, xs)], 1e-14)


# -- random products ---------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(connected_graphs(), connected_graphs(), st.floats(0.01, 5.0))
def test_random_products_agree_with_dense(X, Y, t):
    space = product_space(X, Y)
    P, D = build_heat(space), build_heat(space, mode="dense")
    assert P.mode == "product"
    F = np.random.default_rng(0).standard_normal((space.n, 3))
    assert close(P.apply_batch(F, t), D.apply_batch(F, t), 1e-10)
    assert close(P.kernel(t, space.n - 1), D.kernel(t, space.n - 1), 1e-10)
    assert close(P.eigenvalues, D.eigenvalues, 1e-10)
    K = P.kernel(t, np.arange(space.n))
    assert close(K, K.T, 1e-12)
    assert_markov_semigroup(P, t)


@settings(max_examples=40, deadline=None)
@given(connected_graphs(), connected_graphs())
def test_random_products_have_the_sum_metric(X, Y):
    space = product_space(X, Y)
    every = np.arange(space.n)
    np.testing.assert_allclose(space.distance_rows(every), dijkstra_rows(space, every),
                               rtol=1e-14, atol=0.0)
