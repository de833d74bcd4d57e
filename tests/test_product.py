"""Cartesian-product spaces, the product metric and the product heat realization.

The built-in torus and separable grid are products of 1-d spaces; these
tests pin their construction against the double-loop builders they
replaced, check the product metric d_X + d_Y against Dijkstra on the
assembled graph, and cross-check the product realization against the dense
and stepping ones.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import dijkstra

from conftest import close, connected_graphs
from mmslab import ConfigError
from mmslab import space as sp_mod
from mmslab.heat import build_heat
from mmslab.space import MetricMeasureSpace, product_space

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
@pytest.mark.parametrize("weight,w", [("constant", sp_mod.ConstantWeight()),
                                      ("sqrt_abs_x", sp_mod.SqrtAbsXWeight())])
def test_separable_grid_matches_double_loop(h, weight, w):
    grid = sp_mod.weighted_grid_2d(SQUARE, h, weight)
    assert_same_space(grid, loop_grid(h, weight=w))
    assert grid.factors is not None


def test_tabulated_grid_matches_double_loop():
    h = 0.25
    wtab = np.exp(0.5 * np.random.default_rng(0).standard_normal((9, 9)))
    grid = sp_mod.weighted_grid_2d(SQUARE, h, tabulated=wtab)
    assert_same_space(grid, loop_grid(h, wtab=wtab))
    assert grid.factors is None


# -- the Kronecker-sum generator ---------------------------------------------------

def generator(space):
    return sp.diags(1.0 / space.mu) @ -space.laplacian()


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
    assert space._dist_cache == {}          # product rows are never cached


def test_product_distances_on_a_non_dyadic_mesh():
    space = sp_mod.weighted_grid_2d(SQUARE, 0.1, "sqrt_abs_x")
    src = sample_sources(space)
    np.testing.assert_allclose(space.distance_rows(src), dijkstra_rows(space, src),
                               rtol=1e-14, atol=0.0)


def test_generic_graphs_cache_dijkstra_rows_within_a_byte_budget():
    space = MetricMeasureSpace.from_text(sp_mod.uniform_torus(8, 8).to_text())
    assert space.factors is None
    assert space._dist_cache_cap * 8 * space.n <= 64 * 2 ** 20
    row = space.distances_from(9)
    assert space.distances_from(9) is row
    assert np.array_equal(row, dijkstra_rows(space, 9))


# -- product realization against dense and stepping ------------------------------

@pytest.fixture(scope="module", params=["torus16", "sqrt16"])
def realizations(request):
    if request.param == "torus16":
        space, times = sp_mod.uniform_torus(16, 16), (0.01, 0.3, 2.0, 16.0)
    else:
        h = 1 / 16
        space = sp_mod.weighted_grid_2d(SQUARE, h, "sqrt_abs_x")
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
    assert build_heat(imported).mode == "dense"
    assert build_heat(imported, dense_cap=100).mode == "stepping"
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
        assert px[y] == py[x]
        assert float(px @ space.mu) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ConfigError):
        P.kernel_matrix(1.0)


def test_auto_mode_leaves_costly_products_to_the_generic_path(cycle32):
    assert build_heat(cycle32).mode == "dense"
    # a factor above the dense cap: the parent choice by vertex count
    assert build_heat(sp_mod.uniform_torus(40, 5), dense_cap=30).mode == "stepping"
    # elongated products: forming the long factor's kernel per time would
    # dominate, so they keep the dense (n <= cap) or stepping choice
    assert build_heat(sp_mod.uniform_torus(3, 4000)).mode == "stepping"
    assert build_heat(sp_mod.uniform_torus(4000, 3)).mode == "stepping"
    assert build_heat(sp_mod.uniform_torus(3, 200)).mode == "dense"
    assert build_heat(sp_mod.uniform_torus(3, 48)).mode == "product"
    with pytest.raises(ConfigError):
        build_heat(sp_mod.uniform_torus(8, 8), mode="product")


def test_product_factor_kernels_are_built_once_per_time(realizations, monkeypatch):
    space, times, H = realizations
    P = H["product"]
    calls = []
    build = P._spectral_kernel
    monkeypatch.setattr(P, "_spectral_kernel",
                        lambda *a: calls.append(a[-1]) or build(*a))
    t = times[1] * 1.5        # a time no other test has cached
    cols = [P.kernel(t, x) for x in range(0, space.n, 7)]
    assert len(calls) == 2 and len(cols) > 2
    delta = np.zeros(space.n)
    delta[7] = 1.0 / space.mu[7]
    assert close(P.apply_batch(delta, t), cols[1])
    assert len(calls) == 2


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


@settings(max_examples=40, deadline=None)
@given(connected_graphs(), connected_graphs())
def test_random_products_have_the_sum_metric(X, Y):
    space = product_space(X, Y)
    every = np.arange(space.n)
    np.testing.assert_allclose(space.distance_rows(every), dijkstra_rows(space, every),
                               rtol=1e-14, atol=0.0)
