"""Shared fixtures and independent oracles for the test suite."""

import heapq

import numpy as np
import pytest
from hypothesis import strategies as st

from mmslab import space as sp_mod
from mmslab.space import MetricMeasureSpace


def dijkstra_oracle(space, source):
    """Pure-python shortest paths, independent of scipy's csgraph."""
    adj = [[] for _ in range(space.n)]
    for i, j, l in zip(space.edge_i, space.edge_j, space.edge_l):
        adj[i].append((int(j), float(l)))
        adj[j].append((int(i), float(l)))
    dist = np.full(space.n, np.inf)
    dist[source] = 0.0
    heap = [(0.0, int(source))]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for w, l in adj[v]:
            nd = d + l
            if nd < dist[w]:
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return dist


def ball_mass_oracle(space, source, radius):
    d = dijkstra_oracle(space, source)
    return float(space.mu[d < radius].sum())


def close(a, b, tol=1e-12):
    """|a - b| <= tol relative to the size of the result."""
    return float(np.max(np.abs(a - b))) <= tol * max(1.0, float(np.max(np.abs(b))))


def gamma_out_of_place(space, f, g=None):
    """Gamma(f, g) with every edge temporary of its own: (c df) dg summed into
    a fresh field."""
    df = f[space.edge_j] - f[space.edge_i]
    dg = df if g is None else g[space.edge_j] - g[space.edge_i]
    prod = space.edge_c * df * dg
    field = np.zeros(space.n)
    np.add.at(field, space.edge_i, prod)
    np.add.at(field, space.edge_j, prod)
    field /= 2.0 * space.mu
    return field


def assert_markov_semigroup(H, t, tol=1e-10):
    """The exact identities of a heat realization at time t: unit mass,
    kernel symmetry, the semigroup law, and exact positivity of `apply`."""
    space = H.space
    assert close(H.apply(np.ones(space.n), t), np.ones(space.n), tol)
    P = H.kernel(t, np.arange(space.n))           # P[y, x] = p(t, x, y)
    assert close(P, P.T, tol)
    F = np.random.default_rng(1).standard_normal((space.n, 2))
    assert close(H.apply_batch(H.apply_batch(F, t / 3), 2 * t / 3),
                 H.apply_batch(F, t), tol)
    for x in (0, space.n - 1):
        delta = np.zeros(space.n)
        delta[x] = 1.0
        assert np.min(H.apply(delta, t)) >= 0.0
        assert np.min(H.apply(delta + np.abs(F[:, 0]), t)) >= 0.0


def tabulated_grid(h, seed=0):
    """The square at mesh h with seeded log-normal cell weights: no product
    structure, so the generic paths serve it."""
    m = int(round(2.0 / h)) + 1
    wtab = np.exp(0.5 * np.random.default_rng(seed).standard_normal((m, m)))
    return sp_mod.weighted_grid_2d(((-1.0, 1.0), (-1.0, 1.0)), h, tabulated=wtab)


@st.composite
def connected_graphs(draw, max_n=6):
    """A random spanning tree plus extra edges, with random weights."""
    n = draw(st.integers(2, max_n))
    pos = st.floats(0.1, 10.0)
    edges = {}
    for v in range(1, n):
        u = draw(st.integers(0, v - 1))
        edges[(u, v)] = (draw(pos), draw(pos))
    for _ in range(draw(st.integers(0, n))):
        u, v = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2,
                                    max_size=2, unique=True)))
        edges[(u, v)] = (draw(pos), draw(pos))
    mu = draw(st.lists(pos, min_size=n, max_size=n))
    return MetricMeasureSpace(mu, [(u, v, c, l) for (u, v), (c, l) in edges.items()])


@pytest.fixture(scope="session")
def two_point():
    return sp_mod.two_point()


@pytest.fixture(scope="session")
def cycle32():
    return sp_mod.uniform_cycle(32)


@pytest.fixture(scope="session")
def cycle64():
    return sp_mod.uniform_cycle(64)


@pytest.fixture(scope="session")
def torus16():
    return sp_mod.uniform_torus(16, 16)


@pytest.fixture(scope="session")
def grid1d_uniform():
    return sp_mod.weighted_grid_1d((-1.0, 1.0), 0.25, "constant")


@pytest.fixture(scope="session")
def sqrt_square_16():
    return sp_mod.weighted_grid_2d(((-1.0, 1.0), (-1.0, 1.0)), 1 / 16, "sqrt_abs_x")
