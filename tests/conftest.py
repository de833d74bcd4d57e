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
