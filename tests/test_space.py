"""Space construction, metric balls, doubling and Poincare estimation."""

import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import dijkstra
from scipy.sparse.linalg import ArpackNoConvergence

from mmslab import (ConfigError, NumericalError, build_heat, carre_du_champ, holder_fit,
                    metric_ball)
from mmslab import space as sp_mod
from mmslab.space import (MetricMeasureSpace, build_space, estimate_doubling,
                          estimate_poincare, product_space, radius_grid,
                          vertex_complement, _sharp_poincare)

from conftest import ball_mass_oracle, connected_graphs, dijkstra_oracle, tabulated_grid


# -- construction -----------------------------------------------------------

def test_two_point(two_point):
    assert two_point.n == 2
    assert np.array_equal(two_point.mu, [1.0, 1.0])
    assert two_point.n_edges == 1
    assert two_point.edge_c[0] == 1.0 and two_point.edge_l[0] == 1.0


def test_grid1d_masses_and_conductances():
    # dual cells of [-1,1] at h=1: boundary halves and a full middle cell;
    # transmissibility w(midpoint) * h^(d-2) = 1/h
    g = sp_mod.weighted_grid_1d((-1.0, 1.0), 1.0, "constant")
    assert np.allclose(g.mu, [0.5, 1.0, 0.5])
    assert np.allclose(g.edge_c, [1.0, 1.0])


@pytest.mark.parametrize("h", [1 / 16, 0.1])
@pytest.mark.parametrize("weight", ["constant", "sqrt_abs_x"])
def test_grid1d_edge_columns_have_the_bits_of_the_row_loop(weight, h):
    # the loop of (k, k + 1, w(midpoint) / h, h) rows, with scalar point
    # values, that numpy columns replaced
    value = {"constant": lambda x: 1.0, "sqrt_abs_x": lambda x: np.sqrt(np.abs(x))}[weight]
    g = sp_mod.weighted_grid_1d((-1.0, 1.0), h, weight)
    xs = g.positions[:, 0]
    rows = [(k, k + 1, value((xs[k] + xs[k + 1]) / 2) / h, h) for k in range(g.n - 1)]
    old = MetricMeasureSpace(g.mu, rows, positions=g.positions, rim=[0, g.n - 1])
    for attr in ("edge_i", "edge_j", "edge_c", "edge_l", "w_data", "degree"):
        assert np.array_equal(getattr(g, attr), getattr(old, attr)), attr
    # a midpoint on the degeneracy line x = 0 is named
    with pytest.raises(ConfigError, match="zero conductance at midpoint 0.0"):
        sp_mod.weighted_grid_1d((-1.5, 1.5), 1.0, "sqrt_abs_x")


@pytest.mark.parametrize("n", [3, 64])
def test_cycle_edge_columns_have_the_bits_of_the_row_loop(n):
    c = sp_mod.uniform_cycle(n)
    old = MetricMeasureSpace(np.ones(n), [(k, (k + 1) % n, 1.0, 1.0) for k in range(n)],
                             positions=c.positions)
    for attr in ("edge_i", "edge_j", "edge_c", "edge_l", "w_data", "degree"):
        assert np.array_equal(getattr(c, attr), getattr(old, attr)), attr


def test_grid2d_sqrt_row_masses():
    h = 0.5
    g = sp_mod.weighted_grid_2d(((-1, 1), (-1, 1)), h, "sqrt_abs_x")
    line = [k for k in range(g.n) if abs(g.positions[k, 0]) < 1e-12]
    assert line, "the grid must contain the degeneracy line"
    # closed-form cell integral: int_{-h/2}^{h/2} sqrt|x| dx = (4/3)(h/2)^{3/2}
    interior_mass = (4.0 / 3.0) * (h / 2) ** 1.5 * h
    for k in line:
        assert g.mu[k] > 0
        if abs(abs(g.positions[k, 1]) - 1.0) > 1e-12:
            assert g.mu[k] == pytest.approx(interior_mass, rel=1e-12)


def test_build_space_errors():
    with pytest.raises(ConfigError):
        build_space({"family": "klein_bottle"})
    with pytest.raises(ConfigError):
        build_space({"family": "grid", "dim": 2, "h": -0.25})
    with pytest.raises(ConfigError):
        build_space({"family": "cycle", "n": 2})
    with pytest.raises(ConfigError):
        build_space({"family": "cycle", "n": 8, "extra": 1})
    # a table beside a grid that cannot carry it, or beside another weight
    with pytest.raises(ConfigError, match="1-d grid"):
        build_space({"family": "grid", "dim": 1, "h": 0.5, "tabulated": [1, 2, 3, 4, 5]})
    for weight in ("sqrt_abs_x", "constant"):
        with pytest.raises(ConfigError, match=f"weight '{weight}'"):
            build_space({"family": "grid", "dim": 2, "h": 0.5, "weight": weight,
                         "tabulated": [1.0] * 25})
    assert build_space({"family": "grid", "dim": 2, "h": 0.5, "weight": "tabulated",
                        "tabulated": [1.0] * 25}).name == "grid2d_tabulated_h0.5"
    with pytest.raises(ConfigError):
        MetricMeasureSpace([1.0, -1.0], [(0, 1, 1.0, 1.0)])
    with pytest.raises(ConfigError):  # disconnected
        MetricMeasureSpace([1.0] * 4, [(0, 1, 1.0, 1.0), (2, 3, 1.0, 1.0)])
    with pytest.raises(ConfigError):  # zero tabulated weight
        sp_mod.weighted_grid_2d(((-1, 1), (-1, 1)), 1.0,
                                tabulated=np.zeros((3, 3)))


# -- metric balls -----------------------------------------------------------

def test_ball_radius_zero_empty(cycle32):
    assert metric_ball(cycle32, 0, 0.0).members.size == 0


def test_ball_beyond_diameter_is_everything(cycle32):
    ball = metric_ball(cycle32, 5, 17.0)   # diameter of cycle(32) is 16
    assert ball.members.size == cycle32.n
    assert ball.measure == pytest.approx(cycle32.total_mass)


def test_ball_one_hop_on_fine_grid():
    g = sp_mod.weighted_grid_1d((-1.0, 1.0), 0.25, "constant")
    center = g.vertex_at((0.0,))
    ball = metric_ball(g, center, 0.3)
    assert set(ball.members) == {center - 1, center, center + 1}


def test_ball_monotone_in_radius(torus16):
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = int(rng.integers(torus16.n))
        r1, r2 = sorted(rng.uniform(0, 10, size=2))
        b1 = metric_ball(torus16, x, r1)
        b2 = metric_ball(torus16, x, r2)
        assert set(b1.members) <= set(b2.members)


def test_distances_match_oracle(sqrt_square_16):
    d = sqrt_square_16.distances_from(7)
    assert np.allclose(d, dijkstra_oracle(sqrt_square_16, 7))


@pytest.mark.parametrize("h", [0.1, 1 / 64, 1 / 128])
@pytest.mark.parametrize("weight", ["sqrt_abs_x", "constant"])
def test_path_distances_are_dijkstra_bit_for_bit_without_dijkstra(weight, h,
                                                                  monkeypatch):
    # the factors of every 2-d grid: a running sum of the edge lengths
    # outward from the source, in Dijkstra's order of addition
    path = sp_mod.weighted_grid_1d((-1.0, 1.0), h, weight)
    want = dijkstra(path._len_graph, directed=False, indices=np.arange(path.n))

    def no_dijkstra(*args, **kwargs):
        raise AssertionError("a path ran Dijkstra")

    monkeypatch.setattr("scipy.sparse.csgraph.dijkstra", no_dijkstra)
    for v in range(path.n):
        assert np.array_equal(path.distances_from(v), want[v])
    assert np.array_equal(path.distance_rows(np.arange(path.n)), want)


def ring(lengths):
    """A cycle with edge k -- k+1 (mod n) of the given lengths, unit
    conductances and masses, its edges listed in a shuffled order."""
    n = len(lengths)
    perm = np.random.default_rng(n).permutation(n)
    edges = [(k, (k + 1) % n, 1.0, float(lengths[k])) for k in perm]
    return MetricMeasureSpace(np.ones(n), edges, name=f"ring_{n}")


def cycles():
    rng = np.random.default_rng(41)
    yield sp_mod.uniform_cycle(48)
    yield sp_mod.uniform_cycle(3)
    for n in (3, 4, 17, 64):
        yield ring(rng.uniform(0.1, 3.0, n))
    # dyadic lengths: equal sums both ways round, so ties at the far side
    for n in (6, 9, 40):
        yield ring(rng.choice([0.25, 0.5, 1.0], n))


@pytest.mark.parametrize("cycle", list(cycles()), ids=lambda c: f"{c.name}")
def test_cycle_distances_are_dijkstra_bit_for_bit_without_dijkstra(cycle, monkeypatch):
    # a path is a cycle without its closing edge: the smaller of the running
    # sums in each direction, Dijkstra's bits without Dijkstra
    want = dijkstra(cycle._len_graph, directed=False, indices=np.arange(cycle.n))
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("indices"))
        return dijkstra(*args, **kwargs)

    monkeypatch.setattr("scipy.sparse.csgraph.dijkstra", counted)
    for v in range(cycle.n):
        row = cycle.distances_from(v)
        assert np.array_equal(row, want[v])
        assert np.array_equal(row, dijkstra_oracle(cycle, v))
    assert np.array_equal(cycle.distance_rows(np.arange(cycle.n)), want)
    assert np.array_equal(cycle.distance_rows(np.arange(3)),
                          [dijkstra_oracle(cycle, v) for v in range(3)])
    assert calls == []


def test_only_paths_and_cycles_take_running_sums():
    # a chord, a missing edge or a closing edge elsewhere: Dijkstra serves
    chord = MetricMeasureSpace(np.ones(5), [(k, k + 1, 1.0, 1.0) for k in range(4)]
                               + [(1, 3, 1.0, 1.5)])
    lasso = MetricMeasureSpace(np.ones(4), [(0, 1, 1.0, 1.0), (1, 2, 1.0, 1.0),
                                            (2, 3, 1.0, 1.0), (1, 3, 1.0, 1.0)])
    for space in (chord, lasso):
        assert space._ring is None
        for v in range(space.n):
            assert np.array_equal(space.distances_from(v), dijkstra_oracle(space, v))
    assert sp_mod.weighted_grid_1d((-1.0, 1.0), 0.25)._ring is not None
    assert sp_mod.uniform_cycle(5)._ring is not None
    assert sp_mod.uniform_torus(4, 5)._ring is None


# -- edge columns and the lean build ------------------------------------------

def row_form(space):
    """The same space built from (i, j, c, l) rows, with the roles of i and
    j swapped on every other edge."""
    i, j = space.edge_i.copy(), space.edge_j.copy()
    i[::2], j[::2] = space.edge_j[::2], space.edge_i[::2]
    return MetricMeasureSpace(space.mu, np.column_stack([i, j, space.edge_c, space.edge_l]),
                              positions=space.positions, rim=space.rim)


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("make", [
    lambda: sp_mod.weighted_grid_2d(((-1, 1), (-1, 1)), 1 / 32, "sqrt_abs_x"),
    lambda: sp_mod.uniform_torus(9, 6),
    lambda: tabulated_grid(1 / 16),
], ids=["sqrt32", "torus9x6", "tabulated16"])
def test_columns_and_rows_build_the_same_space(make):
    space = make()
    rows = row_form(space)
    assert space.edge_i.dtype == np.intp and space.edge_c.dtype == float
    for attr in ("edge_i", "edge_j", "edge_c", "edge_l", "mu", "degree", "positions", "rim"):
        assert_same_bits(getattr(space, attr), getattr(rows, attr))
    for attr in ("data", "indices", "indptr"):
        assert_same_bits(getattr(space.conductance_matrix, attr),
                         getattr(rows.conductance_matrix, attr))
    src = np.unique(np.random.default_rng(0).integers(space.n, size=6))
    assert_same_bits(space.distance_rows(src), rows.distance_rows(src))
    if space.factors is not None:           # product rows come from the factors
        assert "_len_graph" not in space.__dict__


@pytest.mark.parametrize("build", [
    lambda: sp_mod.weighted_grid_1d((-1.0, 1.0), 1 / 64, "sqrt_abs_x"),
    lambda: sp_mod.uniform_cycle(48),
    lambda: sp_mod.uniform_torus(12, 9),
    lambda: sp_mod.weighted_grid_2d(((-1, 1), (-1, 1)), 1 / 32, "sqrt_abs_x"),
], ids=["path", "cycle", "torus", "sqrt-square"])
def test_structure_proves_connectivity_without_a_search(build, monkeypatch):
    # paths and cycles hold every edge k -- k+1; products are built from
    # factors checked when they were built
    def no_search(*args, **kwargs):
        raise AssertionError("a connectivity search ran")

    monkeypatch.setattr("scipy.sparse.csgraph.connected_components", no_search)
    space = build()
    assert space._ring is not None or space.factors is not None


@pytest.mark.parametrize("n,edges", [
    (6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),    # two triangles
    (5, [(0, 1), (1, 2), (2, 3), (0, 3)]),                    # a cycle and a loose vertex
    (6, [(0, 1), (1, 2), (2, 3), (4, 5)]),                    # a path and a detached edge
    (6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)]),            # n - 1 edges, four steps
], ids=["triangles", "cycle+vertex", "path+edge", "triangle+path"])
def test_disconnected_edge_lists_are_still_searched(n, edges):
    rows = [(i, j, 1.0, 1.0) for i, j in edges]
    with pytest.raises(ConfigError, match="disconnected"):
        MetricMeasureSpace(np.ones(n), rows)
    text = "\n".join([f"{n} {len(rows)}"] + [f"{k} 1.0" for k in range(n)]
                     + [f"{i} {j} 1.0 1.0" for i, j, _, _ in rows])
    with pytest.raises(ConfigError, match="disconnected"):
        MetricMeasureSpace.from_text(text)


def test_the_factors_keyword_is_private():
    # only `product_space` passes factors; neither a config nor a graph file
    # reaches the keyword that skips the search
    text = sp_mod.uniform_cycle(5).to_text()
    with pytest.raises(TypeError):
        MetricMeasureSpace.from_text(text, _factors=None)
    for key in ("_factors", "factors"):
        with pytest.raises(ConfigError, match="unknown space keys"):
            build_space({"family": "cycle", "n": 5, key: None})
        with pytest.raises(ConfigError, match="unknown space keys"):
            build_space({"family": "grid", "dim": 2, "h": 0.5, key: None})


def test_ordered_edge_columns_are_kept_without_a_copy():
    i = np.array([0, 1, 0])
    j = np.array([1, 2, 2])
    c, l = np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.5, 2.0])
    space = MetricMeasureSpace(np.ones(3), (i, j, c, l))
    assert all(a is b for a, b in zip((i, j, c, l), (space.edge_i, space.edge_j,
                                                     space.edge_c, space.edge_l)))
    flipped = MetricMeasureSpace(np.ones(3), (j, i, c, l))
    assert np.array_equal(flipped.edge_i, i) and np.array_equal(flipped.edge_j, j)
    with pytest.raises(ConfigError, match="one length"):
        MetricMeasureSpace(np.ones(3), (i, j[:2], c, l))


@pytest.mark.parametrize("edges,message", [
    ([(0, 0, 1.0, 1.0), (0, 1, 1.0, 1.0)], "self loop"),
    ([(0, 1, 1.0, 1.0), (1, 3, 1.0, 1.0)], "out of range"),
    ([(0, 1, 1.0, 1.0), (1, 2, 1.0, 1.0), (2, 1, 1.0, 1.0)], "duplicate edge (1,2)"),
    ([(0, 1, 1.0, 1.0), (1, 2, 0.0, 1.0)], "needs c > 0"),
    ([(0, 1, 1.0, np.inf), (1, 2, 1.0, 1.0)], "needs c > 0"),
    ([(0, 1, 1.0, 1.0)], "disconnected"),
], ids=["loop", "range", "duplicate", "conductance", "length", "disconnected"])
def test_rows_and_columns_run_the_same_checks(edges, message):
    E = np.array(edges, dtype=float)
    columns = (E[:, 0].astype(np.intp), E[:, 1].astype(np.intp), E[:, 2], E[:, 3])
    for form in (edges, E, columns):
        with pytest.raises(ConfigError, match=re.escape(message)):
            MetricMeasureSpace(np.ones(3), form)


@settings(max_examples=60, deadline=None)
@given(connected_graphs(), st.data())
def test_a_repeated_pair_is_named_at_its_later_copy(space, data):
    # one pair listed again further on, in either orientation: the error
    # names the pair, and only the later copy is marked
    rows = list(zip(space.edge_i.tolist(), space.edge_j.tolist(),
                    space.edge_c.tolist(), space.edge_l.tolist()))
    k = data.draw(st.integers(0, len(rows) - 1))
    at = data.draw(st.integers(k + 1, len(rows)))
    a, b, c, l = rows[k]
    rows.insert(at, (b, a, 2 * c, l) if data.draw(st.booleans()) else (a, b, c, l))
    with pytest.raises(ConfigError, match=re.escape(f"duplicate edge ({a},{b})")):
        MetricMeasureSpace(space.mu, rows)
    i, j, c, _ = sp_mod._edge_columns(rows)
    duplicate = sp_mod._symmetric_csr(space.n, np.minimum(i, j), np.maximum(i, j), c)[3]
    assert np.flatnonzero(duplicate).tolist() == [at]


def traced(build):
    tracemalloc.start()
    try:
        space = build()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return space, peak / 2 ** 20, kept / 2 ** 20


def test_product_grid_build_holds_only_what_the_space_keeps():
    # h = 1/128: n = 66049, m = 131584.  The space keeps its edge columns
    # (4 m doubles), W (2m doubles and 2m + n int32), the degrees, masses
    # and positions: 9.4 MB.  A float (m, 4) stack, its column copies and a
    # second CSR of lengths took the build to a 31.4 MB peak, 12.7 MB kept
    h = 1 / 128
    build = lambda: sp_mod.weighted_grid_2d(((-1, 1), (-1, 1)), h, "sqrt_abs_x")
    build()
    space, peak, kept = traced(build)
    assert space.n == 66049 and space.n_edges == 131584
    assert "_len_graph" not in space.__dict__
    assert kept <= 10.0
    assert peak <= 18.0


# -- W's arrays against scipy ---------------------------------------------------

def scipy_conductances(space):
    """W built the way scipy builds it from COO triplets: the independent
    oracle for the space's own CSR arrays."""
    i, j, c = space.edge_i, space.edge_j, space.edge_c
    rows = np.concatenate([i, j]).astype(np.int32)
    cols = np.concatenate([j, i]).astype(np.int32)
    return scipy.sparse.csr_matrix((np.concatenate([c, c]), (rows, cols)),
                                   shape=(space.n, space.n))


def hub_graph():
    """A random connected graph with seeded log-normal conductances whose
    busiest row holds 36 entries: past 8 terms numpy's reduce sums pairwise,
    so this row checks that the degrees are summed as scipy sums them."""
    rng = np.random.default_rng(5)
    n = 500
    edges = {(min(v, u), max(v, u)) for v in range(1, n) for u in [rng.integers(v)]}
    edges |= {(0, int(v)) for v in rng.choice(np.arange(1, n), 23, replace=False)}
    while len(edges) < 1200:
        u, v = sorted(rng.choice(n, 2, replace=False))
        edges.add((int(u), int(v)))
    edges = sorted(edges)
    rng.shuffle(edges)
    c = np.exp(2.0 * rng.standard_normal(len(edges)))
    return MetricMeasureSpace(rng.uniform(0.5, 2.0, n),
                              [(u, v, w, 1.0) for (u, v), w in zip(edges, c)])


TEXT_GRAPH = """6 8
0 1.0
1 0.5
2 2.0
3 1.5
4 0.25
5 1.0
4 5 0.3 1.0
0 1 1.7 1.0
3 1 0.1 2.0
2 0 2.5 0.5
5 3 1e-3 1.0
1 2 0.7 1.0
0 4 3.3 1.5
2 5 0.9 1.0
"""


@pytest.mark.parametrize("make", [
    lambda: sp_mod.weighted_grid_2d(((-1, 1), (-1, 1)), 1 / 16, "sqrt_abs_x"),
    lambda: tabulated_grid(1 / 16),
    lambda: sp_mod.uniform_torus(9, 6),
    lambda: MetricMeasureSpace.from_text(TEXT_GRAPH),
    hub_graph,
], ids=["sqrt16", "tabulated16", "torus9x6", "text", "hub"])
def test_w_arrays_are_scipys_to_the_bit(make):
    space = make()
    W = scipy_conductances(space)
    n = space.n
    for attr in ("indptr", "indices", "data"):
        assert_same_bits(getattr(space, "w_" + attr), getattr(W, attr))
    assert_same_bits(space.degree, np.asarray(W.sum(axis=1)).ravel())
    if make is hub_graph:
        # past 8 entries a row is summed pairwise, so the degrees are not
        # W 1, the sum in column order
        assert int(np.max(np.diff(space.w_indptr))) > 8
        assert not np.array_equal(space.degree, space.conductance_apply(np.ones(n)))

    rng = np.random.default_rng(1)
    u = rng.standard_normal(n)
    # the neighbours of vertex 1 read -0.0, so every product of its row is
    # -0.0 and the sum, started at 0.0 as scipy starts it, is +0.0
    u[space.w_indices[space.w_indptr[1]:space.w_indptr[2]]] = -0.0
    Wu = space.conductance_apply(u)
    assert_same_bits(Wu, W @ u)
    assert Wu[1] == 0.0 and not np.signbit(Wu[1])

    L = scipy.sparse.diags(np.asarray(W.sum(axis=1)).ravel()) - W
    assert_same_bits(sp_mod.dense_laplacian(space), L.toarray())
    idx = np.unique(rng.choice(n, n // 2, replace=False))
    assert_same_bits(sp_mod.dense_laplacian(space, idx), L.tocsr()[idx][:, idx].toarray())
    # the scipy matrix wraps the same arrays
    M = space.conductance_matrix
    for attr in ("indptr", "indices", "data"):
        assert np.shares_memory(getattr(M, attr), getattr(space, "w_" + attr))


@pytest.mark.parametrize("make,R0", [
    (lambda: sp_mod.weighted_grid_2d(((-1, 1), (-1, 1)), 1 / 32, "sqrt_abs_x"), 0.5),
    (lambda: sp_mod.weighted_grid_1d((-1.0, 1.0), 1 / 64, "sqrt_abs_x"), 0.5),
    (lambda: sp_mod.uniform_torus(24, 20), 6.0),
], ids=["product", "path", "torus"])
def test_no_length_graph_unless_dijkstra_runs(make, R0, monkeypatch):
    space = make()

    def no_dijkstra(*args, **kwargs):
        raise AssertionError("Dijkstra ran on the length graph")

    monkeypatch.setattr("scipy.sparse.csgraph.dijkstra", no_dijkstra)
    src = np.arange(0, space.n, max(1, space.n // 7))
    rows = space.distance_rows(src)
    for v, row in zip(src, rows):
        assert np.array_equal(space.distances_from(v), row)
    estimate_doubling(space, R0)
    x = space.positions[:, 0]
    u = np.sin(3.0 * (x - x.min()) / np.ptp(x))
    holder_fit(space, u, metric_ball(space, space.n // 2, R0 / 2), np.zeros(space.n))
    for s in (space, *(space.factors or ())):
        assert "_len_graph" not in s.__dict__, s.name


# -- doubling ---------------------------------------------------------------

def test_doubling_cycle_against_enumeration(cycle64):
    rep = estimate_doubling(cycle64, 16.0)
    radii = radius_grid(cycle64, 16.0)
    radii = radii[radii > 1.0 + 1e-12]
    small = radii[radii < 8.0]
    best = 0.0
    for x in range(cycle64.n):
        for r in small:
            ratio = (ball_mass_oracle(cycle64, x, 2 * r)
                     / ball_mass_oracle(cycle64, x, r))
            best = max(best, ratio)
    assert rep.C_d == pytest.approx(best, rel=1e-12)
    # ball cardinality 2*ceil(r)-1 makes the enumerated maximum 11/5
    assert rep.C_d == pytest.approx(2.2, rel=1e-12)
    assert 1.9 <= rep.C_d <= 2.4
    assert rep.Q_fit == pytest.approx(1.0, rel=0.10)


def test_doubling_torus_area_law():
    rep = estimate_doubling(sp_mod.uniform_torus(32, 32), 8.0)
    assert rep.Q_fit == pytest.approx(2.0, rel=0.10)
    assert rep.C_d >= 1.0 and rep.C_Q >= 1.0


def test_doubling_powerlaw_valid_on_every_sample(sqrt_square_16):
    # the paper family is doubling; the fitted constants must be finite and
    # the fitted power law must hold at every enumerated sample
    R0 = 0.5
    rep = estimate_doubling(sqrt_square_16, R0)
    assert np.isfinite(rep.C_Q) and rep.C_Q >= 1.0
    radii = radius_grid(sqrt_square_16, R0)
    radii = radii[radii > sqrt_square_16.min_edge_length + 1e-12]
    rng = np.random.default_rng(1)
    for x in rng.integers(sqrt_square_16.n, size=12):
        masses = [ball_mass_oracle(sqrt_square_16, int(x), r) for r in radii]
        for a in range(len(radii)):
            for b in range(a + 1, len(radii)):
                bound = rep.C_Q * (radii[b] / radii[a]) ** rep.Q_fit * masses[a]
                assert masses[b] <= bound * (1 + 1e-9)


def test_doubling_constant_valid_exhaustively(cycle64):
    rep = estimate_doubling(cycle64, 16.0)
    radii = radius_grid(cycle64, 16.0)
    radii = radii[(radii > 1.0 + 1e-12) & (radii < 8.0)]
    for x in range(cycle64.n):
        for r in radii:
            assert (ball_mass_oracle(cycle64, x, 2 * r)
                    <= rep.C_d * ball_mass_oracle(cycle64, x, r) * (1 + 1e-12))


def ball_masses_one_row(d_row, mu, radii):
    order = np.argsort(d_row)
    cum = np.concatenate([[0.0], np.cumsum(mu[order])])
    return cum[np.searchsorted(d_row[order], radii, side="left")]


def doubling_queries(space, R0):
    """The radius grid of `estimate_doubling` and its small radii."""
    radii = radius_grid(space, R0)
    radii = radii[radii > space.min_edge_length * (1 + 1e-12)]
    return radii, radii[radii < R0 / 2]


def doubling_reference(space, R0):
    """Vertex by vertex: one Dijkstra row and three ball-mass sorts each."""
    radii, small = doubling_queries(space, R0)
    ia, ib = np.triu_indices(radii.size, k=1)
    best, worst, ys = -np.inf, None, []
    for v in range(space.n):
        row = dijkstra(space._len_graph, directed=False, indices=v)
        ratios = (ball_masses_one_row(row, space.mu, 2 * small)
                  / ball_masses_one_row(row, space.mu, small))
        k = int(np.argmax(ratios))
        if ratios[k] > best:
            best, worst = float(ratios[k]), (v, float(small[k]))
        m_all = ball_masses_one_row(row, space.mu, radii)
        ys.append(np.log(m_all[ib]) - np.log(m_all[ia]))
    x = np.tile(np.log(radii[ib] / radii[ia]), space.n)
    y = np.concatenate(ys)
    (q, b), *_ = np.linalg.lstsq(np.column_stack([x, np.ones_like(x)]), y, rcond=None)
    b = max(b, float(np.max(y - q * x)))
    return best, worst, float(q), max(1.0, float(np.exp(b)))


def unit_masses(space):
    """The same graph with every vertex mass 1, so ball masses are counts."""
    return MetricMeasureSpace(np.ones(space.n), np.column_stack(
        [space.edge_i, space.edge_j, space.edge_c, space.edge_l]))


def assert_exact_factor_balls(space, queries):
    """Factor ball masses against the summed product rows: the member counts
    of every ball agree exactly, the masses to 1e-13 relative."""
    rows = space.distance_rows(np.arange(space.n))
    X, Y = space.factors
    counts = sp_mod._factor_ball_masses(product_space(unit_masses(X), unit_masses(Y)),
                                        queries)
    assert np.array_equal(counts, (rows[:, :, None] < queries).sum(axis=1))
    np.testing.assert_allclose(sp_mod._factor_ball_masses(space, queries),
                               sp_mod._ball_masses(rows, space.mu, queries),
                               rtol=1e-13, atol=0.0)


def assert_exact_doubling(rep, want):
    assert (rep.C_d, rep.worst_pair) == want[:2]
    # the fit solves the normal equations from sums, the reference runs
    # lstsq on the tiled samples: the same least squares to round-off
    np.testing.assert_allclose([rep.Q_fit, rep.C_Q], want[2:], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("space,R0,exact", [
    (sp_mod.uniform_torus(32, 32), 8.0, True),
    (tabulated_grid(1 / 16), 0.5, True),
    (sp_mod.uniform_cycle(64), 16.0, True),
    (sp_mod.weighted_grid_1d((-1.0, 1.0), 1 / 32, "sqrt_abs_x"), 0.5, True),
    (sp_mod.weighted_grid_2d(((-1, 1), (-1, 1)), 1 / 16, "sqrt_abs_x"), 0.5, False),
], ids=["torus32", "tabulated16", "cycle64", "path32", "sqrt16"])
def test_doubling_equals_the_per_vertex_reference(space, R0, exact):
    rep = estimate_doubling(space, R0)
    want = doubling_reference(space, R0)
    if exact:       # integer masses on the torus, the same sorted rows elsewhere
        assert_exact_doubling(rep, want)
        return
    # the factor path adds the same masses in another order, which moves the
    # constants by an ulp here; the balls themselves are the same
    radii, small = doubling_queries(space, R0)
    assert_exact_factor_balls(space, np.concatenate([small, 2 * small, radii]))
    np.testing.assert_allclose([rep.C_d, rep.Q_fit, rep.C_Q],
                               [want[0], want[2], want[3]], rtol=1e-13, atol=0.0)
    v, r = rep.worst_pair
    row = dijkstra(space._len_graph, directed=False, indices=v)
    attained = (ball_masses_one_row(row, space.mu, [2 * r])
                / ball_masses_one_row(row, space.mu, [r]))
    np.testing.assert_allclose(attained, [rep.C_d], rtol=1e-13, atol=0.0)


@settings(max_examples=40, deadline=None)
@given(connected_graphs())
def test_doubling_equals_the_per_vertex_reference_on_random_graphs(space):
    # a graph without factors is the product of one vertex and the graph
    # itself: its masses are its own sorted rows', the reference's to the bit
    R0 = 8 * space.min_edge_length
    want = doubling_reference(space, R0)
    if want[2] <= 0:        # every ball of the grid holds the whole graph
        with pytest.raises(NumericalError):
            estimate_doubling(space, R0)
        return
    assert_exact_doubling(estimate_doubling(space, R0), want)


@pytest.mark.parametrize("space,R0", [
    (sp_mod.uniform_torus(32, 32), 8.0),
    (sp_mod.weighted_grid_2d(((-1, 1), (-1, 1)), 1 / 16, "sqrt_abs_x"), 0.5),
], ids=["torus32", "sqrt16"])
def test_doubling_fit_holds_few_copies_of_the_samples(space, R0):
    # the fit reads sums of the (n, P) block of log ratios; the lstsq fit on
    # the tiled samples peaked at 7.0 N doubles on both spaces
    estimate_doubling(space, R0)            # the distance rows are cached
    tracemalloc.start()
    try:
        rep = estimate_doubling(space, R0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 8 * rep.n_samples


@pytest.mark.parametrize("weight", ["constant", "sqrt_abs_x"])
def test_factor_ball_masses_keep_the_summed_row_ties(weight):
    # h = 0.1 is not dyadic: fl(d_X + d_Y) < r and d_Y < fl(r - d_X) disagree
    # on some balls, at the grid radii and at radii equal to a distance sum
    space = sp_mod.weighted_grid_2d(((-1, 1), (-1, 1)), 0.1, weight)
    radii, small = doubling_queries(space, 1.0)
    sums = np.unique(space.distance_rows(np.arange(space.n)))
    assert_exact_factor_balls(space, np.concatenate(
        [small, 2 * small, radii, sums[::max(1, sums.size // 40)]]))


@settings(max_examples=40, deadline=None)
@given(connected_graphs(), connected_graphs())
def test_factor_ball_masses_on_random_products(X, Y):
    space = product_space(X, Y)
    sums = np.unique(space.distance_rows(np.arange(space.n)))
    assert_exact_factor_balls(space, np.concatenate([sums, (sums[1:] + sums[:-1]) / 2]))


def test_doubling_on_elongated_products_sums_over_the_smaller_factor():
    # tracing the estimate sees its (n, queries) masses, the fit's samples x
    # and y with the (N, 2) design matrix and lstsq's copies of those, and
    # the temporaries of the mass blocks, which stay near _ROW_BLOCK; summing
    # over the 4000-vertex factor would hold a 4000 x 2001 matrix
    R0 = 8.0
    short, long = sp_mod.uniform_cycle(3), sp_mod.uniform_cycle(4000)
    tall, wide = product_space(short, long), product_space(long, short)
    estimate_doubling(tall, R0)
    radii, small = doubling_queries(tall, R0)
    reps = []
    for space in (tall, wide):
        tracemalloc.start()
        try:
            reps.append(estimate_doubling(space, R0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        masses = space.n * (2 * small.size + radii.size)
        fit = 7 * space.n * radii.size * (radii.size - 1) // 2
        assert peak <= 8 * (masses + fit + 2 * sp_mod._ROW_BLOCK)
    a, b = reps
    assert (a.C_d, a.Q_fit, a.C_Q) == (b.C_d, b.Q_fit, b.C_Q)


def test_doubling_of_a_product_equals_its_import():
    # the import keeps no factors: one vertex times the graph, read off its
    # Dijkstra rows, against the factor sums of the torus
    torus = sp_mod.uniform_torus(8, 8)
    fast = estimate_doubling(torus, 4.0)
    rows = estimate_doubling(MetricMeasureSpace.from_text(torus.to_text()), 4.0)
    assert (fast.C_d, fast.worst_pair, fast.Q_fit, fast.C_Q) == \
        (rows.C_d, rows.worst_pair, rows.Q_fit, rows.C_Q)


def test_doubling_single_vertex_rejected():
    lonely = MetricMeasureSpace([1.0], [])
    with pytest.raises(ConfigError):
        estimate_doubling(lonely, 1.0)


# -- Poincare ---------------------------------------------------------------

def test_poincare_path_matches_neumann_eigenvalue():
    # one ball covering a uniform path: the sharp constant is 1/(r sqrt(theta1))
    # and theta1 approximates the continuum Neumann value pi^2/L^2
    path = sp_mod.weighted_grid_1d((0.0, 1.0), 1 / 64, "constant")
    theta1 = build_heat(path).eigenvalues[1]
    assert theta1 == pytest.approx(np.pi ** 2, rel=1e-3)
    members = np.arange(path.n)
    c = _sharp_poincare(path, members, members, 1.0)
    assert c == pytest.approx(1.0 / np.sqrt(theta1), rel=1e-9)
    assert c == pytest.approx(1.0 / np.pi, rel=1e-3)


def poincare_reference(space, ball, outer):
    """Sharp constant by projecting both forms onto the complement of constants."""
    S = outer.members
    m = S.size
    loc = -np.ones(space.n, dtype=np.intp)
    loc[S] = np.arange(m)
    L = np.zeros((m, m))
    for i, j, c in zip(space.edge_i, space.edge_j, space.edge_c):
        a, b = loc[i], loc[j]
        if a >= 0 and b >= 0:
            L[a, a] += c
            L[b, b] += c
            L[a, b] -= c
            L[b, a] -= c
    bloc = loc[ball.members]
    mu_b = space.mu[ball.members]
    QL = np.zeros((m, m))
    QL[np.ix_(bloc, bloc)] -= np.outer(mu_b, mu_b) / mu_b.sum()
    QL[bloc, bloc] += mu_b
    Z = scipy.linalg.null_space(np.ones((1, m)))
    lam = scipy.linalg.eigh(Z.T @ QL @ Z, Z.T @ (ball.radius ** 2 * L) @ Z,
                            eigvals_only=True)[-1]
    return np.sqrt(max(lam, 0.0))


def random_text_graph(n=200, extra=300, seed=9):
    """A seeded random connected graph (spanning tree plus extra edges with
    random conductances and lengths), read back through `from_text`."""
    rng = np.random.default_rng(seed)
    edges = {(int(rng.integers(v)), v) for v in range(1, n)}
    while len(edges) < n - 1 + extra:
        i, j = sorted(int(v) for v in rng.choice(n, 2, replace=False))
        edges.add((i, j))
    lines = [f"{n} {len(edges)}"]
    lines += [f"{i} {m:.17g}" for i, m in enumerate(rng.uniform(0.2, 3.0, n))]
    lines += [f"{i} {j} {rng.uniform(0.1, 5.0):.17g} {rng.uniform(0.5, 2.0):.17g}"
              for i, j in sorted(edges)]
    return MetricMeasureSpace.from_text("\n".join(lines), name="random_text")


def tabulated_grid(h=1 / 16, seed=4):
    m = int(round(2 / h)) + 1
    w = np.random.default_rng(seed).uniform(0.25, 4.0, m * m)
    return sp_mod.weighted_grid_2d(((-1, 1), (-1, 1)), h, tabulated=w)


# The sharp constant is solved by Lanczos on the grounded 2B Laplacian; the
# reference projects both forms on 2B onto the complement of the constants.
@pytest.mark.parametrize("space,radii", [
    (sp_mod.uniform_torus(32, 32), (1.5, 2.9, 4.1, 6.0)),
    (sp_mod.weighted_grid_2d(((-1, 1), (-1, 1)), 1 / 16, "sqrt_abs_x"),
     (0.07, 0.13, 0.26)),
    (tabulated_grid(), (0.07, 0.13, 0.26)),
    (random_text_graph(), (1.0, 1.8, 2.6)),
    (sp_mod.uniform_torus(6, 6), (7.0,)),       # B = 2B = the whole torus
], ids=["torus32", "sqrt16", "tabulated16", "random_text", "torus6_2B_is_B"])
def test_poincare_lift_equals_the_null_space_projection(space, radii):
    rng = np.random.default_rng(5)
    for r in radii:
        for x in rng.integers(space.n, size=2):
            ball, outer = metric_ball(space, x, r), metric_ball(space, x, 2 * r)
            assert ball.members.size >= 2
            if space.name == "torus_6x6":
                assert ball.members.size == outer.members.size == space.n
            c = _sharp_poincare(space, ball.members, outer.members, r)
            assert c == pytest.approx(poincare_reference(space, ball, outer),
                                      rel=1e-10, abs=0.0)


@pytest.mark.parametrize("space,x,r", [
    (sp_mod.uniform_torus(32, 32), 100, 4.1),
    (tabulated_grid(), 300, 0.26),
    (random_text_graph(), 17, 1.8),
    # a large ball on the degenerate weight (|B| = 649, |2B| = 2089)
    (sp_mod.weighted_grid_2d(((-1, 1), (-1, 1)), 1 / 24, "sqrt_abs_x"), None, 0.75),
], ids=["torus32", "tabulated16", "random_text", "sqrt24"])
def test_poincare_top_eigenvector_certifies_the_constant(space, x, r):
    # harmonically extend the top eigenvector of (Q_B, r^2 S) into the annulus
    # and evaluate the Poincare quotient of that field through carre_du_champ
    # on the subgraph induced on 2B: it must attain C^2
    if x is None:
        x = space.vertex_at([0.0, 0.0])
    ball, outer = metric_ball(space, x, r), metric_ball(space, x, 2 * r)
    c = _sharp_poincare(space, ball.members, outer.members, r)
    S = outer.members
    inner = np.isin(S, ball.members)
    loc = -np.ones(space.n, dtype=np.intp)
    loc[S] = np.arange(S.size)
    li, lj = loc[space.edge_i], loc[space.edge_j]
    keep = (li >= 0) & (lj >= 0)
    sub = MetricMeasureSpace(space.mu[S], np.column_stack(
        [li[keep], lj[keep], space.edge_c[keep], space.edge_l[keep]]))
    L = (scipy.sparse.diags(sub.degree) - sub.conductance_matrix).toarray()
    b, a = np.flatnonzero(inner), np.flatnonzero(~inner)
    assert a.size > 0
    harmonic = -np.linalg.solve(L[np.ix_(a, a)], L[np.ix_(a, b)])
    schur = L[np.ix_(b, b)] + L[np.ix_(b, a)] @ harmonic
    mu_b = sub.mu[b]
    Q = np.diag(mu_b) - np.outer(mu_b, mu_b) / mu_b.sum()
    Z = scipy.linalg.null_space(np.ones((1, b.size)))
    _, vecs = scipy.linalg.eigh(Z.T @ Q @ Z, r ** 2 * (Z.T @ schur @ Z))
    u = np.empty(S.size)
    u[b] = Z @ vecs[:, -1]
    u[a] = harmonic @ u[b]
    osc = mu_b @ (u[b] - mu_b @ u[b] / mu_b.sum()) ** 2
    energy = sub.mu @ carre_du_champ(sub, u)
    assert osc / (r ** 2 * energy) == pytest.approx(c ** 2, rel=1e-10, abs=0.0)


def test_poincare_disconnected_member_set_is_degenerate(cycle32):
    ball, outer = np.array([0, 1]), np.array([0, 1, 10, 11])
    assert _sharp_poincare(cycle32, ball, outer, 2.0) is None


def test_poincare_large_ball_is_sharp_deterministic_and_sparse():
    # |B| = 649, |2B| = 2089: densifying the 2B Laplacian alone would take
    # 2089^2 doubles (about 33 MB); the sharp value is the dense pencil's
    g = sp_mod.weighted_grid_2d(((-1, 1), (-1, 1)), 1 / 24, "constant")
    x = g.vertex_at([0.0, 0.0])
    ball, outer = metric_ball(g, x, 0.75), metric_ball(g, x, 1.5)
    assert (ball.members.size, outer.members.size) == (649, 2089)
    tracemalloc.start()
    try:
        c = _sharp_poincare(g, ball.members, outer.members, 0.75)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c == pytest.approx(0.369358445263, rel=0.0, abs=1e-10)
    assert _sharp_poincare(g, ball.members, outer.members, 0.75) == c
    assert peak < 10 * 2 ** 20


def test_poincare_numerical_failures_raise(torus16, monkeypatch):
    ball, outer = metric_ball(torus16, 0, 2.5), metric_ball(torus16, 0, 5.0)

    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    with monkeypatch.context() as m:
        m.setattr("scipy.sparse.linalg.splu", singular)
        with pytest.raises(NumericalError, match="singular"):
            _sharp_poincare(torus16, ball.members, outer.members, 2.5)

    def unconverged(*args, **kwargs):
        raise ArpackNoConvergence("ARPACK error -1: No convergence",
                                  np.empty(0), np.empty((0, 0)))

    monkeypatch.setattr("scipy.sparse.linalg.eigsh", unconverged)
    with pytest.raises(NumericalError, match="Lanczos"):
        _sharp_poincare(torus16, ball.members, outer.members, 2.5)


def test_poincare_constant_field_contributes_nothing(cycle32):
    # oscillation of a constant is zero, so it can never drive C_P
    mu = cycle32.mu
    u = np.full(cycle32.n, 3.7)
    mean = mu @ u / mu.sum()
    assert float(mu @ (u - mean) ** 2) == pytest.approx(0.0, abs=1e-25)


def test_poincare_recheck_random_fields(sqrt_square_16):
    rep = estimate_poincare(sqrt_square_16, 0.5, 16, seed=2)
    assert rep.C_P > 0 and rep.n_balls > 0
    rng = np.random.default_rng(3)
    ball = rep.worst_ball
    outer = metric_ball(sqrt_square_16, ball.center, 2 * ball.radius)
    mu_b = sqrt_square_16.mu[ball.members]
    for _ in range(100):
        u = rng.standard_normal(sqrt_square_16.n)
        mean = mu_b @ u[ball.members] / mu_b.sum()
        left = np.sqrt(mu_b @ (u[ball.members] - mean) ** 2)
        gam = carre_du_champ(sqrt_square_16, u)
        right = rep.C_P * ball.radius * np.sqrt(
            sqrt_square_16.mu[outer.members] @ gam[outer.members])
        assert left <= right * (1 + 1e-9)


def test_poincare_reads_both_balls_off_one_distance_row(monkeypatch):
    # a tabulated grid, where each row is a Dijkstra: one row per sampled
    # center, and the worst ball and its constant are metric_ball's bits
    space = tabulated_grid()
    rows = []
    inner = MetricMeasureSpace.distances_from
    monkeypatch.setattr(MetricMeasureSpace, "distances_from",
                        lambda self, v: rows.append(v) or inner(self, v))
    rep = estimate_poincare(space, 0.5, 6, seed=1)
    assert len(rows) == 6
    monkeypatch.undo()
    ball = rep.worst_ball
    want = metric_ball(space, ball.center, ball.radius)
    assert np.array_equal(ball.members, want.members)
    assert ball.measure == want.measure
    outer = metric_ball(space, ball.center, 2 * ball.radius)
    assert rep.C_P == _sharp_poincare(space, want.members, outer.members, ball.radius)


def test_poincare_cycle_runs(cycle64):
    rep = estimate_poincare(cycle64, 16.0, 12, seed=0)
    assert rep.C_P > 0


# -- serialization ----------------------------------------------------------

def test_text_roundtrip(sqrt_square_16):
    text = sqrt_square_16.to_text()
    back = MetricMeasureSpace.from_text(text)
    assert back.n == sqrt_square_16.n
    assert np.allclose(back.mu, sqrt_square_16.mu)
    assert np.allclose(back.positions, sqrt_square_16.positions)
    assert np.array_equal(back.edge_i, sqrt_square_16.edge_i)
    assert np.allclose(back.edge_c, sqrt_square_16.edge_c)
    assert np.allclose(back.edge_l, sqrt_square_16.edge_l)


def test_vertex_complement_is_the_set_difference():
    rng = np.random.default_rng(0)
    for n in (1, 2, 17, 300):
        for size in (0, 1, n // 2, 2 * n):
            vertices = rng.integers(0, n, size)
            want = np.setdiff1d(np.arange(n), vertices)
            got = vertex_complement(n, vertices)
            assert got.dtype == want.dtype and np.array_equal(got, want)
