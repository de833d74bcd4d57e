"""Finite weighted graphs as metric measure spaces.

A space is a connected graph with a strictly positive vertex measure ``mu``,
symmetric edge conductances ``c`` and edge lengths ``l``.  The metric is the
shortest-path metric induced by the lengths; balls are open.  Built-in
families: two-point space, uniform cycle, uniform torus, and vertex-centered
finite-volume discretizations of weighted intervals/rectangles (weight
catalog: constant, sqrt|x|, tabulated).  The torus and the separably
weighted rectangle are Cartesian products of 1-d spaces (`product_space`)
and keep their factors.  The path metric of a product graph is the sum of
the factor metrics, d((i, a), (i', a')) = d_X(i, i') + d_Y(a, a'), so its
distance rows are sums of factor rows (`factor_rows`); paths and cycles
(every factor of the built-in families) take running sums of their edge
lengths, and other graphs run Dijkstra.  The doubling estimate on a product
reads every ball mass off the factors' distance distributions without
forming a product row.  The heat realization and the Dirichlet solve use the
factors as well, when `product_pays` says the factor decompositions are
worth forming.

A space holds its edges as four columns (i, j as intp, c, l as float).  The
families pass those columns to `MetricMeasureSpace` directly; rows given by
a caller are converted to columns first, and both go through the same
checks.  The space keeps the columns, the conductance matrix W and the
degrees; the length graph that Dijkstra reads is built the first time
Dijkstra runs, so a product, a path or a cycle never holds one.

Measured constants:

    mu(B(x, 2r)) <= C_d * mu(B(x, r))                       (doubling)
    mu(B(x, R))  <= C_Q * (R/r)^Q * mu(B(x, r))             (Q-doubling)
    ||u - u_B||_{L2(B)} <= C_P * r * ||sqrt(Gamma(u,u))||_{L2(2B)}

The Poincare left side is the L2 mean oscillation; it dominates the L1 one
by the power-mean inequality, so the reported C_P is valid for the weaker
L1-L2 inequality as well.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import blas
from .errors import ConfigError, NumericalError
from .reports import DoublingReport, PoincareReport

_SQRT2 = np.sqrt(2.0)
CACHE_BYTES = 64 * 2 ** 20         # budget of the Dijkstra row cache
_ROW_BLOCK = 2 ** 18               # doubles (2 MB) per block of rows in estimate_doubling
_TIE_STEPS = 8                     # boundary runs a product ball count may cross
DENSE_CAP_DEFAULT = 4000           # largest dense eigendecomposition, in vertices
# Product-structured solvers (the heat realization, the Dirichlet solve)
# decompose each factor once (~nx^3 + ny^3 flops) and then push fields
# through the factor bases (~nx ny (nx + ny) each); the ratio of the two is
# about the aspect nx / ny.  Past this aspect the decompositions dominate and
# an elongated product is left to the generic path.
PRODUCT_MAX_ASPECT = 16


class MetricMeasureSpace:
    """Connected weighted graph carrying a measure and a path metric.

    Parameters
    ----------
    mu : array_like
        Strictly positive vertex masses.
    edges : tuple (i, j, c, l) of 1-d arrays, (m, 4) array or iterable of rows
        Undirected edges with conductance c > 0 and length l > 0.  Each
        edge is listed once; symmetry is implicit.  A tuple of four 1-d
        numpy arrays is read as edge columns (the vertex indices i, j and
        the floats c, l), and columns already of dtype intp and float are
        kept without a copy when every edge has i < j; any other input is
        read as (i, j, c, l) rows and converted to columns first.  Both
        forms then go through the same checks.
    positions : array_like, optional
        Vertex coordinates (n, dim), used for coordinate fields and export.
    name : str
        Label used in reports.
    rim : array_like, optional
        Geometric boundary vertices for grid families (empty otherwise).

    Attributes
    ----------
    factors : (MetricMeasureSpace, MetricMeasureSpace) or None
        The factors X, Y of a Cartesian product built by `product_space`
        (which passes them through the private keyword `_factors`); None
        for every other space.

    The space keeps its edge columns, the conductance matrix W, the degrees
    and, on a path or a cycle, the edge lengths around it.  The length graph
    that Dijkstra reads (`_len_graph`, a second sparse matrix with 2m
    entries) is built the first time Dijkstra runs; products, paths and
    cycles never build it.  They skip the connectivity search as well, since
    their structure proves them connected, so none of them imports
    ``scipy.sparse.csgraph``: every function that calls into it or into
    ``scipy.sparse.linalg`` imports them at call time.
    """

    def __init__(self, mu, edges, positions=None, name="", rim=None, *, _factors=None):
        mu = np.asarray(mu, dtype=float)
        if mu.ndim != 1 or mu.size == 0:
            raise ConfigError("mu must be a nonempty 1-d array")
        if not np.all(np.isfinite(mu)) or np.any(mu <= 0):
            raise ConfigError("every vertex mass must be finite and strictly positive")
        self.mu = mu
        self.name = name
        self.factors = _factors

        n = mu.size
        i, j, c, l = _edge_columns(edges)

        def first(bad, msg):
            if np.any(bad):
                k = int(np.argmax(bad))
                raise ConfigError(msg.format(i=i[k], j=j[k], c=c[k], l=l[k]))

        first(i == j, "self loop at vertex {i}")
        first((i < 0) | (i >= n) | (j < 0) | (j >= n), "edge ({i},{j}) out of range")
        if np.any(i > j):
            i, j = np.minimum(i, j), np.maximum(i, j)
        # W from one set of triplets; the COO -> CSR conversion sums repeated
        # (i, j) pairs, so fewer than 2m entries means a duplicate edge
        self._W = _symmetric_csr(n, i, j, c)
        if self._W.nnz < 2 * i.size:
            key = i * n + j
            order = np.argsort(key, kind="stable")
            dup = np.zeros(key.size, dtype=bool)
            dup[order[1:]] = key[order[1:]] == key[order[:-1]]
            first(dup, "duplicate edge ({i},{j})")
        first(~((c > 0) & (l > 0) & np.isfinite(c) & np.isfinite(l)),
              "edge ({i},{j}) needs c > 0 and l > 0, got c={c}, l={l}")
        self.edge_i = i
        self.edge_j = j
        self.edge_c = c
        self.edge_l = l

        if positions is not None:
            positions = np.atleast_2d(np.asarray(positions, dtype=float))
            if positions.shape[0] != n:
                raise ConfigError("positions must have one row per vertex")
        self.positions = positions
        self.rim = np.asarray([] if rim is None else rim, dtype=np.intp)

        self._ring = _ring_lengths(n, i, j, l)
        if n == 1 and self.edge_i.size:
            raise ConfigError("single vertex cannot carry edges")
        # a path or a cycle holds every edge k -- k+1, and `product_space`
        # passes two factors that were checked when they were built: both
        # are connected by construction, every other graph is searched
        if n > 1 and self._ring is None and self.factors is None:
            from scipy.sparse.csgraph import connected_components
            # W is symmetric, so its strong components are its components;
            # the strong search reads W alone, the undirected one a transpose
            ncomp, _ = connected_components(self._W, directed=True, connection="strong")
            if ncomp != 1:
                raise ConfigError(f"graph is disconnected ({ncomp} components)")

        self.degree = np.asarray(self._W.sum(axis=1)).ravel()
        self._dist_cache: dict[int, np.ndarray] = {}
        self._dist_cache_cap = CACHE_BYTES // (8 * n)

    # -- basic structure ---------------------------------------------------

    @property
    def n(self) -> int:
        return self.mu.size

    @property
    def n_edges(self) -> int:
        return self.edge_i.size

    @property
    def total_mass(self) -> float:
        return float(self.mu.sum())

    @property
    def min_edge_length(self) -> float:
        return float(self.edge_l.min()) if self.n_edges else 0.0

    @property
    def conductance_matrix(self) -> sp.csr_matrix:
        return self._W

    def laplacian(self) -> sp.csr_matrix:
        """Weighted graph Laplacian L = D - W (positive semidefinite)."""
        return sp.diags(self.degree) - self._W

    def check_field(self, f) -> np.ndarray:
        f = np.asarray(f, dtype=float)
        if f.shape != (self.n,):
            raise ConfigError(f"field has shape {f.shape}, expected ({self.n},)")
        if not np.all(np.isfinite(f)):
            raise ConfigError("field contains non-finite entries")
        return f

    # -- metric ------------------------------------------------------------

    @functools.cached_property
    def _len_graph(self) -> sp.csr_matrix:
        """Symmetric sparse matrix of the edge lengths, built on first use."""
        return _symmetric_csr(self.n, self.edge_i, self.edge_j, self.edge_l)

    def distances_from(self, v: int) -> np.ndarray:
        """Shortest-path distances from vertex v.

        On a product X x Y this is d_X(i, .) + d_Y(j, .) for v = (i, j),
        built from the factors' rows and not cached itself.  On a path
        (edges k -- k+1, every 1-d grid) or a cycle (those and 0 -- n-1) it
        is the smaller of the two running sums of edge lengths outward from
        v (`_ring_row`), Dijkstra's bits without Dijkstra, and not cached
        either.  Other graphs run Dijkstra and cache rows per source up to a
        byte budget.
        """
        v = int(v)
        if not 0 <= v < self.n:
            raise ConfigError(f"vertex {v} out of range")
        if self.factors is not None:
            dx, dy = self.factor_rows(*divmod(v, self.factors[1].n))
            return np.add.outer(dx[0], dy[0]).ravel()
        if self._ring is not None:
            return self._ring_row(v)
        d = self._dist_cache.get(v)
        if d is None:
            from scipy.sparse.csgraph import dijkstra
            d = dijkstra(self._len_graph, directed=False, indices=v)
            if len(self._dist_cache) < self._dist_cache_cap:
                self._dist_cache[v] = d
        return d

    def distance_rows(self, sources) -> np.ndarray:
        """Distance rows (len(sources), n) for a 1-d array of sources.

        Paths and cycles stack their running sums; other generic graphs run
        one batched Dijkstra that bypasses the cache.
        """
        sources = np.asarray(sources)
        if self.factors is not None:
            dx, dy = self.factor_rows(*np.divmod(sources, self.factors[1].n))
            return (dx[:, :, None] + dy[:, None, :]).reshape(sources.size, self.n)
        if self._ring is not None:
            return np.array([self._ring_row(int(v)) for v in sources]).reshape(-1, self.n)
        from scipy.sparse.csgraph import dijkstra
        return dijkstra(self._len_graph, directed=False, indices=sources)

    def _ring_row(self, v: int) -> np.ndarray:
        """Distances from v on a path or a cycle.

        Going forward from v the edges k -- k+1 (mod n) are met in the order
        v, v+1, ...; going backward in the order v-1, v-2, ...  Each running
        sum adds the lengths one at a time along its direction, as Dijkstra
        relaxes them, and the distance is the smaller sum.  An open ring
        (a path) has an infinite length where the cycle would close, so its
        sums past an end are infinite and the other direction wins.
        """
        n, ring = self.n, self._ring
        back = ring[::-1]                   # back[n - v + s] = ring[v - 1 - s]
        forward = np.cumsum(np.concatenate([ring[v:], ring[:v]])[:n - 1])         # to v+1, ...
        backward = np.cumsum(np.concatenate([back[n - v:], back[:n - v]])[:n - 1])  # to v-1, ...
        # position s of `rel` holds vertex v + s (mod n)
        rel = np.concatenate([[0.0], np.minimum(forward, backward[::-1])])
        return np.concatenate([rel[n - v:], rel[:n - v]])

    def factor_rows(self, xs, ys) -> tuple[np.ndarray, np.ndarray]:
        """Factor distance rows of a product X x Y: d_X(i, .) for each i in
        xs as a (len(xs), nx) block and d_Y(a, .) for each a in ys as a
        (len(ys), ny) block, both from the factors' rows.  Every
        product distance is fl(d_X + d_Y) of one entry of each block."""
        X, Y = self.factors
        dx = [X.distances_from(i) for i in np.atleast_1d(xs)]
        dy = [Y.distances_from(a) for a in np.atleast_1d(ys)]
        return np.array(dx).reshape(-1, X.n), np.array(dy).reshape(-1, Y.n)

    def vertex_at(self, coords) -> int:
        """Vertex whose embedded position equals coords (within 1e-9)."""
        if self.positions is None:
            raise ConfigError("space has no embedding")
        coords = np.atleast_1d(np.asarray(coords, dtype=float))
        d = np.abs(self.positions - coords[None, :]).max(axis=1)
        k = int(np.argmin(d))
        if d[k] > 1e-9:
            raise ConfigError(f"no vertex at {coords} (closest is {self.positions[k]})")
        return k

    # -- serialization -----------------------------------------------------

    def to_text(self) -> str:
        """Plain-text graph format: header, vertex lines, edge lines."""
        lines = [f"{self.n} {self.n_edges}"]
        for i in range(self.n):
            coords = "" if self.positions is None else \
                " ".join(repr(float(x)) for x in self.positions[i]) + " "
            lines.append(f"{i} {coords}{float(self.mu[i])!r}")
        for k in range(self.n_edges):
            lines.append(f"{int(self.edge_i[k])} {int(self.edge_j[k])} "
                         f"{float(self.edge_c[k])!r} {float(self.edge_l[k])!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str, name="") -> "MetricMeasureSpace":
        rows = [ln.split() for ln in text.strip().splitlines() if ln.strip()]
        n, m = int(rows[0][0]), int(rows[0][1])
        if len(rows) != 1 + n + m:
            raise ConfigError("graph text has the wrong number of lines")
        dim = len(rows[1]) - 2          # id + dim coords + mass
        mu = np.empty(n)
        pos = np.empty((n, dim)) if dim > 0 else None
        for row in rows[1:1 + n]:
            i = int(row[0])
            if dim > 0:
                pos[i] = [float(x) for x in row[1:1 + dim]]
            mu[i] = float(row[-1])
        edges = [(int(r[0]), int(r[1]), float(r[2]), float(r[3])) for r in rows[1 + n:]]
        return cls(mu, edges, positions=pos, name=name)


def _edge_columns(edges):
    """(i, j, c, l): the edge columns as contiguous intp and float arrays,
    from a tuple of four 1-d arrays (read in place where the dtypes match)
    or from (i, j, c, l) rows."""
    if isinstance(edges, tuple) and len(edges) == 4 and all(
            isinstance(a, np.ndarray) and a.ndim == 1 for a in edges):
        if len({a.size for a in edges}) != 1:
            raise ConfigError("edge columns must have one length")
        return (np.ascontiguousarray(edges[0], dtype=np.intp),
                np.ascontiguousarray(edges[1], dtype=np.intp),
                np.ascontiguousarray(edges[2], dtype=float),
                np.ascontiguousarray(edges[3], dtype=float))
    E = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges), dtype=float)
    if E.size == 0:
        E = E.reshape(0, 4)
    if E.ndim != 2 or E.shape[1] != 4:
        raise ConfigError("edges must be (i, j, c, l) rows")
    return (E[:, 0].astype(np.intp), E[:, 1].astype(np.intp),
            np.ascontiguousarray(E[:, 2]), np.ascontiguousarray(E[:, 3]))


def _symmetric_csr(n: int, i, j, values) -> sp.csr_matrix:
    """The n x n CSR matrix with `values` at (i, j) and (j, i), from one set
    of COO triplets whose indices are already of the CSR's index dtype, so
    scipy converts none of them."""
    m = i.size
    idx = np.int32 if max(n, 2 * m) < 2 ** 31 else np.intp
    rows = np.concatenate([i, j], dtype=idx, casting="same_kind")
    cols = np.concatenate([j, i], dtype=idx, casting="same_kind")
    return sp.csr_matrix((np.concatenate([values, values]), (rows, cols)), shape=(n, n))


def _ring_lengths(n: int, i, j, l):
    """On a path (edges k -- k+1) or a cycle (those and 0 -- n-1), with
    i < j: the length of edge k -- k+1 (mod n) at k, inf where the ring is
    open.  None on every other graph."""
    m = i.size
    if m not in (n - 1, n):
        return None
    step = j - i == 1
    # n - 1 distinct steps are every edge k -- k+1; a cycle adds 0 -- n-1
    if np.count_nonzero(step) != n - 1:
        return None
    ring = np.full(n, np.inf)
    ring[i[step]] = l[step]
    if m == n:
        k = int(np.argmin(step))
        if (i[k], j[k]) != (0, n - 1):
            return None
        ring[n - 1] = l[k]
    return ring


def product_pays(factors) -> bool:
    """True when a space with these `factors` should be handled factor by
    factor: both factors fit `DENSE_CAP_DEFAULT` and are at most
    `PRODUCT_MAX_ASPECT` times apart in size."""
    if factors is None:
        return False
    small, large = sorted(f.n for f in factors)
    return large <= DENSE_CAP_DEFAULT and large <= PRODUCT_MAX_ASPECT * small


def laplacian_spectrum(space: MetricMeasureSpace, idx=None):
    """(w, V) with L V = M V diag(w) and V^T M V = I, w ascending: the
    eigenpairs of -A, or of its Dirichlet restriction to the index set idx.

    Solved as the standard problem for r L r with r = mu^-1/2, by divide
    and conquer in numpy's LAPACK (which reads the lower triangle); with a
    diagonal M this is what LAPACK's generalized `sygvd` does.  Weak
    residuals of the all-interior Dirichlet solve with boundary data
    sgn(x) sqrt|x| at h = 1/64, on the sqrt|x| and the constant-weight grid:

    ===================================  ==========  ==============
    eigensolver                          sqrt|x|     constant weight
    ===================================  ==========  ==============
    `sygvd` on (L^I, M^I)                1.19e-14    1.03e-14
    this (`syevd` on the scaled matrix)  9.99e-15    1.03e-14
    scipy's default MRRR, same matrix    2.71e-13    2.80e-13
    ===================================  ==========  ==============
    """
    L = space.laplacian()
    r = 1.0 / np.sqrt(space.mu)
    if idx is not None:
        L, r = L.tocsr()[idx][:, idx], r[idx]
    try:
        w, V = np.linalg.eigh((L.toarray() * r[:, None]) * r[None, :])
    except np.linalg.LinAlgError as e:
        raise NumericalError(f"eigendecomposition failed: {e}") from e
    return w, V * r[:, None]


def vertex_complement(n: int, vertices) -> np.ndarray:
    """The sorted vertices of range(n) outside `vertices`: the same array as
    np.setdiff1d(np.arange(n), vertices), from a mask instead of a sort."""
    keep = np.ones(n, dtype=bool)
    keep[vertices] = False
    return np.flatnonzero(keep)


@dataclass
class Ball:
    """Open metric ball: members = { y : d(center, y) < radius }."""

    center: int
    radius: float
    members: np.ndarray
    measure: float


def metric_ball(space: MetricMeasureSpace, center: int, radius: float) -> Ball:
    """Open ball in the shortest-path metric."""
    if radius < 0:
        raise ConfigError("radius must be nonnegative")
    d = space.distances_from(center)
    members = np.flatnonzero(d < radius)
    return Ball(int(center), float(radius),
                members, float(space.mu[members].sum()))


# ---------------------------------------------------------------------------
# built-in families
# ---------------------------------------------------------------------------

def two_point() -> MetricMeasureSpace:
    """Smallest connected space: two unit-mass vertices joined by a unit edge."""
    return MetricMeasureSpace(
        [1.0, 1.0], [(0, 1, 1.0, 1.0)],
        positions=[[0.0], [1.0]], name="two_point")


def uniform_cycle(n: int) -> MetricMeasureSpace:
    if n < 3:
        raise ConfigError("cycle needs n >= 3")
    edges = [(k, (k + 1) % n, 1.0, 1.0) for k in range(n)]
    ang = 2 * np.pi * np.arange(n) / n
    r = n / (2 * np.pi)             # unit spacing along the circle
    pos = np.column_stack([r * np.cos(ang), r * np.sin(ang)])
    return MetricMeasureSpace(np.ones(n), edges, positions=pos, name=f"cycle_{n}")


def product_space(X: MetricMeasureSpace, Y: MetricMeasureSpace, positions=None,
                  name="") -> MetricMeasureSpace:
    """Cartesian product X x Y with the product measure mu_x (x) mu_y.

    Vertex (i, j) is numbered i * ny + j.  An x-edge (i, a) -- (i', a)
    carries c^x_ii' mu^y_a and a y-edge (i, a) -- (i, a') carries
    mu^x_i c^y_aa', both with the factor edge's length, so the generator is
    the Kronecker sum A = A_x (+) A_y and T_t = T_t^x (x) T_t^y.  A shortest
    path splits into its x-steps and y-steps, so the path metric is
    d((i, a), (i', a')) = d_X(i, i') + d_Y(a, a'), which `distances_from`
    uses.  Positions default to the Cartesian product of the factor
    embeddings (when both have one); the rim is (rim_X x Y) u (X x rim_Y).
    """
    nx, ny = X.n, Y.n
    # the edge columns, written in place: the x-edges, then the y-edges
    mx = X.n_edges * ny
    i, j = np.empty((2, mx + nx * Y.n_edges), dtype=np.intp)
    c, l = np.empty((2, mx + nx * Y.n_edges))
    # x-edge (i, a) -- (i', a) of factor edge k at row k, column a
    xi, xj, xc, xl = (col[:mx].reshape(X.n_edges, ny) for col in (i, j, c, l))
    np.add(X.edge_i[:, None] * ny, np.arange(ny), out=xi)
    np.add(X.edge_j[:, None] * ny, np.arange(ny), out=xj)
    np.multiply(X.edge_c[:, None], Y.mu, out=xc)
    xl[:] = X.edge_l[:, None]
    # y-edge (i, a) -- (i, a') of factor edge k at row i, column k
    yi, yj, yc, yl = (col[mx:].reshape(nx, Y.n_edges) for col in (i, j, c, l))
    np.add(np.arange(nx)[:, None] * ny, Y.edge_i, out=yi)
    np.add(np.arange(nx)[:, None] * ny, Y.edge_j, out=yj)
    np.multiply(X.mu[:, None], Y.edge_c, out=yc)
    yl[:] = Y.edge_l
    if positions is None and X.positions is not None and Y.positions is not None:
        dx = X.positions.shape[1]
        positions = np.empty((nx, ny, dx + Y.positions.shape[1]))
        positions[:, :, :dx] = X.positions[:, None, :]
        positions[:, :, dx:] = Y.positions[None, :, :]
        positions = positions.reshape(nx * ny, -1)
    on_rim = np.zeros((nx, ny), dtype=bool)
    on_rim[X.rim, :] = True
    on_rim[:, Y.rim] = True
    return MetricMeasureSpace(np.outer(X.mu, Y.mu).ravel(), (i, j, c, l),
                              positions=positions, name=name,
                              rim=np.flatnonzero(on_rim), _factors=(X, Y))


def uniform_torus(n1: int, n2: int) -> MetricMeasureSpace:
    """Unit torus cycle(n1) x cycle(n2), embedded at integer grid points."""
    if n1 < 3 or n2 < 3:
        raise ConfigError("torus needs n1, n2 >= 3")
    pos = np.column_stack(np.divmod(np.arange(n1 * n2), n2)).astype(float)
    return product_space(uniform_cycle(n1), uniform_cycle(n2), positions=pos,
                         name=f"torus_{n1}x{n2}")


class _Weight:
    """Separable weight w(x, y) = wx(x): cell integrals and point values."""

    def integral_x(self, a, b):     # \int_a^b wx
        raise NotImplementedError

    def value_x(self, x):
        raise NotImplementedError


class ConstantWeight(_Weight):
    def __init__(self, value=1.0):
        if value <= 0:
            raise ConfigError("constant weight must be positive")
        self.value = float(value)

    def integral_x(self, a, b):
        return self.value * (b - a)

    def value_x(self, x):
        return self.value


class SqrtAbsXWeight(_Weight):
    """w(x, y) = sqrt(|x|); antiderivative (2/3) sgn(x) |x|^{3/2}."""

    @staticmethod
    def _F(x):
        return (2.0 / 3.0) * np.sign(x) * np.abs(x) ** 1.5

    def integral_x(self, a, b):
        return self._F(b) - self._F(a)

    def value_x(self, x):
        return np.sqrt(np.abs(x))


_WEIGHTS = {"constant": ConstantWeight, "sqrt_abs_x": SqrtAbsXWeight}


def weighted_grid_1d(bounds=(-1.0, 1.0), h=0.25, weight="constant",
                     weight_value=1.0) -> MetricMeasureSpace:
    """Vertex-centered finite-volume discretization of a weighted interval.

    Vertex masses are cell integrals of the weight over dual (Voronoi)
    cells clipped at the boundary; the conductance between neighbors is
    w(midpoint)/h (the 1-d transmissibility w * h^{d-2}).
    """
    a, b = float(bounds[0]), float(bounds[1])
    w = _make_weight(weight, weight_value)
    xs = _grid_axis(a, b, h)
    n = xs.size
    xl = np.maximum(xs - h / 2, a)
    xr = np.minimum(xs + h / 2, b)
    mu = np.array([w.integral_x(lo, hi) for lo, hi in zip(xl, xr)])
    if np.any(mu <= 0):
        raise ConfigError("weight produced a zero-mass cell")
    edges = []
    for k in range(n - 1):
        c = w.value_x((xs[k] + xs[k + 1]) / 2) / h
        if c <= 0:
            raise ConfigError(f"zero conductance at midpoint {(xs[k] + xs[k+1]) / 2}")
        edges.append((k, k + 1, c, h))
    rim = [0, n - 1]
    return MetricMeasureSpace(mu, edges, positions=xs[:, None],
                              name=f"grid1d_{weight}_h{h:g}", rim=rim)


def weighted_grid_2d(bounds=((-1.0, 1.0), (-1.0, 1.0)), h=0.25,
                     weight="constant", weight_value=1.0,
                     tabulated=None) -> MetricMeasureSpace:
    """Vertex-centered finite-volume discretization of a weighted rectangle.

    Masses are exact cell integrals over clipped Voronoi cells.
    Conductances use the average of the weight over the shared face times
    |face|/h, so they stay strictly positive across the degeneracy line
    x = 0 of the sqrt|x| weight.  Edge lengths are Euclidean (= h).

    A separable weight w(x, y) = wx(x) gives the Cartesian product
    grid1d(wx) x grid1d(1); a tabulated weight gives a plain lattice graph
    with the face average taken between the two cells.
    """
    (ax, bx), (ay, by) = bounds
    if tabulated is None:
        return product_space(weighted_grid_1d((ax, bx), h, weight, weight_value),
                             weighted_grid_1d((ay, by), h, "constant"),
                             name=f"grid2d_{weight}_h{h:g}")

    xs = _grid_axis(float(ax), float(bx), h)
    ys = _grid_axis(float(ay), float(by), h)
    nx, ny = xs.size, ys.size
    wtab = np.asarray(tabulated, dtype=float).reshape(nx, ny)
    if np.any(wtab <= 0) or not np.all(np.isfinite(wtab)):
        raise ConfigError("tabulated weight must be strictly positive")
    dx = np.minimum(xs + h / 2, bx) - np.maximum(xs - h / 2, ax)
    dy = np.minimum(ys + h / 2, by) - np.maximum(ys - h / 2, ay)
    idx = np.arange(nx * ny).reshape(nx, ny)
    # face at the x (y) midpoint between two cells, spanning the other cell width
    cx = 0.5 * (wtab[:-1, :] + wtab[1:, :]) * dy[None, :] / h
    cy = 0.5 * (wtab[:, :-1] + wtab[:, 1:]) * dx[:, None] / h
    c = np.concatenate([cx.ravel(), cy.ravel()])
    edges = (np.concatenate([idx[:-1, :].ravel(), idx[:, :-1].ravel()]),
             np.concatenate([idx[1:, :].ravel(), idx[:, 1:].ravel()]),
             c, np.full(c.size, h))
    i, j = np.divmod(idx.ravel(), ny)
    rim = np.flatnonzero((i == 0) | (i == nx - 1) | (j == 0) | (j == ny - 1))
    pos = np.column_stack([xs[i], ys[j]])
    return MetricMeasureSpace((wtab * dx[:, None] * dy[None, :]).ravel(), edges,
                              positions=pos, name=f"grid2d_tabulated_h{h:g}",
                              rim=rim)


def _make_weight(weight, weight_value):
    if isinstance(weight, _Weight):
        return weight
    if weight not in _WEIGHTS:
        raise ConfigError(f"unknown weight {weight!r}; catalog: {sorted(_WEIGHTS)}")
    if weight == "constant":
        return ConstantWeight(weight_value)
    return _WEIGHTS[weight]()


def _grid_axis(a, b, h):
    if not (h > 0) or not (b > a):
        raise ConfigError("grid needs h > 0 and a nonempty extent")
    m = (b - a) / h
    if abs(m - round(m)) > 1e-9:
        raise ConfigError(f"extent ({a},{b}) is not a whole number of cells of width {h}")
    return a + h * np.arange(int(round(m)) + 1)


def build_space(config: dict) -> MetricMeasureSpace:
    """Build a space from a configuration mapping (see the CLI module).

    Families: two_point, cycle(n), torus(n1, n2),
    grid(dim in {1,2}, bounds, h, weight in {constant, sqrt_abs_x, tabulated}).
    """
    if not isinstance(config, dict) or "family" not in config:
        raise ConfigError("space config must be a mapping with a 'family' key")
    cfg = dict(config)
    family = cfg.pop("family")
    try:
        if family == "two_point":
            _reject_unknown(cfg, set())
            return two_point()
        if family == "cycle":
            _reject_unknown(cfg, {"n"})
            return uniform_cycle(int(cfg["n"]))
        if family == "torus":
            _reject_unknown(cfg, {"n1", "n2"})
            return uniform_torus(int(cfg["n1"]), int(cfg["n2"]))
        if family == "grid":
            _reject_unknown(cfg, {"dim", "bounds", "h", "weight", "weight_value",
                                  "tabulated"})
            dim = int(cfg.get("dim", 2))
            h = float(cfg["h"])
            weight = cfg.get("weight", "constant")
            wv = float(cfg.get("weight_value", 1.0))
            if dim == 1:
                bounds = tuple(cfg.get("bounds", (-1.0, 1.0)))
                return weighted_grid_1d(bounds, h, weight, wv)
            if dim == 2:
                bounds = cfg.get("bounds", ((-1.0, 1.0), (-1.0, 1.0)))
                bounds = (tuple(bounds[0]), tuple(bounds[1]))
                if weight == "tabulated" or "tabulated" in cfg:
                    return weighted_grid_2d(bounds, h, tabulated=cfg["tabulated"])
                return weighted_grid_2d(bounds, h, weight, wv)
            raise ConfigError("grid dimension must be 1 or 2")
    except KeyError as e:
        raise ConfigError(f"missing space parameter {e.args[0]!r}") from None
    raise ConfigError(f"unknown space family {family!r}")


def _reject_unknown(cfg, allowed):
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"unknown space keys {sorted(unknown)}")


# ---------------------------------------------------------------------------
# doubling and Poincare constants
# ---------------------------------------------------------------------------

def radius_grid(space: MetricMeasureSpace, R0: float) -> np.ndarray:
    """Geometric radius grid with ratio sqrt(2) from the minimum edge length."""
    r = space.min_edge_length
    if not (R0 > r):
        raise ConfigError("R0 must exceed the smallest edge length")
    out = []
    while r <= R0 * (1 + 1e-12):
        out.append(r)
        r *= _SQRT2
    return np.asarray(out)


def _ball_masses(d_rows: np.ndarray, mu: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """mu(B(x, r)) for every r in radii from a distance row (n,) or a block of
    rows (k, n) (open balls).  Each row is sorted once, and the masses are
    read off the cumulative sum of mu in that order."""
    block = np.atleast_2d(d_rows)
    order = np.argsort(block, axis=1)
    cum = np.zeros((block.shape[0], block.shape[1] + 1))
    np.cumsum(mu[order], axis=1, out=cum[:, 1:])
    counts = [np.searchsorted(row[o], radii, side="left")
              for row, o in zip(block, order)]
    masses = np.take_along_axis(cum, np.asarray(counts), axis=1)
    return masses if d_rows.ndim == 2 else masses[0]


def _run_bounds(srt):
    """For each position c of each sorted row: the first index of the run of
    equal values holding it, and the first index past that run."""
    nb, n = srt.shape
    idx = np.broadcast_to(np.arange(n), (nb, n))
    new_run = np.ones((nb, n), dtype=bool)
    new_run[:, 1:] = srt[:, 1:] != srt[:, :-1]
    run_start = np.maximum.accumulate(np.where(new_run, idx, 0), axis=1)
    run_end = np.minimum.accumulate(
        np.where(np.roll(new_run, -1, axis=1), idx + 1, n)[:, ::-1], axis=1)[:, ::-1]
    return run_start, run_end


def _settle_counts(srt, counts, dq, rq):
    """Exact open-ball member counts from first guesses.

    Row b of `srt` is a sorted factor row s and `counts[b, t]` a guess for
    #{c : fl(dq[t] + s[c]) < rq[t]}, the membership test of the summed
    product row.  fl(d + .) is monotone, so the members are a prefix of s,
    and a guess taken as #{s < fl(r - d)} is off only by the few runs of
    equal distances whose sums round across r.  Each step moves every
    unsettled count past one whole run; a count still unsettled after
    `_TIE_STEPS` checks raises NumericalError.
    """
    n = srt.shape[1]
    padded = np.pad(srt, ((0, 0), (1, 1)), constant_values=(-np.inf, np.inf))
    runs = None
    for _ in range(_TIE_STEPS):
        up = dq + np.take_along_axis(padded, counts + 1, axis=1) < rq     # s[c] is in
        down = dq + np.take_along_axis(padded, counts, axis=1) >= rq     # s[c-1] is out
        if not (up.any() or down.any()):
            return counts
        if runs is None:
            runs = _run_bounds(srt)
        past = np.take_along_axis(runs[1], np.minimum(counts, n - 1), axis=1)
        back = np.take_along_axis(runs[0], np.maximum(counts - 1, 0), axis=1)
        counts = np.where(up, past, np.where(down, back, counts))
    raise NumericalError("product ball counts did not settle at the boundary")


def _factor_ball_masses(space: MetricMeasureSpace, queries: np.ndarray) -> np.ndarray:
    """mu(B(v, r)) for every vertex v of a product X x Y and every r in
    `queries` (open balls, vertex-major (n, len(queries))), from the factors.

    With S the smaller factor and L the larger, a center (i, a), i in S,
    a in L, has

        mu(B((i, a), r)) = sum_u M[i, u] F_a(u, r),
        M[i, u] = mu_S{j : d_S(i, j) = D_u},
        F_a(u, r) = mu_L{b : fl(D_u + d_L(a, b)) < r},

    over the distinct distances D_u of S.  Each row d_L(a, .) is sorted
    once; F_a is its cumulative mass at counts from one `searchsorted` per
    row, settled to the exact membership test of the product rows
    (`_settle_counts`).  M is sparse with at most |S|^2 entries.  A block
    of L rows keeps about eight arrays of its rows' and counts' size alive,
    so blocks hold `_ROW_BLOCK` / 8 doubles of each.
    """
    X, Y = space.factors
    s_first = X.n <= Y.n
    S, L = (X, Y) if s_first else (Y, X)

    def rows(s_vertices, l_vertices):
        if s_first:
            return space.factor_rows(s_vertices, l_vertices)
        return space.factor_rows(l_vertices, s_vertices)[::-1]

    d_s = rows(np.arange(S.n), [])[0]
    D, inv = np.unique(d_s, return_inverse=True)
    pairs = (np.repeat(np.arange(S.n), S.n), inv.ravel())
    M = sp.csr_matrix((np.tile(S.mu, S.n), pairs), shape=(S.n, D.size))
    nq = queries.size
    dq = np.repeat(D, nq)
    rq = np.tile(queries, D.size)
    targets = rq - dq
    masses = np.empty((X.n, Y.n, nq))
    batch = max(1, _ROW_BLOCK // (8 * (L.n + dq.size)))
    for start in range(0, L.n, batch):
        block = np.arange(start, min(start + batch, L.n))
        d_l = rows([], block)[1]
        order = np.argsort(d_l, axis=1, kind="stable")
        srt = np.take_along_axis(d_l, order, axis=1)
        cum = np.zeros((block.size, L.n + 1))
        np.cumsum(L.mu[order], axis=1, out=cum[:, 1:])
        guess = np.array([np.searchsorted(row, targets, side="left") for row in srt])
        F = np.take_along_axis(cum, _settle_counts(srt, guess, dq, rq), axis=1)
        F = F.reshape(block.size, D.size, nq).transpose(1, 0, 2)
        part = (M @ F.reshape(D.size, -1)).reshape(S.n, block.size, nq)
        if s_first:
            masses[:, block] = part
        else:
            masses[block] = part.transpose(1, 0, 2)
    return masses.reshape(space.n, nq)


def estimate_doubling(space: MetricMeasureSpace, R0: float) -> DoublingReport:
    """Measure the doubling constant and fit the Q-doubling power law.

    C_d is the exact maximum of mu(B(x,2r)) / mu(B(x,r)) over all vertices
    and the geometric radius grid restricted to r < R0/2.  (Q_fit, C_Q) come
    from least squares on log mu(B(x,R)) - log mu(B(x,r)) against log(R/r)
    over all grid pairs r < R, with the intercept raised afterwards so the
    power-law bound holds for every sample.

    The ball masses come from one of two paths, named in the report's
    `path`.  On a product space ("factor_cdf") they are sums over the
    smaller factor of the larger factor's sorted cumulative masses
    (`_factor_ball_masses`), with the membership test of the summed rows,
    fl(d_X + d_Y) < r, kept exactly; no product row is formed.  Other
    graphs ("rows") take Dijkstra rows in blocks of about `_ROW_BLOCK`
    doubles and sort each row once (`_ball_masses`).
    """
    if space.n < 2:
        raise ConfigError("doubling needs at least two vertices")
    radii = radius_grid(space, R0)
    # open interval (r_min, R0]: single-vertex balls at the mesh scale carry
    # no doubling information and distort the power-law fit
    radii = radii[radii > space.min_edge_length * (1 + 1e-12)]
    if radii.size < 2:
        raise ConfigError("radius grid too small; increase R0")
    small = radii[radii < R0 / 2]
    if small.size == 0:
        raise ConfigError("no radii below R0/2; increase R0")
    k = small.size
    queries = np.concatenate([small, 2 * small, radii])

    if space.factors is not None:
        path = "factor_cdf"
        masses = _factor_ball_masses(space, queries)
    else:
        path = "rows"
        masses = np.empty((space.n, queries.size))
        batch = max(1, _ROW_BLOCK // space.n)
        for start in range(0, space.n, batch):
            block = np.arange(start, min(start + batch, space.n))
            masses[block] = _ball_masses(space.distance_rows(block), space.mu, queries)

    ratios = masses[:, k:2 * k] / masses[:, :k]
    v, j = np.unravel_index(np.argmax(ratios), ratios.shape)
    # samples y[v, p] = log mu(B(v, R_p)) - log mu(B(v, r_p)) against
    # x[p] = log(R_p / r_p), the same x for every vertex
    ia, ib = np.triu_indices(radii.size, k=1)
    log_m = np.log(masses[:, 2 * k:])
    y = log_m[:, ib]
    y -= log_m[:, ia]
    x = np.log(radii[ib] / radii[ia])
    # least squares y = q x + b over all n P samples, from the normal
    # equations' sums
    N = y.size
    sx, sxx = space.n * x.sum(), space.n * (x @ x)
    col = y.sum(axis=0)
    sy, sxy = col.sum(), x @ col
    q = (N * sxy - sx * sy) / (N * sxx - sx * sx)
    if q <= 0:
        raise NumericalError("Q-doubling fit produced a nonpositive exponent")
    y -= q * x              # make the bound valid for every sample
    b = max((sy - q * sx) / N, float(np.max(y)))
    c_q = max(1.0, float(np.exp(b)))
    return DoublingReport(R0=float(R0), C_d=float(ratios[v, j]), Q_fit=float(q),
                          C_Q=c_q, worst_pair=(int(v), float(small[j])),
                          n_samples=int(N), path=path)


def _sharp_poincare(space, ball_members, outer_members, radius):
    """Sharp constant of ||u - u_B||_{L2(B)} <= C r ||sqrt(Gamma u)||_{L2(2B)}.

    The oscillation Q(u) = sum_B mu (u - u_B)^2 sees only v = u|B, and for a
    fixed v the energy E(u) of the subgraph induced on 2B is smallest at the
    harmonic extension of v into the annulus 2B \\ B, where it equals
    v^T S v with S the Schur complement of the induced Laplacian onto B.
    C^2 r^2 is the largest eigenvalue of the pencil (Q_B, S).  With
    D = diag(mu_B), s = D^{1/2} 1 / sqrt(mu(B)) and P = I - s s^T,
    Q_B = (P D^{1/2})^T (P D^{1/2}), so that eigenvalue is the largest one of

        K = P D^{1/2} G D^{1/2} P,    G w = [L_g^{-1} (w; 0)]_B,

    where L_g is the Laplacian on 2B (ball first) grounded at its last vertex;
    that vertex reads 0, also when 2B = B puts it in the ball.  Any grounding
    works: D^{1/2} P y sums to zero, and P annihilates constants.  One sparse
    LU of L_g and one Lanczos solve from a fixed start give C at every ball
    size.
    Returns None when the ball is degenerate (a single vertex, or a doubled
    ball inducing a disconnected subgraph).
    """
    from scipy.sparse.csgraph import connected_components
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh, splu
    blas.adopt()                # SuperLU and ARPACK call scipy's OpenBLAS

    k = ball_members.size
    if k < 2:
        return None
    annulus = np.setdiff1d(outer_members, ball_members, assume_unique=True)
    order = np.concatenate([ball_members, annulus])     # 2B, ball first
    W = space.conductance_matrix[order][:, order]
    if connected_components(W, directed=False)[0] != 1:
        return None
    L_g = (sp.diags(np.asarray(W.sum(axis=1)).ravel()) - W)[:-1, :-1]
    try:
        lu = splu(L_g.tocsc())
    except RuntimeError as e:
        raise NumericalError(f"Poincare energy on 2B is singular: {e}") from None
    root = np.sqrt(space.mu[ball_members])
    s = root / np.sqrt(root @ root)

    def apply_k(y):
        y = np.ravel(y)
        b = np.zeros(order.size)
        b[:k] = root * (y - s * (s @ y))
        u = np.append(lu.solve(b[:-1]), 0.0)            # grounded vertex reads 0
        w = root * u[:k]
        return w - s * (s @ w)

    try:
        lam = eigsh(LinearOperator((k, k), matvec=apply_k, dtype=float), k=1,
                    which="LA", v0=np.random.default_rng(0).standard_normal(k),
                    return_eigenvectors=False)
    except ArpackError as e:
        raise NumericalError(f"Poincare Lanczos solve failed: {e}") from None
    return np.sqrt(max(float(lam[0]), 0.0)) / radius


def estimate_poincare(space: MetricMeasureSpace, R0: float, sample_count: int,
                      seed: int = 0) -> PoincareReport:
    """Worst sharp constant of the L2-L2 Poincare surrogate over sampled balls.

    Balls B(x, r) are sampled with r < R0 from the geometric radius grid;
    for each, the sharp constant on the vertex set of B(x, 2r) is one sparse
    LU and one Lanczos solve (`_sharp_poincare`), whatever the ball size.
    Degenerate balls (single vertex, or disconnected doubled ball) are
    skipped and counted.
    """
    if sample_count < 1:
        raise ConfigError("sample_count must be >= 1")
    if not (R0 >= 4 * space.min_edge_length):
        raise ConfigError("R0 must be at least four times the smallest edge length")
    rng = np.random.default_rng(seed)
    radii = radius_grid(space, R0)
    radii = radii[(radii > space.min_edge_length) & (radii < R0)]
    if radii.size == 0:
        raise ConfigError("no admissible radii below R0")

    worst = None
    c_p = 0.0
    skipped = 0
    used = 0
    for _ in range(sample_count):
        x = int(rng.integers(space.n))
        r = float(rng.choice(radii))
        ball = metric_ball(space, x, r)
        outer = metric_ball(space, x, 2 * r)
        c = _sharp_poincare(space, ball.members, outer.members, r)
        if c is None:
            skipped += 1
            continue
        used += 1
        if c > c_p:
            c_p = c
            worst = ball
    if used == 0:
        raise NumericalError("every sampled ball was degenerate")
    return PoincareReport(R0=float(R0), C_P=float(c_p), worst_ball=worst,
                          n_balls=used, n_skipped=skipped)
