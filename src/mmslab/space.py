"""Finite weighted graphs as metric measure spaces.

A space is a connected graph with a strictly positive vertex measure ``mu``,
symmetric edge conductances ``c`` and edge lengths ``l``.  The metric is the
shortest-path metric induced by the lengths; balls are open.  Built-in
families: two-point space, uniform cycle, uniform torus, and vertex-centered
finite-volume discretizations of weighted intervals/rectangles (weight
catalog: constant, sqrt|x|, tabulated).  The torus and the separably
weighted rectangle are Cartesian products of 1-d spaces (`product_space`)
and keep their factors.  Every distance comes from one routine,
`MetricMeasureSpace.distance_rows`, by one of three routes.  The path metric
of a product graph is the sum of the factor metrics, d((i, a), (i', a')) =
d_X(i, i') + d_Y(a, a'), so its rows are sums of the factors' rows, taken by
the same routine; paths and cycles (every factor of the built-in families)
take running sums of their edge lengths, and other graphs run Dijkstra.
The doubling estimate reads every ball mass off the factors' distance
distributions without forming a product row; a graph without factors is the
product of one vertex and the graph itself, so the same routine serves it.  The heat
realization and the Dirichlet solve use the factors as well, when
`product_pays` says the factor decompositions are worth forming.

A space holds its edges as four columns (i, j as intp, c, l as float); rows
given by a caller are turned into columns first.  Every 2-d grid takes its
columns from one lattice (`_lattice`), and W, kept as three numpy CSR
arrays, comes from one stable sort that also finds a repeated edge.  The
package reads W through those arrays with scipy's bits; `conductance_matrix`
wraps them for the callers that hand W to scipy.  The length graph that
Dijkstra reads is built the first time Dijkstra runs, so a product, a path
or a cycle never holds one.  No module imports scipy at import time.

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

from . import blas
from .errors import ConfigError, NumericalError
from .reports import DoublingReport, PoincareReport

_SQRT2 = np.sqrt(2.0)
_ROW_BLOCK = 2 ** 18               # doubles (2 MB) per block of distance rows
_TIE_STEPS = 8                     # boundary runs a product ball count may cross
_ROW_CHUNK = 2 ** 13               # rows per step of `conductance_apply`
FACTOR_CAP = 4000                  # largest factor `product_pays` admits, in vertices
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
        Undirected edges with conductance c > 0 and length l > 0, each
        listed once.  Rows are turned into the four columns (i, j as intp,
        c, l as float) first; columns of those dtypes with every i < j are
        kept without a copy.  Both forms go through the same checks.
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

    w_indptr, w_indices, w_data : ndarray
        The conductances W in CSR form: row r holds its neighbours'
        columns w_indices[w_indptr[r]:w_indptr[r + 1]] in ascending order
        and their conductances in w_data, with int32 indices below 2^31
        entries: scipy's COO -> CSR arrays for the edge list, to the bit,
        from one stable sort (`_symmetric_csr`) that also names a repeated
        edge.
    degree : ndarray
        The row sums of W, summed as scipy sums them.

    The space keeps its edge columns, W's arrays, the degrees and, on a path
    or a cycle, the edge lengths around it.  `conductance_apply` computes
    W u from the arrays; `conductance_matrix` (a scipy matrix over the same
    arrays) and the length graph that Dijkstra reads (`_len_graph`, a
    second sparse matrix with 2m entries) are built on first use.
    Products, paths and cycles skip the connectivity search, since their
    structure proves them connected, so building one imports no scipy
    module: every function that calls into scipy imports it at call time.
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
        self.w_indptr, self.w_indices, self.w_data, duplicate = _symmetric_csr(n, i, j, c)
        first(duplicate, "duplicate edge ({i},{j})")
        first(~((c > 0) & (l > 0) & np.isfinite(c) & np.isfinite(l)),
              "edge ({i},{j}) needs c > 0 and l > 0, got c={c}, l={l}")
        self.edge_i, self.edge_j, self.edge_c, self.edge_l = i, j, c, l

        if positions is not None:
            positions = np.atleast_2d(np.asarray(positions, dtype=float))
            if positions.shape[0] != n:
                raise ConfigError("positions must have one row per vertex")
        self.positions = positions
        self.rim = np.asarray([] if rim is None else rim, dtype=np.intp)

        self._ring = _ring_lengths(n, i, j, l)
        # a path or a cycle holds every edge k -- k+1, and `product_space`
        # passes two factors that were checked when they were built: both
        # are connected by construction, every other graph is searched
        if n > 1 and self._ring is None and self.factors is None:
            from scipy.sparse.csgraph import connected_components
            # W is symmetric, so its strong components are its components;
            # the strong search reads W alone, the undirected one a transpose
            ncomp, _ = connected_components(self.conductance_matrix, directed=True,
                                            connection="strong")
            if ncomp != 1:
                raise ConfigError(f"graph is disconnected ({ncomp} components)")

        # scipy's row sums: one reduceat over the nonempty rows
        rows = np.flatnonzero(np.diff(self.w_indptr))
        self.degree = np.zeros(n)
        self.degree[rows] = np.add.reduceat(self.w_data, self.w_indptr[rows])

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

    @functools.cached_property
    def conductance_matrix(self):
        """W as a scipy CSR matrix over the space's arrays (no copy), built
        on first use."""
        return _scipy_csr(self.n, self.w_indptr, self.w_indices, self.w_data)

    def conductance_apply(self, u) -> np.ndarray:
        """W u for a field (n,), bit for bit scipy's CSR product: every
        row's sum starts at 0.0 and adds its entries' products in column
        order.

        A weighted `np.bincount` adds its weights into zeros one at a time
        in the order given, and a row's entries are consecutive in CSR
        order, so one bincount sums every row in scipy's order.  The rows
        go `_ROW_CHUNK` at a time, which bounds the temporaries (a row
        index, a column index and a product per entry) and keeps nothing
        between calls.
        """
        u = np.asarray(u, dtype=float)
        ptr = self.w_indptr
        out = np.empty(self.n)
        for r0 in range(0, self.n, _ROW_CHUNK):
            r1 = min(r0 + _ROW_CHUNK, self.n)
            rows = np.repeat(np.arange(r1 - r0), np.diff(ptr[r0:r1 + 1]))
            at = slice(ptr[r0], ptr[r1])
            out[r0:r1] = np.bincount(rows, u[self.w_indices[at]] * self.w_data[at],
                                     minlength=r1 - r0)
        return out

    def check_field(self, f) -> np.ndarray:
        f = np.asarray(f, dtype=float)
        if f.shape != (self.n,):
            raise ConfigError(f"field has shape {f.shape}, expected ({self.n},)")
        if not np.all(np.isfinite(f)):
            raise ConfigError("field contains non-finite entries")
        return f

    # -- metric ------------------------------------------------------------

    @functools.cached_property
    def _len_graph(self):
        """Symmetric scipy matrix of the edge lengths, built on first use."""
        return _scipy_csr(self.n, *_symmetric_csr(self.n, self.edge_i, self.edge_j,
                                                  self.edge_l)[:3])

    def distances_from(self, v: int) -> np.ndarray:
        """Shortest-path distances (n,) from vertex v: the one row of
        `distance_rows([v])`."""
        v = int(v)
        if not 0 <= v < self.n:
            raise ConfigError(f"vertex {v} out of range")
        return self._rows(np.array([v]), None, np.inf)[0]

    def distance_rows(self, sources, targets=None, limit=np.inf) -> np.ndarray:
        """Distances (len(sources), len(targets)) from each source to each
        target, for 1-d arrays of vertices; every vertex is a target by
        default.  Distances above `limit` may read inf.

        On a product X x Y each entry is fl(d_X + d_Y) of the factors' rows,
        taken by this routine and read at the targets, so asking for targets
        forms no product row.  On a path (edges k -- k+1, every 1-d grid) or
        a cycle (those and 0 -- n-1) the rows are the running sums of the
        edge lengths (`_ring_row`), Dijkstra's bits without Dijkstra.  Other
        graphs run batched Dijkstra, stopped at `limit`; with targets, in
        blocks of sources whose whole rows fill about `_ROW_BLOCK` doubles.
        """
        return self._rows(np.atleast_1d(sources), targets, limit)

    def _rows(self, sources, targets, limit) -> np.ndarray:
        if self.factors is not None:
            X, Y = self.factors
            xs, ys = np.divmod(sources, Y.n)
            if targets is None:
                dx, dy = X._rows(xs, None, limit), Y._rows(ys, None, limit)
                return (dx[:, :, None] + dy[:, None, :]).reshape(sources.size, self.n)
            tx, ty = np.divmod(targets, Y.n)
            d = X._rows(xs, tx, limit)
            # a y row at a time, so no second (sources, targets) array is formed
            for row, y_row in zip(d, Y._rows(ys, None, limit)):
                row += y_row[ty]
            return d
        if self._ring is not None:
            d = np.array([self._ring_row(int(v)) for v in sources]).reshape(-1, self.n)
            return d if targets is None else d[:, targets]
        from scipy.sparse.csgraph import dijkstra
        if targets is None:
            return dijkstra(self._len_graph, directed=False, indices=sources, limit=limit)
        # whole rows live a block of sources at a time; only the targets stay
        d = np.empty((sources.size, np.size(targets)))
        step = max(1, _ROW_BLOCK // self.n)
        for i in range(0, sources.size, step):
            d[i:i + step] = dijkstra(self._len_graph, directed=False,
                                     indices=sources[i:i + step], limit=limit)[:, targets]
        return d

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
    or from (i, j, c, l) rows, which are turned into columns first."""
    if not (isinstance(edges, tuple) and len(edges) == 4 and all(
            isinstance(a, np.ndarray) and a.ndim == 1 for a in edges)):
        E = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges), dtype=float)
        E = E.reshape(0, 4) if E.size == 0 else E
        if E.ndim != 2 or E.shape[1] != 4:
            raise ConfigError("edges must be (i, j, c, l) rows")
        edges = tuple(E.T)
    if len({a.size for a in edges}) != 1:
        raise ConfigError("edge columns must have one length")
    return tuple(np.ascontiguousarray(a, dtype=t)
                 for a, t in zip(edges, (np.intp, np.intp, float, float)))


def _symmetric_csr(n: int, i, j, values):
    """(indptr, indices, data, duplicate): the n x n matrix with `values` at
    (i, j) and (j, i), for i < j, in scipy's COO -> CSR order (rows, then
    columns, ascending), and the mask of the edges whose pair an earlier
    edge holds.  One stable sort of the 2m keys row * n + column (entry k
    for edge k's (i, j), m + k for its (j, i)) orders both halves and puts
    a repeated pair's later copy right after the earlier one in its row.
    """
    m = i.size
    idx = np.int32 if max(n, 2 * m) < 2 ** 31 else np.intp
    indptr = np.zeros(n + 1, dtype=idx)
    np.cumsum(np.bincount(i, minlength=n) + np.bincount(j, minlength=n), out=indptr[1:])
    order = np.argsort(np.concatenate([i * n + j, j * n + i]), kind="stable")
    indices = np.concatenate([j, i]).astype(idx, copy=False)[order]
    data = np.take(values, order, mode="wrap")      # entry m + k reads edge k
    # equal neighbours inside a row, not across a row start
    same = indices[1:] == indices[:-1]
    starts = indptr[1:-1]
    same[starts[(starts > 0) & (starts < 2 * m)] - 1] = False
    duplicate = np.zeros(m, dtype=bool)
    duplicate[order[1:][same] % m] = True
    return indptr, indices, data, duplicate


def _scipy_csr(n: int, indptr, indices, data):
    """The n x n scipy CSR matrix over these arrays, without a copy."""
    import scipy.sparse as sp
    return sp.csr_matrix((data, indices, indptr), shape=(n, n), copy=False)


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
    factor: both factors fit `FACTOR_CAP` and are at most
    `PRODUCT_MAX_ASPECT` times apart in size."""
    if factors is None:
        return False
    small, large = sorted(f.n for f in factors)
    return large <= FACTOR_CAP and large <= PRODUCT_MAX_ASPECT * small


def dense_laplacian(space: MetricMeasureSpace, idx=None) -> np.ndarray:
    """The dense block of L = D - W on the distinct vertices idx (all of
    them by default), scattered from W's arrays: -W off the diagonal and
    the degrees on it.  It is the array (D - W)[idx][:, idx].toarray() that
    scipy gives, to the bit."""
    n = space.n
    idx = np.arange(n) if idx is None else np.asarray(idx, dtype=np.intp)
    at = np.full(n, -1)                 # the place of each vertex in idx
    at[idx] = np.arange(idx.size)
    rows = at[np.repeat(np.arange(n), np.diff(space.w_indptr))]
    cols = at[space.w_indices]
    keep = (rows >= 0) & (cols >= 0)
    L = np.zeros((idx.size, idx.size))
    L[rows[keep], cols[keep]] = -space.w_data[keep]
    np.fill_diagonal(L, space.degree[idx])
    return L


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
    r = 1.0 / np.sqrt(space.mu)
    if idx is not None:
        r = r[idx]
    try:
        w, V = np.linalg.eigh((dense_laplacian(space, idx) * r[:, None]) * r[None, :])
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


def metric_ball(space: MetricMeasureSpace, center: int, radius: float,
                row=None) -> Ball:
    """Open ball in the shortest-path metric, read off `row`, the center's
    distance row, where the caller holds it."""
    if radius < 0:
        raise ConfigError("radius must be nonnegative")
    d = space.distances_from(center) if row is None else row
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
    k = np.arange(n)
    edges = (k, (k + 1) % n, np.ones(n), np.ones(n))
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
    d((i, a), (i', a')) = d_X(i, i') + d_Y(a, a'), which `distance_rows`
    uses.  Positions default to the Cartesian product of the factor
    embeddings (when both have one); the rim is (rim_X x Y) u (X x rim_Y).
    The edge columns, positions and rim come from `_lattice`, which the
    tabulated grid re-weights.
    """
    edges, positions, rim = _lattice(X, Y, positions)
    return MetricMeasureSpace(np.outer(X.mu, Y.mu).ravel(), edges, positions=positions,
                              name=name, rim=rim, _factors=(X, Y))


def _lattice(X: MetricMeasureSpace, Y: MetricMeasureSpace, positions=None):
    """((i, j, c, l), positions, rim) of `product_space(X, Y, positions)`,
    the columns written in place: the x-edges, then the y-edges."""
    nx, ny = X.n, Y.n
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
    return (i, j, c, l), positions, np.flatnonzero(on_rim)


def uniform_torus(n1: int, n2: int) -> MetricMeasureSpace:
    """Unit torus cycle(n1) x cycle(n2), embedded at integer grid points."""
    if n1 < 3 or n2 < 3:
        raise ConfigError("torus needs n1, n2 >= 3")
    pos = np.column_stack(np.divmod(np.arange(n1 * n2), n2)).astype(float)
    X = uniform_cycle(n1)
    return product_space(X, X if n2 == n1 else uniform_cycle(n2), positions=pos,
                         name=f"torus_{n1}x{n2}")


def _sqrt_abs_x_integral(a, b):
    """\\int_a^b sqrt|x| dx, off the antiderivative (2/3) sgn(x) |x|^{3/2}."""
    def F(x):
        return (2.0 / 3.0) * np.sign(x) * np.abs(x) ** 1.5
    return F(b) - F(a)


# separable weights w(x, y) = wx(x): name -> (cell integral \int_a^b wx,
# point values wx(x) at an array of points)
_WEIGHTS = {"constant": (lambda a, b: b - a, np.ones_like),
            "sqrt_abs_x": (_sqrt_abs_x_integral, lambda x: np.sqrt(np.abs(x)))}


def weighted_grid_1d(bounds=(-1.0, 1.0), h=0.25, weight="constant") -> MetricMeasureSpace:
    """Vertex-centered finite-volume discretization of a weighted interval.

    Vertex masses are cell integrals of the weight over dual (Voronoi)
    cells clipped at the boundary; the conductance between neighbors is
    w(midpoint)/h (the 1-d transmissibility w * h^{d-2}).
    """
    a, b = float(bounds[0]), float(bounds[1])
    if weight not in _WEIGHTS:
        raise ConfigError(f"unknown weight {weight!r}; catalog: {sorted(_WEIGHTS)}")
    integral, value = _WEIGHTS[weight]
    xs = _grid_axis(a, b, h)
    n = xs.size
    xl = np.maximum(xs - h / 2, a)
    xr = np.minimum(xs + h / 2, b)
    mu = np.array([integral(lo, hi) for lo, hi in zip(xl, xr)])
    if np.any(mu <= 0):
        raise ConfigError("weight produced a zero-mass cell")
    mid = (xs[:-1] + xs[1:]) / 2
    c = value(mid) / h
    if np.any(c <= 0):
        raise ConfigError(f"zero conductance at midpoint {mid[np.argmax(c <= 0)]}")
    k = np.arange(n - 1)
    edges = (k, k + 1, c, np.full(n - 1, float(h)))
    rim = [0, n - 1]
    return MetricMeasureSpace(mu, edges, positions=xs[:, None],
                              name=f"grid1d_{weight}_h{h:g}", rim=rim)


def weighted_grid_2d(bounds=((-1.0, 1.0), (-1.0, 1.0)), h=0.25,
                     weight="constant", tabulated=None) -> MetricMeasureSpace:
    """Vertex-centered finite-volume discretization of a weighted rectangle.

    Masses are exact cell integrals over clipped Voronoi cells.
    Conductances use the average of the weight over the shared face times
    |face|/h, so they stay strictly positive across the degeneracy line
    x = 0 of the sqrt|x| weight.  Edge lengths are Euclidean (= h).

    A separable weight w(x, y) = wx(x) gives the Cartesian product
    grid1d(wx) x grid1d(1).  A tabulated weight, one value per vertex,
    re-weights the lattice of grid1d(1) x grid1d(1) (`_lattice`): vertex
    masses w |cell| and conductances 0.5 (w_i + w_j) |face| / h, the face
    average taken between the two cells.  Its measure is not a product, so
    it keeps no `factors`.
    """
    (ax, bx), (ay, by) = bounds
    constant = tabulated is not None or weight == "constant"
    X = weighted_grid_1d((ax, bx), h, "constant" if constant else weight)
    # on equal bounds one constant factor object serves both axes
    Y = X if constant and (ax, bx) == (ay, by) else weighted_grid_1d((ay, by), h)
    if tabulated is None:
        return product_space(X, Y, name=f"grid2d_{weight}_h{h:g}")

    wtab = np.asarray(tabulated, dtype=float)
    if wtab.size != X.n * Y.n:
        raise ConfigError(f"tabulated weight has {wtab.size} values; the "
                          f"{X.n} x {Y.n} grid needs {X.n * Y.n}")
    wtab = wtab.reshape(X.n, Y.n)
    if np.any(wtab <= 0) or not np.all(np.isfinite(wtab)):
        raise ConfigError("tabulated weight must be strictly positive")
    (i, j, c, l), positions, rim = _lattice(X, Y)
    w = wtab.ravel()
    # the face of an x-edge (j = i + ny) spans its y cell, a y-edge's its x
    # cell; c shares its buffer with l, so it is written over in place
    face = np.where(j - i == Y.n, Y.mu[i % Y.n], X.mu[i // Y.n])
    c[:] = 0.5 * (w[i] + w[j]) * face / h
    return MetricMeasureSpace((wtab * X.mu[:, None] * Y.mu[None, :]).ravel(),
                              (i, j, c, l), positions=positions,
                              name=f"grid2d_tabulated_h{h:g}", rim=rim)


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

    def read(key, convert, default=None):
        # cfg[key] (or the default, when one is given) through `convert`
        try:
            return convert(cfg[key] if default is None else cfg.get(key, default))
        except (TypeError, ValueError, IndexError) as e:
            raise ConfigError(f"space parameter {key!r} is malformed: {e}") from None

    try:
        if family == "two_point":
            _reject_unknown(cfg, set())
            return two_point()
        if family == "cycle":
            _reject_unknown(cfg, {"n"})
            return uniform_cycle(read("n", int))
        if family == "torus":
            _reject_unknown(cfg, {"n1", "n2"})
            return uniform_torus(read("n1", int), read("n2", int))
        if family == "grid":
            _reject_unknown(cfg, {"dim", "bounds", "h", "weight", "tabulated"})
            dim = read("dim", int, 2)
            h = read("h", float)
            weight = read("weight", str, "constant")
            # a table is a weight: it must not be dropped beside another
            if "tabulated" in cfg and dim == 1:
                raise ConfigError("a 1-d grid takes no 'tabulated' table")
            if "tabulated" in cfg and "weight" in cfg and weight != "tabulated":
                raise ConfigError(f"grid names weight {weight!r} and a "
                                  "'tabulated' table; give one of them")
            if dim == 1:
                return weighted_grid_1d(read("bounds", _pair, (-1.0, 1.0)), h, weight)
            if dim == 2:
                bounds = read("bounds", lambda b: _pair(b, _pair), ((-1.0, 1.0), (-1.0, 1.0)))
                if weight == "tabulated" or "tabulated" in cfg:
                    return weighted_grid_2d(bounds, h, tabulated=read(
                        "tabulated", lambda v: np.asarray(v, dtype=float)))
                return weighted_grid_2d(bounds, h, weight)
            raise ConfigError("grid dimension must be 1 or 2")
    except KeyError as e:
        raise ConfigError(f"missing space parameter {e.args[0]!r}") from None
    raise ConfigError(f"unknown space family {family!r}")


def _pair(value, convert=float):
    a, b = value            # exactly two entries, each through `convert`
    return convert(a), convert(b)


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


def _sorted_masses(d_rows: np.ndarray, mu: np.ndarray):
    """(srt, cum) of a block of distance rows (k, n): each row sorted once,
    and the cumulative sum of mu in that order, cum[:, c] the mass of the
    first c vertices.  The open ball of radius r about a row's source holds
    the first searchsorted(srt row, r, side="left") of them."""
    order = np.argsort(d_rows, axis=1)
    cum = np.zeros((d_rows.shape[0], d_rows.shape[1] + 1))
    np.cumsum(mu[order], axis=1, out=cum[:, 1:])
    return np.take_along_axis(d_rows, order, axis=1), cum


def _ball_masses(d_rows: np.ndarray, mu: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """mu(B(x, r)) for every r in radii from a distance row (n,) or a block of
    rows (k, n) (open balls), read off `_sorted_masses`."""
    srt, cum = _sorted_masses(np.atleast_2d(d_rows), mu)
    counts = [np.searchsorted(row, radii, side="left") for row in srt]
    masses = np.take_along_axis(cum, np.asarray(counts), axis=1)
    return masses if d_rows.ndim == 2 else masses[0]


def _settle_counts(srt, counts, dq, rq):
    """Exact open-ball member counts from first guesses.

    Row b of `srt` is a sorted factor row s and `counts[b, t]` a guess for
    #{c : fl(dq[t] + s[c]) < rq[t]}, the membership test of the summed
    product row.  fl(d + .) is monotone, so the members are a prefix of s,
    and a guess taken as #{s < fl(r - d)} is off only by the few runs of
    equal distances whose sums round across r.  Each step moves every
    unsettled count past one whole run, whose ends a `searchsorted` of the
    row finds; a count still unsettled after `_TIE_STEPS` checks raises
    NumericalError.
    """
    padded = np.pad(srt, ((0, 0), (1, 1)), constant_values=(-np.inf, np.inf))
    for _ in range(_TIE_STEPS):
        up = dq + np.take_along_axis(padded, counts + 1, axis=1) < rq     # s[c] is in
        down = dq + np.take_along_axis(padded, counts, axis=1) >= rq     # s[c-1] is out
        if not (up.any() or down.any()):
            return counts
        for b in np.flatnonzero(up.any(axis=1) | down.any(axis=1)):
            row, c = srt[b], counts[b]
            c[up[b]] = np.searchsorted(row, row[c[up[b]]], side="right")
            c[down[b]] = np.searchsorted(row, row[c[down[b]] - 1], side="left")
    raise NumericalError("product ball counts did not settle at the boundary")


def _factor_ball_masses(space: MetricMeasureSpace, queries: np.ndarray) -> np.ndarray:
    """mu(B(v, r)) for every vertex v and every r in `queries` (open balls,
    vertex-major (n, len(queries))), with the space read as a product S x L.

    On a product X x Y, S is the smaller factor and L the larger; any other
    space is the product of one vertex S (mass 1, no edges) and the graph
    itself, L.  A center (i, a), i in S, a in L, has

        mu(B((i, a), r)) = sum_u M[i, u] F_a(u, r),
        M[i, u] = mu_S{j : d_S(i, j) = D_u},
        F_a(u, r) = mu_L{b : fl(D_u + d_L(a, b)) < r},

    over the distinct distances D_u of S.  Each row d_L(a, .) is sorted
    once (`_sorted_masses`); F_a is its cumulative mass at counts from one
    `searchsorted` per row, settled to the exact membership test of the
    product rows (`_settle_counts`).  M is sparse with at most |S|^2
    entries.  With one vertex, D = [0], the first counts are exact and the
    sum over S is F itself, so no sparse matrix is formed and no scipy
    module is loaded.  A block of L rows holds up to six arrays of its
    rows' size and six of its counts' size, the last block's among them:
    about `_ROW_BLOCK` doubles in all.
    """
    nq = queries.size
    if space.factors is None:
        n_s, L, s_first, D, M = 1, space, True, np.zeros(1), None
    else:
        X, Y = space.factors
        s_first = X.n <= Y.n
        S, L = (X, Y) if s_first else (Y, X)
        import scipy.sparse as sp
        d_s = S.distance_rows(np.arange(S.n))
        D, inv = np.unique(d_s, return_inverse=True)
        pairs = (np.repeat(np.arange(S.n), S.n), inv.ravel())
        M = sp.csr_matrix((np.tile(S.mu, S.n), pairs), shape=(S.n, D.size))
        n_s = S.n
    dq = np.repeat(D, nq)
    rq = np.tile(queries, D.size)
    targets = rq - dq
    masses = np.empty((n_s, L.n, nq) if s_first else (L.n, n_s, nq))
    batch = max(1, _ROW_BLOCK // (6 * (L.n + dq.size)))
    for start in range(0, L.n, batch):
        block = np.arange(start, min(start + batch, L.n))
        srt, cum = _sorted_masses(L.distance_rows(block), L.mu)
        counts = np.array([np.searchsorted(row, targets, side="left") for row in srt])
        F = np.take_along_axis(cum, _settle_counts(srt, counts, dq, rq), axis=1)
        F = F.reshape(block.size, D.size, nq).transpose(1, 0, 2)
        if M is not None:
            F = (M @ F.reshape(D.size, -1)).reshape(n_s, block.size, nq)
        if s_first:
            masses[:, block] = F
        else:
            masses[block] = F.transpose(1, 0, 2)
    return masses.reshape(space.n, nq)


def estimate_doubling(space: MetricMeasureSpace, R0: float) -> DoublingReport:
    """Measure the doubling constant and fit the Q-doubling power law.

    C_d is the exact maximum of mu(B(x,2r)) / mu(B(x,r)) over all vertices
    and the geometric radius grid restricted to r < R0/2.  (Q_fit, C_Q) come
    from least squares on log mu(B(x,R)) - log mu(B(x,r)) against log(R/r)
    over all grid pairs r < R, with the intercept raised afterwards so the
    power-law bound holds for every sample.

    The ball masses of every space come from `_factor_ball_masses`.  On a
    product they are sums over the smaller factor of the larger factor's
    sorted cumulative masses, with the membership test of the summed rows,
    fl(d_X + d_Y) < r, kept exactly, and no product row is formed; any
    other graph is the product of one vertex and the graph itself, so its
    masses are read off its own sorted rows, a block of rows at a time.
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

    masses = _factor_ball_masses(space, queries)
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
                          n_samples=int(N))


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
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh, splu

    k = ball_members.size
    if k < 2:
        return None
    annulus = np.setdiff1d(outer_members, ball_members, assume_unique=True)
    order = np.concatenate([ball_members, annulus])     # 2B, ball first
    W = space.conductance_matrix[order][:, order]
    if connected_components(W, directed=False)[0] != 1:
        return None
    L_g = (sp.diags(np.asarray(W.sum(axis=1)).ravel()) - W)[:-1, :-1]
    root = np.sqrt(space.mu[ball_members])
    s = root / np.sqrt(root @ root)

    def apply_k(y):
        y = np.ravel(y)
        b = np.zeros(order.size)
        b[:k] = root * (y - s * (s @ y))
        u = np.append(lu.solve(b[:-1]), 0.0)            # grounded vertex reads 0
        w = root * u[:k]
        return w - s * (s @ w)

    # SuperLU and ARPACK call scipy's OpenBLAS, which the import above maps
    with blas.threads(1):
        try:
            lu = splu(L_g.tocsc())
        except RuntimeError as e:
            raise NumericalError(f"Poincare energy on 2B is singular: {e}") from None
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
        # B(x, r) and B(x, 2r) off one distance row
        d = space.distances_from(x)
        members = np.flatnonzero(d < r)
        c = _sharp_poincare(space, members, np.flatnonzero(d < 2 * r), r)
        if c is None:
            skipped += 1
            continue
        used += 1
        if c > c_p:
            c_p = c
            worst = Ball(x, r, members, float(space.mu[members].sum()))
    if used == 0:
        raise NumericalError("every sampled ball was degenerate")
    return PoincareReport(R0=float(R0), C_P=float(c_p), worst_ball=worst,
                          n_balls=used, n_skipped=skipped)
