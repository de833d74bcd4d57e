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
distance rows are sums of factor rows; other graphs run Dijkstra.  The heat
module uses the factors as well.

Measured constants:

    mu(B(x, 2r)) <= C_d * mu(B(x, r))                       (doubling)
    mu(B(x, R))  <= C_Q * (R/r)^Q * mu(B(x, r))             (Q-doubling)
    ||u - u_B||_{L2(B)} <= C_P * r * ||sqrt(Gamma(u,u))||_{L2(2B)}

The Poincare left side is the L2 mean oscillation; it dominates the L1 one
by the power-mean inequality, so the reported C_P is valid for the weaker
L1-L2 inequality as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, dijkstra

from .errors import ConfigError, NumericalError
from .reports import DoublingReport, PoincareReport

_SQRT2 = np.sqrt(2.0)
CACHE_BYTES = 64 * 2 ** 20         # per cache: Dijkstra rows, dense heat kernels
_ROW_BLOCK = 2 ** 18               # doubles per (rows x n) block in estimate_doubling


class MetricMeasureSpace:
    """Connected weighted graph carrying a measure and a path metric.

    Parameters
    ----------
    mu : array_like
        Strictly positive vertex masses.
    edges : (m, 4) array or iterable of (i, j, c, l)
        Undirected edges with conductance c > 0 and length l > 0.  Each
        edge is listed once; symmetry is implicit.
    positions : array_like, optional
        Vertex coordinates (n, dim), used for coordinate fields and export.
    name : str
        Label used in reports.
    rim : array_like, optional
        Geometric boundary vertices for grid families (empty otherwise).

    Attributes
    ----------
    factors : (MetricMeasureSpace, MetricMeasureSpace) or None
        The factors X, Y of a Cartesian product built by `product_space`;
        None for every other space.
    """

    def __init__(self, mu, edges, positions=None, name="", rim=None):
        mu = np.asarray(mu, dtype=float)
        if mu.ndim != 1 or mu.size == 0:
            raise ConfigError("mu must be a nonempty 1-d array")
        if not np.all(np.isfinite(mu)) or np.any(mu <= 0):
            raise ConfigError("every vertex mass must be finite and strictly positive")
        self.mu = mu
        self.name = name
        self.factors = None

        n = mu.size
        E = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges),
                       dtype=float)
        if E.size == 0:
            E = E.reshape(0, 4)
        if E.ndim != 2 or E.shape[1] != 4:
            raise ConfigError("edges must be (i, j, c, l) rows")
        i, j = E[:, 0].astype(np.intp), E[:, 1].astype(np.intp)
        c, l = E[:, 2], E[:, 3]

        def first(bad, msg):
            if np.any(bad):
                k = int(np.argmax(bad))
                raise ConfigError(msg.format(i=i[k], j=j[k], c=c[k], l=l[k]))

        first(i == j, "self loop at vertex {i}")
        first((i < 0) | (i >= n) | (j < 0) | (j >= n), "edge ({i},{j}) out of range")
        i, j = np.minimum(i, j), np.maximum(i, j)
        key = i * n + j
        order = np.argsort(key, kind="stable")
        dup = np.zeros(key.size, dtype=bool)
        dup[order[1:]] = key[order[1:]] == key[order[:-1]]
        first(dup, "duplicate edge ({i},{j})")
        first(~((c > 0) & (l > 0) & np.isfinite(c) & np.isfinite(l)),
              "edge ({i},{j}) needs c > 0 and l > 0, got c={c}, l={l}")
        self.edge_i = i
        self.edge_j = j
        self.edge_c = np.ascontiguousarray(c)
        self.edge_l = np.ascontiguousarray(l)

        if positions is not None:
            positions = np.atleast_2d(np.asarray(positions, dtype=float))
            if positions.shape[0] != n:
                raise ConfigError("positions must have one row per vertex")
        self.positions = positions
        self.rim = np.asarray([] if rim is None else rim, dtype=np.intp)

        rows = np.concatenate([self.edge_i, self.edge_j])
        cols = np.concatenate([self.edge_j, self.edge_i])
        self._W = sp.csr_matrix(
            (np.concatenate([self.edge_c, self.edge_c]), (rows, cols)), shape=(n, n))
        self._len_graph = sp.csr_matrix(
            (np.concatenate([self.edge_l, self.edge_l]), (rows, cols)), shape=(n, n))
        if n > 1:
            ncomp, _ = connected_components(self._W, directed=False)
            if ncomp != 1:
                raise ConfigError(f"graph is disconnected ({ncomp} components)")
        elif self.edge_i.size:
            raise ConfigError("single vertex cannot carry edges")

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

    def distances_from(self, v: int) -> np.ndarray:
        """Shortest-path distances from vertex v.

        On a product X x Y this is d_X(i, .) + d_Y(j, .) for v = (i, j),
        built from the factors' cached rows and not cached itself.  Other
        graphs run Dijkstra and cache rows per source up to a byte budget.
        """
        v = int(v)
        if not 0 <= v < self.n:
            raise ConfigError(f"vertex {v} out of range")
        if self.factors is not None:
            X, Y = self.factors
            i, j = divmod(v, Y.n)
            return np.add.outer(X.distances_from(i), Y.distances_from(j)).ravel()
        d = self._dist_cache.get(v)
        if d is None:
            d = dijkstra(self._len_graph, directed=False, indices=v)
            if len(self._dist_cache) < self._dist_cache_cap:
                self._dist_cache[v] = d
        return d

    def distance_rows(self, sources) -> np.ndarray:
        """Distance rows (len(sources), n) for a 1-d array of sources.

        Generic graphs run one batched Dijkstra that bypasses the cache.
        """
        sources = np.asarray(sources)
        if self.factors is None:
            return dijkstra(self._len_graph, directed=False, indices=sources)
        X, Y = self.factors
        dx = np.array([X.distances_from(i) for i in sources // Y.n])
        dy = np.array([Y.distances_from(j) for j in sources % Y.n])
        return (dx[:, :, None] + dy[:, None, :]).reshape(sources.size, self.n)

    def vertex_at(self, coords, tol=1e-9) -> int:
        """Vertex whose embedded position equals coords (within tol)."""
        if self.positions is None:
            raise ConfigError("space has no embedding")
        coords = np.atleast_1d(np.asarray(coords, dtype=float))
        d = np.abs(self.positions - coords[None, :]).max(axis=1)
        k = int(np.argmin(d))
        if d[k] > tol:
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
    rows = np.arange(nx)[:, None] * ny
    cols = np.arange(ny)
    x_edges = np.column_stack([
        (X.edge_i[:, None] * ny + cols).ravel(),
        (X.edge_j[:, None] * ny + cols).ravel(),
        np.outer(X.edge_c, Y.mu).ravel(),
        np.repeat(X.edge_l, ny)])
    y_edges = np.column_stack([
        (rows + Y.edge_i).ravel(),
        (rows + Y.edge_j).ravel(),
        np.outer(X.mu, Y.edge_c).ravel(),
        np.tile(Y.edge_l, nx)])
    if positions is None and X.positions is not None and Y.positions is not None:
        positions = np.hstack([np.repeat(X.positions, ny, axis=0),
                               np.tile(Y.positions, (nx, 1))])
    i, j = np.divmod(np.arange(nx * ny), ny)
    rim = np.flatnonzero(np.isin(i, X.rim) | np.isin(j, Y.rim))
    space = MetricMeasureSpace(np.outer(X.mu, Y.mu).ravel(),
                               np.vstack([x_edges, y_edges]),
                               positions=positions, name=name, rim=rim)
    space.factors = (X, Y)
    return space


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
    edges = np.column_stack([
        np.concatenate([idx[:-1, :].ravel(), idx[:, :-1].ravel()]),
        np.concatenate([idx[1:, :].ravel(), idx[:, 1:].ravel()]),
        np.concatenate([cx.ravel(), cy.ravel()]),
        np.full(cx.size + cy.size, h)])
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


def estimate_doubling(space: MetricMeasureSpace, R0: float) -> DoublingReport:
    """Measure the doubling constant and fit the Q-doubling power law.

    C_d is the exact maximum of mu(B(x,2r)) / mu(B(x,r)) over all vertices
    and the geometric radius grid restricted to r < R0/2.  (Q_fit, C_Q) come
    from least squares on log mu(B(x,R)) - log mu(B(x,r)) against log(R/r)
    over all grid pairs r < R, with the intercept raised afterwards so the
    power-law bound holds for every sample.  Distance rows are taken in
    blocks of about `_ROW_BLOCK` doubles.
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
    ia, ib = np.triu_indices(radii.size, k=1)

    best = -np.inf
    worst = (0, 0.0)
    ys = []
    batch = max(1, _ROW_BLOCK // space.n)
    for start in range(0, space.n, batch):
        rows = space.distance_rows(np.arange(start, min(start + batch, space.n)))
        masses = _ball_masses(rows, space.mu, queries)
        ratios = masses[:, k:2 * k] / masses[:, :k]
        v, j = np.unravel_index(np.argmax(ratios), ratios.shape)
        if ratios[v, j] > best:
            best = float(ratios[v, j])
            worst = (start + int(v), float(small[j]))
        m_all = masses[:, 2 * k:]
        ys.append((np.log(m_all[:, ib]) - np.log(m_all[:, ia])).ravel())

    x = np.tile(np.log(radii[ib] / radii[ia]), space.n)
    y = np.concatenate(ys)
    A = np.column_stack([x, np.ones_like(x)])
    (q, b), *_ = np.linalg.lstsq(A, y, rcond=None)
    if q <= 0:
        raise NumericalError("Q-doubling fit produced a nonpositive exponent")
    b = max(b, float(np.max(y - q * x)))    # make the bound valid for every sample
    c_q = max(1.0, float(np.exp(b)))
    return DoublingReport(R0=float(R0), C_d=best, Q_fit=float(q), C_Q=c_q,
                          worst_pair=worst, n_samples=int(x.size))


def _subgraph_energy_matrix(space: MetricMeasureSpace, members: np.ndarray):
    """Dense Laplacian of the induced subgraph (edges with both ends inside)
    and whether that subgraph is connected."""
    W = space.conductance_matrix[members][:, members]
    connected = connected_components(W, directed=False)[0] == 1
    return np.diag(np.asarray(W.sum(axis=1)).ravel()) - W.toarray(), connected


def _sharp_poincare(space, ball_members, outer_members, radius,
                    dense_cap=1500, rng=None):
    """Sharp constant of ||u - u_B||_{L2(B)} <= C r ||sqrt(Gamma u)||_{L2(2B)}.

    Solved as a generalized eigenproblem on the vertex set of the doubled
    ball, with the energy of the induced subgraph on the right.  Both sides
    annihilate constants, so the energy is lifted by tr(L)/m^2 on the
    constants to make it definite; that adds only the eigenvalue 0 and
    leaves the largest one unchanged.  Falls back to random-field sampling
    above `dense_cap` vertices.  Returns (C, method) or (None, reason) when
    the ball is degenerate.
    """
    S = outer_members
    m = S.size
    if ball_members.size < 2:
        return None, "single-vertex ball"
    L, connected = _subgraph_energy_matrix(space, S)
    if not connected:
        return None, "doubled ball induces a disconnected subgraph"
    loc = -np.ones(space.n, dtype=np.intp)
    loc[S] = np.arange(m)
    bloc = loc[ball_members]
    mu_b = space.mu[ball_members]
    mass_b = mu_b.sum()

    if m <= dense_cap:
        # Q_L(u) = sum_B mu (u - mean_B u)^2, assembled on the 2B vertex set
        QL = np.zeros((m, m))
        QL[np.ix_(bloc, bloc)] -= np.outer(mu_b, mu_b) / mass_b
        QL[bloc, bloc] += mu_b
        try:
            lam = scipy.linalg.eigh(QL, radius ** 2 * (L + np.trace(L) / m ** 2),
                                    eigvals_only=True, subset_by_index=[m - 1, m - 1])
        except scipy.linalg.LinAlgError as e:
            raise NumericalError(f"Poincare energy matrix is not definite: {e}") from None
        return np.sqrt(max(float(lam[0]), 0.0)), "eigen"

    rng = np.random.default_rng(0) if rng is None else rng
    best = 0.0
    for _ in range(256):
        u = rng.standard_normal(m)
        e = float(u @ (L @ u))
        if e <= 1e-14 * float(u @ u):
            continue
        ub = u[bloc]
        osc = float(mu_b @ (ub - (mu_b @ ub) / mass_b) ** 2)
        best = max(best, osc / (radius ** 2 * e))
    return np.sqrt(best), "sampled"


def estimate_poincare(space: MetricMeasureSpace, R0: float, sample_count: int,
                      seed: int = 0, dense_cap: int = 1500) -> PoincareReport:
    """Worst sharp constant of the L2-L2 Poincare surrogate over sampled balls.

    Balls B(x, r) are sampled with r < R0 from the geometric radius grid;
    for each, the sharp constant is computed on the vertex set of B(x, 2r).
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
    method = "eigen"
    skipped = 0
    used = 0
    for _ in range(sample_count):
        x = int(rng.integers(space.n))
        r = float(rng.choice(radii))
        ball = metric_ball(space, x, r)
        outer = metric_ball(space, x, 2 * r)
        c, how = _sharp_poincare(space, ball.members, outer.members, r,
                                 dense_cap=dense_cap, rng=rng)
        if c is None:
            skipped += 1
            continue
        used += 1
        if how == "sampled":
            method = "sampled"
        if c > c_p:
            c_p = c
            worst = ball
    if used == 0:
        raise NumericalError("every sampled ball was degenerate")
    return PoincareReport(R0=float(R0), C_P=float(c_p), worst_ball=worst,
                          method=method, n_balls=used, n_skipped=skipped)
