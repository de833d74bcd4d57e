"""Heat semigroup T_t = e^{tA} on a weighted graph, and its kernel checks.

Three realizations, chosen from the structure of the space:

* dense-spectral: full eigendecomposition of the generator, symmetrized in
  the mu-weighted inner product.  Exact up to round-off for any t; kernel
  matrices are cached and clamped at zero so nonnegative inputs map to
  exactly nonnegative outputs.
* product: for a Cartesian product X x Y (`space.factors`), the generator
  is the Kronecker sum A_x (+) A_y, so T_t = T_t^x (x) T_t^y.  Each factor
  keeps its own dense spectral decomposition; a field stack is pushed
  through the clamped factor kernels one axis at a time, so nothing of
  size n x n is formed and positivity is exact at every size.
* stepping: error-controlled Taylor action of the matrix exponential
  (`scipy.sparse.linalg.expm_multiply`) for other spaces past the dense
  cap, swept incrementally along ascending time grids.

Kernel conventions: T_t f(x) = sum_y p(t, x, y) f(y) mu_y, with
p(t, x, y) = p(t, y, x) >= 0 and sum_y p(t, x, y) mu_y = 1 (the semigroup
is stochastically complete: T_t 1 = 1).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from .errors import ConfigError, NumericalError
from .form import carre_du_champ
from .quad import log_time_quadrature, require_converged
from .reports import GaussianFit, VerificationReport
from .space import Ball, MetricMeasureSpace, metric_ball, _ball_masses

DENSE_CAP_DEFAULT = 4000
# Per time, product mode forms the two factor kernels (~nx^3 + ny^3 flops)
# and pushes each field through them (~nx ny (nx + ny)); the ratio of the
# two is about the aspect nx / ny.  Past this aspect the kernels dominate and
# an elongated product is left to the dense or stepping realization.
PRODUCT_MAX_ASPECT = 16


def _product_pays(factors, dense_cap: int) -> bool:
    """True when a product space should use the product realization."""
    if factors is None:
        return False
    small, large = sorted(f.n for f in factors)
    return large <= dense_cap and large <= PRODUCT_MAX_ASPECT * small


def _spectrum(space: MetricMeasureSpace):
    """(theta, basis): eigenvalues of -A clipped at 0, mu-orthonormal eigenfields."""
    inv_sqrt_mu = 1.0 / np.sqrt(space.mu)
    S = (space.laplacian().toarray() * inv_sqrt_mu[:, None]) * inv_sqrt_mu[None, :]
    S = 0.5 * (S + S.T)
    try:
        w, V = scipy.linalg.eigh(S, check_finite=False)
    except scipy.linalg.LinAlgError as e:
        raise NumericalError(f"eigendecomposition failed: {e}") from e
    return np.clip(w, 0.0, None), V * inv_sqrt_mu[:, None]


def _time_grid(ts) -> np.ndarray:
    ts = np.asarray(ts, dtype=float)
    if ts.size and (np.any(np.diff(ts) < 0) or ts[0] < 0):
        raise ConfigError("time grid must be ascending and nonnegative")
    return ts


class HeatOperator:
    """Heat semigroup of the graph generator A = (W - D)/mu.

    Parameters
    ----------
    space : MetricMeasureSpace
    mode : {"auto", "dense", "stepping"}
        "auto" picks product on a Cartesian-product space whose factors fit
        the dense cap and are no more than `PRODUCT_MAX_ASPECT` times apart
        in size, else dense-spectral up to `dense_cap` vertices, else
        stepping.  The product realization is reached only through "auto".
    dense_cap : int
        Largest vertex count for a dense eigendecomposition (of the space in
        dense mode, of each factor in product mode).
    kernel_cache_cap : int
        Largest vertex count for which dense mode builds and caches full
        kernel matrices (they cost O(n^3) to form but make `apply` exactly
        positivity-preserving).
    """

    def __init__(self, space: MetricMeasureSpace, mode="auto",
                 dense_cap=DENSE_CAP_DEFAULT, kernel_cache_cap=1300):
        self.space = space
        n = space.n
        if mode == "auto":
            if _product_pays(space.factors, dense_cap):
                mode = "product"
            else:
                mode = "dense" if n <= dense_cap else "stepping"
        elif mode not in ("dense", "stepping"):
            raise ConfigError(f"unknown heat mode {mode!r}")
        if mode == "dense" and n > dense_cap:
            raise ConfigError(f"dense mode capped at {dense_cap} vertices (space has {n})")
        self.mode = mode
        self.kernel_cache_cap = kernel_cache_cap
        self._kernel_cache: dict = {}
        self.theta = self.basis = self._A = self._factors = None

        if mode == "dense":
            self.theta, self.basis = _spectrum(space)
        elif mode == "product":
            self._factors = [(f.mu,) + _spectrum(f) for f in space.factors]
        else:
            self._A = sp.csr_matrix(
                (sp.diags(1.0 / space.mu) @ (space.conductance_matrix
                                             - sp.diags(space.degree))))

    # -- eigen data ----------------------------------------------------------

    @property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues 0 = theta_0 < theta_1 <= ... of -A (dense and product
        modes; a product's are the pairwise sums of its factors')."""
        if self.mode == "product":
            (_, tx, _), (_, ty, _) = self._factors
            return np.sort((tx[:, None] + ty[None, :]).ravel())
        if self.theta is None:
            raise ConfigError("eigenvalues need the dense-spectral or product mode")
        return self.theta

    # -- semigroup application ----------------------------------------------

    def apply(self, f, t: float) -> np.ndarray:
        """T_t f for a single field; errors on t < 0; T_0 is the identity.

        In product mode, and in dense mode on spaces below
        `kernel_cache_cap`, this goes through clamped kernel matrices, so
        f >= 0 yields exactly T_t f >= 0.
        """
        f = self.space.check_field(f)
        if t < 0:
            raise ConfigError("negative time")
        if t == 0:
            return f.copy()
        if self.mode == "dense" and self.space.n <= self.kernel_cache_cap:
            return self.kernel_matrix(t) @ (self.space.mu * f)
        return self.apply_batch(f, t)

    def apply_batch(self, F, t: float) -> np.ndarray:
        """T_t applied to one field or a (n, k) stack of fields."""
        F = np.asarray(F, dtype=float)
        if t < 0:
            raise ConfigError("negative time")
        if t == 0:
            return F.copy()
        if self.mode == "dense":
            mu = self.space.mu[:, None] if F.ndim == 2 else self.space.mu
            coeff = self.basis.T @ (mu * F)
            damp = np.exp(-self.theta * t)
            d = damp[:, None] if F.ndim == 2 else damp
            return self.basis @ (d * coeff)
        if self.mode == "product":
            return self._product_apply(F, t)
        return expm_multiply(self._A * t, F)

    def apply_grid(self, F, ts):
        """Yield (t, T_t F) for an ascending positive time grid.

        Dense mode reuses the spectral coefficients of F; product mode
        forms the two factor kernels per time; stepping mode advances
        incrementally through the grid (one exponential action per
        increment).
        """
        ts = _time_grid(ts)
        F = np.asarray(F, dtype=float)
        if self.mode == "dense":
            mu = self.space.mu[:, None] if F.ndim == 2 else self.space.mu
            coeff = self.basis.T @ (mu * F)
            for t in ts:
                damp = np.exp(-self.theta * t)
                d = damp[:, None] if F.ndim == 2 else damp
                yield float(t), self.basis @ (d * coeff)
        elif self.mode == "product":
            for t in ts:
                yield float(t), self._product_apply(F, t)
        else:
            cur = F.copy()
            t_prev = 0.0
            for t in ts:
                dt = t - t_prev
                if dt > 0:
                    cur = expm_multiply(self._A * dt, cur)
                t_prev = t
                yield float(t), cur.copy()

    def _factor_kernels(self, t: float):
        """Clamped kernel matrices p_x(t), p_y(t) of the two factors.

        The pair for the last time asked is kept: callers that read many
        kernel columns sweep t in the outer loop.
        """
        pair = self._kernel_cache.get(t)
        if pair is None:
            pair = [self._spectral_kernel(theta, basis, t)
                    for _, theta, basis in self._factors]
            self._kernel_cache = {t: pair}
        return pair

    def _product_apply(self, F, t: float) -> np.ndarray:
        """(T_t^x (x) T_t^y) F with F viewed as (nx, ny, k): x first, then y."""
        (mx, _, _), (my, _, _) = self._factors
        px, py = self._factor_kernels(t)
        G = ((px * mx) @ F.reshape(mx.size, -1)).reshape(mx.size, my.size, -1)
        # one (ny, ny) x (ny, nx k) product; a batched matmul over x rows is
        # many times slower
        G = np.tensordot(py * my, G, axes=(1, 1))
        return G.transpose(1, 0, 2).reshape(F.shape)

    # -- kernel ---------------------------------------------------------------

    def kernel_matrix(self, t: float) -> np.ndarray:
        """Full kernel matrix p(t, ., .) (dense mode, cached, clamped at 0)."""
        if self.mode != "dense":
            raise ConfigError("kernel matrices require dense-spectral mode")
        if t <= 0:
            raise ConfigError("kernel needs t > 0")
        K = self._kernel_cache.get(t)
        if K is None:
            K = self._spectral_kernel(self.theta, self.basis, t)
            if len(self._kernel_cache) >= 64:
                self._kernel_cache.pop(next(iter(self._kernel_cache)))
            self._kernel_cache[t] = K
        return K

    def kernel(self, t: float, x0: int) -> np.ndarray:
        """Kernel column p(t, x0, .) as a field."""
        if t <= 0:
            raise ConfigError("kernel needs t > 0")
        x0 = int(x0)
        if self.mode == "product":
            px, py = self._factor_kernels(t)
            a, b = divmod(x0, py.shape[0])
            return np.outer(px[a], py[b]).ravel()
        if self.mode == "dense":
            if self.space.n <= self.kernel_cache_cap:
                return self.kernel_matrix(t)[x0].copy()
            damp = np.exp(-self.theta * t)
            col = self.basis @ (damp * self.basis[x0])
            self._clamp(col)
            return col
        e = np.zeros(self.space.n)
        e[x0] = 1.0 / self.space.mu[x0]
        col = expm_multiply(self._A * t, e)
        self._clamp(col)
        return col

    def kernel_grid(self, x0: int, ts):
        """Yield (t, p(t, x0, .)) along an ascending positive time grid."""
        if self.mode == "product":
            for t in _time_grid(ts):
                yield float(t), self.kernel(t, x0)
            return
        e = np.zeros(self.space.n)
        e[int(x0)] = 1.0 / self.space.mu[int(x0)]
        for t, col in self.apply_grid(e, ts):
            col = col.copy()
            self._clamp(col)
            yield t, col

    @classmethod
    def _spectral_kernel(cls, theta, basis, t: float) -> np.ndarray:
        """Symmetrized kernel matrix basis e^{-theta t} basis^T, clamped at 0."""
        K = basis @ (np.exp(-theta * t)[:, None] * basis.T)
        K = 0.5 * (K + K.T)
        cls._clamp(K)
        return K

    @staticmethod
    def _clamp(arr, rel=1e-10):
        floor = -rel * max(float(np.max(arr)), 1e-300)
        if float(np.min(arr)) < floor:
            raise NumericalError(
                f"kernel entry {float(np.min(arr)):.3e} below round-off floor "
                f"{floor:.3e}: broken semigroup")
        np.clip(arr, 0.0, None, out=arr)


def build_heat(space: MetricMeasureSpace, mode="auto", **kwargs) -> HeatOperator:
    """Construct the heat semigroup realization for a space."""
    return HeatOperator(space, mode=mode, **kwargs)


def heat_apply(H: HeatOperator, f, t: float) -> np.ndarray:
    """T_t f; identity at t = 0, mass-conserving and positivity-preserving."""
    return H.apply(f, t)


def heat_kernel(H: HeatOperator, t: float, x0: int) -> np.ndarray:
    """p(t, x0, .) with p >= 0 and sum_y p mu_y = 1."""
    return H.kernel(t, x0)


# ---------------------------------------------------------------------------
# kernel bound checks
# ---------------------------------------------------------------------------

def check_gaussian(H: HeatOperator, t_grid, pair_count: int, R: float,
                   seed: int = 0, bracket: float = 2.0) -> GaussianFit:
    """Fit two-sided Gaussian envelopes for the heat kernel.

        C^-1 mu(B(x,sqrt(t)))^-1 exp(-d^2/(C2 t)) <= p(t,x,y)
                                 <= C mu(B(x,sqrt(t)))^-1 exp(-d^2/(C1 t))

    A central decay constant comes from least squares on
    log(p * mu(B(x,sqrt(t)))) against -d^2/t; the envelopes use
    C1 = bracket * C0 and C2 = C0 / bracket, and C is then the smallest
    constant making both bounds hold at every sample (so the reported
    violation count is zero by construction and re-verified).

    Pairs are sampled with h <= d(x, y) < R; the grid must satisfy
    h^2 <= t <= R^2 (below mesh scale the discrete kernel is not Gaussian).
    """
    space = H.space
    h = space.min_edge_length
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0 or pair_count < 1:
        raise ConfigError("empty Gaussian sample")
    if not (bracket >= 1.0):
        raise ConfigError("bracket must be >= 1 so that C1 >= C2")
    if np.any(t_grid < h ** 2 * (1 - 1e-12)) or np.any(t_grid > R ** 2 * (1 + 1e-12)):
        raise ConfigError(f"t grid must lie in [h^2, R^2] = [{h**2}, {R**2}]")

    rng = np.random.default_rng(seed)
    pairs = []
    guard = 0
    while len(pairs) < pair_count and guard < 50 * pair_count:
        guard += 1
        x = int(rng.integers(space.n))
        d = space.distances_from(x)
        ok = np.flatnonzero((d >= h * (1 - 1e-12)) & (d < R))
        if ok.size == 0:
            continue
        y = int(rng.choice(ok))
        pairs.append((x, y, float(d[y])))
    if not pairs:
        raise ConfigError(f"no vertex pairs with d in [h, {R})")

    xs = sorted({x for x, _, _ in pairs})
    xpos = {x: k for k, x in enumerate(xs)}
    logs, zs = [], []
    for t in t_grid:
        if H.mode == "dense":
            damp = np.exp(-H.theta * t)
            cols = H.basis @ (damp[:, None] * H.basis[xs].T)   # column k: p(t, xs[k], .)
        else:
            cols = np.column_stack([H.kernel(t, x) for x in xs])
        for x, y, d in pairs:
            p = float(cols[y, xpos[x]])
            if p <= 0:
                raise NumericalError(f"nonpositive kernel value at t={t}, pair=({x},{y})")
            mb = _ball_masses(space.distances_from(x), space.mu,
                              np.array([np.sqrt(t)]))[0]
            logs.append(np.log(p) + np.log(mb))
            zs.append(d * d / t)
    yv = np.asarray(logs)
    z = np.asarray(zs)

    varz = float(np.var(z))
    if varz <= 0:
        raise NumericalError("degenerate Gaussian sample: all d^2/t equal")
    slope = float(np.cov(z, yv, bias=True)[0, 1]) / varz
    c0 = -1.0 / slope if slope < 0 else 4.0 * float(np.median(t_grid)) / float(np.median(z))
    c0 = abs(c0)
    c1 = bracket * c0
    c2 = c0 / bracket
    req = max(float(np.max(yv + z / c1)), float(np.max(-(yv + z / c2))), 0.0)
    C = float(np.exp(req))

    up_viol = int(np.sum(yv > np.log(C) - z / c1 + 1e-12))
    lo_viol = int(np.sum(yv < -np.log(C) - z / c2 - 1e-12))
    return GaussianFit(C=C, C1=float(c1), C2=float(c2),
                       violations=up_viol + lo_viol,
                       t_range=(float(t_grid.min()), float(t_grid.max())),
                       pair_sample=len(pairs))


def check_heat_caccioppoli(H: HeatOperator, x: int, R: float, s: float,
                           c: float = None, gaussian_fit: GaussianFit = None,
                           rtol: float = 1e-6) -> VerificationReport:
    """Annulus gradient energy of the kernel against its decay envelope.

        \\int_0^s \\int_{B(x,2R)\\B(x,R)} Gamma_y(p(t,x,.)) dmu dt
              <= C mu(B(x,R))^-1 exp(-c R^2 / s)

    The left side uses the adaptive log-time quadrature; the smallest C is
    fitted at the configured decay rate c (default: the upper-envelope rate
    1/C1 of a supplied Gaussian fit, else 0.25).  The report also carries a
    small Pareto scan of (c, C(c)) pairs.
    """
    space = H.space
    if not (0 < s <= R * R * (1 + 1e-12)):
        raise ConfigError("need 0 < s <= R^2")
    inner = metric_ball(space, x, R)
    outer = metric_ball(space, x, 2 * R)
    annulus = np.setdiff1d(outer.members, inner.members, assume_unique=True)
    if annulus.size == 0:
        raise ConfigError("empty annulus: R is below mesh scale")
    if metric_ball(space, x, 3 * R).members.size >= space.n:
        raise ConfigError("B(x, 3R) is not contained in the space")

    mu_ann = space.mu[annulus]

    def annulus_energy(cols_iter):
        return [float(mu_ann @ carre_du_champ(space, col)[annulus])
                for _, col in cols_iter]

    def eval_batch(ts):
        return annulus_energy(H.kernel_grid(x, ts))

    e0_field = np.zeros(space.n)
    e0_field[x] = 1.0 / space.mu[x]
    zero_limit = float(mu_ann @ carre_du_champ(space, e0_field)[annulus])

    lhs, info = log_time_quadrature(eval_batch, 0.0, s, rtol=rtol,
                                    zero_limit=zero_limit)
    require_converged(info, 0.0, s)
    if c is None:
        c = 1.0 / gaussian_fit.C1 if gaussian_fit is not None else 0.25
    unit = np.exp(-c * R * R / s) / inner.measure
    C = lhs / unit
    pareto = []
    for ck in np.geomspace(c / 8, 8 * c, 13):
        pareto.append((float(ck), float(lhs / (np.exp(-ck * R * R / s) / inner.measure))))
    return VerificationReport(
        name="heat_caccioppoli", lhs=float(lhs), rhs=float(unit),
        constant=float(C), margin=0.0, passed=True,
        extras={"c": float(c), "s": float(s), "R": float(R),
                "annulus_size": int(annulus.size),
                "ball_mass": float(inner.measure),
                "quadrature": info, "pareto": pareto})
