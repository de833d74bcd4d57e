"""Heat semigroup T_t = e^{tA} on a weighted graph, and its kernel checks.

Three realizations, chosen from the structure of the space:

* dense-spectral: full eigendecomposition of the generator, symmetrized in
  the mu-weighted inner product.  Exact up to round-off for any t; a field
  stack is pushed through its spectral coefficients and a kernel column is
  basis e^{-theta t} basis[x0], so nothing of size n x n is formed per time.
* product: for a Cartesian product X x Y (`space.factors`), the generator
  is the Kronecker sum A_x (+) A_y, so T_t = T_t^x (x) T_t^y.  Each factor
  keeps its own dense spectral decomposition; a field stack is pushed
  through the clamped factor kernels one axis at a time, so nothing of
  size n x n is formed and positivity is exact at every size.  A kernel
  column p(t, (a, b), .) is the outer product of two factor rows, and only
  the rows the sources need are formed, for a whole time grid in chunks of
  about 1 MB of temporaries.
* stepping: for other spaces past the dense cap, a Chebyshev expansion of
  e^{tA} in the shifted generator X = (2/lam)(-A) - I, whose spectrum lies
  in [-1, 1] for the edge-wise bound lam = max over edges {i, j} of
  D_i + D_j, D = degree/mu (Anderson and Morley).  The Bessel coefficients
  are cut where their tail drops below 2^-60 (never silently: a tail that
  stays above raises), so an action costs O(sqrt(lam_max t)) sparse
  matvecs.  One three-term recurrence serves several times: it runs to the
  largest increment and adds each time's coefficients into that time's
  accumulator (Tal-Ezer and Kosloff).  Time grids are swept in consecutive
  groups whose outputs fit about 4 MB, one recurrence per group, each group
  starting from the previous group's last output.  The recurrence is
  column-blocked (about 512 KB a block), and the blocks are shared between
  the calling thread and up to one worker thread per further CPU; a block
  does the same arithmetic on any thread.

The dense and product spectra come from numpy's LAPACK (`numpy.linalg.eigh`,
divide and conquer), the library whose BLAS then applies them.  numpy and
scipy each ship their own OpenBLAS with its own busy-waiting thread pool, so
an eigendecomposition through scipy between numpy products leaves one pool
spinning on the cores the other needs; divide and conquer also gives
eigenvectors that are orthonormal to a few ulp, where scipy's default MRRR
left errors of 2.7e-13 on the sqrt|x| factors at h = 1/64 (Demmel, Marques,
Parlett and Voemel, SIAM J. Sci. Comput. 30, 2008).

Kernel conventions: T_t f(x) = sum_y p(t, x, y) f(y) mu_y, with
p(t, x, y) = p(t, y, x) >= 0 and sum_y p(t, x, y) mu_y = 1 (the semigroup
is stochastically complete: T_t 1 = 1).  In every realization kernel
columns, and `apply` of a nonnegative field, are clamped at zero, so
positivity is exact; a negative value past the round-off floor raises.
"""

from __future__ import annotations

import os

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, NumericalError
# not called here any more; perfbench/tests checks that its tracer rebinds
# and restores this name in the heat namespace
from .form import carre_du_champ  # noqa: F401
from .quad import log_time_quadrature, require_converged
from .reports import GaussianFit, Measurement
from .space import (DENSE_CAP_DEFAULT, MetricMeasureSpace, _ball_masses,
                    metric_ball, product_pays)

# The Chebyshev series stops where the tail sum of |c_k| (the whole sum is 1)
# drops below this.
CHEB_TAIL = 2.0 ** -60
# Columns per block of the Chebyshev recurrence: about 2**16 doubles (512 KB).
_COLUMN_BLOCK = 2 ** 16
# Outputs of one stepping recurrence over a time grid: about 2**19 doubles
# (4 MB), or a single output when that alone is larger.
_GRID_BLOCK = 2 ** 19
# Temporaries of product kernel rows, in doubles per chunk (about 1 MB).
_ROW_BLOCK = 2 ** 17


def _spectrum(space: MetricMeasureSpace):
    """(theta, basis): eigenvalues of -A clipped at 0, mu-orthonormal eigenfields."""
    inv_sqrt_mu = 1.0 / np.sqrt(space.mu)
    S = (space.laplacian().toarray() * inv_sqrt_mu[:, None]) * inv_sqrt_mu[None, :]
    S = 0.5 * (S + S.T)
    try:
        w, V = np.linalg.eigh(S)
    except np.linalg.LinAlgError as e:
        raise NumericalError(f"eigendecomposition failed: {e}") from e
    return np.clip(w, 0.0, None), V * inv_sqrt_mu[:, None]


def _chebyshev_coefficients(z: float) -> np.ndarray:
    """c_k with e^{-z (X + I)} = sum_k c_k T_k(X) for X with spectrum in [-1, 1].

    c_0 = ive(0, z) and c_k = 2 (-1)^k ive(k, z), where ive(k, z) =
    e^{-z} I_k(z).  The series is cut where the tail sum of |c_k| drops below
    `CHEB_TAIL`; past k of about 12 sqrt(z) + 64 it is far below that, and a
    tail that is still larger there raises instead of being cut.
    """
    # imported here: scipy.special adds about 4 MB of resident memory to a
    # process, and only stepping mode needs it
    from scipy.special import ive

    c = ive(np.arange(int(12.0 * np.sqrt(z)) + 64), z)
    c[1:] *= 2.0
    c[1::2] *= -1.0
    tail = np.cumsum(np.abs(c[::-1]))[::-1]      # tail[k] = sum_{j >= k} |c_j|
    if not tail[-1] < CHEB_TAIL:
        raise NumericalError(
            f"Chebyshev series of exp at z={z:.3e} did not converge: tail "
            f"{tail[-1]:.3e} after {c.size} terms")
    return c[:int(np.argmax(tail < CHEB_TAIL))]


def _factor_rows(theta, basis, ts, rows) -> np.ndarray:
    """Clamped factor kernel rows p(t, a, .) for t in `ts` and a in `rows`,
    as (len(ts), len(rows), n_f).

    p(t, a, j) = sum_k U[a, k] U[j, k] with U = basis e^{-theta t / 2},
    summed over k in one fixed order, so p(t, a, j) == p(t, j, a) exactly
    and a row has the same bits whatever other times or rows are asked with
    it (a BLAS row need not be either).  Temporaries stay near `_ROW_BLOCK`
    doubles, or one time and one row when that alone is larger.
    """
    n, k = basis.shape
    out = np.empty((ts.size, rows.size, n))
    nt = max(1, _ROW_BLOCK // (n * k))
    for i in range(0, ts.size, nt):
        U = basis * np.exp(np.multiply.outer(-0.5 * ts[i:i + nt], theta))[:, None, :]
        nr = max(1, _ROW_BLOCK // U.size)
        for r in range(0, rows.size, nr):
            out[i:i + nt, r:r + nr] = (U[:, rows[r:r + nr], None, :]
                                       * U[:, None, :, :]).sum(axis=-1)
    HeatOperator._clamp(out)
    return out


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
        the dense cap and are no more than `space.PRODUCT_MAX_ASPECT` times
        apart in size (`space.product_pays`), else dense-spectral up to
        `dense_cap` vertices, else stepping.  The product realization is
        reached only through "auto".
    dense_cap : int
        Largest vertex count for a dense eigendecomposition (of the space in
        dense mode, of each factor in product mode).
    """

    def __init__(self, space: MetricMeasureSpace, mode="auto",
                 dense_cap=DENSE_CAP_DEFAULT):
        self.space = space
        n = space.n
        if mode == "auto":
            if product_pays(space.factors, dense_cap):
                mode = "product"
            else:
                mode = "dense" if n <= dense_cap else "stepping"
        elif mode not in ("dense", "stepping"):
            raise ConfigError(f"unknown heat mode {mode!r}")
        if mode == "dense" and n > dense_cap:
            raise ConfigError(f"dense mode capped at {dense_cap} vertices (space has {n})")
        self.mode = mode
        self._factor_pair: dict = {}
        self.theta = self.basis = self._factors = self._X2 = self._lam = None
        self._pool = None

        if mode == "dense":
            self.theta, self.basis = _spectrum(space)
        elif mode == "product":
            self._factors = [(f.mu,) + _spectrum(f) for f in space.factors]
        else:
            # -A = M^-1 B^T C B (B the edge-vertex incidence, C the edge
            # conductances) has the nonzero spectrum of the edge matrix
            # B M^-1 B^T C, whose row {i, j} has absolute sum D_i + D_j with
            # D = degree/mu; so the spectrum of -A lies in [0, lam]
            D = space.degree / space.mu
            self._lam = float(np.max(D[space.edge_i] + D[space.edge_j], initial=0.0))

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

        When f >= 0 the result is clamped at zero, so T_t f >= 0 exactly in
        every realization (a negative value past the round-off floor raises
        `NumericalError`).
        """
        f = self.space.check_field(f)
        out = self.apply_batch(f, t)
        if float(np.min(f)) >= 0:
            self._clamp(out)
        return out

    def apply_batch(self, F, t: float) -> np.ndarray:
        """T_t applied to one field or a (n, k) stack of fields (unclamped)."""
        F = np.asarray(F, dtype=float)
        if t < 0:
            raise ConfigError("negative time")
        if t == 0:
            return F.copy()
        if self.mode == "dense":
            return self._spectral_apply(self._coefficients(F), t, F.shape)
        if self.mode == "product":
            return self._product_apply(F, t)
        return self._chebyshev_sweep(F, [t])[0]

    def apply_grid(self, F, ts):
        """Yield (t, T_t F) for an ascending positive time grid.

        Dense mode reuses the spectral coefficients of F; product mode
        forms the two factor kernels per time; stepping mode splits the grid
        into consecutive groups whose outputs fit `_GRID_BLOCK` doubles and
        runs one Chebyshev recurrence per group, from the previous group's
        last output.  That output is the start of the next group, so callers
        must not modify a yielded array in place.
        """
        ts = _time_grid(ts)
        F = np.asarray(F, dtype=float)
        if self.mode == "dense":
            coeff = self._coefficients(F)
            for t in ts:
                yield float(t), self._spectral_apply(coeff, t, F.shape)
        elif self.mode == "product":
            for t in ts:
                yield float(t), self._product_apply(F, t)
        else:
            per_group = max(1, _GRID_BLOCK // max(F.size, 1))
            # F is not held past its first group, so a caller that drops it
            # frees it then
            cur, F, t_start = F, None, 0.0
            for i in range(0, ts.size, per_group):
                group = ts[i:i + per_group]
                outs = self._chebyshev_sweep(cur, group - t_start)
                # hand the outputs out one at a time, keeping no other
                # reference; the last one starts the next group
                for t in group:
                    cur = outs.pop(0)
                    yield float(t), cur
                t_start = group[-1]

    def _coefficients(self, F) -> np.ndarray:
        """Spectral coefficients basis^T M F of a field or stack, as (n, k)."""
        return self.basis.T @ (self.space.mu[:, None] * F.reshape(self.space.n, -1))

    def _spectral_apply(self, coeff, t: float, shape) -> np.ndarray:
        """T_t of the fields with spectral coefficients `coeff`, in `shape`."""
        return (self.basis @ (np.exp(-self.theta * t)[:, None] * coeff)).reshape(shape)

    def _shifted_generator(self):
        """2X = 2((2/lam)(-A) - I) in CSR, built on first use."""
        if self._X2 is None:
            space = self.space
            minus_A = sp.diags(1.0 / space.mu) @ (sp.diags(space.degree)
                                                   - space.conductance_matrix)
            self._X2 = sp.csr_matrix(2.0 * ((2.0 / self._lam) * minus_A
                                           - sp.identity(space.n)))
        return self._X2

    def _block_workers(self, blocks: int):
        """(executor, count): `count` = min(CPUs - 1, blocks - 1) worker
        threads to share `blocks` column blocks with the calling thread, or
        (None, 0).

        The pool is made on first use and starts a thread only when a task
        finds none idle, so no more threads run than blocks; its threads
        exit when the operator is collected.
        """
        cpus = len(os.sched_getaffinity(0))
        count = min(cpus - 1, blocks - 1)
        if count <= 0:
            return None, 0
        if self._pool is None:
            from concurrent.futures import ThreadPoolExecutor
            self._pool = ThreadPoolExecutor(max_workers=cpus - 1,
                                            thread_name_prefix="mmslab-chebyshev")
        return self._pool, count

    def _chebyshev_sweep(self, F, dts) -> list:
        """[e^{dt A} F for dt in dts], for ascending dts >= 0, from one
        recurrence: e^{dt A} F = sum_k c_k(dt) T_k(X) F, with T_{k+1} =
        2X T_k - T_{k-1}.

        The stored matrix is 2X, so T_1 = (2X) T_0 / 2 and T_{k+1} =
        (2X) T_k - T_{k-1}.  X 1 = -1 and 1^T M X = -1^T M, so mass is kept to
        round-off.  Each increment keeps its own coefficients, cut at its own
        tail, so its output has the bits of a recurrence run for it alone;
        at step k the increments whose series still runs form a suffix of
        `dts`, updated in one call.  The recurrence runs on column blocks of
        about `_COLUMN_BLOCK` doubles, dealt round-robin to the calling
        thread and `_block_workers` threads (sparse products and ufuncs
        release the GIL); a block's arithmetic does not depend on the
        thread, so the result is the same bits with or without workers.
        """
        X2 = self._shifted_generator()
        cs = [_chebyshev_coefficients(0.5 * self._lam * dt) for dt in dts]
        lengths = np.array([c.size for c in cs])
        C = np.zeros((len(cs), int(lengths.max())))
        for i, c in enumerate(cs):
            C[i, :c.size] = c
        # first[k]: the first increment whose series has a term k
        first = np.searchsorted(np.maximum.accumulate(lengths),
                                np.arange(C.shape[1]), side="right")
        n = self.space.n
        F2 = F.reshape(n, -1)
        outs = [np.empty(F2.shape) for _ in cs]
        width = max(1, _COLUMN_BLOCK // n)
        starts = range(0, F2.shape[1], width)

        def block(j):
            # its temporaries die on return, before the next block starts
            prev = np.ascontiguousarray(F2[:, j:j + width])
            # one contiguous accumulator per increment
            acc = C[:, 0, None, None] * prev
            if C.shape[1] > 1:
                cur = 0.5 * (X2 @ prev)
                s = first[1]
                acc[s:] += C[s:, 1, None, None] * cur
                for k in range(2, C.shape[1]):
                    nxt = X2 @ cur
                    nxt -= prev
                    s = first[k]
                    acc[s:] += C[s:, k, None, None] * nxt
                    prev, cur = cur, nxt
            for out, a in zip(outs, acc):
                out[:, j:j + width] = a

        def run(share):
            for j in share:
                block(j)

        pool, count = self._block_workers(len(starts))
        futures = [pool.submit(run, starts[p::count + 1])
                   for p in range(1, count + 1)]
        try:
            run(starts[::count + 1])
        finally:
            for fut in futures:
                fut.result()
        return [out.reshape(F.shape) for out in outs]

    def _factor_kernels(self, t: float):
        """Clamped kernel matrices p_x(t), p_y(t) of the two factors, for
        `_product_apply`.

        The pair for the last time asked is kept: callers that push many
        stacks sweep t in the outer loop.
        """
        pair = self._factor_pair.get(t)
        if pair is None:
            pair = [self._spectral_kernel(theta, basis, t)
                    for _, theta, basis in self._factors]
            self._factor_pair = {t: pair}
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
        """Full kernel matrix p(t, ., .) (dense mode, clamped at 0)."""
        if self.mode != "dense":
            raise ConfigError("kernel matrices require dense-spectral mode")
        if t <= 0:
            raise ConfigError("kernel needs t > 0")
        return self._spectral_kernel(self.theta, self.basis, t)

    def kernel(self, t: float, x0) -> np.ndarray:
        """Kernel column p(t, x0, .) as a field, or the (n, k) columns of a
        1-d array of k sources."""
        if t <= 0:
            raise ConfigError("kernel needs t > 0")
        xs = np.asarray(x0, dtype=np.intp)
        if self.mode == "product":
            _, cols = next(self._product_kernels(np.array([float(t)]), xs.ravel()))
            return cols.reshape(self.space.n, *xs.shape)
        if self.mode == "dense":
            cols = self.basis @ (np.exp(-self.theta * t) * self.basis[xs]).T
        else:
            cols = self._chebyshev_sweep(self._delta(xs), [t])[0]
        self._clamp(cols)
        return cols

    def kernel_grid(self, x0: int, ts):
        """Yield (t, p(t, x0, .)) along an ascending positive time grid."""
        ts = _time_grid(ts)
        if ts.size and ts[0] <= 0:
            raise ConfigError("kernel needs t > 0")
        if self.mode == "product":
            for t, cols in self._product_kernels(ts, np.array([x0], dtype=np.intp)):
                yield t, cols[:, 0]
        elif self.mode == "dense":
            for t in ts:
                yield float(t), self.kernel(t, x0)
        else:
            for t, col in self.apply_grid(self._delta(x0), ts):
                # clamp a copy: `col` may start the next group
                col = col.copy()
                self._clamp(col)
                yield t, col

    def _product_kernels(self, ts, xs):
        """Yield (t, (n, k) kernel columns p(t, xs[k], .)) for each t of `ts`.

        Column k is the outer product of the factor rows p_x(t, a_k, .) and
        p_y(t, b_k, .) of its source (a_k, b_k), and only the rows of
        distinct factor sources are formed (`_factor_rows`), a chunk of
        times at a time; no factor kernel matrix is formed.
        """
        (_, tx, bx), (_, ty, by) = self._factors
        a, b = np.divmod(xs, by.shape[0])
        ua, ia = np.unique(a, return_inverse=True)
        ub, ib = np.unique(b, return_inverse=True)
        per_time = max(ua.size * bx.size, ub.size * by.size)
        nt = max(1, _ROW_BLOCK // per_time)
        for i in range(0, ts.size, nt):
            rx = _factor_rows(tx, bx, ts[i:i + nt], ua)
            ry = _factor_rows(ty, by, ts[i:i + nt], ub)
            for k, t in enumerate(ts[i:i + nt]):
                # entry (u, v) of column s is rx[k, a_s, u] ry[k, b_s, v]
                cols = rx[k, ia].T[:, None] * ry[k, ib].T[None, :]
                yield float(t), cols.reshape(self.space.n, xs.size)

    def _delta(self, xs) -> np.ndarray:
        """The fields 1_{x}/mu_x (whose T_t is p(t, x, .)), (n,) or (n, k)."""
        xs = np.asarray(xs, dtype=np.intp)
        e = np.zeros((self.space.n, xs.size))
        e[xs.ravel(), np.arange(xs.size)] = 1.0 / self.space.mu[xs.ravel()]
        return e.reshape((self.space.n,) + xs.shape)

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
    # ball masses mu(B(x, sqrt t)) for every time: one sort per source
    sqrt_t = np.sqrt(t_grid)
    ball = [_ball_masses(space.distances_from(x), space.mu, sqrt_t) for x in xs]
    logs, zs = [], []
    for i, t in enumerate(t_grid):
        cols = H.kernel(t, xs)                  # column k: p(t, xs[k], .)
        for x, y, d in pairs:
            p = float(cols[y, xpos[x]])
            if p <= 0:
                raise NumericalError(f"nonpositive kernel value at t={t}, pair=({x},{y})")
            mb = ball[xpos[x]][i]
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


def _annulus_energy(space: MetricMeasureSpace, annulus):
    """The map f -> \\int_annulus Gamma(f, f) dmu, on the edges touching it.

    Since mu_i Gamma(f)(i) = 1/2 sum_{e at i} c_e (f_j - f_i)^2 (the identity
    `carre_du_champ` encodes), the integral is 1/2 sum_e c_e (f_j - f_i)^2
    times the number of endpoints of e in the annulus.  The edge weights are
    set up once.
    """
    inside = np.zeros(space.n, dtype=bool)
    inside[annulus] = True
    ends = inside[space.edge_i].astype(float) + inside[space.edge_j]
    touch = np.flatnonzero(ends)
    ei, ej = space.edge_i[touch], space.edge_j[touch]
    weight = 0.5 * space.edge_c[touch] * ends[touch]

    def energy(f) -> float:
        df = f[ej] - f[ei]
        return float(weight @ (df * df))

    return energy


def check_heat_caccioppoli(H: HeatOperator, x: int, R: float, s: float,
                           c: float = 0.25) -> Measurement:
    """Annulus gradient energy of the kernel against its decay envelope.

        \\int_0^s \\int_{B(x,2R)\\B(x,R)} Gamma_y(p(t,x,.)) dmu dt
              <= C mu(B(x,R))^-1 exp(-c R^2 / s)

    The left side uses the adaptive log-time quadrature; the smallest C is
    fitted at the decay rate c.  The report also carries a small Pareto scan
    of (c, C(c)) pairs.
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

    energy = _annulus_energy(space, annulus)

    def eval_batch(ts):
        return [energy(col) for _, col in H.kernel_grid(x, ts)]

    e0_field = np.zeros(space.n)
    e0_field[x] = 1.0 / space.mu[x]
    zero_limit = energy(e0_field)

    lhs, info = log_time_quadrature(eval_batch, 0.0, s, zero_limit=zero_limit)
    require_converged(info, 0.0, s)
    unit = np.exp(-c * R * R / s) / inner.measure
    C = lhs / unit
    pareto = []
    for ck in np.geomspace(c / 8, 8 * c, 13):
        pareto.append((float(ck), float(lhs / (np.exp(-ck * R * R / s) / inner.measure))))
    return Measurement(
        name="heat_caccioppoli", lhs=float(lhs), rhs=float(unit),
        constant=float(C),
        extras={"c": float(c), "s": float(s), "R": float(R),
                "annulus_size": int(annulus.size),
                "ball_mass": float(inner.measure),
                "quadrature": info, "pareto": pareto})
