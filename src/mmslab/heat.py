"""Heat semigroup T_t = e^{tA} on a weighted graph, and its kernel checks.

Three realizations, chosen from the structure of the space, on two code
paths:

* spectral, for the dense and the product realization.  A Cartesian
  product X x Y (`space.factors`) with the product measure has the
  generator A_x (+) A_y, so T_t = T_t^x (x) T_t^y and its eigenfields are
  the products of the factors' (Bakry, Gentil and Ledoux, Analysis and
  Geometry of Markov Diffusion Operators, 2014, 1.15); a dense space is
  the product with one factor.  Each factor keeps its eigendecomposition
  (`space.laplacian_spectrum`).  A dense space's stack is weighted by mu,
  taken to coefficients by basis^T and brought back by basis e^{-theta t},
  one BLAS product each.  A product works column by column (fast
  diagonalization: Lynch, Rice and Thomas, Numer. Math. 6, 1964): column c
  of the stack is an (nx, ny) matrix F_c, its coefficients are
  (bx mu_x)^T F_c (by mu_y), stored column first as one (k, nx, ny) array,
  and each time is one batched product along x over the k columns and one
  plain (k nx, ny) product along y, keeping only the modes with
  theta t <= `MODE_CUT` on each axis.  Nothing of size n x n and no
  transposed copy is formed; a column-major stack is read in place, and
  each (n, k) output is a column-major (Fortran-ordered) view.  Kernel
  columns keep two routes, by factor count.  On a product a column
  p(t, (a, b), .) is the outer product of two factor rows, each summed in
  one fixed order so that kernels are exactly symmetric; only the rows the
  sources need are formed, for a whole time grid in chunks of about 1 MB
  of temporaries.  On a dense space a column is the BLAS product
  basis (e^{-theta t} basis[x0])^T: fixed-order rows of a single factor
  took 45 times as long for 25 columns at 8 times on a 2401-vertex grid.
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

Every action is one time of `apply_grid` and every kernel column one time
of `kernel_grid`; these two are the only methods that branch on the
realization.  The layout of an action's output is the realization's: a
product's is column-major, the others' row-major.

The spectra come from numpy's LAPACK (`numpy.linalg.eigh`, divide and
conquer), the library whose BLAS then applies them.  numpy and scipy each
ship their own OpenBLAS with its own busy-waiting thread pool, so an
eigendecomposition through scipy between numpy products leaves one pool
spinning on the cores the other needs; divide and conquer also gives
eigenvectors that are orthonormal to a few ulp, where scipy's default MRRR
left errors of 2.7e-13 on the sqrt|x| factors at h = 1/64 (Demmel, Marques,
Parlett and Voemel, SIAM J. Sci. Comput. 30, 2008).  An `mmslab run` task
runs on one BLAS thread.  The eigendecompositions and the BLAS sweeps of
`apply_grid` and of dense `kernel_grid` step back out to the count the task
found (`blas.spectral`) for the life of a sweep, not around each product,
when the scope's largest call reaches `blas.PARALLEL_WORK` = 2^25
multiply-adds: n^3 for the largest factor's eigendecomposition, n k n_y
for a product sweep of k fields (its product along y), and n^2 k for a
dense sweep of k fields or k dense kernel columns.  A 48 x 48 torus's sweeps
(at most 2^23.5) stay on one thread, where the second thread saved at most
0.4 ms per call and its spin cost about 0.13 s of CPU per sweep; the
sqrt|x| sweep's blocks of 30 fields at h = 1/64 (2^25.9) and a dense build
of 2401 vertices take two.  A product's kernel rows take no BLAS call and
stay on one thread.

Kernel conventions: T_t f(x) = sum_y p(t, x, y) f(y) mu_y, with
p(t, x, y) = p(t, y, x) >= 0 and sum_y p(t, x, y) mu_y = 1 (the semigroup
is stochastically complete: T_t 1 = 1).  In every realization kernel
columns, and `apply` of a nonnegative field, are clamped at zero, so
positivity is exact; a negative value past the round-off floor raises.
`apply_batch` and `apply_grid` return their stacks unclamped.
"""

from __future__ import annotations

import functools
import os

import numpy as np
import scipy.sparse as sp

from . import blas
from .errors import ConfigError, NumericalError
# not called here any more; perfbench/tests checks that its tracer rebinds
# and restores this name in the heat namespace, until the benchmark change
# of ROADMAP item 2
from .form import carre_du_champ  # noqa: F401
from .quad import log_time_quadrature, require_converged
from .reports import GaussianFit, Measurement
from .space import (DENSE_CAP_DEFAULT, MetricMeasureSpace, _ball_masses,
                    laplacian_spectrum, metric_ball, product_pays)

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
# Product synthesis keeps the modes with theta t <= MODE_CUT on each axis: the
# rest add less than e^-45 < 2^-64 times |F|_{L2(mu)} mu_x^{-1/2} at x, the
# scale on which the full sum's round-off is a few 2^-53
# (`HeatOperator._product_synthesize`).
MODE_CUT = 45.0


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


def _group_length(size: int) -> int:
    """Times per stepping group: that many outputs of `size` doubles fit
    `_GRID_BLOCK` (at least one)."""
    return max(1, _GRID_BLOCK // max(size, 1))


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
        `space.DENSE_CAP_DEFAULT` vertices, else stepping.  The product
        realization is reached only through "auto".
    """

    def __init__(self, space: MetricMeasureSpace, mode="auto"):
        self.space = space
        n = space.n
        if mode == "auto":
            if product_pays(space.factors):
                mode = "product"
            else:
                mode = "dense" if n <= DENSE_CAP_DEFAULT else "stepping"
        elif mode not in ("dense", "stepping"):
            raise ConfigError(f"unknown heat mode {mode!r}")
        if mode == "dense" and n > DENSE_CAP_DEFAULT:
            raise ConfigError(
                f"dense mode capped at {DENSE_CAP_DEFAULT} vertices (space has {n})")
        self.mode = mode
        # [(theta, basis)] per factor, theta the eigenvalues of -A clipped at
        # 0 and basis the mu-orthonormal eigenfields; a dense space is one
        # factor
        self._factors = self._weighted = self._X2 = self._lam = None
        self._pool = None

        if mode == "stepping":
            # -A = M^-1 B^T C B (B the edge-vertex incidence, C the edge
            # conductances) has the nonzero spectrum of the edge matrix
            # B M^-1 B^T C, whose row {i, j} has absolute sum D_i + D_j with
            # D = degree/mu; so the spectrum of -A lies in [0, lam]
            D = space.degree / space.mu
            self._lam = float(np.max(D[space.edge_i] + D[space.edge_j], initial=0.0))
        else:
            spaces = space.factors if mode == "product" else [space]
            # the work of the largest eigendecomposition, n^3
            with blas.spectral(max(X.n for X in spaces) ** 3):
                self._factors = [(np.clip(w, 0.0, None), V)
                                 for w, V in map(laplacian_spectrum, spaces)]
            if mode == "product":
                # basis^T M on a product is (bx mu_x)^T (x) (by mu_y)^T
                self._weighted = [V * X.mu[:, None]
                                  for (_, V), X in zip(self._factors, spaces)]

    # -- eigen data ----------------------------------------------------------

    @property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues 0 = theta_0 < theta_1 <= ... of -A (dense and product
        modes; a product's are the pairwise sums of its factors')."""
        if self._factors is None:
            raise ConfigError("eigenvalues need the dense-spectral or product mode")
        return np.sort(functools.reduce(
            np.add.outer, [theta for theta, _ in self._factors]).ravel())

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
        """T_t applied to one field or a (n, k) stack of fields (unclamped):
        one time of `apply_grid`."""
        F = np.asarray(F, dtype=float)
        if t < 0:
            raise ConfigError("negative time")
        if t == 0:
            return F.copy()
        return next(self.apply_grid(F, [t]))[1]

    def apply_grid(self, F, ts):
        """Yield (t, T_t F) for an ascending nonnegative time grid.

        The spectral modes take the coefficients of F once and synthesize
        each time from them; a product yields each (n, k) output as a
        column-major (Fortran-ordered) view and reads a column-major F
        without copying it.  Stepping mode splits the grid into consecutive
        groups whose outputs fit `_GRID_BLOCK` doubles and runs one
        Chebyshev recurrence per group, from the previous group's last
        output.  That output is the start of the next group, so callers
        must not modify a yielded array in place.  Neither path holds F
        past its coefficients or its first group, so a caller that drops F
        frees it then.
        """
        ts = _time_grid(ts)
        F = np.asarray(F, dtype=float)
        if self.mode == "stepping":
            per_group = _group_length(F.size)
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
        elif self.mode == "product":
            shape = F.shape
            # the largest call is the (k nx, ny) x (ny, ny) product along y
            with blas.spectral(F.size * self._weighted[1].shape[0]):
                coeff, F = self._product_coefficients(F), None
                for t in ts:
                    yield float(t), self._product_synthesize(coeff, t).reshape(shape)
        else:
            ((theta, basis),) = self._factors
            shape = F.shape
            with blas.spectral(F.size * self.space.n):
                coeff, F = basis.T @ (self.space.mu[:, None] * F.reshape(self.space.n, -1)), None
                for t in ts:
                    # the diagonal goes on the smaller operand: scaling the
                    # other took 2.2 times as long for a 16-time grid of 60
                    # columns on a 2401-vertex grid
                    scale = np.exp(-theta * t)
                    if basis.size < coeff.size:
                        out = (basis * scale) @ coeff
                    else:
                        out = basis @ (scale[:, None] * coeff)
                    yield float(t), out.reshape(shape)

    def _product_coefficients(self, F) -> np.ndarray:
        """Spectral coefficients of a field or (n, k) stack on X x Y, column
        first: C[c] = (bx mu_x)^T F_c (by mu_y), with F_c the (nx, ny) matrix
        of column c, as one (k, nx, ny) array.

        A column-major stack is read in place; any other is copied once into
        that layout.
        """
        wx, wy = self._weighted
        nx, ny = wx.shape[0], wy.shape[0]
        cols = np.ascontiguousarray(F.reshape(nx * ny, -1).T)
        along_y = cols.reshape(-1, ny) @ wy
        del cols
        return np.matmul(wx.T, along_y.reshape(-1, nx, ny))

    def _product_synthesize(self, C, t: float) -> np.ndarray:
        """The (n, k) fields bx e^{-theta_x t} C[c] (by e^{-theta_y t})^T of
        column-first coefficients, as a column-major view.

        One batched product of the x factor over the k columns, then one
        plain (k nx, ky) x (ky, ny) product along y; nothing of size n x n
        and no transposed copy is formed.

        Only the modes with theta t <= `MODE_CUT` on each axis are kept.  The
        bases are mu-orthonormal, so sum_k phi_k(x)^2 = 1/mu_x and the
        coefficients of F have l2 norm |F|_{L2(mu)}; a product mode dropped
        on either axis has e^{-(theta_a + theta_b) t} <= e^{-MODE_CUT}, so by
        Cauchy-Schwarz the dropped modes add at most
        e^{-MODE_CUT} |F|_{L2(mu)} mu_x^{-1/2} at x.  The round-off of the full
        sum is a modest multiple of 2^-53 on the same scale, and e^-45 is
        below 2^-64: the cut changes nothing the arithmetic could resolve.
        theta is ascending, so the kept modes are a leading slice.
        """
        (tx, bx), (ty, by) = self._factors
        kx = int(np.searchsorted(tx * t, MODE_CUT, side="right"))
        ky = int(np.searchsorted(ty * t, MODE_CUT, side="right"))
        along_x = np.matmul(bx[:, :kx] * np.exp(-tx[:kx] * t), C[:, :kx, :ky])
        out = along_x.reshape(-1, ky) @ (by[:, :ky] * np.exp(-ty[:ky] * t)).T
        return out.reshape(C.shape[0], -1).T

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
        # the CPUs this process may run on, where the platform says
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
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

    # -- kernel ---------------------------------------------------------------

    def kernel_matrix(self, t: float) -> np.ndarray:
        """Full kernel matrix, column x = p(t, x, .) (dense mode, clamped at 0)."""
        if self.mode != "dense":
            raise ConfigError("kernel matrices require dense-spectral mode")
        return self.kernel(t, np.arange(self.space.n))

    def kernel(self, t: float, x0) -> np.ndarray:
        """Kernel column p(t, x0, .) as a field, or the (n, k) columns of a
        1-d array of k sources: one time of `kernel_grid`."""
        return next(self.kernel_grid(x0, [t]))[1]

    def kernel_grid(self, x0, ts):
        """Yield (t, p(t, x0, .)) along an ascending positive time grid, for
        one source or the (n, k) columns of a 1-d array of k sources."""
        ts = _time_grid(ts)
        if ts.size and ts[0] <= 0:
            raise ConfigError("kernel needs t > 0")
        xs = np.asarray(x0, dtype=np.intp)
        if self.mode == "stepping":
            per_group = _group_length(self.space.n * xs.size)
            for i, (t, cols) in enumerate(self.apply_grid(self._delta(xs), ts)):
                if i % per_group == per_group - 1 and i < ts.size - 1:
                    # clamp a copy: a group's last output starts the next group
                    cols = cols.copy()
                self._clamp(cols)
                yield t, cols
        elif self.mode == "product":
            for t, cols in self._product_kernels(ts, xs.ravel()):
                yield t, cols.reshape((self.space.n,) + xs.shape)
        else:
            ((theta, basis),) = self._factors
            rows = basis[xs]
            with blas.spectral(xs.size * basis.size):
                for t in ts:
                    cols = basis @ (np.exp(-theta * t) * rows).T
                    self._clamp(cols)
                    yield float(t), cols

    def _product_kernels(self, ts, xs):
        """Yield (t, (n, k) kernel columns p(t, xs[k], .)) for each t of `ts`.

        Column k is the outer product of the factor rows p_x(t, a_k, .) and
        p_y(t, b_k, .) of its source (a_k, b_k), and only the rows of
        distinct factor sources are formed (`_factor_rows`), a chunk of
        times at a time; no factor kernel matrix is formed.
        """
        (tx, bx), (ty, by) = self._factors
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

    @staticmethod
    def _clamp(arr, rel=1e-10):
        floor = -rel * max(float(np.max(arr)), 1e-300)
        if float(np.min(arr)) < floor:
            raise NumericalError(
                f"kernel entry {float(np.min(arr)):.3e} below round-off floor "
                f"{floor:.3e}: broken semigroup")
        np.clip(arr, 0.0, None, out=arr)


def build_heat(space: MetricMeasureSpace, mode="auto") -> HeatOperator:
    """Construct the heat semigroup realization for a space.

    Kept as a public name because the benchmark's heat oracle
    (`perfbench/gate.py`) imports it, so deleting it needs a benchmark
    change.
    """
    return HeatOperator(space, mode=mode)


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
    # one kernel grid over the sorted times, each sample stored in its row
    # of the given grid
    order = np.argsort(t_grid, kind="stable")
    yv = np.empty((t_grid.size, len(pairs)))
    z = np.empty_like(yv)
    for i, (t, cols) in zip(order, H.kernel_grid(xs, t_grid[order])):
        for j, (x, y, d) in enumerate(pairs):   # column k: p(t, xs[k], .)
            p = float(cols[y, xpos[x]])
            if p <= 0:
                raise NumericalError(f"nonpositive kernel value at t={t}, pair=({x},{y})")
            yv[i, j] = np.log(p) + np.log(ball[xpos[x]][i])
            z[i, j] = d * d / t
    yv = yv.ravel()
    z = z.ravel()

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
