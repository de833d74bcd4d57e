"""Heat semigroup T_t = e^{tA} on a weighted graph, and its kernel checks.

Three realizations, chosen from the structure of the space, on two code
paths:

* spectral, for the dense and the product realization.  A Cartesian
  product X x Y (`space.factors`) with the product measure has the
  generator A_x (+) A_y, so T_t = T_t^x (x) T_t^y and its eigenfields are
  the products of the factors' (Bakry, Gentil and Ledoux, Analysis and
  Geometry of Markov Diffusion Operators, 2014, 1.15).  A dense space is
  the product of one vertex (theta = [0], basis [[1]], mu = [1]) and
  itself, so both realizations share one path.  Each factor keeps its
  eigendecomposition (`space.laplacian_spectrum`), and one factor object
  passed twice (a square product) is decomposed once.  The path works column
  by column (fast diagonalization: Lynch, Rice and Thomas, Numer. Math. 6,
  1964): column c of the stack is an (nx, ny) matrix F_c, its coefficients
  are (bx mu_x)^T F_c (by mu_y), stored column first as one (k, nx, ny)
  array, and each time is, per block of w columns, one batched product
  along x over the w columns and one plain (w nx, ky) x (ky, ny) product
  along y, keeping only the modes with theta t <= `MODE_CUT` on each axis
  and putting e^{-theta_y t} on the smaller operand of the second
  product.  Nothing of size n x n beyond a dense basis and no transposed
  copy is formed; a column-major stack is read in place, and each (n, k)
  output is a column-major (Fortran-ordered) view of one (k, n) buffer
  that the blocks write into.
* stepping: for other spaces past `DENSE_CAP`, a Chebyshev expansion of
  e^{tA} in the shifted generator X = (2/lam)(-A) - I, whose spectrum lies
  in [-1, 1] for the edge-wise bound lam = max over edges {i, j} of
  D_i + D_j, D = degree/mu (Anderson and Morley).  The Bessel coefficients
  are cut where their tail drops below 2^-60 (never silently: a tail that
  stays above raises), so an action costs O(sqrt(lam_max t)) sparse
  matvecs.  One three-term recurrence serves several times (Tal-Ezer and
  Kosloff): it runs to the largest increment, and every five terms it adds
  them into the output of each time whose series still runs, by one
  fixed-shape product of that time's coefficients, so each output has the
  bits of its own recurrence.  Time grids are swept in consecutive groups
  whose outputs fit about 4 MB, one recurrence per group, each group
  starting from the previous group's last output, which is yielded
  read-only; `grid_columns` tells a caller how many columns keep a whole
  grid in one group.

Both paths cut the stack into blocks of `_COLUMN_BLOCK // n` columns
(about 512 KB) and deal them round-robin to the calling thread and up to
one worker thread per further CPU (`_deal`).  Every deal runs inside one
`blas.threads(1)` scope, inside an `mmslab run` task or not, and the scope
closes before `_deal` returns, so none stays open across a yield.  A block
does the same arithmetic on any thread at one BLAS thread, so the bits
depend neither on the worker count nor on the BLAS thread count the caller
runs at.  These workers are the package's one parallel mechanism (README,
"One thread pool for every heat sweep").

Every action is one time of `apply_grid` and every kernel column one time
of `kernel_grid`.  Those two, and `kernel_pairs`, which reads kernel values
at sampled pairs, branch on the realization, between stepping and the
spectral path.  A stepping kernel column is the clamped action on
1_x/mu_x (clamped on a copy where the output is read-only).  A spectral
one comes from the factor kernels, p(t, (a, b), (c, d)) =
p^X(t, a, c) p^Y(t, b, d), with p^X = 1 on a dense space: per time each
factor makes one table (one for both axes of a square product), a row of
one clamped product of fixed shape per distinct factor coordinate of the
sources, and a column or a pair value is a product of table entries, so
its bits depend on its source and t only.  One time's tables are freed
before the next time's are made.  No delta field or coefficient set is
formed for a kernel.  The layout of an action's or a kernel grid's output
is the path's: a spectral one is column-major, a stepping one row-major.

The spectra come from numpy's LAPACK (`numpy.linalg.eigh`, divide and
conquer), the library whose BLAS then applies them.  numpy and scipy each
ship their own OpenBLAS with its own busy-waiting thread pool, so an
eigendecomposition through scipy between numpy products leaves one pool
spinning on the cores the other needs; divide and conquer also gives
eigenvectors that are orthonormal to a few ulp, where scipy's default MRRR
left errors of 2.7e-13 on the sqrt|x| factors at h = 1/64 (Demmel, Marques,
Parlett and Voemel, SIAM J. Sci. Comput. 30, 2008).  A build runs them one
after the other on the calling thread, inside one `blas.threads(1)` scope
whether in a task or not, so one LAPACK workspace (about 2n^2 doubles for n
vertices) is live at a time.  The dense realization, forced or not, stops
at `DENSE_CAP` vertices; a product factor may have up to `space.FACTOR_CAP`.
Past the dense cap, stepping is cross-checked against scipy's
`expm_multiply` in the tests.

Kernel conventions: T_t f(x) = sum_y p(t, x, y) f(y) mu_y, with
p(t, x, y) = p(t, y, x) >= 0 and sum_y p(t, x, y) mu_y = 1 (the semigroup
is stochastically complete: T_t 1 = 1); in floating point the symmetry and
the mass hold to round-off.  In every realization kernel columns (on the
spectral path, their factor columns), and `apply` of a nonnegative field,
are clamped at zero, so positivity is exact; a negative value past the
round-off floor raises.
`apply_batch` and `apply_grid` return their stacks unclamped.
"""

from __future__ import annotations

import os

import numpy as np

from . import blas
from .errors import ConfigError, NumericalError
# not called here any more; perfbench/tests checks that its tracer rebinds
# and restores this name in the heat namespace, until the benchmark change
# of ROADMAP item 1
from .form import carre_du_champ  # noqa: F401
from .quad import log_time_quadrature
from .reports import GaussianFit, Measurement
from .space import (MetricMeasureSpace, _ball_masses, laplacian_spectrum,
                    product_pays)

# The Chebyshev series stops where the tail sum of |c_k| (the whole sum is 1)
# drops below this.
CHEB_TAIL = 2.0 ** -60
# Columns per block of a heat sweep: about 2**16 doubles (512 KB).
_COLUMN_BLOCK = 2 ** 16
# The dense realization stops at this many vertices, forced or not: "auto"
# realizes a space that `product_pays` turns down densely up to here and by
# stepping above.  Past about 1000 vertices a dense build costs more than a
# stepping task (tabulated h = 1/20, n = 1681: curvature task 1.05 s dense
# against 0.48 s stepping, 2 cores), and its LAPACK workspace of about 2n^2
# doubles grows past 16 MB.
DENSE_CAP = 1024
# Outputs of one stepping recurrence over a time grid: about 2**19 doubles
# (4 MB), or a single output when that alone is larger.
_GRID_BLOCK = 2 ** 19
# A stepping column block adds its Chebyshev terms into the outputs this many
# at a time, from a ring whose rows are zero-padded to a multiple of `_PAD`
# doubles: BLAS takes a vector's tail, past its last multiple of 4 to 16
# doubles, by other instructions, which round differently.  A ring of eight
# terms was faster, but holds more than a sweep's memory bound allows.
_FOLD = 5
_PAD = 64
# Product synthesis keeps the modes with theta t <= MODE_CUT on each axis: the
# rest add less than e^-45 < 2^-64 times |F|_{L2(mu)} mu_x^{-1/2} at x, the
# scale on which the full sum's round-off is a few 2^-53
# (`HeatOperator._synthesize`).
MODE_CUT = 45.0
# `check_gaussian` leaves out a kernel value at or below this fraction of its
# column's maximum, about 4500 units in the last place of that maximum: a
# spectral value is the product of two factor kernel values, each a sum
# that returns round-off of its own maximum far from its source, so there
# the product is round-off, not the kernel (a pair 31 steps apart on torus
# 128^2 at t = 4 has p of about 2e-18 against a maximum of about 0.02).
# The floor is the one the full spectral synthesis needed, and it leaves
# out the same samples on the torus 128^2 and grid h = 1/64 tasks.
GAUSSIAN_FLOOR = 1e-12


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


def _time_grid(ts) -> np.ndarray:
    ts = np.asarray(ts, dtype=float)
    if ts.size and (np.any(np.diff(ts) < 0) or ts[0] < 0):
        raise ConfigError("time grid must be ascending and nonnegative")
    return ts


def _kernel_times(ts) -> np.ndarray:
    ts = _time_grid(ts)
    if ts.size and ts[0] <= 0:
        raise ConfigError("kernel needs t > 0")
    return ts


class HeatOperator:
    """Heat semigroup of the graph generator A = (W - D)/mu.

    Parameters
    ----------
    space : MetricMeasureSpace
    mode : {"auto", "dense", "stepping"}
        "auto" picks product on a Cartesian-product space whose factors fit
        `space.FACTOR_CAP` and are no more than `space.PRODUCT_MAX_ASPECT`
        times apart in size (`space.product_pays`), else dense-spectral up
        to `DENSE_CAP` vertices, else stepping.  "dense" has the same cap:
        past it, a `ConfigError` names the cap and n before any
        eigendecomposition starts.  The product realization is reached only
        through "auto".  A dense space is realized as the product of one
        vertex and itself, so dense and product share one spectral path.
        The build decomposes the two factors one after the other on the
        calling thread at one BLAS thread, and a factor passed twice (a
        square product) once.
    """

    def __init__(self, space: MetricMeasureSpace, mode="auto"):
        self.space = space
        n = space.n
        if mode == "auto":
            if product_pays(space.factors):
                mode = "product"
            else:
                mode = "dense" if n <= DENSE_CAP else "stepping"
        elif mode not in ("dense", "stepping"):
            raise ConfigError(f"unknown heat mode {mode!r}")
        if mode == "dense" and n > DENSE_CAP:
            raise ConfigError(
                f"dense mode capped at {DENSE_CAP} vertices (space has {n})")
        self.mode = mode
        # [(theta, basis)] per factor, theta the eigenvalues of -A clipped at
        # 0 and basis the mu-orthonormal eigenfields
        self._factors = self._weighted = self._X2 = self._lam = None
        self._pool = None
        # the last stepping sweep's Chebyshev coefficients, by increment
        self._series = {}

        if mode == "stepping":
            # -A = M^-1 B^T C B (B the edge-vertex incidence, C the edge
            # conductances) has the nonzero spectrum of the edge matrix
            # B M^-1 B^T C, whose row {i, j} has absolute sum D_i + D_j with
            # D = degree/mu; so the spectrum of -A lies in [0, lam]
            D = space.degree / space.mu
            self._lam = float(np.max(D[space.edge_i] + D[space.edge_j], initial=0.0))
        else:
            # a dense space is the product of one vertex (theta = [0], basis
            # [[1]], mu = [1]) and itself
            spaces = (space.factors if mode == "product"
                      else (MetricMeasureSpace([1.0], []), space))
            # one factor after the other on this thread, so that one LAPACK
            # workspace is live at a time; a factor passed twice (a square
            # product) is decomposed once, and its arrays are shared
            done = {}
            with blas.threads(1):
                for X in spaces:
                    if id(X) not in done:
                        w, V = laplacian_spectrum(X)
                        # basis^T M on a product is (bx mu_x)^T (x) (by mu_y)^T
                        done[id(X)] = (np.clip(w, 0.0, None), V), V * X.mu[:, None]
            self._factors, self._weighted = zip(*(done[id(X)] for X in spaces))

    # -- eigen data ----------------------------------------------------------

    @property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues 0 = theta_0 < theta_1 <= ... of -A (dense and product
        modes): the pairwise sums of the factors'."""
        if self._factors is None:
            raise ConfigError("eigenvalues need the dense-spectral or product mode")
        (tx, _), (ty, _) = self._factors
        return np.sort(np.add.outer(tx, ty).ravel())

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

        The spectral path takes the coefficients of F once and synthesizes
        each time from them, in the column blocks of the module docstring,
        dealt by `_deal` on one BLAS thread; each block writes its columns
        of one (k, n) buffer per time, yielded as the (n, k) column-major
        (Fortran-ordered) view.  Every deal, stepping or spectral, ends
        before the time it computes is yielded, so the caller's BLAS thread
        counts are its own between yields.  A column-major F is read
        without copying it.  Stepping mode splits the grid into consecutive
        groups whose outputs fit `_GRID_BLOCK` doubles and runs one
        Chebyshev recurrence per group, from the previous group's last
        output.  That output starts the next group, so it is yielded
        read-only (writing to it raises ValueError).  Neither path holds F
        past its coefficients or its first group, so a caller that drops F
        frees it then.
        """
        ts = _time_grid(ts)
        F = np.asarray(F, dtype=float)
        if self.mode == "stepping":
            per_group = max(1, _GRID_BLOCK // max(F.size, 1))
            cur, F, t_start = F, None, 0.0
            for i in range(0, ts.size, per_group):
                group = ts[i:i + per_group]
                outs = self._chebyshev_sweep(cur, group - t_start)
                # hand the outputs out one at a time, keeping no other
                # reference; the last one starts the next group, read-only
                for t in group:
                    cur = outs.pop(0)
                    if not outs and i + per_group < ts.size:
                        cur.flags.writeable = False
                    yield float(t), cur
                t_start = group[-1]
        else:
            n = self.space.n
            shape, cols, F = F.shape, F.reshape(n, -1), None
            k = cols.shape[1]
            w = max(1, _COLUMN_BLOCK // n)
            parts = [slice(j, j + w) for j in range(0, k, w)]
            C = np.empty((k,) + tuple(wt.shape[0] for wt in self._weighted))
            self._deal(lambda p: self._coefficients(cols[:, p], C[p]), parts)
            cols = None
            for t in ts:
                rows = np.empty((k, n))
                self._deal(lambda p: self._synthesize(C[p], t, rows[p]), parts)
                yield float(t), rows.T.reshape(shape)
                # a caller that drops this output frees it before the next
                del rows

    def grid_columns(self, times: int) -> int:
        """How many columns (at least one) a sweep over `times` times may
        take while the stack-sized arrays it holds fit `_GRID_BLOCK`
        doubles together.

        The spectral path holds three: the stack, its coefficients and one
        output.  Stepping holds a group's outputs at once, one per time, and
        answers for the whole grid in one group, one recurrence.
        """
        per_column = self.space.n * (times if self.mode == "stepping" else 3)
        return max(1, _GRID_BLOCK // per_column)

    def _coefficients(self, F, out=None) -> np.ndarray:
        """Spectral coefficients of a field or (n, k) stack on X x Y (on a
        dense space, one vertex times the space), column first:
        C[c] = (bx mu_x)^T F_c (by mu_y), with F_c the (nx, ny) matrix of
        column c, as one (k, nx, ny) array (into `out` when given).

        A column-major stack is read in place; any other is copied once into
        that layout.
        """
        wx, wy = self._weighted
        nx, ny = wx.shape[0], wy.shape[0]
        cols = np.ascontiguousarray(F.reshape(nx * ny, -1).T)
        along_y = cols.reshape(-1, ny) @ wy
        del cols
        return np.matmul(wx.T, along_y.reshape(-1, nx, along_y.shape[1]), out=out)

    def _synthesize(self, C, t: float, out):
        """Write the fields bx e^{-theta_x t} C[c] (by e^{-theta_y t})^T of
        a block of w column-first coefficients into `out`, a (w, n) array of
        unit stride along a row.

        One batched product of the x factor over the w columns, then one
        plain (w nx, ky) x (ky, ny) product along y written straight into
        `out`, with e^{-theta_y t} on its smaller operand; nothing of size
        n x n and no transposed copy is formed.

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
        along_x = np.matmul(bx[:, :kx] * np.exp(-tx[:kx] * t),
                            C[:, :kx, :ky]).reshape(-1, ky)
        scale = np.exp(-ty[:ky] * t)
        by = by[:, :ky]
        rows = out.reshape(along_x.shape[0], -1)        # a view: (w nx, ny)
        # the diagonal goes on the smaller operand, the w nx rows of along_x
        # or the ny rows of by: on a 2401-vertex dense space (nx = 1),
        # scaling the basis took 2-3 times as long for a 16-time grid of 60
        # columns, and 8 times for a heat-Caccioppoli quadrature (one kernel
        # column per node)
        if along_x.shape[0] < by.shape[0]:
            np.matmul(along_x * scale, by.T, out=rows)
        else:
            np.matmul(along_x, (by * scale).T, out=rows)

    def _shifted_generator(self):
        """2X = 2((2/lam)(-A) - I) in CSR, built on first use."""
        if self._X2 is None:
            import scipy.sparse as sp
            space = self.space
            minus_A = sp.diags(1.0 / space.mu) @ (sp.diags(space.degree)
                                                   - space.conductance_matrix)
            self._X2 = sp.csr_matrix(2.0 * ((2.0 / self._lam) * minus_A
                                           - sp.identity(space.n)))
        return self._X2

    def _block_workers(self, blocks: int):
        """(executor, count): `count` = min(CPUs - 1, blocks - 1) worker
        threads to share `blocks` blocks with the calling thread, or
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
        round-off.  The recurrence runs on column blocks of about
        `_COLUMN_BLOCK` doubles, dealt by `_deal` (sparse products and BLAS
        release the GIL).  A block keeps its last `_FOLD` terms in a ring,
        each row zero-padded to a multiple of `_PAD` doubles, and every
        `_FOLD` terms adds the ring into the output of each increment whose
        series still runs, by one (`_FOLD`,) x (`_FOLD`, padded) product of
        that increment's coefficients, zero past its own tail.  The padding
        puts every element through the same BLAS instructions whatever the
        block's size, and each increment's series is cut at its own tail
        (its Bessel coefficients are kept for the next sweep), so its output
        has the bits of a recurrence run for it alone, at any column count,
        group or thread.
        """
        X2 = self._shifted_generator()
        kept = self._series
        cs = [kept[dt] if dt in kept
              else _chebyshev_coefficients(0.5 * self._lam * dt)
              for dt in dts.tolist()]
        self._series = dict(zip(dts.tolist(), cs))
        terms = max(c.size for c in cs)
        folds = -(-terms // _FOLD)
        # C[i, q]: increment i's coefficients of the terms of fold q
        C = np.zeros((len(cs), folds * _FOLD))
        for i, c in enumerate(cs):
            C[i, :c.size] = c
        C = C.reshape(len(cs), folds, _FOLD)
        # live[q]: the increments whose series has a term in fold q
        live = [[i for i, c in enumerate(cs) if c.size > _FOLD * q]
                for q in range(folds)]
        n = self.space.n
        F2 = F.reshape(n, -1)
        outs = [np.zeros(F2.shape) for _ in cs]
        width = max(1, _COLUMN_BLOCK // n)
        starts = range(0, F2.shape[1], width)

        def block(j):
            # its temporaries die on return, before the next block starts
            into = [out[:, j:j + width] for out in outs]
            size = into[0].size
            ring = np.zeros((_FOLD, -(-size // _PAD) * _PAD))
            term = [row[:size].reshape(n, -1) for row in ring]
            fold = np.empty(ring.shape[1])
            folded = fold[:size].reshape(n, -1)
            term[0][...] = F2[:, j:j + width]
            for q, series in enumerate(live):
                for k in range(max(1, _FOLD * q), min(_FOLD * (q + 1), terms)):
                    if k == 1:
                        np.multiply(X2 @ term[0], 0.5, out=term[1])
                    else:
                        np.subtract(X2 @ term[(k - 1) % _FOLD],
                                    term[(k - 2) % _FOLD], out=term[k % _FOLD])
                for i in series:
                    np.dot(C[i, q], ring, out=fold)
                    into[i] += folded

        self._deal(block, starts)
        return [out.reshape(F.shape) for out in outs]

    def _deal(self, block, parts):
        """block(p) for every p in `parts`, dealt round-robin to the
        calling thread and `_block_workers` threads, with every OpenBLAS
        runtime on one thread (`blas.threads(1)`): the column blocks of a
        spectral or stepping sweep, never an eigendecomposition.

        A block's arithmetic does not depend on the thread that runs it, so
        the results are the same bits with or without workers, and at any
        BLAS thread count the caller started at.  Every worker's share is
        finished, and its exception raised, before the scope closes and the
        caller's counts come back.
        """
        pool, count = self._block_workers(len(parts))

        def run(share):
            for p in share:
                block(p)

        with blas.threads(1):
            futures = [pool.submit(run, parts[i::count + 1])
                       for i in range(1, count + 1)]
            try:
                run(parts[::count + 1])
            finally:
                for fut in futures:
                    fut.result()

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
        one source or the (n, k) columns of a 1-d array of k sources.

        Stepping clamps each action of `apply_grid` on the fields 1_x/mu_x
        in place, or on a copy where it is read-only (a stepping group's
        start).  The spectral path takes every column from the factor
        kernels, p(t, (a, b), (c, d)) = p^X(t, a, c) p^Y(t, b, d): per time,
        one broadcast product of the sources' rows of the factor tables
        (`_factor_kernels`) into a (k, nx, ny) array, yielded as its (n, k)
        column-major view.  A column's bits depend on its source and t
        only, not on the other sources asked with it.
        """
        ts = _kernel_times(ts)
        if self.mode == "stepping":
            for t, cols in self.apply_grid(self._delta(x0), ts):
                cols = cols if cols.flags.writeable else cols.copy()
                self._clamp(cols)
                yield t, cols
            return
        xs = np.asarray(x0, dtype=np.intp)
        groups = self._factor_groups(xs.ravel())
        shape = (self.space.n,) + xs.shape
        for t in ts:
            (KX, ix), (KY, iy) = self._factor_kernels(groups, t)
            # the tables go before the (k, nx, ny) product is made
            px, py = KX[ix][:, :, None], KY[iy][:, None, :]
            del KX, KY
            rows = px * py
            del px, py
            yield float(t), rows.reshape(xs.size, -1).T.reshape(shape)
            # a caller that drops this output frees it before the next
            del rows

    def kernel_pairs(self, xs, ys, ts):
        """Yield (t, values, maxima) along an ascending positive time grid,
        for 1-d arrays of sources `xs` and targets `ys`: values[j] =
        p(t, xs[j], ys[j]) and maxima[j] the maximum of the column
        p(t, xs[j], .), each bit-equal to the `kernel_grid` column of xs[j]
        read there.

        Stepping reads them off the `kernel_grid` columns of the distinct
        sources.  The spectral path reads the factor tables of
        `_factor_kernels` (one shared table on a square product): a value
        is the product of the two factor values, and a maximum the product
        of the two factor maxima, exact because both factors are >= 0 and
        rounding is monotone.  It holds the tables of one time at a time,
        (distinct factor coordinates of xs) x (factor size) doubles each:
        at most n on a square product, but n per distinct source on a
        dense space.
        """
        xs = np.asarray(xs, dtype=np.intp)
        ys = np.asarray(ys, dtype=np.intp)
        if self.mode == "stepping":
            sources, inv = np.unique(xs, return_inverse=True)
            for t, cols in self.kernel_grid(sources, ts):
                yield t, cols[ys, inv], np.max(cols, axis=0)[inv]
            return
        groups = self._factor_groups(xs)
        tx, ty = self._coordinates(ys)
        for t in _kernel_times(ts):
            (KX, ix), (KY, iy) = self._factor_kernels(groups, t)
            values = KX[ix, tx] * KY[iy, ty]
            maxima = np.max(KX, axis=1)[ix] * np.max(KY, axis=1)[iy]
            del KX, KY
            yield float(t), values, maxima

    def _coordinates(self, xs):
        """The factor coordinates (a, b) of vertices xs = a ny + b (on a
        dense space a = 0)."""
        return np.divmod(xs, self._factors[1][1].shape[0])

    def _factor_groups(self, xs) -> list:
        """Per factor, (coordinates, rows): the distinct factor coordinates
        of the vertices xs, ascending, and the row of each vertex among
        them.  The two axes of a square product share one list, the union
        of theirs."""
        a, b = self._coordinates(xs)
        if self._factors[0] is self._factors[1]:
            coords, rows = np.unique(np.concatenate((a, b)), return_inverse=True)
            return [(coords, rows[:a.size]), (coords, rows[a.size:])]
        return [np.unique(c, return_inverse=True) for c in (a, b)]

    def _factor_kernels(self, groups, t: float) -> list:
        """Per factor, (K, rows) for the (coordinates, rows) of `groups`
        (see `_factor_groups`): row r of the table K is the factor's kernel
        column sum_k phi_k(a) e^{-theta_k t} phi_k of the r-th coordinate a,
        over the modes with theta t <= `MODE_CUT`, clamped on its own.

        Each row is one product of fixed shape, (n_f, kept) x (kept,),
        written into its row, so its bits depend on the factor, a and t
        only.  The one-vertex factor of a dense space gives [[1.0]] exactly.
        A square product's two axes share one table.  Runs at one BLAS
        thread.
        """
        tables = []
        with blas.threads(1):
            for (theta, basis), (coords, rows) in zip(self._factors, groups):
                if tables and self._factors[0] is self._factors[1]:
                    tables.append((tables[0][0], rows))
                    continue
                kept = int(np.searchsorted(theta * t, MODE_CUT, side="right"))
                scale = np.exp(-theta[:kept] * t)
                K = np.empty((coords.size, basis.shape[0]))
                for a, row in zip(coords.tolist(), K):
                    np.matmul(basis[:, :kept], basis[a, :kept] * scale, out=row)
                    self._clamp(row)
                tables.append((K, rows))
        return tables

    def _delta(self, xs) -> np.ndarray:
        """The fields 1_{x}/mu_x (whose T_t is p(t, x, .)), (n,) or (n, k)."""
        xs = np.asarray(xs, dtype=np.intp)
        e = np.zeros((self.space.n, xs.size))
        e[xs.ravel(), np.arange(xs.size)] = 1.0 / self.space.mu[xs.ravel()]
        return e.reshape((self.space.n,) + xs.shape)

    @staticmethod
    def _clamp(arr):
        floor = -1e-10 * max(float(np.max(arr)), 1e-300)
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
    constant making both bounds hold at every kept sample (so the reported
    violation count is zero by construction and re-verified).

    Pairs are sampled with h <= d(x, y) < R, one distance row read per
    distinct source; the grid must satisfy h^2 <= t <= R^2 (below mesh
    scale the discrete kernel is not Gaussian).  The kernel is read only at
    the sampled pairs, with each source's column maximum
    (`HeatOperator.kernel_pairs`): on the spectral path a value is the
    product of two factor kernel values, read off one time's factor
    tables (on a dense space, n doubles per distinct source).  A sample,
    one (time, pair) of the len(t_grid) * `pair_sample`, whose kernel value
    is at or below `GAUSSIAN_FLOOR` times its column's maximum, is
    round-off, not a kernel value: it is left out of the fit and
    counted in `skipped`.  With no sample left the fit raises.
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
    sqrt_t = np.sqrt(t_grid)
    pairs = []
    ball = {}               # x -> mu(B(x, sqrt t)) for every time
    reach = {}              # x -> (targets y with h <= d(x, y) < R, their d)
    guard = 0
    while len(pairs) < pair_count and guard < 50 * pair_count:
        guard += 1
        x = int(rng.integers(space.n))
        if x not in reach:
            d = space.distances_from(x)
            ok = np.flatnonzero((d >= h * (1 - 1e-12)) & (d < R))
            reach[x] = ok, d[ok]
            ball[x] = _ball_masses(d, space.mu, sqrt_t)
        ok, dist = reach[x]
        if ok.size == 0:
            continue
        k = int(np.searchsorted(ok, int(rng.choice(ok))))
        pairs.append((x, int(ok[k]), float(dist[k])))
    del reach
    if not pairs:
        raise ConfigError(f"no vertex pairs with d in [h, {R})")

    # the kernel values at the pairs and their columns' maxima, over the
    # sorted times, each sample stored in its row of the given grid
    xs, ys, _ = map(np.array, zip(*pairs))
    order = np.argsort(t_grid, kind="stable")
    yv = np.empty((t_grid.size, len(pairs)))
    z = np.empty_like(yv)
    keep = np.ones(yv.shape, dtype=bool)
    for i, (t, values, maxima) in zip(order, H.kernel_pairs(xs, ys, t_grid[order])):
        floor = GAUSSIAN_FLOOR * maxima
        for j, (x, y, d) in enumerate(pairs):
            p = float(values[j])
            z[i, j] = d * d / t
            if p <= floor[j]:
                keep[i, j] = False
            else:
                yv[i, j] = np.log(p) + np.log(ball[x][i])
    yv = yv[keep]
    z = z[keep]
    if yv.size == 0:
        raise NumericalError("every kernel value of the Gaussian sample is at round-off")

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
                       pair_sample=len(pairs), skipped=int(keep.size - yv.size))


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
    # B(x, R), B(x, 2R) and B(x, 3R) off one distance row
    d = space.distances_from(x)
    inner = np.flatnonzero(d < R)
    annulus = np.flatnonzero((d >= R) & (d < 2 * R))
    if annulus.size == 0:
        raise ConfigError("empty annulus: R is below mesh scale")
    if np.count_nonzero(d < 3 * R) >= space.n:
        raise ConfigError("B(x, 3R) is not contained in the space")
    ball_mass = float(space.mu[inner].sum())

    energy = _annulus_energy(space, annulus)

    def eval_batch(ts):
        return [energy(col) for _, col in H.kernel_grid(x, ts)]

    lhs, info = log_time_quadrature(eval_batch, 0.0, s, zero_limit=energy(H._delta(x)))
    unit = np.exp(-c * R * R / s) / ball_mass
    C = lhs / unit
    pareto = []
    for ck in np.geomspace(c / 8, 8 * c, 13):
        pareto.append((float(ck), float(lhs / (np.exp(-ck * R * R / s) / ball_mass))))
    return Measurement(
        name="heat_caccioppoli", lhs=float(lhs), rhs=float(unit),
        constant=float(C),
        extras={"c": float(c), "s": float(s), "R": float(R),
                "annulus_size": int(annulus.size),
                "ball_mass": ball_mass,
                "quadrature": info, "pareto": pareto})
