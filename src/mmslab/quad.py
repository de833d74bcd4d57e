"""Adaptive time quadrature for heat-semigroup integrals.

All the time integrals in this package run against kernels that vary
fastest near t = 0, so the composite rule lives on a geometric (log-uniform)
grid.  The node count is doubled until two successive composite values agree
to a relative tolerance (Richardson-style stopping); a rule that does not
agree within `MAX_LEVELS` levels raises `NumericalError`, so no caller can
use an unconverged value.  `cumulative_log_quadrature` sums that one rule
over the pieces of a time grid.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError

BASE_PANELS = 16        # log-uniform panels of the first level
MAX_LEVELS = 7          # levels, each doubling the panels of the one before
HEAD_FRAC = 1e-6        # from a == 0, [0, b * HEAD_FRAC] is one trapezoid


def _composite_simpson(u, v):
    """Composite Simpson on uniformly spaced nodes u (odd count)."""
    h = (u[-1] - u[0]) / (u.size - 1)
    return h / 3.0 * (v[0] + v[-1] + 4.0 * v[1:-1:2].sum() + 2.0 * v[2:-1:2].sum())


def _interleave(even, odd):
    """[even[0], odd[0], even[1], ..., odd[-1], even[-1]]."""
    out = np.empty(even.size + odd.size)
    out[0::2] = even
    out[1::2] = odd
    return out


def log_time_quadrature(eval_batch, a, b, rtol=1e-6, zero_limit=None):
    """Integrate a scalar function of time over [a, b] (0 <= a < b).

    Parameters
    ----------
    eval_batch : callable
        Maps an ascending array of times to integrand values.  Called first
        with the base grid, then once per refinement level with only the new
        nodes (the midpoints of the previous grid, ascending), so every node
        is evaluated once and semigroup-stepping callers can sweep
        incrementally.
    a, b : float
        Integration bounds.  When a == 0 the integrand must have a finite
        limit at 0, supplied as `zero_limit`; the head [0, b*HEAD_FRAC] is
        then covered by a single trapezoid and the rest is log-uniform.
    rtol : float
        Relative stopping tolerance on the change between refinement levels.
    zero_limit : float, optional
        Integrand value at t = 0 (required when a == 0).

    Returns
    -------
    value : float
    info : dict with keys 'converged' (always True), 'levels', 'nodes' (size
        of the final grid, which is also the number of evaluations),
        'last_change'.

    Raises
    ------
    NumericalError
        When `MAX_LEVELS` levels pass without two successive values agreeing
        to `rtol`: an unconverged value is never returned.
    """
    if not (b > a >= 0):
        raise NumericalError(f"bad quadrature interval [{a}, {b}]")
    head = 0.0
    lo = a
    if a == 0.0:
        if zero_limit is None:
            raise NumericalError("a == 0 requires the integrand limit at 0")
        lo = b * HEAD_FRAC

    def evaluate(ts):
        vals = np.asarray(eval_batch(ts), dtype=float)
        if vals.shape != ts.shape:
            raise NumericalError("eval_batch returned the wrong number of values")
        return vals

    u = np.linspace(np.log(lo), np.log(b), BASE_PANELS + 1)
    ts = np.exp(u)
    ts[0], ts[-1] = lo, b           # exact endpoints
    vals = evaluate(ts)
    prev = None
    change = np.inf
    for level in range(MAX_LEVELS):
        if level:
            mid = 0.5 * (u[:-1] + u[1:])
            t_mid = np.exp(mid)
            vals = _interleave(vals, evaluate(t_mid))
            u, ts = _interleave(u, mid), _interleave(ts, t_mid)
        value = float(_composite_simpson(u, vals * ts))   # du-substitution
        if a == 0.0:
            head = 0.5 * lo * (zero_limit + vals[0])
        total = value + head
        if prev is not None:
            change = abs(total - prev)
            if change <= rtol * abs(total):
                return total, {"converged": True, "levels": level + 1,
                               "nodes": ts.size, "last_change": change}
        prev = total
    raise NumericalError(
        f"time quadrature on [{a:g}, {b:g}] did not converge in {MAX_LEVELS} "
        f"levels (last change {change:.3e})")


def cumulative_log_quadrature(eval_batch, ts, zero_limit):
    """(cumulative, infos): \\int_0^{ts[k]} f on an ascending positive grid.

    [0, ts[0]] (f tends to `zero_limit` at 0) and each [ts[k-1], ts[k]] go
    through `log_time_quadrature`, one info each, and the pieces are summed
    in order: every value carries the rule's tolerance, a piece that does
    not converge raises, and a nonnegative f gives nondecreasing values.
    """
    edges = np.concatenate([[0.0], np.asarray(ts, dtype=float)])
    pieces = [log_time_quadrature(eval_batch, a, b, zero_limit=zero_limit)
              for a, b in zip(edges[:-1], edges[1:])]
    return np.cumsum([v for v, _ in pieces]), [info for _, info in pieces]
