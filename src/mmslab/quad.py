"""Adaptive time quadrature for heat-semigroup integrals.

All the time integrals in this package run against kernels that vary
fastest near t = 0, so the composite rule lives on a geometric (log-uniform)
grid.  The node count is doubled until two successive composite values agree
to a relative tolerance (Richardson-style stopping).
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError


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


def log_time_quadrature(eval_batch, a, b, rtol=1e-6, atol=0.0,
                        base_panels=16, max_levels=7,
                        zero_limit=None, head_frac=1e-6):
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
        limit at 0, supplied as `zero_limit`; the head [0, b*head_frac] is
        then covered by a single trapezoid and the rest is log-uniform.
    rtol, atol : float
        Stopping tolerances on the change between refinement levels.
    zero_limit : float, optional
        Integrand value at t = 0 (required when a == 0).

    Returns
    -------
    value : float
    info : dict with keys 'converged', 'levels', 'nodes' (size of the final
        grid, which is also the number of evaluations), 'last_change'.
    """
    if not (b > a >= 0):
        raise NumericalError(f"bad quadrature interval [{a}, {b}]")
    head = 0.0
    lo = a
    if a == 0.0:
        if zero_limit is None:
            raise NumericalError("a == 0 requires the integrand limit at 0")
        lo = b * head_frac

    def evaluate(ts):
        vals = np.asarray(eval_batch(ts), dtype=float)
        if vals.shape != ts.shape:
            raise NumericalError("eval_batch returned the wrong number of values")
        return vals

    u = np.linspace(np.log(lo), np.log(b), base_panels + 1)
    ts = np.exp(u)
    ts[0], ts[-1] = lo, b           # exact endpoints
    vals = evaluate(ts)
    prev = None
    change = np.inf
    for level in range(max_levels):
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
            if change <= rtol * abs(total) + atol:
                return total, {"converged": True, "levels": level + 1,
                               "nodes": ts.size, "last_change": change}
        prev = total
    return prev, {"converged": False, "levels": max_levels,
                  "nodes": ts.size, "last_change": change}


def require_converged(info, a, b):
    """Raise NumericalError when a `log_time_quadrature` result on [a, b]
    did not converge."""
    if not info["converged"]:
        raise NumericalError(
            f"time quadrature on [{a:g}, {b:g}] did not converge in "
            f"{info['levels']} levels (last change {info['last_change']:.3e})")


def cumulative_log_quadrature(eval_batch, ts, zero_limit=None):
    """Cumulative integrals \\int_0^{ts[k]} f via trapezoid on the given grid.

    `ts` must be ascending and positive.  The head [0, ts[0]] uses
    `zero_limit` (trapezoid) when given, else treats f as constant f(ts[0]).
    Used for monotone profiles where consistency across the grid matters
    more than high node counts; the integrand is evaluated once per node.
    """
    ts = np.asarray(ts, dtype=float)
    vals = np.asarray(eval_batch(ts), dtype=float)
    out = np.empty(ts.size)
    f0 = vals[0] if zero_limit is None else zero_limit
    acc = 0.5 * (f0 + vals[0]) * ts[0]
    out[0] = acc
    for k in range(1, ts.size):
        acc += 0.5 * (vals[k - 1] + vals[k]) * (ts[k] - ts[k - 1])
        out[k] = acc
    return out, vals
