"""Adaptive time quadrature for heat-semigroup integrals.

All the time integrals in this package run against kernels that vary
fastest near t = 0, so the rule lives in u = log t.  It is one locally
adaptive composite Simpson rule, after the adaptive rules of QUADPACK
(Piessens, de Doncker-Kapenga, Ueberhuber and Kahaner, 1983) with Simpson
pairs in place of Gauss-Kronrod: it starts from `BASE_PANELS` log-uniform
panels, cut at every breakpoint, and halves only the panels whose
Richardson estimate |S2 - S1|/15 exceeds their share of the tolerance, so
panels where a kernel integrand is e^{-c/t}-small are left alone.  A rule that
needs more than `MAX_NODES` evaluations raises `NumericalError`, so no
caller can use an unconverged value.  `cumulative_log_quadrature` reads one
such integral over [0, ts...] off at every breakpoint; `log_time_quadrature`
is its case of two edges.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError

BASE_PANELS = 16        # log-uniform panels of the first grid
MAX_NODES = 2049        # evaluations past which the rule gives up
HEAD_FRAC = 1e-6        # from 0, [0, t_first * HEAD_FRAC] is one trapezoid


def _adaptive_log_simpson(eval_batch, edges, rtol, zero_limit):
    """(integrals from edges[0] to each of edges[1:], info).

    Each panel [u0, u0 + w] of the u = log t grid holds the integrand
    g = f(t) t at u0 + w {0, 1/4, 1/2, 3/4, 1}: S1 is Simpson's rule on the
    panel and S2 the composite rule on its halves, and the panel adds
    S2 + (S2 - S1)/15.  The estimate |S2 - S1|/15 of a panel left of
    breakpoint j must be at most rtol |I_j| w / (u_j - u_first) for each
    such j, with I_j the running integral: the estimates left of any
    breakpoint then sum to at most rtol |I_j|.  Each round halves the
    panels over their share and evaluates, in one ascending call, the
    quarter-points of the halves, so every node is evaluated once.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.size < 2 or not (edges[0] >= 0 and np.all(np.diff(edges) > 0)):
        raise NumericalError(f"bad quadrature interval {edges}")
    breaks = edges
    if edges[0] == 0.0:
        if zero_limit is None:
            raise NumericalError("a == 0 requires the integrand limit at 0")
        breaks = np.concatenate([[edges[1] * HEAD_FRAC], edges[1:]])
    nodes = 0
    rounds = 0

    def evaluate(ts):
        nonlocal nodes, rounds
        if nodes + ts.size > MAX_NODES:
            raise NumericalError(
                f"time quadrature on [{edges[0]:g}, {edges[-1]:g}] did not "
                f"converge within {MAX_NODES} nodes")
        vals = np.asarray(eval_batch(ts), dtype=float)
        if vals.shape != ts.shape:
            raise NumericalError("eval_batch returned the wrong number of values")
        nodes += ts.size
        rounds += 1
        return vals

    ub = np.log(breaks)
    cuts = np.union1d(np.linspace(ub[0], ub[-1], BASE_PANELS + 1), ub)
    left, width = cuts[:-1], np.diff(cuts)
    quarters = left[:, None] + width[:, None] * (np.arange(4) / 4.0)
    ts = np.exp(np.append(quarters.ravel(), cuts[-1]))
    ts[4 * np.searchsorted(cuts, ub)] = breaks      # exact breakpoints
    f = evaluate(ts)
    g = f * ts
    head = 0.5 * breaks[0] * (zero_limit + f[0]) if edges[0] == 0.0 else 0.0
    # (panels, 5) integrand values; each row shares its ends with its
    # neighbours
    G = np.lib.stride_tricks.sliding_window_view(g, 5)[::4].copy()
    # the breakpoint each panel lies left of, as an index into ub[1:]
    piece = np.searchsorted(ub, left, side="right") - 1
    span = ub[1:] - ub[0]
    while True:
        S1 = width / 6.0 * (G[:, 0] + 4.0 * G[:, 2] + G[:, 4])
        S2 = width / 12.0 * (G[:, 0] + 4.0 * G[:, 1] + 2.0 * G[:, 2]
                             + 4.0 * G[:, 3] + G[:, 4])
        value = S2 + (S2 - S1) / 15.0
        running = head + np.cumsum(np.bincount(piece, weights=value,
                                               minlength=span.size))
        # per unit of u, the tightest share among the breakpoints at or
        # right of each piece
        density = np.minimum.accumulate((np.abs(running) / span)[::-1])[::-1]
        split = np.flatnonzero(np.abs(S2 - S1) / 15.0 > rtol * width * density[piece])
        if split.size == 0:
            return running, {"converged": True, "levels": rounds, "nodes": nodes}
        # the quarter-points of both halves of each split panel, ascending
        new_t = np.exp(left[split, None]
                       + width[split, None] * (np.arange(1, 8, 2) / 8.0))
        # the nine nodes of a split panel: its two halves share the middle
        fine = np.empty((split.size, 9))
        fine[:, 0::2] = G[split]
        fine[:, 1::2] = evaluate(new_t.ravel()).reshape(-1, 4) * new_t
        keep = np.ones(left.size, dtype=bool)
        keep[split] = False
        half_w = 0.5 * width[split]
        left = np.concatenate([left[keep], left[split], left[split] + half_w])
        width = np.concatenate([width[keep], half_w, half_w])
        G = np.concatenate([G[keep], fine[:, :5], fine[:, 4:]])
        piece = np.concatenate([piece[keep], piece[split], piece[split]])
        order = np.argsort(left, kind="stable")
        left, width, G, piece = left[order], width[order], G[order], piece[order]


def log_time_quadrature(eval_batch, a, b, rtol=1e-6, zero_limit=None):
    """Integrate a scalar function of time over [a, b] (0 <= a < b).

    Parameters
    ----------
    eval_batch : callable
        Maps an ascending array of times to integrand values.  Called first
        with the first grid, then once per round with only the new nodes
        (ascending), so every node is evaluated once and semigroup-stepping
        callers can sweep incrementally.
    a, b : float
        Integration bounds.  When a == 0 the integrand must have a finite
        limit at 0, supplied as `zero_limit`; the head [0, b*HEAD_FRAC] is
        then covered by a single trapezoid and the rest is log-uniform.
    rtol : float
        Relative tolerance on the summed Richardson estimates.
    zero_limit : float, optional
        Integrand value at t = 0 (required when a == 0).

    Returns
    -------
    value : float
    info : dict with keys 'converged' (always True), 'levels' (the number of
        rounds, which is also the number of `eval_batch` calls) and 'nodes'
        (the number of evaluations).

    Raises
    ------
    NumericalError
        When the rule would need more than `MAX_NODES` evaluations: an
        unconverged value is never returned.
    """
    values, info = _adaptive_log_simpson(eval_batch, [a, b], rtol, zero_limit)
    return float(values[0]), info


def cumulative_log_quadrature(eval_batch, ts, zero_limit):
    """(cumulative, info): \\int_0^{ts[k]} f on an ascending positive grid.

    One adaptive rule over [0, ts[-1]] with every ts[k] a breakpoint (f
    tends to `zero_limit` at 0), read off at the breakpoints: every value
    carries the rule's tolerance, and a rule that does not converge raises.
    """
    ts = np.asarray(ts, dtype=float)
    return _adaptive_log_simpson(eval_batch, np.concatenate([[0.0], ts]), 1e-6,
                                 zero_limit)
