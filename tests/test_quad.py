"""Adaptive log-time quadrature engine."""

import numpy as np
import pytest
from scipy.special import exp1

from mmslab.errors import NumericalError
from mmslab.quad import (BASE_PANELS, HEAD_FRAC, MAX_NODES,
                         cumulative_log_quadrature, log_time_quadrature)


def test_exponential_integral():
    val, info = log_time_quadrature(lambda t: np.exp(-t), 1e-4, 5.0, rtol=1e-8)
    want = np.exp(-1e-4) - np.exp(-5.0)
    assert info["converged"]
    assert val == pytest.approx(want, rel=1e-7)


def test_zero_left_endpoint_uses_limit():
    val, info = log_time_quadrature(lambda t: np.cos(t), 0.0, 1.0, rtol=1e-6,
                                    zero_limit=1.0)
    assert val == pytest.approx(np.sin(1.0), rel=1e-5)
    assert info["converged"]


def test_zero_endpoint_requires_limit():
    with pytest.raises(NumericalError):
        log_time_quadrature(lambda t: t, 0.0, 1.0)


def test_power_law_near_zero():
    # integrand t^{-1/2}-like variation is resolved by the log grid
    val, _ = log_time_quadrature(lambda t: 1.0 / np.sqrt(t), 1e-8, 1.0, rtol=1e-9)
    assert val == pytest.approx(2.0 * (1.0 - 1e-4), rel=1e-8)


def test_bad_interval_rejected():
    with pytest.raises(NumericalError):
        log_time_quadrature(lambda t: t, 2.0, 1.0)


def test_unconverged_quadrature_raises():
    # thousands of oscillations on [1, 5]: no grid of at most MAX_NODES
    # nodes resolves them
    calls = []

    def eval_batch(ts):
        calls.append(ts.size)
        return np.sin(1e4 * ts)

    with pytest.raises(NumericalError,
                       match=f"did not converge within {MAX_NODES} nodes"):
        log_time_quadrature(eval_batch, 1e-4, 5.0)
    assert calls and sum(calls) <= MAX_NODES


@pytest.mark.parametrize("s", [0.5, 1.0, 4.0, 16.0, 64.0])
def test_kernel_like_integrand_matches_the_closed_form(s):
    # int_0^s e^{-c/t} dt = s e^{-c/s} - c E1(c/s): the shape of a heat
    # kernel's annulus energy, zero over most of the log grid for s << c
    c = 16.0
    val, info = log_time_quadrature(lambda t: np.exp(-c / t), 0.0, s,
                                    zero_limit=0.0)
    want = s * np.exp(-c / s) - c * exp1(c / s)
    assert info["converged"]
    assert val == pytest.approx(want, rel=1e-6)


def test_cumulative_is_monotone_for_nonnegative_integrand():
    # one rule read off at every breakpoint holds the tolerance at each,
    # not only at the last
    ts = np.geomspace(0.01, 4.0, 12)
    cum, info = cumulative_log_quadrature(lambda tg: np.exp(-tg), ts,
                                          zero_limit=1.0)
    assert cum.shape == ts.shape and np.all(np.diff(cum) >= 0)
    assert np.max(np.abs(cum / (1.0 - np.exp(-ts)) - 1.0)) <= 1e-6
    assert info["converged"]


def test_cumulative_piece_that_does_not_converge_raises():
    # the integrand is smooth up to t = 1 and oscillates thousands of times
    # on [1, 5]: the rule raises instead of returning a value it did not
    # certify
    def f(tg):
        return np.where(tg < 1.0, 1.0, 1.0 + np.sin(1e4 * tg))

    assert cumulative_log_quadrature(f, np.array([0.5, 0.9]), 1.0)[0] == \
        pytest.approx([0.5, 0.9], rel=1e-6)
    with pytest.raises(NumericalError, match=r"on \[0, 5\] did not converge"):
        cumulative_log_quadrature(f, np.array([0.5, 0.9, 5.0]), zero_limit=1.0)


def nested_rule_reference(f, edges, rtol, zero_limit):
    """The rule with every panel's five nodes evaluated from scratch, one
    panel at a time.

    Panels nest (a half's ends and midpoint are nodes of its parent), so
    reusing nodes must not change the value; this loop form refines the
    same panels in the same rounds.
    """
    breaks = list(edges)
    if edges[0] == 0.0:
        breaks[0] = edges[1] * HEAD_FRAC
    ub = np.log(breaks)
    cuts = np.union1d(np.linspace(ub[0], ub[-1], BASE_PANELS + 1), ub)
    panels = list(zip(cuts[:-1], np.diff(cuts)))
    exact = dict(zip(ub, breaks))
    head = (0.5 * breaks[0] * (zero_limit + f(np.array([breaks[0]]))[0])
            if edges[0] == 0.0 else 0.0)

    def g(u):
        t = exact.get(u, np.exp(u))
        return f(np.array([t]))[0] * t

    while True:
        est, sums = [], [0.0] * (ub.size - 1)
        for left, w in panels:
            v = [g(left + w * q / 4) if q < 4 else g(left + w) for q in range(5)]
            S1 = w / 6 * (v[0] + 4 * v[2] + v[4])
            S2 = w / 12 * (v[0] + 4 * v[1] + 2 * v[2] + 4 * v[3] + v[4])
            piece = int(np.searchsorted(ub, left, side="right")) - 1
            sums[piece] += S2 + (S2 - S1) / 15
            est.append((abs(S2 - S1) / 15, piece))
        running = head + np.cumsum(sums)
        density = [min(abs(running[j]) / (ub[j + 1] - ub[0])
                       for j in range(k, running.size)) for k in range(running.size)]
        split = [e > rtol * w * density[k] for (e, k), (_, w) in zip(est, panels)]
        if not any(split):
            return running
        panels = sorted(sum(([(l, w / 2), (l + w / 2, w / 2)] if cut else [(l, w)]
                             for (l, w), cut in zip(panels, split)), []))


def test_each_node_is_evaluated_once():
    calls = []

    def eval_batch(ts):
        assert np.all(np.diff(ts) > 0)
        calls.append(ts.copy())
        return np.exp(-ts)

    val, info = log_time_quadrature(eval_batch, 1e-4, 5.0, rtol=1e-8)
    assert info["converged"] and info["levels"] >= 3
    assert len(calls) == info["levels"]
    every = np.concatenate(calls)
    # the first grid: the four quarter-points of each base panel and b
    assert calls[0].size == 4 * BASE_PANELS + 1
    assert every.size == info["nodes"] <= MAX_NODES
    assert np.unique(every).size == every.size
    assert every.min() == 1e-4 and every.max() == 5.0


def test_node_reuse_keeps_the_value_of_the_nested_rule():
    f = lambda t: np.exp(-t) + np.exp(-0.5 / t)
    # nodes of a right half are placed from its parent's left end, so they
    # may differ from the reference's in the last bit
    for a in (0.0, 1e-3):
        val, _ = log_time_quadrature(f, a, 3.0, rtol=1e-8, zero_limit=1.0)
        want = nested_rule_reference(f, [a, 3.0], 1e-8, 1.0)
        assert abs(val - want[0]) <= 1e-13 * abs(want[0])
    ts = np.array([0.2, 0.7, 3.0])
    cum, _ = cumulative_log_quadrature(f, ts, zero_limit=1.0)
    want = nested_rule_reference(f, [0.0, *ts], 1e-6, 1.0)
    assert np.allclose(cum, want, rtol=1e-13, atol=0.0)
    assert cum[-1] == pytest.approx(1.0 - np.exp(-3.0) + 3.0 * np.exp(-0.5 / 3.0)
                                    - 0.5 * exp1(0.5 / 3.0), rel=1e-6)
