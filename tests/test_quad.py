"""Adaptive log-time quadrature engine."""

import numpy as np
import pytest

from mmslab.errors import NumericalError
from mmslab.quad import cumulative_log_quadrature, log_time_quadrature


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


def test_cumulative_is_monotone_for_nonnegative_integrand():
    ts = np.geomspace(0.01, 4.0, 12)
    cum, vals = cumulative_log_quadrature(lambda tg: np.exp(-tg), ts,
                                          zero_limit=1.0)
    assert np.all(np.diff(cum) >= 0)
    assert cum[-1] == pytest.approx(1.0 - np.exp(-4.0), rel=0.05)
    assert vals.shape == ts.shape


def nested_rule_reference(f, b, rtol, zero_limit, base_panels=16, max_levels=7):
    """The rule on [0, b] with every level evaluated from scratch."""
    lo = b * 1e-6
    prev, panels = None, base_panels
    for _ in range(max_levels):
        u = np.linspace(np.log(lo), np.log(b), panels + 1)
        ts = np.exp(u)
        ts[0], ts[-1] = lo, b
        vals = f(ts)
        v = vals * ts
        hu = u[1] - u[0]
        total = hu / 3.0 * (v[0] + v[-1] + 4.0 * v[1:-1:2].sum() + 2.0 * v[2:-1:2].sum())
        total += 0.5 * lo * (zero_limit + vals[0])
        if prev is not None and abs(total - prev) <= rtol * abs(total):
            return total
        prev, panels = total, 2 * panels
    raise AssertionError("reference rule did not converge")


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
    assert every.size == info["nodes"] == 16 * 2 ** (info["levels"] - 1) + 1
    assert np.unique(every).size == every.size


def test_node_reuse_keeps_the_value_of_the_nested_rule():
    s = 3.0
    val, info = log_time_quadrature(lambda t: np.exp(-t), 0.0, s, rtol=1e-8,
                                    zero_limit=1.0)
    want = nested_rule_reference(lambda t: np.exp(-t), s, 1e-8, 1.0)
    assert info["converged"]
    assert abs(val - want) <= 1e-13 * abs(want)
    assert val == pytest.approx(1.0 - np.exp(-s), rel=1e-7)
