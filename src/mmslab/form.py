"""Dirichlet form, carre du champ, and generator on a weighted graph.

For fields f, g on a space with masses mu and conductances c:

    Gamma(f,g)(i) = 1/(2 mu_i) * sum_j c_ij (f_j - f_i)(g_j - g_i)
    E(f,g)        = sum_edges c_ij (f_i - f_j)(g_i - g_j) = \\int Gamma(f,g) dmu
    (A f)_i       = 1/mu_i * sum_j c_ij (f_j - f_i)

A is self-adjoint in the mu-weighted inner product, and the integration by
parts \\int g (Af) dmu = -E(g,f), the Leibniz rule for the form, and the
generator product rule A(uv) = u Av + v Au + 2 Gamma(u,v) all hold exactly
(to round-off) for these discrete operators.
"""

from __future__ import annotations

import numpy as np

from .space import MetricMeasureSpace


def carre_du_champ(space: MetricMeasureSpace, f, g=None, out=None) -> np.ndarray:
    """Pointwise square-gradient field Gamma(f, g); Gamma(f, f) >= 0.

    Written into `out`, an (n,) array such as a column of a stack, when it
    is given, and returned.  Each edge term (c df) dg is formed in one
    buffer, and the differences are dropped before it is summed.
    """
    f = space.check_field(f)
    df = _edge_differences(space, f)
    dg = df if g is None or g is f else _edge_differences(space, space.check_field(g))
    prod = np.multiply(space.edge_c, df)
    prod *= dg
    del df, dg
    if out is None:
        out = np.zeros(space.n)
    else:
        out[...] = 0.0
    np.add.at(out, space.edge_i, prod)
    np.add.at(out, space.edge_j, prod)
    out /= 2.0 * space.mu
    return out


def _edge_differences(space: MetricMeasureSpace, f) -> np.ndarray:
    """f_j - f_i on every edge {i, j}, with one gathered temporary."""
    df = f[space.edge_j]
    df -= f[space.edge_i]
    return df


def energy(space: MetricMeasureSpace, f, g=None) -> float:
    """Dirichlet energy E(f, g), symmetric and bilinear."""
    f = space.check_field(f)
    df = f[space.edge_j] - f[space.edge_i]
    if g is None or g is f:
        return float(space.edge_c @ (df * df))
    g = space.check_field(g)
    dg = g[space.edge_j] - g[space.edge_i]
    return float(space.edge_c @ (df * dg))


def generator_apply(space: MetricMeasureSpace, f) -> np.ndarray:
    """Generator field A f = (W f - deg * f) / mu."""
    f = space.check_field(f)
    return (space.conductance_apply(f) - space.degree * f) / space.mu


def check_leibniz(space: MetricMeasureSpace, u, v, phi) -> float:
    """Residual of the two product rules of the form calculus.

    Checks, with all terms evaluated independently:
      scalar:    E(phi, uv) = E(phi u, v) + E(phi v, u) - 2 \\int phi Gamma(u,v) dmu
      vertexwise A(uv) = u Av + v Au + 2 Gamma(u,v)
    and returns the larger of the two absolute residuals.
    """
    u = space.check_field(u)
    v = space.check_field(v)
    phi = space.check_field(phi)
    lhs = energy(space, phi, u * v)
    rhs = (energy(space, phi * u, v) + energy(space, phi * v, u)
           - 2.0 * float((space.mu * phi) @ carre_du_champ(space, u, v)))
    r_scalar = abs(lhs - rhs)

    prod = (generator_apply(space, u * v)
            - u * generator_apply(space, v)
            - v * generator_apply(space, u)
            - 2.0 * carre_du_champ(space, u, v))
    return max(r_scalar, float(np.max(np.abs(prod))))


def lip_field(space: MetricMeasureSpace, f) -> np.ndarray:
    """Maximum neighbor slope max_j |f_j - f_i| / l_ij at each vertex.

    Diagnostic only; sqrt(Gamma(f,f)) is the operative gradient everywhere
    else in the package.
    """
    f = space.check_field(f)
    slope = np.abs(f[space.edge_j] - f[space.edge_i]) / space.edge_l
    out = np.zeros(space.n)
    np.maximum.at(out, space.edge_i, slope)
    np.maximum.at(out, space.edge_j, slope)
    return out

