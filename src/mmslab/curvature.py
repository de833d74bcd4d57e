"""Heat-semigroup curvature condition: variance bound and minimal constant.

The condition under test: for 0 < t <= T and every field g,

    T_t(g^2)(x) - [T_t g(x)]^2  <=  (2t + c_kappa(T) t^2) T_t(Gamma(g,g))(x).

`estimate_ckappa` samples the required constant over a field collection and
a time grid and reports the maximum; it is a lower estimate of the true
minimal constant, since the condition quantifies over the whole energy
space.  `check_commutation` is a sufficient-condition oracle: a nonnegative
margin min_x [T_t Gamma(g) - Gamma(T_t g)](x) for all tested g certifies
that the bound is satisfiable with c_kappa = 0, through the interpolation
identity Var_t(g) = 2 \\int_0^t T_s Gamma(T_{t-s} g) ds.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, NumericalError
from .form import carre_du_champ
from .heat import _COLUMN_BLOCK, HeatOperator
from .reports import CurvatureReport

VAR_FLOOR = -1e-12      # round-off clamp threshold, scaled by max(1, |g|_inf^2)


def variance(H: HeatOperator, g, t: float) -> np.ndarray:
    """Pointwise heat variance T_t(g^2) - (T_t g)^2, clamped at zero.

    The field is recentred before squaring (the variance is invariant under
    adding constants), which keeps the cancellation at small t benign.
    Entries below the round-off floor raise, signalling a broken semigroup.
    """
    g = H.space.check_field(g)
    if t < 0:
        raise ConfigError("negative time")
    if t == 0:
        return np.zeros(H.space.n)
    gs = g - 0.5 * (g.max() + g.min())
    out = H.apply_batch(np.column_stack([gs * gs, gs]), t)
    return _clip_variance(out[:, 0] - out[:, 1] ** 2, gs)


def _clip_variance(var, centred) -> np.ndarray:
    """Heat variances `var` of the recentred field `centred`, clipped at zero.

    An entry below the round-off floor VAR_FLOOR * max(1, |centred|_inf^2)
    raises `NumericalError`: it signals a broken semigroup, not round-off.
    """
    var = np.asarray(var, dtype=float)
    floor = VAR_FLOOR * max(1.0, float(np.max(np.abs(centred))) ** 2)
    if float(var.min()) < floor:
        raise NumericalError(
            f"variance {float(var.min()):.3e} below clamp floor {floor:.3e}")
    return np.clip(var, 0.0, None)


def _field_count(space, n_random: int) -> int:
    """k, the number of drawn sample fields: the space's coordinates, then
    `n_random` seeded Gaussians."""
    if n_random < 0:
        raise ConfigError(f"n_random must be nonnegative, got {n_random}")
    return (0 if space.positions is None else space.positions.shape[1]) + n_random


def _draw(space, rng, cols) -> np.ndarray:
    """The drawn sample fields numbered `cols` (a range), as a column-major
    (n, len(cols)) array: coordinate c for c below the space's dimension,
    else the next standard normal field of `rng`."""
    dims = 0 if space.positions is None else space.positions.shape[1]
    part = np.empty((len(cols), space.n)).T
    for j, c in enumerate(cols):
        if c < dims:
            part[:, j] = space.positions[:, c]
        else:
            rng.standard_normal(out=part[:, j])
    return part


def _sample_columns(H: HeatOperator, seed: int, n_random: int):
    """Yield the columns of the default sample stack in order: the k drawn
    fields, then their smoothings T_{h^2} g.

    Both passes draw the fields afresh from `seed`, in parts of
    `_COLUMN_BLOCK // n` columns from column 0, and a part is smoothed
    alone.  A heat action on all k fields deals the same parts, each
    through products of the same shapes, so every smoothing keeps the bits
    it has in that action.  One part is held at a time.
    """
    space = H.space
    k = _field_count(space, n_random)
    w = max(1, _COLUMN_BLOCK // space.n)
    for smoothed in (False, True):
        rng = np.random.default_rng(seed)
        for c0 in range(0, k, w):
            part = _draw(space, rng, range(c0, min(k, c0 + w)))
            if smoothed:
                part = H.apply_batch(part, space.min_edge_length ** 2)
            yield from part.T
            # dropped before the next part is drawn
            del part


def default_sample_fields(H: HeatOperator, seed: int = 0,
                          n_random: int = 32) -> np.ndarray:
    """Default (n, 2k) sample stack: k fields (coordinates, seeded
    Gaussians), then their heat-smoothed versions T_{h^2} g, as one
    column-major array.

    It is the concatenation of the columns `estimate_ckappa(samples=None)`
    streams a block at a time (`_sample_columns`), for callers that pass
    a stack: besides the stack, only one part of `_COLUMN_BLOCK // n`
    fields and its smoothing are held.
    """
    k = 2 * _field_count(H.space, n_random)
    out = np.empty((k, H.space.n)).T
    for c, col in enumerate(_sample_columns(H, seed, n_random)):
        out[:, c] = col
    return out


def _largest_required(out, t: float, scale2):
    """(max, field, vertex) of required(g, t, x) from the swept stack
    [g~^2 | g~ | Gamma(g)] at time t; its temporaries die with the call."""
    k = scale2.size
    var = np.square(out[:, k:2 * k])
    np.subtract(out[:, :k], var, out=var)
    tg = out[:, 2 * k:]
    if np.any(var < VAR_FLOOR * scale2[None, :]):
        raise NumericalError(f"variance below clamp floor at t={t}")
    np.clip(var, 0.0, None, out=var)
    wtol = 1e-13 * np.maximum(np.max(tg, axis=0), 1e-300)
    degenerate = tg <= wtol[None, :]
    if np.any(degenerate & (var > 1e-10 * scale2[None, :])):
        raise NumericalError(
            f"vanishing T_t Gamma with nonvanishing variance at t={t}")
    # required is computed in place of var: zero where T_t Gamma vanishes
    # (there -2t / t^2 < 0 is clipped to zero below), divided only elsewhere
    req = var
    np.copyto(req, 0.0, where=degenerate)
    np.divide(req, tg, out=req, where=~degenerate)
    req -= 2.0 * t
    req /= t * t
    np.clip(req, 0.0, None, out=req)
    flat = int(np.argmax(req))
    x, f = np.unravel_index(flat, req.shape)
    return float(req.flat[flat]), int(f), int(x)


def _flat_argmax(a, b):
    """Of two (value, field, vertex) maxima over parts of one stack, the one
    a flat argmax over the whole stack picks: the larger value, then the
    smaller vertex, then the smaller field, whichever part came first."""
    return min(a, b, key=lambda m: (-m[0], m[2], m[1]))


def estimate_ckappa(H: HeatOperator, T: float, samples=None, t_grid=None,
                    seed: int = 0, n_random: int = 32) -> CurvatureReport:
    """Smallest sampled constant making the variance bound hold up to time T.

    For each sampled field g, time t and vertex x with T_t(Gamma(g,g))(x) > 0,

        required(g, t, x) = max(0, [Var_t(g)(x) / T_t Gamma(g)(x) - 2t] / t^2),

    and c_kappa is the maximum over the sample.  Where T_t Gamma vanishes
    the variance must vanish too (checked; anything else signals numerical
    corruption).  The result is floored at zero and is a lower estimate of
    the true minimal constant.  `samples` is an (n, k) stack, one field per
    column; without it the fields are `default_sample_fields(H, seed,
    n_random)`, drawn and smoothed a part at a time as the blocks need
    them, so that stack is never held.  The default `t_grid` is 24
    geometric times in [h^2, T].

    The fields are swept in blocks: each block's column-major stack
    [g~^2 | g~ | Gamma(g)] of recentred fields g~ has the columns
    `H.grid_columns` allows for the grid (or holds one field), so a
    spectral block's stack, coefficients and output fit `heat._GRID_BLOCK`
    together, and a stepping block crosses the whole grid in one
    recurrence.  It goes through one `apply_grid` sweep, and each output is
    released before the next is made (a stepping sweep holds its one group
    of outputs), so memory stays near one block, beside `samples` or one
    smoothing part, at any mesh.  The per-time maxima fold across blocks by
    the flat-argmax rule (`_flat_argmax`).
    """
    if not (T > 0):
        raise ConfigError("horizon T must be positive")
    if t_grid is None:
        h2 = H.space.min_edge_length ** 2
        if T < h2 * (1 - 1e-12):
            raise ConfigError(f"horizon T={T} below the mesh time h^2={h2}")
        t_grid = np.unique(np.geomspace(min(h2, T), T, 24))
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid <= 0) or np.any(t_grid > T * (1 + 1e-12)):
        raise ConfigError("t grid must lie in (0, T]")
    n = H.space.n
    if samples is None:
        k = 2 * _field_count(H.space, n_random)
        columns = _sample_columns(H, seed, n_random)
    else:
        samples = np.asarray(samples, dtype=float)
        if samples.ndim != 2 or samples.shape[0] != n:
            raise ConfigError(f"samples must be an (n, k) stack, got {samples.shape}")
        k = samples.shape[1]
        columns = iter(samples.T)
    if k == 0:
        raise ConfigError("empty sample collection")

    # c_kappa is a max over fields, so each block's per-time maxima fold
    # into `best`, the (value, field, vertex) per time
    ts = np.sort(t_grid)
    width = max(1, H.grid_columns(ts.size) // 3)
    best = [(-1.0, 0, 0)] * ts.size
    for f0 in range(0, k, width):
        kb = min(width, k - f0)
        stack = np.empty((3 * kb, n)).T        # column-major, read in place
        gs = stack[:, kb:2 * kb]
        for c in range(kb):
            gs[:, c] = next(columns)
        # recentre per field
        gs -= 0.5 * (gs.max(axis=0) + gs.min(axis=0))
        np.square(gs, out=stack[:, :kb])
        for i in range(kb):
            carre_du_champ(H.space, gs[:, i], out=stack[:, 2 * kb + i])
        scale2 = np.maximum(1.0, np.max(np.abs(gs), axis=0) ** 2)
        sweep = H.apply_grid(stack, ts)
        # the sweep holds the stack only until its first output, and `map`
        # drops each output before the sweep makes the next
        del stack, gs
        maxima = map(lambda tx: _largest_required(tx[1], tx[0], scale2), sweep)
        for i, (m, f, x) in enumerate(maxima):
            best[i] = _flat_argmax(best[i], (m, f0 + f, x))

    c_kappa = 0.0
    argmax = (0, float(t_grid[0]), 0)
    profile = []
    for t, (m, f, x) in zip(ts, best):
        profile.append((float(t), m))
        if m > c_kappa:
            c_kappa = m
            argmax = (f, float(t), x)
    return CurvatureReport(T=float(T), c_kappa=float(c_kappa), n_fields=k,
                           argmax=argmax, per_t_profile=profile)


def check_commutation(H: HeatOperator, G, t: float) -> float:
    """min over fields g and vertices x of [T_t Gamma(g,g) - Gamma(T_t g, T_t g)](x),
    for one field or the columns of an (n, k) stack G.

    The stack [G | Gamma(G)] goes through one heat action.  Nonnegative
    margins across a field collection certify c_kappa = 0.
    """
    if not (t > 0):
        raise ConfigError("t must be positive")
    G = np.asarray(G, dtype=float)
    fields = [H.space.check_field(g) for g in (G.T if G.ndim == 2 else [G])]
    k = len(fields)
    if k == 0:
        raise ConfigError("empty field stack")
    gammas = [carre_du_champ(H.space, g) for g in fields]
    out = H.apply_batch(np.column_stack(fields + gammas), t)
    return min(float(np.min(out[:, k + i] - carre_du_champ(H.space, out[:, i])))
               for i in range(k))
