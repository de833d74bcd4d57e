"""Structured results of the inequality checks.

Every check returns a small dataclass carrying the two sides of the
inequality it measured and the fitted or realized constants, never a
verdict; the CLI derives every pass flag from the numbers it stores.
`to_jsonable` converts any of them (numpy scalars/arrays included) into
plain Python containers for the CLI report files.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any

import numpy as np


def to_jsonable(obj: Any) -> Any:
    """Recursively convert dataclasses / numpy types to JSON-friendly values."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return obj


@dataclass
class Measurement:
    """A realized constant of one inequality lhs <= constant * rhs."""

    name: str
    lhs: float
    rhs: float              # right side without the constant
    constant: float         # smallest admissible / realized constant
    extras: dict = field(default_factory=dict)


@dataclass
class DoublingReport:
    """The doubling constant C_d, attained at `worst_pair`, and the
    Q-doubling power law fitted to `n_samples` log mass ratios.  Every
    space's ball masses come from one routine
    (`space._factor_ball_masses`)."""

    R0: float
    C_d: float
    Q_fit: float
    C_Q: float
    worst_pair: tuple       # (vertex, radius) achieving C_d
    n_samples: int = 0


@dataclass
class PoincareReport:
    R0: float
    C_P: float
    worst_ball: Any         # Ball achieving C_P
    n_balls: int = 0
    n_skipped: int = 0


@dataclass
class GaussianFit:
    C: float
    C1: float               # decay constant of the upper envelope
    C2: float               # decay constant of the lower envelope
    violations: int
    t_range: tuple
    pair_sample: int        # pairs sampled
    skipped: int            # (time, pair) samples at round-off, not fitted


@dataclass
class CurvatureReport:
    T: float
    c_kappa: float
    n_fields: int
    argmax: tuple           # (field index, t, vertex) of the binding sample
    per_t_profile: list     # [(t, required c at that t), ...]
    sample_note: str = ("lower estimate: the variance bound was sampled on a finite "
                        "field collection (coordinates, seeded random fields, and their "
                        "heat-smoothed versions), not on the whole energy space, and on "
                        "a finite time grid (by default from h^2 to T), not at every "
                        "0 < t <= T; the sharp constant can peak below h^2")


@dataclass
class HoelderReport:
    gamma: float
    constant: float
    ball: Any
    pair_sample: int
    scale: float = 0.0      # sup|u|(4B) + R^2 sup|g|(4B)


@dataclass
class RatioReport:
    theorem: str            # "thm31", "thm11" or "thm12"
    left: float
    right: float            # right side without the constant
    constant: float         # realized constant = left / right
    inputs: dict = field(default_factory=dict)
    profile: list = field(default_factory=list)   # [(t, averaged energy at t)]


@dataclass
class ScalingReport:
    h_list: list
    sup_grad: list
    c_kappa: list
    gamma: list
    grad_slope: float       # log-log slope of sup_grad against h
    ck_ratio: float         # c_kappa[last] / c_kappa[first]
    rows: list = field(default_factory=list)      # flat per-mesh records for CSV
