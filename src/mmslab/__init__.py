"""mmslab: a numerical laboratory for analysis on weighted graphs.

Finite weighted graphs stand in for metric measure spaces; the package
measures their doubling/Poincare constants, realizes the heat semigroup of
the graph Dirichlet form, estimates the heat-semigroup curvature constant,
solves weak elliptic problems, and verifies the quantitative gradient
estimates those ingredients imply, including the degenerate-weight square
where Lipschitz regularity fails.
"""

__version__ = "0.1.0"

from .curvature import check_commutation, estimate_ckappa, variance
from .elliptic import (Problem, check_caccioppoli, classify_harmonicity,
                       holder_fit, local_sup_bound, solve, weak_harnack,
                       weak_residual)
from .errors import ConfigError, NumericalError
from .form import (carre_du_champ, check_leibniz, energy, generator_apply,
                   lip_field)
from .gradest import (Cutoff, averaged_energy, averaged_energy_profile,
                      build_cutoff, check_prop31, check_semigroup_holder,
                      check_variance_identity, run_counterexample,
                      variance_log_integral, verify_gradient_estimate)
from .heat import (HeatOperator, build_heat, check_gaussian,
                   check_heat_caccioppoli)
from .space import (Ball, MetricMeasureSpace, build_space, estimate_doubling,
                    estimate_poincare, metric_ball, product_space, two_point,
                    uniform_cycle, uniform_torus, weighted_grid_1d,
                    weighted_grid_2d)

__all__ = [
    "Ball", "ConfigError", "Cutoff", "HeatOperator", "MetricMeasureSpace",
    "NumericalError", "Problem", "__version__", "averaged_energy",
    "averaged_energy_profile", "build_cutoff", "build_heat", "build_space",
    "carre_du_champ", "check_caccioppoli", "check_commutation",
    "check_gaussian", "check_heat_caccioppoli", "check_leibniz",
    "check_prop31", "check_semigroup_holder", "check_variance_identity",
    "classify_harmonicity", "energy", "estimate_ckappa", "estimate_doubling",
    "estimate_poincare", "generator_apply", "holder_fit", "lip_field",
    "local_sup_bound", "metric_ball", "product_space", "run_counterexample",
    "solve", "two_point", "uniform_cycle",
    "uniform_torus", "variance", "variance_log_integral", "weak_harnack",
    "weak_residual", "weighted_grid_1d", "weighted_grid_2d",
]
