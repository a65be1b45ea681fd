"""Adaptive sparse-grid stochastic collocation for parametric diffusion.

Building blocks: monotone multi-index sets (multiindex), nested 1-D
node families (nodes), hierarchical sparse interpolation (interp), a P1
finite-element discretization of the affine-coefficient diffusion
problem (fem), residual and surplus error estimators with parametric
norms (estimators), the adaptive refinement loop (adaptive), and a
config-driven experiment CLI (cli).  The package holds what a run
executes; the test suite's independent reference forms (the
combination-technique view of a detail, index-set definitions,
Lebesgue constants) live in tests/oracles.py.
"""

__version__ = "0.1.0"

from .adaptive import AdaptiveConfig, AdaptiveTrace
from .estimators import (
    NormSpec,
    profit,
    reference_error,
    residual_estimator,
    surplus_indicator,
)
from .fem import (
    DiffusionProblem,
    EllipticityError,
    SolveCache,
    SpatialDiscretization,
    build_problem,
    check_ellipticity,
)
from .interp import SparseInterpolant, grid_points, work
from .multiindex import MonotoneIndexSet
from .nodes import get_family, growth, growth_inverse

__all__ = [
    "AdaptiveConfig",
    "AdaptiveTrace",
    "DiffusionProblem",
    "EllipticityError",
    "MonotoneIndexSet",
    "NormSpec",
    "SolveCache",
    "SparseInterpolant",
    "SpatialDiscretization",
    "build_problem",
    "check_ellipticity",
    "get_family",
    "grid_points",
    "growth",
    "growth_inverse",
    "profit",
    "reference_error",
    "residual_estimator",
    "surplus_indicator",
    "work",
]
