"""Adaptive sparse-grid stochastic collocation for parametric diffusion.

Building blocks: monotone multi-index sets (multiindex), nested 1-D
node families (nodes), hierarchical sparse interpolation and the
combination technique (interp), a P1 finite-element discretization of
the affine-coefficient diffusion problem (fem), residual and surplus
error estimators with parametric norms (estimators), the adaptive
refinement loop (adaptive), and a config-driven experiment CLI
(cli).
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
    coefficient_eval,
)
from .interp import (
    SparseInterpolant,
    TensorDetail,
    TensorPoly,
    detail_apply_ct,
    grid_points,
    tensor_interpolant,
    work,
)
from .multiindex import (
    MonotoneIndexSet,
    is_monotone,
    margin,
    monotone_envelope,
    reduced_margin,
)
from .nodes import (
    clenshaw_curtis_nodes,
    growth,
    growth_inverse,
    hierarchical_basis_eval,
    lebesgue_constant,
    leja_nodes,
    rleja_nodes,
)

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
    "TensorDetail",
    "TensorPoly",
    "build_problem",
    "check_ellipticity",
    "clenshaw_curtis_nodes",
    "coefficient_eval",
    "detail_apply_ct",
    "grid_points",
    "growth",
    "growth_inverse",
    "hierarchical_basis_eval",
    "is_monotone",
    "lebesgue_constant",
    "leja_nodes",
    "margin",
    "monotone_envelope",
    "profit",
    "reduced_margin",
    "reference_error",
    "residual_estimator",
    "rleja_nodes",
    "surplus_indicator",
    "tensor_interpolant",
    "work",
]
