"""Certified perturbation expansions for smooth strongly convex minimizers.

Given a function with a known minimizer and a smoothness certificate, the
expansion operators predict how the minimizer and minimal value move under
a linear tilt, a ridge penalty, or a smooth penalty, and attach closed-form
radii and value brackets that a Newton solve can be checked against.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .diagnostics import Gate
from .errors import (
    BadLabels,
    DimensionMismatch,
    HessianNotPd,
    LineSearchFailed,
    MaxIterExceeded,
    MissingFourthDerivative,
    MissingThirdDerivative,
    NotAtMinimum,
    NotPositiveDefinite,
    NotPsd,
    NotSymmetric,
    PerturbexError,
    PreconditionViolated,
)
from .expand import (
    BoundSet,
    ComparisonReport,
    ExpansionReport,
    Prediction,
    RadiusBound,
    Solution,
    ValueBound,
    compare_with_solution,
    distance_to_optimum,
    exact_quadratic_expansion,
    expansion_for_order,
    fourth_order_expansion,
    predict,
    second_order_bounds,
    skewness_correction,
    solve_and_compare,
    solve_from,
    third_order_bounds,
)
from .harness import ExperimentConfig
from .linalg import SpdOperator, as_matrix, as_vector, kappa_between, spd_from_dense
from .oracle import (
    CustomOracle,
    LogisticOracle,
    LogSumExpOracle,
    Oracle,
    QuadraticOracle,
    SumOracle,
    fd_probe,
    quadratically_penalize,
    smoothly_penalize,
)
from .penalty import ridge_bias_exact_quadratic, smooth_penalty_bias
from .smoothness import (
    SampledMax,
    SmoothnessCertificate,
    declared_certificate,
    estimate_certificate,
    sample_constants,
    taylor_diagnostics,
)
from .solver import SolveResult, newton_minimize
from .zoo import ZooProblem, oracle_from_descriptor, random_spd

__all__ = [
    "__version__",
    # errors
    "PerturbexError",
    "DimensionMismatch",
    "NotSymmetric",
    "NotPositiveDefinite",
    "NotPsd",
    "BadLabels",
    "MissingThirdDerivative",
    "MissingFourthDerivative",
    "NotAtMinimum",
    "HessianNotPd",
    "MaxIterExceeded",
    "LineSearchFailed",
    "PreconditionViolated",
    # linear algebra
    "SpdOperator",
    "as_vector",
    "as_matrix",
    "spd_from_dense",
    "kappa_between",
    # oracles and perturbations
    "Oracle",
    "QuadraticOracle",
    "LogisticOracle",
    "LogSumExpOracle",
    "CustomOracle",
    "SumOracle",
    "quadratically_penalize",
    "smoothly_penalize",
    "fd_probe",
    # problem zoo
    "ZooProblem",
    "oracle_from_descriptor",
    "random_spd",
    # solver
    "SolveResult",
    "newton_minimize",
    # smoothness certificates
    "SmoothnessCertificate",
    "SampledMax",
    "sample_constants",
    "estimate_certificate",
    "declared_certificate",
    "taylor_diagnostics",
    # checked inequalities
    "Gate",
    # expansions
    "RadiusBound",
    "ValueBound",
    "BoundSet",
    "ExpansionReport",
    "ComparisonReport",
    "Solution",
    "Prediction",
    "predict",
    "exact_quadratic_expansion",
    "second_order_bounds",
    "third_order_bounds",
    "skewness_correction",
    "fourth_order_expansion",
    "expansion_for_order",
    "distance_to_optimum",
    "compare_with_solution",
    "solve_from",
    "solve_and_compare",
    # penalty bias
    "ridge_bias_exact_quadratic",
    "smooth_penalty_bias",
    # harness
    "ExperimentConfig",
]
