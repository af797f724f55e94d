"""cglens — conjugate gradients under the microscope.

A small laboratory for the method of conjugate gradients on strictly
convex quadratics: run it by three interchangeable characterizations of
the search direction, recompute every iterate with an independent
subspace oracle, relate the directions to minimum-norm points of
gradient affine hulls, and verify each identity the derivation rests on
— in IEEE float64 or in exact rational arithmetic, where every residual
that theory says vanishes must be literally zero.
"""

from .linalg import F64, RATIONAL, LinalgError, dot, norm, norm_sq, scalar_token, vector
from .quadratic import exact_minimizer, gradient
from .engine import DirectionScaling, run_cg
from .oracle import verify_against_trace
from .minnorm import (
    characterization_residuals,
    min_norm_closed_form,
    projection_oracle,
    scaling_relation,
    shortest_residuals_direction,
)
from .verify import check_gradient_orthogonality, run_full_suite
from .problems import ProblemSpec, generate_problem
from .mmio import load_trace

__version__ = "0.1.0"

__all__ = [
    "DirectionScaling",
    "F64",
    "LinalgError",
    "ProblemSpec",
    "RATIONAL",
    "characterization_residuals",
    "check_gradient_orthogonality",
    "dot",
    "exact_minimizer",
    "generate_problem",
    "gradient",
    "load_trace",
    "min_norm_closed_form",
    "norm",
    "norm_sq",
    "projection_oracle",
    "run_cg",
    "run_full_suite",
    "scalar_token",
    "scaling_relation",
    "shortest_residuals_direction",
    "vector",
    "verify_against_trace",
]
