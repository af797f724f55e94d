"""The strictly convex quadratic q(x) = 1/2 x^T H x + c^T x.

A ``QuadraticProblem`` bundles the SPD matrix H, the linear term c, and
the start point x0 — the start point is part of the problem, not of any
solver, because every construction in this library (iterates, gradient
spans, subspace minimizers) is anchored at x0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .linalg import (
    Backend,
    DimensionMismatch,
    LinalgError,
    SpdCheck,
    _product,
    backend_of,
    cholesky_spd_check,
    dot,
    mat_vec,
)


@dataclass(frozen=True, eq=False)
class QuadraticProblem:
    """Immutable problem data (H, c, x0) with H validated SPD on construction."""

    H: np.ndarray
    c: np.ndarray
    x0: np.ndarray
    label: str | None = None
    spd: SpdCheck = field(init=False, repr=False)

    def __post_init__(self):
        n = self.H.shape[0]
        if self.H.shape != (n, n):
            raise DimensionMismatch("H must be square")
        if self.c.shape != (n,) or self.x0.shape != (n,):
            raise DimensionMismatch(
                f"c and x0 must have dimension {n}, got {self.c.shape} and {self.x0.shape}"
            )
        backend = backend_of(self.H)
        if backend_of(self.c) is not backend or backend_of(self.x0) is not backend:
            raise LinalgError("H, c, and x0 must live on the same backend")
        check = cholesky_spd_check(self.H)
        if not check.is_spd:
            raise LinalgError(
                f"H is not positive definite: pivot {check.failed_pivot + 1} "
                f"is {check.pivots[check.failed_pivot]}"
            )
        object.__setattr__(self, "spd", check)

    @property
    def n(self) -> int:
        return self.H.shape[0]

    @property
    def backend(self) -> Backend:
        return backend_of(self.H)


def _check_point(P: QuadraticProblem, x: np.ndarray) -> None:
    if x.shape != (P.n,):
        raise DimensionMismatch(f"expected a point of dimension {P.n}, got {x.shape}")
    if backend_of(x) is not P.backend:
        raise LinalgError("point is on a different backend than the problem")


def evaluate(P: QuadraticProblem, x: np.ndarray):
    """q(x) = 1/2 x^T H x + c^T x."""
    _check_point(P, x)
    half = Fraction(1, 2) if P.backend.exact else 0.5
    return half * dot(x, mat_vec(P.H, x)) + dot(P.c, x)


def gradient(P: QuadraticProblem, x: np.ndarray) -> np.ndarray:
    """The gradient H x + c."""
    _check_point(P, x)
    out = _product(P.H, x) + P.c
    out.flags.writeable = False
    return out


def exact_minimizer(P: QuadraticProblem) -> np.ndarray:
    """The unique stationary point, solving H x = -c on the factor of H
    that construction validated (``P.spd``).

    Exact under the rational backend: the gradient at the result is the
    zero vector identically.
    """
    return P.spd.solve(-P.c)
