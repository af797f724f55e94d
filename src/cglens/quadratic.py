"""The strictly convex quadratic q(x) = 1/2 x^T H x + c^T x.

A ``QuadraticProblem`` bundles the SPD matrix H, the linear term c, and
the start point x0 — the start point is part of the problem, not of any
solver, because every construction in this library (iterates, gradient
spans, subspace minimizers) is anchored at x0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import (
    Backend,
    DimensionMismatch,
    LinalgError,
    SpdCheck,
    _Rows,
    _check_symmetric,
    _integer_rows,
    _product,
    backend_of,
    cholesky_spd_check,
    dot,
)


@dataclass(frozen=True, eq=False)
class QuadraticProblem:
    """Immutable problem data (H, c, x0) with H validated symmetric and SPD on
    construction: an asymmetric H raises ``AsymmetricMatrixError``."""

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
        _check_symmetric(self.H)  # the SPD test below reads one triangle
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

    @cached_property
    def _H_rows(self):
        """H as a stack (``linalg._integer_rows``), its primitive integer rows and their
        scales: formed at the first exact product with H and kept with the problem."""
        return _integer_rows(self.H)


def _times_H(P: QuadraticProblem, B) -> np.ndarray:
    """H B for a vector B, or for a matrix B of columns: one ``np.dot`` under
    float64, and on the rows of H that P keeps under rationals, where a stack B
    (``linalg._Rows``, a vector included) gives a stack (``_times_H_rows``)."""
    if isinstance(B, _Rows):
        return B.times(P._H_rows)
    return _product(P._H_rows if P.backend.exact else P.H, B)


def _times_H_rows(P: QuadraticProblem, S):
    """H s_k for each row s_k of a stack (``linalg._stack``), as a stack, from one
    product: under rationals ``_Rows.times`` on the rows of H that P keeps."""
    return S.times(P._H_rows) if P.backend.exact else _times_H(P, S.T).T


def _check_point(P: QuadraticProblem, x: np.ndarray) -> None:
    if x.shape != (P.n,):
        raise DimensionMismatch(f"expected a point of dimension {P.n}, got {x.shape}")
    if backend_of(x) is not P.backend:
        raise LinalgError("point is on a different backend than the problem")


def evaluate(P: QuadraticProblem, x: np.ndarray):
    """q(x) = 1/2 x^T H x + c^T x."""
    _check_point(P, x)
    return dot(x, _times_H(P, x)) / 2 + dot(P.c, x)


def gradient(P: QuadraticProblem, x: np.ndarray) -> np.ndarray:
    """The gradient H x + c."""
    _check_point(P, x)
    out = _times_H(P, x) + P.c
    out.flags.writeable = False
    return out


def exact_minimizer(P: QuadraticProblem) -> np.ndarray:
    """The unique stationary point, solving H x = -c on the factor of H
    that construction validated (``P.spd``).

    Exact under the rational backend: the gradient at the result is the
    zero vector identically.
    """
    return P.spd.solve(-P.c)
