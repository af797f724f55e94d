"""The strictly convex quadratic q(x) = 1/2 x^T H x + c^T x.

A ``QuadraticProblem`` bundles the SPD matrix H, the linear term c, and
the start point x0 — the start point is part of the problem, not of any
solver, because every construction in this library (iterates, gradient
spans, subspace minimizers) is anchored at x0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    Backend,
    DimensionMismatch,
    LinalgError,
    SpdCheck,
    _Rows,
    _check_symmetric,
    _matrix_rows,
    _product,
    backend_of,
    cholesky_spd_check,
    dot,
)


@dataclass(frozen=True, eq=False)
class QuadraticProblem:
    """Immutable problem data (H, c, x0) with H validated symmetric and SPD on
    construction: an asymmetric H raises ``AsymmetricMatrixError``.  A rational H is
    read as integers once (``_H_rows``), for both tests and every exact product."""

    H: np.ndarray
    c: np.ndarray
    x0: np.ndarray
    label: str | None = None
    spd: SpdCheck = field(init=False, repr=False)
    _H_rows: _Rows = field(init=False, repr=False)  # set under rationals alone

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
        H = _matrix_rows(self.H) if backend.exact else self.H
        if backend.exact:
            object.__setattr__(self, "_H_rows", H)
        _check_symmetric(H._over_one_denominator[0] if backend.exact else H, shown=self.H)
        check = cholesky_spd_check(H)
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


def _times_H(P: QuadraticProblem, B):
    """H b for a vector B, or H b_k for each row b_k of a stack B (``linalg._stack``),
    as rows of the same form, from one product: ``np.dot`` under float64, and under
    rationals on the rows of H that P keeps, ``_Rows.times`` for a stack of rows."""
    if isinstance(B, _Rows):
        return B.times(P._H_rows)
    H = P._H_rows if P.backend.exact else P.H
    return _product(H, B) if B.ndim == 1 else _product(H, B.T).T


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
