"""Brute-force minimization of q over an affine span.

Given a base point x0 and spanning vectors s_1..s_k, the unique
minimizer of q over {x0 + sum_j v_j s_j} is found directly, by a reduced
solve.  Nothing here iterates: the oracle is the independent yardstick
the conjugate gradient engine is measured against, so it must not share
machinery with it.

The spans x0 + span{s_1..s_k} are nested, so one sweep serves every k.
It orthogonalizes the spanning vectors once, column by column
(``linalg._orthogonalized``), which drops a vector that depends on the
earlier ones (exactly, or to float64 working accuracy), and solves
(Q^T H Q) y = -Q^T g(x0) on the kept columns Q.  These systems are the
leading blocks of one matrix and one right-hand side, so one
natural-order factor serves them all (``linalg.leading_solves``): O(r^2 n
+ r^3) per trace.  The vectors may be dependent, and there may be more
of them than the dimension: a k whose vector was dropped spans what k - 1
spanned and repeats its point, which is unique even where the
coordinates are not.  Q^T H Q is as well conditioned as H, so the
elimination stops only where a pivot fails the SPD test's floor; a k it
cannot serve gets a NaN point, and a NaN can never pass a check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DimensionMismatch,
    LinalgError,
    Scalar,
    _freeze,
    _integer_rows,
    _orthogonalized,
    _product,
    backend_of,
    leading_solves,
    residual_magnitude,
)
from .quadratic import QuadraticProblem, evaluate, gradient
from .engine import CGTrace

# Patched by bench/tracer.py, which still names the deleted pivoted kernel;
# nothing calls it.
PivotedLDLT = leading_solves


@dataclass(frozen=True, eq=False)
class SpanBasis:
    """A base point and spanning vectors for an affine set x0 + span{s_j}.

    The spanning vectors may be dependent, and there may be more of them
    than the dimension: the sweep's orthogonalization drops the dependent
    ones.
    """

    x0: np.ndarray
    spanning_vectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "spanning_vectors", tuple(self.spanning_vectors))
        n = self.x0.shape[0]
        for j, s in enumerate(self.spanning_vectors):
            if s.shape != (n,):
                raise DimensionMismatch(
                    f"spanning vector {j} has shape {s.shape}, expected ({n},)"
                )
            if backend_of(s) is not backend_of(self.x0):
                raise LinalgError(f"spanning vector {j} is on a different backend")

    @property
    def k(self) -> int:
        return len(self.spanning_vectors)


@dataclass(frozen=True, eq=False)
class SubspaceSolution:
    """The minimizer over the affine set, in span coordinates and as a point.

    When the spanning vectors are dependent the coordinates are one
    valid choice among many; the point and objective value are unique.
    """

    coordinates: np.ndarray
    point: np.ndarray
    objective_value: Scalar


def _sweep(P: QuadraticProblem, x0: np.ndarray, vectors) -> list[SubspaceSolution]:
    """The minimizers over x0 + span{s_1..s_k} for k = 0..len(vectors)."""
    backend = P.backend
    q0 = evaluate(P, x0)
    if len(vectors) == 0:
        return [SubspaceSolution(coordinates=backend.empty(0), point=x0, objective_value=q0)]
    Q, T, _, kept = _orthogonalized(vectors)
    m, T = len(kept), T[:, kept]
    if backend.exact:
        # Each q_t over its own denominator spans the same line, and then
        # the reduced matrix has the denominator of H alone, which keeps the
        # integers of its fraction-free elimination small.
        Q, scale = _integer_rows(Q)
        T = T * np.array(scale, dtype=object)
    A, rhs = _product(Q, _product(P.H, Q.T)), -_product(Q, gradient(P, x0))
    solves = leading_solves(A, rhs)
    # Row t of Y holds y_t, the solution on the first t kept columns; a row
    # the elimination did not reach (float64 only) is NaN.
    Y = backend.empty((m + 1, m))
    Y[len(solves) + 1 :] = np.nan
    for t, y in enumerate(solves, start=1):
        Y[t, :t] = y
    points = _freeze(x0 + _product(Y, Q))
    coordinates = _freeze(_product(Y, T.T))
    # q(x0 + sum_t y_t q_t) = q(x0) - rhs^T y + 1/2 y^T A y = q(x0) - 1/2 y^T rhs
    # when A y = rhs: O(k) per point where evaluating q costs O(n^2).
    objectives = q0 - backend.scalar("1/2") * _product(Y, rhs)
    kept_before = np.cumsum([0] + [j in kept for j in range(len(vectors))])
    return [
        SubspaceSolution(coordinates=coordinates[t, :k], point=points[t], objective_value=objectives[t])
        for k, t in enumerate(kept_before)
    ]


def minimize_on_affine_span(P: QuadraticProblem, B: SpanBasis) -> SubspaceSolution:
    """Minimize q over x0 + span{s_j}: the last solution of the sweep.

    The gradient of q at the result is orthogonal to every spanning
    vector — exactly so under the rational backend.
    """
    if B.x0.shape != (P.n,):
        raise DimensionMismatch(f"base point has shape {B.x0.shape}, expected ({P.n},)")
    if backend_of(B.x0) is not P.backend:
        raise LinalgError("span basis is on a different backend than the problem")
    return _sweep(P, B.x0, B.spanning_vectors)[-1]


def trace_oracle(P: QuadraticProblem, trace: CGTrace) -> list[SubspaceSolution]:
    """The minimizers over x_0 + span{g_0..g_{k-1}} for k = 1..r of a trace.

    Each trace iterate is recomputed independently from its gradient
    history, by the one sweep of the module docstring.  The trace must
    come from P: its backend must match, and its first and last recorded
    gradients must match H x + c.
    """
    if trace.scalar_backend != P.backend.name:
        raise LinalgError(
            f"trace backend {trace.scalar_backend!r} does not match problem "
            f"backend {P.backend.name!r}"
        )
    records = trace.records
    if records[0].x_k.shape != (P.n,):
        raise DimensionMismatch("trace dimension does not match problem")
    # Recompute the first and last recorded gradients from the problem
    # data; both must match (the first alone is blind to a wrong H
    # whenever x0 = 0, where the gradient is just c).
    for rec in {records[0].k: records[0], records[-1].k: records[-1]}.values():
        g = gradient(P, rec.x_k)
        mismatch = residual_magnitude(g - rec.g_k)
        limit = 0 if P.backend.exact else 1e-12 * max(1.0, float(residual_magnitude(g)))
        if mismatch > limit:
            raise LinalgError("trace gradients do not come from this problem")
    return _sweep(P, records[0].x_k, [rec.g_k for rec in records[: trace.r]])[1:]


def verify_against_trace(P: QuadraticProblem, trace: CGTrace) -> list:
    """Deviations ||x_k - oracle_k|| for k = 1..r, oracle over span{g_0..g_{k-1}}.

    Under the rational backend every deviation is exactly zero.
    """
    solutions = trace_oracle(P, trace)
    return [
        residual_magnitude(rec.x_k - sol.point)
        for rec, sol in zip(trace.records[1:], solutions)
    ]
