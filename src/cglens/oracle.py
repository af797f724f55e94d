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
natural-order factor serves them all, on both backends, and one call
(``linalg._leading_rows``) gives the points, coordinates and objectives:
O(r^2 n + r^3) per trace.  Under rationals they are running sums off the
factor, with no product of the solutions and Q, whose rows are integers (the
orthogonalization stores them so): the reduced matrix has the denominator of
H alone, which keeps the Fractions of its elimination small.  The vectors may
be dependent, and there may be more of them than the dimension: a k whose
vector was dropped spans what k - 1 spanned and repeats its point, which
is unique even where the coordinates are not.  Q^T H Q is as well
conditioned as H, so the elimination stops only where a pivot fails the
SPD test's floor; a k it cannot serve gets a NaN point, and a NaN can
never pass a check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DimensionMismatch,
    LinalgError,
    Scalar,
    _freeze,
    _gate,
    _leading_rows,
    _orthogonalized,
    _product,
    _row_residuals,
    _stack,
    backend_of,
    leading_solves,
    residual_magnitude,
)
from .quadratic import QuadraticProblem, _check_point, _times_H, evaluate, gradient
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


def _sweep(P: QuadraticProblem, x0: np.ndarray, vectors, basis=None, points_only=False):
    """The minimizers over x0 + span{s_1..s_k} for k = 0..len(vectors), or with
    ``points_only`` (and a vector) just their points, as rows; ``basis`` is
    ``_orthogonalized(vectors)`` if the caller already has it."""
    backend = P.backend
    if len(vectors) == 0:
        return [SubspaceSolution(coordinates=backend.empty(0), point=x0,
                                 objective_value=evaluate(P, x0))]
    Q, T, _, kept = _orthogonalized(vectors) if basis is None else basis
    T = T[:, kept]
    A, rhs = _product(Q, _times_H(P, Q.T)), -_product(Q, gradient(P, x0))
    # Row t of Y is [Q^T y | T y | rhs^T y] for y = y_t, the solution on the
    # first t kept columns, summed off the factor: the moves, the coordinates
    # and what the objectives need.  A row the elimination did not reach
    # (float64 only) is NaN.
    V = Q if points_only else np.hstack((Q, T.T, rhs[:, None]))
    solved = _leading_rows(A, rhs, V)
    Y = backend.empty((len(A) + 1, V.shape[1]))
    Y[1 : len(solved) + 1], Y[len(solved) + 1 :] = solved, np.nan
    points = _freeze(x0 + Y[:, : P.n])
    rows = np.cumsum([0] + [j in kept for j in range(len(vectors))])
    if points_only:
        return points[rows]
    coordinates = _freeze(Y[:, P.n : -1])
    # q(x0 + sum_t y_t q_t) = q(x0) - rhs^T y + 1/2 y^T A y = q(x0) - 1/2 y^T rhs
    # when A y = rhs: O(k) per point where evaluating q costs O(n^2).
    objectives = evaluate(P, x0) - Y[:, -1] / 2
    return [
        SubspaceSolution(coordinates=coordinates[t, :k], point=points[t], objective_value=objectives[t])
        for k, t in enumerate(rows)
    ]


def minimize_on_affine_span(P: QuadraticProblem, B: SpanBasis) -> SubspaceSolution:
    """Minimize q over x0 + span{s_j}: the last solution of the sweep.

    The gradient of q at the result is orthogonal to every spanning
    vector — exactly so under the rational backend.
    """
    _check_point(P, B.x0)
    return _sweep(P, B.x0, B.spanning_vectors)[-1]


def _check_trace_fits(P: QuadraticProblem, trace: CGTrace) -> None:
    """Raise ``LinalgError`` unless the trace is on P's backend, and
    ``DimensionMismatch`` unless each of its vectors has P's dimension."""
    if trace.scalar_backend != P.backend.name:
        raise LinalgError(
            f"trace backend {trace.scalar_backend!r} does not match problem "
            f"backend {P.backend.name!r}"
        )
    for rec in trace.records:
        if any(v is not None and v.shape != (P.n,) for v in (rec.x_k, rec.g_k, rec.p_k)):
            raise DimensionMismatch("trace dimension does not match problem")


def trace_oracle(
    P: QuadraticProblem, trace: CGTrace, *, _basis=None, _points_only=False
) -> list[SubspaceSolution]:
    """The minimizers over x_0 + span{g_0..g_{k-1}} for k = 1..r of a trace.

    Each trace iterate is recomputed independently from its gradient
    history, by the one sweep of the module docstring.  The trace must
    come from P: its backend must match, and its first and last recorded
    gradients must match H x + c.  ``_basis`` and ``_points_only`` are
    ``_sweep``'s, for ``verify_against_trace``.
    """
    _check_trace_fits(P, trace)
    records = trace.records
    # Recompute the first and last recorded gradients from the problem
    # data; both must match (the first alone is blind to a wrong H
    # whenever x0 = 0, where the gradient is just c).
    for rec in {records[0].k: records[0], records[-1].k: records[-1]}.values():
        g = gradient(P, rec.x_k)
        _gate(P.backend, residual_magnitude(g - rec.g_k),
              lambda: 1e-12 * max(1.0, float(residual_magnitude(g))),
              "trace gradients do not come from this problem")
    gradients = [rec.g_k for rec in records[: trace.r]]
    return _sweep(P, records[0].x_k, gradients, _basis, _points_only)[1:]


def verify_against_trace(P: QuadraticProblem, trace: CGTrace, *, _basis=None) -> list:
    """Deviations ||x_k - oracle_k|| for k = 1..r, oracle over span{g_0..g_{k-1}}.

    Under the rational backend every deviation is exactly zero, proved on
    integer rows (``linalg._row_residuals``).  Only the oracle's points are
    formed, not its coordinates or objective values.
    ``_basis`` is ``linalg._orthogonalized`` of g_0..g_{r-1}, if the caller
    already has it.
    """
    points = trace_oracle(P, trace, _basis=_basis, _points_only=True)
    if not trace.r:
        return []
    X = _stack([rec.x_k for rec in trace.records[1:]], P.backend)
    return list(_row_residuals(X, (1, _stack(points, P.backend))))
