"""Brute-force minimization of q over an affine span.

Given a base point x0 and spanning vectors s_1..s_k, the unique minimizer of q
over {x0 + sum_j v_j s_j} is found directly, by a reduced solve.  Nothing here
iterates: the oracle is the independent yardstick the conjugate gradient engine
is measured against, so it must not share machinery with it.

The spans are nested, so one sweep serves every k.  It orthogonalizes the
spanning vectors once (``linalg._orthogonalized``), which drops a vector that
depends on the earlier ones (exactly, or to float64 working accuracy), and
solves (Q^T H Q) y = -Q^T g(x0) on the kept columns Q.  These systems are the
leading blocks of one matrix, so one natural-order factor serves them all, and
one call (``linalg._leading_rows``) gives the points, coordinates and
objectives: O(r^2 n + r^3) per trace.  Under rationals Q is a stack of
primitive integer rows (``linalg._Rows``), so the reduced matrix has the
denominators of H alone, and a trace's points are running sums of Q's rows
compared with x_k on integers, with no ``Fraction`` formed.  A k whose vector
was dropped repeats the point of k - 1, which is unique even where the
coordinates are not.  The elimination stops only where a pivot fails the SPD
test's floor; a k it cannot serve gets a NaN point, which never passes a check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DimensionMismatch,
    LinalgError,
    Scalar,
    _Rows,
    _fractions,
    _freeze,
    _gate,
    _leading_rows,
    _orthogonalized,
    _product,
    _row_residuals,
    _stack,
    _symmetric_table,
    backend_of,
    leading_solves,
    residual_magnitude,
)
from .quadratic import QuadraticProblem, _check_point, _times_H_rows, evaluate, gradient
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


def _sweep(P: QuadraticProblem, x0: np.ndarray, g0: np.ndarray, vectors, basis=None,
           points_only=False):
    """The minimizers over x0 + span{s_1..s_k} for k = 0..len(vectors), or with
    ``points_only`` just their points, as rows: under rationals a stack, x0 plus
    running sums of Q's integer rows.  ``g0`` is ``gradient(P, x0)``, and ``basis``
    is ``_orthogonalized(vectors)`` if the caller already has it.  ``vectors`` is a
    (k, n) array or a stack, or converts to an array, for any k; with none, the one
    point is x0 + 0."""
    Q, T, _, kept = _orthogonalized(vectors) if basis is None else basis
    T = T[:, kept]
    A, rhs = _symmetric_table(Q, _times_H_rows(P, Q)), -_product(Q, g0)
    rows = np.cumsum([0] + [j in kept for j in range(len(T))])
    if points_only and P.backend.exact:  # every leading block of an exact A is solved
        x0 = _stack(x0, P.backend)
        return _Rows.stacked([x0] + [x0 + y for y in _leading_rows(A, rhs, Q)], P.n)[rows]
    # Row t of Y is [Q^T y | T y | rhs^T y] for y = y_t, the solution on the first
    # t kept columns: the moves, the coordinates and what the objectives need.  A
    # row the elimination did not reach (float64 only) is NaN.
    V = Q if points_only else np.hstack((_fractions(Q), T.T, rhs[:, None]))
    solved = _leading_rows(A, rhs, V)
    Y = P.backend.empty((len(A) + 1, V.shape[1]))
    Y[1 : len(solved) + 1], Y[len(solved) + 1 :] = solved, np.nan
    points = _freeze(x0 + Y[:, : P.n])
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
    vectors = np.array(B.spanning_vectors, dtype=B.x0.dtype).reshape(-1, P.n)
    return _sweep(P, B.x0, gradient(P, B.x0), vectors)[-1]


def _check_trace_fits(P: QuadraticProblem, trace: CGTrace) -> None:
    """Raise ``LinalgError`` unless the trace is on P's backend, and ``DimensionMismatch``
    unless its x_0, whose shape ``CGTrace`` gives every vector, has P's dimension."""
    if trace.scalar_backend != P.backend.name:
        raise LinalgError(
            f"trace backend {trace.scalar_backend!r} does not match problem "
            f"backend {P.backend.name!r}"
        )
    if trace.records[0].x_k.shape != (P.n,):
        raise DimensionMismatch("trace dimension does not match problem")


def _history(P: QuadraticProblem, trace: CGTrace) -> tuple:
    """x_0, H x_0 + c and the stack (``CGTrace._stacks``) of g_0..g_{r-1} of a trace
    that must come from P: its backend must match, and its first and last recorded
    gradients must match H x + c (the first alone is blind to a wrong H where x_0 = 0)."""
    _check_trace_fits(P, trace)
    records, gates = trace.records, {}
    for rec in {records[0].k: records[0], records[-1].k: records[-1]}.values():
        g = gates[rec.k] = gradient(P, rec.x_k)
        _gate(P.backend, residual_magnitude(g - rec.g_k),
              lambda: 1e-12 * max(1.0, float(residual_magnitude(g))),
              "trace gradients do not come from this problem")
    return records[0].x_k, gates[records[0].k], trace._stacks[1][: trace.r]


def trace_oracle(P: QuadraticProblem, trace: CGTrace) -> list[SubspaceSolution]:
    """The minimizers over x_0 + span{g_0..g_{k-1}} for k = 1..r of a trace that
    comes from P (``_history``), recomputed by the one sweep of the module docstring."""
    return _sweep(P, *_history(P, trace))[1:]


def verify_against_trace(P: QuadraticProblem, trace: CGTrace, *, _basis=None) -> list:
    """Deviations ||x_k - oracle_k|| for k = 1..r (none at r = 0), oracle over
    span{g_0..g_{k-1}}, from the oracle's points alone.  Under the rational backend
    every deviation is exactly zero, proved on the integer rows of x_k and of the
    points (``linalg._row_residuals``).  ``_basis`` is ``linalg._orthogonalized`` of
    g_0..g_{r-1}, if the caller already has it.
    """
    points = _sweep(P, *_history(P, trace), _basis, points_only=True)[1:]
    return list(_row_residuals(trace._stacks[0][1:], (1, points)))
