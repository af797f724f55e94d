"""Brute-force minimization of q over an affine span.

Given a base point x0 and spanning vectors s_1..s_k, the unique
minimizer of q over {x0 + sum_j v_j s_j} is found by forming the reduced
k-by-k system (S^T H S) v = -S^T g(x0) and solving it directly.  Nothing
here iterates: the oracle is the independent yardstick the conjugate
gradient engine is measured against, so it must not share machinery
with it.

Spanning vectors may be dependent (the reduced matrix is then singular
but always consistent, since it is S^T H S with H positive definite);
the pivoted solver returns one coordinate vector and the resulting
*point* is still unique.

Along a trace the spans are nested, so every reduced system is a leading
block of the one r-by-r matrix S^T (H S), and its right-hand side is a
prefix of -S^T g(x0).  ``trace_oracle`` forms that matrix once and
factors it once, in natural order (``linalg.leading_solves``), which
factors every leading block at the same time; it reads q at each point
from the reduced system: O(r^3) per trace instead of O(r^4).  The first
pivot at or below the margin (a dependent gradient, or nearly so in
float64) ends the sweep: from that k on, every k takes the one-shot
pivoted solve of ``minimize_on_affine_span``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DimensionMismatch,
    LinalgError,
    PivotedLDLT,
    Scalar,
    _product,
    backend_of,
    leading_solves,
    residual_magnitude,
)
from .quadratic import QuadraticProblem, evaluate, gradient
from .engine import CGTrace


@dataclass(frozen=True, eq=False)
class SpanBasis:
    """A base point and spanning vectors for an affine set x0 + span{s_j}.

    The spanning vectors may be dependent, and there may be more of them
    than the dimension; rank handling is the solver's job.
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


def minimize_on_affine_span(P: QuadraticProblem, B: SpanBasis) -> SubspaceSolution:
    """Minimize q over x0 + span{s_j} by a direct reduced solve.

    The gradient of q at the result is orthogonal to every spanning
    vector — exactly so under the rational backend.
    """
    backend = P.backend
    if B.x0.shape != (P.n,):
        raise DimensionMismatch(f"base point has shape {B.x0.shape}, expected ({P.n},)")
    if backend_of(B.x0) is not backend:
        raise LinalgError("span basis is on a different backend than the problem")
    k = B.k
    if k == 0:
        return SubspaceSolution(
            coordinates=backend.empty(0),
            point=B.x0,
            objective_value=evaluate(P, B.x0),
        )

    S = np.column_stack(B.spanning_vectors)
    g0 = gradient(P, B.x0)
    A = _product(S.T, _product(P.H, S))
    rhs = -_product(S.T, g0)

    v, consistent = PivotedLDLT(A).solve(rhs)
    if not consistent:
        # Unreachable for A = S^T H S with SPD H; defensive only.
        raise LinalgError("reduced system is inconsistent; H may not be SPD")

    point = B.x0 + _product(S, v)
    point.flags.writeable = False
    return SubspaceSolution(coordinates=v, point=point, objective_value=evaluate(P, point))


def trace_oracle(P: QuadraticProblem, trace: CGTrace) -> list[SubspaceSolution]:
    """The minimizers over x_0 + span{g_0..g_{k-1}} for k = 1..r of a trace.

    Each trace iterate is recomputed independently from its gradient
    history, by the one-factor sweep of the module docstring.  The trace
    must come from P: its backend must match, and its first and last
    recorded gradients must match H x + c.
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

    r, x0 = trace.r, records[0].x_k
    if r == 0:
        return []
    gradients = [rec.g_k for rec in records[:r]]
    S = np.column_stack(gradients)
    A = _product(S.T, _product(P.H, S))
    rhs = -_product(S.T, gradient(P, x0))
    # q(x0 + S v) = q(x0) - rhs^T v + 1/2 v^T A v = q(x0) - 1/2 v^T rhs when
    # A v = rhs: O(k) per point where evaluating q costs O(n^2).
    q0, half = evaluate(P, x0), P.backend.scalar("1/2")
    solutions = []
    for v in leading_solves(A, rhs):
        k = v.shape[0]
        point = x0 + _product(S[:, :k], v)
        point.flags.writeable = False
        solutions.append(SubspaceSolution(
            coordinates=v, point=point, objective_value=q0 - half * _product(v, rhs[:k])
        ))
    for k in range(len(solutions) + 1, r + 1):
        solutions.append(
            minimize_on_affine_span(P, SpanBasis(x0=x0, spanning_vectors=gradients[:k]))
        )
    return solutions


def verify_against_trace(P: QuadraticProblem, trace: CGTrace) -> list:
    """Deviations ||x_k - oracle_k|| for k = 1..r, oracle over span{g_0..g_{k-1}}.

    Under the rational backend every deviation is exactly zero.
    """
    solutions = trace_oracle(P, trace)
    return [
        residual_magnitude(rec.x_k - sol.point)
        for rec, sol in zip(trace.records[1:], solutions)
    ]
