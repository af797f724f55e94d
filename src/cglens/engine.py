"""Conjugate gradients with full iteration tracing.

The solver exists to be inspected, not to be fast: every iterate,
gradient, direction, and step length is recorded, gradients are
recomputed fresh as H x + c each iteration (never updated recursively),
and the search direction can be produced by three interchangeable
characterizations —

* ``recursive``: p_k from p_{k-1} and the gradient-norm ratio,
* ``gradient_sum``: p_k = c_k * sum_i g_i / (g_i^T g_i) over the whole
  gradient history,
* ``shortest_residuals``: p_k = -ghat_k, the negated minimum-norm point
  of the affine hull of the gradient history, which for CG's orthogonal
  gradients is sum_i g_i / (g_i^T g_i) over sum_i 1 / (g_i^T g_i).

The two history forms read p_k off one pair of running sums, updated
once per step, and do not re-read the history.  The engine shares no
code with the min-norm module, whose array sweeps recompute ghat from the
recorded gradients as an independent check.  All three forms generate
identical iterate sequences (exactly so under the rational backend);
the verification suite checks precisely that.

One loop serves both backends.  Under rationals x, g, p and the running sum
are ``linalg._Rows`` vectors (``linalg._stack``), a ``Fraction`` times a
primitive integer row, so each vector operation pays one gcd, not one per
entry.  A record holds each vector as its canonical ``Fraction`` array, formed
once, and the array keeps the rows for the checks (``linalg._recorded``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Union

import numpy as np

from .linalg import (RATIONAL, Backend, DimensionMismatch, LinalgError, Scalar, _freeze, _recorded,
                     _stack, dot, norm_sq)
from .quadratic import QuadraticProblem, _check_point, _times_H

DIRECTION_MODES = ("recursive", "gradient_sum", "shortest_residuals")
SCALING_MODES = ("cg_standard", "unit", "custom")
TERMINATION_REASONS = ("gradient_zero", "tolerance_met", "max_iter", "breakdown")
F64_EXTRA_STEPS = 5  # a float64 run's steps past n: run_cg's default, the termination bound


class BreakdownError(RuntimeError):
    """The curvature p^T H p was not positive; the iteration cannot continue."""

    def __init__(self, message: str, curvature=None):
        super().__init__(message)
        self.curvature = curvature


@dataclass(frozen=True)
class DirectionScaling:
    """The per-iteration scale c_k of the gradient-sum direction.

    ``cg_standard`` takes c_k = -g_k^T g_k (the choice that makes the
    direction obey the classical two-term recursion with coefficient
    beta_k), ``unit`` takes c_k = -1, and ``custom`` evaluates a user
    value (constant or callable of k).  Custom values must be nonzero
    and are sign-normalized to negative, which leaves the iterates
    unchanged but keeps every step length positive.
    """

    mode: str = "cg_standard"
    custom_value: Union[Scalar, int, str, Callable[[int], Scalar], None] = None

    def __post_init__(self):
        if self.mode not in SCALING_MODES:
            raise LinalgError(f"unknown scaling mode {self.mode!r}")
        if self.mode == "custom" and self.custom_value is None:
            raise LinalgError("custom scaling requires a value")

    def value_for(self, k: int, grad_norm_sq: Scalar, backend: Backend) -> Scalar:
        if self.mode == "cg_standard":
            return -grad_norm_sq
        if self.mode == "unit":
            return -backend.one
        raw = self.custom_value(k) if callable(self.custom_value) else self.custom_value
        c = backend.scalar(raw)
        if c == 0:
            raise LinalgError(f"custom direction scaling is zero at iteration {k}")
        return -abs(c)


@dataclass(frozen=True, eq=False)
class IterateRecord:
    """One row of a trace: the state at iteration k.

    ``p_k``, ``theta_k`` are absent (None) on the terminal record;
    ``beta_k`` is absent at k = 0; ``c_k`` is the direction scale in
    force when a direction was produced.  A breakdown record may carry
    the offending ``p_k`` without a ``theta_k``.
    """

    k: int
    x_k: np.ndarray
    g_k: np.ndarray
    grad_norm_sq: Scalar
    p_k: np.ndarray | None = None
    theta_k: Scalar | None = None
    beta_k: Scalar | None = None
    c_k: Scalar | None = None


@dataclass(frozen=True, eq=False)
class CGTrace:
    """A complete run: consecutive records from k = 0 through k = r.

    ``termination_index`` r counts completed steps; the final record is
    the terminal state.  When the gradient reached zero, r never exceeds
    the dimension n.  Only the shapes ``run_cg`` writes are accepted: every
    record has x_k and g_k, each record k < r has p_k, theta_k and c_k, and
    the final record has no theta_k, so the steps are exactly records[:r], and
    every vector has the shape of x_0.
    """

    problem_id: str
    scalar_backend: str
    records: tuple[IterateRecord, ...]
    termination_index: int
    termination_reason: str
    direction_mode: str = "recursive"
    scaling_mode: str = "cg_standard"

    def __post_init__(self):
        for value, known, what in ((self.termination_reason, TERMINATION_REASONS, "termination reason"),
                                   (self.direction_mode, DIRECTION_MODES, "direction mode"),
                                   (self.scaling_mode, SCALING_MODES, "scaling mode")):
            if value not in known:
                raise LinalgError(f"unknown {what} {value!r}")
        if not self.records:
            raise LinalgError("a trace needs at least the record of k = 0")
        if [rec.k for rec in self.records] != list(range(len(self.records))):
            raise LinalgError("trace records must be consecutive from k = 0")
        if self.termination_index != len(self.records) - 1:
            raise LinalgError("termination index must match the final record")
        for rec in self.records:
            if rec.x_k is None or rec.g_k is None:
                raise LinalgError(f"record {rec.k} needs x_k and g_k")
            vectors = (self.records[0].x_k, rec.x_k, rec.g_k, rec.p_k)
            if len({np.shape(v) for v in vectors if v is not None}) > 1:
                raise DimensionMismatch(f"record {rec.k} has a vector whose length is not x_0's")
            if rec.k < self.r and any(v is None for v in (rec.p_k, rec.theta_k, rec.c_k)):
                raise LinalgError(f"record {rec.k} needs p_k, theta_k and c_k")
            if rec.k == self.r and rec.theta_k is not None:
                raise LinalgError(f"the final record {rec.k} has a step length theta_k")

    @property
    def r(self) -> int:
        return self.termination_index

    @property
    def converged(self) -> bool:
        """Whether the run stopped because its gradient vanished (to ``tol`` in float64)."""
        return self.termination_reason in ("gradient_zero", "tolerance_met")

    def gradients(self) -> list[np.ndarray]:
        return [rec.g_k for rec in self.records]

    @cached_property
    def _stacks(self) -> tuple:
        """(X, G, P): x_k and g_k of every record and p_k of every step, for any k,
        as stacks (``linalg._stack``): frozen (k, n) arrays under float64, and under
        rationals the rows kept with each vector (``linalg._recorded``)."""
        m, x0 = len(self.records), self.records[0].x_k
        vectors = ([rec.x_k for rec in self.records] + self.gradients()
                   + [rec.p_k for rec in self.records[: self.r]])
        if x0.dtype == object:
            S = _stack(vectors, RATIONAL)
            return S[:m], S[m : 2 * m], S[2 * m :]
        return tuple(_freeze(np.array(v, dtype=x0.dtype).reshape(-1, len(x0)))
                     for v in (vectors[:m], vectors[m : 2 * m], vectors[2 * m :]))


def _step_budget(P: QuadraticProblem) -> int:
    """n under rationals, where termination within n steps is a theorem, and
    n + F64_EXTRA_STEPS under float64."""
    return P.n if P.backend.exact else P.n + F64_EXTRA_STEPS


def step_length(P: QuadraticProblem, g_k: np.ndarray, p_k: np.ndarray) -> Scalar:
    """Exact-linesearch step theta = -g_k^T p_k / (p_k^T H p_k).

    The returned theta zeroes the directional derivative at the new
    point: p_k^T (g_k + theta H p_k) = 0.  Non-positive curvature raises
    ``BreakdownError`` — impossible for SPD H and nonzero p_k, so it
    signals corrupted data or catastrophic rounding.
    """
    _check_point(P, p_k)
    curvature = dot(p_k, _times_H(P, p_k))
    if not curvature > 0:
        raise BreakdownError(
            f"direction curvature p^T H p = {curvature} is not positive",
            curvature=curvature,
        )
    return -dot(g_k, p_k) / curvature


def run_cg(
    P: QuadraticProblem,
    tol: float = 1e-10,
    max_iter: int | None = None,
    direction_mode: str = "recursive",
    scaling: DirectionScaling | None = None,
) -> CGTrace:
    """Run the method from P.x0 and record everything.

    Stops when the gradient vanishes (exactly, under the rational
    backend; under float64 when ||g_k|| <= tol * max(||g_0||, 1)), or after
    ``max_iter`` completed steps (default ``_step_budget``), or on curvature
    breakdown.  ``tol`` must satisfy
    0 <= tol < inf on both backends; the rational backend ignores it.

    ``direction_mode`` selects among the three characterizations; the
    ``scaling`` applies to the gradient-history forms and, through the
    equivalent rescaled recursion, to the recursive form as well.  The
    trace's ``problem_id`` is ``P.label``, or "unlabeled" without one.
    """
    if direction_mode not in DIRECTION_MODES:
        raise LinalgError(f"unknown direction mode {direction_mode!r}")
    scaling = DirectionScaling() if scaling is None else scaling
    backend = P.backend
    if max_iter is None:
        max_iter = _step_budget(P)
    if max_iter < 0:
        raise LinalgError("max_iter must be nonnegative")
    if not 0 <= tol < math.inf:
        raise LinalgError(f"tol must be finite and nonnegative, got {tol}")

    records: list[IterateRecord] = []
    x, c = _stack(P.x0, backend), _stack(P.c, backend)
    g = _times_H(P, x) + c
    gns = norm_sq(g)
    # Read under float64 only: an exact ||g_0||^2 may lie outside the float range.
    g0_norm = None if backend.exact else math.sqrt(float(gns))
    p_prev: np.ndarray | None = None
    c_prev: Scalar | None = None
    gns_prev: Scalar | None = None
    # The history forms' running sums over i <= k of g_i / (g_i^T g_i)
    # and of 1 / (g_i^T g_i).
    total, weight = _stack(backend.empty(P.n), backend), backend.zero
    k = 0

    while True:
        beta = None if k == 0 else gns / gns_prev
        if gns == 0:
            reason = "gradient_zero"
        elif not backend.exact and math.sqrt(float(gns)) <= tol * max(g0_norm, 1.0):
            reason = "tolerance_met"
        elif k == max_iter:
            reason = "max_iter"
        else:
            reason = None
        if reason is not None:
            records.append(IterateRecord(k, _recorded(x), _recorded(g), gns, beta_k=beta))
            break

        c_k = scaling.value_for(k, gns, backend)
        if direction_mode == "recursive":
            # The recursive form under general scaling:
            #   p_k = (c_k / g_k^T g_k) g_k + (c_k / c_{k-1}) p_{k-1}
            # which is the classical -g_k + beta_k p_{k-1} when
            # c_k = -g_k^T g_k.
            if p_prev is None:
                p = (c_k / gns) * g
            else:
                p = (c_k / gns) * g + (c_k / c_prev) * p_prev
        else:
            total = total + g / gns
            if direction_mode == "gradient_sum":
                p = c_k * total
            else:
                # p = -ghat, ungated: a history that drifts from
                # orthogonality is the checks' to measure, not a reason to
                # stop the run.  p^T g_i = -ghat^T ghat for every i, so the
                # direction's common inner-product value is -(p^T p).
                weight = weight + 1 / gns
                p = total / -weight
                c_k = -norm_sq(p)

        try:
            theta = step_length(P, g, p)
        except BreakdownError:
            records.append(IterateRecord(k, _recorded(x), _recorded(g), gns, p_k=_recorded(p),
                                         beta_k=beta, c_k=c_k))
            reason = "breakdown"
            break

        records.append(IterateRecord(k, _recorded(x), _recorded(g), gns, p_k=_recorded(p),
                                     theta_k=theta, beta_k=beta, c_k=c_k))
        x = x + theta * p
        g = _times_H(P, x) + c
        gns_prev, gns = gns, norm_sq(g)
        p_prev, c_prev = p, c_k
        k += 1

    return CGTrace(
        problem_id=P.label or "unlabeled",
        scalar_backend=backend.name,
        records=tuple(records),
        termination_index=records[-1].k,
        termination_reason=reason,
        direction_mode=direction_mode,
        scaling_mode=scaling.mode,
    )

