"""Conjugate gradients with full iteration tracing.

The solver exists to be inspected, not to be fast: every iterate,
gradient, direction, and step length is recorded, gradients are
recomputed fresh as H x + c each iteration (never updated recursively),
and the search direction can be produced by three interchangeable
characterizations —

* ``recursive``: p_k from p_{k-1} and the gradient-norm ratio,
* ``gradient_sum``: p_k = c_k * sum_i g_i / (g_i^T g_i) over the whole
  gradient history,
* ``shortest_residuals``: p_k along the negated minimum-norm point of
  the affine hull of the gradient history.

All three generate identical iterate sequences (exactly so under the
rational backend); the verification suite checks precisely that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .linalg import BACKENDS, Backend, LinalgError, Scalar, backend_of, dot, mat_vec, norm_sq
from .quadratic import QuadraticProblem, gradient

DIRECTION_MODES = ("recursive", "gradient_sum", "shortest_residuals")
TERMINATION_REASONS = ("gradient_zero", "tolerance_met", "max_iter", "breakdown")


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
        if self.mode not in ("cg_standard", "unit", "custom"):
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
    the dimension n.
    """

    problem_id: str
    scalar_backend: str
    records: tuple[IterateRecord, ...]
    termination_index: int
    termination_reason: str
    direction_mode: str = "recursive"
    scaling_mode: str = "cg_standard"

    def __post_init__(self):
        if self.termination_reason not in TERMINATION_REASONS:
            raise LinalgError(f"unknown termination reason {self.termination_reason!r}")
        if [rec.k for rec in self.records] != list(range(len(self.records))):
            raise LinalgError("trace records must be consecutive from k = 0")
        if self.termination_index != len(self.records) - 1:
            raise LinalgError("termination index must match the final record")

    @property
    def r(self) -> int:
        return self.termination_index

    def iterates(self) -> list[np.ndarray]:
        return [rec.x_k for rec in self.records]

    def gradients(self) -> list[np.ndarray]:
        return [rec.g_k for rec in self.records]

    def directions(self) -> list[np.ndarray]:
        return [rec.p_k for rec in self.records if rec.p_k is not None]


def direction_recursive(
    g_k: np.ndarray, g_prev: np.ndarray, p_prev: np.ndarray
) -> np.ndarray:
    """p_k = -g_k + (g_k^T g_k / g_prev^T g_prev) p_prev.

    The k = 0 direction is simply -g_0; callers start the recursion
    there.  The coefficient is the ratio of consecutive squared gradient
    norms, so a zero previous gradient is a caller error (the iteration
    should already have terminated).
    """
    denom = norm_sq(g_prev)
    if not denom > 0:
        raise LinalgError("previous gradient is zero; the iteration has already terminated")
    beta = norm_sq(g_k) / denom
    out = -g_k + beta * p_prev
    out.flags.writeable = False
    return out


def direction_gradient_sum(
    gradients: Sequence[np.ndarray], scaling: DirectionScaling | None = None
) -> np.ndarray:
    """p_k = c_k * sum_{i=0..k} g_i / (g_i^T g_i), gradients-only form.

    With cg_standard scaling this reproduces the recursive direction
    exactly; other scalings rescale the direction without moving the
    iterates (the exact linesearch absorbs the factor).
    """
    if len(gradients) == 0:
        raise LinalgError("gradient history is empty")
    scaling = DirectionScaling() if scaling is None else scaling
    backend = backend_of(gradients[-1])
    acc = backend.empty(gradients[-1].shape)
    for i, g in enumerate(gradients):
        gg = norm_sq(g)
        if not gg > 0:
            raise LinalgError(f"gradient {i} in the history is zero")
        acc += g / gg
    c_k = scaling.value_for(len(gradients) - 1, norm_sq(gradients[-1]), backend)
    out = c_k * acc
    out.flags.writeable = False
    return out


def step_length(P: QuadraticProblem, g_k: np.ndarray, p_k: np.ndarray) -> Scalar:
    """Exact-linesearch step theta = -g_k^T p_k / (p_k^T H p_k).

    The returned theta zeroes the directional derivative at the new
    point: p_k^T (g_k + theta H p_k) = 0.  Non-positive curvature raises
    ``BreakdownError`` — impossible for SPD H and nonzero p_k, so it
    signals corrupted data or catastrophic rounding.
    """
    curvature = dot(p_k, mat_vec(P.H, p_k))
    if not curvature > 0:
        raise BreakdownError(
            f"direction curvature p^T H p = {curvature} is not positive",
            curvature=curvature,
        )
    return -dot(g_k, p_k) / curvature


def _stop_reason(backend: Backend, gns: Scalar, g0_norm: float, tol: float) -> str | None:
    if gns == 0:
        return "gradient_zero"
    if backend.exact:
        return None
    if math.sqrt(float(gns)) <= tol * max(g0_norm, 1.0):
        return "tolerance_met"
    return None


def run_cg(
    P: QuadraticProblem,
    tol: float = 1e-10,
    max_iter: int | None = None,
    direction_mode: str = "recursive",
    scaling: DirectionScaling | None = None,
    problem_id: str | None = None,
) -> CGTrace:
    """Run the method from P.x0 and record everything.

    Stops when the gradient vanishes (exactly, under the rational
    backend; under float64 when ||g_k|| <= tol * max(||g_0||, 1)), or
    after ``max_iter`` completed steps (default n under the rational
    backend, where termination within n steps is a theorem, and n + 5
    under float64), or on curvature breakdown.

    ``direction_mode`` selects among the three characterizations; the
    ``scaling`` applies to the gradient-history forms and, through the
    equivalent rescaled recursion, to the recursive form as well.
    """
    if direction_mode not in DIRECTION_MODES:
        raise LinalgError(f"unknown direction mode {direction_mode!r}")
    scaling = DirectionScaling() if scaling is None else scaling
    backend = P.backend
    if max_iter is None:
        max_iter = P.n if backend.exact else P.n + 5
    if max_iter < 0:
        raise LinalgError("max_iter must be nonnegative")

    records: list[IterateRecord] = []
    grads: list[np.ndarray] = []
    x = P.x0
    g = gradient(P, x)
    gns = norm_sq(g)
    g0_norm = math.sqrt(float(gns))
    p_prev: np.ndarray | None = None
    c_prev: Scalar | None = None
    gns_prev: Scalar | None = None
    reason: str | None = None
    k = 0

    while True:
        stop = _stop_reason(backend, gns, g0_norm, tol)
        beta = None if k == 0 else gns / gns_prev
        if stop is not None:
            records.append(IterateRecord(k, x, g, gns, beta_k=beta))
            reason = stop
            break
        if k == max_iter:
            records.append(IterateRecord(k, x, g, gns, beta_k=beta))
            reason = "max_iter"
            break

        grads.append(g)
        c_k = scaling.value_for(k, gns, backend)
        if direction_mode == "gradient_sum":
            p = direction_gradient_sum(grads, scaling)
        elif direction_mode == "shortest_residuals":
            from .minnorm import shortest_residuals_direction

            p = shortest_residuals_direction(grads)
            # p = -ghat, and p^T g_i = -ghat^T ghat for every i, so the
            # direction's common inner-product value is -(p^T p).
            c_k = -norm_sq(p)
        else:
            # The recursive form under general scaling:
            #   p_k = (c_k / g_k^T g_k) g_k + (c_k / c_{k-1}) p_{k-1}
            # which is the classical -g_k + beta_k p_{k-1} when
            # c_k = -g_k^T g_k.
            if p_prev is None:
                p = (c_k / gns) * g
            else:
                p = (c_k / gns) * g + (c_k / c_prev) * p_prev
            p.flags.writeable = False

        try:
            theta = step_length(P, g, p)
        except BreakdownError:
            records.append(IterateRecord(k, x, g, gns, p_k=p, beta_k=beta, c_k=c_k))
            reason = "breakdown"
            break

        records.append(
            IterateRecord(k, x, g, gns, p_k=p, theta_k=theta, beta_k=beta, c_k=c_k)
        )
        x = x + theta * p
        x.flags.writeable = False
        g = gradient(P, x)
        gns_prev, gns = gns, norm_sq(g)
        p_prev, c_prev = p, c_k
        k += 1

    pid = problem_id if problem_id is not None else (P.label or "unlabeled")
    return CGTrace(
        problem_id=pid,
        scalar_backend=backend.name,
        records=tuple(records),
        termination_index=records[-1].k,
        termination_reason=reason,
        direction_mode=direction_mode,
        scaling_mode=scaling.mode,
    )


def dimension_reduction_note(trace: CGTrace) -> np.ndarray:
    """The Gram matrix G[k][i] = g_k^T g_i of the pre-terminal gradients.

    Off-diagonal entries are the orthogonality residuals whose vanishing
    characterizes each iterate as the minimizer over the expanding
    affine span; the diagonal shows the squared norms draining to the
    termination threshold.  The terminal gradient is excluded — its
    orthogonality to everything is either trivial (it is zero) or
    meaningless (the run was cut off).
    """
    gs = [rec.g_k for rec in trace.records if rec.p_k is not None or rec.theta_k is not None]
    G = np.stack(gs) if gs else BACKENDS[trace.scalar_backend].empty((0, 0))
    gram = np.dot(G, G.T)
    gram.flags.writeable = False
    return gram
