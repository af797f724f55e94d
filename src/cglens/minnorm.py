"""The minimum-Euclidean-norm point of the affine hull of a gradient history.

For orthogonal gradients g_0..g_k (as CG produces), the least-norm
point of their affine hull has the closed form

    ghat_k = (sum_j 1/(g_j^T g_j))^{-1} * sum_i g_i / (g_i^T g_i),

an affine combination with strictly positive harmonic weights.  This
module computes ghat two independent ways — the closed form above, and
a KKT projection that makes no orthogonality assumption — and exposes
the identities connecting ghat to the CG direction (p_k is a positive
multiple of -ghat_k) and to the iterates (affine combinations of
gradients correspond to gradients at affine combinations of iterates).

Checking a whole trace needs ghat_k for every prefix g_0..g_k of one
history, and the sweeps serve all prefixes in O(r^3) rather than O(r^4).
``closed_form_sweep`` reads each gradient's norm once.
``projection_sweep`` factors the Gram matrix G^T G once, in natural
order (``linalg.leading_solves``), which factors the Gram matrix of
every prefix at the same time.  The first pivot at or below the margin
(a zero or dependent gradient, exactly or to float64 working accuracy)
ends the sweep: from that k on, every k takes the one-shot pivoted
``projection_oracle``, so a degraded history gets the answer it would
get one prefix at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .linalg import (
    F64,
    DimensionMismatch,
    LinalgError,
    PivotedLDLT,
    Scalar,
    _array_from,
    _freeze,
    _product,
    backend_of,
    dot,
    leading_solves,
    norm,
    norm_sq,
    pairwise_residual,
    residual_magnitude,
)
from .quadratic import QuadraticProblem, gradient


@dataclass(frozen=True, eq=False)
class AffineCombination:
    """Weights alpha_0..alpha_k with sum exactly 1 (up to rounding in float64)."""

    weights: np.ndarray

    def __post_init__(self):
        w = self.weights
        if w.ndim != 1 or w.shape[0] == 0:
            raise DimensionMismatch("affine weights must be a nonempty vector")
        total = sum(w)
        if backend_of(w).exact:
            if total != 1:
                raise LinalgError(f"affine weights sum to {total}, not 1")
        else:
            eps = np.finfo(np.float64).eps
            scale = max(1.0, float(np.abs(w).max()))
            if abs(total - 1.0) > 64 * len(w) * eps * scale:
                raise LinalgError(f"affine weights sum to {total!r}, not 1")

    def __len__(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True, eq=False)
class MinNormResult:
    """ghat, the affine weights producing it, and its squared norm."""

    ghat: np.ndarray
    weights: AffineCombination
    norm_sq: Scalar


def _combine(vectors: Sequence[np.ndarray], weights: np.ndarray) -> np.ndarray:
    out = backend_of(vectors[0]).empty(vectors[0].shape)
    for w, v in zip(weights, vectors):
        out += w * v
    out.flags.writeable = False
    return out


def _hull_point(gradients: Sequence[np.ndarray], alpha: list) -> MinNormResult:
    """The point sum alpha_i g_i of the affine hull, with its weights and norm."""
    weights = AffineCombination(_freeze(_array_from(alpha, backend_of(gradients[0]))))
    ghat = _combine(gradients, weights.weights)
    return MinNormResult(ghat=ghat, weights=weights, norm_sq=norm_sq(ghat))


def _prefix_point(G: np.ndarray, alpha: list) -> MinNormResult:
    """``_hull_point`` of the first len(alpha) columns of G, as one product."""
    weights = AffineCombination(_freeze(_array_from(alpha, backend_of(G))))
    ghat = _freeze(_product(G[:, : len(alpha)], weights.weights))
    return MinNormResult(ghat=ghat, weights=weights, norm_sq=norm_sq(ghat))


def _check_nonzero(gradients: Sequence[np.ndarray]) -> None:
    if len(gradients) == 0:
        raise LinalgError("gradient history is empty")
    for i, g in enumerate(gradients):
        if norm_sq(g) == 0:
            raise LinalgError(f"gradient {i} in the history is zero")


def orthogonality_defect(gradients: Sequence[np.ndarray]) -> Scalar:
    """max_{i<j} |g_i^T g_j| over the history (0 if single).

    Divided by ||g_i|| ||g_j|| under float64, raw under the rational
    backend, by the one pairwise rule of ``linalg.pairwise_residual``.
    """
    backend = backend_of(gradients[0]) if len(gradients) else F64
    return pairwise_residual(
        backend, gradients, gradients, shift=None, diagonal=False,
        scales=lambda: ([norm(g) for g in gradients],) * 2,
    )


def min_norm_closed_form(
    gradients: Sequence[np.ndarray], orthogonality_tol: float = 1e-6
) -> MinNormResult:
    """ghat by the harmonic-weight formula, valid for orthogonal histories.

    The formula silently produces a non-minimal point if the inputs are
    not orthogonal, so non-orthogonal histories are rejected: exactly
    under the rational backend, beyond ``orthogonality_tol`` (relative)
    under float64.  ``orthogonality_tol=math.inf`` skips the gate on
    both backends, for callers that measure the consequences themselves.
    """
    _check_nonzero(gradients)
    backend = backend_of(gradients[0])
    limit = backend.zero if backend.exact else orthogonality_tol
    if orthogonality_tol != math.inf and orthogonality_defect(gradients) > limit:
        raise LinalgError(
            "gradient history is not orthogonal; the closed form does not "
            "apply — use projection_oracle"
        )
    return _hull_point(gradients, _harmonic_weights([1 / norm_sq(g) for g in gradients]))


def _harmonic_weights(inv: Sequence[Scalar]) -> list:
    """The closed form's weights from the inverse squared norms 1/(g_i^T g_i)."""
    total = sum(inv)
    return [w / total for w in inv]


def closed_form_sweep(gradients: Sequence[np.ndarray]) -> Iterator[MinNormResult]:
    """Yield ``min_norm_closed_form(gradients[:k], math.inf)`` for k = 1..m.

    Each gradient's norm is read once for the whole sweep.
    """
    if len(gradients) == 0:
        return
    _check_nonzero(gradients)
    G = np.column_stack(gradients)
    inv = [1 / norm_sq(g) for g in gradients]
    for k in range(1, len(inv) + 1):
        yield _prefix_point(G, _harmonic_weights(inv[:k]))


def projection_oracle(gradients: Sequence[np.ndarray]) -> MinNormResult:
    """ghat by direct projection: minimize ||sum alpha_i g_i|| s.t. sum alpha = 1.

    Works for arbitrary vectors (no orthogonality assumed) and is the
    independent cross-check of the closed form.  Stationarity gives
    (G^T G) alpha = nu * 1 with nu fixed by the constraint, solved here
    with the pivoted semidefinite kernel; when 1 is not in the range of
    G^T G the least-norm point is the origin, reached through a kernel
    vector of G (only possible for non-orthogonal input).
    """
    if len(gradients) == 0:
        raise LinalgError("gradient history is empty")
    backend = backend_of(gradients[0])
    m = len(gradients)

    for i, g in enumerate(gradients):
        if norm_sq(g) == 0:
            # A zero vector is a vertex of the hull, so the least-norm
            # point is the origin itself.
            alpha = [backend.zero] * m
            alpha[i] = backend.one
            weights = AffineCombination(_freeze(_array_from(alpha, backend)))
            zero = backend.empty(gradients[0].shape)
            zero.flags.writeable = False
            return MinNormResult(ghat=zero, weights=weights, norm_sq=backend.zero)

    G = np.column_stack(gradients)
    fact = PivotedLDLT(_product(G.T, G))
    y, consistent = fact.solve(_array_from([backend.one] * m, backend))
    if consistent:
        total = sum(y)
        if total > 0:
            return _hull_point(gradients, [yi / total for yi in y])

    # 1 outside the range of the Gram matrix: the hull passes through
    # the origin.  Any Gram-kernel vector z with 1^T z != 0 certifies it.
    kernel = fact.nullspace()
    best, best_mag = None, None
    for z in kernel:
        mag = abs(sum(z))
        if best is None or mag > best_mag:
            best, best_mag = z, mag
    if best is None or best_mag == 0:
        raise LinalgError("projection failed to localize the least-norm point")
    total = sum(best)
    return _hull_point(gradients, [zi / total for zi in best])


def projection_sweep(gradients: Sequence[np.ndarray]) -> Iterator[MinNormResult]:
    """Yield ``projection_oracle(gradients[:k])`` for k = 1..m, from one Gram factor.

    The Gram matrices of the prefixes are the leading blocks of G^T G, and
    their right-hand sides are the leading entries of the all-ones vector.
    """
    if len(gradients) == 0:
        return
    backend = backend_of(gradients[0])
    m = len(gradients)
    G = np.column_stack(gradients)
    ones = _array_from([backend.one] * m, backend)
    served = 0
    for y in leading_solves(_product(G.T, G), ones):
        total = sum(y)
        if total <= 0:  # a NaN total is yielded: its NaN ghat FAILs the check
            break
        served += 1
        yield _prefix_point(G, [yi / total for yi in y])
    for k in range(served + 1, m + 1):
        yield projection_oracle(gradients[:k])


def characterization_residuals(
    result: MinNormResult, gradients: Sequence[np.ndarray]
) -> list:
    """The residuals ghat^T (g_i - ghat), all zero exactly when ghat is right.

    This is the variational characterization of the least-norm point of
    an affine hull: ghat is orthogonal to every displacement g_i - ghat.
    """
    return [dot(result.ghat, g - result.ghat) for g in gradients]


def scaling_relation(p_cg: np.ndarray, g_k: np.ndarray, result: MinNormResult) -> Scalar:
    """Size of p_cg + (g_k^T g_k / ||ghat||^2) ghat; zero in exact arithmetic.

    This is the identity tying the CG direction to the min-norm point:
    p_k is the negative of ghat_k stretched by g_k^T g_k / ghat^T ghat.
    """
    if result.norm_sq == 0:
        raise LinalgError("ghat is zero; inputs are not from a live CG iteration")
    ratio = norm_sq(g_k) / result.norm_sq
    return residual_magnitude(p_cg + ratio * result.ghat)


@dataclass(frozen=True, eq=False)
class AffinePoint:
    """A point x = sum alpha_i x_i and the gradient of q there."""

    x: np.ndarray
    g: np.ndarray


def affine_point_of_gradient_combination(
    P: QuadraticProblem, iterates: Sequence[np.ndarray], weights: AffineCombination
) -> AffinePoint:
    """Map affine weights on iterates to (x, g) with g = sum alpha_i g_i.

    Because the gradient map is affine, the gradient at x = sum alpha_i x_i
    is the same combination of the individual gradients whenever the
    weights sum to 1; that identity is checked here before returning.
    """
    if len(iterates) != len(weights):
        raise DimensionMismatch(
            f"{len(weights)} weights against {len(iterates)} iterates"
        )
    x = _combine(iterates, weights.weights)
    g = gradient(P, x)
    combo = _combine([gradient(P, xi) for xi in iterates], weights.weights)
    drift = residual_magnitude(g - combo)
    if P.backend.exact:
        if drift != 0:
            raise LinalgError("gradient correspondence violated; inputs are inconsistent")
    else:
        scale = max(1.0, float(residual_magnitude(g)))
        if float(drift) > 1e-8 * scale:
            raise LinalgError("gradient correspondence violated; inputs are inconsistent")
    return AffinePoint(x=x, g=g)


def shortest_residuals_direction(gradients: Sequence[np.ndarray]) -> np.ndarray:
    """The direction -ghat_k, positively proportional to the CG direction.

    The proportionality ratio is g_k^T g_k / ghat^T ghat > 0, so exact
    linesearch along -ghat reproduces the CG iterates.
    """
    result = min_norm_closed_form(gradients)
    out = -result.ghat
    out.flags.writeable = False
    return out
