"""The minimum-Euclidean-norm point of the affine hull of a gradient history.

For orthogonal gradients g_0..g_k (as CG produces), the least-norm
point of their affine hull has the closed form

    ghat_k = (sum_j 1/(g_j^T g_j))^{-1} * sum_i g_i / (g_i^T g_i),

an affine combination with strictly positive harmonic weights.  This
module computes ghat two independent ways — the closed form above, and
a projection that makes no orthogonality assumption — and exposes
the identities connecting ghat to the CG direction (p_k is a positive
multiple of -ghat_k) and to the iterates (affine combinations of
gradients correspond to gradients at affine combinations of iterates).

Checking a whole trace needs ghat_k for every prefix g_0..g_k of one
history, and the sweeps serve all prefixes at once.  ``closed_form_sweep``
reads each gradient's norm once and keeps a running sum.
``projection_sweep`` orthogonalizes the history once, column by column
(``linalg._orthogonalized``, G = Q R), and reads every prefix's ghat off
Q and R^-1 with running sums: O(r^2 n) for the sweep.  For the orthogonal
gradients of an exact trace Q = G and R = I, and the projection
reduces to the closed form's harmonic weights.
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
    Scalar,
    _freeze,
    _orthogonalized,
    backend_of,
    dot,
    leading_solves,
    norm,
    norm_sq,
    pairwise_residual,
    residual_magnitude,
)
from .quadratic import QuadraticProblem, gradient

# Patched by bench/tracer.py, which still names the deleted pivoted kernel;
# nothing calls it.
PivotedLDLT = leading_solves


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


def _affine(a: np.ndarray) -> AffineCombination:
    """The affine weights a / sum(a)."""
    return AffineCombination(_freeze(a / sum(a)))


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
    weights = _affine(np.array([1 / norm_sq(g) for g in gradients]))
    ghat = _combine(gradients, weights.weights)
    return MinNormResult(ghat=ghat, weights=weights, norm_sq=norm_sq(ghat))


def closed_form_sweep(gradients: Sequence[np.ndarray]) -> Iterator[MinNormResult]:
    """Yield ``min_norm_closed_form(gradients[:k], math.inf)`` for k = 1..m.

    Each gradient's norm is read once, and the sums over i < k of
    g_i / (g_i^T g_i) and of 1 / (g_i^T g_i) run along the history.
    """
    if len(gradients) == 0:
        return
    _check_nonzero(gradients)
    inv = np.array([1 / norm_sq(g) for g in gradients])
    ghats = _freeze(np.cumsum(inv[:, None] * np.stack(gradients), axis=0)
                    / np.cumsum(inv)[:, None])
    for k, ghat in enumerate(ghats, start=1):
        yield MinNormResult(ghat=ghat, weights=_affine(inv[:k]), norm_sq=norm_sq(ghat))


def projection_oracle(gradients: Sequence[np.ndarray]) -> MinNormResult:
    """ghat by direct projection: minimize ||sum alpha_i g_i|| s.t. sum alpha = 1.

    Works for arbitrary vectors (no orthogonality assumed; zero and
    dependent ones included) and is the independent cross-check of the
    closed form: the last result of ``projection_sweep``.
    """
    if len(gradients) == 0:
        raise LinalgError("gradient history is empty")
    *_, last = projection_sweep(gradients)
    return last


def projection_sweep(gradients: Sequence[np.ndarray]) -> Iterator[MinNormResult]:
    """Yield ``projection_oracle(gradients[:k])`` for k = 1..m, from one orthogonalization.

    With G = Q R, Q^T Q = D diagonal and R unit upper triangular, the hull
    points G alpha with 1^T alpha = 1 are the points Q beta with
    w^T beta = 1, where beta = R alpha and R^T w = 1.  The shortest is
    beta = D^-1 w / (w^T D^-1 w).  The orthogonalization returns T = R^-1,
    so w = T^T 1, and alpha = T beta.  Every prefix's beta is a prefix of
    one vector, so ghat_k and alpha_k are running sums over the kept
    columns.

    A dropped column j lies in the span of the earlier ones, and its
    entry w_j = 1 - w_{<j}^T R[:j, j] is the affine residual: where it is
    not zero, g_j lies outside their affine hull, so from k = j + 1 on the
    hull is the whole span and ghat is 0, with alpha the kernel vector
    T[:, j] / w_j.  The test is against literal zero on both backends, so
    a float64 column that repeats an earlier one only up to rounding can
    end the sweep at 0 too.
    """
    if len(gradients) == 0:
        return
    backend = backend_of(gradients[0])
    Q, T, d, kept = _orthogonalized(gradients)
    w = T.sum(axis=0)
    u = w[kept] / d
    ghats = _freeze(np.cumsum(u[:, None] * Q, axis=0) / np.cumsum(w[kept] * u)[:, None])
    alphas = np.cumsum(T[:, kept] * u, axis=1)
    t = 0
    for j in range(len(gradients)):
        if j in kept:
            t += 1
        elif w[j] != 0:
            break
        ghat = ghats[t - 1]
        yield MinNormResult(ghat=ghat, weights=_affine(alphas[: j + 1, t - 1]), norm_sq=norm_sq(ghat))
    else:
        return
    zero = _freeze(backend.empty(Q.shape[1]))
    for k in range(j + 1, len(gradients) + 1):
        yield MinNormResult(ghat=zero, weights=_affine(T[:k, j]), norm_sq=backend.zero)


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
