"""The minimum-Euclidean-norm point of the affine hull of a gradient history.

For orthogonal gradients g_0..g_k (as CG produces), the least-norm
point of their affine hull has the closed form

    ghat_k = (sum_j 1/(g_j^T g_j))^{-1} * sum_i g_i / (g_i^T g_i),

an affine combination with strictly positive harmonic weights.  This
module computes ghat two independent ways — the closed form above, and
a projection that makes no orthogonality assumption — and exposes
the identity connecting ghat to the CG direction (p_k is a positive
multiple of -ghat_k).

Checking a whole trace needs ghat_k for every prefix g_0..g_k of one
history, and one sweep per method serves all prefixes at once, row k-1 for
``gradients[:k]``: ``_closed_form_ghats`` reads each gradient's norm once, and
``_projected_ghats`` orthogonalizes the history once (``linalg._orthogonalized``,
G = Q R) and reads every prefix's ghat off Q and R^-1, O(r^2 n).  Both are
running sums (``linalg._running_sums``): under rationals of a stack's primitive
integer rows (``linalg._Rows``), a stack in and a stack out, with no ``Fraction``
formed.  For the orthogonal gradients of a CG trace Q = G and R = I up to a
positive scale per row, which moves no ghat, and the projection reduces to the
closed form's harmonic weights.  The one-shots ``min_norm_closed_form`` and
``projection_oracle`` are the last rows of these sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import (
    F64,
    DimensionMismatch,
    LinalgError,
    Scalar,
    _Rows,
    _freeze,
    _gate,
    _orthogonalized,
    _padded,
    _row_dots,
    _running_sums,
    _stack,
    backend_of,
    dot,
    leading_solves,
    norm,
    norm_sq,
    pairwise_residual,
    residual_magnitude,
    scalar_token,
)

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
        total, backend = sum(w), backend_of(w)
        _gate(backend, total - 1,
              lambda: 64 * len(w) * np.finfo(np.float64).eps * max(1.0, float(np.abs(w).max())),
              f"affine weights sum to {scalar_token(total)}, not 1")

    def __len__(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True, eq=False)
class MinNormResult:
    """ghat, the affine weights producing it, and its squared norm."""

    ghat: np.ndarray
    weights: AffineCombination
    norm_sq: Scalar


def _result(ghat: np.ndarray, weights: np.ndarray) -> MinNormResult:
    """ghat with the affine weights weights / sum(weights)."""
    affine = AffineCombination(_freeze(weights / sum(weights)))
    return MinNormResult(ghat=ghat, weights=affine, norm_sq=norm_sq(ghat))


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

    An empty history, or one with a zero gradient, is refused.  The formula
    silently produces a non-minimal point if the inputs are not orthogonal, so
    a history is rejected unless it is exactly orthogonal under the rational
    backend, or within ``orthogonality_tol`` (relative) under float64, by the
    one gate rule (``linalg._gate``), which refuses a NaN defect.  Past the
    gate, the result is the last row of ``_closed_form_ghats``.
    """
    if len(gradients) == 0:
        raise LinalgError("gradient history is empty")
    ghats, inv = _closed_form_ghats(gradients)
    if len(inv) < len(gradients):
        raise LinalgError(f"gradient {len(inv)} in the history is zero")
    _gate(backend_of(gradients[0]), orthogonality_defect(gradients), lambda: orthogonality_tol,
          "gradient history is not orthogonal; the closed form does not apply — use "
          "projection_oracle")
    return _result(ghats[-1], inv)


def _closed_form_ghats(gradients) -> tuple:
    """The ungated closed-form ghat of every prefix, row k-1 for ``gradients[:k]``,
    and the harmonic weights 1 / (g_i^T g_i) behind them, for a stack, a (r, n)
    array, or what converts to one, for any r.  Each gradient's norm is read
    once, and the sums of g_i / (g_i^T g_i) and of 1 / (g_i^T g_i) run along the
    history.  From the first zero gradient on, which has no weight, every row is
    0, as in ``_projected_ghats`` past the hull.
    """
    G = gradients if isinstance(gradients, _Rows) else np.asarray(gradients)
    S = _stack(G, backend_of(G))
    sq = _row_dots(S, S)
    zero = np.flatnonzero(sq == 0)
    stop = int(zero[0]) if len(zero) else len(G)
    inv = 1 / sq[:stop]
    return _padded(_running_sums(inv, S[:stop], np.cumsum(inv)), np.arange(stop), len(G), G), inv


def projection_oracle(gradients: Sequence[np.ndarray]) -> MinNormResult:
    """ghat by direct projection: minimize ||sum alpha_i g_i|| s.t. sum alpha = 1.

    Works for arbitrary vectors (no orthogonality assumed; zero and
    dependent ones included) and is the independent cross-check of the
    closed form: the last row of ``_projected_ghats``.
    """
    if len(gradients) == 0:
        raise LinalgError("gradient history is empty")
    _, T, d, kept = basis = _orthogonalized(gradients)
    ghats, stop = _projected_ghats(gradients, basis)
    # alpha = T beta, summed as the sweep sums it; past the hull, the kernel vector.
    alpha = (np.cumsum(T[:, kept] * (T.sum(axis=0)[kept] / d), axis=1)[:, -1]
             if stop == len(gradients) else T[:, stop])
    return _result(ghats[-1], alpha)


def _projected_ghats(gradients: Sequence[np.ndarray], basis=None) -> tuple[np.ndarray, int]:
    """The projected ghat of every prefix, row k-1 for ``gradients[:k]``, as
    ``_closed_form_ghats`` gives its rows, and the first column outside the affine
    hull of the earlier ones (``len(gradients)`` if none), past which every row is
    0.  ``basis`` is ``_orthogonalized(gradients)`` if the caller already has it.

    With G = Q R, Q^T Q = D diagonal and R upper triangular, the hull points
    G alpha with 1^T alpha = 1 are the points Q beta with w^T beta = 1, where
    beta = R alpha and R^T w = 1.  The shortest is beta = D^-1 w / (w^T D^-1 w).
    The orthogonalization returns T = R^-1, so w = T^T 1, and alpha = T beta.
    Every prefix's beta is a prefix of one vector, so ghat_k and alpha_k are
    running sums over the kept columns.

    A dropped column j lies in the span of the earlier ones, and its entry
    w_j = 1 - w_{<j}^T R[:j, j] is the affine residual: where it is not zero,
    g_j lies outside their affine hull, so from k = j + 1 on the hull is the
    whole span and ghat is 0, with alpha the kernel vector T[:, j] / w_j.  The
    test is against literal zero on both backends, so a float64 column that
    repeats an earlier one only up to rounding can end the sweep at 0 too.
    """
    Q, T, d, kept = _orthogonalized(gradients) if basis is None else basis
    r, w = len(T), T.sum(axis=0)
    u = w[kept] / d
    hull = _running_sums(u, Q, np.cumsum(w[kept] * u))
    is_kept = np.isin(np.arange(r), kept)
    outside = np.flatnonzero(~is_kept & (w != 0))
    stop = int(outside[0]) if len(outside) else r
    return _padded(hull, np.cumsum(is_kept)[:stop] - 1, r, gradients), stop


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


def shortest_residuals_direction(gradients: Sequence[np.ndarray]) -> np.ndarray:
    """The direction -ghat_k, positively proportional to the CG direction.

    The proportionality ratio is g_k^T g_k / ghat^T ghat > 0, so exact
    linesearch along -ghat reproduces the CG iterates.
    """
    return _freeze(-min_norm_closed_form(gradients).ghat)
