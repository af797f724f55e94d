"""Deterministic test-problem generation.

Every generated problem uses the convention c = -H*1, so the exact
minimizer is the all-ones vector and end-to-end assertions have a known
answer.  Randomness comes from splitmix64, a tiny documented generator
chosen so that the same seed reproduces the same problem bit-for-bit in
any language:

    state := (state + 0x9E3779B97F4A7C15) mod 2^64
    z := state
    z := (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9 mod 2^64
    z := (z XOR (z >> 27)) * 0x94D049BB133111EB mod 2^64
    return z XOR (z >> 31)

Random SPD matrices are built as Q diag(lambda) Q^T with the spectrum
spanning [1, condition] and Q a product of Householder reflections.
Under the rational backend the reflection vectors have small integer
entries, so Q is exactly orthogonal and the spectrum (rounded to
integers) is exact — the generated H is an exact rational matrix with
known integer eigenvalues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import F64, Backend, LinalgError, _freeze, _rationalized, vector
from .quadratic import QuadraticProblem

_MASK = (1 << 64) - 1


class SplitMix64:
    """The splitmix64 sequence; 64-bit state, 64-bit outputs."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def unit_float(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def int_between(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], inclusive; rejection-free modulo."""
        if hi < lo:
            raise LinalgError(f"empty integer range [{lo}, {hi}]")
        return lo + self.next_u64() % (hi - lo + 1)


@dataclass(frozen=True)
class ProblemSpec:
    """What to generate: a kind, a size, and kind-specific parameters."""

    kind: str
    n: int = 0
    condition: float | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in ("diag", "laplacian1d", "rand_spd"):
            raise LinalgError(f"unknown problem kind {self.kind!r}")
        if self.n < 1:
            raise LinalgError("generated problems require n >= 1")
        if self.kind == "rand_spd":
            if self.seed is None or self.condition is None:
                raise LinalgError("rand_spd requires both a seed and a condition number")
            if not 1 <= self.condition < math.inf:
                raise LinalgError(f"condition number must be finite and >= 1, got {self.condition}")
        elif self.condition is not None or self.seed is not None:
            raise LinalgError(f"{self.kind} takes no condition number or seed (rand_spd only)")


def _reflect(M, v: np.ndarray):
    """Apply the reflection R = I - 2 v v^T / (v^T v) on both sides of a matrix.

    v^T M and M v accumulate rows and columns left to right, so float64
    rounds the same way on every machine, as no BLAS product promises.
    Rationals run on integers alone: M is ``(N, den)``, its numerators over
    one denominator, and v holds ints, so R M = (vv N - 2 v (v^T N)) / (vv den),
    and likewise on the right.
    """
    if isinstance(M, tuple):
        N, den = M
        vv = np.dot(v, v)
        N = vv * N - 2 * np.outer(v, np.dot(v, N))
        N = vv * N - 2 * np.outer(np.dot(N, v), v)
        return N, vv * vv * den
    vv = sum(x * x for x in v)
    # R M = M - (2/v^T v) v (v^T M); then (R M) R = R M - (2/v^T v) (R M v) v^T.
    M = M - np.outer(2 * v, sum(v[i] * M[i] for i in range(len(v)))) / vv
    return M - np.outer(2 * sum(M[:, j] * v[j] for j in range(len(v))), v) / vv


def _spectrum(spec: ProblemSpec, rng: SplitMix64, backend: Backend) -> list:
    """Eigenvalues spanning [1, top]: endpoints pinned, rest log-uniform.  Top is the
    condition, and under rationals it and every eigenvalue are rounded to integers."""
    whole = round if backend.exact else float
    top = max(1, whole(float(spec.condition)))
    values = [1, top] + [whole(math.exp(rng.unit_float() * math.log(top))) if top > 1 else 1
                         for _ in range(spec.n - 2)]
    return values[: spec.n]


def _banded(n: int, backend: Backend, diagonal, off_diagonal=0):
    """n-by-n, ``diagonal`` on the diagonal and ``off_diagonal`` beside it; rational: ``(N, 1)``."""
    N = np.zeros((n, n), dtype=object if backend.exact else np.float64)
    np.fill_diagonal(N, diagonal)
    N[range(n - 1), range(1, n)] = N[range(1, n), range(n - 1)] = off_diagonal
    return (N, 1) if backend.exact else N


def _rand_spd_matrix(spec: ProblemSpec, backend: Backend):
    """Q diag(lambda) Q^T: a float64 array, or under rationals ``(N, den)``."""
    rng = SplitMix64(spec.seed)
    n = spec.n
    M = _banded(n, backend, _spectrum(spec, rng, backend))
    for _ in range(3):
        v = [rng.int_between(-4, 4) for _ in range(n)]
        if not any(v):
            v[rng.int_between(0, n - 1)] = 1
        M = _reflect(M, np.array(v, dtype=object) if backend.exact else vector(v))
    if not backend.exact:
        # Symmetrize bitwise; rounding makes the two triangles drift.
        M = (M + M.T) / 2.0
    return M


def generate_problem(spec: ProblemSpec, backend: Backend = F64) -> QuadraticProblem:
    """Build the problem a spec describes, deterministically.

    All kinds share c = -H*1 and x0 = 0, so exact_minimizer is the
    all-ones vector by construction.  A float64 problem whose H or c
    overflows (``rand_spd`` with a condition near the float64 maximum)
    raises ``LinalgError``, with no warning on the way.
    """
    n = spec.n
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.kind == "rand_spd":
            H = _rand_spd_matrix(spec, backend)
            label = f"rand_spd-n{n}-cond{spec.condition:g}-seed{spec.seed}"
        else:
            diagonal, beside = (range(1, n + 1), 0) if spec.kind == "diag" else (2, -1)
            H, label = _banded(n, backend, diagonal, beside), f"{spec.kind}-n{n}"
        if backend.exact:
            # H's Fractions are made once, and c = -H 1 is summed on the integers.
            N, den = H
            H, c = _freeze(_rationalized(N, den)), _freeze(_rationalized(-N.sum(axis=1), den))
        else:
            total = sum(H.T)  # c = -H 1, each row summed left to right (np.sum is pairwise)
            if not (np.isfinite(H).all() and np.isfinite(total).all()):
                raise LinalgError(f"{label} overflows the float64 range")
            # Finite and symmetric bit for bit by construction: QuadraticProblem tests it.
            H, c = _freeze(H), vector(-total)
    return QuadraticProblem(H=H, c=c, x0=vector([0] * n, backend), label=f"{label}-{backend.name}")
