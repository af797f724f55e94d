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
from fractions import Fraction

from .linalg import F64, Backend, LinalgError, sym_matrix, vector
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
            if not self.condition >= 1:
                raise LinalgError("condition number must be >= 1")


def _ones_problem(H_rows, backend: Backend, label: str) -> QuadraticProblem:
    H = sym_matrix(H_rows, backend)
    c = vector([-sum(row) for row in H_rows], backend)
    x0 = vector([0] * len(H_rows), backend)
    return QuadraticProblem(H=H, c=c, x0=x0, label=label)


def _householder_rows(rows, v, backend: Backend):
    """Apply the reflection I - 2 v v^T / (v^T v) on both sides of a matrix."""
    n = len(rows)
    vv = sum(x * x for x in v)
    two = backend.scalar(2)
    # M := R M R with R v-reflection; R M = M - (2/v^T v) v (v^T M)
    vM = [sum(v[i] * rows[i][j] for i in range(n)) for j in range(n)]
    rows = [[rows[i][j] - two * v[i] * vM[j] / vv for j in range(n)] for i in range(n)]
    Mv = [sum(rows[i][j] * v[j] for j in range(n)) for i in range(n)]
    return [[rows[i][j] - two * Mv[i] * v[j] / vv for j in range(n)] for i in range(n)]


def _spectrum(spec: ProblemSpec, rng: SplitMix64, backend: Backend) -> list:
    """Eigenvalues spanning [1, condition]: endpoints pinned, rest log-uniform."""
    n, cond = spec.n, float(spec.condition)
    if backend.exact:
        top = max(1, round(cond))
        values = [Fraction(1), Fraction(top)]
        for _ in range(n - 2):
            values.append(Fraction(round(math.exp(rng.unit_float() * math.log(top)))
                                   if top > 1 else 1))
        return values[:n]
    values = [1.0, cond]
    for _ in range(n - 2):
        values.append(math.exp(rng.unit_float() * math.log(cond)) if cond > 1 else 1.0)
    return values[:n]


def _rand_spd_rows(spec: ProblemSpec, backend: Backend):
    rng = SplitMix64(spec.seed)
    n = spec.n
    lam = _spectrum(spec, rng, backend)
    rows = [[lam[i] if i == j else backend.zero for j in range(n)] for i in range(n)]
    for _ in range(3):
        v = [backend.scalar(rng.int_between(-4, 4)) for _ in range(n)]
        if all(x == 0 for x in v):
            v[rng.int_between(0, n - 1)] = backend.one
        rows = _householder_rows(rows, v, backend)
    if not backend.exact:
        # Symmetrize bitwise; rounding makes the two triangles drift.
        rows = [[(rows[i][j] + rows[j][i]) / 2.0 for j in range(n)] for i in range(n)]
    return rows


def generate_problem(spec: ProblemSpec, backend: Backend = F64) -> QuadraticProblem:
    """Build the problem a spec describes, deterministically.

    All kinds share c = -H*1 and x0 = 0, so exact_minimizer is the
    all-ones vector by construction.
    """
    n = spec.n
    if spec.kind == "diag":
        rows = [[backend.scalar(i + 1) if i == j else backend.zero for j in range(n)]
                for i in range(n)]
        label = f"diag-n{n}-{backend.name}"
    elif spec.kind == "laplacian1d":
        rows = [[backend.scalar(2) if i == j
                 else (backend.scalar(-1) if abs(i - j) == 1 else backend.zero)
                 for j in range(n)] for i in range(n)]
        label = f"laplacian1d-n{n}-{backend.name}"
    else:
        rows = _rand_spd_rows(spec, backend)
        label = f"rand_spd-n{n}-cond{spec.condition:g}-seed{spec.seed}-{backend.name}"
    return _ones_problem(rows, backend, label)
