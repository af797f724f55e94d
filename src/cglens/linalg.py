"""Dense vectors and symmetric matrices over two scalar backends.

The same code paths run under IEEE double precision (``F64``) and under
exact arbitrary-precision rationals (``RATIONAL``, built on
``fractions.Fraction``).  Exactness is the whole point of the rational
backend: every ring operation satisfies ``a + b - b == a`` identically,
so a residual that a theorem says must vanish either is exactly zero or
exposes a bug.

Vectors and matrices are plain numpy arrays (``float64`` dtype for the
float backend, ``object`` dtype holding ``Fraction`` for the rational
one) marked read-only at construction.  All operations are pure
functions; nothing here mutates its inputs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

import numpy as np

Scalar = Union[float, Fraction]


class LinalgError(ValueError):
    """Base class for linear-algebra input errors."""


class DimensionMismatch(LinalgError):
    """Operands have incompatible dimensions."""


class AsymmetricMatrixError(LinalgError):
    """A symmetric matrix was constructed from asymmetric data."""


class NotSPDError(LinalgError):
    """A positive-definite matrix was required but a pivot failed.

    ``pivot_index`` is the 1-based index of the first non-positive pivot.
    """

    def __init__(self, message: str, pivot_index: int | None = None):
        super().__init__(message)
        self.pivot_index = pivot_index


class Backend:
    """A scalar field implementation: float64 or exact rationals."""

    def __init__(self, name: str, exact: bool):
        self.name = name
        self.exact = exact

    def __repr__(self) -> str:
        return f"Backend({self.name!r})"

    def scalar(self, value) -> Scalar:
        """Convert ``value`` to this backend's scalar type.

        Strings may be decimal literals or exact "p/q" fractions.  Under
        the rational backend a float converts to its exact binary value;
        pass a string to get decimal semantics ("0.1" -> 1/10).  Booleans
        and values naming no rational ("nan", "inf" or "1/0" as strings, a
        float NaN or infinity under rationals) raise ``LinalgError``.
        """
        try:
            if isinstance(value, bool):
                raise TypeError("a boolean is not a number")
            if not self.exact:
                return float(Fraction(value)) if isinstance(value, str) else float(value)
            if isinstance(value, Fraction):
                return value
            if isinstance(value, (int, np.integer)):
                return Fraction(int(value))
            if isinstance(value, (str, float)):
                return Fraction(value)
            raise TypeError(f"{type(value).__name__} is not a number")
        except (TypeError, ValueError, OverflowError, ZeroDivisionError) as err:
            raise LinalgError(f"cannot convert {value!r} to a {self.name} scalar") from err

    @property
    def zero(self) -> Scalar:
        return Fraction(0) if self.exact else 0.0

    @property
    def one(self) -> Scalar:
        return Fraction(1) if self.exact else 1.0

    def empty(self, shape) -> np.ndarray:
        """A writable all-zeros array of this backend's dtype."""
        if self.exact:
            out = np.empty(shape, dtype=object)
            out[...] = Fraction(0)
            return out
        return np.zeros(shape, dtype=np.float64)


F64 = Backend("f64", exact=False)
RATIONAL = Backend("rational", exact=True)

BACKENDS = {"f64": F64, "rational": RATIONAL}


def backend_of(arr: np.ndarray) -> Backend:
    """Infer the backend from an array's dtype."""
    return RATIONAL if arr.dtype == object else F64


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _array_from(values, backend: Backend) -> np.ndarray:
    if backend.exact:
        out = np.empty(len(values), dtype=object)
        out[:] = list(values)
        return out
    return np.array([float(v) for v in values], dtype=np.float64)


def vector(entries, backend: Backend = F64) -> np.ndarray:
    """Build a read-only 1-D vector on the given backend.

    Entries may be numbers or strings ("p/q" or decimal).
    """
    data = [backend.scalar(e) for e in entries]
    if len(data) == 0:
        raise DimensionMismatch("vectors must have dimension >= 1")
    return _freeze(_array_from(data, backend))


def sym_matrix(rows, backend: Backend = F64) -> np.ndarray:
    """Build a read-only dense symmetric matrix, validating symmetry.

    Raises ``AsymmetricMatrixError`` if any entry differs from its
    transpose partner (exact comparison in both backends).
    """
    data = [[backend.scalar(e) for e in row] for row in rows]
    n = len(data)
    if n == 0 or any(len(row) != n for row in data):
        raise DimensionMismatch("symmetric matrices must be square with n >= 1")
    for i in range(n):
        for j in range(i):
            if data[i][j] != data[j][i]:
                raise AsymmetricMatrixError(
                    f"entry ({i}, {j}) = {data[i][j]} does not match "
                    f"({j}, {i}) = {data[j][i]}"
                )
    out = backend.empty((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = data[i][j]
    return _freeze(out)


def dot(a: np.ndarray, b: np.ndarray) -> Scalar:
    """Inner product sum_i a_i b_i; exact under the rational backend."""
    if a.shape != b.shape:
        raise DimensionMismatch(f"dot of shapes {a.shape} and {b.shape}")
    if backend_of(a) is not backend_of(b):
        raise LinalgError("dot of vectors on different scalar backends")
    return np.dot(a, b)


def mat_vec(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix-vector product M v."""
    if M.shape[1] != v.shape[0]:
        raise DimensionMismatch(f"mat_vec of shapes {M.shape} and {v.shape}")
    if backend_of(M) is not backend_of(v):
        raise LinalgError("mat_vec of arrays on different scalar backends")
    return _freeze(np.dot(M, v))


def norm_sq(v: np.ndarray) -> Scalar:
    """Squared Euclidean norm, exact under the rational backend."""
    return np.dot(v, v)


def norm(v: np.ndarray) -> float:
    """Euclidean norm as a float (informational under the rational backend)."""
    return math.sqrt(float(norm_sq(v)))


def max_abs(v: np.ndarray) -> Scalar:
    """Largest entry magnitude; exact under the rational backend."""
    return np.abs(v).max()


def scalar_token(x) -> str:
    """Serialize a scalar losslessly as text.

    Rationals render as "p/q" (or a bare integer); floats use repr,
    which round-trips bit-for-bit through float().
    """
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def residual_magnitude(v: np.ndarray) -> Scalar:
    """Size of a residual vector, in a form the backend can represent.

    Float arrays report the Euclidean norm.  Exact arrays report the
    max-abs entry instead: it is an exactly representable rational and
    vanishes precisely when the Euclidean norm does, which is the only
    property exact-arithmetic checks rely on (their tolerance is zero).
    """
    if v.size == 0:
        return Fraction(0) if backend_of(v).exact else 0.0
    if backend_of(v).exact:
        return max_abs(v)
    return float(np.linalg.norm(v))


def pairwise_residual(backend: Backend, a, b, *, shift, diagonal: bool, scales) -> Scalar:
    """Worst |a_k^T b_j - shift[k]| over the triangle j < k (j <= k if ``diagonal``).

    The residual rule of every identity over index pairs: each is a
    triangle of the inner-product table of two vector sequences.  Exact
    vectors report the raw worst value.  Float vectors divide entry
    (k, j) by row[k] * col[j], where ``(row, col) = scales()`` is called
    only under float64 (exact runs compute no norms), and an entry whose
    scale is zero contributes nothing.  ``shift`` is None or one value per
    row.  Row k is one product of a_k with the b_j of its triangle, so
    each pair's inner product is computed once and the other triangle
    never is.
    """
    worst = backend.zero
    if len(a) == 0 or len(b) == 0:
        return worst
    B = np.stack(b)
    if not backend.exact:
        row, col = (np.asarray(s, dtype=np.float64) for s in scales())
    for k, a_k in enumerate(a):
        m = k + diagonal
        if m == 0:
            continue
        t = np.dot(B[:m], a_k)
        if shift is not None:
            t = t - shift[k]
        t = np.abs(t)
        if not backend.exact:
            denom = row[k] * col[:m]
            live = denom != 0
            if not live.any():
                continue
            t = t[live] / denom[live]
        worst = max(worst, t.max())
    return worst if backend.exact else float(worst)


# Float64 rank floor of the Jacobi-scaled semidefinite kernel, in units
# of n * eps.  At 1 the exactly singular Gram matrix B^T B of
# B = [[-2,-2,1,-3],[1,-3,-2,3],[-2,-1,1,-3]] came out of full rank (last
# pivot 9.3e-16 against a floor of 8.9e-16), 1 of 3000 rank-deficient
# integer Gram matrices with n <= 6; from 2 up none of the 3000 did.
RANK_FLOOR_MARGIN = 4

# The smallest float64 pivot ``PivotedLDLT.append`` accepts on the
# Jacobi-scaled (unit-diagonal) matrix, where a pivot is the squared sine
# of the angle between the new column and the span of the earlier ones.
# Unpivoted elimination has no rank floor it can trust: on exactly
# rank-deficient integer Gram matrices with n <= 6 it left spurious
# pivots up to 6.4e-13 at dependent columns, where the exact pivot is 0.
# CG histories that keep their theory stay far above sqrt(eps): the
# smallest scaled pivot of S^T H S is 5e-3 for laplacian1d n = 400 and
# 0.47 for rand_spd n = 250 at cond 1e4, and every Gram pivot is ~1.
# Below sqrt(eps) a solve keeps fewer than half the digits.
APPEND_MARGIN = math.sqrt(np.finfo(np.float64).eps)


class PivotedLDLT:
    """L D L^T factorization with symmetric diagonal pivoting.

    The package's one elimination kernel.  Each step pivots on the
    largest remaining diagonal entry (Higham, 1990), so the pivots of a
    positive *semi*definite matrix stop being positive exactly where its
    numerical rank ends, and consistent singular systems are solved with
    the free coordinates set to zero.  Exact under the rational backend
    (rank decisions compare against literal zero).

    Under float64 the matrix is first rescaled symmetrically to unit
    diagonal (Jacobi scaling), which keeps systems whose columns differ
    by many orders of magnitude (as CG gradient histories do) solvable;
    ``solve`` and ``nullspace`` map their results back through the scale.
    The default rank floor there is ``RANK_FLOOR_MARGIN * n * eps``.

    ``append`` grows a full-rank factor by one row and column in natural
    order, so a factor grown from the empty matrix is the unpivoted
    factor of every leading block at once.
    """

    def __init__(self, A: np.ndarray, pivot_floor: Scalar | None = None):
        self._eliminate(A, pivot_floor, rescale=not backend_of(A).exact)
        if self.rank < self.n and self.pivots[-1] < -1000 * abs(self.pivot_floor):
            # PSD input can only stop on a (numerically) zero trailing
            # block; a solidly negative diagonal means the matrix was not
            # PSD at all.
            raise LinalgError(
                f"matrix is not positive semidefinite (diagonal {self.pivots[-1]})"
            )

    def _eliminate(self, A: np.ndarray, pivot_floor: Scalar | None, rescale: bool) -> None:
        backend = backend_of(A)
        n = A.shape[0]
        if A.shape != (n, n):
            raise DimensionMismatch("PivotedLDLT requires a square matrix")
        self._scale = None
        if rescale:
            self._scale = np.array(
                [1.0 / math.sqrt(A[j, j]) if A[j, j] > 0 else 1.0 for j in range(n)]
            )
            A = A * np.outer(self._scale, self._scale)
        if pivot_floor is None:
            if backend.exact:
                pivot_floor = Fraction(0)
            elif n == 0:
                pivot_floor = 0.0
            else:
                margin = RANK_FLOOR_MARGIN if rescale else 1
                pivot_floor = margin * n * np.finfo(np.float64).eps * float(max_abs(A))
        W = np.array(A, dtype=object if backend.exact else np.float64)
        perm = list(range(n))
        pivots = []
        rank = n
        for t in range(n):
            j = t + int(np.argmax(W.diagonal()[t:]))
            if j != t:
                # Rows carry the multipliers of earlier steps; above row t
                # the swapped columns are never read again.
                W[[t, j], :] = W[[j, t], :]
                W[t:, [t, j]] = W[t:, [j, t]]
                perm[t], perm[j] = perm[j], perm[t]
            piv = W[t, t]
            pivots.append(piv)
            if not piv > pivot_floor:
                rank = t
                break
            if t + 1 < n:
                col = W[t + 1 :, t] / piv
                W[t + 1 :, t] = col
                W[t + 1 :, t + 1 :] -= np.outer(col, col) * piv
        self.backend = backend
        self.n = n
        self.rank = rank
        self.perm = perm
        self.pivots = tuple(pivots)
        self.pivot_floor = pivot_floor
        self._W = W  # multipliers below the diagonal, pivots on it
        self._Linv = None  # L^{-1}, built by the first ``append``

    def append(self, column: np.ndarray) -> bool:
        """Border the factor with a new last row and column, in O(n^2).

        ``column`` holds the new column of the matrix, its diagonal entry
        last.  The factor grows only while it has full rank and the new
        pivot of the Jacobi-scaled matrix exceeds ``APPEND_MARGIN`` (an
        unscaled factor, as under the rational backend, needs a pivot
        above literal zero); otherwise it is left as it was and False is
        returned.
        """
        n, W = self.n, self._W
        if column.shape != (n + 1,):
            raise DimensionMismatch(f"append to order {n} of a column {column.shape}")
        if self.rank < n:
            return False
        b = _array_from(column[self.perm + [n]], self.backend)
        margin = self.backend.zero
        if self._scale is not None:
            s = 1.0 / math.sqrt(column[n]) if column[n] > 0 else 1.0
            b *= np.append(self._scale[self.perm], s) * s
            margin = APPEND_MARGIN
        if self._Linv is None:
            self._Linv = self.backend.empty((n, n))
            for t in range(n):
                self._Linv[t, :t] = -np.dot(W[t, :t], self._Linv[:t, :t])
                self._Linv[t, t] = self.backend.one
        # The new row of L is D^{-1} L^{-1} b, and the new row of L^{-1}
        # is (-row L^{-1}, 1): two products, where substitution would
        # take n dependent steps.
        y = np.dot(self._Linv, b[:n])
        row = y / W.diagonal()
        pivot = b[n] - np.dot(row, y)
        if not pivot > margin:
            return False
        self._W = self._bordered(W, row, pivot)
        self._Linv = self._bordered(self._Linv, -np.dot(row, self._Linv), self.backend.one)
        if self._scale is not None:
            self._scale = np.append(self._scale, s)
        self.perm.append(n)
        self.pivots += (pivot,)
        self.n = self.rank = n + 1
        return True

    def _bordered(self, M: np.ndarray, row: np.ndarray, corner: Scalar) -> np.ndarray:
        n = M.shape[0]
        grown = self.backend.empty((n + 1, n + 1))
        grown[:n, :n] = M
        grown[n, :n] = row
        grown[n, n] = corner
        return grown

    def leading_solves(self, b: np.ndarray) -> list[np.ndarray]:
        """x_k with A[:k, :k] x_k = b[:k], for k = 1..n, all from this factor.

        The leading k-by-k block of an unpivoted factor is the factor of
        A[:k, :k], so a full-rank factor grown by ``append`` from the
        empty matrix serves every k: one forward substitution, then all n
        back substitutions at once (column k-1 of X holds x_k), O(n^3)
        arithmetic in O(n) array steps.
        """
        n, W = self.n, self._W
        if b.shape[0] != n:
            raise DimensionMismatch(f"solve of order {n} against {b.shape}")
        if self.rank < n or self.perm != list(range(n)):
            raise LinalgError("leading solves need an unpivoted full-rank factor")
        if self._scale is not None:
            b = b * self._scale
        y = _array_from(b, self.backend)
        for t in range(1, n):
            y[t] -= np.dot(W[t, :t], y[:t])
        y = y / W.diagonal()
        X = self.backend.empty((n, n))
        for t in range(n - 1, -1, -1):
            X[t, t:] = y[t] - np.dot(W[t + 1 :, t], X[t + 1 :, t:])
        if self._scale is not None:
            X *= self._scale[:, None]
        return [_freeze(X[:k, k - 1].copy()) for k in range(1, n + 1)]

    def _unscaled(self, v: list) -> np.ndarray:
        out = _array_from(v, self.backend)
        if self._scale is not None:
            out = self._scale * out
        return _freeze(out)

    def solve(self, b: np.ndarray, consistency_tol: float = 1e-8):
        """Return ``(x, consistent)`` with free coordinates of x zeroed.

        ``consistent`` reports whether b lies in the range of A: exactly
        under the rational backend, against ``consistency_tol`` relative
        to max(1, |b|_inf) under float64 (b as rescaled).
        """
        n, r, W = self.n, self.rank, self._W
        if b.shape[0] != n:
            raise DimensionMismatch(f"solve of order {n} against {b.shape}")
        if self._scale is not None:
            b = b * self._scale
        y = _array_from([b[self.perm[t]] for t in range(n)], self.backend)
        for t in range(r):
            y[t + 1 :] -= W[t + 1 :, t] * y[t]
        if self.backend.exact:
            consistent = all(y[i] == 0 for i in range(r, n))
        else:
            bscale = max(1.0, float(max_abs(b))) if n else 1.0
            consistent = all(abs(y[i]) <= consistency_tol * bscale for i in range(r, n))
        for t in range(r):
            y[t] = y[t] / W[t, t]
        y[r:] = self.backend.zero
        for t in range(r - 1, -1, -1):
            y[t] -= np.dot(W[t + 1 : r, t], y[t + 1 : r])
        x = [self.backend.zero] * n
        for t in range(r):
            x[self.perm[t]] = y[t]
        return self._unscaled(x), consistent

    def nullspace(self) -> list[np.ndarray]:
        """A basis of the kernel, one vector per pivot-free column."""
        n, r, W = self.n, self.rank, self._W
        basis = []
        for f in range(r, n):
            top = [-W[f, t] for t in range(r)]
            for t in range(r - 1, -1, -1):  # L11^T x = -L21[f, :]
                xt = top[t]
                for i in range(t + 1, r):
                    xt = xt - W[i, t] * top[i]
                top[t] = xt
            v = [self.backend.zero] * n
            for t in range(r):
                v[self.perm[t]] = top[t]
            v[self.perm[f]] = self.backend.one
            basis.append(self._unscaled(v))
        return basis


class SpdCheck(PivotedLDLT):
    """The pivoted kernel read as a test of positive definiteness.

    M is positive definite exactly when all n pivots exceed the pivot
    floor, which defaults to 0 on the rational backend and to
    n * eps * max|M_ij| on the float backend (so exactly singular
    integer matrices are reliably rejected).  M is not rescaled, so the
    floor is relative to M as given.  Non-SPD input is a result, not an
    error: ``pivots`` run up to and including the first failing one.
    """

    def __init__(self, M: np.ndarray, pivot_floor: Scalar | None = None):
        self._eliminate(M, pivot_floor, rescale=False)

    @property
    def is_spd(self) -> bool:
        return self.rank == self.n

    @property
    def failed_pivot(self) -> int | None:
        """0-based elimination step of the first non-positive pivot."""
        return None if self.is_spd else self.rank


def cholesky_spd_check(M: np.ndarray, pivot_floor: Scalar | None = None) -> SpdCheck:
    """Test positive definiteness by the pivots of the L D L^T factorization."""
    return SpdCheck(M, pivot_floor)


def solve_spd(M: np.ndarray, b: np.ndarray, check: SpdCheck | None = None) -> np.ndarray:
    """Solve M y = b for symmetric positive definite M.

    Exact under the rational backend.  Raises ``NotSPDError`` if the
    pivot test fails; a previously computed ``check`` may be supplied to
    skip refactorization.
    """
    if M.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"solve of shapes {M.shape} and {b.shape}")
    if check is None:
        check = cholesky_spd_check(M)
    if not check.is_spd:
        raise NotSPDError(
            f"matrix is not positive definite: pivot {check.failed_pivot + 1} "
            f"is {check.pivots[check.failed_pivot]}",
            pivot_index=check.failed_pivot + 1,
        )
    return check.solve(b)[0]
