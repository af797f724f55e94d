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

``Fraction`` arrays are the rational backend at every boundary, but not
inside its hot kernels, because a sum of ``Fraction`` products pays a gcd
per operation.  The products (``_product``), the elimination of
``PivotedLDLT`` and the generator's reflections work instead on integer
numerators over one common denominator (``_integerized``; in a product of
two matrices, one per row and per column, ``_integer_rows``).  Integers
sum with no gcd, and each result entry becomes a ``Fraction`` once
(``_rationalized``).
"""

from __future__ import annotations

import math
import re
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


# One grammar for numeric text on every backend and Python version: an
# optional sign, then p/q or digits with an optional fraction and exponent,
# with whitespace around.  |exponent| <= 4300, Python's int-string digit limit,
# is checked before any integer is built: Fraction("1e999999999") builds 10**999999999.
# So is every run of digits, so that a token's fate does not hang on the
# interpreter's limit (PYTHONINTMAXSTRDIGITS=0 lifts it).
_TOKEN = re.compile(r"\s*[+-]?(?:\d+/\d+|(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?0*(\d+))?)\s*", re.ASCII)
EXPONENT_CAP = 4300
_LONG_DIGIT_RUN = re.compile(r"\d{%d}" % (EXPONENT_CAP + 1), re.ASCII)


class Backend:
    """A scalar field implementation: float64 or exact rationals."""

    def __init__(self, name: str, exact: bool):
        self.name = name
        self.exact = exact

    def __repr__(self) -> str:
        return f"Backend({self.name!r})"

    def scalar(self, value) -> Scalar:
        """Convert ``value`` to this backend's scalar type.

        Strings must match ``_TOKEN``: decimal literals or exact "p/q"
        fractions, with no run of more than ``EXPONENT_CAP`` digits and no
        exponent above it.  Under float64 a decimal token goes to
        ``float()``, with the value of ``float(Fraction(token))`` bit for
        bit.  Under the rational backend a float converts to its exact
        binary value; pass a string to get decimal semantics ("0.1" ->
        1/10).  Booleans and values naming no rational ("nan", "inf" or
        "1/0" as strings, a float NaN or infinity under rationals) raise
        ``LinalgError``, whose message shows at most 40 characters of the
        value.
        """
        try:
            if isinstance(value, (bool, np.bool_)):
                raise TypeError("a boolean is not a number")
            if isinstance(value, str):
                match = _TOKEN.fullmatch(value)
                exponent = match and match[1]
                if (not match or _LONG_DIGIT_RUN.search(value)
                        or exponent and (len(exponent) > 4 or int(exponent) > EXPONENT_CAP)):
                    raise ValueError("not a numeric token")
                if self.exact:
                    return Fraction(value)
                # float() rounds as float(Fraction()) does, except for the sign of
                # a zero ("-0" is +0.0) and overflow ("1e400" is an error).
                x = 0.0 if "/" in value else float(value)
                return x if x and math.isfinite(x) else float(Fraction(value))
            if not self.exact:
                return float(value)
            if isinstance(value, Fraction):
                return value
            if isinstance(value, (int, np.integer)):
                return Fraction(int(value))
            if isinstance(value, float):
                return Fraction(value)
            raise TypeError(f"{type(value).__name__} is not a number")
        except (TypeError, ValueError, OverflowError, ZeroDivisionError) as err:
            text = repr(value)
            if len(text) > 40:
                text = text[:40] + "..."
            raise LinalgError(f"cannot convert {text} to a {self.name} scalar") from err

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


def _array_from(entries, backend: Backend) -> np.ndarray:
    """A new array of the backend's scalars, one per entry.

    Under float64, ints and floats (or an int or float64 array) convert in
    one call; anything else (a token, a Fraction, a boolean) goes entry by
    entry through ``Backend.scalar``, as every entry does under rationals.
    """
    if backend.exact:
        out = np.empty(len(entries), dtype=object)
        out[:] = [backend.scalar(e) for e in entries]
        return out
    kinds = {entries.dtype.type} if isinstance(entries, np.ndarray) else set(map(type, entries))
    if not kinds <= {float, int, np.float64, np.int64}:
        entries = [backend.scalar(e) for e in entries]
    try:
        return np.array(entries, dtype=np.float64)
    except OverflowError as err:
        raise LinalgError("an integer entry lies outside the float64 range") from err


def _finite(arr: np.ndarray, backend: Backend) -> np.ndarray:
    """``arr`` frozen, after rejecting a float64 NaN or infinity in it."""
    if not backend.exact and not np.isfinite(arr).all():
        raise LinalgError("float64 entries must be finite (no NaN or infinity)")
    return _freeze(arr)


def vector(entries, backend: Backend = F64) -> np.ndarray:
    """Build a read-only 1-D vector on the given backend.

    Entries may be numbers or numeric strings ("p/q" or decimal), or a
    numeric array; a float64 NaN or infinity is rejected, and so is a
    string in place of the sequence.
    """
    try:
        if isinstance(entries, str):
            raise TypeError("a string is not a sequence of entries")
        out = _array_from(entries, backend)
    except TypeError as err:
        raise DimensionMismatch("a vector must be a sequence of entries") from err
    if out.ndim != 1 or len(out) == 0:
        raise DimensionMismatch("vectors must have dimension >= 1")
    return _finite(out, backend)


def sym_matrix(rows, backend: Backend = F64) -> np.ndarray:
    """Build a read-only dense symmetric matrix, validating symmetry.

    ``rows`` is a sequence of rows or a square array.  Raises
    ``AsymmetricMatrixError`` naming the first entry, in row-major order
    over the lower triangle, that differs from its transpose partner
    (exact comparison in both backends).  A float64 NaN or infinity is
    rejected, and so is a string in place of the rows or of a row.
    """
    try:
        if isinstance(rows, str) or any(isinstance(row, str) for row in rows):
            raise TypeError("a string is not a sequence of entries")
        flat = rows.ravel() if isinstance(rows, np.ndarray) else [e for row in rows for e in row]
    except TypeError as err:
        raise DimensionMismatch("matrix rows must be sequences of entries") from err
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise DimensionMismatch("symmetric matrices must be square with n >= 1")
    out = _finite(_array_from(flat, backend).reshape(n, n), backend)
    bad = np.argwhere(np.tril(out != out.T, -1))
    if len(bad):
        i, j = bad[0]
        raise AsymmetricMatrixError(
            f"entry ({i}, {j}) = {out[i, j]} does not match ({j}, {i}) = {out[j, i]}"
        )
    return out


def _integer_rows(rows: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """``(N, d)`` with rows[i] == N[i] / d[i]: each row's integer numerators
    over the LCM of that row's denominators."""
    N, d = [], []
    for row in rows:
        ratios = [x.as_integer_ratio() for x in row]
        dens = {q for _, q in ratios}
        d.append(math.lcm(*dens))
        if len(dens) == 1:
            N += [p for p, _ in ratios]
        else:
            scale = {q: d[-1] // q for q in dens}
            N += [p * scale[q] for p, q in ratios]
    return np.array(N, dtype=object).reshape(rows.shape), d


def _integerized(arr: np.ndarray) -> tuple[np.ndarray, int]:
    """``(N, d)`` with arr == N / d: integer numerators over the LCM d of the denominators."""
    N, (d,) = _integer_rows(arr.reshape(1, -1))
    return N.reshape(arr.shape), d


# Fraction(p, q) entry by entry, one gcd each; a Fraction for scalar input.
_rationalized = np.frompyfunc(Fraction, 2, 1)


def _product(a: np.ndarray, b: np.ndarray):
    """``np.dot(a, b)``, on integer numerators under the rational backend.

    Under float64 this is one ``np.dot`` call.  Exact operands become
    integer numerators, the sums of products run on Python ints with no
    gcd, and each result entry is made a ``Fraction`` once.  Against a
    vector, each operand has one denominator.  A product of two matrices
    is a table of inner products between two stacks of vectors, such as a
    CG history, whose denominators are unrelated and have a needlessly
    large common multiple; there each row of ``a`` and each column of
    ``b`` has its own.
    """
    if a.dtype != object:
        return np.dot(a, b)
    if b.ndim == 1:
        Na, da = _integerized(a)
        Nb, db = (Na, da) if b is a else _integerized(b)
        return _rationalized(np.dot(Na, Nb), da * db)
    Na, da = _integer_rows(a)
    Nb, db = _integer_rows(b.T)
    dens = np.multiply.outer(np.array(da, dtype=object), np.array(db, dtype=object))
    return _rationalized(np.dot(Na, Nb.T), dens)


def dot(a: np.ndarray, b: np.ndarray) -> Scalar:
    """Inner product sum_i a_i b_i; exact under the rational backend."""
    if a.shape != b.shape:
        raise DimensionMismatch(f"dot of shapes {a.shape} and {b.shape}")
    if backend_of(a) is not backend_of(b):
        raise LinalgError("dot of vectors on different scalar backends")
    return _product(a, b)


def mat_vec(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix-vector product M v."""
    if M.shape[1] != v.shape[0]:
        raise DimensionMismatch(f"mat_vec of shapes {M.shape} and {v.shape}")
    if backend_of(M) is not backend_of(v):
        raise LinalgError("mat_vec of arrays on different scalar backends")
    return _freeze(_product(M, v))


def norm_sq(v: np.ndarray) -> Scalar:
    """Squared Euclidean norm, exact under the rational backend."""
    return _product(v, v)


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
    scale is zero contributes nothing; a NaN entry makes the result NaN,
    which no tolerance passes.  ``shift`` is None or one value per row.
    Under float64, row k is one product of a_k with the b_j of its
    triangle, so each pair's inner product is computed once and the other
    triangle never is; exact vectors take the whole table as one integer
    product.
    """
    rows = [backend.zero]
    if len(a) == 0 or len(b) == 0:
        return rows[0]
    B = np.stack(b)
    if backend.exact:
        table = _product(np.stack(a), B.T)
    else:
        row, col = (np.asarray(s, dtype=np.float64) for s in scales())
    for k, a_k in enumerate(a):
        m = k + diagonal
        if m == 0:
            continue
        t = table[k, :m] if backend.exact else np.dot(B[:m], a_k)
        if shift is not None:
            t = t - shift[k]
        t = np.abs(t)
        if not backend.exact:
            denom = row[k] * col[:m]
            live = denom != 0
            if not live.any():
                continue
            t = t[live] / denom[live]
        rows.append(t.max())
    return max(rows) if backend.exact else float(np.max(rows))


# Float64 rank floor of the Jacobi-scaled semidefinite kernel, in units
# of n * eps.  At 1 the exactly singular Gram matrix B^T B of
# B = [[-2,-2,1,-3],[1,-3,-2,3],[-2,-1,1,-3]] came out of full rank (last
# pivot 9.3e-16 against a floor of 8.9e-16), 1 of 3000 rank-deficient
# integer Gram matrices with n <= 6; from 2 up none of the 3000 did.
RANK_FLOOR_MARGIN = 4

# The smallest float64 pivot ``leading_solves`` accepts on the
# Jacobi-scaled (unit-diagonal) matrix, where pivot k is the squared sine
# of the angle between column k and the span of the earlier ones.
# Unpivoted elimination has no rank floor it can trust: on exactly
# rank-deficient integer Gram matrices with n <= 6 it left spurious
# pivots up to 6.4e-13 at dependent columns, where the exact pivot is 0.
# CG histories that keep their theory stay far above sqrt(eps): the
# smallest scaled pivot of S^T H S is 5e-3 for laplacian1d n = 400 and
# 0.47 for rand_spd n = 250 at cond 1e4, and every Gram pivot is ~1.
# Below sqrt(eps) a solve keeps fewer than half the digits.
LEADING_PIVOT_MARGIN = math.sqrt(np.finfo(np.float64).eps)


def _jacobi_scale(A: np.ndarray) -> np.ndarray:
    """1/sqrt(A_jj) for each j, or 1 where the diagonal entry is not positive."""
    return np.array([1.0 / math.sqrt(d) if d > 0 else 1.0 for d in A.diagonal()])


def leading_solves(A: np.ndarray, b: np.ndarray) -> list[np.ndarray]:
    """x_k with A[:k, :k] x_k = b[:k] for k = 1..m, from one L D L^T of A.

    Elimination in natural order factors every leading block at once: the
    leading k-by-k block of the factor of A is the factor of A[:k, :k].
    It stops at the first pivot at or below the margin, which is
    ``LEADING_PIVOT_MARGIN`` on the Jacobi-scaled matrix under float64
    and literal zero under rationals, so m is the order of the largest
    leading block that is (numerically) positive definite.  A NaN pivot
    does not stop it, so NaN input yields NaN solutions.  One forward
    substitution then serves every prefix b[:k], and the m back
    substitutions run at once (column k-1 of X holds x_k): O(r^3)
    arithmetic in O(r) array steps.
    """
    backend = backend_of(A)
    r = A.shape[0]
    if A.shape != (r, r) or b.shape != (r,):
        raise DimensionMismatch(f"leading solves of shapes {A.shape} and {b.shape}")
    scale, margin = None, backend.zero
    if not backend.exact:
        scale, margin = _jacobi_scale(A), LEADING_PIVOT_MARGIN
        A, b = A * np.outer(scale, scale), b * scale
    W = np.array(A)
    m = r
    for t in range(r):
        if W[t, t] <= margin:
            m = t
            break
        col = W[t + 1 :, t] / W[t, t]
        W[t + 1 :, t + 1 :] -= np.outer(col, W[t + 1 :, t])
        W[t + 1 :, t] = col
    y = _array_from(b[:m], backend)
    for t in range(1, m):
        y[t] -= np.dot(W[t, :t], y[:t])
    y = y / W.diagonal()[:m]
    X = backend.empty((m, m))
    for t in range(m - 1, -1, -1):
        X[t, t:] = y[t] - np.dot(W[t + 1 : m, t], X[t + 1 :, t:])
    if scale is not None:
        X *= scale[:m, None]
    return [_freeze(X[:k, k - 1].copy()) for k in range(1, m + 1)]


class PivotedLDLT:
    """L D L^T factorization with symmetric diagonal pivoting.

    The package's one pivoted elimination kernel.  Each step pivots on the
    largest remaining diagonal entry (Higham, 1990), so the pivots of a
    positive *semi*definite matrix stop being positive exactly where its
    numerical rank ends, and consistent singular systems are solved with
    the free coordinates set to zero.  Exact under the rational backend
    (rank decisions compare against literal zero).

    The rational elimination is fraction-free (Bareiss, 1968): it runs on
    the integer numerators of A over one denominator, dividing each update
    exactly by the previous integer pivot, so no gcd is taken inside the
    loop.  Each pivot and multiplier becomes a ``Fraction`` once, equal to
    the one the Schur complements would give, so ``pivots``, ``solve`` and
    ``nullspace`` read the same factor.  The pivot order is the same too:
    the integer diagonal is the Schur diagonal times prev * den, which has
    the sign of the previous pivot, positive whenever the floor is >= 0.

    Under float64 the matrix is first rescaled symmetrically to unit
    diagonal (Jacobi scaling), which keeps systems whose columns differ
    by many orders of magnitude (as CG gradient histories do) solvable;
    ``solve`` and ``nullspace`` map their results back through the scale.
    The default rank floor there is ``RANK_FLOOR_MARGIN * n * eps``.

    Pivoting makes the factor serve A alone.  ``leading_solves`` is the
    unpivoted, natural-order elimination whose factor serves every
    leading block of A at once, and the float64 ``SpdCheck`` is LAPACK's
    natural-order Cholesky factor.
    """

    def __init__(self, A: np.ndarray, pivot_floor: Scalar | None = None):
        self._eliminate(A, pivot_floor)
        if self.rank < self.n and self.pivots[-1] < -1000 * abs(self.pivot_floor):
            # PSD input can only stop on a (numerically) zero trailing
            # block; a solidly negative diagonal means the matrix was not
            # PSD at all.
            raise LinalgError(
                f"matrix is not positive semidefinite (diagonal {self.pivots[-1]})"
            )

    def _eliminate(self, A: np.ndarray, pivot_floor: Scalar | None) -> None:
        backend = backend_of(A)
        n = A.shape[0]
        if A.shape != (n, n):
            raise DimensionMismatch("PivotedLDLT requires a square matrix")
        self._scale = None
        if not backend.exact:
            self._scale = _jacobi_scale(A)
            A = A * np.outer(self._scale, self._scale)
        if pivot_floor is None:
            if backend.exact:
                pivot_floor = Fraction(0)
            elif n == 0:
                pivot_floor = 0.0
            else:
                pivot_floor = RANK_FLOOR_MARGIN * n * np.finfo(np.float64).eps * float(max_abs(A))
        if backend.exact:
            # Bareiss: A = W / den, and from step t on the trailing block of
            # W is prev * den times the Schur complement, prev being the
            # integer pivot of step t - 1 (1 at t = 0).
            W, den = _integerized(A)
        else:
            W, den = np.array(A, dtype=np.float64), 1
        prev = 1
        perm = list(range(n))
        pivots = []
        rank = n
        for t in range(n):
            diagonal = W.diagonal()[t:]
            j = t + int(np.argmax(diagonal if prev > 0 else -diagonal))
            if j != t:
                # Rows carry the multipliers of earlier steps; above row t
                # the swapped columns are never read again.
                W[[t, j], :] = W[[j, t], :]
                W[t:, [t, j]] = W[t:, [j, t]]
                perm[t], perm[j] = perm[j], perm[t]
            piv = Fraction(W[t, t], prev * den) if backend.exact else W[t, t]
            pivots.append(piv)
            if not piv > pivot_floor:
                rank = t
                break
            if backend.exact:
                col = W[t + 1 :, t]
                W[t + 1 :, t + 1 :] = (W[t, t] * W[t + 1 :, t + 1 :] - np.outer(col, col)) // prev
                prev = W[t, t]
                W[t + 1 :, t] = [Fraction(x, prev) for x in col]
                W[t, t] = piv
            elif t + 1 < n:
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


def _cholesky_factor(M: np.ndarray) -> np.ndarray | None:
    """LAPACK's lower Cholesky factor of M, or None where it meets a pivot <= 0."""
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return None


class SpdCheck(PivotedLDLT):
    """An L D L^T factorization read as a test of positive definiteness.

    M is positive definite exactly when all n pivots exceed the pivot
    floor, which defaults to 0 on the rational backend and to
    n * eps * max|M_ij| on the float backend (so exactly singular
    integer matrices are reliably rejected).  M is not rescaled, so the
    floor is relative to M as given.  Non-SPD input is a result, not an
    error: ``pivots`` run up to and including the first failing one.

    Under rationals the factor is the pivoted Bareiss elimination of
    ``PivotedLDLT``.  Under float64 it is one LAPACK Cholesky factor
    M = L L^T in natural order, which needs no pivoting on SPD input
    (Golub and Van Loan, 4.2), with pivots d_t = L_tt^2; M is SPD exactly
    when LAPACK succeeds and every d_t exceeds the floor (so a NaN pivot
    fails).  Where LAPACK fails, a bisection over the leading blocks
    finds the largest k for which M[:k, :k] factors, and pivot k + 1 is
    the Schur complement M[k, k] - |L_k^-1 M[:k, k]|^2.  Such an M is
    never reported SPD, even if rounding puts that value above the floor.
    Either factor is kept as multipliers below the diagonal and pivots on
    it, so ``solve`` reads both alike.
    """

    def __init__(self, M: np.ndarray, pivot_floor: Scalar | None = None):
        if backend_of(M).exact:
            self._eliminate(M, pivot_floor)
            return
        n = M.shape[0]
        if M.shape != (n, n):
            raise DimensionMismatch("SpdCheck requires a square matrix")
        if pivot_floor is None:
            pivot_floor = n * np.finfo(np.float64).eps * float(max_abs(M)) if n else 0.0
        k, L = n, _cholesky_factor(M)
        if L is None:
            # Leading blocks stay positive definite up to some order k and
            # no further: M[:lo, :lo] factors and M[:hi, :hi] does not.
            lo, hi, L = 0, n, np.zeros((0, 0))
            while hi - lo > 1:
                mid = (lo + hi) // 2
                L_mid = _cholesky_factor(M[:mid, :mid])
                if L_mid is None:
                    hi = mid
                else:
                    lo, L = mid, L_mid
            k = lo
            # The first k columns of the factor of M: below L_k, (L_k^-1 M[:k, k:])^T.
            L = np.vstack([L, np.linalg.solve(L, M[:k, k:]).T])
        # Behind a pivot far below the floor the factor may overflow to inf;
        # the verdict and the pivots up to that one stand.
        with np.errstate(over="ignore", invalid="ignore"):
            d = L.diagonal() ** 2
            if k < n:
                d = np.append(d, M[k, k] - np.dot(L[k], L[k]))
            W = np.zeros((n, n))
            W[:, :k] = L / L.diagonal()
        W[range(len(d)), range(len(d))] = d
        failing = np.flatnonzero(~(d > pivot_floor))
        rank = int(failing[0]) if len(failing) else k
        self.backend = F64
        self.n = n
        self.rank = rank
        self.perm = list(range(n))
        self.pivots = tuple(d[: rank + 1].tolist())
        self.pivot_floor = pivot_floor
        self._W, self._scale = W, None

    @property
    def is_spd(self) -> bool:
        return self.rank == self.n

    @property
    def failed_pivot(self) -> int | None:
        """0-based elimination step of the first non-positive pivot."""
        return None if self.is_spd else self.rank


def cholesky_spd_check(M: np.ndarray, pivot_floor: Scalar | None = None) -> SpdCheck:
    """Test positive definiteness by the pivots of an L D L^T factorization.

    Under float64 that is one natural-order LAPACK Cholesky factor; under
    rationals, the pivoted Bareiss elimination.  Both compare the pivots
    with the floor of ``SpdCheck``.
    """
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
