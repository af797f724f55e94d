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
per operation.  The products (``_product``), the elimination
(``_eliminate``) and the generator's reflections work instead on integer
numerators over a common denominator (``_integerized``; one per row and
per column of a matrix, ``_integer_rows``).  Integers sum with no gcd, and
each result entry becomes a ``Fraction`` once (``_rationalized``).

Two kernels carry every decision about rank and definiteness.
``_orthogonalized`` (Gram-Schmidt) decides which vectors of a list depend
on the earlier ones; ``_eliminate`` (natural-order L D L^T, the one
elimination loop) decides how far a symmetric matrix is positive definite
and serves ``leading_solves`` and the exact ``SpdCheck``.
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
    gcd, and each result entry is made a ``Fraction`` once.  Two vectors
    have one denominator each.  Otherwise each row of ``a`` and each column
    of ``b`` has its own (a vector counts as one row or one column): a
    matrix is usually a stack of vectors, such as a CG history, whose
    denominators are unrelated and have a needlessly large common multiple.
    """
    if a.dtype != object:
        return np.dot(a, b)
    if a.ndim == b.ndim == 1:
        Na, da = _integerized(a)
        Nb, db = (Na, da) if b is a else _integerized(b)
        return _rationalized(np.dot(Na, Nb), da * db)
    Na, da = _integer_rows(a if a.ndim == 2 else a[None, :])
    Nb, db = _integer_rows(b.T if b.ndim == 2 else b[None, :])
    dens = np.multiply.outer(np.array(da, dtype=object), np.array(db, dtype=object))
    return _rationalized(np.dot(Na, Nb.T), dens).reshape(a.shape[:-1] + b.shape[1:])


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


# A float64 column is dropped when the part of it that the earlier kept
# columns do not span has at most sqrt(eps) of its norm, q^T q <= eps v^T v:
# below that a solve on the column keeps fewer than half the digits.  On
# 1000 exactly rank-deficient integer matrices with n <= 6 columns, the
# number of kept columns of every prefix matched its exact rank.  CG
# histories that keep their theory are nowhere near it: |q| / |v| is 1 to
# 15 digits on every gradient of the benchmark's seed-1 float64 job sets.
_DROP_MARGIN = np.finfo(np.float64).eps


def _orthogonalized(vectors) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """Gram-Schmidt of v_0..v_{r-1}, column by column: ``(Q, T, d, kept)``.

    v_j becomes q_j = v_j - sum_i c_ij q_i, c_ij = q_i^T v_j / d_i, over the
    kept q_i before it: classical Gram-Schmidt twice under float64 ("twice
    is enough": Giraud, Langou and Rozloznik, 2005), once under rationals.
    Column j is kept unless q_j^T q_j <= eps v_j^T v_j (float64) or = 0
    (rationals): the package's one rank decision.  A NaN column is kept.

    The rows of Q are the kept q_j, unnormalized, ``d`` their squared norms
    and ``kept`` their indices.  T = R^-1 for the unit upper triangular R
    of V = Q R: sum_i T[i, j] v_i = q_j, which for a dropped j is the
    negligible (under rationals, zero) part left over.  Orthogonal input,
    such as an exact CG history, gives Q = V and T = I.
    """
    backend = backend_of(vectors[0])
    r, n = len(vectors), vectors[0].shape[0]
    Q, d, T = backend.empty((r, n)), backend.empty(r), backend.empty((r, r))
    passes, kept = 1 if backend.exact else 2, []
    for j, v in enumerate(vectors):
        T[j, j] = backend.one
        q, m = v, len(kept)
        for _ in range(passes if kept else 0):
            c = _product(Q[:m], q) / d[:m]
            if c.any():
                q = q - _product(c, Q[:m])
                T[:j, j] -= _product(T[:j, kept], c)
        q_sq = norm_sq(q)
        if not q_sq <= (0 if backend.exact else _DROP_MARGIN * norm_sq(v)):
            Q[m], d[m] = q, q_sq
            kept.append(j)
    return Q[: len(kept)], T, d[: len(kept)], kept


def _spd_floor(M: np.ndarray) -> Scalar:
    """The default pivot floor: 0 under rationals, n * eps * max|M_ij| under
    float64, the maximum taken over the finite entries (0 if there are none)."""
    if backend_of(M).exact:
        return Fraction(0)
    top = np.abs(M[np.isfinite(M)]).max(initial=0.0)
    return len(M) * np.finfo(np.float64).eps * float(top)


def _eliminate(M: np.ndarray, floor: Scalar) -> tuple[np.ndarray, list, int]:
    """Natural-order L D L^T of M up to its first pivot not above ``floor``.

    The package's one elimination loop.  Returns ``(W, pivots, m)``: the
    pivots up to and including the failing one, the order m of the largest
    leading block they show positive definite, and, in the first m columns
    of W, the multipliers below the diagonal and the pivots on it.  The
    factor's leading k-by-k block is the factor of M[:k, :k].

    Under rationals the elimination is fraction-free (Bareiss, 1968): it
    runs on the integer numerators of M over one denominator, and divides
    each update exactly by the previous integer pivot, so no gcd is taken
    inside the loop.  Each pivot and multiplier becomes a ``Fraction``
    once, equal to the one the Schur complements would give.
    """
    exact = backend_of(M).exact
    if exact:
        # From step t on the trailing block of W is prev * den times the Schur
        # complement, prev being the integer pivot of step t - 1 (1 at t = 0).
        W, den = _integerized(M)
    else:
        W = np.array(M, dtype=np.float64)
    prev, pivots = 1, []
    for t in range(len(M)):
        piv = Fraction(W[t, t], prev * den) if exact else W[t, t]
        pivots.append(piv)
        if not piv > floor:
            return W, pivots, t
        col = W[t + 1 :, t]
        if exact:
            W[t + 1 :, t + 1 :] = (W[t, t] * W[t + 1 :, t + 1 :] - np.outer(col, col)) // prev
            prev = W[t, t]
            W[t + 1 :, t] = [Fraction(x, prev) for x in col]
            W[t, t] = piv
        else:
            W[t + 1 :, t + 1 :] -= np.outer(col / piv, col)
            W[t + 1 :, t] = col / piv
    return W, pivots, len(M)


def _forward(W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """y with L D y = b, for the unit lower L below the diagonal of W and D on it."""
    y = _array_from(b, backend_of(W))
    for t in range(1, len(y)):
        y[t] -= np.dot(W[t, :t], y[:t])
    return y / W.diagonal()[: len(y)]


def leading_solves(A: np.ndarray, b: np.ndarray) -> list[np.ndarray]:
    """x_k with A[:k, :k] x_k = b[:k] for k = 1..m, from one L D L^T of A.

    Elimination in natural order factors every leading block at once.  It
    stops at the first pivot that the SPD test's floor fails, so m is the
    order of the largest leading block that is (numerically) positive
    definite.  Under float64 A is first scaled to unit diagonal (Jacobi
    scaling), which keeps systems whose columns differ by many orders of
    magnitude solvable, and the floor is ``SpdCheck``'s for the scaled
    matrix, r * eps * max|A_ij|; under rationals it is literal zero.  A NaN
    pivot stops it too.  One forward
    substitution then serves every prefix b[:k], and the m back
    substitutions run at once (column k-1 of X holds x_k): O(r^3)
    arithmetic in O(r) array steps.
    """
    backend = backend_of(A)
    r = A.shape[0]
    if A.shape != (r, r) or b.shape != (r,):
        raise DimensionMismatch(f"leading solves of shapes {A.shape} and {b.shape}")
    scale = None
    if not backend.exact:  # 1/sqrt(A_jj), or 1 where A_jj is not positive
        scale = 1 / np.sqrt(np.where(A.diagonal() > 0, A.diagonal(), 1.0))
        A, b = A * np.outer(scale, scale), b * scale
    W, _, m = _eliminate(A, _spd_floor(A))
    y = _forward(W, b[:m])
    X = backend.empty((m, m))
    for t in range(m - 1, -1, -1):
        X[t, t:] = y[t] - np.dot(W[t + 1 : m, t], X[t + 1 :, t:])
    if scale is not None:
        X *= scale[:m, None]
    return [_freeze(X[:k, k - 1].copy()) for k in range(1, m + 1)]


def _cholesky_pivots(M: np.ndarray, floor: float) -> tuple[np.ndarray, list, int]:
    """``_eliminate``'s ``(W, pivots, m)`` for a float64 M, from LAPACK.

    One Cholesky factor M = L L^T in natural order, which needs no pivoting
    on SPD input (Golub and Van Loan, 4.2), with pivots d_t = L_tt^2.  Only
    a matrix that LAPACK refuses runs the elimination loop, which names the
    first pivot to fail the floor; such an M never counts as factored in
    full, even if rounding lets every pivot of the loop pass.
    """
    n = len(M)
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        # Behind a pivot far below the floor the loop may overflow to inf;
        # the verdict and the pivots up to that one stand.
        with np.errstate(over="ignore", invalid="ignore"):
            W, pivots, m = _eliminate(M, floor)
        return W, pivots, min(m, n - 1)
    d = L.diagonal() ** 2
    W = L / L.diagonal()
    W[range(n), range(n)] = d
    failing = np.flatnonzero(~(d > floor))
    m = int(failing[0]) if len(failing) else n
    return W, d[: m + 1].tolist(), m


class SpdCheck:
    """A natural-order L D L^T factorization read as a test of positive definiteness.

    M is positive definite exactly when all n pivots exceed the pivot
    floor, which defaults to 0 on the rational backend and to
    n * eps * max|M_ij| on the float backend (so exactly singular integer
    matrices are reliably rejected); the maximum is over the finite
    entries, so a NaN entry fails the pivot where it enters.  M is not
    rescaled, so the floor is relative to M as given.  Non-SPD input is a
    result, not an error: ``pivots`` run up to and including the first
    failing one.

    Under rationals the factor is ``_eliminate``'s exact elimination; under
    float64 it is one LAPACK Cholesky factor (``_cholesky_pivots``).  Both
    keep multipliers below the diagonal and pivots on it, so ``solve``
    reads them alike.
    """

    def __init__(self, M: np.ndarray, pivot_floor: Scalar | None = None):
        n = M.shape[0]
        if M.shape != (n, n):
            raise DimensionMismatch("SpdCheck requires a square matrix")
        if pivot_floor is None:
            pivot_floor = _spd_floor(M)
        self.backend = backend_of(M)
        factor = _eliminate if self.backend.exact else _cholesky_pivots
        self._W, pivots, self.rank = factor(M, pivot_floor)
        self.n = n
        self.pivots = tuple(pivots)
        self.pivot_floor = pivot_floor

    @property
    def is_spd(self) -> bool:
        return self.rank == self.n

    @property
    def failed_pivot(self) -> int | None:
        """0-based elimination step of the first non-positive pivot."""
        return None if self.is_spd else self.rank

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with M x = b, on the factor of a positive definite M."""
        x, W = _forward(self._W, b), self._W
        for t in range(self.n - 2, -1, -1):
            x[t] -= np.dot(W[t + 1 :, t], x[t + 1 :])
        return _freeze(x)


def cholesky_spd_check(M: np.ndarray, pivot_floor: Scalar | None = None) -> SpdCheck:
    """Test positive definiteness by the pivots of ``SpdCheck``'s factorization."""
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
    return check.solve(b)
