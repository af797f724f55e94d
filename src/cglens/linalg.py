"""Dense vectors and symmetric matrices over two scalar backends.

The same code paths run under IEEE double precision (``F64``) and under exact
arbitrary-precision rationals (``RATIONAL``, built on ``fractions.Fraction``).
Exactness is the whole point of the rational backend: a residual that a theorem
says must vanish either is exactly zero or exposes a bug.  Vectors and matrices
are plain numpy arrays (``float64``, or ``object`` holding ``Fraction``) marked
read-only at construction; nothing here mutates its inputs.

``Fraction`` arrays are the rational backend at every boundary, but not inside
it, since a sum of ``Fraction`` products pays a gcd per operation.  Inside, an
exact vector or stack of vectors has one form, ``_Rows``: a ``Fraction`` scale
per row times a primitive integer row, frozen as the arrays are.  ``run_cg``
computes with it, each record's array keeps the rows it was made or read from
(``_with_rows``), and the suite's tables, the oracle's sweep and both ghat
sweeps read them (``_stack``).  Their products (``_product``, ``_Rows.table``,
``_Rows.times``), sums (``_combination``, ``_running_sums``) and row rules run
on integers, and a ``Fraction`` is formed only for a nonzero residual, a report
or a public value.  The row rules take stacks of any number of rows, on both
backends, raw in exact arithmetic and normalized in float64 by ``_worst_ratio``:
``pairwise_residual`` over the triangle of an inner-product table, ``_row_dots``
and ``_row_residuals`` row by row.

``_orthogonalized`` (Gram-Schmidt) decides which vectors of a list depend on the
earlier ones.  A natural-order L D L^T decides how far a symmetric matrix is
positive definite, by one rule everywhere: stop at the first pivot not above the
floor.  Under rationals ``_eliminate`` (Bareiss) factors the dense H of
``SpdCheck``, and ``_sparse_ldl``, on nonzero entries only, the oracle's reduced
matrix, tridiagonal for an exact CG history; under float64 the factor is LAPACK's
(``_cholesky_pivots``), or ``_eliminate``'s where LAPACK refuses.  Every factor has
one layout, unit multipliers below the diagonal and pivots on it, and one forward
substitution on it (``_leading_combinations``) serves every leading solve.
``SpdCheck.solve`` needs z alone, for the whole system, and has its own loops.
"""
from __future__ import annotations

import itertools
import math
import re
import weakref
from collections.abc import Mapping
from fractions import Fraction
from functools import cached_property
from typing import Union

import numpy as np

Scalar = Union[float, Fraction]


class LinalgError(ValueError):
    """Base class for linear-algebra input errors."""


class DimensionMismatch(LinalgError):
    """Operands have incompatible dimensions."""


class AsymmetricMatrixError(LinalgError):
    """A symmetric matrix was constructed from asymmetric data."""


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
        return self.scalar(0)

    @property
    def one(self) -> Scalar:
        return self.scalar(1)

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
    string or a mapping (a JSON object) in place of the sequence.
    """
    try:
        if isinstance(entries, (str, Mapping)):
            raise TypeError("a string or a mapping is not a sequence of entries")
        out = _array_from(entries, backend)
    except TypeError as err:
        raise DimensionMismatch("a vector must be a sequence of entries") from err
    if out.ndim != 1 or len(out) == 0:
        raise DimensionMismatch("vectors must have dimension >= 1")
    return _finite(out, backend)


def sym_matrix(rows, backend: Backend = F64) -> np.ndarray:
    """Build a read-only dense symmetric matrix, validating symmetry.

    ``rows`` is a sequence of rows or a square array.  Raises
    ``AsymmetricMatrixError`` as ``_check_symmetric`` does.  A float64 NaN or
    infinity is rejected, and so is a string or a mapping (a JSON object) in
    place of the rows or of a row.  Under float64, rows of ints and floats
    convert in one numpy call; any other entry goes through ``_array_from``.
    """
    try:
        if isinstance(rows, (str, Mapping)) or any(isinstance(row, (str, Mapping)) for row in rows):
            raise TypeError("a string or a mapping is not a sequence of entries")
        n = len(rows)
        square = n > 0 and all(len(row) == n for row in rows)
    except TypeError as err:
        raise DimensionMismatch("matrix rows must be sequences of entries") from err
    if not square:
        raise DimensionMismatch("symmetric matrices must be square with n >= 1")
    out = None if backend.exact else _float_rows(rows, n)
    if out is None:
        flat = rows.ravel() if isinstance(rows, np.ndarray) else [e for row in rows for e in row]
        out = _array_from(flat, backend).reshape(n, n)
    out = _finite(out, backend)
    _check_symmetric(out)
    return out


def _float_rows(rows, n: int) -> np.ndarray | None:
    """Rows of ints and floats as one (n, n) float64 array from one numpy call, else
    None: a token, a ``Fraction``, an int past int64, a nested sequence, or a
    boolean, which numpy would read as 0 or 1."""
    try:
        arr = np.asarray(rows)
    except ValueError:  # a nested sequence of another shape
        return None
    if arr.shape != (n, n) or arr.dtype.kind not in "fi":
        return None
    # A list's booleans would read as 0 or 1, so its types are read where one of those is.
    if not isinstance(rows, np.ndarray) and ((arr == 0) | (arr == 1)).any() and (
            {bool, np.bool_} & set(map(type, itertools.chain(*rows)))):
        return None
    return arr.astype(np.float64, copy=isinstance(rows, np.ndarray))  # never the caller's array


def _check_symmetric(M: np.ndarray) -> None:
    """Raise ``AsymmetricMatrixError`` naming the first entry of the square M,
    in row-major order over the lower triangle, that differs from its
    transpose partner (exact comparison in both backends)."""
    bad = np.argwhere(np.tril(M != M.T, -1))
    if len(bad):
        i, j = bad[0]
        raise AsymmetricMatrixError(
            f"entry ({i}, {j}) = {M[i, j]} does not match ({j}, {i}) = {M[j, i]}"
        )


def _integer_rows(rows: np.ndarray) -> _Rows:
    """A 1-D or 2-D array of Fractions or ints as a vector or a stack (``_Rows``): each
    row's numerators over the LCM of its denominators, made primitive."""
    vectors = []
    for row in np.atleast_2d(rows):
        ratios = [x.as_integer_ratio() for x in row]
        dens = {q for _, q in ratios}
        L = math.lcm(*dens)
        N = [p for p, _ in ratios] if len(dens) == 1 else [p * (L // q) for p, q in ratios]
        vectors.append(_Rows.of(np.array(N, dtype=object), L))
    return vectors[0] if rows.ndim == 1 else _Rows.stacked(vectors, rows.shape[1])


def _integerized(arr: np.ndarray) -> tuple[np.ndarray, int]:
    """``(N, d)`` with arr == N / d: integer numerators over one denominator d."""
    v = _integer_rows(arr.ravel())
    return (v.A * v.s.numerator).reshape(arr.shape), v.s.denominator


# Fraction(p, q) entry by entry, one gcd each; a Fraction for scalar input.
_rationalized = np.frompyfunc(Fraction, 2, 1)


def _fractions(v):
    """A stack's canonical ``Fraction`` array, one gcd per entry; an array as it is."""
    if not isinstance(v, _Rows):
        return v
    if v.ndim == 1:
        return _rationalized(v.A * v.s.numerator, v.s.denominator)
    num, den = v.ratios()
    return _rationalized(v.A * num[:, None], den[:, None])


# id(array) -> (a weak reference to it, the rows it was made or read from), while it
# lives: keyed to the array, not to a record, so an array put in a record's place is read anew.
_KEPT: dict = {}


def _with_rows(arr: np.ndarray, rows=None) -> np.ndarray:
    """The frozen ``arr``, with ``rows`` (its integer rows by default) kept for it
    under rationals; a float64 array as it is."""
    if arr.dtype == object:
        key = id(arr)
        _KEPT[key] = (weakref.ref(arr, lambda _, kept=_KEPT: kept.pop(key, None)),
                      _integer_rows(arr) if rows is None else rows)
    return arr


def _rows(arr: np.ndarray) -> _Rows:
    """The stack of an exact array: the rows kept for it, else its integer rows."""
    kept = _KEPT.get(id(arr))
    return kept[1] if kept is not None and kept[0]() is arr else _integer_rows(arr)


def _product(a, b):
    """``np.dot(a, b)``, on integer rows under the rational backend.

    Under float64 this is one ``np.dot`` call.  Exact operands are read as
    stacks (``_stack``), the rows of ``a`` and the columns of ``b``, each with
    its own scale, since a matrix is usually a stack of unrelated vectors, such
    as a CG history or H (``QuadraticProblem._H_rows``); a vector ``a`` is read
    once when it is ``b``.  Each entry is one integer dot, made a ``Fraction`` once
    (``_Rows.table``), and the product of two vectors is its one entry.
    """
    if not isinstance(a, _Rows) and a.dtype != object:
        return np.dot(a, b)
    rows = _stack(a, RATIONAL)
    cols = rows if b is a and a.ndim == 1 else _stack(b if b.ndim == 1 else b.T, RATIONAL)
    if rows.ndim == cols.ndim == 1:
        s, t = rows.s, cols.s
        return Fraction(s.numerator * t.numerator * np.dot(rows.A, cols.A), s.denominator * t.denominator)
    return rows.table(cols).reshape(a.shape[:-1] + b.shape[1:])


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


def scalar_token(x) -> str:
    """Serialize a scalar losslessly as text.

    Rationals render as "p/q" (or a bare integer); floats use repr,
    which round-trips bit-for-bit through float().  A rational whose
    numerator or denominator has more digits than Python's int-to-text
    limit (4300 by default) raises ``LinalgError``.
    """
    try:
        if isinstance(x, Fraction):
            return str(x)
        if isinstance(x, (int, np.integer)):
            return str(int(x))
    except ValueError as err:
        raise LinalgError("a number has more digits than Python's int-to-text limit") from err
    return repr(float(x))


def residual_magnitude(v: np.ndarray) -> Scalar:
    """Size of a residual vector: ``_row_residuals`` of v as a one-row stack,
    its Euclidean norm under float64 and its max-abs entry under rationals."""
    return _row_residuals(_stack(v[None], backend_of(v))).item()


def _gate(backend: Backend, residual, bound, message: str) -> None:
    """Raise ``LinalgError(message)`` unless ``residual`` is 0 under rationals, or
    |residual| <= ``bound()`` under float64: a NaN residual is refused."""
    if not (residual == 0 if backend.exact else abs(residual) <= bound()):
        raise LinalgError(message)


def _worst_ratio(backend: Backend, raw: np.ndarray, scale) -> Scalar:
    """max(0, raw) under rationals; under float64 max(0, raw / scale()) over the
    entries of nonzero scale, NaN if one is NaN (Python's ``max`` drops a NaN)."""
    if backend.exact:
        return max([backend.zero, *raw])
    denom = np.asarray(scale(), dtype=np.float64)
    live = denom != 0
    return float(np.max(np.concatenate(([0.0], raw[live] / denom[live]))))


class _Rows:
    """The one exact form of a vector and of a stack of vectors.

    Row i is s[i] A[i]: a ``Fraction`` scale times a primitive integer row, whose
    entries have gcd 1 or are all zero (content and primitive part: Knuth, TAOCP
    vol. 2, 4.6.1); a zero scale stands for the zero row.  A vector is ``A`` 1-D
    with ``s`` one ``Fraction``.  Scaling and slicing touch the scales alone, and a
    sum of rows (``_combination``) or a product with H (``times``) takes one lcm,
    one integer sum and one gcd per row, where a ``Fraction`` array takes one gcd
    per entry.  ``shape``, ``ndim`` and ``dtype`` are the array's.  ``A`` and an
    array ``s`` are frozen: a trace's vectors keep their rows (``_with_rows``),
    which must stay the rows of those vectors.
    """

    dtype = np.dtype(object)

    def __init__(self, A: np.ndarray, s):
        self.A, self.s = _freeze(A), _freeze(s) if isinstance(s, np.ndarray) else s

    @classmethod
    def of(cls, row: np.ndarray, den: int, num: int = 1) -> "_Rows":
        """The vector row num / den, the content of row moved into the scale by one gcd."""
        content = math.gcd(*row)
        return cls(row // content if content > 1 else row, Fraction(num * content, den))

    @staticmethod
    def stacked(vectors, n: int) -> "_Rows":
        """The vectors as the rows of one stack of width n."""
        A, s = np.empty((len(vectors), n), dtype=object), np.empty(len(vectors), dtype=object)
        for i, v in enumerate(vectors):
            A[i], s[i] = v.A, v.s
        return _Rows(A, s)

    shape = property(lambda self: self.A.shape)
    ndim = property(lambda self: self.A.ndim)

    def __len__(self) -> int:
        return len(self.A)

    def __getitem__(self, rows) -> "_Rows":
        return _Rows(self.A[rows], self.s[rows])

    def __mul__(self, t) -> "_Rows":
        return _Rows(self.A, self.s * t)

    __rmul__ = __mul__

    def __truediv__(self, t) -> "_Rows":
        return _Rows(self.A, self.s / t)

    def __add__(self, other: "_Rows") -> "_Rows":
        return _combination([(1, self), (1, other)])

    def ratios(self) -> tuple[np.ndarray, np.ndarray]:
        """The scales' numerators and denominators, as arrays (of one entry for a vector)."""
        s = [self.s] if self.ndim == 1 else self.s
        return (np.array([x.numerator for x in s], dtype=object),
                np.array([x.denominator for x in s], dtype=object))

    def table(self, other: "_Rows") -> np.ndarray:
        """The ``Fraction`` table of a_i^T b_j over the rows of two stacks."""
        (pa, qa), (pb, qb) = self.ratios(), other.ratios()
        T = np.dot(np.atleast_2d(self.A), np.atleast_2d(other.A).T)
        return _rationalized(T * np.multiply.outer(pa, pb), np.multiply.outer(qa, qb))

    def triangle(self, other: "_Rows", extra: int) -> list:
        """Row k of the integer table of A_k^T B_j over its columns j < k + extra."""
        return [np.dot(other.A[: k + extra], row) for k, row in enumerate(self.A)]

    @cached_property
    def _over_one_denominator(self) -> tuple[np.ndarray, int]:
        """``(N, L)`` with the stack N / L, L the LCM of the scales' denominators."""
        L = math.lcm(*(t.denominator for t in self.s))
        return self.A * np.array([[t.numerator * (L // t.denominator)] for t in self.s], dtype=object), L

    def times(self, M: "_Rows") -> "_Rows":
        """M v for each row v, or for the vector, as primitive rows, on M's integer
        rows over one denominator, formed once per M."""
        N, L = M._over_one_denominator
        R = np.dot(self.A, N.T)
        if R.ndim == 1:
            return _Rows.of(R, self.s.denominator * L, self.s.numerator)
        return _Rows.stacked([_Rows.of(row, t.denominator * L, t.numerator)
                              for row, t in zip(R, self.s)], len(M))


def _integer_combination(terms) -> tuple[np.ndarray, int]:
    """``(N, L)`` with sum t v = N / L over the terms (t, v) of vectors, on integers
    alone: each scale t s as (t.numerator s.numerator) / (t.denominator s.denominator)."""
    dens = [t.denominator * v.s.denominator for t, v in terms]
    L = math.lcm(*dens)
    return sum(t.numerator * v.s.numerator * (L // d) * v.A for (t, v), d in zip(terms, dens)), L


def _combination(terms) -> _Rows:
    """sum t v over the terms (t, v) of vectors, as a vector."""
    return _Rows.of(*_integer_combination(terms))


def _running_sums(coeffs, S, divisors=None):
    """Row k is sum_{i <= k} coeffs[i] S[i] / divisors[k] (none without ``divisors``):
    one ``np.cumsum`` under float64, one ``_combination`` per row of a stack S."""
    if not isinstance(S, _Rows):
        sums = np.cumsum(coeffs[:, None] * S, axis=0)
        return sums if divisors is None else sums / divisors[:, None]
    sums = []
    for t, row in zip(coeffs, S):
        sums.append(_combination([(t, row), *([(1, sums[-1])] if sums else [])]))
    sums = _Rows.stacked(sums, S.shape[1])
    return sums if divisors is None else sums / divisors


def _padded(R, rows, total: int, like):
    """R[rows], then zero rows up to ``total`` rows: a stack if R and ``like`` are
    stacks, else a frozen array (``_fractions``)."""
    if isinstance(R, _Rows):
        zeros = total - len(rows)
        R = _Rows(np.concatenate((R.A[rows], np.zeros((zeros, R.shape[1]), dtype=object))),
                  np.concatenate((R.s[rows], np.full(zeros, Fraction(0), dtype=object))))
        return R if isinstance(like, _Rows) else _freeze(_fractions(R))
    out = backend_of(R).empty((total, R.shape[1]))
    out[: len(rows)] = R[rows]
    return _freeze(out)


def _stack(vectors, backend: Backend):
    """The vectors as the rows of one stack, the operand of the row rules: an
    array under float64, and ``_Rows`` under rationals, of an array (a vector
    gives a vector) or of a nonempty sequence of vectors, each read by ``_rows``."""
    if not backend.exact:
        return np.asarray(vectors)
    if isinstance(vectors, (_Rows, np.ndarray)):
        return vectors if isinstance(vectors, _Rows) else _rows(vectors)
    return _Rows.stacked([_rows(v) for v in vectors], len(vectors[0]))


def _symmetric_table(S, R) -> np.ndarray:
    """S R^T for stacks whose product is symmetric, such as Q and H Q: one ``np.dot``
    under float64, and under rationals its lower triangle (``_Rows.triangle``), mirrored."""
    if not isinstance(S, _Rows):
        return np.dot(S, R.T)
    (pa, qa), (pb, qb) = S.ratios(), R.ratios()
    F = np.empty((len(S), len(R)), dtype=object)
    for k, row in enumerate(S.triangle(R, 1)):
        F[k, : k + 1] = _rationalized(row * pa[k] * pb[: k + 1], qa[k] * qb[: k + 1])
    upper = np.triu_indices(len(S), 1)
    F[upper] = F.T[upper]
    return F


def _recorded(v) -> np.ndarray:
    """The frozen array that a trace record holds of a vector of ``run_cg``: under
    rationals its canonical ``Fraction`` array, with its rows kept (``_with_rows``)."""
    return _with_rows(_freeze(_fractions(v)), v)


def _row_dots(A, B) -> np.ndarray:
    """a_i^T b_i for each pair of rows of two stacks (``_stack``): under rationals
    one integer dot and one ``Fraction`` per row, each equal to ``dot``."""
    if not isinstance(A, _Rows):
        return np.einsum("ij,ij->i", A, B)
    (pa, qa), (pb, qb) = A.ratios(), B.ratios()
    return _rationalized(np.array([np.dot(a, b) for a, b in zip(A.A, B.A)], dtype=object) * pa * pb,
                         qa * qb)


def _row_residuals(A, *terms) -> np.ndarray:
    """The size of each row of A - sum t B over ``terms`` (t, B) of stacks
    (``_stack``), with t one scalar or one per row.

    Under float64 the Euclidean norm of the combination taken left to right.
    Under rationals the max-abs entry, which vanishes precisely when the norm
    does, all that an exact check relies on: row j is formed on integers
    (``_integer_combination``), and only a nonzero row becomes a ``Fraction``.
    """
    if not isinstance(A, _Rows):
        for t, B in terms:
            A = A - np.reshape(t, (-1, 1)) * B
        return np.linalg.norm(A, axis=1)
    out = np.full(len(A), Fraction(0), dtype=object)
    terms = [(t if np.ndim(t) else [t] * len(A), B) for t, B in terms]
    for j in range(len(A)):
        row, L = _integer_combination([(1, A[j]), *((-t[j], B[j]) for t, B in terms)])
        if row.any():
            out[j] = Fraction(np.abs(row).max(), L)
    return out


def pairwise_residual(backend: Backend, a, b, *, shift, diagonal: bool, scales,
                      origin=False, rows=None) -> Scalar:
    """Worst |a_k^T b_j - shift[k]| over the triangle j < k (j <= k if ``diagonal``).

    The residual rule of every identity over index pairs, each a triangle of
    the inner-product table of two vector sequences; with ``origin``, of a_k
    and b_{j+1} - b_0.  ``shift`` is None or one value per row.  Float vectors
    take the whole table as one product and divide entry (k, j) by row[k] *
    col[j], where ``(row, col) = scales()`` is called only under float64; an
    entry whose scale is zero contributes nothing, and a NaN makes the result
    NaN.  Exact vectors, or stacks whose ``_Rows.triangle`` a caller passes as
    ``rows``, report the raw worst value off the triangle's integer rows and
    the scales, an origin as T[k, j+1] - T[k, 0], and only an entry with a
    nonzero numerator becomes a ``Fraction``.
    """
    if len(a) == 0 or len(b) == 0:
        return backend.zero
    if not backend.exact:
        a, b = np.asarray(a), np.asarray(b)
        table = np.dot(a, (b[1:] - b[0] if origin else b).T)
        if shift is not None:
            table = table - np.array(shift, dtype=table.dtype)[:, None]
        triangle = np.tri(*table.shape, int(diagonal) - 1, dtype=bool)
        return _worst_ratio(backend, np.abs(table)[triangle],
                            lambda: np.multiply.outer(*map(np.asarray, scales()))[triangle])
    a, b = _stack(a, backend), _stack(b, backend)
    (pa, qa), (pb, qb) = a.ratios(), b.ratios()
    worst, lo = backend.zero, int(origin)
    for k, row in enumerate(a.triangle(b, int(diagonal) + lo) if rows is None else rows):
        cols = slice(lo, k + diagonal + lo)
        num, den = row[cols] * pb[cols], qb[cols]
        if origin:
            num, den = num * qb[0] - row[0] * pb[0] * den, den * qb[0]
        num, den = num * pa[k], den * qa[k]
        if shift is not None:
            num, den = num * shift[k].denominator - shift[k].numerator * den, den * shift[k].denominator
        for j in np.flatnonzero(num):
            worst = max(worst, abs(Fraction(num[j], den[j])))
    return worst


# A float64 column is dropped when the part of it that the earlier kept
# columns do not span has at most sqrt(eps) of its norm, q^T q <= eps v^T v:
# below that a solve on the column keeps fewer than half the digits.  On
# 1000 exactly rank-deficient integer matrices with n <= 6 columns, the
# number of kept columns of every prefix matched its exact rank.  CG
# histories that keep their theory are nowhere near it: |q| / |v| is 1 to
# 15 digits on every gradient of the benchmark's seed-1 float64 job sets.
_DROP_MARGIN = np.finfo(np.float64).eps


def _orthogonalized(vectors) -> tuple:
    """Gram-Schmidt of v_0..v_{r-1}, column by column: ``(Q, T, d, kept)``.

    v_j becomes q_j = v_j - sum_i c_ij q_i, c_ij = q_i^T v_j / d_i, over the
    kept q_i before it: classical Gram-Schmidt twice under float64 ("twice
    is enough": Giraud, Langou and Rozloznik, 2005), once under rationals.
    Column j is kept unless q_j^T q_j <= eps v_j^T v_j (float64) or = 0
    (rationals): the package's one rank decision.  A NaN column is kept.

    The rows of Q are the kept q_j, unnormalized, ``d`` their squared norms
    and ``kept`` their indices: sum_i T[i, j] v_i is row j of Q, or for a
    dropped j the negligible (under rationals, zero) part left over.  Under
    float64 T = R^-1 for the unit upper triangular R of V = Q R.  Under
    rationals Q is a stack (``_Rows``) of each q_j's primitive integer row over 1,
    and column j of T carries q_j's scale.  ``vectors`` is a (r, n) array or a
    stack, or converts to an array, for any r, none included.
    """
    V = vectors if isinstance(vectors, _Rows) else np.asarray(vectors)
    backend, (r, n), exact = backend_of(V), V.shape, backend_of(V).exact
    Q, d, T = backend.empty((r, n)), backend.empty(r), backend.empty((r, r))
    ones = np.full(r, Fraction(1), dtype=object)
    head = (lambda m: _Rows(Q[:m], ones[:m])) if exact else (lambda m: Q[:m])  # the kept rows
    passes, kept = 1 if exact else 2, []
    for j, v in enumerate(_stack(V, backend)):
        T[j, j] = backend.one
        q, m = v, len(kept)
        for _ in range(passes if kept else 0):
            c = _product(head(m), q) / d[:m]
            if c.any():
                q = _combination([(1, q), *zip(-c, head(m))]) if exact else q - _product(c, Q[:m])
                T[:j, j] -= _product(T[:j, kept], c)
        q_sq = norm_sq(q)
        if not q_sq <= (0 if exact else _DROP_MARGIN * norm_sq(v)):
            if exact:
                T[: j + 1, j] /= q.s
                q, q_sq = q.A, q_sq / q.s ** 2
            Q[m], d[m] = q, q_sq
            kept.append(j)
    return head(len(kept)), T, d[: len(kept)], kept


def _spd_floor(M: np.ndarray) -> Scalar:
    """The SPD test's pivot floor: 0 under rationals, n * eps * max|M_ij| under
    float64, the maximum taken over the finite entries (0 if there are none)."""
    if backend_of(M).exact:
        return Fraction(0)
    top = np.abs(M[np.isfinite(M)]).max(initial=0.0)
    return len(M) * np.finfo(np.float64).eps * float(top)


def _eliminate(M: np.ndarray, floor: Scalar) -> tuple[np.ndarray, list, int]:
    """Natural-order L D L^T of M up to its first pivot not above ``floor``.

    The elimination of the rational ``SpdCheck``, and of a float64 matrix
    that LAPACK refuses (``_cholesky_pivots``).  Returns ``(W, pivots, m)``: the
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


def _sparse_ldl(A: np.ndarray) -> tuple[np.ndarray, list, int]:
    """Natural-order L D L^T of an exact A, on its nonzero entries only, up to
    its first pivot that is not positive, in ``_eliminate``'s ``(W, pivots, m)``
    layout.

    Step t subtracts l_it a_jt from entry (i, j) for each pair of nonzeros
    a_it, a_jt below the pivot, and an entry that this makes zero leaves the
    factor.  For an exact CG history the oracle's A is tridiagonal (the
    Lanczos matrix; Paige, 1976), so each step is one update, and the
    Fractions stay the size of the pivots, where Bareiss's scaling of the
    whole trailing block makes its integers grow at every step.  A dense A,
    such as a corrupted trace gives, is factored all the same.
    """
    r = len(A)
    pivots = list(A.diagonal())
    # below[t]: row i > t -> the entry (i, t) as updated so far, nonzeros only.
    below = [{int(i): A[i, t] for i in np.flatnonzero(A[t + 1 :, t]) + t + 1} for t in range(r)]
    W = RATIONAL.empty((r, r))
    m = 0
    while m < r and pivots[m] > 0:
        W[m, m] = pivots[m]
        column = below[m]
        for i, a_it in column.items():
            l_it = W[i, m] = a_it / pivots[m]
            for j, a_jt in column.items():
                if j < i:
                    entry = below[j].get(i, 0) - l_it * a_jt
                    if entry:
                        below[j][i] = entry
                    else:
                        del below[j][i]
            pivots[i] -= l_it * a_it
        m += 1
    return W, pivots[: m + 1], m


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


def _leading_combinations(factor: tuple[np.ndarray, list, int], b: np.ndarray, V):
    """Row k-1 holds V[:k]^T x_k, where A[:k, :k] x_k = b[:k], for k = 1..m.

    ``factor`` is a natural-order L D L^T of A in ``_eliminate``'s ``(W,
    pivots, m)`` layout: the unit lower L below the diagonal of W, of which
    only the nonzero entries are read, and D on it.  Its leading blocks factor
    the leading blocks of A, so one forward substitution of [b | V] serves
    every k: with z = D^-1 L^-1 b, V[:k]^T x_k = sum_{j<k} z_j w_j, a running
    sum (``_running_sums``) of the rows w_j of L^-1 V.  A stack V (``_Rows``)
    gives a stack, each w_j a combination of rows, with no ``Fraction`` formed.
    """
    W, _, m = factor
    if isinstance(V, _Rows):
        z, w = np.array(b[:m]), []
        for t in range(m):
            live = np.flatnonzero(W[t, :t])
            z[t] -= W[t, live] @ z[live]
            w.append(_combination([(1, V[t]), *((-W[t, j], w[j]) for j in live)]))
        return _running_sums(z / W.diagonal()[:m], _Rows.stacked(w, V.shape[1]))
    Z = np.concatenate((b[:m, None], V[:m]), axis=1)
    for t in range(1, m):
        live = np.flatnonzero(W[t, :t])  # all of them in a dense factor: then no gather
        Z[t] -= W[t, :t] @ Z[:t] if len(live) == t else W[t, live] @ Z[live]
    z = Z[:, 0] / W.diagonal()[:m]
    return _running_sums(z, Z[:, 1:])


def _leading_rows(A: np.ndarray, b: np.ndarray, V: np.ndarray) -> np.ndarray:
    """``_leading_combinations`` on one natural-order factor of A, up to its
    first pivot that the SPD test's floor fails (a NaN pivot too), so m is the
    order of the largest leading block that is (numerically) positive definite.

    Under rationals the factor is ``_sparse_ldl``'s, and a stack V gives a
    stack.  Under float64 A is first scaled to unit diagonal (Jacobi scaling),
    which keeps systems whose columns differ by many orders of magnitude
    solvable; the factor is the SPD test's (``_cholesky_pivots``) of the scaled
    matrix, and V is applied to the solves with V = diag(scale) in one product.
    """
    if backend_of(A).exact:
        return _leading_combinations(_sparse_ldl(A), b, V)
    # 1/sqrt(A_jj), or 1 where A_jj is not positive
    scale = 1 / np.sqrt(np.where(A.diagonal() > 0, A.diagonal(), 1.0))
    A = A * np.outer(scale, scale)
    X = _leading_combinations(_cholesky_pivots(A, _spd_floor(A)), b * scale, np.diag(scale))
    return X @ V


def leading_solves(A: np.ndarray, b: np.ndarray) -> list[np.ndarray]:
    """x_k with A[:k, :k] x_k = b[:k] for k = 1..m, from one natural-order factor of A.

    A natural-order factor factors every leading block at once, and the
    solves stop at the first pivot that the SPD test's floor fails, so m
    is the order of the largest leading block that is (numerically)
    positive definite.  The solves are ``_leading_rows`` of the identity.
    """
    r = A.shape[0]
    if A.shape != (r, r) or b.shape != (r,):
        raise DimensionMismatch(f"leading solves of shapes {A.shape} and {b.shape}")
    X = _leading_rows(A, b, np.eye(r, dtype=A.dtype))
    return [_freeze(x[:k]) for k, x in enumerate(X, start=1)]


class SpdCheck:
    """A natural-order L D L^T factorization read as a test of positive definiteness.

    M is positive definite exactly when all n pivots exceed the pivot
    floor ``pivot_floor``, which is 0 on the rational backend and
    n * eps * max|M_ij| on the float backend (so exactly singular integer
    matrices are reliably rejected); the maximum is over the finite
    entries, so a NaN entry fails the pivot where it enters.  M is not
    rescaled, so the floor is relative to M as given.  Non-SPD input is a
    result, not an error: ``pivots`` run up to and including the first
    failing one.

    Under rationals the factor is ``_eliminate``'s exact elimination; under
    float64 it is one LAPACK Cholesky factor (``_cholesky_pivots``).  Both
    keep multipliers below the diagonal and pivots on it, the layout of
    ``_leading_combinations``.
    """

    def __init__(self, M: np.ndarray):
        n = M.shape[0]
        if M.shape != (n, n):
            raise DimensionMismatch("SpdCheck requires a square matrix")
        self.pivot_floor = _spd_floor(M)
        self.backend = backend_of(M)
        factor = _eliminate if self.backend.exact else _cholesky_pivots
        self._W, pivots, self.rank = factor(M, self.pivot_floor)
        self.n = n
        self.pivots = tuple(pivots)

    @property
    def is_spd(self) -> bool:
        return self.rank == self.n

    @property
    def failed_pivot(self) -> int | None:
        """0-based elimination step of the first non-positive pivot."""
        return None if self.is_spd else self.rank

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with M x = b, on the factor of M: L z = b, then L^T x = D^-1 z,
        O(n^2).  Raises ``DimensionMismatch`` unless b has shape (n,), and
        ``LinalgError`` unless M is positive definite."""
        if b.shape != (self.n,):
            raise DimensionMismatch(f"solve of an order {self.n} matrix and shape {b.shape}")
        if not self.is_spd:
            raise LinalgError(f"solve on a matrix whose pivot {self.rank} fails the SPD test")
        W, x = self._W, np.array(b, dtype=self._W.dtype)
        for t in range(1, self.n):
            x[t] -= W[t, :t] @ x[:t]
        x /= W.diagonal()
        for t in range(self.n - 2, -1, -1):
            x[t] -= W[t + 1 :, t] @ x[t + 1 :]
        return _freeze(x)


def cholesky_spd_check(M: np.ndarray) -> SpdCheck:
    """Test positive definiteness by the pivots of ``SpdCheck``'s factorization."""
    return SpdCheck(M)
