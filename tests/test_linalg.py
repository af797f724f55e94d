"""Backends, array constructors, the elimination kernel and the orthogonalization."""

from __future__ import annotations

import dataclasses
import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cglens import (
    F64,
    RATIONAL,
    LinalgError,
    ProblemSpec,
    characterization_residuals,
    dot,
    exact_minimizer,
    generate_problem,
    gradient,
    norm,
    norm_sq,
    projection_oracle,
    scalar_token,
    vector,
)
import cglens.linalg
from cglens.linalg import (
    BACKENDS,
    AsymmetricMatrixError,
    Backend,
    DimensionMismatch,
    SpdCheck,
    _gate,
    _leading_combinations,
    _leading_rows,
    _Rows,
    _combination,
    _fractions,
    _integer_rows,
    _orthogonalized,
    _product,
    _row_dots,
    _row_residuals,
    _running_sums,
    _stack,
    backend_of,
    cholesky_spd_check,
    leading_solves,
    mat_vec,
    residual_magnitude,
    sym_matrix,
)
from cglens.oracle import SpanBasis, minimize_on_affine_span
from cglens.quadratic import QuadraticProblem


class TestShapeRefusals:
    """Malformed operands are refused, each by its own arm."""

    @pytest.mark.parametrize("backend", [F64, RATIONAL])
    def test_empty_vector(self, backend):
        with pytest.raises(DimensionMismatch, match="vectors must have dimension >= 1"):
            vector([], backend)

    @pytest.mark.parametrize("backend", [F64, RATIONAL])
    def test_spd_check_of_a_non_square_matrix(self, backend):
        with pytest.raises(DimensionMismatch, match="SpdCheck requires a square matrix"):
            SpdCheck(backend.empty((2, 3)))

    @pytest.mark.parametrize("backend", [F64, RATIONAL])
    @pytest.mark.parametrize("shapes", [((2, 3), 2), ((2, 2), 3)])
    def test_leading_solves_of_mismatched_shapes(self, backend, shapes):
        (rows, cols), length = shapes
        A, b = backend.empty((rows, cols)), backend.empty(length)
        with pytest.raises(DimensionMismatch, match="leading solves of shapes"):
            leading_solves(A, b)

    @pytest.mark.parametrize("backend", [F64, RATIONAL])
    def test_mat_vec_of_mismatched_shapes(self, backend):
        with pytest.raises(DimensionMismatch, match=r"mat_vec of shapes \(2, 2\) and \(3,\)"):
            mat_vec(sym_matrix([[1, 0], [0, 1]], backend), vector([1, 2, 3], backend))

    @pytest.mark.parametrize("M_backend, v_backend", [(F64, RATIONAL), (RATIONAL, F64)])
    def test_mat_vec_across_backends(self, M_backend, v_backend):
        with pytest.raises(LinalgError, match="mat_vec of arrays on different scalar backends"):
            mat_vec(sym_matrix([[1, 0], [0, 1]], M_backend), vector([1, 2], v_backend))


class TestBackends:
    def test_registry(self):
        assert BACKENDS["f64"] is F64
        assert BACKENDS["rational"] is RATIONAL
        assert not F64.exact
        assert RATIONAL.exact

    def test_scalar_coercion(self):
        assert F64.scalar(3) == 3.0
        assert isinstance(F64.scalar(3), float)
        assert RATIONAL.scalar("2/3") == Fraction(2, 3)
        assert RATIONAL.scalar(5) == Fraction(5)

    def test_rational_float_conversion_is_binary_exact(self):
        # floats convert to their exact binary value; strings get
        # decimal semantics
        assert RATIONAL.scalar(0.5) == Fraction(1, 2)
        assert RATIONAL.scalar(0.1) == Fraction(0.1) != Fraction(1, 10)
        assert RATIONAL.scalar("0.1") == Fraction(1, 10)

    def test_unconvertible_values_rejected(self):
        with pytest.raises(LinalgError):
            RATIONAL.scalar(object())
        with pytest.raises(LinalgError):
            F64.scalar(object())

    def test_backend_of(self):
        assert backend_of(vector([1, 2], F64)) is F64
        assert backend_of(vector([1, 2], RATIONAL)) is RATIONAL


class TestConstructors:
    def test_vectors_are_read_only(self):
        v = vector([1, 2, 3], F64)
        with pytest.raises(ValueError):
            v[0] = 9.0

    def test_sym_matrix_accepts_symmetric(self):
        M = sym_matrix([[2, 1], [1, 2]], RATIONAL)
        assert M[0, 1] == M[1, 0] == 1

    def test_sym_matrix_names_the_bad_entry(self):
        with pytest.raises(AsymmetricMatrixError, match=r"\(2, 0\)"):
            sym_matrix([[1, 0, 5], [0, 1, 0], [4, 0, 1]], F64)

    @pytest.mark.parametrize("backend", [F64, RATIONAL])
    def test_sym_matrix_names_the_first_of_two_bad_entries(self, backend):
        rows = [[1, 7, 5], [0, 1, 0], [4, 0, 1]]  # (1, 0) and (2, 0) both mismatch
        first = r"^entry \(1, 0\) = 0(\.0)? does not match \(0, 1\)"
        with pytest.raises(AsymmetricMatrixError, match=first):
            sym_matrix(rows, backend)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_float_constructors_reject_non_finite_entries(self, value):
        with pytest.raises(LinalgError, match="finite"):
            vector([1.0, value], F64)
        with pytest.raises(LinalgError, match="finite"):
            sym_matrix([[1.0, 0.0], [0.0, value]], F64)

    def test_sym_matrix_rejects_ragged(self):
        with pytest.raises(DimensionMismatch):
            sym_matrix([[1, 0], [0]], F64)

    def test_vector_rejects_nested(self):
        with pytest.raises(LinalgError):
            vector([[1], [2]], F64)


    def test_float_conversion_takes_no_per_entry_path(self, monkeypatch):
        def per_entry(self, value):
            raise AssertionError(f"per-entry conversion of {value!r}")

        monkeypatch.setattr(Backend, "scalar", per_entry)
        assert list(vector([1, 2.5], F64)) == [1.0, 2.5]
        assert sym_matrix([[2.0, 1], [1, 2.0]], F64).tolist() == [[2.0, 1.0], [1.0, 2.0]]
        assert (sym_matrix(np.eye(3), F64) == np.eye(3)).all()

    def test_integer_entry_outside_float_range_rejected(self):
        with pytest.raises(LinalgError, match="float64 range"):
            vector([2**1100, 0.5], F64)
        with pytest.raises(LinalgError, match="float64 range"):
            sym_matrix([[1, 2**1100], [2**1100, 1]], F64)

    @pytest.mark.parametrize("entry", [True, np.True_, False, [1.0], "nan"])
    def test_float_rows_refuse_what_one_numpy_call_would_take(self, entry):
        # numpy reads a boolean as 0 or 1, "nan" as NaN and [1.0] as a third
        # axis; each goes entry by entry and is refused, as a token is parsed.
        with pytest.raises(LinalgError, match="cannot convert"):
            sym_matrix([[1.0, entry], [entry, 1.0]], F64)
        assert sym_matrix([[1.0, "1/2"], ["0.5", 1]], F64).tolist() == [[1.0, 0.5], [0.5, 1.0]]

    @pytest.mark.parametrize("backend", [F64, RATIONAL])
    def test_non_sequences_rejected(self, backend):
        for rows in (None, 5, [1, 2]):
            with pytest.raises(DimensionMismatch):
                sym_matrix(rows, backend)
        with pytest.raises(DimensionMismatch):
            vector(5, backend)


class TestTokenGrammar:
    ACCEPTED = ["7", "-7", "+7", "1.5", "-.5", "5.", "2/3", "-2/3", "+0/5", " 1.5 ", "1e-3",
                "-2.25E+1", "0.1", "-0", "-0.0e9", "-1e-400", "4.9e-324", "1.7976931348623157e308",
                "2.2250738585072011e-308", "1e0004300", "1e-4300"]
    REJECTED = ["1_000", "2 / 3", "2/ 3", "1/-3", "1.5/2", "nan", "-inf", "Infinity", "0x10",
                "1e", "e5", ".", "", " ", "--1", "1e5000", "1e-5000", "1e4301", "\u0663", "1/0"]

    @pytest.mark.parametrize("token", ACCEPTED)
    def test_float_value_is_the_rounded_rational_bit_for_bit(self, token):
        exact = RATIONAL.scalar(token)
        assert exact == Fraction(token)
        try:
            expected = np.float64(float(exact))
        except OverflowError:
            with pytest.raises(LinalgError):
                F64.scalar(token)
            return
        assert np.float64(F64.scalar(token)).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("backend", [F64, RATIONAL])
    @pytest.mark.parametrize("token", REJECTED)
    def test_rejected_on_every_backend(self, backend, token):
        with pytest.raises(LinalgError):
            backend.scalar(token)

    def test_exponent_cap(self):
        assert RATIONAL.scalar("1e4300") == 10**4300
        assert RATIONAL.scalar("-1E-04300") == Fraction(-1, 10**4300)
        assert F64.scalar("1e-4300") == 0.0
        for token in ("1e4301", "1e-4301", "0e5000"):
            with pytest.raises(LinalgError):
                RATIONAL.scalar(token)

class TestKernels:
    def test_dot_and_norms(self):
        v = vector([3, 4], F64)
        assert dot(v, v) == 25.0
        assert norm_sq(v) == 25.0
        assert norm(v) == 5.0

    def test_dot_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            dot(vector([1], F64), vector([1, 2], F64))

    def test_mat_vec_exact(self):
        M = sym_matrix([[2, 1], [1, 2]], RATIONAL)
        v = vector(["1/2", "1/3"], RATIONAL)
        assert list(mat_vec(M, v)) == [Fraction(4, 3), Fraction(7, 6)]

    def test_mixed_backends_rejected(self):
        with pytest.raises(LinalgError):
            dot(vector([1], F64), vector([1], RATIONAL))

    def test_residual_magnitude_split(self):
        assert residual_magnitude(vector([3, 4], F64)) == 5.0
        assert residual_magnitude(vector(["-1/2", "1/3"], RATIONAL)) == Fraction(1, 2)

    @pytest.mark.parametrize("backend", [F64, RATIONAL])
    def test_residual_magnitude_is_the_one_row_case_of_the_row_rule(self, backend):
        for v in (vector(["-1/2", "1/3", "7"], backend), backend.empty(0)):
            size = residual_magnitude(v)
            assert type(size) is (Fraction if backend.exact else float)
            assert size == _row_residuals(_stack([v], backend))[0]


class TestGateRule:
    """``_gate``: zero under rationals, at most the bound under float64, never NaN."""

    @pytest.mark.parametrize("residual, bound, passes", [
        (0.5, 1.0, True), (-1.0, 1.0, True), (1.5, 1.0, False),
        (math.nan, 1.0, False), (0.0, math.nan, False), (math.inf, math.inf, True),
    ])
    def test_float64_residual_against_its_bound(self, residual, bound, passes):
        if passes:
            _gate(F64, residual, lambda: bound, "refused")
        else:
            with pytest.raises(LinalgError, match="^refused$"):
                _gate(F64, residual, lambda: bound, "refused")

    def test_rational_residual_must_be_zero_and_reads_no_bound(self):
        def bound():
            raise AssertionError("the bound is read under float64 only")
        _gate(RATIONAL, Fraction(0), bound, "refused")
        with pytest.raises(LinalgError, match="^refused$"):
            _gate(RATIONAL, Fraction(-1, 10**40), bound, "refused")


# Fractions with zeros, negatives and denominators up to ~2^500.
wide_rationals = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
    st.builds(Fraction, st.integers(-(2**520), 2**520), st.integers(1, 2**500)),
)


def _fraction_array(entries, shape):
    out = np.empty(shape, dtype=object)
    out.flat[:] = entries
    return out


@st.composite
def product_operands(draw):
    """(a, b) of shapes (0,)(0,), (k,)(k,), (k, m)(m,), (m,)(m, j) or (k, m)(m, j), with m = 0 allowed."""
    k, j = (draw(st.integers(min_value=1, max_value=4)) for _ in range(2))
    m = draw(st.integers(min_value=0, max_value=4))
    shapes = draw(st.sampled_from(
        [((0,), (0,)), ((k,), (k,)), ((k, m), (m,)), ((m,), (m, j)), ((k, m), (m, j))]))
    if shapes[0] == (k,) and draw(st.booleans()):
        a = _fraction_array(draw(st.lists(wide_rationals, min_size=k, max_size=k)), (k,))
        return a, a  # the norm_sq case
    sizes = [math.prod(shape) for shape in shapes]
    return tuple(
        _fraction_array(draw(st.lists(wide_rationals, min_size=size, max_size=size)), shape)
        for shape, size in zip(shapes, sizes)
    )


class TestFractionFreeProduct:
    @given(product_operands())
    @settings(max_examples=80, deadline=None)
    def test_exact_product_is_the_fraction_dot_entry_for_entry(self, operands):
        a, b = operands
        expected, got = np.dot(a, b), _product(a, b)
        assert np.shape(got) == np.shape(expected)
        for x, y in zip(np.ravel(got), np.ravel(expected)):
            assert type(x) is Fraction and x == y

    def test_norm_sq_reads_its_operand_once(self, monkeypatch):
        calls = []
        original = cglens.linalg._integer_rows
        monkeypatch.setattr(cglens.linalg, "_integer_rows", lambda rows: calls.append(rows) or original(rows))
        v = vector(["2/3", "-5/11", "7"], RATIONAL)
        assert norm_sq(v) == sum(x * x for x in v) and len(calls) == 1
        assert dot(v, v.copy()) == norm_sq(v) and len(calls) == 4

    def test_exact_square_of_a_nonsymmetric_matrix_is_m_times_m(self):
        # a 2-D operand passed as both factors is read as rows and as columns
        M = _fraction_array([Fraction(1, 2), Fraction(-3, 7), Fraction(5), Fraction(2, 9)], (2, 2))
        for got in (_product(M, M), dot(M, M), mat_vec(M, M)):
            assert got.tolist() == np.dot(M, M).tolist() != np.dot(M, M.T).tolist()

    def test_float_product_is_np_dot(self):
        M = np.arange(6.0).reshape(2, 3) / 7
        v = np.array([0.1, 0.2, 0.3])
        assert _product(M, v).tobytes() == np.dot(M, v).tobytes()

    def test_exact_mat_vec_and_dot_make_no_fraction_product(self, monkeypatch):
        def fraction_product(a, b):
            raise AssertionError(f"Fraction product {a!r} * {b!r}")

        M = sym_matrix([["1/2", "-3/7", 5], ["-3/7", 2, "1/9"], [5, "1/9", "4/3"]], RATIONAL)
        v = vector(["2/3", "-5/11", "7"], RATIONAL)
        expected_Mv, expected_dot = list(np.dot(M, v)), np.dot(v, v)
        monkeypatch.setattr(Fraction, "__mul__", fraction_product)
        monkeypatch.setattr(Fraction, "__rmul__", fraction_product)
        with pytest.raises(AssertionError, match="Fraction product"):
            np.dot(v, v)  # the patch is in force
        assert list(mat_vec(M, v)) == expected_Mv
        assert dot(v, v) == norm_sq(v) == expected_dot


@st.composite
def exact_vectors(draw, n: int):
    """A rational vector of n entries: zero, of integers with content 1, or wide."""
    kind = draw(st.sampled_from(["zero", "content one", "wide"]))
    if kind == "zero":
        entries = [Fraction(0)] * n
    elif kind == "content one":
        entries = [Fraction(1), *map(Fraction, draw(st.lists(st.integers(-10**30, 10**30),
                                                            min_size=n - 1, max_size=n - 1)))]
    else:
        entries = draw(st.lists(wide_rationals, min_size=n, max_size=n))
    return _fraction_array(entries, (n,))


@st.composite
def primitive_operands(draw):
    """(a, b, t, M): two vectors, a scale t (negative ones included) and an n-by-n M;
    a is sometimes -t b, so that a + t b cancels to the zero row."""
    n = draw(st.integers(1, 4))
    a, b = draw(exact_vectors(n)), draw(exact_vectors(n))
    t = draw(wide_rationals)
    if draw(st.booleans()):
        a = -t * b
    return a, b, t, _fraction_array(draw(st.lists(wide_rationals, min_size=n * n, max_size=n * n)), (n, n))


def _working(v):
    """v as run_cg computes with it: a vector ``_Rows`` under rationals, else v."""
    return _stack(v, backend_of(v))


def _assert_stands_for(v, expected):
    """v is a ``_Rows`` of expected's shape, each row primitive (gcd 1, or all zeros),
    and its canonical array (``_fractions``) equals the ``Fraction`` array ``expected``."""
    assert isinstance(v, _Rows) and v.shape == expected.shape
    for row in np.atleast_2d(v.A):
        assert all(type(e) is int for e in row)
        assert math.gcd(*row) == 1 or not row.any()
    got = _fractions(v)
    assert got.shape == expected.shape
    assert all(type(x) is Fraction for x in got.flat) and got.tolist() == expected.tolist()


class TestPrimitiveRows:
    """Vectors as ``_Rows``, the form of run_cg's exact vectors: scale, combination,
    dot and H-product are their ``Fraction`` formulas, and each leaves a primitive row."""

    @given(primitive_operands())
    @settings(max_examples=100, deadline=None)
    def test_operations_are_the_fraction_formulas(self, operands):
        a, b, t, M = operands
        va, vb = _working(a), _working(b)
        _assert_stands_for(va, a)
        _assert_stands_for(t * vb, t * b)
        _assert_stands_for(vb * t, b * t)
        if t:
            _assert_stands_for(vb / t, b / t)
        _assert_stands_for(va + t * vb, a + t * b)
        for x, y in ((va, vb), (va, va)):
            got = _product(x, y)
            assert type(got) is Fraction and got == np.dot(_fractions(x), _fractions(y))
        _assert_stands_for(vb.times(_integer_rows(M)), np.dot(M, b))
        assert _product(_integer_rows(M), vb).tolist() == np.dot(M, b).tolist()

    def test_named_cases(self):
        content_one, zero = vector([3, -2, 5], RATIONAL), vector([0, 0, 0], RATIONAL)
        wide = vector(["6/7", "-4/21", "10/3"], RATIONAL)  # (18, -4, 70) / 21, content 2
        _assert_stands_for(_working(content_one), content_one)
        assert list(_working(content_one).A) == [3, -2, 5] and _working(content_one).s == 1
        assert list(_working(wide).A) == [9, -2, 35] and _working(wide).s == Fraction(2, 21)
        _assert_stands_for(_working(zero), zero)
        _assert_stands_for(Fraction(-3, 4) * _working(wide), Fraction(-3, 4) * wide)
        cancelled = _working(wide) + Fraction(-2, 7) * _working(wide * Fraction(7, 2))
        _assert_stands_for(cancelled, zero)
        assert not cancelled.A.any() and _product(cancelled, _working(wide)) == 0

    def test_float64_vectors_are_their_own_working_form(self):
        v = vector([0.5, -1.25], F64)
        assert _working(v) is v


@st.composite
def stack_operands(draw):
    """(A, B, t, M): two k-by-n ``Fraction`` stacks whose rows are zero, of integers
    with content 1, or wide; a scale t, negative ones included; and an n-by-n M.
    Some rows of A are -t times B's, so that A + t B cancels there to the zero row."""
    k, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    A, B = (np.array([draw(exact_vectors(n)) for _ in range(k)], dtype=object).reshape(k, n)
            for _ in range(2))
    t = draw(wide_rationals)
    for j in draw(st.sets(st.integers(0, k - 1))):
        A[j] = -t * B[j]
    M = _fraction_array(draw(st.lists(wide_rationals, min_size=n * n, max_size=n * n)), (n, n))
    return A, B, t, M


class TestStackRows:
    """Stacks as ``_Rows``, the one exact form from run_cg to the verdict: slicing,
    scaling, tables, H-products, combinations and running sums are their
    ``Fraction`` formulas, row by row, and each leaves primitive rows."""

    @given(stack_operands())
    @settings(max_examples=100, deadline=None)
    def test_operations_are_the_fraction_formulas(self, operands):
        A, B, t, M = operands
        SA, SB = _stack(A, RATIONAL), _stack(B, RATIONAL)
        _assert_stands_for(SA, A)
        _assert_stands_for(SA[1:], A[1:])
        _assert_stands_for(SA[[0, -1]], A[[0, -1]])
        _assert_stands_for(SA[-1], A[-1])
        _assert_stands_for(t * SB, t * B)
        if t:
            _assert_stands_for(SB / t, B / t)
        for x, y, X, Y in ((SA, SB, A, B), (SA, SA, A, A)):
            table = x.table(y)
            assert all(type(e) is Fraction for e in table.flat)
            assert table.tolist() == np.dot(X, Y.T).tolist()
        _assert_stands_for(SB.times(_integer_rows(M)), np.dot(B, M.T))
        cancelling = [_combination([(1, SA[j]), (t, SB[j])]) for j in range(len(A))]
        _assert_stands_for(_Rows.stacked(cancelling, A.shape[1]), A + t * B)
        coeffs = np.array([t] + [Fraction(-j, 3) for j in range(1, len(A))], dtype=object)
        _assert_stands_for(_running_sums(coeffs, SA), np.cumsum(coeffs[:, None] * A, axis=0))

    def test_zero_rows_and_a_cancelled_row(self):
        A = _fraction_array([Fraction(0)] * 3 + [Fraction(-6, 7), Fraction(4, 21), Fraction(-10, 3)],
                            (2, 3))
        S = _stack(A, RATIONAL)
        assert S.A[0].tolist() == [0, 0, 0] and S.s[0] == 0
        assert S.A[1].tolist() == [-9, 2, -35] and S.s[1] == Fraction(2, 21)
        cancelled = _combination([(1, S[1]), (Fraction(-1, 2), 2 * S[1])])
        assert not cancelled.A.any() and cancelled.s == 0
        assert _row_dots(S, S).tolist() == [0, dot(A[1], A[1])]


def _coefficient(t, j):
    return t[j] if np.ndim(t) else t


@st.composite
def row_rule_operands(draw, elements):
    """(A, terms): m-by-n stacks A and B of each of one or two terms (t, B), with t
    one scalar or one per row.  For rationals, some rows of A are set to their
    rows of sum t B, so that they cancel exactly."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))

    def rows(count, shape):
        return _fraction_array(draw(st.lists(elements, min_size=count, max_size=count)), shape)

    terms = [(draw(elements) if draw(st.booleans()) else rows(m, (m,)), rows(m * n, (m, n)))
             for _ in range(draw(st.integers(1, 2)))]
    A = rows(m * n, (m, n))
    if elements is wide_rationals:
        for j in draw(st.sets(st.integers(0, m - 1))):
            A[j] = sum(_coefficient(t, j) * B[j] for t, B in terms)
    else:
        A = A.astype(np.float64)
        terms = [(t if np.ndim(t) == 0 else t.astype(np.float64), B.astype(np.float64))
                 for t, B in terms]
    return A, terms


class TestRowRules:
    """``_row_residuals`` and ``_row_dots`` on stacks, against the formulas they
    stand for."""

    @given(row_rule_operands(wide_rationals))
    @settings(max_examples=80, deadline=None)
    def test_exact_rules_are_the_fraction_formulas(self, operands):
        A, terms = operands
        got = _row_residuals(_stack(A, RATIONAL), *((t, _stack(B, RATIONAL)) for t, B in terms))
        for j, value in enumerate(got):
            row = A[j] - sum(_coefficient(t, j) * B[j] for t, B in terms)
            assert type(value) is Fraction and value == max(abs(x) for x in row)
        B = terms[0][1]
        dots = _row_dots(_stack(A, RATIONAL), _stack(B, RATIONAL))
        assert [type(x) for x in dots] == [Fraction] * len(A)
        assert list(dots) == [dot(a, b) for a, b in zip(A, B)]

    @given(row_rule_operands(st.floats(-1e50, 1e50)))
    @settings(max_examples=80, deadline=None)
    def test_float_rules_are_the_numpy_formulas(self, operands):
        A, terms = operands
        expected = A
        for t, B in terms:
            expected = expected - (t[:, None] if np.ndim(t) else t) * B
        got = _row_residuals(_stack(A, F64), *((t, _stack(B, F64)) for t, B in terms))
        assert got.tobytes() == np.linalg.norm(expected, axis=1).tobytes()
        B = terms[0][1]
        assert _row_dots(A, B).tobytes() == np.einsum("ij,ij->i", A, B).tobytes()

    def test_a_cancelling_row_is_an_exact_zero(self):
        A = _fraction_array([Fraction(1, 3), Fraction(-2, 7), Fraction(5, 2**500), Fraction(1)],
                            (2, 2))
        B = _fraction_array([Fraction(2, 3), Fraction(-4, 7), Fraction(0), Fraction(1)], (2, 2))
        got = _row_residuals(_stack(A, RATIONAL), (Fraction(1, 2), _stack(B, RATIONAL)),
                             (0, _stack(B, RATIONAL)))
        assert type(got[0]) is Fraction and got[0] == 0
        assert got[1] == Fraction(1, 2)


def _natural_order_pivots(M: np.ndarray, floor) -> list[Fraction]:
    """The natural-order L D L^T pivots of M, on exact Fraction Schur
    complements of its entries, up to and including the first at or below
    ``floor``: the reference for both SPD tests and for the elimination."""
    S = np.array([[Fraction(x) for x in row] for row in M], dtype=object)
    pivots = []
    for t in range(len(S)):
        pivots.append(S[t, t])
        if not S[t, t] > floor:
            break
        col = S[t + 1 :, t] / S[t, t]
        S[t + 1 :, t + 1 :] -= np.outer(col, S[t + 1 :, t])
    return pivots


@st.composite
def symmetric_rational_matrix(draw):
    """A symmetric rational matrix with wide entries: SPD, semidefinite or indefinite."""
    n = draw(st.integers(min_value=1, max_value=5))
    B = [[draw(wide_rationals) for _ in range(n)] for _ in range(n)]
    kind = draw(st.sampled_from(["spd", "gram", "any"]))
    if kind == "any":
        rows = [[B[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    else:  # B^T B over the first m rows of B, plus I when SPD
        m = n if kind == "spd" else draw(st.integers(min_value=0, max_value=n))
        rows = [[sum((B[t][i] * B[t][j] for t in range(m)), Fraction(int(kind == "spd" and i == j)))
                 for j in range(n)] for i in range(n)]
    return sym_matrix(rows, RATIONAL)


class TestBareissAgainstFractionElimination:
    @given(symmetric_rational_matrix(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_pivots_rank_solve_and_nullspace_equal_the_fraction_factor(self, A, data):
        # The fraction-free elimination against natural-order Fraction Schur
        # complements: the same pivots and verdict, and exact solves.
        check, ref = SpdCheck(A), _natural_order_pivots(A, 0)
        assert list(check.pivots) == ref
        assert all(type(p) is Fraction for p in check.pivots)
        assert check.failed_pivot == (None if ref[-1] > 0 and len(ref) == len(A) else len(ref) - 1)
        b = vector([data.draw(wide_rationals) for _ in range(A.shape[0])], RATIONAL)
        solves = leading_solves(A, b)
        assert len(solves) == check.rank
        for k, x in enumerate(solves, start=1):
            assert list(mat_vec(A[:k, :k], x)) == list(b[:k])
        if check.is_spd:
            assert list(check.solve(b)) == list(solves[-1])


class TestScalarToken:
    def test_fraction_tokens(self):
        assert scalar_token(Fraction(2, 3)) == "2/3"
        assert scalar_token(Fraction(5)) == "5"

    def test_float_tokens_round_trip(self):
        for x in (0.1, 1e-300, -math.pi, 3.0):
            assert float(scalar_token(x)) == x

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits")
                        or sys.get_int_max_str_digits() != 4300, reason="the default int-string limit")
    @pytest.mark.parametrize("x", [Fraction(10**4300, 3), Fraction(1, 10**4300), 10**4300],
                             ids=["numerator", "denominator", "integer"])
    def test_past_the_int_text_limit_is_a_linalg_error(self, x):
        with pytest.raises(LinalgError, match="int-to-text limit"):
            scalar_token(x)
        assert scalar_token(Fraction(10**4299, 3)) == str(10**4299) + "/3"


class TestSpdCheck:
    def test_accepts_spd(self):
        check = cholesky_spd_check(sym_matrix([[2, 1], [1, 2]], RATIONAL))
        assert check.is_spd
        assert list(check.pivots) == [2, Fraction(3, 2)]

    def test_rejects_with_pivot_index(self):
        check = cholesky_spd_check(sym_matrix([[1, 0], [0, -1]], F64))
        assert not check.is_spd
        assert check.failed_pivot == 1

    def test_semidefinite_rejected_exactly(self):
        # rank-1: second pivot is exactly zero under rationals
        check = cholesky_spd_check(sym_matrix([[1, 1], [1, 1]], RATIONAL))
        assert not check.is_spd
        assert check.failed_pivot == 1

    def test_solve_spd_exact(self):
        M = sym_matrix([[2, 1], [1, 2]], RATIONAL)
        b = vector([1, 0], RATIONAL)
        x = cholesky_spd_check(M).solve(b)
        assert list(x) == [Fraction(2, 3), Fraction(-1, 3)]

    @pytest.mark.parametrize("backend", [RATIONAL, F64])
    def test_solve_refuses_a_matrix_that_is_not_spd(self, backend):
        # Pivot 1 is -3: the factor of the leading block alone would give an
        # x with M x = (1, 9, 1/3).
        check = SpdCheck(sym_matrix([[1, 2, 0], [2, 1, 1], [0, 1, 1]], backend))
        with pytest.raises(LinalgError, match="pivot 1"):
            check.solve(vector([1, 1, 1], backend))

    @pytest.mark.parametrize("backend", [RATIONAL, F64])
    @pytest.mark.parametrize("length", [1, 3])
    def test_solve_refuses_a_right_hand_side_of_another_order(self, backend, length):
        check = SpdCheck(sym_matrix([[2, 1], [1, 2]], backend))
        with pytest.raises(DimensionMismatch):
            check.solve(vector([1] * length, backend))


@st.composite
def float_ldlt_matrix(draw):
    """L D L^T for a unit lower triangular L with entries in {-1, 0, 1} and
    a nonzero integer D, all positive half of the time: exact float entries,
    and natural-order pivots D up to the first negative one.  (With entries
    up to 3 the Schur complements cancel enough to cost 1e-12 relative.)"""
    n = draw(st.integers(min_value=1, max_value=7))
    L = np.eye(n)
    for i in range(n):
        L[i, :i] = draw(st.lists(st.integers(-1, 1), min_size=i, max_size=i))
    entries = st.integers(1, 6) if draw(st.booleans()) else st.integers(-6, 6).filter(bool)
    d = draw(st.lists(entries, min_size=n, max_size=n))
    return L @ np.diag(d) @ L.T


@st.composite
def float_gram_matrix(draw):
    """B^T B + I for a random float B: SPD and well conditioned."""
    n = draw(st.integers(min_value=1, max_value=7))
    B = np.array(draw(st.lists(st.floats(-1, 1), min_size=n * n, max_size=n * n))).reshape(n, n)
    M = B.T @ B + np.eye(n)
    return (M + M.T) / 2


class TestFloatSpdCheck:
    """Under float64 the SPD test is one natural-order LAPACK Cholesky factor."""

    @given(st.one_of(float_ldlt_matrix(), float_gram_matrix()))
    @settings(max_examples=100, deadline=None)
    def test_verdict_index_and_pivots_match_natural_order_schur_complements(self, M):
        check = cholesky_spd_check(M)
        assert check.pivot_floor == len(M) * np.finfo(np.float64).eps * np.abs(M).max()
        ref = _natural_order_pivots(M, check.pivot_floor)
        spd = len(ref) == len(M) and ref[-1] > check.pivot_floor
        assert check.is_spd == spd
        assert check.failed_pivot == (None if spd else len(ref) - 1)
        assert len(check.pivots) == len(ref)
        assert all(math.isclose(p, q, rel_tol=1e-12) for p, q in zip(check.pivots, ref))

    def test_natural_order_reports_the_first_failing_leading_block(self):
        # Both backends eliminate in natural order: pivot 2 fails first.
        rows = [[4, 2, 0], [2, 1, 0], [0, 0, 5]]
        check = cholesky_spd_check(sym_matrix(rows, F64))
        assert (check.failed_pivot, check.pivots) == (1, (4.0, 0.0))
        exact = cholesky_spd_check(sym_matrix(rows, RATIONAL))
        assert (exact.failed_pivot, exact.pivots) == (1, (4, 0))

    def test_nan_entry_fails(self):
        # LAPACK passes a NaN through to the factor; the floor test fails it.
        for M in ([[1.0, math.nan], [math.nan, 1.0]], [[1.0, 0.0], [0.0, math.nan]], [[math.nan]]):
            assert not cholesky_spd_check(np.array(M)).is_spd
        # The floor comes from the finite entries, so the NaN pivot is the one named.
        assert cholesky_spd_check(np.array([[1.0, math.nan], [math.nan, 1.0]])).failed_pivot == 1

    def test_one_by_one(self):
        check = cholesky_spd_check(np.array([[3.0]]))
        assert check.is_spd and math.isclose(check.pivots[0], 3.0, rel_tol=1e-15)
        for value in (0.0, -2.0):
            check = cholesky_spd_check(np.array([[value]]))
            assert (check.is_spd, check.failed_pivot, check.pivots) == (False, 0, (value,))

    def test_positive_pivot_below_the_floor_fails(self):
        # Pivot 2 is 2**-52 > 0, under the floor 2 * eps * (1 + eps).
        check = cholesky_spd_check(np.array([[1.0, 1.0], [1.0, 1.0 + 2.0**-52]]))
        assert not check.is_spd and check.failed_pivot == 1
        assert 0 < check.pivots[1] <= check.pivot_floor

    def test_overflow_behind_a_tiny_pivot_raises_no_warning(self):
        # The pivoted elimination took 1e10 first; natural order meets the
        # tiny pivot first, and the factor behind it overflows.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for M in ([[1e-308, 1e10], [1e10, 1.0]], [[1e-300, 1e150], [1e150, 1e300]]):
                check = cholesky_spd_check(np.array(M))
                assert (check.failed_pivot, check.pivots) == (0, (M[0][0],))

    def test_a_failed_factorization_is_never_spd(self, monkeypatch):
        # LAPACK refuses the whole matrix while its leading blocks factor, as
        # rounding can when the last Schur complement is near zero; the one
        # the elimination loop computes here is well above the floor.
        cholesky = np.linalg.cholesky

        def refuse_order_three(A):
            if len(A) == 3:
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return cholesky(A)

        monkeypatch.setattr(np.linalg, "cholesky", refuse_order_three)
        check = cholesky_spd_check(np.diag([1.0, 2.0, 3.0]))
        assert not check.is_spd and check.failed_pivot == 2
        assert check.pivots[2] == 3.0 > check.pivot_floor

    def test_solve_on_the_factor_of_rand_spd_200(self):
        P = generate_problem(ProblemSpec(kind="rand_spd", n=200, condition=1e4, seed=0), F64)
        x = exact_minimizer(P)
        assert np.linalg.norm(P.H @ x + P.c) <= 1e-10 * np.linalg.norm(P.c)

    def test_never_enters_the_pivoted_elimination(self, monkeypatch):
        # Under float64 the SPD test and its solves are LAPACK's; the
        # package's elimination loop runs for the rational test, and for a
        # float64 matrix only where LAPACK refuses it, to name the pivot.
        def eliminate(*args):
            raise AssertionError("_eliminate entered")

        monkeypatch.setattr(cglens.linalg, "_eliminate", eliminate)
        P = generate_problem(ProblemSpec(kind="rand_spd", n=40, condition=100.0, seed=1), F64)
        assert P.spd.is_spd and len(exact_minimizer(P)) == 40
        assert not cholesky_spd_check(np.array([[1.0, 1.0], [1.0, 1.0 + 2.0**-52]])).is_spd
        for M in (sym_matrix([[1, 2], [2, 1]], F64), sym_matrix([[1]], RATIONAL)):
            with pytest.raises(AssertionError, match="entered"):
                cholesky_spd_check(M)


def _rational_problem() -> QuadraticProblem:
    """H = [[2, 1, 0], [1, 2, 1], [0, 1, 2]], c = -H 1, x0 = 0: minimizer (1, 1, 1)."""
    H = sym_matrix([[2, 1, 0], [1, 2, 1], [0, 1, 2]], RATIONAL)
    return QuadraticProblem(H=H, c=-mat_vec(H, vector([1, 1, 1], RATIONAL)),
                            x0=vector([0, 0, 0], RATIONAL))


class TestPivotedLDLT:
    """Singular and dependent inputs, once the pivoted semidefinite kernel's
    job.  The sweeps' orthogonalization drops dependent vectors, and the
    natural-order elimination serves what is left, exactly under rationals."""

    def test_full_rank_exact_solve(self):
        A = sym_matrix([[2, 1], [1, 2]], RATIONAL)
        b = vector([3, 3], RATIONAL)
        assert list(leading_solves(A, b)[-1]) == list(SpdCheck(A).solve(b)) == [1, 1]

    def test_consistent_singular_system(self):
        # s, s, 2s: S^T H S has rank 1, and the span is that of s alone.
        P = _rational_problem()
        s = vector([1, 0, 1], RATIONAL)
        one = minimize_on_affine_span(P, SpanBasis(x0=P.x0, spanning_vectors=(s,)))
        three = minimize_on_affine_span(P, SpanBasis(x0=P.x0, spanning_vectors=(s, s, 2 * s)))
        assert list(three.point) == list(one.point) == [Fraction(3, 2), 0, Fraction(3, 2)]
        assert three.objective_value == one.objective_value
        assert list(three.coordinates) == [one.coordinates[0], 0, 0]
        assert dot(gradient(P, three.point), s) == 0

    def test_inconsistent_singular_system(self):
        # g_0 + g_1 lies in the span of g_0 and g_1 but not in their affine
        # hull, so the hull of all three is the whole span: ghat = 0.
        g0, g1 = vector([1, 0, 0], RATIONAL), vector([0, 1, 0], RATIONAL)
        result = projection_oracle([g0, g1, g0 + g1])
        assert result.norm_sq == 0 and all(entry == 0 for entry in result.ghat)
        assert list(result.weights.weights) == [1, 1, -1]

    def test_nullspace_annihilates(self):
        # The weights of a zero ghat are a kernel vector of the history:
        # (2, 1, -3) = 2 (1, 2, 0) - 3 (0, 1, 1), weights summing to -1.
        history = [vector(v, RATIONAL) for v in ([1, 2, 0], [0, 1, 1], [2, 1, -3], [3, 3, 3])]
        result = projection_oracle(history)
        assert result.norm_sq == 0
        assert list(result.weights.weights) == [-1, Fraction(3, 2), Fraction(1, 2), 0]
        combination = sum(w * g for w, g in zip(result.weights.weights, history))
        assert all(entry == 0 for entry in combination)

    def test_full_rank_has_empty_nullspace(self):
        # Independent but not orthogonal: a nonzero ghat, and the variational
        # characterization holds exactly.
        history = [vector(v, RATIONAL) for v in ([1, 2, 0], [0, 1, 1], [3, 0, 1])]
        result = projection_oracle(history)
        assert result.norm_sq > 0
        assert characterization_residuals(result, history) == [0, 0, 0]

    def test_pivoting_handles_zero_leading_entry(self):
        # A zero leading vector makes S^T H S start with a zero pivot; the
        # orthogonalization drops it first.
        P = _rational_problem()
        zero, s = vector([0, 0, 0], RATIONAL), vector([1, 0, 1], RATIONAL)
        sol = minimize_on_affine_span(P, SpanBasis(x0=P.x0, spanning_vectors=(zero, s, 2 * s)))
        ref = minimize_on_affine_span(P, SpanBasis(x0=P.x0, spanning_vectors=(s,)))
        assert list(sol.point) == list(ref.point)
        assert sol.objective_value == ref.objective_value
        assert list(sol.coordinates) == [0, ref.coordinates[0], 0]
        start = minimize_on_affine_span(P, SpanBasis(x0=P.x0, spanning_vectors=(zero,)))
        assert list(start.point) == [0, 0, 0] and start.objective_value == 0
        first = projection_oracle([zero, s])
        assert first.norm_sq == 0 and list(first.weights.weights) == [1, 0]

    def test_negative_diagonal_rejected(self):
        # The elimination stops at the first pivot that is not positive.
        A = sym_matrix([[1, 0], [0, -1]], RATIONAL)
        check = SpdCheck(A)
        assert (check.is_spd, check.failed_pivot, check.pivots) == (False, 1, (1, -1))
        assert len(leading_solves(A, vector([1, 1], RATIONAL))) == 1


small_rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=7
)


@st.composite
def spd_rational_matrix(draw):
    """B^T B + I for a random small integer B: symmetric positive definite."""
    n = draw(st.integers(min_value=1, max_value=4))
    B = [[draw(st.integers(min_value=-3, max_value=3)) for _ in range(n)] for _ in range(n)]
    rows = [
        [
            sum(B[t][i] * B[t][j] for t in range(n)) + (1 if i == j else 0)
            for j in range(n)
        ]
        for i in range(n)
    ]
    return sym_matrix(rows, RATIONAL)


class TestProperties:
    @given(spd_rational_matrix(), st.data())
    @settings(max_examples=50, deadline=None)
    def test_solve_spd_is_exact(self, M, data):
        n = M.shape[0]
        b = vector(
            [data.draw(small_rationals) for _ in range(n)], RATIONAL
        )
        x = cholesky_spd_check(M).solve(b)
        assert list(mat_vec(M, x)) == list(b)

    @given(spd_rational_matrix())
    @settings(max_examples=50, deadline=None)
    def test_spd_check_pivots_positive(self, M):
        check = cholesky_spd_check(M)
        assert check.is_spd
        assert all(p > 0 for p in check.pivots)

    @given(spd_rational_matrix(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_pivoted_ldlt_matches_direct_solve(self, M, data):
        # The oracle over the unit vectors reaches the minimizer M^-1 b of
        # 1/2 x^T M x - b^T x, which the direct solve gives.
        n = M.shape[0]
        b = vector([data.draw(small_rationals) for _ in range(n)], RATIONAL)
        P = QuadraticProblem(H=M, c=-b, x0=vector([0] * n, RATIONAL))
        units = [vector([int(i == j) for j in range(n)], RATIONAL) for i in range(n)]
        sol = minimize_on_affine_span(P, SpanBasis(x0=P.x0, spanning_vectors=units))
        assert list(sol.point) == list(cholesky_spd_check(M).solve(b))


def _sympy_matrix(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows])


@st.composite
def gram_system(draw):
    """(B^T B, b, B) for a random rational B with at most n rows, so often singular.

    b is drawn in the range of B^T B half the time and freely otherwise.
    """
    n = draw(st.integers(min_value=1, max_value=5))
    m = draw(st.integers(min_value=0, max_value=n))
    B = [[draw(small_rationals) for _ in range(n)] for _ in range(m)]
    A = [[sum((B[t][i] * B[t][j] for t in range(m)), Fraction(0)) for j in range(n)]
         for i in range(n)]
    if draw(st.booleans()):
        y = [draw(small_rationals) for _ in range(n)]
        b = [sum((A[i][j] * y[j] for j in range(n)), Fraction(0)) for i in range(n)]
    else:
        b = [draw(small_rationals) for _ in range(n)]
    return A, b, B


def _columns(B, backend) -> list[np.ndarray]:
    return [vector([row[j] for row in B], backend) for j in range(len(B[0]))]


def _kept_by_rank(B) -> list[int]:
    """The columns of B that raise the exact rank of the columns before them (sympy)."""
    _, pivots = _sympy_matrix(B).rref()
    return list(pivots)


class TestKernelAgainstSympy:
    """The elimination and the orthogonalization against independent exact references."""

    @given(gram_system())
    @settings(max_examples=60, deadline=None)
    def test_rank_nullspace_and_consistency_exact(self, system):
        # The elimination of a (often singular) Gram matrix stops at its first
        # leading block that is not positive definite, with the pivots of the
        # Fraction Schur complements, and solves every block before it
        # exactly.  The orthogonalization of B's columns keeps exactly those
        # that raise the rank.
        rows, rhs, B = system
        A, b = sym_matrix(rows, RATIONAL), vector(rhs, RATIONAL)
        ref = _sympy_matrix(rows)
        check = SpdCheck(A)
        assert list(check.pivots) == _natural_order_pivots(A, 0)
        definite = [bool(ref[:k, :k].is_positive_definite) for k in range(1, len(rows) + 1)]
        assert check.rank == (definite + [False]).index(False)
        assert check.is_spd == bool(ref.is_positive_definite)
        solves = leading_solves(A, b)
        assert len(solves) == check.rank
        for k, x in enumerate(solves, start=1):
            assert list(mat_vec(A[:k, :k], x)) == list(b[:k])
        if B:
            assert _orthogonalized(_columns(B, RATIONAL))[3] == _kept_by_rank(B)

    @given(gram_system())
    @settings(max_examples=60, deadline=None)
    def test_exact_basis_rows_are_integers(self, system):
        # Under rationals each kept row of Q is a primitive integer row over 1,
        # column j of T combines the columns into it exactly, d holds its
        # squared norm, and a dropped column's combination is exactly zero.
        _, _, B = system
        assume(B)
        columns = _columns(B, RATIONAL)
        basis, T, d, kept = _orthogonalized(columns)
        Q = _fractions(basis)
        assert all(type(x) is int for x in basis.A.flat) and all(s == 1 for s in basis.s)
        assert all(math.gcd(*row) == 1 for row in basis.A)
        assert list(d) == [sum(x * x for x in row) for row in Q]
        for j in range(len(columns)):
            combination = sum((T[i, j] * v for i, v in enumerate(columns)), 0 * columns[0])
            assert list(combination) == (list(Q[kept.index(j)]) if j in kept else [0] * len(B))

    def test_integer_rows_are_primitive_rows_and_scales(self):
        # A row of ints keeps its content in its scale, and a row holding a
        # Fraction is read over the LCM of its denominators.
        ints = np.array([[3, -(4**40)], [0, 7]], dtype=object)
        stack = _integer_rows(ints)
        assert stack.A.tolist() == [[3, -(4**40)], [0, 1]] and list(stack.s) == [1, 7]
        mixed = _integer_rows(np.array([[3, Fraction(1, 2)], [0, 14]], dtype=object))
        assert mixed.A.tolist() == [[6, 1], [0, 1]] and list(mixed.s) == [Fraction(1, 2), 14]

    @given(st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(st.lists(small_rationals, min_size=n, max_size=n),
                           min_size=n, max_size=n)))
    @settings(max_examples=60, deadline=None)
    def test_spd_verdict_on_indefinite_matrices(self, upper):
        n = len(upper)
        rows = [[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        check = cholesky_spd_check(sym_matrix(rows, RATIONAL))
        assert check.is_spd == bool(_sympy_matrix(rows).is_positive_definite)

    @given(gram_system(), st.lists(st.sampled_from([-6, -2, 2, 6]), min_size=5, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_float_columns_scaled_over_twelve_decades(self, system, exponents):
        # Column j of B times 10^e_j: the float64 drop rule weighs each column
        # against its own norm, so the scaling moves no decision, and the
        # kept columns are those that raise the exact rank.
        _, _, B = system
        assume(B)
        columns = [v * 10.0**e for v, e in zip(_columns(B, F64), exponents)]
        Q, T, d, kept = _orthogonalized(columns)
        assert kept == _kept_by_rank(B)
        V, norms = np.column_stack(columns), np.array([np.linalg.norm(v) for v in columns])
        for j in range(len(columns)):  # sum_i T[i, j] v_i is q_j, or ~0 if dropped
            q = Q[kept.index(j)] if j in kept else 0
            assert np.linalg.norm(V @ T[:, j] - q) <= 1e-12 * (norms @ np.abs(T[:, j]))


class TestFloatRankFloor:
    """The float64 drop rule against exact ranks of integer matrices."""

    def test_exactly_singular_gram_is_rank_deficient(self):
        # Exactly rank 3, yet the last pivot of the Jacobi-scaled B^T B is
        # 9.3e-16, above the floor 8.9e-16 of n * eps.
        B = np.array([[-2, -2, 1, -3], [1, -3, -2, 3], [-2, -1, 1, -3]])
        assert _orthogonalized(list(B.T.astype(float)))[3] == _kept_by_rank(B.tolist()) == [0, 1, 2]

    def test_seeded_sweep_of_rank_deficient_integer_grams(self):
        # n <= 6 integer columns in m < n dimensions: the kept columns of
        # every prefix B[:, :k] are those that raise its exact rank.
        rng = np.random.default_rng(2)
        wrong = []
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            B = rng.integers(-3, 4, size=(int(rng.integers(1, n)), n))
            if _orthogonalized(list(B.T.astype(float)))[3] != _kept_by_rank(B.tolist()):
                wrong.append(B.tolist())
        assert wrong == []


class TestAppend:
    """Each leading block is the one before it with a column appended.

    ``leading_solves`` factors all of them in one natural-order pass and
    stops at the first appended column whose pivot fails the floor.
    """

    @given(spd_rational_matrix(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_leading_solves_are_the_block_solves_exactly(self, M, data):
        n = M.shape[0]
        b = vector([data.draw(small_rationals) for _ in range(n)], RATIONAL)
        solves = leading_solves(M, b)
        assert len(solves) == n
        for k, x in enumerate(solves, start=1):
            assert list(x) == list(cholesky_spd_check(M[:k, :k]).solve(b[:k]))

    def test_float_leading_solves_over_twelve_decades(self):
        rng = np.random.default_rng(0)
        B = rng.integers(-3, 4, size=(9, 6)).astype(float)
        d = 10.0 ** np.array([-6, 6, -2, 2, 0, 4])
        A = d[:, None] * (B.T @ B + np.eye(6)) * d
        y = np.arange(1.0, 7.0) / d
        solves = leading_solves(A, A @ y)
        assert len(solves) == 6
        for k, x in enumerate(solves, start=1):
            direct = np.linalg.solve(A[:k, :k], (A @ y)[:k])
            assert np.all(np.abs(x - direct) <= 1e-10 * np.abs(direct).max())

    @pytest.mark.parametrize("backend", [RATIONAL, F64])
    def test_dependent_column_is_refused_and_factor_kept(self, backend):
        A = sym_matrix([[4, 2, 6], [2, 5, 3], [6, 3, 9]], backend)  # col 2 = 1.5 col 0
        b = A @ np.array([backend.one] * 3)
        solves = leading_solves(A, b)
        assert len(solves) == 2
        for k, x in enumerate(solves, start=1):
            assert np.allclose(np.array(A[:k, :k] @ x, dtype=float), np.array(b[:k], dtype=float))

    def test_float_margin_refuses_a_nearly_dependent_column(self):
        # g + t h lies in the span of g and h; g + t e leaves 0.98 t of e
        # outside it, against a margin of sqrt(eps) |g + t e| = 3.7e-8.
        g = np.array([1.0, 2.0, -1.0, 0.5])
        h = np.array([0.0, 1.0, 1.0, 0.0])
        e = np.array([0.0, 0.0, 0.0, 1.0])
        assert _orthogonalized([g, h, g + 1e-9 * h])[3] == [0, 1]
        assert _orthogonalized([g, h, g + 1e-9 * e])[3] == [0, 1]
        assert _orthogonalized([g, h, g + 1e-7 * e])[3] == [0, 1, 2]

    @pytest.mark.parametrize("backend", [F64, RATIONAL], ids=["f64", "rational"])
    def test_no_vectors_give_an_empty_basis(self, backend):
        # A (0, n) array is orthogonalized by the same loop as any other, which runs no column.
        Q, T, d, kept = _orthogonalized(backend.empty((0, 3)))
        assert (Q.shape, T.shape, d.shape, kept) == ((0, 3), (0, 0), (0,), [])
        assert Q.dtype == T.dtype == d.dtype == backend.empty(0).dtype



def _bareiss_leading_solves(A: np.ndarray, b: np.ndarray) -> list[np.ndarray]:
    """The exact leading solves as the fraction-free elimination gave them
    before the nonzero-only factor: Bareiss on A's integer numerators, one
    forward substitution and the m back substitutions at once."""
    W, den = _integer_rows(A)._over_one_denominator
    prev, m = 1, len(A)
    for t in range(len(A)):
        piv = Fraction(W[t, t], prev * den)
        if not piv > 0:
            m = t
            break
        col = W[t + 1 :, t]
        W[t + 1 :, t + 1 :] = (W[t, t] * W[t + 1 :, t + 1 :] - np.outer(col, col)) // prev
        prev = W[t, t]
        W[t + 1 :, t] = [Fraction(x, prev) for x in col]
        W[t, t] = piv
    y = np.array(b[:m], dtype=object)
    for t in range(1, m):
        y[t] -= np.dot(W[t, :t], y[:t])
    y = y / W.diagonal()[:m]
    X = RATIONAL.empty((m, m))
    for t in range(m - 1, -1, -1):
        X[t, t:] = y[t] - np.dot(W[t + 1 : m, t], X[t + 1 :, t:])
    return [X[:k, k - 1] for k in range(1, m + 1)]


def _assert_same_solves(A: np.ndarray, b: np.ndarray) -> None:
    solves, reference = leading_solves(A, b), _bareiss_leading_solves(A, b)
    assert len(solves) == len(reference)
    for x, ref in zip(solves, reference):
        assert list(x) == list(ref)
        assert all(type(entry) is Fraction for entry in x)


@st.composite
def tridiagonal_rational_matrix(draw):
    """A symmetric tridiagonal rational matrix, some off-diagonal entries zero;
    diagonally dominant (so SPD) or with any diagonal."""
    n = draw(st.integers(min_value=1, max_value=8))
    off = [draw(st.one_of(st.just(Fraction(0)), wide_rationals)) for _ in range(n - 1)]
    diag = [draw(wide_rationals) for _ in range(n)]
    if draw(st.booleans()):
        diag = [abs(d) + 1 + sum(abs(e) for e in off[max(i - 1, 0) : i + 1])
                for i, d in enumerate(diag)]
    rows = [[diag[i] if i == j else off[min(i, j)] if abs(i - j) == 1 else 0
             for j in range(n)] for i in range(n)]
    return sym_matrix(rows, RATIONAL)


class TestNonzeroOnlyLeadingSolves:
    """The exact ``leading_solves`` factors only A's nonzero entries, and
    returns the Fractions, and stops at the m, that Bareiss gave."""

    @given(st.one_of(spd_rational_matrix(), symmetric_rational_matrix(),
                     tridiagonal_rational_matrix()), st.data())
    @settings(max_examples=120, deadline=None)
    def test_same_fractions_and_m_as_bareiss(self, A, data):
        b = vector([data.draw(wide_rationals) for _ in range(len(A))], RATIONAL)
        _assert_same_solves(A, b)

    def test_stops_at_the_first_pivot_that_is_not_positive(self):
        A = sym_matrix([[2, 1, 0, 0], [1, 2, 1, 0], [0, 1, -1, 1], [0, 0, 1, 3]], RATIONAL)
        b = vector([1, 2, 3, 4], RATIONAL)
        assert len(leading_solves(A, b)) == 2
        _assert_same_solves(A, b)

    def test_dense_reduced_matrix_of_a_corrupted_trace(self):
        # The oracle's reduced matrix Q^T H Q is tridiagonal for an exact CG
        # history and dense once a recorded vector is corrupted.
        from test_coverage import EXPECTED, nudged

        P = generate_problem(ProblemSpec(kind="rand_spd", n=8, condition=8, seed=3), RATIONAL)
        trace = cglens.run_cg(P)
        dense = []
        for field, k in EXPECTED:
            if field not in ("x_k", "g_k") or k >= trace.r:
                continue
            records = list(trace.records)
            records[k] = dataclasses.replace(records[k], **{field: nudged(getattr(records[k], field))})
            Q = _orthogonalized([rec.g_k for rec in records[: trace.r]])[0].A
            A = _product(Q, _product(P.H, Q.T))
            if np.triu(A != 0, 2).any():
                dense.append((field, k))
            _assert_same_solves(A, -_product(Q, gradient(P, records[0].x_k)))
        # A corrupted last gradient g_3 leaves the matrix tridiagonal: its
        # Gram-Schmidt residual is orthogonal to H q_0 and H q_1, which lie
        # in the span of g_0, g_1 and g_2.
        assert dense == [("g_k", 0), ("g_k", 2)]


class TestSpdSolve:
    """``SpdCheck.solve`` back-substitutes on the stored factor, O(n^2), and
    gives what the last row of ``_leading_combinations`` of the identity
    gave on that factor: the same Fractions, and float64 to rounding."""

    @pytest.mark.parametrize("backend", [F64, RATIONAL])
    @pytest.mark.parametrize("spec", [
        ProblemSpec(kind="diag", n=7),
        ProblemSpec(kind="laplacian1d", n=9),
        ProblemSpec(kind="rand_spd", n=8, condition=50, seed=2),
    ], ids=lambda spec: spec.kind)
    def test_matches_the_last_leading_combination(self, backend, spec):
        P = generate_problem(spec, backend)
        check, b = P.spd, -P.c
        x = check.solve(b)
        eye = np.eye(check.n, dtype=check._W.dtype)
        last = _leading_combinations((check._W, check.pivots, check.n), b, eye)[-1]
        if backend.exact:
            assert list(x) == list(last) and all(type(e) is Fraction for e in x)
            assert not gradient(P, x).any()
            assert list(exact_minimizer(P)) == list(x)
        else:
            np.testing.assert_allclose(x, last, rtol=1e-12, atol=1e-14 * np.abs(last).max())
        assert not x.flags.writeable


class TestLeadingCombinations:
    """Row k-1 of ``_leading_rows(A, b, V)`` is V[:k]^T x_k for the x_k of
    ``leading_solves``: exactly under rationals, where the forward
    substitution runs over V's columns, and to rounding under float64."""

    @given(st.one_of(spd_rational_matrix(), symmetric_rational_matrix(),
                     tridiagonal_rational_matrix()), st.integers(1, 3), st.data())
    @settings(max_examples=120, deadline=None)
    def test_exact_rows_are_the_combinations_of_the_solves(self, A, columns, data):
        r = len(A)
        b = vector([data.draw(wide_rationals) for _ in range(r)], RATIONAL)
        V = np.array([[data.draw(small_rationals) for _ in range(columns)] for _ in range(r)],
                     dtype=object)
        rows, solves = _leading_rows(A, b, V), leading_solves(A, b)
        assert len(rows) == len(solves) <= r
        for k, (row, x) in enumerate(zip(rows, solves), start=1):
            assert list(row) == list(np.dot(V[:k].T, x))
            assert all(type(entry) is Fraction for entry in row)

    def test_exact_rows_stop_where_the_solves_do(self):
        A = sym_matrix([[2, 1, 0, 0], [1, 2, 1, 0], [0, 1, -1, 1], [0, 0, 1, 3]], RATIONAL)
        b = vector([1, 2, 3, 4], RATIONAL)
        V = np.array([[Fraction(i + j, 3) for j in range(5)] for i in range(4)], dtype=object)
        rows = _leading_rows(A, b, V)
        assert len(rows) == len(leading_solves(A, b)) == 2

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=12))
    @settings(max_examples=60, deadline=None)
    def test_float_rows_over_twelve_decades(self, seed, n):
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((n + 2, n))
        d = 10.0 ** rng.integers(-6, 7, size=n)
        A = d[:, None] * (B.T @ B + np.eye(n)) * d
        b, V = rng.standard_normal(n) * d, rng.standard_normal((n, 4))
        rows, solves = _leading_rows(A, b, V), leading_solves(A, b)
        assert len(rows) == len(solves) == n
        for k, (row, x) in enumerate(zip(rows, solves), start=1):
            bound = np.abs(V[:k]).T @ np.abs(x)
            assert np.all(np.abs(row - V[:k].T @ x) <= 1e-12 * bound)


def _refuse(*args):
    raise AssertionError("the elimination loop ran")


def _refuse_lapack(A):
    raise np.linalg.LinAlgError("refused")


def _solves_both_ways(A, b):
    """leading_solves through LAPACK (the loop refused), then through the
    elimination loop (LAPACK refusing).  A matrix that LAPACK refuses never
    counts as factored in full, so the loop's solves stop short of order n."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cglens.linalg, "_eliminate", _refuse)
        lapack = leading_solves(A, b)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "cholesky", _refuse_lapack)
        loop = leading_solves(A, b)
    return lapack, loop


def _assert_close(lapack, loop, n):
    assert len(loop) == min(len(lapack), n - 1)
    for x, ref in zip(lapack, loop):
        assert np.abs(x - ref).max() <= 1e-10 * np.abs(ref).max()


class TestCholeskyLeadingSolves:
    """Float64 leading solves from one LAPACK factor against the elimination loop."""

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=12))
    @settings(max_examples=60, deadline=None)
    def test_random_spd_matches_the_elimination(self, seed, n):
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((n + 2, n))
        d = 10.0 ** rng.integers(-6, 7, size=n)
        A = d[:, None] * (B.T @ B + np.eye(n)) * d
        lapack, loop = _solves_both_ways(A, rng.standard_normal(n) * d)
        assert len(lapack) == n
        _assert_close(lapack, loop, n)

    def test_twelve_decades_match_the_elimination(self):
        rng = np.random.default_rng(0)
        B = rng.integers(-3, 4, size=(9, 6)).astype(float)
        d = 10.0 ** np.array([-6, 6, -2, 2, 0, 4])
        A = d[:, None] * (B.T @ B + np.eye(6)) * d
        lapack, loop = _solves_both_ways(A, A @ (np.arange(1.0, 7.0) / d))
        assert len(lapack) == 6
        _assert_close(lapack, loop, 6)

    @pytest.mark.parametrize("rows, m", [
        ([[1, 2], [2, 1]], 1),  # indefinite: LAPACK refuses
        ([[4, 2, 6], [2, 5, 3], [6, 3, 9]], 2),  # singular: column 2 is 1.5 column 0
        # LAPACK factors these, but pivot 2 is 2^-52, under the floor 2 eps (3 eps).
        ([[1, 1 - 2.0**-53], [1 - 2.0**-53, 1]], 1),
        ([[1, 1 - 2.0**-53, 0], [1 - 2.0**-53, 1, 0], [0, 0, 1]], 1),
    ])
    def test_refused_or_floor_failing_matrix_keeps_the_elimination_m(self, rows, m):
        A = np.array(rows, dtype=float)
        b = A @ np.ones(len(A))
        _, _, loop_m = cglens.linalg._eliminate(A, cglens.linalg._spd_floor(A))
        assert loop_m == m
        solves = leading_solves(A, b)
        assert len(solves) == m
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "cholesky", _refuse_lapack)
            _assert_close(solves, leading_solves(A, b), len(A))

    def test_floor_failing_cases_are_factored_by_lapack(self):
        # The floor, not LAPACK, decides these: the factor exists.
        A = np.array([[1, 1 - 2.0**-53], [1 - 2.0**-53, 1]])
        C = np.linalg.cholesky(A)
        assert 0 < C[1, 1] ** 2 <= cglens.linalg._spd_floor(A)
