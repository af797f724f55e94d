"""Backends, array constructors, and the two LDL^T factorizations."""

from __future__ import annotations

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from cglens import (
    F64,
    RATIONAL,
    LinalgError,
    ProblemSpec,
    dot,
    exact_minimizer,
    generate_problem,
    norm,
    norm_sq,
    scalar_token,
    vector,
)
from cglens.linalg import (
    BACKENDS,
    AsymmetricMatrixError,
    Backend,
    DimensionMismatch,
    NotSPDError,
    PivotedLDLT,
    SpdCheck,
    _product,
    backend_of,
    cholesky_spd_check,
    leading_solves,
    mat_vec,
    max_abs,
    residual_magnitude,
    solve_spd,
    sym_matrix,
)


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
        assert max_abs(v) == 4.0

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
    """(a, b) of shapes (0,)(0,), (k,)(k,), (k, m)(m,) or (k, m)(m, j), with m = 0 allowed."""
    k, j = (draw(st.integers(min_value=1, max_value=4)) for _ in range(2))
    m = draw(st.integers(min_value=0, max_value=4))
    shapes = draw(st.sampled_from([((0,), (0,)), ((k,), (k,)), ((k, m), (m,)), ((k, m), (m, j))]))
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


def _fraction_elimination(A: np.ndarray) -> PivotedLDLT:
    """The factor of A by the elimination on Fraction Schur complements that
    the fraction-free one replaced, kept here as its reference."""
    n = A.shape[0]
    W = np.array(A, dtype=object)
    perm, pivots, rank = list(range(n)), [], n
    for t in range(n):
        j = t + int(np.argmax(W.diagonal()[t:]))
        if j != t:
            W[[t, j], :] = W[[j, t], :]
            W[t:, [t, j]] = W[t:, [j, t]]
            perm[t], perm[j] = perm[j], perm[t]
        piv = W[t, t]
        pivots.append(piv)
        if not piv > 0:
            rank = t
            break
        col = W[t + 1 :, t] / piv
        W[t + 1 :, t] = col
        W[t + 1 :, t + 1 :] -= np.outer(col, col) * piv
    ref = PivotedLDLT.__new__(PivotedLDLT)
    ref.backend, ref.n, ref.rank, ref.perm, ref.pivots = RATIONAL, n, rank, perm, tuple(pivots)
    ref.pivot_floor, ref._W, ref._scale = Fraction(0), W, None
    return ref


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
        fact, ref = SpdCheck(A), _fraction_elimination(A)
        assert (fact.rank, fact.perm, fact.pivots) == (ref.rank, ref.perm, ref.pivots)
        assert all(type(p) is Fraction for p in fact.pivots)
        b = vector([data.draw(wide_rationals) for _ in range(A.shape[0])], RATIONAL)
        (x, consistent), (x_ref, consistent_ref) = fact.solve(b), ref.solve(b)
        assert consistent == consistent_ref and list(x) == list(x_ref)
        assert [list(z) for z in fact.nullspace()] == [list(z) for z in ref.nullspace()]


class TestScalarToken:
    def test_fraction_tokens(self):
        assert scalar_token(Fraction(2, 3)) == "2/3"
        assert scalar_token(Fraction(5)) == "5"

    def test_float_tokens_round_trip(self):
        for x in (0.1, 1e-300, -math.pi, 3.0):
            assert float(scalar_token(x)) == x


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
        x = solve_spd(M, b)
        assert list(x) == [Fraction(2, 3), Fraction(-1, 3)]

    def test_solve_spd_raises_with_one_based_pivot(self):
        M = sym_matrix([[1, 0], [0, -1]], F64)
        with pytest.raises(NotSPDError) as excinfo:
            solve_spd(M, vector([1, 1], F64))
        assert excinfo.value.pivot_index == 2


def _natural_order_pivots(M: np.ndarray, floor: float) -> list[Fraction]:
    """The natural-order L D L^T pivots of the float matrix M, on exact
    Fraction Schur complements of its entries, up to and including the first
    at or below ``floor``: the reference for the float64 SPD test."""
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
        # The pivoted rational elimination takes the 5 first and fails at step 3.
        rows = [[4, 2, 0], [2, 1, 0], [0, 0, 5]]
        check = cholesky_spd_check(sym_matrix(rows, F64))
        assert (check.failed_pivot, check.pivots) == (1, (4.0, 0.0))
        assert cholesky_spd_check(sym_matrix(rows, RATIONAL)).failed_pivot == 2

    def test_nan_entry_fails(self):
        # LAPACK passes a NaN through to the factor; the floor test fails it.
        for M in ([[1.0, math.nan], [math.nan, 1.0]], [[1.0, 0.0], [0.0, math.nan]], [[math.nan]]):
            assert not cholesky_spd_check(np.array(M)).is_spd

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
        # recomputed here is well above the floor.
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
        def eliminate(self, *args):
            raise AssertionError("PivotedLDLT._eliminate entered")

        monkeypatch.setattr(PivotedLDLT, "_eliminate", eliminate)
        P = generate_problem(ProblemSpec(kind="rand_spd", n=40, condition=100.0, seed=1), F64)
        assert P.spd.is_spd and len(exact_minimizer(P)) == 40
        assert not cholesky_spd_check(sym_matrix([[1, 2], [2, 1]], F64)).is_spd
        with pytest.raises(AssertionError, match="entered"):
            cholesky_spd_check(sym_matrix([[1]], RATIONAL))  # the patch is in force


class TestPivotedLDLT:
    def test_full_rank_exact_solve(self):
        A = sym_matrix([[2, 1], [1, 2]], RATIONAL)
        x, consistent = PivotedLDLT(A).solve(vector([3, 3], RATIONAL))
        assert consistent
        assert list(x) == [1, 1]

    def test_consistent_singular_system(self):
        # rank 1; b in the column space
        A = sym_matrix([[1, 1], [1, 1]], RATIONAL)
        x, consistent = PivotedLDLT(A).solve(vector([2, 2], RATIONAL))
        assert consistent
        assert mat_vec(A, x)[0] == 2

    def test_inconsistent_singular_system(self):
        A = sym_matrix([[1, 1], [1, 1]], RATIONAL)
        _, consistent = PivotedLDLT(A).solve(vector([1, 0], RATIONAL))
        assert not consistent

    def test_nullspace_annihilates(self):
        A = sym_matrix([[1, 1], [1, 1]], RATIONAL)
        basis = PivotedLDLT(A).nullspace()
        assert len(basis) == 1
        assert all(entry == 0 for entry in mat_vec(A, basis[0]))

    def test_full_rank_has_empty_nullspace(self):
        A = sym_matrix([[2, 1], [1, 2]], RATIONAL)
        assert PivotedLDLT(A).nullspace() == []

    def test_pivoting_handles_zero_leading_entry(self):
        # rank-1 PSD with a zero leading diagonal entry: elimination
        # cannot start at (0, 0) without the diagonal pivot search
        A = sym_matrix([[0, 0, 0], [0, 1, 2], [0, 2, 4]], RATIONAL)
        b = vector([0, 1, 2], RATIONAL)
        x, consistent = PivotedLDLT(A).solve(b)
        assert consistent
        assert list(mat_vec(A, x)) == [0, 1, 2]

    def test_negative_diagonal_rejected(self):
        A = sym_matrix([[1, 0], [0, -1]], RATIONAL)
        with pytest.raises(LinalgError, match="not positive semidefinite"):
            PivotedLDLT(A)


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
        x = solve_spd(M, b)
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
        n = M.shape[0]
        b = vector([data.draw(small_rationals) for _ in range(n)], RATIONAL)
        x_direct = solve_spd(M, b)
        x_pivoted, consistent = PivotedLDLT(M).solve(b)
        assert consistent
        assert list(x_pivoted) == list(x_direct)


def _sympy_matrix(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows])


@st.composite
def gram_system(draw):
    """(B^T B, b) for a random rational B with at most n rows, so often singular.

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
    return A, b


class TestKernelAgainstSympy:
    """The one LDL^T kernel against an independent exact reference."""

    @given(gram_system())
    @settings(max_examples=60, deadline=None)
    def test_rank_nullspace_and_consistency_exact(self, system):
        rows, rhs = system
        A, b = sym_matrix(rows, RATIONAL), vector(rhs, RATIONAL)
        ref = _sympy_matrix(rows)
        fact = PivotedLDLT(A)
        assert fact.rank == ref.rank()
        basis = fact.nullspace()
        assert len(basis) == A.shape[0] - fact.rank
        for v in basis:
            assert all(entry == 0 for entry in mat_vec(A, v))
        x, consistent = fact.solve(b)
        in_range = ref.row_join(_sympy_matrix([[e] for e in rhs])).rank() == ref.rank()
        assert consistent == in_range
        if consistent:
            assert list(mat_vec(A, x)) == list(b)
        assert cholesky_spd_check(A).is_spd == bool(ref.is_positive_definite)

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
        # A = D (B^T B) D with D = diag(10^e_j): the float64 kernel must
        # undo D itself and map kernel vectors and solutions back to the
        # unscaled coordinates.  (Its rank is a numerical rank: a pivot
        # within a few eps of the floor can fall on either side of it.)
        rows, _ = system
        n = len(rows)
        d = [Fraction(10) ** e for e in exponents[:n]]
        A = np.array([[float(d[i] * rows[i][j] * d[j]) for j in range(n)] for i in range(n)])
        fact = PivotedLDLT(A)
        size = np.abs(A)
        for v in fact.nullspace():
            assert np.all(np.abs(A @ v) <= 1e-9 * (size @ np.abs(v)))
        y = np.array([float(e) for e in d]) ** -1
        b = A @ y
        x, consistent = fact.solve(b)
        assert consistent
        assert np.all(np.abs(A @ x - b) <= 1e-9 * (size @ (np.abs(x) + np.abs(y))))


class TestFloatRankFloor:
    """The float64 semidefinite kernel against exact ranks of integer Gram matrices."""

    def test_exactly_singular_gram_is_rank_deficient(self):
        # Its last pivot, 9.3e-16, sat just above an unmargined floor of 8.9e-16.
        B = np.array([[-2, -2, 1, -3], [1, -3, -2, 3], [-2, -1, 1, -3]], dtype=float)
        assert sympy.Matrix((B.T @ B).astype(int).tolist()).rank() == 3
        assert PivotedLDLT(B.T @ B).rank == 3

    def test_seeded_sweep_of_rank_deficient_integer_grams(self):
        # B^T B with B of m < n rows, n <= 6: exact rank below n.  An
        # unmargined floor gets 1 of these 1000 wrong.
        rng = np.random.default_rng(2)
        wrong = []
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            B = rng.integers(-3, 4, size=(int(rng.integers(1, n)), n))
            A = B.T @ B
            if PivotedLDLT(A.astype(float)).rank != sympy.Matrix(A.tolist()).rank():
                wrong.append(B.tolist())
        assert wrong == []


class TestAppend:
    """Each leading block is the one before it with a column appended.

    ``leading_solves`` factors all of them in one natural-order pass and
    stops at the first appended column whose pivot misses its margin.
    """

    @given(spd_rational_matrix(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_leading_solves_are_the_block_solves_exactly(self, M, data):
        n = M.shape[0]
        b = vector([data.draw(small_rationals) for _ in range(n)], RATIONAL)
        solves = leading_solves(M, b)
        assert len(solves) == n
        for k, x in enumerate(solves, start=1):
            assert list(x) == list(solve_spd(M[:k, :k], b[:k]))

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
        g = np.array([1.0, 2.0, -1.0, 0.5])
        h = np.array([0.0, 1.0, 1.0, 0.0])
        G = np.column_stack([g, h, g + 1e-9 * h])
        assert len(leading_solves(G.T @ G, np.ones(3))) == 2
