"""Backends, array constructors, and the two LDL^T factorizations."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from cglens import (
    BACKENDS,
    F64,
    RATIONAL,
    AsymmetricMatrixError,
    DimensionMismatch,
    LinalgError,
    NotSPDError,
    PivotedLDLT,
    backend_of,
    cholesky_spd_check,
    dot,
    mat_vec,
    max_abs,
    norm,
    norm_sq,
    residual_magnitude,
    scalar_token,
    solve_spd,
    sym_matrix,
    vector,
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

    def test_sym_matrix_rejects_ragged(self):
        with pytest.raises(DimensionMismatch):
            sym_matrix([[1, 0], [0]], F64)

    def test_vector_rejects_nested(self):
        with pytest.raises(LinalgError):
            vector([[1], [2]], F64)


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
    """Bordered growth of the kernel, one column at a time."""

    @staticmethod
    def grown(A):
        fact = PivotedLDLT(backend_of(A).empty((0, 0)))
        for k in range(1, A.shape[0] + 1):
            if not fact.append(A[:k, k - 1]):
                break
        return fact

    @given(spd_rational_matrix(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_leading_solves_are_the_block_solves_exactly(self, M, data):
        n = M.shape[0]
        b = vector([data.draw(small_rationals) for _ in range(n)], RATIONAL)
        fact = self.grown(M)
        assert fact.n == fact.rank == n
        for k, x in enumerate(fact.leading_solves(b), start=1):
            assert list(x) == list(solve_spd(M[:k, :k], b[:k]))

    def test_float_leading_solves_over_twelve_decades(self):
        rng = np.random.default_rng(0)
        B = rng.integers(-3, 4, size=(9, 6)).astype(float)
        d = 10.0 ** np.array([-6, 6, -2, 2, 0, 4])
        A = d[:, None] * (B.T @ B + np.eye(6)) * d
        y = np.arange(1.0, 7.0) / d
        for k, x in enumerate(self.grown(A).leading_solves(A @ y), start=1):
            direct = np.linalg.solve(A[:k, :k], (A @ y)[:k])
            assert np.all(np.abs(x - direct) <= 1e-10 * np.abs(direct).max())

    def test_append_to_a_pivoted_factor(self):
        A = sym_matrix([[1, 2, 0, 1], [2, 9, 3, 0], [0, 3, 7, 2], [1, 0, 2, 6]], RATIONAL)
        fact = PivotedLDLT(A[:3, :3])
        assert fact.perm != [0, 1, 2]
        assert fact.append(A[:, 3])
        b = vector([1, -2, 3, 5], RATIONAL)
        assert list(fact.solve(b)[0]) == list(solve_spd(A, b))

    @pytest.mark.parametrize("backend", [RATIONAL, F64])
    def test_dependent_column_is_refused_and_factor_kept(self, backend):
        A = sym_matrix([[4, 2, 6], [2, 5, 3], [6, 3, 9]], backend)  # col 2 = 1.5 col 0
        fact = self.grown(A)
        assert (fact.n, fact.rank, len(fact.pivots)) == (2, 2, 2)
        assert not fact.append(A[:, 2])
        assert fact.n == 2
        x, consistent = fact.solve(A[:2, :2] @ np.array([backend.one, backend.one]))
        assert consistent and np.allclose(np.array(x, dtype=float), 1.0)

    def test_float_margin_refuses_a_nearly_dependent_column(self):
        g = np.array([1.0, 2.0, -1.0, 0.5])
        h = np.array([0.0, 1.0, 1.0, 0.0])
        G = np.column_stack([g, h, g + 1e-9 * h])
        fact = PivotedLDLT(F64.empty((0, 0)))
        gram = G.T @ G
        assert fact.append(gram[:1, 0]) and fact.append(gram[:2, 1])
        assert not fact.append(gram[:, 2])

    def test_leading_solves_need_an_unpivoted_factor(self):
        A = sym_matrix([[1, 2], [2, 9]], RATIONAL)
        with pytest.raises(LinalgError, match="unpivoted"):
            PivotedLDLT(A).leading_solves(vector([1, 1], RATIONAL))
