"""The quadratic model: evaluation, gradients, and the SPD gate."""

from __future__ import annotations

import gc
import weakref
from fractions import Fraction

import numpy as np
import pytest

import cglens.linalg
import cglens.quadratic
from cglens import (
    F64, RATIONAL, LinalgError, ProblemSpec, exact_minimizer, generate_problem, gradient,
    run_cg, vector,
)
from cglens.linalg import (AsymmetricMatrixError, DimensionMismatch, _fractions, _stack,
                           cholesky_spd_check, sym_matrix)
from cglens.mmio import load_problem, save_problem
from cglens.quadratic import QuadraticProblem, _times_H, evaluate
from cglens.verify import run_full_suite


def make_p1():
    return QuadraticProblem(
        H=sym_matrix([[1, 0], [0, 2]], RATIONAL),
        c=vector([-1, -2], RATIONAL),
        x0=vector([0, 0], RATIONAL),
    )


def _count_integerizations_of_H(monkeypatch, H) -> list:
    """Record each ``_integer_matrix`` or ``_integer_rows`` call on H or on a view of it."""
    calls = []
    for name in ("_integer_matrix", "_integer_rows"):
        original = getattr(cglens.linalg, name)

        def counted(rows, original=original, name=name):
            if np.shares_memory(rows, H):
                calls.append((name, rows.shape))
            return original(rows)

        monkeypatch.setattr(cglens.linalg, name, counted)
        monkeypatch.setattr(cglens.quadratic, name, counted, raising=False)
    return calls


def _count_integer_ratios(monkeypatch) -> list:
    """Count ``Fraction.as_integer_ratio`` calls, the one way a Fraction is read as integers."""
    calls = [0]
    original = Fraction.as_integer_ratio

    def counted(x):
        calls[0] += 1
        return original(x)

    monkeypatch.setattr(Fraction, "as_integer_ratio", counted)
    return calls


class TestKeptNumerators:
    """A rational problem integerizes H once, at construction."""

    @pytest.mark.parametrize("mode", ["recursive", "gradient_sum", "shortest_residuals"])
    def test_construction_integerizes_H_once_and_the_solve_and_suite_never(self, monkeypatch,
                                                                           mode):
        G = generate_problem(ProblemSpec(kind="rand_spd", n=14, condition=11, seed=7), RATIONAL)
        calls = _count_integerizations_of_H(monkeypatch, G.H)
        P = QuadraticProblem(H=G.H, c=G.c, x0=G.x0)
        assert calls == [("_integer_matrix", (14, 14))]
        report = run_full_suite(P, trace=run_cg(P, direction_mode=mode))
        assert report.overall and report.r >= 5
        assert calls == [("_integer_matrix", (14, 14))]

    @pytest.mark.parametrize("n", [1, 2, 7, 14])
    def test_generation_reads_each_entry_of_H_once(self, monkeypatch, n):
        calls = _count_integer_ratios(monkeypatch)
        P = generate_problem(ProblemSpec(kind="rand_spd", n=n, condition=11, seed=7), RATIONAL)
        assert 0 < calls[0] <= n * n + 3 * n
        assert list(exact_minimizer(P)) == [1] * n

    @pytest.mark.parametrize("n", [1, 2, 7, 14])
    def test_a_loaded_problem_reads_each_entry_of_H_once_through_its_solve(self, monkeypatch,
                                                                          tmp_path, n):
        save_problem(generate_problem(ProblemSpec(kind="rand_spd", n=n, condition=11, seed=7),
                                      RATIONAL), tmp_path / "P.json")
        calls = _count_integer_ratios(monkeypatch)
        trace = run_cg(load_problem(tmp_path / "P.json", RATIONAL))
        assert 0 < calls[0] <= n * n + 3 * n
        assert list(trace.records[-1].x_k) == [1] * n

    @pytest.mark.parametrize("H", [
        [["1/2", "-1/3", "1/5"], ["-1/3", "7/4", "2/9"], ["1/5", "2/9", "3"]],
        [["5/2", "-1/3", "-1/4"], ["-1/3", "7/3", "-1/6"], ["-1/4", "-1/6", "2"]],
        [["6", "-4"], ["-4", "10"]],  # a content of 2 in each row
        [["1/4"]],
    ])
    def test_kept_rows_are_the_rows_of_H(self, H):
        n = len(H)
        P = QuadraticProblem(H=sym_matrix(H, RATIONAL), c=vector([0] * n, RATIONAL),
                             x0=vector([0] * n, RATIONAL))
        reference = cglens.linalg._integer_rows(P.H)
        assert P._H_rows.A.tolist() == reference.A.tolist()
        assert P._H_rows.s.tolist() == reference.s.tolist()
        (N, den), (N_ref, den_ref) = P._H_rows._over_one_denominator, reference._over_one_denominator
        assert N.tolist() == N_ref.tolist() and den == den_ref

    def test_float64_forms_no_numerators(self, monkeypatch):
        P = generate_problem(ProblemSpec(kind="rand_spd", n=14, condition=11, seed=7), F64)
        calls = _count_integerizations_of_H(monkeypatch, P)
        assert run_full_suite(P).r == 14
        assert calls == [] and "_H_rows" not in vars(P)

    def test_numerators_are_a_stack(self):
        P = generate_problem(ProblemSpec(kind="laplacian1d", n=6), RATIONAL)
        assert isinstance(P._H_rows, cglens.linalg._Rows)
        assert [list(row) for row in P._H_rows.A] == [list(row) for row in P.H]
        assert list(P._H_rows.s) == [1] * 6

    def test_numerators_die_with_their_problem(self):
        P = generate_problem(ProblemSpec(kind="laplacian1d", n=6), RATIONAL)
        gradient(P, P.x0)
        numerators = weakref.ref(P._H_rows.A)
        del P
        gc.collect()
        assert numerators() is None


class TestConstruction:
    def test_non_spd_rejected_with_pivot(self):
        with pytest.raises(LinalgError, match="pivot 2"):
            QuadraticProblem(
                H=sym_matrix([[1, 0], [0, -1]], F64),
                c=vector([0, 0], F64),
                x0=vector([0, 0], F64),
            )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            QuadraticProblem(
                H=sym_matrix([[1, 0], [0, 2]], F64),
                c=vector([0, 0, 0], F64),
                x0=vector([0, 0], F64),
            )

    @pytest.mark.parametrize("backend", [F64, RATIONAL])
    def test_non_square_H_rejected(self, backend):
        with pytest.raises(DimensionMismatch, match="H must be square"):
            QuadraticProblem(H=backend.empty((2, 3)), c=vector([0, 0], backend),
                             x0=vector([0, 0], backend))

    @pytest.mark.parametrize("backend", [F64, RATIONAL])
    def test_asymmetric_H_rejected(self, backend):
        # The SPD test reads one triangle, which this H shares with [[2, 0], [0, 2]].
        H = np.array([vector([2, 1], backend), vector([0, 2], backend)])
        with pytest.raises(AsymmetricMatrixError, match=r"entry \(1, 0\) = 0"):
            QuadraticProblem(H=H, c=vector([0, 0], backend), x0=vector([0, 0], backend))

    @pytest.mark.parametrize("rows, message", [
        ([["2", "1/3", "0"], ["1/3", "2", "1/5"], ["0", "1/4", "2"]],
         "entry (2, 1) = 1/4 does not match (1, 2) = 1/5"),  # in the last row alone
        ([["2", "1/3"], ["1/6", "2"]],
         "entry (1, 0) = 1/6 does not match (0, 1) = 1/3"),  # in a denominator alone
        ([["2", "5/3", "1"], ["-5/3", "2", "9"], ["2", "8", "2"]],
         "entry (1, 0) = -5/3 does not match (0, 1) = 5/3"),  # the first of three
    ])
    def test_rational_asymmetry_names_the_first_differing_entry(self, rows, message):
        n = len(rows)
        H = np.array([vector(row, RATIONAL) for row in rows])
        with pytest.raises(AsymmetricMatrixError) as err:
            QuadraticProblem(H=H, c=vector([0] * n, RATIONAL), x0=vector([0] * n, RATIONAL))
        assert str(err.value) == message
        with pytest.raises(AsymmetricMatrixError) as err:
            sym_matrix(rows, RATIONAL)
        assert str(err.value) == message

    # Pivots, rank, failing pivot and a solve on exact H, fixed before H was read
    # as integers once per problem.
    @pytest.mark.parametrize("rows, pivots, rank", [
        ([["1/2", "-1/3", "1/5"], ["-1/3", "7/4", "2/9"], ["1/5", "2/9", "3"]],
         ["1/2", "55/36", "35111/12375"], 3),
        ([["5/4", "5/6", "25/12"], ["5/6", "10/9", "35/18"], ["25/12", "35/18", "145/36"]],
         ["5/4", "5/9", "0"], 2),  # singular: B B^T for a B of rank 2
        ([["1/2", "1/3", "1/4"], ["1/3", "2/9", "1/6"], ["1/4", "1/6", "5"]], ["1/2", "0"], 1),
        ([["3/2", "1/2", "1"], ["1/2", "5/4", "-2/3"], ["1", "-2/3", "1/9"]],
         ["3/2", "13/12", "-173/117"], 2),  # indefinite
        ([["2/3", "1", "0"], ["1", "1/2", "-1/7"], ["0", "-1/7", "4"]], ["2/3", "-1"], 1),
    ])
    def test_the_rational_spd_test_keeps_its_pivots(self, rows, pivots, rank):
        n = len(rows)
        H, zero = sym_matrix(rows, RATIONAL), vector([0] * n, RATIONAL)
        for check in (cholesky_spd_check(H),
                      cholesky_spd_check(cglens.linalg._matrix_rows(H))):
            assert list(check.pivots) == [Fraction(p) for p in pivots]
            assert check.rank == rank and check.failed_pivot == (None if rank == n else rank)
        if rank < n:
            with pytest.raises(LinalgError) as err:
                QuadraticProblem(H=H, c=zero, x0=zero)
            assert str(err.value) == f"H is not positive definite: pivot {rank + 1} is {pivots[-1]}"
            return
        P = QuadraticProblem(H=H, c=zero, x0=zero)
        assert list(P.spd.pivots) == [Fraction(p) for p in pivots] and P.spd.rank == rank
        assert P.spd.failed_pivot is None
        x = P.spd.solve(vector(["1", "-2/3", "5/7"], RATIONAL))
        assert list(x) == [Fraction(476440, 245777), Fraction(-6336, 245777), Fraction(27225, 245777)]

    def test_backend_mixing_rejected(self):
        with pytest.raises(LinalgError):
            QuadraticProblem(
                H=sym_matrix([[1, 0], [0, 2]], F64),
                c=vector([0, 0], RATIONAL),
                x0=vector([0, 0], F64),
            )

    def test_metadata(self):
        P = make_p1()
        assert P.n == 2
        assert P.backend is RATIONAL


class TestEvaluation:
    def test_value_and_gradient(self):
        P = make_p1()
        x = vector(["1/2", "1/3"], RATIONAL)
        # q = 1/2 (x1^2 + 2 x2^2) + (-x1 - 2 x2)
        assert evaluate(P, x) == Fraction(1, 8) + Fraction(1, 9) - Fraction(1, 2) - Fraction(2, 3)
        assert list(gradient(P, x)) == [Fraction(-1, 2), Fraction(-4, 3)]

    def test_gradient_zero_at_minimizer(self):
        P = make_p1()
        x_star = exact_minimizer(P)
        assert list(x_star) == [1, 1]
        assert all(entry == 0 for entry in gradient(P, x_star))

    def test_point_of_gradient_inverts_gradient(self):
        P = make_p1()
        x = vector(["-2/7", "3/5"], RATIONAL)
        g = gradient(P, x)
        assert list(P.spd.solve(g - P.c)) == list(x)

    def test_point_checks_dimension(self):
        P = make_p1()
        with pytest.raises(DimensionMismatch):
            evaluate(P, vector([1], RATIONAL))

    def test_point_checks_backend(self):
        P = make_p1()
        with pytest.raises(LinalgError):
            evaluate(P, vector([1, 1], F64))


class TestFiniteDifference:
    @staticmethod
    def central_differences(P, x, h):
        """(q(x + h e_i) - q(x - h e_i)) / 2h for each unit vector e_i."""
        steps = [vector([h if j == i else 0 for j in range(P.n)], P.backend) for i in range(P.n)]
        return [(evaluate(P, x + e) - evaluate(P, x - e)) / (h + h) for e in steps]

    def test_exact_backend_deviation_is_zero(self):
        # Central differences are exact on a quadratic, whatever the step.
        P = make_p1()
        x = vector([2, "-3/7"], RATIONAL)
        for h in (Fraction(1, 10000), Fraction(3)):
            assert self.central_differences(P, x, h) == list(gradient(P, x))

    def test_float_backend_deviation_is_noise(self):
        P = QuadraticProblem(
            H=sym_matrix([[3, 1], [1, 4]], F64),
            c=vector([-1, 2], F64),
            x0=vector([0, 0], F64),
        )
        x = vector([0.7, -1.3], F64)
        slopes = self.central_differences(P, x, 1e-4)
        assert max(abs(s - g) for s, g in zip(slopes, gradient(P, x))) < 1e-9


class TestTimesH:
    """``_times_H`` on a stack of rows is the row-by-row product: exact under
    rationals for a stack (``linalg._Rows``) and for a ``Fraction`` array, and
    under float64 one ``np.dot`` with H, bit for bit, rows of no rows included."""

    @staticmethod
    def stack(k, n, backend):
        """k rows of n entries p/q, p in -9..9 and q in 1..6."""
        rng = np.random.default_rng(k)
        S = np.array([[Fraction(int(p), int(q)) for p, q in zip(rng.integers(-9, 10, n),
                                                                rng.integers(1, 7, n))]
                      for _ in range(k)], dtype=object).reshape(k, n)
        return S if backend.exact else S.astype(np.float64)

    @pytest.mark.parametrize("k", [0, 1, 4])
    def test_rational_stack_is_row_by_row(self, k):
        P = generate_problem(ProblemSpec(kind="rand_spd", n=6, condition=8, seed=2), RATIONAL)
        S = self.stack(k, P.n, RATIONAL)
        expected = np.array([_times_H(P, s) for s in S], dtype=object).reshape(k, P.n)
        assert all(type(x) is Fraction for x in expected.flat)
        assert (_times_H(P, S) == expected).all()
        assert (_fractions(_times_H(P, _stack(S, RATIONAL))) == expected).all()

    @pytest.mark.parametrize("k", [0, 1, 4])
    def test_float_stack_is_one_product(self, k):
        P = generate_problem(ProblemSpec(kind="rand_spd", n=6, condition=1e4, seed=2), F64)
        S = self.stack(k, P.n, F64)
        HS = _times_H(P, S)
        assert HS.tobytes() == np.dot(P.H, S.T).T.tobytes()
        # Row by row, H s is a matrix-vector product, whose sums may round otherwise.
        assert all(np.allclose(row, _times_H(P, s), rtol=1e-12) for row, s in zip(HS, S))
