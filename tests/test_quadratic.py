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
from cglens.linalg import AsymmetricMatrixError, DimensionMismatch, sym_matrix
from cglens.quadratic import QuadraticProblem, evaluate
from cglens.verify import run_full_suite


def make_p1():
    return QuadraticProblem(
        H=sym_matrix([[1, 0], [0, 2]], RATIONAL),
        c=vector([-1, -2], RATIONAL),
        x0=vector([0, 0], RATIONAL),
    )


def _count_integerizations_of_H(monkeypatch, P) -> list:
    """Record each ``_integer_rows`` call on H or on a view of it."""
    calls = []
    original = cglens.linalg._integer_rows

    def counted(rows):
        if np.shares_memory(rows, P.H):
            calls.append(rows.shape)
        return original(rows)

    monkeypatch.setattr(cglens.linalg, "_integer_rows", counted)
    monkeypatch.setattr(cglens.quadratic, "_integer_rows", counted, raising=False)
    return calls


class TestKeptNumerators:
    """A rational problem integerizes H once, at its first exact product."""

    @pytest.mark.parametrize("mode", ["recursive", "gradient_sum", "shortest_residuals"])
    def test_solve_and_suite_integerize_H_at_most_once(self, monkeypatch, mode):
        P = generate_problem(ProblemSpec(kind="rand_spd", n=14, condition=11, seed=7), RATIONAL)
        calls = _count_integerizations_of_H(monkeypatch, P)
        report = run_full_suite(P, trace=run_cg(P, direction_mode=mode))
        assert report.overall and report.r >= 5
        assert calls == [(14, 14)]

    def test_float64_forms_no_numerators(self, monkeypatch):
        P = generate_problem(ProblemSpec(kind="rand_spd", n=14, condition=11, seed=7), F64)
        calls = _count_integerizations_of_H(monkeypatch, P)
        assert run_full_suite(P).r == 14
        assert calls == [] and "_H_rows" not in vars(P)

    def test_numerators_are_a_stack(self):
        P = generate_problem(ProblemSpec(kind="laplacian1d", n=6), RATIONAL)
        assert isinstance(P._H_rows, cglens.linalg._Rows)
        assert [list(row) for row in P._H_rows.N] == [list(row) for row in P.H]
        assert list(P._H_rows.d) == [1] * 6

    def test_numerators_die_with_their_problem(self):
        P = generate_problem(ProblemSpec(kind="laplacian1d", n=6), RATIONAL)
        gradient(P, P.x0)
        numerators = weakref.ref(P._H_rows.N)
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
