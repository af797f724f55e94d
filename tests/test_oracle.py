"""The independent expanding-span minimizer and trace cross-checks."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from cglens import (
    F64,
    RATIONAL,
    DirectionScaling,
    LinalgError,
    ProblemSpec,
    generate_problem,
    run_cg,
    vector,
    verify_against_trace,
)
from cglens.linalg import DimensionMismatch, sym_matrix
from cglens.quadratic import QuadraticProblem, evaluate
from cglens.oracle import SpanBasis, minimize_on_affine_span, trace_oracle


def make_p1():
    return QuadraticProblem(
        H=sym_matrix([[1, 0], [0, 2]], RATIONAL),
        c=vector([-1, -2], RATIONAL),
        x0=vector([0, 0], RATIONAL),
        label="p1",
    )


class TestSpanBasis:
    def test_counts_vectors(self):
        x0 = vector([0, 0], RATIONAL)
        basis = SpanBasis(x0=x0, spanning_vectors=(vector([1, 0], RATIONAL),))
        assert basis.k == 1

    def test_rejects_wrong_dimension(self):
        x0 = vector([0, 0], RATIONAL)
        with pytest.raises(DimensionMismatch):
            SpanBasis(x0=x0, spanning_vectors=(vector([1, 0, 0], RATIONAL),))

    def test_rejects_mixed_backends(self):
        x0 = vector([0, 0], RATIONAL)
        with pytest.raises(LinalgError):
            SpanBasis(x0=x0, spanning_vectors=(vector([1, 0], F64),))

    def test_accepts_more_vectors_than_dimension(self):
        x0 = vector([0, 0], RATIONAL)
        v = vector([1, 0], RATIONAL)
        assert SpanBasis(x0=x0, spanning_vectors=(v, v, v)).k == 3


class TestMinimizeOnAffineSpan:
    def test_empty_span_returns_base_point(self):
        P = make_p1()
        sol = minimize_on_affine_span(P, SpanBasis(x0=P.x0, spanning_vectors=()))
        assert list(sol.point) == [0, 0]
        assert sol.objective_value == evaluate(P, P.x0)
        assert sol.coordinates.shape == (0,)

    def test_expanding_spans_reproduce_iterates(self):
        P = make_p1()
        trace = run_cg(P)
        gradients = trace.gradients()
        sol1 = minimize_on_affine_span(
            P, SpanBasis(x0=P.x0, spanning_vectors=(gradients[0],))
        )
        assert list(sol1.point) == [Fraction(5, 9), Fraction(10, 9)]
        sol2 = minimize_on_affine_span(
            P, SpanBasis(x0=P.x0, spanning_vectors=tuple(gradients[:2]))
        )
        assert list(sol2.point) == [1, 1]

    def test_dependent_span_reaches_same_point(self):
        P = make_p1()
        g0 = vector([-1, -2], RATIONAL)
        sol = minimize_on_affine_span(
            P, SpanBasis(x0=P.x0, spanning_vectors=(g0, g0, 2 * g0))
        )
        assert list(sol.point) == [Fraction(5, 9), Fraction(10, 9)]

    def test_full_span_reaches_global_minimizer(self):
        P = make_p1()
        basis = SpanBasis(
            x0=P.x0,
            spanning_vectors=(vector([1, 0], RATIONAL), vector([0, 1], RATIONAL)),
        )
        assert list(minimize_on_affine_span(P, basis).point) == [1, 1]

    def test_backend_mismatch_rejected(self):
        P = make_p1()
        with pytest.raises(LinalgError):
            minimize_on_affine_span(
                P,
                SpanBasis(
                    x0=vector([0, 0], F64),
                    spanning_vectors=(vector([1, 0], F64),),
                ),
            )

    def test_float_path_handles_wide_norm_range(self):
        P = generate_problem(ProblemSpec(kind="diag", n=12))
        trace = run_cg(P, tol=1e-8)
        gradients = trace.gradients()
        basis = SpanBasis(x0=P.x0, spanning_vectors=tuple(gradients[:-1]))
        sol = minimize_on_affine_span(P, basis)
        # the minimizer over the full history span is the last iterate
        drift = sol.point - trace.records[-1].x_k
        assert max(abs(float(t)) for t in drift) < 1e-6


class TestVerifyAgainstTrace:
    def test_exact_deviations_are_zero(self):
        P = make_p1()
        deviations = verify_against_trace(P, run_cg(P))
        assert deviations == [0, 0]

    def test_backend_mismatch_rejected(self):
        P_float = QuadraticProblem(
            H=sym_matrix([[1, 0], [0, 2]], F64),
            c=vector([-1, -2], F64),
            x0=vector([0, 0], F64),
        )
        trace = run_cg(make_p1())
        with pytest.raises(LinalgError):
            verify_against_trace(P_float, trace)

    def test_foreign_trace_rejected(self):
        other = QuadraticProblem(
            H=sym_matrix([[3, 0], [0, 5]], RATIONAL),
            c=vector([-1, -2], RATIONAL),
            x0=vector([0, 0], RATIONAL),
        )
        trace = run_cg(make_p1())
        with pytest.raises(LinalgError, match="do not come from this problem"):
            verify_against_trace(other, trace)

    def test_float_deviations_stay_small(self):
        P = generate_problem(ProblemSpec(kind="laplacian1d", n=16))
        trace = run_cg(P, tol=1e-8)
        assert all(float(d) < 1e-8 for d in verify_against_trace(P, trace))


def one_shot(P, trace):
    """The oracle one k at a time: a fresh pivoted reduced solve for every k."""
    gradients = [rec.g_k for rec in trace.records[: trace.r]]
    x0 = trace.records[0].x_k
    return [
        minimize_on_affine_span(P, SpanBasis(x0=x0, spanning_vectors=tuple(gradients[:k])))
        for k in range(1, trace.r + 1)
    ]


def with_gradient(trace, k, g):
    records = list(trace.records)
    records[k] = replace(records[k], g_k=g)
    return replace(trace, records=tuple(records))


def relative_gap(a, b):
    return float(np.abs(a - b).max() / max(np.abs(b).max(), 1e-300))


class TestTraceOracleSweep:
    """One growing factor per trace gives the one-shot answers."""

    @pytest.mark.parametrize("direction", ["recursive", "gradient_sum", "shortest_residuals"])
    @pytest.mark.parametrize("scaling", ["cg_standard", "unit"])
    def test_exact_sweep_equals_one_shot(self, direction, scaling):
        P = generate_problem(ProblemSpec(kind="rand_spd", n=10, condition=20, seed=3), RATIONAL)
        trace = run_cg(P, direction_mode=direction, scaling=DirectionScaling(scaling))
        sweep, reference = trace_oracle(P, trace), one_shot(P, trace)
        assert len(sweep) == len(reference) == trace.r > 3
        for sol, ref in zip(sweep, reference):
            assert list(sol.coordinates) == list(ref.coordinates)
            assert list(sol.point) == list(ref.point)
            assert sol.objective_value == ref.objective_value

    def test_float_sweep_agrees_with_one_shot_on_laplacian180(self):
        P = generate_problem(ProblemSpec(kind="laplacian1d", n=180))
        trace = run_cg(P, tol=1e-7)
        sweep, reference = trace_oracle(P, trace), one_shot(P, trace)
        assert len(sweep) == len(reference) == 90
        for sol, ref in zip(sweep, reference):
            assert relative_gap(sol.point, ref.point) <= 1e-10
            assert relative_gap(sol.coordinates, ref.coordinates) <= 1e-10
            gap = abs(sol.objective_value - ref.objective_value)
            assert gap <= 1e-12 * abs(ref.objective_value)

    @pytest.mark.parametrize("offset", [0.0, 1e-9])
    def test_float_dependent_column_falls_back_to_one_shot(self, offset):
        P = generate_problem(ProblemSpec(kind="laplacian1d", n=16))
        trace = run_cg(P, tol=1e-8)
        g1, g2 = trace.records[1].g_k, trace.records[2].g_k
        doctored = with_gradient(trace, 3, g2 + offset * g1)
        sweep, reference = trace_oracle(P, doctored), one_shot(P, doctored)
        # g_3 first enters the span at k = 4; from there on the answers
        # are the one-shot ones, to the bit.
        for sol, ref in zip(sweep[3:], reference[3:]):
            assert np.array_equal(sol.coordinates, ref.coordinates)
            assert np.array_equal(sol.point, ref.point)
            assert sol.objective_value == ref.objective_value
        for sol, ref in zip(sweep[:3], reference[:3]):
            assert relative_gap(sol.point, ref.point) <= 1e-12

    def test_exact_dependent_column_falls_back_to_one_shot(self):
        P = generate_problem(ProblemSpec(kind="laplacian1d", n=8), RATIONAL)
        trace = run_cg(P)
        g1, g2 = trace.records[1].g_k, trace.records[2].g_k
        doctored = with_gradient(trace, 3, g1 + g2)
        sweep, reference = trace_oracle(P, doctored), one_shot(P, doctored)
        for sol, ref in zip(sweep, reference):
            assert list(sol.coordinates) == list(ref.coordinates)
            assert list(sol.point) == list(ref.point)
