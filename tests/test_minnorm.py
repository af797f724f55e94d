"""The least-norm point of the gradient affine hull, both constructions."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cglens import (
    F64,
    RATIONAL,
    DirectionScaling,
    LinalgError,
    ProblemSpec,
    characterization_residuals,
    dot,
    generate_problem,
    gradient,
    min_norm_closed_form,
    norm_sq,
    projection_oracle,
    run_cg,
    scaling_relation,
    shortest_residuals_direction,
    vector,
)
from cglens.linalg import DimensionMismatch, sym_matrix
from cglens.quadratic import QuadraticProblem
from cglens.minnorm import (
    AffineCombination,
    _closed_form_ghats,
    _projected_ghats,
    orthogonality_defect,
)

from conftest import dependent_rational_vectors


def make_p1():
    return QuadraticProblem(
        H=sym_matrix([[1, 0], [0, 2]], RATIONAL),
        c=vector([-1, -2], RATIONAL),
        x0=vector([0, 0], RATIONAL),
        label="p1",
    )


def p1_history():
    return [
        vector([-1, -2], RATIONAL),
        vector(["-4/9", "2/9"], RATIONAL),
    ]


class TestAffineCombination:
    def test_accepts_exact_unit_sum(self):
        AffineCombination(vector(["1/3", "2/3"], RATIONAL))

    def test_rejects_exact_nonunit_sum(self):
        with pytest.raises(LinalgError):
            AffineCombination(vector(["1/3", "1/3"], RATIONAL))

    def test_accepts_float_rounding(self):
        AffineCombination(vector([0.1, 0.2, 0.3, 0.4], F64))

    def test_rejects_float_drift(self):
        with pytest.raises(LinalgError):
            AffineCombination(vector([0.5, 0.6], F64))

    def test_float_refusal_shows_the_sum_as_a_number(self):
        with pytest.raises(LinalgError, match=r"^affine weights sum to 1\.1, not 1$"):
            AffineCombination(np.array([0.5, 0.6]))

    def test_rejects_empty(self):
        with pytest.raises(DimensionMismatch):
            AffineCombination(np.zeros(0))

    def test_rejects_nan_weights(self):
        with pytest.raises(LinalgError, match="sum to"):
            AffineCombination(np.array([math.nan, 1.0]))


class TestClosedFormGate:
    def test_rejects_a_nan_history(self):
        # The orthogonality defect of a NaN history is NaN, which no bound passes.
        with pytest.raises(LinalgError, match="not orthogonal"):
            min_norm_closed_form([np.array([math.nan, 0.0]), np.array([0.0, 1.0])])


class TestOrthogonalityDefect:
    def test_orthogonal_is_zero(self):
        assert orthogonality_defect(p1_history()) == 0.0

    def test_parallel_is_one(self):
        v = vector([1, 1], F64)
        assert orthogonality_defect([v, 2 * v]) == pytest.approx(1.0)

    def test_single_vector_is_zero(self):
        assert orthogonality_defect([vector([3, 4], F64)]) == 0.0


class TestClosedForm:
    def test_worked_problem_values(self):
        result = min_norm_closed_form(p1_history())
        assert list(result.ghat) == [Fraction(-8, 17), Fraction(2, 17)]
        assert result.norm_sq == Fraction(4, 17)
        assert list(result.weights.weights) == [Fraction(4, 85), Fraction(81, 85)]

    def test_single_gradient_returns_it(self):
        g = vector([-1, -2], RATIONAL)
        result = min_norm_closed_form([g])
        assert list(result.ghat) == [-1, -2]
        assert list(result.weights.weights) == [1]

    def test_rejects_non_orthogonal_exact(self):
        g0 = vector([1, 0], RATIONAL)
        g1 = vector([1, 1], RATIONAL)
        with pytest.raises(LinalgError, match="projection_oracle"):
            min_norm_closed_form([g0, g1])

    def test_rejects_zero_gradient(self):
        with pytest.raises(LinalgError):
            min_norm_closed_form([vector([0, 0], RATIONAL)])

    def test_float_tolerance_gate(self):
        g0 = vector([1.0, 1e-8], F64)
        g1 = vector([0.0, 1.0], F64)
        min_norm_closed_form([g0, g1], orthogonality_tol=1e-6)
        with pytest.raises(LinalgError):
            min_norm_closed_form([g0, g1], orthogonality_tol=1e-10)


class TestProjectionOracle:
    def test_matches_closed_form_on_orthogonal_input(self):
        closed = min_norm_closed_form(p1_history())
        projected = projection_oracle(p1_history())
        assert list(closed.ghat) == list(projected.ghat)
        assert closed.norm_sq == projected.norm_sq
        assert list(closed.weights.weights) == list(projected.weights.weights)

    def test_non_orthogonal_input(self):
        # hull of (1,0) and (1,1) is the line x = 1; nearest point (1,0)
        result = projection_oracle(
            [vector([1, 0], RATIONAL), vector([1, 1], RATIONAL)]
        )
        assert list(result.ghat) == [1, 0]
        assert list(result.weights.weights) == [1, 0]

    def test_hull_through_origin(self):
        # hull of (1,0) and (-1,0) contains the origin
        result = projection_oracle(
            [vector([1, 0], RATIONAL), vector([-1, 0], RATIONAL)]
        )
        assert all(entry == 0 for entry in result.ghat)
        assert result.norm_sq == 0
        assert list(result.weights.weights) == [Fraction(1, 2), Fraction(1, 2)]

    @pytest.mark.parametrize("backend", [F64, RATIONAL], ids=["f64", "rational"])
    def test_hull_through_origin_unequal_norms(self, backend):
        # 2/3 (1,0) + 1/3 (-2,0) = 0: (-2,0) is dropped as dependent, and
        # its weights on (1,0) sum to -2, not 1, so the hull is the whole line
        result = projection_oracle([vector([1, 0], backend), vector([-2, 0], backend)])
        assert all(entry == 0 for entry in result.ghat)
        assert result.norm_sq == 0
        expected = [Fraction(2, 3), Fraction(1, 3)]
        assert list(result.weights.weights) == (
            expected if backend.exact else pytest.approx(expected)
        )

    def test_zero_vertex_shortcut(self):
        result = projection_oracle(
            [vector([3, 4], RATIONAL), vector([0, 0], RATIONAL)]
        )
        assert result.norm_sq == 0
        assert list(result.weights.weights) == [0, 1]

    @given(dependent_rational_vectors())
    @settings(max_examples=150, deadline=None)
    def test_dependent_exact_input_meets_the_characterization(self, history):
        # ghat is the point sum alpha_i g_i of the hull with ghat^T (g_i - ghat) = 0
        # for every i, which makes it the least-norm point.
        result = projection_oracle(history)
        assert sum(result.weights.weights) == 1
        combination = sum(w * g for w, g in zip(result.weights.weights, history))
        assert list(combination) == list(result.ghat)
        assert characterization_residuals(result, history) == [0] * len(history)
        assert result.norm_sq == norm_sq(result.ghat)

    def test_dominance_over_vertices(self):
        result = projection_oracle(p1_history())
        for g in p1_history():
            assert norm_sq(g) >= result.norm_sq


class TestCharacterization:
    def test_residuals_vanish_exactly(self):
        history = p1_history()
        result = min_norm_closed_form(history)
        assert characterization_residuals(result, history) == [0, 0]

    def test_residuals_expose_wrong_candidate(self):
        history = p1_history()
        wrong = min_norm_closed_form([history[0]])
        assert any(r != 0 for r in characterization_residuals(wrong, history))

    def test_scaling_relation_zero_on_trace(self):
        trace = run_cg(make_p1())
        history = trace.gradients()[:2]
        result = min_norm_closed_form(history)
        assert scaling_relation(trace.records[1].p_k, history[1], result) == 0

    def test_scaling_relation_rejects_zero_ghat(self):
        result = projection_oracle(
            [vector([1, 0], RATIONAL), vector([-1, 0], RATIONAL)]
        )
        with pytest.raises(LinalgError):
            scaling_relation(vector([1, 0], RATIONAL), vector([1, 0], RATIONAL), result)


DIRECTIONS = ["recursive", "gradient_sum", "shortest_residuals"]


class TestGradientCorrespondence:
    """The gradient map is affine, so an affine mix of the iterates has the same
    mix of their gradients as its gradient; with the closed form's weights that
    gradient is ghat.  Both hold exactly under rationals."""

    @given(n=st.integers(3, 8), seed=st.integers(0, 2**32 - 1),
           direction=st.sampled_from(DIRECTIONS), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_affine_mix_of_iterates_has_the_mix_of_gradients(self, n, seed, direction, data):
        P = generate_problem(ProblemSpec(kind="rand_spd", n=n, condition=20, seed=seed), RATIONAL)
        records = run_cg(P, direction_mode=direction).records
        alphas = data.draw(st.lists(st.integers(-5, 5), min_size=len(records) - 1,
                                    max_size=len(records) - 1))
        alphas.append(1 - sum(alphas))
        x = sum(a * rec.x_k for a, rec in zip(alphas, records))
        assert list(gradient(P, x)) == list(sum(a * rec.g_k for a, rec in zip(alphas, records)))

    @pytest.mark.parametrize("direction", DIRECTIONS)
    def test_closed_form_weights_on_the_iterates_give_ghat(self, direction):
        P = generate_problem(ProblemSpec(kind="rand_spd", n=10, condition=20, seed=3), RATIONAL)
        trace = run_cg(P, direction_mode=direction)
        assert trace.r > 3
        for k in range(1, trace.r + 1):
            closed = min_norm_closed_form([rec.g_k for rec in trace.records[:k]])
            x = sum(w * rec.x_k for w, rec in zip(closed.weights.weights, trace.records))
            assert list(gradient(P, x)) == list(closed.ghat)


class TestShortestResiduals:
    def test_first_direction_is_steepest_descent(self):
        g0 = vector([-1, -2], RATIONAL)
        assert list(shortest_residuals_direction([g0])) == [1, 2]

    def test_worked_problem_second_direction(self):
        direction = shortest_residuals_direction(p1_history())
        assert list(direction) == [Fraction(8, 17), Fraction(-2, 17)]
        # positively proportional to the standard direction (40/81, -10/81)
        ratio = Fraction(40, 81) / Fraction(8, 17)
        assert ratio > 0
        assert Fraction(-10, 81) == ratio * Fraction(-2, 17)

    def test_constant_inner_product_with_history(self):
        history = p1_history()
        p = shortest_residuals_direction(history)
        values = {dot(p, g) for g in history}
        assert values == {-norm_sq(p)}


def history_of(P, **options):
    trace = run_cg(P, **options)
    return [rec.g_k for rec in trace.records[: trace.r]]


def combined(result, history):
    """sum alpha_i g_i with the result's affine weights."""
    return sum(w * g for w, g in zip(result.weights.weights, history))


class TestSweeps:
    """Row k-1 of each array sweep, which ``check_min_norm_relation`` reads, is
    the one-shot on ``gradients[:k]``: every prefix of one history, one pass."""

    @pytest.mark.parametrize("direction", DIRECTIONS)
    @pytest.mark.parametrize("scaling", ["cg_standard", "unit"])
    def test_exact_sweeps_equal_one_shot(self, direction, scaling):
        P = generate_problem(ProblemSpec(kind="rand_spd", n=10, condition=20, seed=3), RATIONAL)
        history = history_of(P, direction_mode=direction, scaling=DirectionScaling(scaling))
        (closed, _), (projected, _) = _closed_form_ghats(history), _projected_ghats(history)
        assert len(closed) == len(projected) == len(history) > 3
        for k in range(1, len(history) + 1):
            for row, want in (
                (closed[k - 1], min_norm_closed_form(history[:k], math.inf)),
                (projected[k - 1], projection_oracle(history[:k])),
            ):
                assert list(row) == list(want.ghat) == list(combined(want, history[:k]))

    def test_float_sweeps_agree_with_one_shot_on_laplacian180(self):
        P = generate_problem(ProblemSpec(kind="laplacian1d", n=180))
        history = history_of(P, tol=1e-7)
        (closed, _), (projected, _) = _closed_form_ghats(history), _projected_ghats(history)
        for k in range(1, len(history) + 1):
            for got, want in (
                (closed[k - 1], min_norm_closed_form(history[:k], math.inf)),
                (projected[k - 1], projection_oracle(history[:k])),
            ):
                scale = np.abs(want.ghat).max()
                assert np.abs(got - want.ghat).max() <= 1e-10 * scale
                assert np.abs(combined(want, history[:k]) - want.ghat).max() <= 1e-10 * scale

    @pytest.mark.parametrize("offset", [0.0, 1e-9])
    def test_float_dependent_gradient_falls_back_to_one_shot(self, offset):
        P = generate_problem(ProblemSpec(kind="laplacian1d", n=16))
        history = history_of(P, tol=1e-8)
        history[3] = history[2] + offset * history[1]
        projected, _ = _projected_ghats(history)
        for k in range(4, len(history) + 1):
            assert np.array_equal(projected[k - 1], projection_oracle(history[:k]).ghat)

    def test_zero_gradient_falls_back_to_one_shot(self):
        history = [vector([1, 2], F64), vector([0, 0], F64), vector([2, -1], F64)]
        projected, stop = _projected_ghats(history)
        assert stop == 1
        for k in (2, 3):
            want = projection_oracle(history[:k])
            assert np.array_equal(projected[k - 1], want.ghat)
            assert np.array_equal(combined(want, history[:k]), want.ghat)
            assert want.norm_sq == 0 == norm_sq(projected[k - 1])

    def test_exact_dependent_gradient_falls_back_to_one_shot(self):
        P = generate_problem(ProblemSpec(kind="laplacian1d", n=8), RATIONAL)
        history = history_of(P)
        history[3] = history[1] + history[2]
        projected, _ = _projected_ghats(history)
        for k in range(1, len(history) + 1):
            want = projection_oracle(history[:k])
            assert list(projected[k - 1]) == list(want.ghat) == list(combined(want, history[:k]))

    def test_empty_history_is_refused(self):
        # Only the one-shots refuse: the sweeps give an empty history no rows.
        for one_shot in (min_norm_closed_form, projection_oracle):
            with pytest.raises(LinalgError, match="empty"):
                one_shot([])

    @pytest.mark.parametrize("backend", [F64, RATIONAL], ids=["f64", "rational"])
    def test_empty_history_has_no_rows(self, backend):
        history = backend.empty((0, 4))
        (closed, inv), (projected, stop) = _closed_form_ghats(history), _projected_ghats(history)
        assert closed.shape == projected.shape == (0, 4) and len(inv) == stop == 0
        assert closed.dtype == projected.dtype == history.dtype

    @pytest.mark.parametrize("backend", [F64, RATIONAL], ids=["f64", "rational"])
    def test_zero_gradient_zeroes_the_closed_form_from_there_on(self, backend):
        # As the projection does past the hull; only the one-shot refuses it.
        history = [vector([1, 2], backend), vector([0, 0], backend), vector([2, -1], backend)]
        (closed, inv), (projected, stop) = _closed_form_ghats(history), _projected_ghats(history)
        assert len(inv) == stop == 1
        assert list(closed[0]) == list(projected[0]) == list(history[0])
        assert (closed[1:] == 0).all() and (projected[1:] == 0).all()
        with pytest.raises(LinalgError, match="^gradient 1 in the history is zero$"):
            min_norm_closed_form(history)
