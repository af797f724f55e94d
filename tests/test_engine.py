"""The iteration engine: directions, step lengths, traces, termination."""

from __future__ import annotations

import dataclasses
import json
import re
from fractions import Fraction

import numpy as np
import pytest

from cglens import (
    F64,
    RATIONAL,
    DirectionScaling,
    LinalgError,
    ProblemSpec,
    exact_minimizer,
    generate_problem,
    load_trace,
    run_cg,
    run_full_suite,
    vector,
)
from cglens.linalg import DimensionMismatch, _fractions, _rows, _Rows, norm_sq, sym_matrix
from cglens.mmio import save_trace
from cglens.quadratic import QuadraticProblem, evaluate
from cglens.engine import (
    BreakdownError,
    CGTrace,
    SCALING_MODES,
    IterateRecord,
    step_length,
)


def make_p1():
    return QuadraticProblem(
        H=sym_matrix([[1, 0], [0, 2]], RATIONAL),
        c=vector([-1, -2], RATIONAL),
        x0=vector([0, 0], RATIONAL),
        label="p1",
    )


class TestDirections:
    def test_recursive_on_worked_problem(self):
        # p_1 = -g_1 + (g_1^T g_1 / g_0^T g_0) p_0 with g_1 = (-4/9, 2/9), p_0 = (1, 2)
        p0, p1 = (rec.p_k for rec in run_cg(make_p1()).records[:2])
        assert list(p0) == [1, 2]
        assert list(p1) == [Fraction(40, 81), Fraction(-10, 81)]

    def test_recursive_ratio_one(self):
        # Unit scaling makes c_k / c_{k-1} = 1: p_1 = -g_1 / (g_1^T g_1) + p_0.
        trace = run_cg(make_p1(), scaling=DirectionScaling(mode="unit"))
        p0, p1 = (rec.p_k for rec in trace.records[:2])
        assert list(p0) == [Fraction(1, 5), Fraction(2, 5)]
        assert list(p1) == [2, Fraction(-1, 2)]

    def test_gradient_sum_first_step_is_steepest_descent(self):
        trace = run_cg(make_p1(), direction_mode="gradient_sum")
        assert list(trace.records[0].p_k) == [1, 2]

    def test_gradient_sum_matches_recursive(self):
        # p_1 = -(g_1^T g_1) (g_0 / g_0^T g_0 + g_1 / g_1^T g_1), g_1 = (-4/9, 2/9)
        trace = run_cg(make_p1(), direction_mode="gradient_sum")
        assert list(trace.records[1].p_k) == [Fraction(40, 81), Fraction(-10, 81)]

    def test_gradient_sum_unit_scaling(self):
        # p_1 = -(g_0 / 5 + g_1 / (20/81)) = -((-1/5, -2/5) + (-9/5, 9/10))
        trace = run_cg(make_p1(), direction_mode="gradient_sum",
                       scaling=DirectionScaling(mode="unit"))
        p0, p1 = (rec.p_k for rec in trace.records[:2])
        assert list(p0) == [Fraction(1, 5), Fraction(2, 5)]
        assert list(p1) == [2, Fraction(-1, 2)]

    def test_gradient_sum_reads_each_gradient_norm_once(self, monkeypatch):
        # The history forms keep running sums: one g^T g per iterate, where
        # re-reading the history made r(r+1)/2 + 2r + 1 calls (43 here).
        import cglens.engine

        calls = []

        def counting(v):
            calls.append(1)
            return norm_sq(v)

        P = generate_problem(ProblemSpec(kind="rand_spd", n=14, condition=11, seed=7), RATIONAL)
        monkeypatch.setattr(cglens.engine, "norm_sq", counting)
        trace = run_cg(P, direction_mode="gradient_sum")
        assert trace.termination_reason == "gradient_zero"
        assert len(calls) == trace.r + 1

    def test_shortest_residuals_does_not_use_the_min_norm_module(self, monkeypatch):
        import cglens.minnorm

        P = generate_problem(ProblemSpec(kind="rand_spd", n=8, condition=8, seed=3), RATIONAL)
        expected = run_cg(P, direction_mode="shortest_residuals")

        def refuse(*args, **kwargs):
            raise AssertionError("run_cg called the min-norm module")

        monkeypatch.setattr(cglens.minnorm, "min_norm_closed_form", refuse)
        monkeypatch.setattr(cglens.minnorm, "_closed_form_ghats", refuse)
        monkeypatch.setattr(cglens.minnorm, "_projected_ghats", refuse)
        trace = run_cg(P, direction_mode="shortest_residuals")
        assert trace.termination_reason == "gradient_zero"
        assert trace.r == expected.r
        for a, b in zip(trace.records, expected.records):
            assert list(a.x_k) == list(b.x_k) and list(a.g_k) == list(b.g_k)
            assert (a.p_k is None) == (b.p_k is None)
            if a.p_k is not None:
                assert list(a.p_k) == list(b.p_k)
                assert (a.theta_k, a.c_k, a.beta_k) == (b.theta_k, b.c_k, b.beta_k)


class TestScaling:
    def test_unknown_mode_rejected(self):
        with pytest.raises(LinalgError):
            DirectionScaling(mode="harmonic")

    def test_custom_requires_value(self):
        with pytest.raises(LinalgError):
            DirectionScaling(mode="custom")

    def test_custom_zero_rejected(self):
        scaling = DirectionScaling(mode="custom", custom_value=0)
        with pytest.raises(LinalgError):
            scaling.value_for(0, Fraction(5), RATIONAL)

    def test_custom_sign_normalized(self):
        scaling = DirectionScaling(mode="custom", custom_value="7/3")
        assert scaling.value_for(0, Fraction(5), RATIONAL) == Fraction(-7, 3)

    def test_custom_callable(self):
        scaling = DirectionScaling(mode="custom", custom_value=lambda k: k + 1)
        assert scaling.value_for(2, Fraction(5), RATIONAL) == -3

    def test_standard_is_negative_gradient_norm(self):
        assert DirectionScaling().value_for(0, Fraction(5), RATIONAL) == -5


class TestStepLength:
    def test_identity_hessian_reaches_minimizer_in_one_step(self):
        P = QuadraticProblem(
            H=sym_matrix([[1, 0], [0, 1]], RATIONAL),
            c=vector([-3, 4], RATIONAL),
            x0=vector([0, 0], RATIONAL),
        )
        g0 = vector([-3, 4], RATIONAL)
        assert step_length(P, g0, -g0) == 1

    def test_worked_problem_steps(self):
        P = make_p1()
        assert step_length(
            P, vector([-1, -2], RATIONAL), vector([1, 2], RATIONAL)
        ) == Fraction(5, 9)
        assert step_length(
            P,
            vector(["-4/9", "2/9"], RATIONAL),
            vector(["40/81", "-10/81"], RATIONAL),
        ) == Fraction(9, 10)

    def test_zero_direction_breaks_down(self):
        P = make_p1()
        with pytest.raises(BreakdownError):
            step_length(P, vector([1, 1], RATIONAL), vector([0, 0], RATIONAL))


class TestRunCG:
    def test_worked_problem_full_trace(self):
        trace = run_cg(make_p1())
        assert trace.r == 2
        assert trace.termination_reason == "gradient_zero"
        assert trace.scalar_backend == "rational"
        rec0, rec1, rec2 = trace.records
        assert rec0.grad_norm_sq == 5
        assert rec0.c_k == -5
        assert rec1.grad_norm_sq == Fraction(20, 81)
        assert rec1.c_k == Fraction(-20, 81)
        assert rec2.theta_k is None and rec2.p_k is None
        assert rec2.grad_norm_sq == 0

    def test_start_at_minimizer(self):
        P = make_p1()
        P0 = QuadraticProblem(H=P.H, c=P.c, x0=exact_minimizer(P))
        trace = run_cg(P0)
        assert trace.r == 0
        assert trace.termination_reason == "gradient_zero"
        assert [rec.p_k for rec in trace.records] == [None]

    def test_exact_termination_within_dimension(self):
        P = generate_problem(ProblemSpec(kind="diag", n=5), RATIONAL)
        trace = run_cg(P)
        assert trace.termination_reason == "gradient_zero"
        assert trace.r <= 5
        assert all(entry == 0 for entry in trace.records[-1].g_k)

    def test_max_iter_cutoff(self):
        P = generate_problem(ProblemSpec(kind="diag", n=32))
        trace = run_cg(P, max_iter=3)
        assert trace.r == 3
        assert trace.termination_reason == "max_iter"

    def test_monotone_descent_and_nonzero_steps(self):
        P = generate_problem(ProblemSpec(kind="laplacian1d", n=16))
        trace = run_cg(P, tol=1e-8)
        values = [evaluate(P, rec.x_k) for rec in trace.records]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert all(rec.theta_k != 0 for rec in trace.records[:-1])

    def test_custom_scaling_preserves_iterates(self):
        P = generate_problem(ProblemSpec(kind="laplacian1d", n=5), RATIONAL)
        base = run_cg(P)
        scaled = run_cg(
            P,
            direction_mode="gradient_sum",
            scaling=DirectionScaling(mode="custom", custom_value="7/3"),
        )
        assert scaled.r == base.r
        for rec, rec_scaled in zip(base.records, scaled.records):
            assert list(rec.x_k) == list(rec_scaled.x_k)

    def test_unknown_direction_mode_rejected(self):
        with pytest.raises(LinalgError):
            run_cg(make_p1(), direction_mode="steepest")

    def test_negative_max_iter_rejected(self):
        with pytest.raises(LinalgError, match="max_iter must be nonnegative"):
            run_cg(make_p1(), max_iter=-1)

    def test_zero_tol_is_valid(self):
        # The boundary of 0 <= tol < inf: float64 runs until g is exactly zero.
        P = generate_problem(ProblemSpec(kind="diag", n=4))
        assert run_cg(P, tol=0.0).termination_reason == "gradient_zero"

    def test_float_backend_tolerance_stop(self):
        P = generate_problem(ProblemSpec(kind="diag", n=8))
        trace = run_cg(P, tol=1e-6)
        assert trace.termination_reason == "tolerance_met"
        final = trace.records[-1]
        assert float(final.grad_norm_sq) ** 0.5 <= 1e-6 * max(
            float(trace.records[0].grad_norm_sq) ** 0.5, 1.0
        )


def _reference_cg(P, direction_mode, scaling, max_iter=None):
    """run_cg's recurrences on elementwise ``Fraction`` arrays, as (x, g, p, theta,
    beta, c, g^T g) per record: the engine's exact arithmetic, written out plainly."""
    H, c, x = P.H, P.c, P.x0
    g = H.dot(x) + c
    gns, records = g.dot(g), []
    total, weight, p_prev, c_prev, gns_prev = 0 * x, Fraction(0), None, None, None
    for k in range(P.n + 1):
        beta = None if k == 0 else gns / gns_prev
        p = theta = c_k = None
        if gns != 0 and k != (P.n if max_iter is None else max_iter):
            c_k = scaling.value_for(k, gns, RATIONAL)
            if direction_mode == "recursive":
                p = (c_k / gns) * g + (0 if p_prev is None else (c_k / c_prev) * p_prev)
            else:
                total, weight = total + g / gns, weight + 1 / gns
                p = c_k * total if direction_mode == "gradient_sum" else -total / weight
                c_k = -p.dot(p) if direction_mode == "shortest_residuals" else c_k
            curvature = p.dot(H.dot(p))
            theta = -g.dot(p) / curvature if curvature > 0 else None
        records.append((list(x), list(g), p if p is None else list(p), theta, beta, c_k, gns))
        if theta is None:
            return records
        x = x + theta * p
        g = H.dot(x) + c
        gns_prev, gns, p_prev, c_prev = gns, g.dot(g), p, c_k


class _ZeroFromStepOne(DirectionScaling):
    """c_k = 0 from k = 1 on: the recursive and gradient-sum directions vanish there."""

    def value_for(self, k, grad_norm_sq, backend):
        return backend.zero if k else super().value_for(k, grad_norm_sq, backend)


class TestReferenceRecurrences:
    """Rational run_cg against the elementwise-Fraction recurrences, record by record."""

    PROBLEMS = {
        "rand_spd n 7": ProblemSpec(kind="rand_spd", n=7, condition=9, seed=4),
        "laplacian1d n 6": ProblemSpec(kind="laplacian1d", n=6),
    }
    SCALINGS = {
        "cg_standard": DirectionScaling(),
        "unit": DirectionScaling("unit"),
        "custom callable": DirectionScaling("custom", custom_value=lambda k: Fraction(2 * k - 3, 5)),
    }

    @staticmethod
    def _assert_same(trace, expected):
        got = [(list(rec.x_k), list(rec.g_k), None if rec.p_k is None else list(rec.p_k),
                rec.theta_k, rec.beta_k, rec.c_k, rec.grad_norm_sq) for rec in trace.records]
        assert got == expected
        for rec in trace.records:
            vectors = [v for v in (rec.x_k, rec.g_k, rec.p_k) if v is not None]
            assert all(not v.flags.writeable and v.dtype == object for v in vectors)
            scalars = [v for v in (rec.theta_k, rec.beta_k, rec.c_k, rec.grad_norm_sq) if v is not None]
            assert all(type(e) is Fraction for v in vectors for e in v) and all(
                type(v) is Fraction for v in scalars)

    @pytest.mark.parametrize("problem", list(PROBLEMS))
    @pytest.mark.parametrize("scaling", list(SCALINGS))
    @pytest.mark.parametrize("direction", ["recursive", "gradient_sum", "shortest_residuals"])
    @pytest.mark.parametrize("max_iter", [None, 2])
    def test_records_equal_the_reference(self, problem, scaling, direction, max_iter):
        P = generate_problem(self.PROBLEMS[problem], RATIONAL)
        trace = run_cg(P, direction_mode=direction, scaling=self.SCALINGS[scaling], max_iter=max_iter)
        assert trace.termination_reason == ("gradient_zero" if max_iter is None else "max_iter")
        self._assert_same(trace, _reference_cg(P, direction, self.SCALINGS[scaling], max_iter))

    @pytest.mark.parametrize("direction", ["recursive", "gradient_sum"])
    def test_zero_direction_breaks_down_as_the_reference(self, direction):
        P = generate_problem(self.PROBLEMS["rand_spd n 7"], RATIONAL)
        trace = run_cg(P, direction_mode=direction, scaling=_ZeroFromStepOne())
        assert (trace.r, trace.termination_reason) == (1, "breakdown")
        assert list(trace.records[1].p_k) == [0] * 7 and trace.records[1].theta_k is None
        self._assert_same(trace, _reference_cg(P, direction, _ZeroFromStepOne()))


class TestTraceContainer:
    def test_records_must_be_consecutive(self):
        g = vector([1, 1], F64)
        rec0 = IterateRecord(0, g, g, 2.0)
        rec2 = IterateRecord(2, g, g, 2.0)
        with pytest.raises(LinalgError):
            CGTrace(
                problem_id="x",
                scalar_backend="f64",
                records=(rec0, rec2),
                termination_index=2,
                termination_reason="max_iter",
            )

    def test_termination_index_must_match(self):
        g = vector([1, 1], F64)
        rec0 = IterateRecord(0, g, g, 2.0)
        with pytest.raises(LinalgError):
            CGTrace(
                problem_id="x",
                scalar_backend="f64",
                records=(rec0,),
                termination_index=3,
                termination_reason="max_iter",
            )

    def test_unknown_reason_rejected(self):
        g = vector([1, 1], F64)
        rec0 = IterateRecord(0, g, g, 2.0)
        with pytest.raises(LinalgError):
            CGTrace(
                problem_id="x",
                scalar_backend="f64",
                records=(rec0,),
                termination_index=0,
                termination_reason="gave_up",
            )

    @pytest.mark.parametrize("field, value, refusal", [
        ("direction_mode", "bogus", "unknown direction mode 'bogus'"),
        ("direction_mode", None, "unknown direction mode None"),
        ("scaling_mode", "5", "unknown scaling mode '5'"),
    ])
    def test_unknown_mode_rejected(self, field, value, refusal):
        # As an unknown termination reason is: the mode names of run_cg and
        # DirectionScaling are the only ones a trace can carry.
        _, trace = self._lap8()
        with pytest.raises(LinalgError, match=re.escape(refusal)):
            dataclasses.replace(trace, **{field: value})

    def test_every_scaling_mode_is_a_trace_mode(self):
        P, _ = self._lap8()
        for mode in SCALING_MODES:
            scaling = DirectionScaling(mode, custom_value=2 if mode == "custom" else None)
            assert run_cg(P, direction_mode="gradient_sum", scaling=scaling).scaling_mode == mode

    @staticmethod
    def _lap8(backend=RATIONAL):
        P = generate_problem(ProblemSpec(kind="laplacian1d", n=8), backend)
        return P, run_cg(P, tol=1e-12)

    @staticmethod
    def _with(trace, k, **fields):
        records = list(trace.records)
        records[k] = dataclasses.replace(records[k], **fields)
        return dataclasses.replace(trace, records=tuple(records))

    @pytest.mark.parametrize("field", ["x_k", "g_k"])
    def test_every_record_needs_x_and_g(self, field):
        _, trace = self._lap8()
        for k in (0, 1, trace.r):
            with pytest.raises(LinalgError, match=f"record {k} needs x_k and g_k"):
                self._with(trace, k, **{field: None})

    @pytest.mark.parametrize("field", ["p_k", "theta_k", "c_k"])
    def test_every_step_needs_p_theta_and_c(self, field):
        _, trace = self._lap8()
        for k in (0, 1, trace.r - 1):
            with pytest.raises(LinalgError, match=f"record {k} needs p_k, theta_k and c_k"):
                self._with(trace, k, **{field: None})

    @pytest.mark.parametrize("field", ["x_k", "g_k", "p_k"])
    def test_vectors_of_another_length_are_refused(self, field):
        # Refused where the trace is built: a check that takes no problem,
        # such as gradient orthogonality, would otherwise meet ragged stacks.
        P = generate_problem(ProblemSpec(kind="diag", n=3), RATIONAL)
        trace = run_cg(P)
        short = getattr(trace.records[1], field)[:2]
        with pytest.raises(DimensionMismatch, match="^record 1 has a vector whose length is not x_0's$"):
            self._with(trace, 1, **{field: short})
        with pytest.raises(DimensionMismatch, match="^record 0 has a vector"):
            self._with(trace, 0, g_k=np.append(trace.records[0].g_k, Fraction(0)))

    def test_loaded_vector_of_another_length_is_refused_with_its_path(self, tmp_path):
        P = generate_problem(ProblemSpec(kind="diag", n=3), RATIONAL)
        path = tmp_path / "T.json"
        save_trace(run_cg(P), path)
        doc = json.loads(path.read_text())
        doc["records"][1]["x"] = doc["records"][1]["x"][:2]
        path.write_text(json.dumps(doc))
        refusal = f"^{re.escape(str(path))}: record 1 has a vector whose length is not x_0's$"
        with pytest.raises(DimensionMismatch, match=refusal):
            load_trace(path)

    @pytest.mark.parametrize("backend", [F64, RATIONAL], ids=["f64", "rational"])
    @pytest.mark.parametrize("max_iter", [0, None])
    def test_arrays_stack_every_record_vector(self, backend, max_iter):
        P = generate_problem(ProblemSpec(kind="laplacian1d", n=8), backend)
        trace = run_cg(P, max_iter=max_iter)
        assert (trace.r == 0) == (max_iter == 0)
        steps = trace.records[: trace.r]
        expected = ([rec.x_k for rec in trace.records], trace.gradients(), [rec.p_k for rec in steps])
        for stack, vectors in zip(trace._stacks, expected):
            # A float64 stack is a frozen array, and an exact one frozen integer rows
            # (_Rows), as are the rows each recorded vector keeps.
            assert isinstance(stack, _Rows) == backend.exact
            array = _fractions(stack)
            assert array.shape == (len(vectors), 8) and array.dtype == P.x0.dtype
            frozen = [stack.A, stack.s, *(_rows(v).A for v in vectors)] if backend.exact else [stack]
            assert not any(a.flags.writeable for a in frozen)
            assert [list(row) for row in array] == [list(v) for v in vectors]
        assert trace._stacks is trace._stacks  # formed once

    def test_final_record_has_no_step_length(self):
        _, trace = self._lap8()
        first = trace.records[0]
        with pytest.raises(LinalgError, match=f"final record {trace.r} has a step length"):
            self._with(trace, trace.r, p_k=first.p_k, theta_k=first.theta_k, c_k=first.c_k)

    SHAPES = {
        "last record steps": lambda doc: doc["records"][-1].update(
            {key: doc["records"][0][key] for key in ("p", "theta", "c")}),
        "x null": lambda doc: doc["records"][1].update(x=None),
        "c null": lambda doc: doc["records"][1].update(c=None),
        "theta null": lambda doc: doc["records"][1].update(theta=None),
    }

    @pytest.mark.parametrize("backend", [F64, RATIONAL], ids=["f64", "rational"])
    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_loaded_shape_that_run_cg_never_writes_is_refused(self, tmp_path, shape, backend):
        P, trace = self._lap8(backend)
        path = tmp_path / "T.json"
        save_trace(trace, path)
        doc = json.loads(path.read_text())
        self.SHAPES[shape](doc)
        path.write_text(json.dumps(doc))
        refusal = f"^{re.escape(str(path))}: .*(needs|has a step length)"
        with pytest.raises(LinalgError, match=refusal):
            run_full_suite(P, trace=load_trace(path))
