"""The check suite: exact zeros on rationals, honest residuals on floats."""

from __future__ import annotations

import json
from dataclasses import replace
from fractions import Fraction

import pytest

from cglens import (
    DEFAULT_TOLERANCES,
    RATIONAL,
    DirectionScaling,
    ProblemSpec,
    QuadraticProblem,
    check_min_norm_relation,
    generate_problem,
    report_to_dict,
    run_cg,
    run_full_suite,
    sym_matrix,
    vector,
)

EXPECTED_CHECKS = [
    "gradient_orthogonality",
    "iterate_span_orthogonality",
    "direction_gradient_difference",
    "direction_gradient_constancy",
    "exact_linesearch",
    "gradient_update_identity",
    "subspace_optimality",
    "min_norm_relation",
    "conjugacy",
    "termination_bound",
]


def make_p1():
    return QuadraticProblem(
        H=sym_matrix([[1, 0], [0, 2]], RATIONAL),
        c=vector([-1, -2], RATIONAL),
        x0=vector([0, 0], RATIONAL),
        label="p1",
    )


class TestDefaults:
    def test_tolerance_table_covers_every_check(self):
        for backend in ("f64", "rational"):
            assert sorted(DEFAULT_TOLERANCES[backend]) == sorted(EXPECTED_CHECKS)

    def test_rational_tolerances_are_exact_zero(self):
        assert all(t == 0 for t in DEFAULT_TOLERANCES["rational"].values())


class TestExactSuite:
    def test_worked_problem_all_zero(self):
        report = run_full_suite(make_p1())
        assert report.overall
        assert report.r == 2 and report.n == 2
        assert [c.name for c in report.checks] == EXPECTED_CHECKS
        for check in report.checks:
            assert check.measured == 0
            assert check.tolerance == 0
            assert check.passed

    def test_accepts_prebuilt_trace(self):
        P = make_p1()
        trace = run_cg(P)
        report = run_full_suite(P, trace=trace)
        assert report.overall
        assert report.problem_id == trace.problem_id

    def test_degenerate_start_passes(self):
        P = generate_problem(ProblemSpec(kind="diag", n=3), RATIONAL)
        x_star = vector([1, 1, 1], RATIONAL)
        report = run_full_suite(
            QuadraticProblem(H=P.H, c=P.c, x0=x_star)
        )
        assert report.overall
        assert report.r == 0


def with_record(trace, k, **changes):
    """The trace with fields of record k replaced."""
    records = list(trace.records)
    records[k] = replace(records[k], **changes)
    return replace(trace, records=tuple(records))


class TestMinNormRelation:
    @pytest.mark.parametrize("direction", ["recursive", "gradient_sum", "shortest_residuals"])
    @pytest.mark.parametrize("scaling", ["cg_standard", "unit"])
    def test_exact_zero_for_every_direction_and_scaling(self, direction, scaling):
        P = generate_problem(ProblemSpec(kind="laplacian1d", n=8), RATIONAL)
        report = run_full_suite(
            P, direction_mode=direction, scaling=DirectionScaling(scaling)
        )
        assert {c.name: c.measured for c in report.checks} == {
            name: 0 for name in EXPECTED_CHECKS
        }

    def test_doubled_direction_with_recorded_scale_fails(self):
        P = generate_problem(ProblemSpec(kind="laplacian1d", n=8), RATIONAL)
        trace = run_cg(P)
        doubled = with_record(trace, 1, p_k=2 * trace.records[1].p_k)
        assert check_min_norm_relation(P, trace).passed
        assert not check_min_norm_relation(P, doubled).passed

    def test_non_orthogonal_history_fails_instead_of_raising(self):
        P = generate_problem(ProblemSpec(kind="laplacian1d", n=6), RATIONAL)
        trace = run_cg(P)
        g0, g1 = trace.records[0].g_k, trace.records[1].g_k
        doctored = with_record(trace, 1, g_k=g1 + g0 / 2)
        report = run_full_suite(P, trace=doctored)
        by_name = {c.name: c for c in report.checks}
        assert not by_name["gradient_orthogonality"].passed
        assert not by_name["min_norm_relation"].passed
        assert not report.overall


    def test_zero_ghat_fails_instead_of_raising(self):
        # g_1 = -g_0 puts the origin in the middle of the first hull:
        # ghat_1 = 0, so c_1 / ghat^T ghat has no finite value.
        P = generate_problem(ProblemSpec(kind="laplacian1d", n=6), RATIONAL)
        trace = run_cg(P)
        doctored = with_record(trace, 1, g_k=-trace.records[0].g_k)
        report = run_full_suite(P, trace=doctored)
        check = {c.name: c for c in report.checks}["min_norm_relation"]
        assert not check.passed
        assert check.measured > check.tolerance
        assert not report.overall


class TestFloatSuite:
    def test_structured_problem_passes_defaults(self):
        P = generate_problem(ProblemSpec(kind="laplacian1d", n=32))
        report = run_full_suite(P, tol=1e-8)
        assert report.overall
        assert report.r <= 32 + 5

    def test_tolerance_override_fails_a_check(self):
        P = generate_problem(ProblemSpec(kind="diag", n=16))
        report = run_full_suite(P, tol=1e-8, tolerances={"gradient_orthogonality": 0.0})
        by_name = {c.name: c for c in report.checks}
        assert not by_name["gradient_orthogonality"].passed
        assert not report.overall
        assert by_name["exact_linesearch"].passed

    def test_max_iter_cutoff_fails_termination_bound(self):
        P = generate_problem(ProblemSpec(kind="diag", n=32))
        report = run_full_suite(P, max_iter=3)
        by_name = {c.name: c for c in report.checks}
        assert not by_name["termination_bound"].passed
        assert by_name["termination_bound"].measured >= 1
        assert not report.overall

    def test_orthogonality_loss_reported_honestly(self):
        # pushing a float64 run deep past the point where late gradients
        # are rounding noise must FAIL the orthogonality check, not mask it
        P = generate_problem(ProblemSpec(kind="diag", n=32))
        report = run_full_suite(P, tol=1e-10)
        by_name = {c.name: c for c in report.checks}
        assert not by_name["gradient_orthogonality"].passed
        assert float(by_name["gradient_orthogonality"].measured) > 1e-8


class TestReportSerialization:
    def test_dict_schema_and_string_numerics(self):
        report = run_full_suite(make_p1())
        payload = report_to_dict(report)
        assert set(payload) == {"problem_id", "backend", "r", "n", "checks", "overall"}
        assert payload["backend"] == "rational"
        assert payload["overall"] is True
        for check in payload["checks"]:
            assert set(check) == {"name", "paper_anchor", "measured", "tolerance", "passed"}
            assert isinstance(check["measured"], str)
            assert isinstance(check["tolerance"], str)
            assert check["paper_anchor"]
        json.dumps(payload)

    def test_exact_values_serialize_losslessly(self):
        report = run_full_suite(make_p1())
        payload = report_to_dict(report)
        for check in payload["checks"]:
            assert Fraction(check["measured"]) == 0
