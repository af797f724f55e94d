"""The check suite: exact zeros on rationals, honest residuals on floats."""

from __future__ import annotations

import importlib
import importlib.util
import json
import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import cglens.minnorm
import cglens.oracle

from cglens import (
    F64,
    RATIONAL,
    DirectionScaling,
    ProblemSpec,
    check_gradient_orthogonality,
    dot,
    generate_problem,
    norm_sq,
    run_cg,
    run_full_suite,
    vector,
)
from cglens import cli
from cglens.linalg import BACKENDS, mat_vec, sym_matrix
from cglens.quadratic import QuadraticProblem
from cglens.verify import (
    DEFAULT_TOLERANCES,
    check_conjugacy,
    check_derivation_conditions,
    check_exact_linesearch,
    check_min_norm_relation,
    report_to_dict,
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


# The per-pair loops the pairwise checks ran before they shared
# ``linalg.pairwise_residual``, kept as the reference for it.
def _ref_measure(backend, raw, scale):
    if backend.exact:
        return raw
    denom = scale()
    if denom == 0:
        return None
    return float(raw) / denom


def _ref_worst(backend, contributions):
    worst = backend.zero
    for value in contributions:
        if value is not None and value > worst:
            worst = value
    return worst


def _ref_norm(v):
    return math.sqrt(float(norm_sq(v)))


def _ref_relative_dot(backend, a, b):
    return _ref_measure(backend, abs(dot(a, b)), lambda: _ref_norm(a) * _ref_norm(b))


def reference_pairwise(P, trace):
    """The five pairwise measurements, one pair at a time."""
    backend = BACKENDS[trace.scalar_backend]
    records = trace.records
    steps = [rec for rec in records if rec.theta_k is not None]
    x0 = records[0].x_k
    gs = [rec.g_k for rec in (records if backend.exact else records[:-1])]
    orth = [_ref_relative_dot(backend, gs[k], gs[i]) for k in range(len(gs)) for i in range(k)]
    last = len(records) - 1 if backend.exact else len(records) - 2
    span = [
        _ref_relative_dot(backend, records[kp1].g_k, records[ip1].x_k - x0)
        for kp1 in range(1, last + 1)
        for ip1 in range(1, kp1 + 1)
    ]
    diff = [
        _ref_relative_dot(backend, rec.p_k, records[ip1].g_k - records[0].g_k)
        for k, rec in enumerate(steps)
        for ip1 in range(1, k + 1)
    ]
    constancy = [
        _ref_measure(
            backend,
            abs(dot(rec.p_k, records[i].g_k) - rec.c_k),
            lambda: _ref_norm(rec.p_k) * _ref_norm(records[i].g_k),
        )
        for k, rec in enumerate(steps)
        for i in range(k + 1)
    ]
    ps = [rec.p_k for rec in steps]
    hps = [mat_vec(P.H, p) for p in ps]
    conjugacy = [
        _ref_measure(
            backend,
            abs(dot(ps[i], hps[j])),
            lambda: math.sqrt(float(dot(ps[i], hps[i]))) * math.sqrt(float(dot(ps[j], hps[j]))),
        )
        for j in range(len(ps))
        for i in range(j)
    ]
    return {
        name: _ref_worst(backend, values)
        for name, values in [
            ("gradient_orthogonality", orth),
            ("iterate_span_orthogonality", span),
            ("direction_gradient_difference", diff),
            ("direction_gradient_constancy", constancy),
            ("conjugacy", conjugacy),
        ]
    }


def pairwise_measured(P, trace):
    checks = [check_gradient_orthogonality(trace), *check_derivation_conditions(trace)]
    checks.append(check_conjugacy(P, trace))
    return {c.name: c.measured for c in checks}


def assert_close_to_reference(P, trace):
    measured, reference = pairwise_measured(P, trace), reference_pairwise(P, trace)
    assert measured.keys() == reference.keys()
    for name, ref in reference.items():
        value = measured[name]
        assert type(value) is float
        assert abs(value - ref) <= max(1e-3 * abs(ref), 1e-15), (name, value, ref)


def diag_problem(entries, backend, x0=None):
    n = len(entries)
    H = sym_matrix([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)], backend)
    c = vector([-e for e in entries], backend)
    return QuadraticProblem(H=H, c=c, x0=x0 if x0 is not None else vector([0] * n, backend))


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestPairwiseRuleMatchesPerPairLoops:
    @pytest.mark.parametrize("direction", ["recursive", "gradient_sum", "shortest_residuals"])
    @pytest.mark.parametrize("scaling", ["cg_standard", "unit"])
    def test_exact_values_identical(self, direction, scaling):
        P = generate_problem(ProblemSpec(kind="rand_spd", n=10, condition=20, seed=3), RATIONAL)
        trace = run_cg(P, direction_mode=direction, scaling=DirectionScaling(scaling))
        doctored = with_record(trace, 2, g_k=trace.records[2].g_k + trace.records[0].g_k / 3)
        for t in (trace, doctored):
            measured, reference = pairwise_measured(P, t), reference_pairwise(P, t)
            assert measured == reference
            assert all(type(v) is Fraction for v in measured.values())
        assert any(v != 0 for v in pairwise_measured(P, doctored).values())

    @pytest.mark.parametrize(
        "spec, tol",
        [
            (ProblemSpec(kind="laplacian1d", n=180), 1e-7),
            (ProblemSpec(kind="rand_spd", n=200, condition=1e4, seed=7), 1e-2),
        ],
    )
    def test_float_values_agree(self, spec, tol):
        P = generate_problem(spec)
        assert_close_to_reference(P, run_cg(P, tol=tol))

    @pytest.mark.parametrize("backend", [F64, RATIONAL])
    def test_r0_and_r1(self, backend):
        P = diag_problem([2, 2], backend)
        one_step = run_cg(P)
        assert one_step.r == 1
        at_minimizer = run_cg(diag_problem([2, 2], backend, x0=vector([1, 1], backend)))
        assert at_minimizer.r == 0
        for trace in (one_step, at_minimizer):
            measured = pairwise_measured(P, trace)
            assert measured == reference_pairwise(P, trace)
            assert measured == dict.fromkeys(measured, backend.zero)

    def test_zero_gradient_scale_is_skipped(self):
        P = generate_problem(ProblemSpec(kind="laplacian1d", n=12))
        trace = run_cg(P, tol=1e-10)
        doctored = with_record(trace, 2, g_k=0 * trace.records[2].g_k)
        assert_close_to_reference(P, doctored)
        measured = pairwise_measured(P, doctored)
        assert measured["direction_gradient_difference"] > 1e-3  # the doctoring shows
        assert all(math.isfinite(v) for v in measured.values())


class TestNaNNeverPasses:
    def test_nan_gradient_entry_fails_the_checks_it_enters(self):
        P = generate_problem(ProblemSpec(kind="laplacian1d", n=12))
        trace = run_cg(P, tol=1e-10)
        g2 = trace.records[2].g_k.copy()
        g2[5] = math.nan
        doctored = with_record(trace, 2, g_k=g2)
        checks = [
            check_gradient_orthogonality(doctored),
            *check_derivation_conditions(doctored),
            check_exact_linesearch(doctored),
        ]
        assert len(checks) == 5
        for check in checks:
            assert math.isnan(check.measured) and not check.passed, check.name

    def test_nan_gradient_entry_fails_the_oracle_checks_in_the_full_suite(self):
        P = generate_problem(ProblemSpec(kind="laplacian1d", n=12))
        trace = run_cg(P, tol=1e-10)
        g2 = trace.records[2].g_k.copy()
        g2[5] = math.nan
        report = run_full_suite(P, trace=with_record(trace, 2, g_k=g2))
        checks = {check.name: check for check in report.checks}
        for name in ("subspace_optimality", "min_norm_relation"):
            measured = checks[name].measured
            assert (math.isnan(measured) or math.isinf(measured)) and not checks[name].passed
        assert not report.overall


class TestRankLosingHistory:
    """rand_spd n = 60, cond 1e6, tol 1e-12, 180 steps: the float64 gradients
    lose orthogonality and then rank (60 of the 180 are kept)."""

    ARGV = ["verify", "--kind", "rand_spd", "--n", "60", "--cond", "1e6", "--seed", "0",
            "--tol", "1e-12", "--max-iter", "180"]

    def test_each_sweep_orthogonalizes_and_factors_once(self, monkeypatch):
        calls = []

        def counted(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            return wrapper

        for module in (cglens.oracle, cglens.minnorm):
            monkeypatch.setattr(module, "_orthogonalized",
                                counted(module.__name__, module._orthogonalized))
        monkeypatch.setattr(cglens.oracle, "leading_solves",
                            counted("leading_solves", cglens.oracle.leading_solves))
        P = generate_problem(ProblemSpec(kind="rand_spd", n=60, condition=1e6, seed=0))
        trace = run_cg(P, tol=1e-12, max_iter=180)
        assert trace.r == 180
        report = run_full_suite(P, trace=trace)
        assert sorted(calls) == ["cglens.minnorm", "cglens.oracle", "leading_solves"]
        checks = {check.name: check for check in report.checks}
        for name in ("subspace_optimality", "min_norm_relation"):
            assert math.isfinite(checks[name].measured) and not checks[name].passed

    def test_cli_exits_one_with_every_check_reported(self, capsys):
        assert cli.main(self.ARGV) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[1] for line in lines[:-1]] == EXPECTED_CHECKS
        assert lines[-1].startswith("overall: FAIL")


class TestTracerNames:
    def test_every_patched_name_resolves(self):
        # The benchmark's tracer replaces these module globals while it runs.
        path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("bench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        assert len(tracer.PATCHES) > 20
        missing = [(module, attr) for module, attr, _ in tracer.PATCHES
                   if not hasattr(importlib.import_module(module), attr)]
        assert missing == []
