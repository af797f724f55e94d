"""The check suite: exact zeros on rationals, honest residuals on floats."""

from __future__ import annotations

import ast
import collections
import importlib
import importlib.util
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cglens
import cglens.linalg
import cglens.minnorm
import cglens.oracle
import cglens.quadratic
import cglens.verify

from cglens import (
    F64,
    RATIONAL,
    DirectionScaling,
    LinalgError,
    ProblemSpec,
    check_gradient_orthogonality,
    dot,
    generate_problem,
    load_trace,
    norm_sq,
    run_cg,
    run_full_suite,
    vector,
)
from cglens import cli
from cglens.linalg import BACKENDS, DimensionMismatch, mat_vec, pairwise_residual, sym_matrix
from cglens.mmio import save_trace
from cglens.quadratic import QuadraticProblem
from cglens.verify import (
    DEFAULT_TOLERANCES,
    check_conjugacy,
    check_derivation_conditions,
    check_exact_linesearch,
    check_gradient_update_identity,
    check_min_norm_relation,
    check_subspace_optimality,
    check_termination_bound,
    report_to_dict,
)
from cglens.engine import F64_EXTRA_STEPS, _step_budget
from cglens.linalg import _product
from cglens.minnorm import _closed_form_ghats, _projected_ghats, min_norm_closed_form
from cglens.oracle import trace_oracle
from cglens.quadratic import _times_H

from conftest import with_record

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


class TestStepBudget:
    """``run_cg``'s default step count and the termination bound are one rule."""

    @pytest.mark.parametrize("backend", [F64, RATIONAL])
    def test_bound_is_the_default_step_count(self, backend):
        trace = run_cg(generate_problem(ProblemSpec(kind="diag", n=4), backend))
        for n in range(1, 12):
            P = generate_problem(ProblemSpec(kind="diag", n=n), backend)
            assert _step_budget(P) == n + (0 if backend.exact else F64_EXTRA_STEPS)
            measured = check_termination_bound(P, trace).measured
            assert measured == max(0, trace.r - _step_budget(P)) and type(measured) is type(backend.one)

    def test_float_run_stops_at_the_bound(self):
        # tol = 0 is met only by an exactly zero float gradient, which this
        # run never reaches: it takes the whole default budget, which the
        # termination check accepts as a step count and fails as unconverged.
        P = generate_problem(ProblemSpec(kind="rand_spd", n=6, condition=1e4, seed=0), F64)
        trace = run_cg(P, tol=0.0)
        assert (trace.r, trace.termination_reason) == (_step_budget(P), "max_iter")
        assert check_termination_bound(P, trace).measured == 1.0


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


class TestNoStepTaken:
    """At r = 0 every identity holds over an empty set: each check measures its
    rows by the same rules as at any r, finds none, and reports backend.zero."""

    @pytest.mark.parametrize("backend", [F64, RATIONAL])
    @pytest.mark.parametrize("mode", ["recursive", "gradient_sum", "shortest_residuals"])
    @pytest.mark.parametrize("scaling", ["cg_standard", "unit"])
    @pytest.mark.parametrize("start", ["minimizer", "max_iter_0"])
    def test_every_check_measures_zero(self, backend, mode, scaling, start):
        P = generate_problem(ProblemSpec(kind="diag", n=3), backend)
        if start == "minimizer":
            P = QuadraticProblem(H=P.H, c=P.c, x0=vector([1, 1, 1], backend))
        trace = run_cg(P, max_iter=0 if start == "max_iter_0" else None,
                       direction_mode=mode, scaling=DirectionScaling(scaling))
        assert trace.r == 0
        report = run_full_suite(P, trace=trace)
        # The run that stopped at max_iter 0 did not converge: that alone fails.
        unconverged = start == "max_iter_0"
        for check in report.checks:
            expected = backend.one if unconverged and check.name == "termination_bound" \
                else backend.zero
            assert check.measured == expected and type(check.measured) is type(expected)
        assert [c.name for c in report.checks if not c.passed] == (
            ["termination_bound"] if unconverged else [])


class TestZeroGradientInHistory:
    """No trace carries a zero gradient inside its history: no beta follows a zero
    norm, so ``CGTrace`` refuses the record after it, in memory as from a file.
    The closed form refuses such a history given as a list."""

    @pytest.mark.parametrize("backend", [F64, RATIONAL], ids=["f64", "rational"])
    def test_the_record_after_a_zero_gradient_is_refused(self, backend):
        P = generate_problem(ProblemSpec(kind="diag", n=3), backend)
        trace = run_cg(P)
        zero = backend.empty(3)
        zero.flags.writeable = False
        with pytest.raises(LinalgError, match="^beta of record 2 is not its grad_norm_sq ratio$"):
            with_record(trace, 1, g_k=zero)
        with pytest.raises(LinalgError, match="^gradient 1 in the history is zero$"):
            min_norm_closed_form([trace.records[0].g_k, zero, trace.records[2].g_k])


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

    def test_zero_gradient_difference_scale_is_skipped(self):
        # g_2 = g_0 makes the scale ||g_2 - g_0|| of conditions (b) zero.  A zero
        # gradient would do so too, but no trace can carry one in its history.
        P = generate_problem(ProblemSpec(kind="laplacian1d", n=12))
        trace = run_cg(P, tol=1e-10)
        doctored = with_record(trace, 2, g_k=trace.records[0].g_k)
        assert_close_to_reference(P, doctored)
        measured = pairwise_measured(P, doctored)
        assert measured["gradient_orthogonality"] > 1e-3  # the doctoring shows
        assert all(math.isfinite(v) for v in measured.values())


def reference_table_residual(backend, a, b, shift, diagonal, row, col):
    """``pairwise_residual`` one pair at a time, with ``_ref_measure``; a NaN
    contribution makes the worst NaN."""
    values = []
    for k, a_k in enumerate(a):
        for j in range(min(len(b), k + diagonal)):
            raw = abs(dot(a_k, b[j]) - (shift[k] if shift is not None else 0))
            value = _ref_measure(backend, raw, lambda: row[k] * col[j])
            if value is not None:
                values.append(value)
    if any(v != v for v in values):
        return math.nan
    return _ref_worst(backend, values)


small_ints = st.integers(min_value=-4, max_value=4)


class TestPairwiseTable:
    """The whole-table rule against the per-pair loop, on integer data whose
    inner products and shifts are exact in float64, so both agree to the bit."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_table_matches_per_pair_reference(self, data):
        backend = data.draw(st.sampled_from([F64, RATIONAL]))
        n = data.draw(st.integers(min_value=1, max_value=4))
        draw_vectors = st.lists(st.lists(small_ints, min_size=n, max_size=n), max_size=6)
        a = [vector(v, backend) for v in data.draw(draw_vectors)]
        b = [vector(v, backend) for v in data.draw(draw_vectors)]
        shift = data.draw(st.none() | st.lists(small_ints, min_size=len(a), max_size=len(a)))
        if shift is not None:
            shift = [backend.scalar(x) for x in shift]
        diagonal = data.draw(st.booleans())
        scale = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0])  # 0: the pair contributes nothing
        row = data.draw(st.lists(scale, min_size=len(a), max_size=len(a)))
        col = data.draw(st.lists(scale, min_size=len(b), max_size=len(b)))
        if not backend.exact and a and data.draw(st.booleans()):
            k, i = data.draw(st.integers(0, len(a) - 1)), data.draw(st.integers(0, n - 1))
            a[k] = a[k].copy()
            a[k][i] = math.nan
        measured = pairwise_residual(backend, a, b, shift=shift, diagonal=diagonal,
                                     scales=lambda: (row, col))
        expected = reference_table_residual(backend, a, b, shift, diagonal, row, col)
        if backend.exact:
            assert type(measured) is Fraction and measured == expected
        elif math.isnan(expected):
            assert math.isnan(measured)
        else:
            assert type(measured) is float and measured == expected

    def test_nan_entry_beats_every_finite_one(self):
        # Python's max(0.0, nan) is 0.0; the table rule must not drop the NaN.
        a = [np.array([1.0, 0.0]), np.array([math.nan, 5.0])]
        b = [np.array([3.0, 1.0])]
        measured = pairwise_residual(F64, a, b, shift=None, diagonal=False,
                                     scales=lambda: ([1.0, 1.0], [1.0]))
        assert math.isnan(measured)
        unscaled = pairwise_residual(F64, a, b, shift=None, diagonal=False,
                                     scales=lambda: ([1.0, 0.0], [1.0]))
        assert unscaled == 0.0


class TestNaNNeverPasses:
    """A NaN entry of g_k makes g_k^T g_k NaN, which no recorded grad_norm_sq
    matches: ``CGTrace`` refuses the trace before any check reads it."""

    @pytest.mark.parametrize("stale", [True, False], ids=["recorded-norm", "nan-norm"])
    def test_nan_gradient_entry_is_refused_at_construction(self, stale):
        P = generate_problem(ProblemSpec(kind="laplacian1d", n=12))
        trace = run_cg(P, tol=1e-10)
        g2 = trace.records[2].g_k.copy()
        g2[5] = math.nan
        # The norm run_cg recorded, or the NaN norm with the betas it gives.
        changes = {"grad_norm_sq": trace.records[2].grad_norm_sq} if stale else {}
        with pytest.raises(LinalgError, match=r"^grad_norm_sq of record 2 is not g\^T g$"):
            with_record(trace, 2, g_k=g2, **changes)


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

        # The suite orthogonalizes the history once and hands the basis to
        # both sweeps, which orthogonalize only when called alone.
        for module in (cglens.verify, cglens.oracle, cglens.minnorm):
            monkeypatch.setattr(module, "_orthogonalized",
                                counted(module.__name__, module._orthogonalized))
        monkeypatch.setattr(cglens.oracle, "_leading_rows",
                            counted("_leading_rows", cglens.oracle._leading_rows))
        P = generate_problem(ProblemSpec(kind="rand_spd", n=60, condition=1e6, seed=0))
        trace = run_cg(P, tol=1e-12, max_iter=180)
        assert trace.r == 180
        report = run_full_suite(P, trace=trace)
        assert sorted(calls) == ["_leading_rows", "cglens.verify"]
        checks = {check.name: check for check in report.checks}
        for name in ("subspace_optimality", "min_norm_relation"):
            assert math.isfinite(checks[name].measured) and not checks[name].passed

    def test_cli_exits_one_with_every_check_reported(self, capsys):
        assert cli.main(self.ARGV) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[1] for line in lines[:-1]] == EXPECTED_CHECKS
        assert lines[-1].startswith("overall: FAIL")


ROOT = Path(__file__).resolve().parent.parent


def tracer_patches() -> tuple:
    """``bench/tracer.py``'s PATCHES: the module globals the benchmark's tracer
    replaces while it runs."""
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.PATCHES


class TestTracerNames:
    def test_every_patched_name_resolves(self):
        patches = tracer_patches()
        assert len(patches) > 20
        missing = [(module, attr) for module, attr, _ in patches
                   if not hasattr(importlib.import_module(module), attr)]
        assert missing == []


class TestNoDeadNames:
    """Every name imported into a ``cglens`` module is used there, exported by the
    package, or replaced there by the tracer; every module-level private name is
    referenced outside its own definition."""

    MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted((ROOT / "src" / "cglens").glob("*.py"))}

    @staticmethod
    def reads(node) -> list:
        """The names a subtree reads."""
        return [n.id for n in ast.walk(node)
                if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)]

    def test_every_imported_name_is_used(self):
        patched = {(module, attr) for module, attr, _ in tracer_patches()}
        dead = []
        for module, tree in self.MODULES.items():
            used = set(self.reads(tree))
            if module == "__init__":
                used |= set(cglens.__all__)
            bound = [alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
                     if isinstance(node, (ast.Import, ast.ImportFrom))
                     and getattr(node, "module", None) != "__future__" for alias in node.names]
            dead += [f"{module}.{name}" for name in bound
                     if name not in used and (f"cglens.{module}", name) not in patched]
        assert dead == []

    @staticmethod
    def defines(stmt) -> list:
        """The names a module's top-level statement defines."""
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            return [stmt.name]
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
        return [n.id for t in targets if t for n in ast.walk(t) if isinstance(n, ast.Name)]

    def test_every_private_name_is_referenced(self):
        imported = {(node.module, alias.name) for tree in self.MODULES.values()
                    for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level
                    for alias in node.names}
        dead = []
        for module, tree in self.MODULES.items():
            reads = collections.Counter(self.reads(tree))
            dead += [f"{module}.{name}" for stmt in tree.body for name in self.defines(stmt)
                     if name.startswith("_") and not name.startswith("__")
                     and (module, name) not in imported and reads[name] == self.reads(stmt).count(name)]
        assert dead == []


class TestTraceMustFitTheProblem:
    """``run_full_suite(P, trace=load_trace(path))`` rejects a trace of
    another dimension or backend before any check runs."""

    @pytest.mark.parametrize("backend", [F64, RATIONAL])
    def test_trace_of_another_dimension(self, tmp_path, backend):
        small = generate_problem(ProblemSpec(kind="laplacian1d", n=4), backend)
        P = generate_problem(ProblemSpec(kind="laplacian1d", n=5), backend)
        save_trace(run_cg(small), tmp_path / "T.json")
        with pytest.raises(DimensionMismatch, match="trace dimension does not match problem"):
            run_full_suite(P, trace=load_trace(tmp_path / "T.json"))

    @pytest.mark.parametrize("backend", [F64, RATIONAL])
    def test_trace_of_another_backend(self, tmp_path, backend):
        other = RATIONAL if backend is F64 else F64
        P = generate_problem(ProblemSpec(kind="laplacian1d", n=4), backend)
        save_trace(run_cg(generate_problem(ProblemSpec(kind="laplacian1d", n=4), other)),
                   tmp_path / "T.json")
        with pytest.raises(LinalgError, match="does not match problem backend"):
            run_full_suite(P, trace=load_trace(tmp_path / "T.json"))


# The whole-table formulas the exact checks used before they moved to integer
# triangles, kept as the reference for them: ``_product`` of the stacked rows,
# then the triangle's max |.|, and whole Fraction rows for the other checks.
def _ref_triangle(table, diagonal, shift=None):
    if shift is not None:
        table = table - np.array(shift, dtype=object)[:, None]
    triangle = np.tri(*table.shape, int(diagonal) - 1, dtype=bool)
    return max([Fraction(0), *np.abs(table)[triangle]])


def _ref_rows(rows):
    return max([Fraction(0), *(np.abs(row).max() for row in rows)])


def whole_table_reference(P, trace):
    records = trace.records
    steps = [rec for rec in records if rec.theta_k is not None]
    s = len(steps)
    G, X = np.asarray([rec.g_k for rec in records]), np.asarray([rec.x_k for rec in records])
    ps = np.asarray([rec.p_k for rec in steps])
    hps = _times_H(P, ps.T).T
    thetas = np.array([rec.theta_k for rec in steps], dtype=object)
    closed, _ = _closed_form_ghats(list(G[:s]))
    projected, _ = _projected_ghats(list(G[:s]))
    min_norm = [
        math.inf if dot(c, c) == 0
        else max(np.abs(c - q).max(), np.abs(ps[k] - (steps[k].c_k / dot(c, c)) * c).max())
        for k, (c, q) in enumerate(zip(closed, projected))
    ]
    reference = {
        "gradient_orthogonality": _ref_triangle(_product(G, G.T), False),
        "iterate_span_orthogonality": _ref_triangle(_product(G[1:], (X[1:] - X[0]).T), True),
        "direction_gradient_difference": _ref_triangle(_product(ps, (G[1:s] - G[0]).T), False),
        "direction_gradient_constancy": _ref_triangle(
            _product(ps, G[:s].T), True, [rec.c_k for rec in steps]),
        "exact_linesearch": max([Fraction(0)] + [abs(dot(p, g)) for p, g in zip(ps, G[1:])]),
        "gradient_update_identity": _ref_rows(G[1 : s + 1] - G[:s] - thetas[:, None] * hps),
        "min_norm_relation": max([Fraction(0), *min_norm]),
        "conjugacy": _ref_triangle(_product(hps, ps.T), False),
    }
    try:
        reference["subspace_optimality"] = _ref_rows(
            X[1:] - np.array([sol.point for sol in trace_oracle(P, trace)]))
    except LinalgError:
        reference["subspace_optimality"] = LinalgError
    return reference


def measured_alone(P, trace):
    checks = [check_gradient_orthogonality(trace), *check_derivation_conditions(trace),
              check_exact_linesearch(trace), check_gradient_update_identity(P, trace),
              check_min_norm_relation(P, trace), check_conjugacy(P, trace)]
    measured = {c.name: c.measured for c in checks}
    try:
        measured["subspace_optimality"] = check_subspace_optimality(P, trace).measured
    except LinalgError:
        measured["subspace_optimality"] = LinalgError
    return measured


def single_entry_corruptions(trace):
    """(field, k, entry, how) over several k: each vector field at its first and
    last entry, and theta_k and c_k, scaled by 1 + 2^-30 (2^-30 where 0) or
    moved by 1/3."""
    r, n = trace.r, len(trace.records[0].x_k)
    ks = {"x_k": {0, 1, r // 2, r - 1, r}, "g_k": {0, 1, r // 2, r - 1, r},
          "p_k": {0, 1, r - 1}, "theta_k": {0, 1, r - 1}, "c_k": {0, 1, r - 1}}
    for field, at in ks.items():
        for k in sorted(at):
            for entry in ((0, n - 1) if field in ("x_k", "g_k", "p_k") else (None,)):
                for how in ("relative", "third"):
                    yield field, k, entry, how


def corrupted(trace, field, k, entry, how):
    def moved(x):
        if how == "third":
            return x + Fraction(1, 3)
        return x * (1 + Fraction(1, 2**30)) if x != 0 else Fraction(1, 2**30)

    old = getattr(trace.records[k], field)
    if entry is None:
        return with_record(trace, k, **{field: moved(old)})
    new = old.copy()
    new[entry] = moved(old[entry])
    new.flags.writeable = False
    return with_record(trace, k, **{field: new})


class TestExactResidualsMatchWholeTables:
    """On single-entry corruptions of exact traces, every check's measured value,
    shared tables or alone, is the Fraction of the whole-table formulas."""

    @pytest.mark.parametrize("direction", ["recursive", "gradient_sum", "shortest_residuals"])
    def test_corrupted_traces(self, direction):
        P = generate_problem(ProblemSpec(kind="rand_spd", n=7, condition=12, seed=1), RATIONAL)
        trace = run_cg(P, direction_mode=direction)
        assert trace.r == 6
        cases = nonzero = 0
        for corruption in single_entry_corruptions(trace):
            bad = corrupted(trace, *corruption)
            reference = whole_table_reference(P, bad)
            assert measured_alone(P, bad) == reference, corruption
            try:
                report = run_full_suite(P, trace=bad)
            except LinalgError:
                assert reference["subspace_optimality"] is LinalgError, corruption
            else:
                suite = {c.name: c.measured for c in report.checks[:-1]}
                assert suite == reference, corruption
                assert all(type(v) is Fraction or v == math.inf for v in suite.values())
            cases += 1
            nonzero += sum(v is not LinalgError and v != 0 for v in reference.values())
        assert cases == 64 and nonzero > 100


def _count_integerizations(monkeypatch) -> list:
    """Record the argument of each ``_integer_rows`` call, the one way an exact
    array becomes integer rows."""
    calls = []
    original = cglens.linalg._integer_rows

    def counted(rows):
        calls.append(rows)
        return original(rows)

    for module in (cglens.linalg, cglens.quadratic):
        monkeypatch.setattr(module, "_integer_rows", counted, raising=False)
    return calls


def _integerizations_of(calls, trace) -> dict:
    """For each of G, X and P: how many calls read one of its vectors (the array
    itself) or the whole stack of them (by value)."""
    stacks = {"G": trace.gradients(), "X": [rec.x_k for rec in trace.records],
              "P": [rec.p_k for rec in trace.records[:-1]]}
    counts = {}
    for name, vectors in stacks.items():
        whole = np.asarray(vectors)
        counts[name] = sum(any(c is v for v in vectors)
                           or (c.shape == whole.shape and (c == whole).all()) for c in calls)
    return counts


class TestSharedTables:
    """An exact suite reads the rows that a trace's vectors were recorded or
    loaded with, and each check called alone builds what it needs."""

    def test_suite_integerizes_no_recorded_vector(self, monkeypatch):
        P = generate_problem(ProblemSpec(kind="rand_spd", n=10, condition=20, seed=3), RATIONAL)
        trace = run_cg(P)
        calls = _count_integerizations(monkeypatch)
        assert run_full_suite(P, trace=trace).overall
        assert _integerizations_of(calls, trace) == {"G": 0, "X": 0, "P": 0}

    def test_a_loaded_vector_is_integerized_once(self, monkeypatch, tmp_path):
        P = generate_problem(ProblemSpec(kind="rand_spd", n=10, condition=20, seed=3), RATIONAL)
        save_trace(run_cg(P), tmp_path / "T.json")
        calls = _count_integerizations(monkeypatch)
        trace = load_trace(tmp_path / "T.json")
        vectors = [v for rec in trace.records for v in (rec.x_k, rec.g_k, rec.p_k) if v is not None]
        assert [sum(c is v for c in calls) for v in vectors] == [1] * len(vectors)
        calls.clear()
        assert run_full_suite(P, trace=trace).overall
        assert _integerizations_of(calls, trace) == {"G": 0, "X": 0, "P": 0}

    @pytest.mark.parametrize("field", ["x_k", "g_k", "p_k"])
    def test_a_replaced_vector_is_measured_as_itself(self, field, tmp_path):
        # The rows that run_cg kept for the replaced vector must not stand in for
        # the new one: the suite in memory measures what the file round trip does.
        P = generate_problem(ProblemSpec(kind="rand_spd", n=8, condition=10, seed=1), RATIONAL)
        trace = run_cg(P)
        old = getattr(trace.records[2], field)
        new = vector([*old[:-1], old[-1] + Fraction(1, 3)], RATIONAL)
        bad = with_record(trace, 2, **{field: new})  # a new g_k with its norm and betas
        save_trace(bad, tmp_path / "T.json")
        in_memory = {c.name: c.measured for c in run_full_suite(P, trace=bad).checks}
        round_trip = {c.name: c.measured for c in run_full_suite(P, trace=load_trace(tmp_path / "T.json")).checks}
        assert in_memory == round_trip
        assert any(v != 0 for v in in_memory.values())

    def test_checks_alone_match_the_suite(self):
        P = generate_problem(ProblemSpec(kind="rand_spd", n=8, condition=10, seed=1), RATIONAL)
        trace = run_cg(P)
        doctored = with_record(trace, 2, g_k=trace.records[2].g_k + trace.records[0].g_k / 3)
        for t in (run_cg(P, max_iter=0), trace, doctored):
            suite = {c.name: c.measured for c in run_full_suite(P, trace=t).checks[:-1]}
            assert measured_alone(P, t) == suite
        assert any(v != 0 for v in suite.values())
