"""Nine end-to-end behavioral guarantees, one test each.

Every test measures what it asserts (values, tolerances, budgets) and
reports through the scoreboard printed in the terminal summary.  The
exact expectations were derived by hand and cross-checked against
independent exact-arithmetic evaluations before being frozen here.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

import numpy as np

from cglens import (
    RATIONAL,
    DirectionScaling,
    characterization_residuals,
    dot,
    generate_problem,
    load_trace,
    min_norm_closed_form,
    norm_sq,
    projection_oracle,
    run_cg,
    run_full_suite,
    scaling_relation,
    vector,
    verify_against_trace,
)
from cglens.oracle import SpanBasis
from cglens.problems import ProblemSpec, SplitMix64
from cglens.mmio import load_problem
from cglens.cli import main

from conftest import batch_spec, criterion

HARD_CHECKS = (
    "gradient_orthogonality",
    "iterate_span_orthogonality",
    "direction_gradient_difference",
    "direction_gradient_constancy",
    "exact_linesearch",
    "gradient_update_identity",
    "conjugacy",
)
SOFT_CHECKS = ("subspace_optimality", "min_norm_relation")


def test_criterion_1_worked_problem_exact_trace(p1):
    with criterion(1, "worked 2x2 problem: every trace quantity exact, under 1 s"):
        t0 = time.perf_counter()
        trace = run_cg(p1)
        elapsed = time.perf_counter() - t0

        assert trace.r == 2
        assert trace.termination_reason == "gradient_zero"
        rec0, rec1, rec2 = trace.records
        assert rec0.theta_k == Fraction(5, 9)
        assert list(rec1.x_k) == [Fraction(5, 9), Fraction(10, 9)]
        assert list(rec1.g_k) == [Fraction(-4, 9), Fraction(2, 9)]
        assert rec1.beta_k == Fraction(4, 81)
        assert list(rec1.p_k) == [Fraction(40, 81), Fraction(-10, 81)]
        assert rec1.theta_k == Fraction(9, 10)
        assert list(rec2.x_k) == [1, 1]
        assert all(entry == 0 for entry in rec2.g_k)
        assert elapsed < 1.0


def test_criterion_2_orthogonality_and_termination():
    with criterion(2, "50 exact problems: pairwise orthogonality and r <= n, under 30 s"):
        t0 = time.perf_counter()
        for seed in range(50):
            P = generate_problem(batch_spec(seed), RATIONAL)
            trace = run_cg(P)
            assert trace.termination_reason == "gradient_zero"
            assert trace.r <= P.n
            gradients = trace.gradients()
            assert all(entry == 0 for entry in gradients[-1])
            for k in range(len(gradients)):
                for i in range(k):
                    assert dot(gradients[k], gradients[i]) == 0
        assert time.perf_counter() - t0 < 30.0


def test_criterion_3_three_characterizations_agree(exact_batch):
    with criterion(3, "recursive, gradient-sum, and subspace/min-norm views coincide exactly"):
        for P, trace in exact_batch.pairs:
            # (a) the gradient-sum direction rule reproduces the whole trace
            alt = run_cg(P, direction_mode="gradient_sum")
            assert alt.r == trace.r
            for rec, rec_alt in zip(trace.records, alt.records):
                assert list(rec.x_k) == list(rec_alt.x_k)
                assert list(rec.g_k) == list(rec_alt.g_k)
                if rec.p_k is None:
                    assert rec_alt.p_k is None
                else:
                    assert list(rec.p_k) == list(rec_alt.p_k)
                assert rec.theta_k == rec_alt.theta_k

            # (b) every iterate is the independent minimizer over the
            # expanding affine span of its gradient history
            assert all(d == 0 for d in verify_against_trace(P, trace))

            # (c) the direction is the min-norm gradient, rescaled; both
            # min-norm constructions agree exactly
            gradients = trace.gradients()
            for k in range(trace.r):
                history = gradients[: k + 1]
                closed = min_norm_closed_form(history)
                projected = projection_oracle(history)
                assert list(closed.ghat) == list(projected.ghat)
                assert closed.norm_sq == projected.norm_sq
                assert list(closed.weights.weights) == list(projected.weights.weights)
                assert scaling_relation(trace.records[k].p_k, gradients[k], closed) == 0


def test_criterion_4_derivation_conditions_exact(exact_batch):
    with criterion(4, "span, scaling-constancy, linesearch, and conjugacy conditions exact"):
        for P, trace in exact_batch.pairs:
            report = run_full_suite(P, trace=trace)
            assert report.overall
            for check in report.checks:
                assert check.measured == 0, (P.label, check.name, check.measured)


def test_criterion_5_min_norm_dominance(exact_batch):
    with criterion(5, "ghat beats 200 random affine combinations per step, exactly"):
        for P, trace in exact_batch.pairs:
            gradients = trace.gradients()
            seed_base = 1_000_003 * (P.n + 17)
            for k in range(trace.r):
                history = gradients[: k + 1]
                result = min_norm_closed_form(history)
                assert all(
                    residual == 0
                    for residual in characterization_residuals(result, history)
                )
                rng = SplitMix64(seed_base + k)
                for _ in range(200):
                    weights = [rng.int_between(-9, 9) for _ in history]
                    while sum(weights) == 0:
                        weights = [rng.int_between(-9, 9) for _ in history]
                    total = sum(weights)
                    combo = vector(
                        [Fraction(0)] * P.n, RATIONAL
                    )
                    combo = sum(
                        (Fraction(w, total) * g for w, g in zip(weights, history)),
                        combo,
                    )
                    assert norm_sq(combo) >= result.norm_sq


def test_criterion_6_float64_behavior_envelope():
    # Run tolerances put each instance inside the regime where float64
    # conjugate gradients still has meaningful pairwise orthogonality.
    # Driving the random instances much below 1e-2 relative gradient
    # reduction destroys orthogonality for any implementation of the
    # method (converged extremal Ritz values reintroduce old gradient
    # directions); demos/04_float_envelope.py maps that boundary.
    plan = [
        ("diag", 32, None, None, 1e-7),
        ("diag", 64, None, None, 1e-7),
        ("laplacian1d", 32, None, None, 1e-7),
        ("laplacian1d", 64, None, None, 1e-7),
        ("rand_spd", 20, 1e2, 0, 1e-2),
        ("rand_spd", 20, 1e4, 0, 1e-2),
    ]
    with criterion(6, "float64 residuals within 1e-8/1e-6 bounds, r <= n+5, under 60 s"):
        t0 = time.perf_counter()
        for kind, n, cond, seed, tol in plan:
            P = generate_problem(ProblemSpec(kind=kind, n=n, condition=cond, seed=seed))
            report = run_full_suite(P, tol=tol)
            measured = {c.name: c.measured for c in report.checks}
            for name in HARD_CHECKS:
                assert measured[name] <= 1e-8, (P.label, name, measured[name])
            for name in SOFT_CHECKS:
                assert measured[name] <= 1e-6, (P.label, name, measured[name])
            assert report.overall, P.label
            assert report.r <= n + 5
        assert time.perf_counter() - t0 < 60.0


def test_criterion_7_scaling_invariance(exact_batch):
    with criterion(7, "unit-scaled directions reproduce the standard iterates exactly"):
        unit = DirectionScaling(mode="unit")
        for P, trace in exact_batch.pairs:
            for mode in ("recursive", "gradient_sum"):
                rerun = run_cg(P, direction_mode=mode, scaling=unit)
                assert rerun.r == trace.r
                for rec, rec_unit in zip(trace.records, rerun.records):
                    assert list(rec.x_k) == list(rec_unit.x_k)


def test_criterion_8_shortest_residuals_equivalence(exact_batch):
    with criterion(8, "stepping along -ghat yields the identical iterate sequence"):
        for P, trace in exact_batch.pairs:
            rerun = run_cg(P, direction_mode="shortest_residuals")
            assert rerun.r == trace.r
            assert rerun.termination_reason == "gradient_zero"
            for rec, rec_sr in zip(trace.records, rerun.records):
                assert list(rec.x_k) == list(rec_sr.x_k)


def test_criterion_9_cli_end_to_end(tmp_path):
    with criterion(9, "generate -> solve -> verify round trip; bad input exits 2"):
        problem_path = tmp_path / "diag2.json"
        trace_path = tmp_path / "diag2.trace.json"
        report_path = tmp_path / "diag2.report.json"

        assert main([
            "generate", "--kind", "diag", "--n", "2",
            "--backend", "rational", "--out", str(problem_path),
        ]) == 0
        assert main([
            "solve", "--problem", str(problem_path),
            "--backend", "rational", "--trace", str(trace_path),
        ]) == 0
        assert main([
            "verify", "--problem", str(problem_path),
            "--backend", "rational", "--report", str(report_path),
        ]) == 0

        report = json.loads(report_path.read_text())
        assert report["overall"] is True
        assert report["backend"] == "rational"
        assert all(check["passed"] for check in report["checks"])

        # lossless round trips: problem and trace reload to identical values
        P = load_problem(problem_path, RATIONAL)
        assert [list(row) for row in P.H] == [[1, 0], [0, 2]]
        assert list(P.c) == [-1, -2]
        assert list(P.x0) == [0, 0]
        reloaded = load_trace(trace_path)
        direct = run_cg(P)
        assert reloaded.r == direct.r
        for rec_a, rec_b in zip(reloaded.records, direct.records):
            assert list(rec_a.x_k) == list(rec_b.x_k)
            assert list(rec_a.g_k) == list(rec_b.g_k)
            assert rec_a.theta_k == rec_b.theta_k

        # a matrix with a negative direction of curvature is refused
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps({
            "n": 2,
            "H": {"dense": [[1, 0], [0, -1]]},
            "c": [0, 0],
            "x0": [0, 0],
        }))
        assert main(["verify", "--problem", str(bad_path)]) == 2
