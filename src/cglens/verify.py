"""Every identity the derivation rests on, as named runtime checks.

Each check measures a worst-case residual over a completed trace and
compares it against a tolerance: zero under the rational backend (the
identities are theorems there, so any nonzero residual is a bug), small
and configurable under float64 (where departures are information, not
errors, and are reported rather than masked).

Residual conventions, applied uniformly: float64 residuals are
normalized (relative) Euclidean quantities; rational residuals are raw
exact values (max-abs over entries for vector residuals), which vanish
precisely when their float counterparts would.

The identities over index pairs (gradient orthogonality, the derivation
conditions and conjugacy) are triangles of one inner-product table, and
all of them are measured by one rule, ``linalg.pairwise_residual``: the
worst |a_k^T b_j - shift_k| over the triangle, raw under rationals and
divided by the two vectors' norms under float64 (energy norms
sqrt(p^T H p) for conjugacy), skipping a pair whose scale is zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .linalg import (
    BACKENDS,
    Backend,
    Scalar,
    dot,
    mat_vec,
    norm,
    pairwise_residual,
    residual_magnitude,
    scalar_token,
)
from .quadratic import QuadraticProblem
from .engine import CGTrace, DirectionScaling, run_cg
from .oracle import verify_against_trace
from .minnorm import closed_form_sweep, projection_sweep
# bench/tracer.py patches these one-shot names on this module.
from .minnorm import min_norm_closed_form, projection_oracle  # noqa: F401

CHECK_NAMES = (
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
)

DEFAULT_TOLERANCES = {
    "f64": {
        "gradient_orthogonality": 1e-8,
        "iterate_span_orthogonality": 1e-8,
        "direction_gradient_difference": 1e-8,
        "direction_gradient_constancy": 1e-8,
        "exact_linesearch": 1e-8,
        "gradient_update_identity": 1e-8,
        "subspace_optimality": 1e-6,
        "min_norm_relation": 1e-6,
        "conjugacy": 1e-8,
        "termination_bound": 0.0,
    },
    "rational": {name: Fraction(0) for name in CHECK_NAMES},
}

CHECK_STATEMENTS = {
    "gradient_orthogonality": "g_k^T g_i = 0 for all i < k",
    "iterate_span_orthogonality": "g_{k+1}^T (x_{i+1} - x_0) = 0 for all i <= k",
    "direction_gradient_difference": "p_k^T (g_{i+1} - g_0) = 0 for all i < k",
    "direction_gradient_constancy": "p_k^T g_i = c_k for all i <= k",
    "exact_linesearch": "p_k^T g_{k+1} = 0",
    "gradient_update_identity": "g_{k+1} = g_k + theta_k H p_k",
    "subspace_optimality": "x_k minimizes q over x_0 + span{g_0, ..., g_{k-1}}",
    "min_norm_relation": "p_k = (c_k / ghat_k^T ghat_k) ghat_k, ghat by two methods",
    "conjugacy": "p_i^T H p_j = 0 for all i != j",
    "termination_bound": "g_r = 0 with r <= n (exact); r <= n + 5 (float64)",
}


@dataclass(frozen=True, eq=False)
class CheckResult:
    """Outcome of one named check: worst residual against its tolerance."""

    name: str
    paper_anchor: str
    measured: Scalar
    tolerance: Scalar
    passed: bool


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """All check results for one trace, with their conjunction."""

    problem_id: str
    backend: str
    r: int
    n: int
    checks: tuple[CheckResult, ...]
    overall: bool


def report_to_dict(report: VerificationReport) -> dict:
    """The report as a JSON-ready dict; numerics serialized as strings.

    String serialization carries exact rationals losslessly and
    round-trips float64 bit-for-bit.
    """
    return {
        "problem_id": report.problem_id,
        "backend": report.backend,
        "r": report.r,
        "n": report.n,
        "checks": [
            {
                "name": c.name,
                "paper_anchor": c.paper_anchor,
                "measured": scalar_token(c.measured),
                "tolerance": scalar_token(c.tolerance),
                "passed": c.passed,
            }
            for c in report.checks
        ],
        "overall": report.overall,
    }


def _backend(trace: CGTrace) -> Backend:
    return BACKENDS[trace.scalar_backend]


def _tolerance(name: str, backend: Backend, tolerance) -> Scalar:
    if tolerance is not None:
        return tolerance
    return DEFAULT_TOLERANCES[backend.name][name]


def _result(name: str, measured: Scalar, tolerance: Scalar) -> CheckResult:
    return CheckResult(
        name=name,
        paper_anchor=CHECK_STATEMENTS[name],
        measured=measured,
        tolerance=tolerance,
        passed=bool(measured <= tolerance),
    )


def _worst(backend: Backend, contributions) -> Scalar:
    """Fold residual contributions into a worst-case scalar (0 if none).

    A ``None`` contribution (a float64 residual with no scale) is skipped.
    """
    worst = backend.zero
    for value in contributions:
        if value is not None and value > worst:
            worst = value
    return worst


def _step_records(trace: CGTrace):
    """Records that carry a completed step (direction and step length)."""
    return [rec for rec in trace.records if rec.theta_k is not None]


def _pre_terminal_gradients(trace: CGTrace):
    """Gradients that drove a step; the terminal gradient is excluded."""
    return [rec.g_k for rec in trace.records[:-1]]


def _measure(backend: Backend, raw: Scalar, scale) -> Scalar | None:
    """One residual as the checks report it.

    Exact: the raw value.  Float64: raw / scale(), or None (no
    contribution) when that scale is zero.  ``scale`` is called only
    under float64, so exact runs compute no norms.
    """
    if backend.exact:
        return raw
    denom = scale()
    if denom == 0:
        return None
    return float(raw) / denom


def _norms(vectors) -> list[float]:
    return [norm(v) for v in vectors]


def check_gradient_orthogonality(trace: CGTrace, tolerance=None) -> CheckResult:
    """Pairwise orthogonality of the gradients that generated steps."""
    backend = _backend(trace)
    tol = _tolerance("gradient_orthogonality", backend, tolerance)
    gs = _pre_terminal_gradients(trace)
    if backend.exact:
        gs = [rec.g_k for rec in trace.records]  # terminal zero rides along
    measured = pairwise_residual(
        backend, gs, gs, shift=None, diagonal=False, scales=lambda: (_norms(gs),) * 2
    )
    return _result("gradient_orthogonality", measured, tol)


def check_derivation_conditions(trace: CGTrace, tolerances=None) -> list[CheckResult]:
    """The three families of conditions the direction form is forced by.

    (a) each new gradient is orthogonal to every displacement
        x_{i+1} - x_0 already taken;
    (b) each direction is orthogonal to every gradient difference
        g_{i+1} - g_0 with i < k;
    (c) p_k^T g_i takes one common value c_k over i <= k.
    """
    backend = _backend(trace)
    tolerances = tolerances or {}
    records = trace.records
    steps = _step_records(trace)
    x0, g0 = records[0].x_k, records[0].g_k
    ps = [rec.p_k for rec in steps]

    def result(name, measured):
        return _result(name, measured, _tolerance(name, backend, tolerances.get(name)))

    # (a) g_{k+1}^T (x_{i+1} - x_0) = 0 for i <= k.  Under float64 the
    # terminal gradient is numerically zero noise whose *direction* is
    # meaningless, so only pre-terminal gradients are measured there.
    last = len(records) - 1 if backend.exact else len(records) - 2
    gs = [rec.g_k for rec in records[1 : last + 1]]
    moves = [rec.x_k - x0 for rec in records[1 : last + 1]]
    span = pairwise_residual(
        backend, gs, moves, shift=None, diagonal=True,
        scales=lambda: (_norms(gs), _norms(moves)),
    )

    # (b) p_k^T (g_{i+1} - g_0) = 0 for i < k.
    diffs = [rec.g_k - g0 for rec in records[1 : len(steps)]]
    diff = pairwise_residual(
        backend, ps, diffs, shift=None, diagonal=False,
        scales=lambda: (_norms(ps), _norms(diffs)),
    )

    # (c) p_k^T g_i = c_k for i <= k, with c_k as recorded by the run.
    history = [rec.g_k for rec in records[: len(steps)]]
    constancy = pairwise_residual(
        backend, ps, history, shift=[rec.c_k for rec in steps], diagonal=True,
        scales=lambda: (_norms(ps), _norms(history)),
    )
    return [
        result("iterate_span_orthogonality", span),
        result("direction_gradient_difference", diff),
        result("direction_gradient_constancy", constancy),
    ]


def check_exact_linesearch(trace: CGTrace, tolerance=None) -> CheckResult:
    """p_k^T g_{k+1} = 0, normalized by the pre-step gradient under float64.

    Normalizing by ||g_k|| rather than ||g_{k+1}|| keeps the final
    (numerically zero) gradient from trivializing the check.
    """
    backend = _backend(trace)
    tol = _tolerance("exact_linesearch", backend, tolerance)
    records = trace.records
    contributions = [
        _measure(
            backend,
            abs(dot(rec.p_k, records[k + 1].g_k)),
            lambda: norm(rec.p_k) * norm(rec.g_k),
        )
        for k, rec in enumerate(_step_records(trace))
    ]
    return _result("exact_linesearch", _worst(backend, contributions), tol)


def check_gradient_update_identity(
    P: QuadraticProblem, trace: CGTrace, tolerance=None
) -> CheckResult:
    """g_{k+1} = g_k + theta_k H p_k — the recursive update the solver never uses.

    The engine recomputes gradients from scratch, so this identity is a
    genuine consistency statement between consecutive records.
    """
    backend = _backend(trace)
    tol = _tolerance("gradient_update_identity", backend, tolerance)
    records = trace.records
    contributions = [
        _measure(
            backend,
            residual_magnitude(
                records[k + 1].g_k - rec.g_k - rec.theta_k * mat_vec(P.H, rec.p_k)
            ),
            lambda: norm(rec.g_k),
        )
        for k, rec in enumerate(_step_records(trace))
    ]
    return _result("gradient_update_identity", _worst(backend, contributions), tol)


def check_subspace_optimality(
    P: QuadraticProblem, trace: CGTrace, tolerance=None
) -> CheckResult:
    """Each iterate equals the independent minimizer over its gradient span."""
    backend = _backend(trace)
    tol = _tolerance("subspace_optimality", backend, tolerance)
    contributions = [
        _measure(backend, dev, lambda: max(1.0, norm(rec.x_k)))
        for rec, dev in zip(trace.records[1:], verify_against_trace(P, trace))
    ]
    return _result("subspace_optimality", _worst(backend, contributions), tol)


def check_min_norm_relation(
    P: QuadraticProblem, trace: CGTrace, tolerance=None
) -> CheckResult:
    """p_k against the min-norm point of its gradient history, both methods.

    For every k < r: ghat_k is computed by the closed form (with its
    orthogonality gate disabled — a degraded history should *fail* here,
    not error out) and by the projection oracle; the check measures their
    mutual deviation and the deviation of p_k from
    (c_k / ghat^T ghat) ghat with the recorded scale c_k, which is
    -(g_k^T g_k / ghat^T ghat) ghat under the standard scaling.  Float64
    residuals are normalized by ||ghat|| and ||p_k||.  A zero ghat (only a
    non-orthogonal history has one) leaves c_k / ghat^T ghat unbounded and
    is measured as an infinite residual.
    """
    backend = _backend(trace)
    tol = _tolerance("min_norm_relation", backend, tolerance)
    steps = _step_records(trace)
    history = [rec.g_k for rec in trace.records[: len(steps)]]
    contributions = []
    for rec, closed, projected in zip(steps, closed_form_sweep(history), projection_sweep(history)):
        if closed.norm_sq == 0:
            # c_k / ghat^T ghat is unbounded: no multiple of ghat is p_k.
            contributions.append(math.inf)
            continue
        agreement = residual_magnitude(closed.ghat - projected.ghat)
        deviation = residual_magnitude(rec.p_k - (rec.c_k / closed.norm_sq) * closed.ghat)
        contributions.append(
            _measure(backend, agreement, lambda: max(math.sqrt(float(closed.norm_sq)), 1e-300))
        )
        contributions.append(_measure(backend, deviation, lambda: max(norm(rec.p_k), 1e-300)))
    return _result("min_norm_relation", _worst(backend, contributions), tol)


def check_conjugacy(P: QuadraticProblem, trace: CGTrace, tolerance=None) -> CheckResult:
    """p_i^T H p_j = 0 for i != j — a consequence here, not an assumption."""
    backend = _backend(trace)
    tol = _tolerance("conjugacy", backend, tolerance)
    ps = [rec.p_k for rec in _step_records(trace)]
    hps = [mat_vec(P.H, p) for p in ps]

    def energy_norms():
        norms = [math.sqrt(float(dot(p, hp))) for p, hp in zip(ps, hps)]
        return norms, norms

    measured = pairwise_residual(
        backend, hps, ps, shift=None, diagonal=False, scales=energy_norms
    )
    return _result("conjugacy", measured, tol)


def check_termination_bound(
    P: QuadraticProblem, trace: CGTrace, tolerance=None
) -> CheckResult:
    """Finite termination: a zero gradient within n steps (n + 5 under float64).

    measured counts the excess over the bound, plus 1 if the run ended
    without the gradient converging at all (max_iter or breakdown).
    """
    backend = _backend(trace)
    tol = _tolerance("termination_bound", backend, tolerance)
    bound = P.n if backend.exact else P.n + 5
    excess = max(0, trace.r - bound)
    converged = trace.termination_reason in ("gradient_zero", "tolerance_met")
    measured = excess + (0 if converged else 1)
    measured = Fraction(measured) if backend.exact else float(measured)
    return _result("termination_bound", measured, tol)


def run_full_suite(
    P: QuadraticProblem,
    tol: float = 1e-10,
    max_iter: int | None = None,
    direction_mode: str = "recursive",
    scaling: DirectionScaling | None = None,
    tolerances: dict | None = None,
    problem_id: str | None = None,
    trace: CGTrace | None = None,
) -> VerificationReport:
    """Solve (or accept a saved trace) and run every check.

    Solver breakdown surfaces as a failed termination check inside the
    report, never as an exception.
    """
    if trace is None:
        trace = run_cg(
            P,
            tol=tol,
            max_iter=max_iter,
            direction_mode=direction_mode,
            scaling=scaling,
            problem_id=problem_id,
        )
    tolerances = dict(tolerances or {})

    def t(name):
        return tolerances.get(name)

    checks = [check_gradient_orthogonality(trace, t("gradient_orthogonality"))]
    checks.extend(check_derivation_conditions(trace, tolerances))
    checks.append(check_exact_linesearch(trace, t("exact_linesearch")))
    checks.append(check_gradient_update_identity(P, trace, t("gradient_update_identity")))
    checks.append(check_subspace_optimality(P, trace, t("subspace_optimality")))
    checks.append(check_min_norm_relation(P, trace, t("min_norm_relation")))
    checks.append(check_conjugacy(P, trace, t("conjugacy")))
    checks.append(check_termination_bound(P, trace, t("termination_bound")))
    return VerificationReport(
        problem_id=trace.problem_id,
        backend=trace.scalar_backend,
        r=trace.r,
        n=P.n,
        checks=tuple(checks),
        overall=all(c.passed for c in checks),
    )
