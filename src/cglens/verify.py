"""Every identity the derivation rests on, as named runtime checks.

Each check measures a worst-case residual over a completed trace, and one
rule, ``_result``, compares it against the caller's tolerance or else the
check's default: zero under the rational backend (the identities are
theorems there, so any nonzero residual is a bug), small and configurable
under float64 (departures there are information, reported, not masked).

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

The identities over single rows take one formula on both backends as well,
from the row rules of ``linalg`` on the trace's stacks (``_Tables``, shared by
the checks as ``_tables``): the linesearch is ``_row_dots`` of P and G, and the
update identity, p_k = (c_k / ghat^T ghat) ghat_k and the agreements of x_k with
the subspace oracle and of the two ghat are ``_row_residuals``.  Under rationals
every residual of a passing trace is literally zero, and a zero is proved on the
integer rows that the trace's vectors were recorded with: a pairwise check forms
its triangle's rows alone, (b) and (c) off one P G^T as p_k^T (g_{i+1} - g_0) =
T[k, i+1] - T[k, 0], and only a nonzero residual becomes a ``Fraction``.  Float64
keeps its pairwise formulas: (b) as a difference of table entries would cancel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .linalg import (
    BACKENDS,
    Scalar,
    _orthogonalized,
    _row_dots,
    _row_residuals,
    _worst_ratio,
    pairwise_residual,
    scalar_token,
)
from .quadratic import QuadraticProblem, _times_H
from .engine import F64_EXTRA_STEPS, CGTrace, DirectionScaling, _step_budget, run_cg
from .oracle import _check_trace_fits, verify_against_trace
from .minnorm import _closed_form_ghats, _projected_ghats, orthogonality_defect
# bench/tracer.py patches these one-shot names on this module.
from .minnorm import min_norm_closed_form, projection_oracle  # noqa: F401

# Each check's statement of its identity and its float64 default tolerance.
_CHECKS = {
    "gradient_orthogonality": ("g_k^T g_i = 0 for all i < k", 1e-8),
    "iterate_span_orthogonality": ("g_{k+1}^T (x_{i+1} - x_0) = 0 for all i <= k", 1e-8),
    "direction_gradient_difference": ("p_k^T (g_{i+1} - g_0) = 0 for all i < k", 1e-8),
    "direction_gradient_constancy": ("p_k^T g_i = c_k for all i <= k", 1e-8),
    "exact_linesearch": ("p_k^T g_{k+1} = 0", 1e-8),
    "gradient_update_identity": ("g_{k+1} = g_k + theta_k H p_k", 1e-8),
    "subspace_optimality": ("x_k minimizes q over x_0 + span{g_0, ..., g_{k-1}}", 1e-6),
    "min_norm_relation": ("p_k = (c_k / ghat_k^T ghat_k) ghat_k, ghat by two methods", 1e-6),
    "conjugacy": ("p_i^T H p_j = 0 for all i != j", 1e-8),
    "termination_bound": (f"g_r = 0 with r <= n (exact); r <= n + {F64_EXTRA_STEPS} (float64)", 0.0),
}

CHECK_NAMES = tuple(_CHECKS)

DEFAULT_TOLERANCES = {
    "f64": {name: tol for name, (_, tol) in _CHECKS.items()},
    "rational": {name: Fraction(0) for name in CHECK_NAMES},
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
    """The report's fields as a JSON-ready dict; numerics serialized as strings.

    String serialization carries exact rationals losslessly and
    round-trips float64 bit-for-bit.
    """
    checks = [{**vars(c), "measured": scalar_token(c.measured),
               "tolerance": scalar_token(c.tolerance)} for c in report.checks]
    return {**vars(report), "checks": checks}


def _result(name: str, trace: CGTrace, tolerance, measured: Scalar) -> CheckResult:
    """``measured`` against ``tolerance``, or the check's default when that is None."""
    if tolerance is None:
        tolerance = DEFAULT_TOLERANCES[trace.scalar_backend][name]
    return CheckResult(
        name=name,
        paper_anchor=_CHECKS[name][0],
        measured=measured,
        tolerance=tolerance,
        passed=bool(measured <= tolerance),
    )


def _norms(vectors) -> np.ndarray:
    return np.linalg.norm(np.asarray(vectors), axis=1)


class _Tables:
    """A trace's stacks (``CGTrace._stacks``): g_k and x_k of every record and p_k
    of every step, none at r = 0, under rationals on the rows that each vector was
    recorded or read with; and, each formed at first use, H p_k
    (``quadratic._times_H``), under rationals PG, the rows k of the P G^T table
    over the columns 0..k that conditions (b) and (c) read, and ``basis``,
    ``linalg._orthogonalized`` of the ``history`` g_0..g_{r-1}.  The orthogonality
    checks read the first ``measured`` gradients: all under rationals, and under
    float64 all but the terminal one, noise whose *direction* is meaningless.
    ``run_full_suite`` shares one among its checks; a check alone builds its own."""

    def __init__(self, P: QuadraticProblem | None, trace: CGTrace):
        self.problem, self.backend = P, BACKENDS[trace.scalar_backend]
        self.X, self.G, self.P = trace._stacks
        self.steps, self.history = trace.records[: trace.r], self.G[: trace.r]
        self.measured = len(self.G) - (0 if self.backend.exact else 1)

    HP = cached_property(lambda self: _times_H(self.problem, self.P))
    PG = cached_property(lambda self: self.P.triangle(self.G, 1) if self.backend.exact else None)
    basis = cached_property(lambda self: _orthogonalized(self.history))


def check_gradient_orthogonality(trace: CGTrace, tolerance=None, *, _tables=None) -> CheckResult:
    """Pairwise orthogonality of the gradients that generated steps."""
    T = _tables or _Tables(None, trace)
    return _result("gradient_orthogonality", trace, tolerance, orthogonality_defect(T.G[: T.measured]))


def check_derivation_conditions(trace: CGTrace, tolerances=None, *, _tables=None
                                ) -> list[CheckResult]:
    """The three families of conditions the direction form is forced by.

    (a) each new gradient is orthogonal to every displacement
        x_{i+1} - x_0 already taken;
    (b) each direction is orthogonal to every gradient difference
        g_{i+1} - g_0 with i < k;
    (c) p_k^T g_i takes one common value c_k over i <= k.
    """
    tolerances = tolerances or {}
    T = _tables or _Tables(None, trace)
    G, X, ps, backend = T.G, T.X, T.P, T.backend

    # (a) g_{k+1}^T (x_{i+1} - x_0) = 0 for i <= k, over the measured gradients.
    gs, xs = G[1 : T.measured], X[: T.measured]
    span = pairwise_residual(
        backend, gs, xs, shift=None, diagonal=True, origin=True,
        scales=lambda: (_norms(gs), _norms(xs[1:] - xs[0])),
    )

    # (b) p_k^T (g_{i+1} - g_0) = 0 for i < k, and (c) p_k^T g_i = c_k for
    # i <= k, with c_k as recorded by the run: under rationals one table.
    history = G[: len(ps)]
    diff = pairwise_residual(
        backend, ps, history, shift=None, diagonal=False, origin=True, rows=T.PG,
        scales=lambda: (_norms(ps), _norms(history[1:] - history[0])),
    )
    constancy = pairwise_residual(
        backend, ps, history, shift=[rec.c_k for rec in T.steps], diagonal=True, rows=T.PG,
        scales=lambda: (_norms(ps), _norms(history)),
    )
    return [_result(name, trace, tolerances.get(name), measured) for name, measured in (
        ("iterate_span_orthogonality", span),
        ("direction_gradient_difference", diff),
        ("direction_gradient_constancy", constancy),
    )]


def check_exact_linesearch(trace: CGTrace, tolerance=None, *, _tables=None) -> CheckResult:
    """p_k^T g_{k+1} = 0, normalized by the pre-step gradient under float64.

    Normalizing by ||g_k|| rather than ||g_{k+1}|| keeps the final
    (numerically zero) gradient from trivializing the check.
    """
    T, r = _tables or _Tables(None, trace), trace.r
    measured = _worst_ratio(T.backend, np.abs(_row_dots(T.P, T.G[1 : r + 1])),
                            lambda: _norms(T.P) * _norms(T.G[:r]))
    return _result("exact_linesearch", trace, tolerance, measured)


def check_gradient_update_identity(
    P: QuadraticProblem, trace: CGTrace, tolerance=None, *, _tables=None
) -> CheckResult:
    """g_{k+1} = g_k + theta_k H p_k — the recursive update the solver never uses.

    The engine recomputes gradients from scratch, so this identity is a
    genuine consistency statement between consecutive records.
    """
    T, r = _tables or _Tables(P, trace), trace.r
    thetas = [rec.theta_k for rec in T.steps]
    residuals = _row_residuals(T.G[1 : r + 1], (1, T.G[:r]), (thetas, T.HP))
    measured = _worst_ratio(T.backend, residuals, lambda: _norms(T.G[:r]))
    return _result("gradient_update_identity", trace, tolerance, measured)


def check_subspace_optimality(
    P: QuadraticProblem, trace: CGTrace, tolerance=None, *, _tables=None
) -> CheckResult:
    """Each iterate equals the independent minimizer over its gradient span."""
    T = _tables or _Tables(P, trace)
    deviations = verify_against_trace(P, trace, _basis=T.basis)
    measured = _worst_ratio(T.backend, np.array(deviations),
                            lambda: np.maximum(1.0, _norms(T.X[1:])))
    return _result("subspace_optimality", trace, tolerance, measured)


def check_min_norm_relation(
    P: QuadraticProblem, trace: CGTrace, tolerance=None, *, _tables=None
) -> CheckResult:
    """p_k against the min-norm point of its gradient history, both methods.

    For every k < r, none at r = 0: ghat_k is computed by the closed form
    (ungated, since a degraded history should *fail* here, not error out) and
    by the projection oracle; the check measures their mutual deviation and
    the deviation of p_k from (c_k / ghat^T ghat) ghat with the recorded scale
    c_k, which is -(g_k^T g_k / ghat^T ghat) ghat under the standard scaling.
    Float64 residuals are normalized by ||ghat|| and ||p_k||.  A zero ghat
    leaves c_k / ghat^T ghat unbounded and is measured as an infinite
    residual: a non-orthogonal history may have one, and a zero gradient g_j
    gives one to every k >= j, by both methods.
    """
    T = _tables or _Tables(P, trace)
    backend = T.backend
    (ghats, _), (projected, _) = _closed_form_ghats(T.history), _projected_ghats(T.history, T.basis)
    sq = _row_dots(ghats, ghats)
    live = sq != 0
    ratios = np.array([rec.c_k / s if ok else backend.zero
                       for rec, s, ok in zip(T.steps, sq, live)], dtype=ghats.dtype)
    agreement = _row_residuals(ghats, (1, projected))
    deviation = _row_residuals(T.P, (ratios, ghats))
    # At a zero ghat, c_k / ghat^T ghat is unbounded: no multiple of ghat is p_k.
    agreement[~live], deviation[~live] = backend.zero, math.inf
    measured = _worst_ratio(
        backend, np.concatenate((agreement, deviation)),
        lambda: np.maximum(np.concatenate((np.sqrt(sq), _norms(T.P))), 1e-300),
    )
    return _result("min_norm_relation", trace, tolerance, measured)


def check_conjugacy(P: QuadraticProblem, trace: CGTrace, tolerance=None, *, _tables=None
                    ) -> CheckResult:
    """p_i^T H p_j = 0 for i != j — a consequence here, not an assumption."""
    T = _tables or _Tables(P, trace)
    ps, hps = T.P, T.HP
    measured = pairwise_residual(
        T.backend, hps, ps, shift=None, diagonal=False,
        scales=lambda: (np.sqrt(_row_dots(ps, hps)),) * 2,
    )
    return _result("conjugacy", trace, tolerance, measured)


def check_termination_bound(
    P: QuadraticProblem, trace: CGTrace, tolerance=None
) -> CheckResult:
    """Finite termination: a zero gradient within n steps (n + F64_EXTRA_STEPS in float64).

    measured counts the excess over the bound, plus 1 unless the trace shows the
    convergence that its label claims (``CGTrace.converged``).
    """
    excess = max(0, trace.r - _step_budget(P))
    measured = BACKENDS[trace.scalar_backend].scalar(excess + (0 if trace.converged else 1))
    return _result("termination_bound", trace, tolerance, measured)


def run_full_suite(
    P: QuadraticProblem,
    tol: float = 1e-10,
    max_iter: int | None = None,
    direction_mode: str = "recursive",
    scaling: DirectionScaling | None = None,
    tolerances: dict | None = None,
    trace: CGTrace | None = None,
) -> VerificationReport:
    """Solve (or accept a saved trace) and run every check.

    Solver breakdown surfaces as a failed termination check inside the
    report, never as an exception.  A trace on another backend than P
    raises ``LinalgError``, and one of another dimension
    ``DimensionMismatch``.
    """
    if trace is not None:
        _check_trace_fits(P, trace)
    else:
        trace = run_cg(
            P, tol=tol, max_iter=max_iter, direction_mode=direction_mode, scaling=scaling
        )
    tolerances = tolerances or {}
    t = tolerances.get
    # One set of stacks and one orthogonalization serve every check that reads them.
    # A float64 trace whose entries overflow the residuals measures inf or NaN: a
    # failed check, with no warning on the way.
    tables = _Tables(P, trace)
    with np.errstate(over="ignore", invalid="ignore"):
        checks = [check_gradient_orthogonality(trace, t("gradient_orthogonality"), _tables=tables)]
        checks.extend(check_derivation_conditions(trace, tolerances, _tables=tables))
        checks.append(check_exact_linesearch(trace, t("exact_linesearch"), _tables=tables))
        checks.append(check_gradient_update_identity(
            P, trace, t("gradient_update_identity"), _tables=tables))
        checks.append(check_subspace_optimality(P, trace, t("subspace_optimality"), _tables=tables))
        checks.append(check_min_norm_relation(P, trace, t("min_norm_relation"), _tables=tables))
        checks.append(check_conjugacy(P, trace, t("conjugacy"), _tables=tables))
        checks.append(check_termination_bound(P, trace, t("termination_bound")))
    return VerificationReport(
        problem_id=trace.problem_id,
        backend=trace.scalar_backend,
        r=trace.r,
        n=P.n,
        checks=tuple(checks),
        overall=all(c.passed for c in checks),
    )
