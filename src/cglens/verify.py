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

Under rationals every residual of a passing trace is literally zero, and a
zero is proved on integers.  The stacked g_k, x_k, p_k and H p_k become
integer rows once per suite (``_Tables``, the ``_tables`` of the checks),
and a pairwise check forms its triangle's rows alone: (a) off G X^T, and
(b), (c) and the linesearch off one P G^T, as p_k^T (g_{i+1} - g_0) =
T[k, i+1] - T[k, 0] exactly.  The update identity is tested on integer
numerators over one denominator per row, the subspace and min-norm
agreements as canonical ``Fraction``s before any subtraction, and p_k = t
ghat_k on cross-multiplied numerators.  Only a nonzero residual becomes a
``Fraction``.  Float64 keeps its formulas: (b) as a difference of table
entries would cancel badly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .linalg import (
    BACKENDS,
    Backend,
    Scalar,
    _integer_rows,
    _orthogonalized,
    _Rows,
    _row_dots,
    _row_magnitudes,
    _worst_ratio,
    pairwise_residual,
    scalar_token,
)
from .quadratic import QuadraticProblem, _times_H
from .engine import CGTrace, DirectionScaling, run_cg
from .oracle import _check_trace_fits, verify_against_trace
from .minnorm import _closed_form_ghats, _projected_ghats
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


def _step_records(trace: CGTrace):
    """Records that carry a completed step (direction and step length)."""
    return [rec for rec in trace.records if rec.theta_k is not None]


def _norms(vectors) -> np.ndarray:
    return np.linalg.norm(np.asarray(vectors), axis=1)


class _Tables:
    """A trace's stacked g_k and x_k (every record) and p_k and H p_k (every
    step), each formed once, at first use: arrays under float64, and under
    rationals ``linalg._Rows``, with H p_k from the numerators of H that the
    problem keeps, over one denominator, and PG, the rows k of the P G^T
    table over the columns 0..k+1 that conditions (b) and (c) and the
    linesearch read.  ``run_full_suite`` shares one among its checks; a
    check called alone builds its own."""

    def __init__(self, P: QuadraticProblem | None, trace: CGTrace):
        self.problem, self.records, self.steps = P, trace.records, _step_records(trace)
        self.exact = _backend(trace).exact

    def _stack(self, vectors):
        return _Rows(*_integer_rows(np.asarray(vectors))) if self.exact else np.asarray(vectors)

    G = cached_property(lambda self: self._stack([rec.g_k for rec in self.records]))
    X = cached_property(lambda self: self._stack([rec.x_k for rec in self.records]))
    P = cached_property(lambda self: self._stack([rec.p_k for rec in self.steps]))
    PG = cached_property(lambda self: self.P.triangle(self.G, 2) if self.exact else None)

    @cached_property
    def HP(self):
        if not self.exact:
            return _times_H(self.problem, self.P.T).T  # H p_k as rows, from one product
        NH, dH = self.problem._H_rows
        D = math.lcm(*dH)
        NH = NH * np.array([[D // d] for d in dH], dtype=object)
        return _Rows(np.dot(self.P.N, NH.T), D * self.P.d)


def check_gradient_orthogonality(trace: CGTrace, tolerance=None, *, _tables=None) -> CheckResult:
    """Pairwise orthogonality of the gradients that generated steps."""
    backend = _backend(trace)
    tol = _tolerance("gradient_orthogonality", backend, tolerance)
    G = (_tables or _Tables(None, trace)).G
    # Under rationals the terminal zero gradient rides along.
    gs = G if backend.exact else G[:-1]
    measured = pairwise_residual(
        backend, gs, gs, shift=None, diagonal=False, scales=lambda: (_norms(gs),) * 2
    )
    return _result("gradient_orthogonality", measured, tol)


def check_derivation_conditions(trace: CGTrace, tolerances=None, *, _tables=None
                                ) -> list[CheckResult]:
    """The three families of conditions the direction form is forced by.

    (a) each new gradient is orthogonal to every displacement
        x_{i+1} - x_0 already taken;
    (b) each direction is orthogonal to every gradient difference
        g_{i+1} - g_0 with i < k;
    (c) p_k^T g_i takes one common value c_k over i <= k.
    """
    backend = _backend(trace)
    tolerances = tolerances or {}
    T = _tables or _Tables(None, trace)
    G, X, ps = T.G, T.X, T.P

    def result(name, measured):
        return _result(name, measured, _tolerance(name, backend, tolerances.get(name)))

    # (a) g_{k+1}^T (x_{i+1} - x_0) = 0 for i <= k.  Under float64 the
    # terminal gradient is numerically zero noise whose *direction* is
    # meaningless, so only pre-terminal gradients are measured there.
    last = len(G) - 1 if backend.exact else len(G) - 2
    gs, xs = G[1 : last + 1], X[: last + 1]
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
    return [
        result("iterate_span_orthogonality", span),
        result("direction_gradient_difference", diff),
        result("direction_gradient_constancy", constancy),
    ]


def check_exact_linesearch(trace: CGTrace, tolerance=None, *, _tables=None) -> CheckResult:
    """p_k^T g_{k+1} = 0, normalized by the pre-step gradient under float64.

    Normalizing by ||g_k|| rather than ||g_{k+1}|| keeps the final
    (numerically zero) gradient from trivializing the check.
    """
    backend = _backend(trace)
    tol = _tolerance("exact_linesearch", backend, tolerance)
    steps, T = _step_records(trace), _tables or _Tables(None, trace)
    measured = backend.zero
    if backend.exact:
        measured = max([measured] + [abs(Fraction(row[k + 1], T.P.d[k] * T.G.d[k + 1]))
                                     for k, row in enumerate(T.PG) if row[k + 1]])
    elif steps:
        measured = _worst_ratio(
            backend, np.abs(_row_dots(T.P, T.G[1 : len(steps) + 1])),
            lambda: _norms(T.P) * _norms([rec.g_k for rec in steps]),
        )
    return _result("exact_linesearch", measured, tol)


def check_gradient_update_identity(
    P: QuadraticProblem, trace: CGTrace, tolerance=None, *, _tables=None
) -> CheckResult:
    """g_{k+1} = g_k + theta_k H p_k — the recursive update the solver never uses.

    The engine recomputes gradients from scratch, so this identity is a
    genuine consistency statement between consecutive records.
    """
    backend = _backend(trace)
    tol = _tolerance("gradient_update_identity", backend, tolerance)
    steps, T = _step_records(trace), _tables or _Tables(P, trace)
    measured = backend.zero
    if backend.exact and steps:
        G, HP = T.G, T.HP
        for k, rec in enumerate(steps):
            # The row on integers over D, the LCM of its three denominators.
            t, i = rec.theta_k, rec.k
            D = math.lcm(G.d[k + 1], G.d[i], t.denominator * HP.d[k])
            row = (G.N[k + 1] * (D // G.d[k + 1]) - G.N[i] * (D // G.d[i])
                   - HP.N[k] * (t.numerator * D // (t.denominator * HP.d[k])))
            if row.any():
                measured = max(measured, Fraction(np.abs(row).max(), D))
    elif steps:
        gs, hps = np.asarray([rec.g_k for rec in steps]), T.HP
        thetas = np.array([rec.theta_k for rec in steps], dtype=hps.dtype)
        residuals = _row_magnitudes(T.G[1 : len(steps) + 1] - gs, thetas[:, None] * hps)
        measured = _worst_ratio(backend, residuals, lambda: _norms(gs))
    return _result("gradient_update_identity", measured, tol)


def check_subspace_optimality(
    P: QuadraticProblem, trace: CGTrace, tolerance=None, *, _basis=None
) -> CheckResult:
    """Each iterate equals the independent minimizer over its gradient span.

    ``_basis`` is ``linalg._orthogonalized`` of g_0..g_{r-1}, which
    ``run_full_suite`` shares with ``check_min_norm_relation``.
    """
    backend = _backend(trace)
    tol = _tolerance("subspace_optimality", backend, tolerance)
    deviations = verify_against_trace(P, trace, _basis=_basis)
    measured = backend.zero
    if deviations:
        measured = _worst_ratio(
            backend, np.array(deviations),
            lambda: np.maximum(1.0, _norms([rec.x_k for rec in trace.records[1:]])),
        )
    return _result("subspace_optimality", measured, tol)


def check_min_norm_relation(
    P: QuadraticProblem, trace: CGTrace, tolerance=None, *, _basis=None, _tables=None
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
    is measured as an infinite residual.  ``_basis`` is as for
    ``check_subspace_optimality``.
    """
    backend = _backend(trace)
    tol = _tolerance("min_norm_relation", backend, tolerance)
    steps = _step_records(trace)
    if not steps:
        return _result("min_norm_relation", backend.zero, tol)
    history = [rec.g_k for rec in trace.records[: len(steps)]]
    closed, _ = _closed_form_ghats(history)
    projected, _ = _projected_ghats(history, _basis)
    ps = np.asarray([rec.p_k for rec in steps])
    if backend.exact:
        Ps, Gs = (_tables or _Tables(P, trace)).P, _Rows(*_integer_rows(closed))
        sq = np.array([Fraction(np.dot(g, g), d * d) for g, d in zip(Gs.N, Gs.d)], dtype=object)
    else:
        sq = _row_dots(closed, closed)
    live = sq != 0
    ratios = np.array([rec.c_k / s if ok else backend.zero
                       for rec, s, ok in zip(steps, sq, live)], dtype=closed.dtype)
    agreement = _row_magnitudes(closed, projected)
    if backend.exact:
        # p_k = t ghat_k, t = ratios[k], on integer rows: Np / dp = t Ng / dg.
        deviation = np.full(len(steps), backend.zero, dtype=object)
        for k, t in enumerate(ratios):
            if (Ps.N[k] * (Gs.d[k] * t.denominator) != Gs.N[k] * (Ps.d[k] * t.numerator)).any():
                deviation[k] = np.abs(ps[k] - t * closed[k]).max()
    else:
        deviation = _row_magnitudes(ps, ratios[:, None] * closed)
    # At a zero ghat, c_k / ghat^T ghat is unbounded: no multiple of ghat is p_k.
    agreement[~live], deviation[~live] = backend.zero, math.inf
    measured = _worst_ratio(
        backend, np.concatenate((agreement, deviation)),
        lambda: np.maximum(np.concatenate((np.sqrt(sq), _norms(ps))), 1e-300),
    )
    return _result("min_norm_relation", measured, tol)


def check_conjugacy(P: QuadraticProblem, trace: CGTrace, tolerance=None, *, _tables=None
                    ) -> CheckResult:
    """p_i^T H p_j = 0 for i != j — a consequence here, not an assumption."""
    backend = _backend(trace)
    tol = _tolerance("conjugacy", backend, tolerance)
    if not _step_records(trace):
        return _result("conjugacy", backend.zero, tol)
    T = _tables or _Tables(P, trace)
    ps, hps = T.P, T.HP
    measured = pairwise_residual(
        backend, hps, ps, shift=None, diagonal=False,
        scales=lambda: (np.sqrt(_row_dots(ps, hps)),) * 2,
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
    tolerances = dict(tolerances or {})

    def t(name):
        return tolerances.get(name)

    # One set of stacks serves every check that reads them.
    tables = _Tables(P, trace)
    checks = [check_gradient_orthogonality(trace, t("gradient_orthogonality"), _tables=tables)]
    checks.extend(check_derivation_conditions(trace, tolerances, _tables=tables))
    checks.append(check_exact_linesearch(trace, t("exact_linesearch"), _tables=tables))
    checks.append(check_gradient_update_identity(
        P, trace, t("gradient_update_identity"), _tables=tables))
    # One orthogonalization of g_0..g_{r-1} serves both sweeps.
    history = [rec.g_k for rec in trace.records[: trace.r]]
    basis = _orthogonalized(history) if history else None
    checks.append(check_subspace_optimality(P, trace, t("subspace_optimality"), _basis=basis))
    shared = basis if len(_step_records(trace)) == trace.r else None
    checks.append(check_min_norm_relation(
        P, trace, t("min_norm_relation"), _basis=shared, _tables=tables))
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
