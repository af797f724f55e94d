"""The correctness gate: may one job's verdict be trusted?

Each job ends in one of three states:

* ``pass``  - the program reported a pass (exit 0, ``overall`` true) and the
  gate confirms it;
* ``fail``  - the program did not deliver a pass: a nonzero exit code, a
  failed check, or an exception.  Counted in ``failed``;
* ``wrong`` - the program reported a pass that the gate cannot back: a
  silent wrong answer.  Counted in ``failed`` and makes the run incorrect.

Exact jobs: every ``measured`` in R.json is the literal ``"0"`` and the
final iterate from ``load_trace(T.json)`` is exactly the all-ones vector.

Float64 jobs: the final iterate meets the run's own stopping promise,
``||H x_r + c|| <= tol * max(||H x_0 + c||, 1)``, recomputed here with NumPy
from P.json, and its distance to the all-ones minimizer is within what that
residual allows, ``||x_r - 1|| <= ||H x_r + c|| / lambda_min(H)``.  At
``--tol 1e-2`` and cond 1e4 that distance is O(1), so a fixed "small"
threshold would reject correct runs; on the long laplacian workload the
same bound is ~1e-8.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from cglens import mmio

PASS, FAIL, WRONG = "pass", "fail", "wrong"

_EPS = np.finfo(np.float64).eps


def _exact_findings(report: dict, trace) -> list[str]:
    findings = [f"{c['name']} measured {float(Fraction(c['measured'])):.6g}"
                for c in report["checks"] if c["measured"] != "0"]
    if any(x != 1 for x in trace.records[-1].x_k):
        findings.append("final iterate is not exactly the all-ones vector")
    return findings


def _float_findings(job, problem: dict, trace) -> list[str]:
    H = np.array(problem["H"]["dense"], dtype=np.float64)
    c = np.array(problem["c"], dtype=np.float64)
    x0 = np.array(problem["x0"], dtype=np.float64)
    x = np.array([float(v) for v in trace.records[-1].x_k])
    eigenvalues = np.linalg.eigvalsh(H)
    lam_min, h_norm = float(eigenvalues[0]), float(np.abs(eigenvalues).max())
    residual = float(np.linalg.norm(H @ x + c))
    rounding = len(c) * _EPS * (h_norm * float(np.linalg.norm(x)) + float(np.linalg.norm(c)))
    findings = []
    limit = job.tol * max(float(np.linalg.norm(H @ x0 + c)), 1.0)
    if residual > limit * (1 + 1e-6) + rounding:
        findings.append(f"residual {residual:.3e} exceeds the stopping bound {limit:.3e}")
    error = float(np.linalg.norm(x - 1.0))
    if not lam_min > 0 or error > (residual + rounding) / lam_min * (1 + 1e-6):
        findings.append(f"||x_r - 1|| = {error:.3e} exceeds ||H x_r + c|| / lambda_min "
                        f"= {residual:.3e} / {lam_min:.3e}")
    return findings


def judge(job, rc_generate, rc_verify, problem_path, trace_path, report_path):
    """Return ``(status, reason, trace)``; ``trace`` is None when unreadable."""
    claims_pass = rc_generate == 0 and rc_verify == 0
    trace, failed_checks = None, []
    try:
        with open(report_path) as fh:
            report = json.load(fh)
        claims_pass = claims_pass and report["overall"] is True
        failed_checks = [c["name"] for c in report["checks"] if not c["passed"]]
        trace = mmio.load_trace(trace_path)
        if report["r"] != trace.r:
            findings = [f"report r = {report['r']} but trace r = {trace.r}"]
        elif job.backend == "rational":
            findings = _exact_findings(report, trace)
        else:
            with open(problem_path) as fh:
                findings = _float_findings(job, json.load(fh), trace)
    except (OSError, ValueError, KeyError, TypeError) as err:
        findings = [f"outputs unreadable: {err!r}"]
    if claims_pass:
        return (WRONG, "; ".join(findings), trace) if findings else (PASS, "", trace)
    head = f"exit codes generate {rc_generate}, verify {rc_verify}"
    if failed_checks:
        head += f", checks failed: {', '.join(failed_checks)}"
    return FAIL, "; ".join([head] + findings), trace
