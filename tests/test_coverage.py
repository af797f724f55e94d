"""Coverage of the verdict: which checks catch a one-field corruption of a trace.

The trace is exact (rand_spd n = 8, cond 8, seed 3, r = 4).  Each
corruption changes one field of one record: a scalar, or the first entry
of a vector, is scaled by 1 + 2^-30, or set to 2^-30 where it is 0.  The
recorded norm and beta are judged by ``CGTrace`` itself, so a trace with
either corrupted is never built, in memory or from a file (``test_io``
checks the loader's refusal, which names the file); a corrupted g_k comes
with the norm and the betas that go with it (``conftest.with_record``).
The others are handed to ``run_full_suite``.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import pytest

from cglens import RATIONAL, LinalgError, ProblemSpec, generate_problem, run_cg
from cglens.verify import CHECK_NAMES, run_full_suite

from conftest import with_record

RAISES = "LinalgError from run_full_suite"
REJECTED = "LinalgError from CGTrace"

SPAN = ("iterate_span_orthogonality", "subspace_optimality")
G_INTERIOR = (
    "gradient_orthogonality", "iterate_span_orthogonality", "direction_gradient_difference",
    "direction_gradient_constancy", "exact_linesearch", "gradient_update_identity",
    "subspace_optimality", "min_norm_relation",
)
P_TAIL = ("direction_gradient_constancy", "gradient_update_identity", "min_norm_relation",
          "conjugacy")
C_ANY = ("direction_gradient_constancy", "min_norm_relation")

# (field, k) -> the checks that FAIL, in report order, or where a LinalgError comes from.
# x_0, g_0 and the last record do not come from the problem (the provenance check).
EXPECTED = {
    ("x_k", 0): RAISES, ("x_k", 2): SPAN, ("x_k", 3): SPAN, ("x_k", 4): RAISES,
    ("g_k", 0): RAISES, ("g_k", 2): G_INTERIOR, ("g_k", 3): G_INTERIOR, ("g_k", 4): RAISES,
    ("p_k", 0): ("direction_gradient_constancy", "exact_linesearch", "gradient_update_identity",
                 "min_norm_relation", "conjugacy"),
    ("p_k", 2): ("direction_gradient_difference", "direction_gradient_constancy",
                 "exact_linesearch", "gradient_update_identity", "min_norm_relation",
                 "conjugacy"),
    ("p_k", 3): ("direction_gradient_difference",) + P_TAIL,
    **{("theta_k", k): ("gradient_update_identity",) for k in (0, 2, 3)},
    **{("c_k", k): C_ANY for k in (0, 2, 3)},
    **{("beta_k", k): REJECTED for k in (2, 3, 4)},
    **{("grad_norm_sq", k): REJECTED for k in (0, 2, 3, 4)},
    ("termination_reason", None): ("termination_bound",),
}

EPS = Fraction(1, 2**30)


def nudged(value):
    if hasattr(value, "shape"):
        out = value.copy()
        out[0] = nudged(value[0])
        out.flags.writeable = False
        return out
    return value * (1 + EPS) if value != 0 else EPS


@pytest.fixture(scope="module")
def problem():
    return generate_problem(ProblemSpec(kind="rand_spd", n=8, condition=8, seed=3), RATIONAL)


@pytest.fixture(scope="module")
def outcomes(problem):
    trace = run_cg(problem)
    assert (trace.r, trace.termination_reason) == (4, "gradient_zero")
    assert run_full_suite(problem, trace=trace).overall
    found = {}
    for field, k in EXPECTED:
        try:
            if k is None:
                bad = dataclasses.replace(trace, **{field: "max_iter"})
            else:
                old = getattr(trace.records[k], field)
                assert old is not None
                bad = with_record(trace, k, **{field: nudged(old)})
        except LinalgError:
            found[field, k] = REJECTED
            continue
        try:
            report = run_full_suite(problem, trace=bad)
        except LinalgError:
            found[field, k] = RAISES
            continue
        found[field, k] = tuple(c.name for c in report.checks if not c.passed)
    return found


@pytest.mark.parametrize("corruption", list(EXPECTED), ids=lambda c: f"{c[0]}@{c[1]}")
def test_pinned_outcome(outcomes, corruption):
    assert outcomes[corruption] == EXPECTED[corruption]


def test_no_corruption_passes_all_ten_checks(outcomes):
    assert all(outcome != () for outcome in outcomes.values())


def test_every_check_fails_on_some_corruption(outcomes):
    failed = {name for outcome in outcomes.values() if isinstance(outcome, tuple)
              for name in outcome}
    assert failed == set(CHECK_NAMES)
