"""The paper's equivalence, executed on whole methods.

Every method here takes x_{k+1} = x_k + theta_k p_k with p_k = -g_k + beta_k
p_{k-1} and the scale c_k = p_k^T g_k, with an exact line search unless it
says otherwise, and records its run as a trace, so the ten checks read it as
they read a CG trace.  Under rationals the choices of beta that coincide with
CG on a quadratic (Fletcher-Reeves, Polak-Ribiere, Hestenes-Stiefel) pass
every check.  Any other beta loses the orthogonal gradients, and with them
every identity but the line search and the gradient update, which hold for
any beta; a step that is not the line search's loses that identity too.
Those histories are not orthogonal, so the subspace oracle and the min-norm
projection run the exact Gram-Schmidt through its nonzero projections.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cglens import RATIONAL, ProblemSpec, generate_problem, gradient, run_full_suite
from cglens.engine import CGTrace, IterateRecord, step_length
from cglens.linalg import dot, mat_vec, norm_sq, scalar_token
from cglens.verify import check_gradient_orthogonality, check_subspace_optimality


def _fletcher_reeves(k, g, g_prev, p_prev):
    return norm_sq(g) / norm_sq(g_prev)


def _polak_ribiere(k, g, g_prev, p_prev):
    return dot(g, g - g_prev) / norm_sq(g_prev)


def _hestenes_stiefel(k, g, g_prev, p_prev):
    return dot(g, g - g_prev) / dot(p_prev, g - g_prev)


def method_trace(P, beta, step_scale=1, step=step_length) -> CGTrace:
    """The run of p_k = -g_k + beta(k, g_k, g_{k-1}, p_{k-1}) p_{k-1} from P.x0,
    each step ``step_scale`` times ``step(P, g_k, p_k)``, the exact line
    search's by default, until the gradient vanishes or n steps are taken."""
    x, g_prev, p = P.x0, None, None
    records = []
    for k in range(P.n + 1):
        g = gradient(P, x)
        gns = norm_sq(g)
        if gns == 0 or k == P.n:
            records.append(IterateRecord(k, x, g, gns))
            break
        b = None if k == 0 else beta(k, g, g_prev, p)
        p = -g if k == 0 else -g + b * p
        theta = step(P, g, p) * step_scale
        records.append(IterateRecord(k, x, g, gns, p_k=p, theta_k=theta, beta_k=b, c_k=dot(p, g)))
        x, g_prev = x + theta * p, g
    return CGTrace(problem_id=P.label, scalar_backend="rational", records=tuple(records),
                   termination_index=len(records) - 1,
                   termination_reason="gradient_zero" if gns == 0 else "max_iter")


PROBLEM = ProblemSpec(kind="rand_spd", n=5, condition=20, seed=3)

# The checks every non-CG beta fails: all but the line search and the update.
_SKEWED = {"gradient_orthogonality", "iterate_span_orthogonality", "direction_gradient_difference",
           "direction_gradient_constancy", "subspace_optimality", "min_norm_relation", "conjugacy",
           "termination_bound"}

# method: (beta, step scale, r, FAIL set, sha256 of "name=measured" lines).
# The digests pin every measured value, each an exact rational; the three CG
# betas share one, since each of their ten residuals is zero.
METHODS = {
    "fletcher_reeves": (_fletcher_reeves, 1, 4, set(),
                        "5f8f4c4e288b8873b57c17aa99365722a372309e12a762fba053577c94c9c858"),
    "polak_ribiere": (_polak_ribiere, 1, 4, set(),
                      "5f8f4c4e288b8873b57c17aa99365722a372309e12a762fba053577c94c9c858"),
    "hestenes_stiefel": (_hestenes_stiefel, 1, 4, set(),
                         "5f8f4c4e288b8873b57c17aa99365722a372309e12a762fba053577c94c9c858"),
    "steepest_descent": (lambda k, g, gp, pp: 0, 1, 5, _SKEWED,
                         "8631173bc8ca067a89da966e7665f5eff0558f71365d2074f44fa272e0e62e76"),
    "twice_beta": (lambda k, g, gp, pp: 2 * _fletcher_reeves(k, g, gp, pp), 1, 5, _SKEWED,
                   "ad4a6892739ca33b9064319d9c1ccac23d380bcabaff0f15315249bacce2236a"),
    "restart_every_3": (lambda k, g, gp, pp: 0 if k % 3 == 0 else _fletcher_reeves(k, g, gp, pp),
                        1, 5, _SKEWED,
                        "336b348be4670247f5fa165b84d04b9f9420cf57cc766648c147e264b85e01a0"),
    "long_step": (_fletcher_reeves, Fraction(1001, 1000), 5, _SKEWED | {"exact_linesearch"},
                  "9ad88ff366a2bd7002089971c539ddb972882431bd30ae3c051c227c91f4f271"),
}


def _digest(report) -> str:
    lines = "".join(f"{c.name}={scalar_token(c.measured)}\n" for c in report.checks)
    return hashlib.sha256(lines.encode()).hexdigest()


@pytest.fixture(scope="module")
def problem():
    return generate_problem(PROBLEM, RATIONAL)


@pytest.mark.parametrize("name", METHODS)
def test_method_fails_exactly_the_identities_it_breaks(problem, name):
    beta, step_scale, r, failed, digest = METHODS[name]
    report = run_full_suite(problem, trace=method_trace(problem, beta, step_scale))
    assert report.r == r
    assert {c.name for c in report.checks if not c.passed} == failed
    assert report.overall == (not failed)
    assert _digest(report) == digest


def test_conjugate_residuals_fail_all_but_the_update_and_the_termination(problem):
    # The conjugate-residual method stays in the same Krylov space but
    # minimizes ||H x + c|| over it: beta_k = g_k^T H g_k / g_{k-1}^T H g_{k-1}
    # and theta_k = g_k^T H g_k / ||H p_k||^2.  Its gradients are H-orthogonal,
    # not orthogonal, and its steps are no line search's; it still stops at
    # g_r = 0 within n steps, and every step is a step along p_k.
    def energy(g):
        return dot(g, mat_vec(problem.H, g))

    trace = method_trace(problem, lambda k, g, g_prev, p_prev: energy(g) / energy(g_prev),
                         step=lambda P, g, p: energy(g) / norm_sq(mat_vec(P.H, p)))
    report = run_full_suite(problem, trace=trace)
    assert report.r == 4
    assert {c.name for c in report.checks if not c.passed} == (
        _SKEWED - {"termination_bound"} | {"exact_linesearch"})
    assert _digest(report) == "64c5f97d10af3c5510741f13d645a3c9c712a16a739be8b4524848b17626ad55"


# beta_k as a multiple of Fletcher-Reeves': 1 keeps CG, any other multiple leaves it.
multipliers = st.lists(st.sampled_from([1, 1, 1, 0, 2, -1, Fraction(1, 2)]), min_size=4, max_size=4)


@given(st.integers(min_value=3, max_value=5), st.integers(min_value=0, max_value=9), multipliers)
@settings(max_examples=25, deadline=None)
def test_orthogonal_gradients_exactly_when_each_iterate_minimizes_its_span(n, seed, factors):
    # x_k lies in x_0 + span{g_0..g_{k-1}} for any beta, and minimizes q there
    # exactly when g_k is orthogonal to that span: the two checks agree.
    P = generate_problem(ProblemSpec(kind="rand_spd", n=n, condition=20, seed=seed), RATIONAL)
    trace = method_trace(P, lambda k, g, gp, pp: factors[k - 1] * _fletcher_reeves(k, g, gp, pp))
    assert check_gradient_orthogonality(trace).passed == check_subspace_optimality(P, trace).passed
