#!/usr/bin/env python3
"""The geometry behind the direction: minimum-norm points of gradient hulls.

Take the gradients g_0, ..., g_k produced so far and form their affine
hull { sum a_i g_i : sum a_i = 1 }.  Its unique point of minimum
Euclidean norm, ghat_k, is computable two independent ways:

  closed form:  ghat = (sum_j 1/||g_j||^2)^(-1) * sum_i g_i / ||g_i||^2
                (valid because the gradients are mutually orthogonal)
  projection:   minimize ||sum a_i g_i||^2 subject to sum a_i = 1,
                solved via its KKT system — no orthogonality assumed

The search direction is this point, rescaled and negated:

  p_k = -(g_k^T g_k / ||ghat_k||^2) * ghat_k

so the method always moves along the shortest vector in the hull of
everything it has seen.  This demo checks each statement in exact
rationals on a worked problem, then shows the projection oracle working
where the closed form legitimately refuses (non-orthogonal inputs).

Run:  python3 demos/03_min_norm_geometry.py
"""

from cglens import (
    RATIONAL,
    ProblemSpec,
    characterization_residuals,
    generate_problem,
    gradient,
    min_norm_closed_form,
    norm_sq,
    projection_oracle,
    run_cg,
    scalar_token,
    scaling_relation,
    shortest_residuals_direction,
    vector,
)
from cglens.linalg import dot


def fmt_vec(v):
    return "(" + ", ".join(scalar_token(x) for x in v) + ")"


def main():
    P = generate_problem(ProblemSpec(kind="diag", n=2), RATIONAL)
    trace = run_cg(P)
    gradients = [trace.records[0].g_k, trace.records[1].g_k]
    print(f"problem {P.label}; gradient history after one step:")
    for i, g in enumerate(gradients):
        print(f"  g_{i} = {fmt_vec(g)}")
    print()

    closed = min_norm_closed_form(gradients)
    kkt = projection_oracle(gradients)
    print(f"minimum-norm point of their affine hull, two ways:")
    print(f"  closed form:       ghat = {fmt_vec(closed.ghat)}  ||ghat||^2 = {scalar_token(closed.norm_sq)}")
    print(f"  KKT projection:    ghat = {fmt_vec(kkt.ghat)}  ||ghat||^2 = {scalar_token(kkt.norm_sq)}")
    assert (closed.ghat == kkt.ghat).all()
    print("  identical (asserted exactly)")
    print()

    w = closed.weights
    print(f"affine weights: {tuple(scalar_token(a) for a in w.weights)}, "
          f"sum = {scalar_token(sum(w.weights))}")
    print("minimality certificate — ghat^T g_i = ||ghat||^2 for every vertex")
    print("(the hull lies in a hyperplane touching the norm ball at ghat):")
    for i, g in enumerate(gradients):
        print(f"  ghat^T g_{i} = {scalar_token(dot(closed.ghat, g))}")
    print()

    residuals = characterization_residuals(closed, gradients)
    print(f"defining-property residuals (must be exactly zero): "
          f"{[scalar_token(t) for t in residuals]}")
    print()

    p_1 = trace.records[1].p_k
    rel = scaling_relation(p_1, gradients[1], closed)
    print(f"the direction the method actually took: p_1 = {fmt_vec(p_1)}")
    print(f"predicted -(g_1^T g_1 / ||ghat||^2) ghat, residual = {scalar_token(rel)}")
    sr = shortest_residuals_direction(gradients)
    print(f"shortest-residuals direction (unit form): -ghat = {fmt_vec(sr)}")
    print()

    # ghat is itself a gradient: of the affine combination of the iterates
    # taken with the same weights
    iterates = [trace.records[0].x_k, trace.records[1].x_k]
    x_hat = sum(a * x for a, x in zip(w.weights, iterates))
    print("ghat realized as an actual gradient of the objective:")
    print(f"  x_hat = same affine mix of iterates = {fmt_vec(x_hat)}")
    print(f"  grad q(x_hat) = {fmt_vec(gradient(P, x_hat))}")
    assert (gradient(P, x_hat) == closed.ghat).all()
    print("  equals ghat (asserted exactly)")
    print()

    print("where the closed form refuses: hull of the NON-orthogonal pair")
    print("v_0 = (1, 0), v_1 = (1, 1)")
    vs = [vector([1, 0], RATIONAL), vector([1, 1], RATIONAL)]
    try:
        min_norm_closed_form(vs)
    except Exception as err:
        print(f"  closed form: {err}")
    res = projection_oracle(vs)
    print(f"  projection oracle: ghat = {fmt_vec(res.ghat)}, "
          f"weights = {tuple(scalar_token(a) for a in res.weights.weights)}")
    print(f"  (the whole hull is the vertical line x = 1; its closest point")
    print(f"   to the origin is (1, 0), norm^2 = {scalar_token(norm_sq(res.ghat))})")


if __name__ == "__main__":
    main()
