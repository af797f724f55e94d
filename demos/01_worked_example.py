#!/usr/bin/env python3
"""A complete conjugate-gradient run on a 2x2 problem, in exact rationals.

Minimize q(x) = 1/2 x^T H x + c^T x with H = diag(1, 2) and c = (-1, -2),
whose unique minimizer is x* = (1, 1).  Every number below is a Fraction,
so each identity the method rests on holds with residual literally zero —
no tolerance, no "close enough".

Run:  python3 demos/01_worked_example.py
"""

from cglens import (
    RATIONAL,
    ProblemSpec,
    exact_minimizer,
    generate_problem,
    run_cg,
    run_full_suite,
    scalar_token,
)


def fmt_vec(v):
    return "(" + ", ".join(scalar_token(x) for x in v) + ")"


def main():
    P = generate_problem(ProblemSpec(kind="diag", n=2), RATIONAL)
    print(f"problem {P.label}: H = diag(1, 2), c = (-1, -2), start x_0 = (0, 0)")
    print(f"true minimizer x* = {fmt_vec(exact_minimizer(P))}")
    print()

    trace = run_cg(P)
    for rec in trace.records:
        print(f"iteration k = {rec.k}")
        print(f"  x_{rec.k} = {fmt_vec(rec.x_k)}")
        print(f"  g_{rec.k} = {fmt_vec(rec.g_k)}   ||g||^2 = {scalar_token(rec.grad_norm_sq)}")
        if rec.p_k is not None:
            print(f"  p_{rec.k} = {fmt_vec(rec.p_k)}   scale c_{rec.k} = {scalar_token(rec.c_k)}")
            print(f"  step theta_{rec.k} = {scalar_token(rec.theta_k)}")
        if rec.beta_k is not None:
            print(f"  recursion coefficient beta_{rec.k} = {scalar_token(rec.beta_k)}")
    print()
    print(f"terminated after r = {trace.r} steps ({trace.termination_reason}); "
          f"the theory guarantees r <= n = {P.n}")
    print()

    # every derivation identity, checked as a literal equality of Fractions
    report = run_full_suite(P, trace=trace)
    print("verification (exact backend: every residual must be exactly 0):")
    for check in report.checks:
        print(f"  {'ok' if check.passed else 'FAIL':4} {check.name:32} "
              f"residual = {scalar_token(check.measured)}   [{check.paper_anchor}]")
    print(f"overall: {'all identities hold exactly' if report.overall else 'FAILED'}")
    print()

    # orthogonality is in the check table above; the squared norms drain to
    # zero, which is how the run ends
    print("squared gradient norms g_k^T g_k:")
    for rec in trace.records:
        print(f"  k = {rec.k}: {scalar_token(rec.grad_norm_sq)}")


if __name__ == "__main__":
    main()
