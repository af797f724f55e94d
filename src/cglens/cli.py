"""Command-line front end: generate, solve, verify, oracle.

Exit codes: 0 success; 1 a verification failed; 2 bad input (parse
errors, invalid flags, non-SPD data); 3 solver breakdown.  The
environment variable CGLENS_TOL_OVERRIDES may loosen or tighten any
check, e.g. ``CGLENS_TOL_OVERRIDES="gradient_orthogonality=1e-6,conjugacy=1e-7"``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

from .linalg import BACKENDS, F64, RATIONAL, LinalgError, norm_sq
from .quadratic import QuadraticProblem, evaluate
from .engine import DirectionScaling, run_cg
from .oracle import trace_oracle
from .verify import DEFAULT_TOLERANCES, report_to_dict, run_full_suite
from .problems import ProblemSpec, generate_problem
from .mmio import (
    _names_its_file,
    vector_tokens,
    load_problem,
    save_json,
    save_problem,
    save_trace,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_BREAKDOWN = 3


def _add_problem_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--problem", help="problem JSON file to load")
    sub.add_argument("--kind", choices=["diag", "laplacian1d", "rand_spd"],
                     help="generate a problem of this kind instead of loading one")
    sub.add_argument("--n", type=int, help="dimension for generated problems")
    sub.add_argument("--cond", type=float, help="condition number for rand_spd")
    sub.add_argument("--seed", type=int, help="seed for rand_spd")
    sub.add_argument("--backend", choices=["f64", "rational"], default="f64")


def _add_run_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--tol", type=float, default=1e-10,
                     help="float64 relative gradient-norm stopping tolerance")
    sub.add_argument("--max-iter", type=int, default=None)
    sub.add_argument("--direction", default="recursive",
                     choices=["recursive", "gradient-sum", "shortest-residuals"])
    sub.add_argument("--scaling", default="cg", choices=["cg", "unit"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cglens",
        description="Conjugate gradients under the microscope: solve, "
                    "cross-check against independent oracles, and verify "
                    "every identity the method is built on.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("generate", help="write a problem JSON file")
    _add_problem_flags(gen)
    gen.add_argument("--out", required=True, help="destination problem JSON")

    solve = subs.add_parser("solve", help="run the method and print a summary")
    _add_problem_flags(solve)
    _add_run_flags(solve)
    solve.add_argument("--trace", help="write the full trace JSON here")

    verify = subs.add_parser("verify", help="solve, then run every check")
    _add_problem_flags(verify)
    _add_run_flags(verify)
    verify.add_argument("--trace", help="write the full trace JSON here")
    verify.add_argument("--report", help="write the verification report JSON here")
    verify.add_argument("--csv", help="append a one-line summary to this CSV file")

    oracle = subs.add_parser(
        "oracle", help="solve and print the independent subspace minimizers"
    )
    _add_problem_flags(oracle)
    _add_run_flags(oracle)
    oracle.add_argument("--report", help="write the oracle solutions JSON here")
    return parser


def _problem_from_args(args) -> QuadraticProblem:
    backend = BACKENDS[args.backend]
    if args.problem and args.kind:
        raise LinalgError("pass either --problem or --kind, not both")
    if args.problem:
        return load_problem(args.problem, backend)
    if not args.kind:
        raise LinalgError("a problem is required: --problem file or --kind ...")
    if args.n is None:
        raise LinalgError("--kind requires --n")
    spec = ProblemSpec(kind=args.kind, n=args.n, condition=args.cond, seed=args.seed)
    return generate_problem(spec, backend)


def _run_options(args) -> dict:
    scaling = DirectionScaling("cg_standard" if args.scaling == "cg" else "unit")
    return {
        "tol": args.tol,
        "max_iter": args.max_iter,
        "direction_mode": args.direction.replace("-", "_"),
        "scaling": scaling,
    }


def _tolerance_overrides() -> dict:
    raw = os.environ.get("CGLENS_TOL_OVERRIDES", "").strip()
    if not raw:
        return {}
    overrides = {}
    for pair in raw.replace(",", " ").split():
        name, eq, value = pair.partition("=")
        if not eq or name not in DEFAULT_TOLERANCES["f64"]:
            raise LinalgError(f"bad CGLENS_TOL_OVERRIDES entry {pair!r}")
        try:
            overrides[name] = (RATIONAL if "/" in value else F64).scalar(value)
            if overrides[name] < 0:  # no residual is below 0, so no check could pass
                raise LinalgError("a tolerance must not be negative")
        except LinalgError as err:
            raise LinalgError(f"bad CGLENS_TOL_OVERRIDES entry {pair!r}: {err}") from err
    return overrides


def _shown(x) -> float:
    """x as a float for display; an exact value past the float range shows as +-inf."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def cmd_generate(args) -> int:
    problem = _problem_from_args(args)
    save_problem(problem, args.out)
    print(f"wrote {problem.label} (n = {problem.n}, backend = {args.backend}) to {args.out}")
    return EXIT_OK


def cmd_solve(args) -> int:
    problem = _problem_from_args(args)
    trace = run_cg(problem, **_run_options(args))
    if args.trace:
        save_trace(trace, args.trace)
    final = trace.records[-1]
    print(f"problem   {trace.problem_id}")
    print(f"r         {trace.r} ({trace.termination_reason})")
    print(f"final |g| {math.sqrt(_shown(final.grad_norm_sq)):.3e}")
    print(f"q(x_r)    {_shown(evaluate(problem, final.x_k)):.12g}")
    if trace.termination_reason == "breakdown":
        return EXIT_BREAKDOWN
    return EXIT_OK


def _append_csv(path, report) -> None:
    names = [c.name for c in report.checks]
    exists = os.path.exists(path)
    with open(path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if not exists:
            writer.writerow(["problem_id", "n", "backend", "r", "overall", *names])
        row = report_to_dict(report)
        writer.writerow(
            [report.problem_id, report.n, report.backend, report.r, report.overall]
            + [c["measured"] for c in row["checks"]]
        )


def cmd_verify(args) -> int:
    problem = _problem_from_args(args)
    opts = _run_options(args)
    trace = run_cg(problem, **opts)
    if args.trace:
        save_trace(trace, args.trace)
    report = run_full_suite(problem, trace=trace, tolerances=_tolerance_overrides())
    for check in report.checks:
        flag = "pass" if check.passed else "FAIL"
        print(f"{flag}  {check.name:32s} measured {check.measured} "
              f"(tolerance {check.tolerance})")
    print(f"overall: {'pass' if report.overall else 'FAIL'} "
          f"[{report.problem_id}, r = {report.r}]")
    if args.report:
        save_json(report_to_dict(report), args.report)
    if args.csv:
        _append_csv(args.csv, report)
    if trace.termination_reason == "breakdown":
        return EXIT_BREAKDOWN
    return EXIT_OK if report.overall else EXIT_VERIFY_FAILED


def cmd_oracle(args) -> int:
    problem = _problem_from_args(args)
    trace = run_cg(problem, **_run_options(args))
    solutions = []
    for k, sol in enumerate(trace_oracle(problem, trace), start=1):
        deviation = math.sqrt(_shown(norm_sq(trace.records[k].x_k - sol.point)))
        solutions.append((k, sol, deviation))
        print(f"k = {k}: oracle objective {_shown(sol.objective_value):.12g}, "
              f"|x_k - oracle| = {deviation:.3e}")
    if trace.r == 0:
        print("r = 0: the start point already minimizes q" if trace.converged
              else f"r = 0: the run stopped ({trace.termination_reason}) before its first step")
    if args.report:
        _save_oracle_report(args.report, trace, problem.backend, solutions)
    if trace.termination_reason == "breakdown":
        return EXIT_BREAKDOWN
    return EXIT_OK


@_names_its_file
def _save_oracle_report(path, trace, backend, solutions) -> None:
    """Write the oracle's solutions as JSON, each number formatted before the file is opened."""
    payload = {"problem_id": trace.problem_id, "backend": backend.name, "solutions": [{
        "k": k,
        "coordinates": vector_tokens(sol.coordinates, backend),
        "point": vector_tokens(sol.point, backend),
        "objective": vector_tokens([sol.objective_value], backend)[0],
        "deviation_from_trace": repr(deviation),
    } for k, sol, deviation in solutions]}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": cmd_generate,
        "solve": cmd_solve,
        "verify": cmd_verify,
        "oracle": cmd_oracle,
    }
    try:
        return handlers[args.command](args)
    except (LinalgError, OSError, MemoryError) as err:
        # A problem too large to allocate is bad input too.
        print(f"error: {str(err) or 'out of memory'}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
