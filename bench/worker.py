"""One benchmark run: a closed loop of `cglens` jobs in this fresh interpreter.

Started by run.py with PYTHONPATH set to the checkout's src/.  One client
sends jobs back to back: each job calls `cglens.cli.main` in-process for
`generate`, then `verify`, and the gate judges the outputs outside the
timed part.  The jobs are the seed's fixed set (`set_size` of them), sent
round after round until --seconds have passed; the first round is always
completed.  With --trace 1 every job runs twice, once traced and once not,
in alternating order, so the traced run measures its own overhead.  The raw
results, spans included, go to --out as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import sys
import traceback
from time import perf_counter

import numpy as np

import cglens
from cglens import cli

import gate
from speed import reference_work
from tracer import Tracer
from workloads import WORKLOADS


def _openblas_threads():
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                return getter()
    return None


def _provenance() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_threads": _openblas_threads(),
        "cglens": os.path.dirname(cglens.__file__),
    }


def _max_bits(trace) -> int:
    """Largest numerator or denominator bit length anywhere in an exact trace."""
    best = 0
    for rec in trace.records:
        values = [rec.grad_norm_sq, rec.theta_k, rec.beta_k, rec.c_k]
        for vec in (rec.x_k, rec.g_k, rec.p_k):
            if vec is not None:
                values.extend(vec)
        for v in values:
            if v is not None:
                best = max(best, v.numerator.bit_length(), v.denominator.bit_length())
    return best


def run_job(job, workdir: str, tracer: Tracer | None, counted: bool) -> dict:
    paths = [os.path.join(workdir, name) for name in ("P.json", "T.json", "R.json")]
    for path in paths:
        if os.path.exists(path):
            os.remove(path)
    problem, trace_path, report = paths
    main = cli.main if tracer is None else tracer.wrap("cli.main", cli.main)
    rc_generate = rc_verify = error = None
    with tracer.installed() if tracer else contextlib.nullcontext():
        start = perf_counter()
        try:
            with tracer.span("job") if tracer else contextlib.nullcontext(), \
                    contextlib.redirect_stdout(io.StringIO()):
                rc_generate = main(job.generate_argv(problem))
                if rc_generate == 0:
                    rc_verify = main(job.verify_argv(problem, trace_path, report))
        except Exception:  # a crashing job is a failed job; the loop goes on
            error = traceback.format_exc(limit=-2)
        seconds = perf_counter() - start
        status, reason, trace = gate.judge(job, rc_generate, rc_verify, *paths)
    if error is not None:
        status, reason = gate.FAIL, error.strip().splitlines()[-1]
    record = {"traced": tracer is not None, "seconds": seconds, "completed": error is None,
              "status": status, "reason": reason, "traceback": error,
              "r": trace.r if trace is not None else None}
    if counted and trace is not None:
        with open(report) as fh:
            measured = [c["measured"] for c in json.load(fh)["checks"]]
        exact = job.backend == "rational"
        record["counts"] = {
            "engine.iterations": trace.r,
            "engine.max_bits": _max_bits(trace) if exact else 0,
            "mmio.problem_bytes": os.path.getsize(problem),
            "mmio.trace_bytes": os.path.getsize(trace_path),
            "verify.nonzero_exact_residuals": sum(m != "0" for m in measured) if exact else 0,
        }
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    expected = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if os.path.dirname(os.path.dirname(os.path.abspath(cglens.__file__))) != expected:
        print(f"error: imported cglens from {cglens.__file__}, not from {expected}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.trace else None
    records = []
    os.makedirs(args.workdir, exist_ok=True)
    start = perf_counter()
    try:
        sent = 0
        while sent < workload.set_size or perf_counter() - start < args.seconds:
            job = workload.job(sent % workload.set_size)
            order = [None] if tracer is None else [None, tracer] if sent % 2 == 0 else [tracer, None]
            for t in order:
                if t is not None:
                    t.job = sent
                counted = t is not None and sent < workload.set_size
                reference = reference_work()
                records.append({**job.describe(), "sent": sent, "reference_s": reference,
                                **run_job(job, args.workdir, t, counted)})
            sent += 1
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    result = {
        "wall_s": perf_counter() - start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "provenance": _provenance(),
        "jobs": records,
        "spans": tracer.spans if tracer else None,
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
