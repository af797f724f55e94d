"""Time-to-verdict benchmark for cglens.

Run from the repository root:

    python3 bench/run.py --workload verify-exact --seed 1 --seconds 35 --trace 0

A run times fresh interpreters importing `cglens.cli` (set-up), then
starts one fresh child interpreter (bench/worker.py) that sends the
workload's jobs back to back, and judges every verdict with the gate in
bench/gate.py.  It prints one line per job, every metric with its unit, and,
as its last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  With --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json, with --trace 1 the per-layer ones, measured from spans
around each module's public functions.  Job times in the end-to-end metrics
are scaled to a reference machine speed (bench/speed.py); raw times are
printed beside them.  A record of the run (provenance, every job, every span) is
written under bench/.out/.  The workloads and the held-out seed are in
bench/workloads.py.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import scaled
from tracer import MODULES, SPAN_METRICS, nesting_errors, span_times
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / ".out"
TIME_LIMIT_S = 170.0
SETUP_SAMPLES = 8  # before the worker, and as many again after it
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS")
COUNTS = ("engine.iterations", "mmio.problem_bytes", "mmio.trace_bytes",
          "verify.nonzero_exact_residuals")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def _loadavg() -> str | None:
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _child_env() -> dict:
    """The caller's environment, importing cglens from src/.

    Tolerance overrides are dropped, so no check can be loosened from
    outside, and bytecode caching is left on, so set-up does not depend on
    whether the caller turned it off.
    """
    env = dict(os.environ)
    env.pop("CGLENS_TOL_OVERRIDES", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def _setup_samples(env: dict, deadline: float, warm_up: bool) -> list[float]:
    """Seconds from starting a fresh interpreter to `import cglens.cli` done.

    The child reports CLOCK_MONOTONIC, which is system-wide, after the
    import.  The warm-up start is not timed: it writes the bytecode cache,
    which an installed package has too.  These are raw wall times: process
    start-up and imports do not follow the speed probe's drift closely.
    """
    code = "import time, cglens.cli; print(repr(time.monotonic()))"
    samples = []
    for i in range(SETUP_SAMPLES + warm_up):
        start = time.monotonic()
        done = subprocess.run([sys.executable, "-s", "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        if done.returncode != 0:
            raise BenchError(f"importing cglens.cli failed:\n{done.stderr.strip()}")
        if i or not warm_up:
            samples.append(float(done.stdout.split()[-1]) - start)
    return samples


def _run_worker(args, env: dict, raw: Path, deadline: float) -> dict:
    workdir = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    cmd = [sys.executable, "-s", str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), "--out", str(raw)]
    child = subprocess.Popen(cmd, env=env, cwd=ROOT)
    try:
        rc = child.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("the worker did not finish in time") from None
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if rc != 0:
        raise BenchError(f"the worker exited with code {rc}")
    with open(raw) as fh:
        return json.load(fh)


def _p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(result: dict, setup: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics of one untraced run, job times scaled and raw.

    A job's time is `generate` + `verify` with every output written;
    throughput is completed jobs over the time they took, so the gate's
    and the speed probe's time between jobs is left out.
    """
    jobs = [j for j in result["jobs"] if j["completed"]]
    if not jobs:
        raise BenchError("no job completed")
    metrics, raw = {}, {}
    for out, scale in ((metrics, True), (raw, False)):
        times = [scaled(j["seconds"], j["reference_s"]) if scale else j["seconds"] for j in jobs]
        out.update({
            "setup_s": statistics.median(setup),
            "verdict_s_p50": statistics.median(times),
            "verdict_s_p90": _p90(times),
            "verdicts_per_s": len(times) / sum(times),
            "peak_rss_mb": result["peak_rss_mb"],
        })
    return metrics, raw


def per_layer(result: dict) -> dict:
    """The per-layer metrics of one traced run: raw seconds per traced job, and counts.

    The tracing overhead is the median, over jobs, of the traced twin's
    time over the untraced twin's, minus 1; the twins run back to back, so
    the machine's drift between them is small.
    """
    spans = result["spans"]
    errors = nesting_errors(spans)
    if errors:
        raise BenchError("spans do not nest: " + "; ".join(errors[:5]))
    traced = [j for j in result["jobs"] if j["traced"]]
    inclusive, own = span_times(spans)
    metrics = {metric: inclusive.get(name, 0.0) / len(traced)
               for name, metric in SPAN_METRICS.items()}
    for module in MODULES:
        metrics[f"self.{module}_s"] = sum(
            t for name, t in own.items() if name.split(".")[0] == module) / len(traced)
    by_job: dict = {}
    for j in result["jobs"]:
        if j["completed"]:
            by_job.setdefault(j["sent"], {})[j["traced"]] = j["seconds"]
    ratios = [p[True] / p[False] for p in by_job.values() if len(p) == 2]
    metrics["trace.overhead_share"] = statistics.median(ratios) - 1.0 if ratios else 0.0
    counted = [j["counts"] for j in traced if "counts" in j]
    for name in COUNTS:
        metrics[name] = sum(c[name] for c in counted)
    metrics["engine.max_bits"] = max((c["engine.max_bits"] for c in counted), default=0)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cglens time-to-verdict benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (SRC / "cglens" / "cli.py").is_file():
        print(f"error: no cglens sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    OUT.mkdir(exist_ok=True)
    env = _child_env()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": _git_sha(), "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_thread_vars": {v: env.get(v) for v in BLAS_THREAD_VARS},
        "loadavg_start": _loadavg(),
    }
    raw_path = OUT / f"raw-{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}.json"
    try:
        setup = [] if args.trace else _setup_samples(env, deadline, warm_up=True)
        result = _run_worker(args, env, raw_path, deadline)
        if args.trace:
            metrics, raw = per_layer(result), {}
        else:
            setup += _setup_samples(env, deadline, warm_up=False)
            metrics, raw = end_to_end(result, setup)
        missing = [m["name"] for m in wanted if m["name"] not in metrics]
        if missing:
            raise BenchError(f"metrics not measured: {missing}")
    except (BenchError, OSError, subprocess.SubprocessError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        raw_path.unlink(missing_ok=True)
    record["loadavg_end"] = _loadavg()
    record.update(setup_samples_s=setup, **result, metrics=metrics, raw_metrics=raw)

    jobs = result["jobs"]
    # Counted per job of the seed's set, not per repetition, so that both
    # counts depend on the seed alone; a job that fails once has failed.
    attempted = {j["j"] for j in jobs}
    failed = {j["j"] for j in jobs if j["status"] != "pass"}
    for j in jobs:
        tag = " traced" if j["traced"] else ""
        print(f"job {j['j']:3d} (run {j['sent']}){tag} {j['kind']} n={j['n']} cond={j['cond']} seed={j['seed']} "
              f"{j['direction']}: {j['seconds']:.3f} s, r={j['r']}, {j['status']}"
              + (f" ({j['reason']})" if j["reason"] else ""))
    prov = result["provenance"]
    print(f"provenance: sha {record['git_sha']}, python {prov['python']}, numpy {prov['numpy']}, "
          f"{prov['blas']} ({prov['openblas_threads']} threads), nproc {record['nproc']}, "
          f"thread vars {record['blas_thread_vars']}, loadavg {record['loadavg_start']} -> "
          f"{record['loadavg_end']}")
    for m in wanted:
        extra = f"   (raw {raw[m['name']]:.6g})" if m["name"] in raw else ""
        print(f"{m['name']:36s} {metrics[m['name']]:14.6g} {m['unit']}{extra}")
    print(f"{'failed_share':36s} {len(failed) / len(attempted):14.6g} ratio "
          f"({len(failed)} of the set's {len(attempted)} jobs, sent {len(jobs)} times)")
    if not args.trace:
        references = [j["reference_s"] for j in jobs]
        print(f"reference work took {1000 * statistics.median(references):.3f} ms "
              f"(median of {len(references)}); verdict_s_p90 rests on "
              f"{sum(j['completed'] for j in jobs)} jobs")
    path = OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not any(j["status"] == "wrong" for j in jobs),
        "attempted": len(attempted),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
