"""The benchmark's own self-test; run from the repository root:

    python3 bench/selftest.py

1. At smoke size (--seconds 0: each run sends its workload's job set
   once), every workload prints every metric named in
   BENCHMARK.json exactly once, with its unit, for --trace 0 and --trace 1.
2. The gate rejects a doctored exact report (one nonzero residual) and a
   wrong final iterate, exact and float64, as silent wrong answers.
3. Traced spans nest, and the nesting check catches spans that do not.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
from tracer import Tracer, nesting_errors  # noqa: E402
from worker import run_job  # noqa: E402
from workloads import WORKLOADS, Job  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def check_metric_names() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json names the workloads of workloads.py")
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in spec["workloads"]:
        for trace in (0, 1):
            cmd = [*spec["command"], "--workload", workload["name"], "--seed", "1",
                   "--seconds", "0", "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            what = f"{workload['name']} --trace {trace}"
            if done.returncode != 0:
                expect(False, f"{what} exited {done.returncode}: {done.stderr.strip()[-300:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == expected[trace] and len(result["metrics"]) == len(expected[trace]),
                   f"{what} reports exactly the metrics of BENCHMARK.json with their units")
            expect(result["attempted"] >= 1 and result["correct"] is True,
                   f"{what} attempted {result['attempted']}, correct {result['correct']}")


def _doctor(path: str, change) -> None:
    with open(path) as fh:
        data = json.load(fh)
    change(data)
    with open(path, "w") as fh:
        json.dump(data, fh)


def _judge(job, workdir):
    paths = [os.path.join(workdir, name) for name in ("P.json", "T.json", "R.json")]
    return gate.judge(job, 0, 0, *paths)[0]


def check_gate(workdir: str) -> None:
    exact = Job(index=0, kind="laplacian1d", n=6, backend="rational", direction="recursive")
    f64 = Job(index=0, kind="laplacian1d", n=40, backend="f64", direction="recursive", tol=1e-7)
    for job in (exact, f64):
        record = run_job(job, workdir, None, counted=False)
        expect(record["status"] == gate.PASS, f"gate passes a clean {job.backend} job")
        _doctor(os.path.join(workdir, "T.json"),
                lambda t: t["records"][-1]["x"].__setitem__(2, "2" if job is exact else 1.5))
        expect(_judge(job, workdir) == gate.WRONG,
               f"gate rejects a wrong final {job.backend} iterate")
    run_job(exact, workdir, None, counted=False)
    _doctor(os.path.join(workdir, "R.json"),
            lambda r: r["checks"][3].__setitem__("measured", "1/1000000"))
    expect(_judge(exact, workdir) == gate.WRONG,
           "gate rejects a passing exact report with one nonzero residual")
    status = gate.judge(exact, 0, 1, *[os.path.join(workdir, n)
                                       for n in ("P.json", "T.json", "R.json")])[0]
    expect(status == gate.FAIL, "gate counts a nonzero exit code as a failed job")


def check_spans(workdir: str) -> None:
    tracer = Tracer()
    for j, direction in enumerate(("recursive", "shortest-residuals")):
        tracer.job = j
        job = Job(index=j, kind="rand_spd", n=8, backend="rational", direction=direction,
                  cond=5, seed=j)
        run_job(job, workdir, tracer, counted=True)
    names = {span[0] for span in tracer.spans}
    expect(not nesting_errors(tracer.spans) and {"job", "cli.main", "oracle.verify_against_trace",
                                                 "linalg.PivotedLDLT"} <= names,
           f"{len(tracer.spans)} traced spans nest inside their parents")
    broken = [list(s) for s in tracer.spans]
    child = next(s for s in broken if s[3] is not None)
    child[2] = broken[child[3]][2] + 1.0
    expect(bool(nesting_errors(broken)), "the nesting check catches a span outliving its parent")


def main() -> int:
    (BENCH / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / ".work") as workdir:
        check_gate(workdir)
        check_spans(workdir)
    check_metric_names()
    print(f"{len(FAILURES)} failed" if FAILURES else "all self-tests passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
