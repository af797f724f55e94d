"""The benchmark's workloads: which `cglens` jobs a run sends, drawn from its seed.

A job is one `cglens generate --out P.json` followed by one
`cglens verify --problem P.json --trace T.json --report R.json`.  Why each
workload exists is stated beside its name in BENCHMARK.json.

Job parameters come from a randomly shifted low-discrepancy (Kronecker)
sequence over each workload's parameter box, so that the first N jobs of
any seed cover the box evenly, and a run that stops part way through a
round has still sampled the whole box.  Job cost grows steeply with n and cond, so
independent uniform draws would let the seed, not the program, move a
run's median and tail.  The shift and every
`rand_spd` seed come from `random.Random(f"{workload}:{seed}")`, which is
deterministic across platforms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DIRECTIONS = ("recursive", "gradient-sum", "shortest-residuals")

# Held out for later claims: never used while tuning the benchmark or a change.
HELD_OUT_SEED = 90210

# Kronecker step sizes: 1/phi in one dimension, the plastic-number pair in two.
_ALPHA_1 = (0.6180339887498949,)
_ALPHA_2 = (0.7548776662466927, 0.5698402909980532)


@dataclass(frozen=True)
class Job:
    """The drawn parameters of one generate + verify job."""

    index: int
    kind: str
    n: int
    backend: str
    direction: str
    cond: int | float | None = None
    seed: int | None = None
    tol: float | None = None

    def generate_argv(self, out: str) -> list[str]:
        argv = ["generate", "--kind", self.kind, "--n", str(self.n), "--backend", self.backend]
        if self.cond is not None:
            argv += ["--cond", repr(self.cond), "--seed", str(self.seed)]
        return argv + ["--out", out]

    def verify_argv(self, problem: str, trace: str, report: str) -> list[str]:
        argv = ["verify", "--problem", problem, "--backend", self.backend,
                "--direction", self.direction]
        if self.tol is not None:
            argv += ["--tol", repr(self.tol)]
        return argv + ["--trace", trace, "--report", report]

    def describe(self) -> dict:
        return {"j": self.index, "kind": self.kind, "n": self.n, "cond": self.cond,
                "seed": self.seed, "direction": self.direction, "backend": self.backend,
                "tol": self.tol}


def _in_range(u: float, lo: int, hi: int) -> int:
    """Map u in [0, 1) onto the integers lo..hi, each with equal share."""
    return lo + min(int(u * (hi - lo + 1)), hi - lo)


class Workload:
    """A named set of jobs drawn from one seed; `job(j)` is the j-th of them."""

    name: str
    # Size of the seed's job set.  A run sends the set round after round
    # until --seconds have passed, and always completes one whole round, so
    # `attempted`, `failed` and the traced run's counts are over exactly
    # these jobs and repeat per seed, however fast the machine is.
    set_size: int
    alphas: tuple[float, ...]

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.shift = tuple(self.rng.random() for _ in self.alphas)
        self._jobs: list[Job] = []

    def job(self, j: int) -> Job:
        """The j-th job of the seed's set, 0 <= j < set_size."""
        if not 0 <= j < self.set_size:
            raise IndexError(f"job {j} is outside the set of {self.set_size}")
        while len(self._jobs) <= j:
            k = len(self._jobs)
            u = tuple((s + (k + 1) * a) % 1.0 for s, a in zip(self.shift, self.alphas))
            self._jobs.append(self._draw(k, u))
        return self._jobs[j]

    def _draw(self, j: int, u: tuple[float, ...]) -> Job:
        raise NotImplementedError


class VerifyExact(Workload):
    name = "verify-exact"
    set_size = 96  # a multiple of 3, so each direction has a third
    alphas = _ALPHA_2

    def _draw(self, j, u):
        return Job(index=j, kind="rand_spd", n=_in_range(u[0], 12, 16), backend="rational",
                   direction=DIRECTIONS[j % 3], cond=_in_range(u[1], 8, 14),
                   seed=self.rng.getrandbits(32))


class VerifyF64Long(Workload):
    name = "verify-f64-long"
    set_size = 15
    alphas = _ALPHA_1

    def _draw(self, j, u):
        return Job(index=j, kind="laplacian1d", n=_in_range(u[0], 175, 185), backend="f64",
                   direction="recursive", tol=1e-7)


class SweepF64(Workload):
    name = "sweep-f64"
    set_size = 60
    alphas = _ALPHA_1

    def _draw(self, j, u):
        return Job(index=j, kind="rand_spd", n=_in_range(u[0], 150, 250), backend="f64",
                   direction="recursive", cond=1e4, seed=self.rng.getrandbits(32), tol=1e-2)


WORKLOADS = {w.name: w for w in (VerifyExact, VerifyF64Long, SweepF64)}
