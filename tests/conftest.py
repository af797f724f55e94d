"""Shared fixtures and the acceptance scoreboard.

The scoreboard collects one line per acceptance test and prints the
whole list in the terminal summary, so a full run always ends with a
readable PASS/FAIL table regardless of output capture settings.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, replace

import pytest
from hypothesis import strategies as st

from cglens import RATIONAL, ProblemSpec, generate_problem, norm_sq, run_cg, vector
from cglens.linalg import sym_matrix
from cglens.quadratic import QuadraticProblem
from cglens.engine import CGTrace

_SCOREBOARD: dict[int, tuple[str, bool]] = {}


def record_criterion(number: int, title: str, passed: bool) -> None:
    _SCOREBOARD[number] = (title, passed)


@contextmanager
def criterion(number: int, title: str):
    """Record PASS iff the body runs to completion without failing."""
    try:
        yield
    except BaseException:
        record_criterion(number, title, False)
        raise
    record_criterion(number, title, True)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _SCOREBOARD:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_SCOREBOARD):
        title, passed = _SCOREBOARD[number]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number}: {verdict} - {title}")


@pytest.fixture
def p1() -> QuadraticProblem:
    """The worked 2x2 problem: H = diag(1,2), c = (-1,-2), x0 = 0."""
    return QuadraticProblem(
        H=sym_matrix([[1, 0], [0, 2]], RATIONAL),
        c=vector([-1, -2], RATIONAL),
        x0=vector([0, 0], RATIONAL),
        label="p1",
    )


BATCH_SEEDS = tuple(range(50))


def batch_spec(seed: int) -> ProblemSpec:
    """Deterministic integer SPD instances covering every n in 2..12."""
    return ProblemSpec(kind="rand_spd", n=2 + seed % 11, condition=20, seed=seed)


@dataclass(frozen=True)
class ExactBatch:
    pairs: tuple[tuple[QuadraticProblem, CGTrace], ...]
    build_seconds: float


@pytest.fixture(scope="session")
def exact_batch() -> ExactBatch:
    """Fifty exact-arithmetic problems with their solved traces."""
    t0 = time.perf_counter()
    pairs = []
    for seed in BATCH_SEEDS:
        P = generate_problem(batch_spec(seed), RATIONAL)
        pairs.append((P, run_cg(P)))
    return ExactBatch(pairs=tuple(pairs), build_seconds=time.perf_counter() - t0)


@st.composite
def dependent_rational_vectors(draw, n: int = 3):
    """2 to 6 rational vectors in Q^n, each a fresh vector, a zero vector,
    or a rational combination of earlier ones, so the list is often
    dependent and its affine hull often passes through the origin."""
    small = st.fractions(min_value=-3, max_value=3, max_denominator=5)
    vectors = []
    for _ in range(draw(st.integers(min_value=2, max_value=6))):
        kind = draw(st.sampled_from(["fresh", "fresh", "zero", "combination"]))
        if kind == "combination" and vectors:
            weights = [draw(small) for _ in vectors]
            v = sum((w * u for w, u in zip(weights, vectors)), vector([0] * n, RATIONAL))
        elif kind == "zero":
            v = vector([0] * n, RATIONAL)
        else:
            v = vector([draw(small) for _ in range(n)], RATIONAL)
        v.flags.writeable = False
        vectors.append(v)
    return vectors


def with_record(trace, k, **changes):
    """The trace with fields of record k replaced, in one ``dataclasses.replace``
    of the trace, which ``CGTrace`` judges.  A new g_k comes with the grad_norm_sq
    and the beta_k of record k and the beta_k of record k + 1 that ``run_cg`` would
    write, unless ``changes`` gives grad_norm_sq; after a zero norm, which no beta
    follows, beta_{k+1} stays as it was."""
    records = list(trace.records)
    if changes.get("g_k") is not None and "grad_norm_sq" not in changes:
        gns = changes["grad_norm_sq"] = norm_sq(changes["g_k"])
        if k > 0:
            changes.setdefault("beta_k", gns / records[k - 1].grad_norm_sq)
        if k < trace.r and gns != 0:
            records[k + 1] = replace(records[k + 1], beta_k=records[k + 1].grad_norm_sq / gns)
    records[k] = replace(records[k], **changes)
    return replace(trace, records=tuple(records))
