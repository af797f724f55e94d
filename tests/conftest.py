"""Shared fixtures and the acceptance scoreboard.

The scoreboard collects one line per acceptance test and prints the
whole list in the terminal summary, so a full run always ends with a
readable PASS/FAIL table regardless of output capture settings.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

import pytest

from cglens import RATIONAL, ProblemSpec, generate_problem, run_cg, vector
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
