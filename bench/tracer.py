"""Spans around the calls into each `cglens` module, recorded from outside `src/`.

While installed, the tracer replaces the names through which one module
calls another (``cglens.cli.run_cg``, ``cglens.verify.verify_against_trace``,
...) with timing wrappers, and puts the originals back on exit.  Each span
is ``[name, start, end, parent, job]``: the name is ``<module>.<public
function>``, the parent is the index of the enclosing span, and spans of one
job share its job id.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

MODULES = ("cli", "problems", "quadratic", "linalg", "engine", "oracle", "minnorm",
           "verify", "mmio")

_CHECKS = ("gradient_orthogonality", "derivation_conditions", "exact_linesearch",
           "gradient_update_identity", "subspace_optimality", "min_norm_relation",
           "conjugacy", "termination_bound")

# (module whose global is replaced, global name, span name)
PATCHES = (
    [("cglens.cli", "generate_problem", "problems.generate_problem"),
     ("cglens.cli", "save_problem", "mmio.save_problem"),
     ("cglens.cli", "load_problem", "mmio.load_problem"),
     ("cglens.cli", "run_cg", "engine.run_cg"),
     ("cglens.cli", "save_trace", "mmio.save_trace"),
     ("cglens.cli", "run_full_suite", "verify.run_full_suite"),
     ("cglens.cli", "report_to_dict", "verify.report_to_dict"),
     ("cglens.problems", "QuadraticProblem", "quadratic.QuadraticProblem"),
     ("cglens.mmio", "QuadraticProblem", "quadratic.QuadraticProblem"),
     ("cglens.quadratic", "cholesky_spd_check", "linalg.cholesky_spd_check"),
     ("cglens.mmio", "load_trace", "mmio.load_trace")]
    + [("cglens.verify", f"check_{name}", f"verify.check_{name}") for name in _CHECKS]
    + [("cglens.verify", "verify_against_trace", "oracle.verify_against_trace"),
       ("cglens.verify", "min_norm_closed_form", "minnorm.min_norm_closed_form"),
       ("cglens.verify", "projection_oracle", "minnorm.projection_oracle"),
       ("cglens.oracle", "PivotedLDLT", "linalg.PivotedLDLT"),
       ("cglens.minnorm", "PivotedLDLT", "linalg.PivotedLDLT")]
)

# Per-layer metrics that are the inclusive time of one span name.
SPAN_METRICS = dict(
    [(f"verify.check_{name}", f"verify.{name}_s") for name in _CHECKS]
    + [("engine.run_cg", "engine.run_cg_s"),
       ("problems.generate_problem", "problems.generate_problem_s"),
       ("quadratic.QuadraticProblem", "quadratic.spd_validation_s"),
       ("mmio.save_problem", "mmio.save_problem_s"),
       ("mmio.load_problem", "mmio.load_problem_s"),
       ("mmio.save_trace", "mmio.save_trace_s"),
       ("mmio.load_trace", "mmio.load_trace_s")]
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self.job])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = perf_counter()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    @contextmanager
    def installed(self):
        originals = []
        try:
            for module_name, attr, name in PATCHES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                originals.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)


def span_times(spans) -> tuple[dict, dict]:
    """Inclusive and self seconds summed per span name.

    Self time is a span's duration minus the durations of its direct
    children; children of one span never overlap in this single-threaded
    program, so that is the part of the interval they do not cover.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, job in spans:
        if parent is not None:
            covered[parent] += end - start
    inclusive, own = defaultdict(float), defaultdict(float)
    for index, (name, start, end, parent, job) in enumerate(spans):
        inclusive[name] += end - start
        own[name] += end - start - covered[index]
    return dict(inclusive), dict(own)


def nesting_errors(spans) -> list[str]:
    """Spans that are open, outside their parent, in another job, or overlapping a sibling."""
    errors = []
    sibling_end: dict = {}
    for index, (name, start, end, parent, job) in enumerate(spans):
        if end is None or end < start:
            errors.append(f"span {index} {name} is not closed after it opened")
            continue
        if parent is not None:
            p_name, p_start, p_end, _, p_job = spans[parent]
            if not (parent < index and p_end is not None and p_start <= start and end <= p_end):
                errors.append(f"span {index} {name} lies outside its parent {p_name}")
            if p_job != job:
                errors.append(f"span {index} {name} is in job {job}, its parent in {p_job}")
        if start < sibling_end.get(parent, start):
            errors.append(f"span {index} {name} overlaps an earlier sibling")
        sibling_end[parent] = end
    return errors
