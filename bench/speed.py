"""The machine's speed, measured with a fixed piece of Python work.

On the 2-vCPU VM this benchmark was built on, CPU speed drifted by up to
1.6x over minutes, so raw wall times of one program differed by that much
from run to run.  The worker times `reference_work()` in its own process
just before each job, and the benchmark reports job times scaled to a
machine on which the reference work takes `REFERENCE_S`:
``scaled = measured * REFERENCE_S / reference``.  On five seeds of
verify-f64-long this cut the run-to-run spread of the median job time from
0.13 to 0.05 of the median.  Raw times are printed and recorded beside the
scaled ones.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

import numpy as np

REFERENCE_S = 0.005


def reference_work() -> float:
    """Seconds this process takes for the fixed work.

    Python-level Fraction and int arithmetic, as in the exact jobs, then
    NumPy row updates on a small float matrix, as in the float64 jobs.
    """
    start = perf_counter()
    acc, s = Fraction(0), 0
    for i in range(1, 300):
        acc += Fraction(1, i)
    for i in range(30000):
        s += i * i % 7
    W = np.eye(100) + 1e-3
    for t in range(99):
        col = W[t + 1:, t] / W[t, t]
        W[t + 1:, t + 1:] -= np.outer(col, col) * W[t, t]
    return perf_counter() - start


def scaled(seconds: float, reference: float) -> float:
    return seconds * REFERENCE_S / reference
