"""A fixed unit of CPU work that tracks how fast this machine runs right now.

Shared machines drift. On a 2-core cloud box a fixed loop took anywhere
from 20 to 70 ms within a few minutes, with no steal time reported, and
wall-clock medians of separate 25 s runs spread by 10-18%. The benchmark
times this chunk right before and after every timed region and reports
times in nominal seconds:

    nominal = measured * (NOMINAL_S / mean(chunk before, chunk after)) ** SENSITIVITY

The chunk mixes the three kinds of work serkit does: interpreter work with
object churn, a chain of closures over tiny arrays (like autodiff nodes), and
mid-sized matmuls and elementwise passes (like convolutions and attention).
SENSITIVITY is the slope of log(trial rate) on log(chunk time) measured on
that box over 50-90 trials per workload (0.3 to 0.6); a full correction (1.0)
over-corrects, because the chunk's own noise then enters every trial.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.04     # chunk time on a quiet 2-core Xeon with 1 BLAS thread
SENSITIVITY = 0.5

_TINY = np.ones((16, 27))
_LEFT = np.linspace(-1.0, 1.0, 64 * 192).reshape(64, 192)
_RIGHT = np.linspace(-1.0, 1.0, 192 * 200).reshape(192, 200)


def _interpreter(rounds: int = 100000) -> int:
    acc = 0
    items = []
    for i in range(rounds):
        acc += i * i
        if i % 20 == 0:
            items.append({"i": i})
    return acc + len(items)


def _closures(rounds: int = 2500) -> float:
    nodes = []
    x = _TINY
    for _ in range(rounds):
        y = x * 0.5 + 0.5

        def backward(g, y=y):
            return g * y

        nodes.append(backward)
        x = y
    g = _TINY
    for backward in reversed(nodes):
        g = backward(g)
    return float(g.sum())


def _arrays(rounds: int = 100) -> float:
    acc = 0.0
    for _ in range(rounds):
        b = _LEFT @ _RIGHT
        acc += float((np.maximum(b, 0.0) * 0.5 + b).sum())
    return acc


def chunk_s() -> float:
    """Seconds one reference chunk takes now."""
    start = time.perf_counter()
    _interpreter()
    _closures()
    _arrays()
    return time.perf_counter() - start


def nominal(seconds: float, chunk_before: float, chunk_after: float) -> float:
    """Measured seconds scaled to a machine on which the chunk takes NOMINAL_S."""
    return seconds * (2.0 * NOMINAL_S / (chunk_before + chunk_after)) ** SENSITIVITY
