"""Scaling benchmarks for the canonicity checkers.

Inputs are step-1 arithmetic systems (1, 2, ..., m): canonical, hence tight,
by construction, which the test suite confirms against the oracle at small
sizes. Timings use a monotonic clock, one discarded warm-up run per
(method, size), and medians across trials to resist scheduler noise.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from statistics import median
from typing import Iterable, Sequence

from .fastcheck import METHODS, TIGHT_METHODS
from .generate import arithmetic_system


@dataclass(frozen=True)
class BenchRow:
    method: str
    m: int
    c_max: int
    trial: int
    elapsed_ns: int
    verdict: str


def scaling_run(
    methods: Sequence[str],
    sizes: Sequence[int],
    trials: int = 3,
) -> list[BenchRow]:
    """Time each ``fastcheck.METHODS`` decider on arithmetic systems of each
    size, with the default budget."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    for name in methods:
        if name not in METHODS:
            raise ValueError(f"unknown method {name!r}")
        if name in TIGHT_METHODS and any(size < 6 for size in sizes):
            raise ValueError(f"{name} needs sizes of at least 6 denominations")
    rows = []
    for size in sizes:
        system = arithmetic_system(size, 1)
        for name in methods:
            fn = METHODS[name]
            fn(system, None)
            for trial in range(trials):
                t0 = time.perf_counter_ns()
                verdict = fn(system, None)
                elapsed = time.perf_counter_ns() - t0
                rows.append(BenchRow(
                    name, size, system.largest, trial, elapsed,
                    "canonical" if verdict.canonical else "non-canonical",
                ))
    return rows


def median_elapsed(rows: Iterable[BenchRow]) -> dict[tuple[str, int], float]:
    """Median elapsed nanoseconds per (method, size)."""
    groups: dict[tuple[str, int], list[int]] = {}
    for row in rows:
        groups.setdefault((row.method, row.m), []).append(row.elapsed_ns)
    return {key: median(vals) for key, vals in groups.items()}


def loglog_slope(points: dict[int, float]) -> float:
    """Least-squares slope of log(time) against log(size)."""
    if len(points) < 2:
        raise ValueError("need at least two sizes to fit a slope")
    xs = [math.log(m) for m in points]
    ys = [math.log(t) for t in points.values()]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    return num / den


def method_slope(rows: Iterable[BenchRow], method: str) -> float:
    med = median_elapsed(rows)
    points = {m: t for (name, m), t in med.items() if name == method}
    return loglog_slope(points)
