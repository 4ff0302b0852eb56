"""Kernel micro-timings, reported with the per-layer metrics of a traced run.

Each kernel runs in a plain ``perf_counter`` loop inside the benchmark
process; the reported value is the median over REPEATS timed loops.
"""

from __future__ import annotations

import logging
import statistics
import time

REPEATS = 7


def _per_call(fn, calls: int) -> float:
    """Median seconds per call of ``fn`` over REPEATS loops of ``calls`` calls."""
    fn()
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - start) / calls)
    return statistics.median(samples)


def measure(data_dir) -> dict[str, float]:
    from langdei import allocator, curves, io, metrics

    numbers = [0.0, 1.0, 77.6, 0.565217391304, -3.18090890004, 1e-7, 123456.789, float("inf")]
    fmt = _per_call(lambda: [io.fmt_num(x) for x in numbers], 2000) / len(numbers)

    vector = [0.795 if i % 3 else 0.1 * i for i in range(23)]
    gini = _per_call(lambda: metrics.gini(vector), 2000)

    points = [curves.TrajectoryPoint("bn", "hi", x, 0.8 - 4.0 * x ** -0.5)
              for x in (50, 100, 200, 500, 1000, 2000, 5000, 10000)]
    fit = _per_call(lambda: curves.fit_power_law(points), 20)

    # The bundled registry lacks one pair; the permissive policy logs it.
    logging.getLogger("langdei.allocator").setLevel(logging.ERROR)
    registry = io.load_curve_registry(data_dir / "curves_muril.txt")
    speakers = io.load_speakers(data_dir / "speakers.csv")
    targets = tuple(sorted({t for _, t in registry}))
    request = allocator.AllocationRequest(
        budget=2000, sources=tuple(sorted({s for s, _ in registry})), targets=targets,
        registry=registry, demand=metrics.demand(speakers, targets, 1.0), missing="permissive")
    step = _per_call(lambda: allocator.greedy_allocate(request), 1) / request.budget

    return {
        "io.fmt_num.ns": fmt * 1e9,
        "metrics.gini.us": gini * 1e6,
        "curves.fit_power_law.ms": fit * 1e3,
        "allocator.step.us": step * 1e6,
    }
