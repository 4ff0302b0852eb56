"""Randomized property checks for the Gini coefficient, shared between the
unit suite (small iteration counts) and the acceptance suite (>= 1000 each),
a ``replace`` for records, and reference forms of the performance table:
its cells as a mapping, its rows grouped, the per-row loader and the
per-row Lorenz text that the columnar code is compared against.

Vectors come from a seeded generator, so every run sees the same cases.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from langdei.errors import InputError, check_id
from langdei.io import _located, _parse_float, _read_csv_rows, fmt_num
from langdei.metrics import PerformanceTable, ScorecardRow, gini, lorenz_points


def random_vector(rng: np.random.Generator, min_n: int = 2, max_n: int = 64) -> np.ndarray:
    n = int(rng.integers(min_n, max_n + 1))
    v = rng.uniform(0.0, 10.0, size=n)
    if v.sum() == 0:  # pragma: no cover - measure-zero event
        v[0] = 1.0
    return v


def check_robin_hood(rng: np.random.Generator, iterations: int) -> None:
    """Transferring from a larger to a smaller entry, without crossing,
    strictly decreases G."""
    done = 0
    while done < iterations:
        v = random_vector(rng)
        i, j = rng.integers(0, v.size, size=2)
        if v[i] == v[j]:
            continue
        lo, hi = (i, j) if v[i] < v[j] else (j, i)
        delta = (v[hi] - v[lo]) / 2 * rng.uniform(0.05, 0.95)
        w = v.copy()
        w[hi] -= delta
        w[lo] += delta
        assert gini(w) < gini(v)
        done += 1


def check_scale_invariance(rng: np.random.Generator, iterations: int) -> None:
    """G(k v) == G(v): exact for power-of-two factors, 1e-12 otherwise."""
    for _ in range(iterations):
        v = random_vector(rng)
        g = gini(v)
        assert gini(v * 2.0 ** int(rng.integers(-8, 9))) == g
        assert abs(gini(v * rng.uniform(0.01, 100.0)) - g) <= 1e-12


def check_rising_tide(rng: np.random.Generator, iterations: int) -> None:
    """Adding a positive constant to a non-constant vector decreases G."""
    done = 0
    while done < iterations:
        v = random_vector(rng)
        if v.max() == v.min():
            continue
        c = rng.uniform(0.01, 10.0)
        assert gini(v + c) < gini(v)
        done += 1


def check_cloning(rng: np.random.Generator, iterations: int) -> None:
    for _ in range(iterations):
        v = random_vector(rng)
        assert abs(gini(np.concatenate([v, v])) - gini(v)) <= 1e-12


def check_bill_gates(rng: np.random.Generator, iterations: int) -> None:
    """Letting one entry blow up drives G toward its ceiling (n-1)/n."""
    for _ in range(iterations):
        v = random_vector(rng, min_n=2, max_n=10)
        i = int(rng.integers(0, v.size))
        lo = v.copy()
        lo[i] = 1e3
        hi = v.copy()
        hi[i] = 1e6
        n = v.size
        assert gini(hi) > gini(lo)
        assert abs(gini(hi) - (n - 1) / n) <= 1e-3


def check_babies(rng: np.random.Generator, iterations: int) -> None:
    """Appending a zero entry strictly increases G for positive-mean vectors."""
    for _ in range(iterations):
        v = random_vector(rng) + 0.01
        assert gini(np.append(v, 0.0)) > gini(v)


def gini_mean_abs_difference(values: np.ndarray) -> float:
    """Independent oracle: sum_ij |y_i - y_j| / (2 n^2 mean)."""
    y = np.asarray(values, dtype=float)
    n = y.size
    return float(np.abs(y[:, None] - y[None, :]).sum() / (2.0 * n * n * y.mean()))


def gini_from_lorenz(curve: Sequence[tuple[float, float]]) -> float:
    """Gini coefficient as 1 - 2 * (trapezoidal area under the Lorenz curve)."""
    if len(curve) < 2:
        raise InputError("a Lorenz curve needs at least two points")
    xs = [p[0] for p in curve]
    ys = [p[1] for p in curve]
    if (xs[0], ys[0]) != (0.0, 0.0) or (xs[-1], ys[-1]) != (1.0, 1.0):
        raise InputError("a Lorenz curve must start at (0, 0) and end at (1, 1)")
    for i in range(1, len(curve)):
        if xs[i] < xs[i - 1] or ys[i] < ys[i - 1]:
            raise InputError(f"Lorenz curve coordinates must be nondecreasing (violated at point {i})")
    area = 0.0
    for i in range(1, len(curve)):
        area += (xs[i] - xs[i - 1]) * (ys[i] + ys[i - 1]) / 2.0
    return 1.0 - 2.0 * area


def replace(record, **changes):
    """A copy of ``record`` with ``changes`` to its fields, as
    ``dataclasses.replace`` makes of a dataclass."""
    fields = {name: getattr(record, name) for name in type(record).__annotations__}
    return type(record)(**{**fields, **changes})


def check_oracle_equivalence(rng: np.random.Generator, iterations: int) -> None:
    """Discrete formula == mean-absolute-difference form == Lorenz trapezoid."""
    for _ in range(iterations):
        v = random_vector(rng, min_n=1, max_n=12)
        g = gini(v)
        assert abs(g - gini_mean_abs_difference(v)) <= 1e-12
        assert abs(g - gini_from_lorenz(lorenz_points(v))) <= 1e-12


ALL_PROPERTIES = (
    ("robin_hood", check_robin_hood),
    ("scale_invariance", check_scale_invariance),
    ("rising_tide", check_rising_tide),
    ("cloning", check_cloning),
    ("bill_gates", check_bill_gates),
    ("babies", check_babies),
)


def table_cells(perf: PerformanceTable) -> dict[tuple[str, str, str, str], float]:
    """The cells of a performance table as {(task, model, train language,
    target language): raw score}, in column order."""
    return {(*perf.keys[r], perf.languages[t]): s
            for r, t, s in zip(perf.row.tolist(), perf.target.tolist(), perf.score.tolist())}


def groups(scores: Mapping[tuple[str, str, str, str], float]) -> list[tuple[tuple[str, str, str], dict[str, float]]]:
    """Cells grouped by (task, model, train language), sorted for determinism."""
    grouped: dict[tuple[str, str, str], dict[str, float]] = {}
    for (task, model, train, target), score in scores.items():
        grouped.setdefault((task, model, train), {})[target] = score
    return [(key, grouped[key]) for key in sorted(grouped)]


def reference_load_performance(path, scale: str = "percent") -> dict[tuple[str, str, str, str], float]:
    """The per-row loader that ``io.load_performance`` replaced: each row is
    checked in full, in file order (repeated cell, then ids, then score),
    before the next is read; the cells come back as a mapping."""
    factor = 100.0 if scale == "unit" else 1.0
    scores: dict[tuple[str, str, str, str], float] = {}
    valid_ids: set[str] = set()
    header = ("task", "model", "train_lang", "target_lang", "score")
    for lineno, (task, model, train, target, score_text) in _read_csv_rows(path, header):
        key = (task, model, train, target)
        if key in scores:
            raise InputError(f"{path}:{lineno}: duplicate row for {key}")
        if task not in valid_ids or model not in valid_ids or train not in valid_ids:
            for ident, what in ((task, "task id"), (model, "model id"), (train, "train language")):
                _located(f"{path}:{lineno}", check_id, ident, what)
            valid_ids.update((task, model, train))
        try:
            score = float(score_text) * factor
        except ValueError:
            score = math.nan
        if not 0.0 <= score < math.inf:
            _parse_float(score_text, f"{path}:{lineno}")
            raise InputError(f"{path}:{lineno}: score must be finite and non-negative, got {score_text}")
        scores[key] = score
    return scores


def reference_lorenz_text(rows: Sequence[ScorecardRow]) -> str:
    """The Lorenz CSV as ``lorenz_points`` of each row gives it, one point
    at a time, rows sorted by (task, model, train language)."""
    lines = ["task,model,train_lang,population_fraction,cumulative_share"]
    for row in sorted(rows, key=lambda r: (r.task, r.model, r.train_lang)):
        for x, y in lorenz_points(row.utilities):
            lines.append(f"{row.task},{row.model},{row.train_lang},{fmt_num(x)},{fmt_num(y)}")
    return "\n".join(lines) + "\n"
