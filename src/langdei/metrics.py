"""Demand-weighted quality and equity metrics over a fixed language universe.

Three quantities are computed per (task, model, training-language) row:

* utility: raw score divided by the task's best attainable score, in [0, 1];
* the global metric ``M = sum_l d_l * u_l`` where the demand weight ``d_l``
  interpolates between uniform (tau=0) and speaker-proportional (tau=1);
* the Gini coefficient of the per-language utilities, the equity measure.

Languages in the universe without a test set carry utility 0 unless the
caller asks for the tested-only variant, which restricts the universe to
languages that actually have scores.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from langdei.errors import ComputationError, InputError, check_id

# The 22 scheduled languages plus English; the default universe for all
# metrics. Order matters only for deterministic output.
DEFAULT_UNIVERSE: tuple[str, ...] = (
    "as", "bn", "brx", "doi", "en", "gu", "hi", "kn", "kok", "ks", "mai",
    "ml", "mni", "mr", "ne", "or", "pa", "sa", "sat", "sd", "ta", "te", "ur",
)


@dataclass(frozen=True)
class SpeakerTable:
    """Speaker populations per language, in millions."""

    entries: Mapping[str, float]

    def __post_init__(self) -> None:
        for lang, count in self.entries.items():
            self.check_entry(lang, count)

    @staticmethod
    def check_entry(lang: str, count: float) -> None:
        """The rule every entry obeys: a valid code and a finite count >= 0."""
        check_id(lang, "language code")
        if not math.isfinite(count) or count < 0:
            raise InputError(f"speaker count for {lang!r} must be a finite non-negative number, got {count}")

    def millions(self, lang: str) -> float:
        try:
            return float(self.entries[lang])
        except KeyError:
            raise InputError(f"no speaker entry for language {lang!r}") from None

    def __contains__(self, lang: str) -> bool:
        return lang in self.entries

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class TaskSpec:
    """A task identifier and its best attainable raw score (percent scale)."""

    task_id: str
    max_performance: float

    def __post_init__(self) -> None:
        check_id(self.task_id, "task id")
        if not math.isfinite(self.max_performance) or self.max_performance <= 0:
            raise InputError(
                f"max performance for task {self.task_id!r} must be positive, got {self.max_performance}"
            )


@dataclass(frozen=True)
class PerformanceTable:
    """Raw scores keyed by (task, model, train language, target language)."""

    scores: Mapping[tuple[str, str, str, str], float]

    def groups(self) -> list[tuple[tuple[str, str, str], dict[str, float]]]:
        """Rows grouped by (task, model, train language), sorted for determinism."""
        grouped: dict[tuple[str, str, str], dict[str, float]] = {}
        for (task, model, train, target), score in self.scores.items():
            grouped.setdefault((task, model, train), {})[target] = score
        return [(key, grouped[key]) for key in sorted(grouped)]


@dataclass(frozen=True)
class ScorecardRow:
    """One scorecard row; ``utilities`` is the per-language vector, in
    universe order, that ``m_tau`` and ``gini_coeff`` were computed from."""

    task: str
    model: str
    train_lang: str
    m_tau: float
    gini_coeff: float
    tested: int
    universe_size: int
    utilities: tuple[float, ...]


def utility(raw_score: float, task: TaskSpec) -> float:
    """Normalize a raw score by the task's best attainable score.

    Scores above the maximum clamp to 1.0 with a warning: the maximum is an
    estimate and machine scores occasionally exceed it.
    """
    if not math.isfinite(raw_score) or raw_score < 0:
        raise InputError(f"raw score must be a finite non-negative number, got {raw_score}")
    if raw_score > task.max_performance:
        warnings.warn(
            f"score {raw_score} exceeds task {task.task_id!r} maximum "
            f"{task.max_performance}; clamping utility to 1.0",
            stacklevel=2,
        )
        return 1.0
    return raw_score / task.max_performance


def _check_universe(universe: Sequence[str]) -> tuple[str, ...]:
    codes = tuple(universe)
    if not codes:
        raise InputError("language universe must be non-empty")
    for code in codes:
        check_id(code, "language code")
    if len(set(codes)) != len(codes):
        dupes = sorted({c for c in codes if codes.count(c) > 1})
        raise InputError(f"duplicate language codes in universe: {', '.join(dupes)}")
    return codes


def demand(speakers: SpeakerTable, universe: Sequence[str], tau: float) -> dict[str, float]:
    """Per-language demand weights d_l = n_l^tau / sum n^tau, summing to 1.

    tau=0 weighs every language equally; tau=1 weighs by speaker population.
    Intermediate values are accepted. Speaker entries are only required when
    tau > 0.
    """
    codes = _check_universe(universe)
    if not (isinstance(tau, (int, float)) and math.isfinite(tau) and 0.0 <= tau <= 1.0):
        raise InputError(f"tau must lie in [0, 1], got {tau}")
    if tau == 0:
        n = len(codes)
        return {lang: 1.0 / n for lang in codes}
    powered = {}
    for lang in codes:
        if lang not in speakers:
            raise InputError(f"tau={tau} requires a speaker count for language {lang!r}")
        powered[lang] = speakers.millions(lang) ** tau
    total = sum(powered.values())
    if total <= 0:
        raise ComputationError("demand is undefined: all speaker counts in the universe are zero")
    return {lang: value / total for lang, value in powered.items()}


def global_metric(utilities: Sequence[float], weights: Sequence[float]) -> float:
    """Demand-weighted mean utility. 0 means no user benefits; 1 means every
    language user enjoys perfect technology."""
    if len(utilities) != len(weights):
        raise InputError(
            f"utilities ({len(utilities)}) and weights ({len(weights)}) must have the same length"
        )
    if len(utilities) == 0:
        raise InputError("cannot compute the global metric over an empty universe")
    return float(np.dot(np.asarray(utilities, dtype=float), np.asarray(weights, dtype=float)))


def _as_nonnegative_array(values: Iterable[float]) -> np.ndarray:
    arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise InputError("expected a non-empty 1-d vector of values")
    if not np.all(np.isfinite(arr)):
        raise InputError("values must be finite")
    if np.any(arr < 0):
        raise InputError("values must be non-negative")
    return arr


def gini(values: Iterable[float]) -> float:
    """Gini coefficient of a non-negative vector, in [0, (n-1)/n].

    Sorts ascending and applies
    ``G = (1/n) * (n + 1 - 2 * sum_i (n+1-i) y_i / sum_i y_i)``.
    All-zero input is an error rather than 0: the formula divides by the
    total, and a silent 0 would mask missing data.
    """
    arr = _as_nonnegative_array(values)
    total = float(arr.sum())
    if total == 0:
        raise ComputationError("Gini is undefined for an all-zero vector")
    y = np.sort(arr, kind="stable")
    n = y.size
    ranks = np.arange(1, n + 1, dtype=float)
    weighted = float(((n + 1 - ranks) * y).sum())
    return float((n + 1 - 2.0 * weighted / total) / n)


def lorenz_points(values: Iterable[float]) -> tuple[tuple[float, float], ...]:
    """Lorenz curve of a non-negative vector: n+1 points from (0,0) to (1,1).

    Point k is (k/n, share of the total held by the smallest k values).
    """
    arr = _as_nonnegative_array(values)
    if float(arr.sum()) == 0:
        raise ComputationError("Lorenz curve is undefined for an all-zero vector")
    y = np.sort(arr, kind="stable")
    n = y.size
    cum = np.cumsum(y)
    total = float(cum[-1])
    points = [(0.0, 0.0)]
    points.extend((k / n, float(cum[k - 1]) / total) for k in range(1, n + 1))
    return tuple(points)


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


def dei_scorecard(
    perf: PerformanceTable,
    speakers: SpeakerTable,
    tasks: Sequence[TaskSpec],
    universe: Sequence[str] = DEFAULT_UNIVERSE,
    tau: float = 1.0,
    tested_only: bool = False,
) -> list[ScorecardRow]:
    """Global metric and Gini per (task, model, train language) row.

    By default every universe language without a score contributes utility 0.
    With ``tested_only`` the universe of each row shrinks to the languages
    that have scores, and demand weights are renormalized over them.
    """
    codes = _check_universe(universe)
    by_task = {t.task_id: t for t in tasks}
    if len(by_task) != len(tasks):
        raise InputError("duplicate task ids in task specs")
    rows: list[ScorecardRow] = []
    for (task_id, model, train), scores in perf.groups():
        if task_id not in by_task:
            raise InputError(f"unknown task id {task_id!r} in performance table")
        spec = by_task[task_id]
        unknown = sorted(set(scores) - set(codes))
        if unknown:
            raise InputError(
                f"performance rows for ({task_id}, {model}, {train}) name languages "
                f"outside the universe: {', '.join(unknown)}"
            )
        if tested_only:
            row_universe = tuple(lang for lang in codes if lang in scores)
        else:
            row_universe = codes
        utilities = tuple(utility(scores[lang], spec) if lang in scores else 0.0 for lang in row_universe)
        d = demand(speakers, row_universe, tau)
        m = global_metric(utilities, [d[lang] for lang in row_universe])
        g = gini(utilities)
        rows.append(
            ScorecardRow(
                task=task_id,
                model=model,
                train_lang=train,
                m_tau=m,
                gini_coeff=g,
                tested=len(scores),
                universe_size=len(row_universe),
                utilities=utilities,
            )
        )
    return rows
