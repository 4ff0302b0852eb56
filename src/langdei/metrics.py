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
from langdei.records import check_tau

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
    return float(_utilities(raw_score, task.max_performance))


def _utilities(raw, maximum):
    """Raw scores over their task maxima, elementwise, clamped to 1.0."""
    return np.where(raw > maximum, 1.0, raw / maximum)


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
    weights = _demand_rows(speakers, codes, tau, np.ones((1, len(codes)), dtype=bool))
    return dict(zip(codes, weights[0].tolist()))


def _demand_rows(speakers: SpeakerTable, codes: tuple[str, ...], tau: float, members: np.ndarray) -> np.ndarray:
    """Demand weights over each row's own universe: the codes where that
    row of the boolean ``members`` matrix is set; 0 elsewhere.

    Each n^tau is a Python float power, and each row total adds its terms in
    universe order, as the built-in ``sum`` does. The first row whose
    weights are undefined raises.
    """
    check_tau(tau)
    if tau == 0:
        powered = np.ones(len(codes))
    else:
        powered = np.array([speakers.millions(lang) ** tau if lang in speakers else math.nan for lang in codes])
    terms = np.where(members, powered, 0.0)
    total = np.cumsum(terms, axis=1)[:, -1:]  # sequential, like ``sum``
    undefined = ~(total[:, 0] > 0)  # also true for nan: a speaker count is missing
    if undefined.any():
        missing = members[int(np.argmax(undefined))] & np.isnan(powered)
        if missing.any():
            lang = codes[int(np.argmax(missing))]
            raise InputError(f"tau={tau} requires a speaker count for language {lang!r}")
        raise ComputationError("demand is undefined: all speaker counts in the universe are zero")
    return terms / total


def _as_nonnegative_array(values: Iterable[float]) -> np.ndarray:
    arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise InputError("expected a non-empty 1-d vector of values")
    return _check_nonnegative(arr)


def _check_nonnegative(arr: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise InputError("values must be finite")
    if np.any(arr < 0):
        raise InputError("values must be non-negative")
    return arr


_GINI_ALL_ZERO = "Gini is undefined for an all-zero vector"
_GINI_OVERFLOW = "Gini is undefined for values whose sums overflow a float"


def gini(values: Iterable[float]) -> float:
    """Gini coefficient of a non-negative vector, in [0, (n-1)/n].

    Sorts ascending and applies
    ``G = (1/n) * (n + 1 - 2 * sum_i (n+1-i) y_i / sum_i y_i)``.
    All-zero input is an error rather than 0: the formula divides by the
    total, and a silent 0 would mask missing data. So is input whose total
    or weighted sum overflows (such as two values of 1e308): the formula
    then gives NaN or -inf.
    """
    arr = _as_nonnegative_array(values)
    with np.errstate(all="ignore"):  # an undefined Gini is not finite, and raises below
        g = float(_gini_rows(arr[None, :])[0])
    if not math.isfinite(g):
        raise ComputationError(_GINI_OVERFLOW if arr.any() else _GINI_ALL_ZERO)
    return g


def _gini_rows(rows: np.ndarray) -> np.ndarray:
    """The Gini formula of ``gini`` on each row of a 2-d array, unchecked.

    Row-wise reductions, so each entry is bit-identical to the 1-d form. A
    row of non-negative values gives a non-finite entry (and a numpy
    warning) exactly when its Gini is undefined: it totals zero, holds a
    non-finite value, or its sums overflow. Callers reject such entries
    themselves. The sort kind cannot change a result: the only equal values
    with different bits are 0.0 and -0.0, and either adds the same to a sum.
    """
    n = rows.shape[1]
    total = rows.sum(axis=1)
    ranks = np.arange(1, n + 1, dtype=float)
    weighted = ((n + 1 - ranks) * np.sort(rows, axis=1)).sum(axis=1)
    return (n + 1 - 2.0 * weighted / total) / n


def lorenz_points(values: Iterable[float]) -> tuple[tuple[float, float], ...]:
    """Lorenz curve of a non-negative vector: n+1 points from (0,0) to (1,1).

    Point k is (k/n, share of the total held by the smallest k values).
    """
    arr = _as_nonnegative_array(values)
    return _lorenz_point_rows(arr[None, :])[0]


def _lorenz_point_rows(rows: np.ndarray) -> list[tuple[tuple[float, float], ...]]:
    """``lorenz_points`` of each row of a 2-d array of checked values: one
    row-wise sort and cumulative sum, over the last cumulative column."""
    if not rows.sum(axis=1).all():
        raise ComputationError("Lorenz curve is undefined for an all-zero vector")
    cum = np.cumsum(np.sort(rows, axis=1, kind="stable"), axis=1)
    n = rows.shape[1]
    xs = [0.0] + [k / n for k in range(1, n + 1)]
    return [tuple(zip(xs, [0.0] + shares)) for shares in (cum / cum[:, -1:]).tolist()]


def scorecard_lorenz(rows: Sequence[ScorecardRow]) -> dict[tuple[str, str, str], tuple[tuple[float, float], ...]]:
    """``lorenz_points(row.utilities)`` of every scorecard row, keyed by
    (task, model, train language); rows of one length share one matrix."""
    by_size: dict[int, list[int]] = {}
    for i, row in enumerate(rows):
        by_size.setdefault(len(row.utilities), []).append(i)
    curves: list[tuple[tuple[float, float], ...]] = [()] * len(rows)
    for size, idx in by_size.items():
        if size == 0:
            raise InputError("expected a non-empty 1-d vector of values")
        matrix = _check_nonnegative(np.array([rows[i].utilities for i in idx], dtype=float))
        for i, curve in zip(idx, _lorenz_point_rows(matrix)):
            curves[i] = curve
    return {(row.task, row.model, row.train_lang): curve for row, curve in zip(rows, curves)}


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

    All rows are computed as one rows x universe matrix. Each number equals
    what ``utility``, ``demand`` and ``gini`` give for the row alone, with M
    the dot product of the row's utilities and demand weights. Each rule
    holds for every row before the next is checked, and its first failing
    row raises: (1) known task, valid model and train ids, languages in the
    universe; (2) raw scores finite and >= 0; (3) demand weights defined;
    (4) Gini defined (no all-zero row). Clamped scores give one warning per task.
    """
    codes = _check_universe(universe)
    by_task = {t.task_id: t for t in tasks}
    if len(by_task) != len(tasks):
        raise InputError("duplicate task ids in task specs")
    groups = perf.groups()
    if not groups:
        return []
    raw, tested, maxima = _score_matrix(groups, by_task, codes)
    bad = tested & ~(np.isfinite(raw) & (raw >= 0))
    if bad.any():
        r, j = np.argwhere(bad)[0]
        raise InputError(f"raw score must be a finite non-negative number, got {groups[r][1][codes[j]]}")
    weights = _demand_rows(speakers, codes, tau, tested if tested_only else np.ones((1, len(codes)), dtype=bool))
    utilities = _utilities(raw, maxima)
    if not (utilities > 0).any(axis=1).all():
        raise ComputationError(_GINI_ALL_ZERO)

    sizes = tested.sum(axis=1) if tested_only else np.full(len(groups), len(codes))
    m_tau = np.empty(len(groups))
    gini_coeff = np.empty(len(groups))
    vectors: list[tuple[float, ...]] = [()] * len(groups)
    for size in np.unique(sizes):
        # Rows of one universe size form one matrix; padding with zeros
        # would change the order of numpy's pairwise sums.
        idx = np.flatnonzero(sizes == size)
        if tested_only:
            u = utilities[idx][tested[idx]].reshape(len(idx), size)
            w = weights[idx][tested[idx]].reshape(len(idx), size)
        else:
            u, w = utilities[idx], np.broadcast_to(weights, (len(idx), size))
        # One dot per row: a matrix product rounds differently.
        m_tau[idx] = [np.dot(u_row, w_row) for u_row, w_row in zip(u, w)]
        gini_coeff[idx] = _gini_rows(u)
        for r, vector in zip(idx.tolist(), u.tolist()):
            vectors[r] = tuple(vector)
    _warn_clamped(groups, by_task, raw, tested & (raw > maxima))
    return [
        ScorecardRow(
            task=task_id, model=model, train_lang=train, m_tau=m, gini_coeff=g,
            tested=len(scores), universe_size=size, utilities=vector,
        )
        for ((task_id, model, train), scores), m, g, size, vector in zip(
            groups, m_tau.tolist(), gini_coeff.tolist(), sizes.tolist(), vectors
        )
    ]


def _score_matrix(groups, by_task: Mapping[str, TaskSpec], codes: tuple[str, ...]):
    """Raw scores and tested flags as rows x universe matrices, and each
    row's task maximum (a column). The first row with an unknown task, an
    invalid model or train id, or a language outside the universe raises."""
    column = {lang: j for j, lang in enumerate(codes)}
    counts, limits, cols, values = [], [], [], []  # per row; per cell
    for (task_id, model, train), scores in groups:
        if task_id not in by_task:
            raise InputError(f"unknown task id {task_id!r} in performance table")
        check_id(model, "model id")
        check_id(train, "train language")
        if not scores.keys() <= column.keys():
            unknown = sorted(set(scores) - set(codes))
            raise InputError(
                f"performance rows for ({task_id}, {model}, {train}) name languages "
                f"outside the universe: {', '.join(unknown)}"
            )
        counts.append(len(scores))
        limits.append(by_task[task_id].max_performance)
        cols.extend(map(column.__getitem__, scores))
        values.extend(scores.values())
    cells = (np.repeat(np.arange(len(groups)), counts), cols)
    raw = np.zeros((len(groups), len(codes)))
    raw[cells] = values
    tested = np.zeros(raw.shape, dtype=bool)
    tested[cells] = True
    return raw, tested, np.array(limits, dtype=float)[:, None]


def _warn_clamped(groups, by_task: Mapping[str, TaskSpec], raw: np.ndarray, clamped: np.ndarray) -> None:
    """One warning per task with scores above its maximum: how many, and the largest."""
    per_task: dict[str, list[float]] = {}
    for r in np.flatnonzero(clamped.any(axis=1)).tolist():
        per_task.setdefault(groups[r][0][0], []).extend(raw[r][clamped[r]].tolist())
    for task_id, scores in per_task.items():
        warnings.warn(
            f"scores above task {task_id!r} maximum {by_task[task_id].max_performance}: "
            f"{len(scores)} (largest {max(scores)}); clamping their utility to 1.0",
            stacklevel=3,
        )
