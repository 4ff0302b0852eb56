"""Demand-weighted quality and equity metrics over a fixed language universe.

Raw scores arrive as a ``PerformanceTable``: columns in file order, one cell
per (task, model, training language, target language), coded as integers.
Its constructor owns the raw-score rule (each cell once, finite and >= 0).

Three quantities are computed per (task, model, training-language) row:

* utility: raw score divided by the task's best attainable score, in [0, 1];
* the global metric ``M = sum_l d_l * u_l`` where the demand weight ``d_l``
  interpolates between uniform (tau=0) and speaker-proportional (tau=1);
* the Gini coefficient of the per-language utilities, the equity measure.

Languages in the universe without a test set carry utility 0 unless the
caller asks for the tested-only variant, which restricts the universe to
languages that actually have scores.

The scorecard fills one rows x universe matrix by indexing with the table's
codes, and the Lorenz curves behind its Gini values come from one sorted
cumulative-share matrix per universe size, without a dict per row or a
tuple per Lorenz point.
"""

from __future__ import annotations

import math
import warnings
from typing import Iterable, Mapping, Sequence

import numpy as np

from langdei import scalar
from langdei.errors import ComputationError, InputError, check_id
from langdei.records import Record, check_tau
from langdei.scalar import _GINI_ALL_ZERO, _check_universe

# The one-vector kernels and the speaker table need no numpy; they live in
# langdei.scalar and resolve here as well.
SpeakerTable, demand, gini = scalar.SpeakerTable, scalar.demand, scalar.gini

# The 22 scheduled languages plus English; the default universe for all
# metrics. Order matters only for deterministic output.
DEFAULT_UNIVERSE: tuple[str, ...] = (
    "as", "bn", "brx", "doi", "en", "gu", "hi", "kn", "kok", "ks", "mai",
    "ml", "mni", "mr", "ne", "or", "pa", "sa", "sat", "sd", "ta", "te", "ur",
)


class TaskSpec(Record):
    """A task identifier and its best attainable raw score (percent scale)."""

    task_id: str
    max_performance: float

    def __post_init__(self) -> None:
        check_id(self.task_id, "task id")
        if not math.isfinite(self.max_performance) or self.max_performance <= 0:
            raise InputError(
                f"max performance for task {self.task_id!r} must be positive, got {self.max_performance}"
            )


class CellError(InputError):
    """The first cell of a ``PerformanceTable``, in column order, that
    repeats an earlier cell or whose raw score breaks the rule; ``index`` is
    its position in the columns."""

    def __init__(self, message: str, index: int, repeated: bool) -> None:
        super().__init__(message)
        self.index = index
        self.repeated = repeated


class PerformanceTable(Record):
    """Raw scores on the percent scale, one per cell, as columns in file
    order: cell i scores the (task, model, train language) ``keys[row[i]]``
    on the target language ``languages[target[i]]``, and its raw score is
    ``score[i]``. ``row`` and ``target`` are integer arrays, ``score`` a
    float array.

    The table owns the raw-score rule: each cell appears once, and its score
    is finite and >= 0. The constructor checks it over all cells at once and
    raises ``CellError`` for the first cell that breaks it; of a cell that
    both repeats an earlier one and has a bad score, the repeat is reported.
    ``from_scores`` builds a table from a mapping through this constructor.
    """

    keys: tuple[tuple[str, str, str], ...]
    languages: tuple[str, ...]
    row: np.ndarray
    target: np.ndarray
    score: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.score)
        if not (self.row.shape == self.target.shape == self.score.shape == (n,)
                and np.all((0 <= self.row) & (self.row < len(self.keys)))
                and np.all((0 <= self.target) & (self.target < len(self.languages)))):
            raise InputError("performance table columns must be 1-d, of one length, with codes in range")
        cell = self.row.astype(np.int64) * len(self.languages) + self.target
        order = np.argsort(cell, kind="stable")  # a repeat sorts after the cell it repeats
        repeats = order[1:][cell[order[1:]] == cell[order[:-1]]]
        first_repeat = int(repeats.min()) if repeats.size else n
        bad = ~((self.score >= 0) & (self.score < math.inf))  # also true for NaN
        i = min(first_repeat, int(np.argmax(bad)) if bad.any() else n)
        if i < n:
            key = (*self.keys[self.row[i]], self.languages[self.target[i]])
            if i == first_repeat:
                raise CellError(f"duplicate row for {key}", i, True)
            raise CellError(f"raw score for {key} must be a finite non-negative number, got {float(self.score[i])}",
                            i, False)

    def __eq__(self, other: object) -> bool:
        """Field by field, as for every record, with arrays compared by value."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.keys, self.languages) == (other.keys, other.languages) and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in ("row", "target", "score"))

    @classmethod
    def from_scores(cls, scores: Mapping[tuple[str, str, str, str], float]) -> PerformanceTable:
        """The table of ``{(task, model, train language, target language):
        raw score}``, its cells in the mapping's order."""
        keys: dict[tuple[str, str, str], int] = {}
        languages: dict[str, int] = {}
        row = [keys.setdefault((task, model, train), len(keys)) for task, model, train, _ in scores]
        target = [languages.setdefault(lang, len(languages)) for *_, lang in scores]
        return cls(tuple(keys), tuple(languages), np.array(row, dtype=np.intp), np.array(target, dtype=np.intp),
                   np.array(list(scores.values()), dtype=float))


class ScorecardRow(Record):
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


def _demand_rows(speakers: SpeakerTable, codes: tuple[str, ...], tau: float, members: np.ndarray) -> np.ndarray:
    """Demand weights over each row's own universe: the codes where that
    row of the boolean ``members`` matrix is set; 0 elsewhere.

    Each n^tau is a Python float power, and each row total adds its terms in
    universe order, left to right, as ``scalar.demand`` does for one row.
    The first row whose weights are undefined (a speaker count missing, a
    total that overflows, or all counts zero) raises; tau must be checked
    already.
    """
    if tau == 0:
        powered = np.ones(len(codes))
    else:
        powered = np.array([speakers.millions(lang) ** tau if lang in speakers else math.nan for lang in codes])
    terms = np.where(members, powered, 0.0)
    with np.errstate(over="ignore"):  # an overflowing total raises below
        total = np.cumsum(terms, axis=1)[:, -1:]  # left to right, unlike ``terms.sum``
    undefined = ~((total[:, 0] > 0) & (total[:, 0] < math.inf))  # also true for nan: a speaker count is missing
    if undefined.any():
        r = int(np.argmax(undefined))
        missing = members[r] & np.isnan(powered)
        raise scalar._undefined_demand(tau, codes[int(np.argmax(missing))] if missing.any() else None,
                                       float(total[r, 0]))
    return terms / total


def _check_nonnegative(arr: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise InputError("values must be finite")
    if np.any(arr < 0):
        raise InputError("values must be non-negative")
    return arr


def _gini_rows(rows: np.ndarray) -> np.ndarray:
    """The Gini formula of ``gini`` on each row of a 2-d array, unchecked.

    Row-wise reductions, so each entry is bit-identical to the 1-d form,
    ``scalar._gini_row``. A row of non-negative values gives a non-finite
    entry (and a numpy warning) exactly when its Gini is undefined: it
    totals zero, holds a non-finite value, or its sums overflow. Callers reject such entries
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
    arr = np.array(scalar._checked(values))
    n = arr.size
    return tuple(zip([k / n for k in range(n + 1)], [0.0, *_lorenz_shares(arr[None, :])[0].tolist()]))


def _lorenz_shares(rows: np.ndarray) -> np.ndarray:
    """The Lorenz shares of each row of a 2-d array of checked values, one
    row-wise sort and cumulative sum: column k-1 is the share of the row's
    total held by its k smallest values."""
    if not rows.sum(axis=1).all():
        raise ComputationError("Lorenz curve is undefined for an all-zero vector")
    cum = np.cumsum(np.sort(rows, axis=1, kind="stable"), axis=1)
    return cum / cum[:, -1:]


def scorecard_lorenz(rows: Sequence[ScorecardRow]) -> list[tuple[list[int], np.ndarray]]:
    """The Lorenz curves of the scorecard rows' utilities, one matrix per
    universe size: (the positions of the rows of that size, their shares),
    where column k-1 of a row's shares is the share of point k of
    ``lorenz_points(row.utilities)``."""
    by_size: dict[int, list[int]] = {}
    for i, row in enumerate(rows):
        by_size.setdefault(len(row.utilities), []).append(i)
    curves = []
    for size, idx in by_size.items():
        if size == 0:
            raise InputError("expected a non-empty 1-d vector of values")
        matrix = _check_nonnegative(np.array([rows[i].utilities for i in idx], dtype=float))
        curves.append((idx, _lorenz_shares(matrix)))
    return curves


def dei_scorecard(
    perf: PerformanceTable,
    speakers: SpeakerTable,
    tasks: Sequence[TaskSpec],
    universe: Sequence[str] = DEFAULT_UNIVERSE,
    tau: float = 1.0,
    tested_only: bool = False,
) -> list[ScorecardRow]:
    """Global metric and Gini per (task, model, train language) row, rows
    sorted by that key.

    By default every universe language without a score contributes utility 0.
    With ``tested_only`` the universe of each row shrinks to the languages
    that have scores, and demand weights are renormalized over them.

    All rows are computed as one rows x universe matrix, filled from the
    table's columns. Each number equals what ``utility``, ``demand`` and
    ``gini`` give for the row alone, with M the dot product of the row's
    utilities and demand weights. The table has checked its raw scores when
    it was built. The universe and tau are checked first, even for an empty
    table; then each rule holds for every row before the next is checked,
    and its first failing row raises: (1) known task, valid model and train
    ids, languages in the universe; (2) demand weights defined; (3) Gini
    defined (no all-zero row). Clamped scores give one warning per task.
    """
    codes = _check_universe(universe)
    check_tau(tau)
    by_task = {t.task_id: t for t in tasks}
    if len(by_task) != len(tasks):
        raise InputError("duplicate task ids in task specs")
    if not perf.keys:
        return []
    order = sorted(range(len(perf.keys)), key=perf.keys.__getitem__)
    keys = [perf.keys[code] for code in order]
    column = {lang: j for j, lang in enumerate(codes)}
    cols = np.array([column.get(lang, -1) for lang in perf.languages], dtype=np.intp)[perf.target]
    _check_rows(perf, order, by_task, cols)
    position = np.empty(len(order), dtype=np.intp)
    position[order] = np.arange(len(order))
    cells = (position[perf.row], cols)
    raw = np.zeros((len(keys), len(codes)))
    raw[cells] = perf.score
    tested = np.zeros(raw.shape, dtype=bool)
    tested[cells] = True
    maxima = np.array([by_task[task_id].max_performance for task_id, _, _ in keys])[:, None]
    weights = _demand_rows(speakers, codes, tau, tested if tested_only else np.ones((1, len(codes)), dtype=bool))
    utilities = _utilities(raw, maxima)
    if not (utilities > 0).any(axis=1).all():
        raise ComputationError(_GINI_ALL_ZERO)

    counts = tested.sum(axis=1)
    sizes = counts if tested_only else np.full(len(keys), len(codes))
    m_tau = np.empty(len(keys))
    gini_coeff = np.empty(len(keys))
    vectors: list[tuple[float, ...]] = [()] * len(keys)
    for size in sorted(set(sizes.tolist())):
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
    _warn_clamped(keys, by_task, raw, tested & (raw > maxima))
    return [
        ScorecardRow(
            task=task_id, model=model, train_lang=train, m_tau=m, gini_coeff=g,
            tested=count, universe_size=size, utilities=vector,
        )
        for (task_id, model, train), m, g, count, size, vector in zip(
            keys, m_tau.tolist(), gini_coeff.tolist(), counts.tolist(), sizes.tolist(), vectors
        )
    ]


def _check_rows(perf: PerformanceTable, order: list[int], by_task: Mapping[str, TaskSpec], cols: np.ndarray) -> None:
    """Rule 1 of ``dei_scorecard``, over the table's rows in ``order``: the
    first row with an unknown task, an invalid model or train id, or a cell
    outside the universe (a universe column of -1 in ``cols``) raises. Each
    distinct id is checked once."""
    outside = np.zeros(len(perf.keys), dtype=bool)
    outside[perf.row[cols < 0]] = True
    outside = outside.tolist()
    valid: set[str] = set()
    for code in order:
        task_id, model, train = perf.keys[code]
        if task_id not in by_task:
            raise InputError(f"unknown task id {task_id!r} in performance table")
        for ident, what in ((model, "model id"), (train, "train language")):
            if ident not in valid:
                valid.add(check_id(ident, what))
        if outside[code]:
            unknown = sorted({perf.languages[t] for t in perf.target[(perf.row == code) & (cols < 0)].tolist()})
            raise InputError(
                f"performance rows for ({task_id}, {model}, {train}) name languages "
                f"outside the universe: {', '.join(unknown)}"
            )


def _warn_clamped(keys, by_task: Mapping[str, TaskSpec], raw: np.ndarray, clamped: np.ndarray) -> None:
    """One warning per task with scores above its maximum: how many, and the largest."""
    per_task: dict[str, list[float]] = {}
    for r in np.flatnonzero(clamped.any(axis=1)).tolist():
        per_task.setdefault(keys[r][0], []).extend(raw[r][clamped[r]].tolist())
    for task_id, scores in per_task.items():
        warnings.warn(
            f"scores above task {task_id!r} maximum {by_task[task_id].max_performance}: "
            f"{len(scores)} (largest {max(scores)}); clamping their utility to 1.0",
            stacklevel=3,
        )
