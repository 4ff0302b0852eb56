"""Demand-weighted quality and equity metrics over a fixed language universe.

Raw scores arrive as a ``PerformanceTable``: each (task, model, training
language) row's scores by target language, in file order. Its constructor
owns the id rule of its keys and targets and the raw-score rule (finite and
>= 0); a mapping holds each cell once.

Three quantities are computed per (task, model, training-language) row:

* utility: raw score divided by the task's best attainable score, in [0, 1];
* the global metric ``M = sum_l d_l * u_l`` where the demand weight ``d_l``
  interpolates between uniform (tau=0) and speaker-proportional (tau=1);
* the Gini coefficient of the per-language utilities, the equity measure.

Languages in the universe without a test set carry utility 0 unless the
caller asks for the tested-only variant, which restricts the universe to
languages that actually have scores.

The scorecard computes each row as one vector in universe order with the
one-vector kernels of ``langdei.scalar``, and needs no numpy: M adds its
terms left to right, as every other total of the package does.
"""

from __future__ import annotations

import math
import operator
import warnings
from itertools import accumulate
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from langdei import io, scalar
from langdei.errors import ComputationError, InputError, check_id
from langdei.records import Record, check_tau, sequential_sum
from langdei.scalar import _GINI_ALL_ZERO, _check_universe

# The one-vector kernels and the speaker table live in langdei.scalar, which
# the allocator imports alone; they resolve here as well.
SpeakerTable, demand, gini = scalar.SpeakerTable, scalar.demand, scalar.gini

# The 22 scheduled languages plus English; the default universe for all
# metrics. Order matters only for deterministic output.
DEFAULT_UNIVERSE: tuple[str, ...] = (
    "as", "bn", "brx", "doi", "en", "gu", "hi", "kn", "kok", "ks", "mai",
    "ml", "mni", "mr", "ne", "or", "pa", "sa", "sat", "sd", "ta", "te", "ur",
)
_KEY_KINDS = ("task id", "model id", "train language", "target language")  # a performance row's ids, in order
_PERF_HEADER = ("task", "model", "train_lang", "target_lang", "score")


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


def _check_raw_score(score: float, cell: tuple[str, str, str, str] | None = None) -> None:
    """The raw-score rule: a finite score >= 0. The message names the score's
    (task, model, train, target) ``cell`` when one is given."""
    if not 0 <= score < math.inf:  # also true for NaN
        subject = "raw score" if cell is None else f"raw score for {cell}"
        raise InputError(f"{subject} must be a finite non-negative number, got {score}")


class PerformanceTable(Record):
    """Raw scores on the percent scale: ``rows`` maps each (task, model,
    train language) key to that row's {target language: raw score}, rows
    and cells in the order they were read. A mapping holds each cell once;
    tables compare equal as their mappings do.

    The table owns two rules, which the constructor checks in this order:
    each distinct task, model and train id is valid (checked once, in key
    order), and so is each distinct target language (once, in sorted order);
    and each score is finite and >= 0. It raises an ``InputError``
    for the first id or score that breaks them. ``from_scores`` builds a
    table through it.
    """

    rows: dict[tuple[str, str, str], dict[str, float]]

    def __post_init__(self) -> None:
        rows = self.rows
        if not (isinstance(rows, dict) and all(isinstance(key, tuple) and len(key) == 3 and isinstance(cells, dict)
                                               and cells for key, cells in rows.items())):
            raise InputError("performance table rows must map (task, model, train) keys to non-empty dicts of scores")
        for ident, what in dict.fromkeys((ident, what) for key in rows for ident, what in zip(key, _KEY_KINDS)):
            check_id(ident, what)
        for target in sorted(set().union(*rows.values())):
            check_id(target, _KEY_KINDS[3])
        # One pass each over the scores; a NaN or infinite score makes the
        # sum fail the test. The loop below finds the first fault, and is
        # skipped when the two passes find none.
        scores = [score for cells in rows.values() for score in cells.values()]
        if min(scores, default=0.0) >= 0 and sum(scores) < math.inf:
            return
        for key, cells in rows.items():
            for lang, score in cells.items():
                _check_raw_score(score, (*key, lang))

    @classmethod
    def read_csv(cls, path: str | Path, scale: str) -> PerformanceTable:
        """The table of a CSV file with header
        ``task,model,train_lang,target_lang,score`` (``io.load_performance``),
        read by ``io._read_table``: each distinct (task, model, train) and
        target as read is stripped once, and the table checks the ids. A
        file with fewer cells than data rows repeats a cell, which the
        second read names; it checks each row as a one-cell table. ``scale``
        declares the score scale of the file; unit-scale scores are
        converted to percent, the internal raw-score convention.
        """
        io._check_scale(scale)
        factor = 100.0 if scale == "unit" else 1.0

        def fast(rows):
            table: dict[tuple[str, str, str], dict[str, float]] = {}
            row_cells: dict[tuple[str, str, str], dict[str, float]] = {}  # the cells of each key as read
            targets: dict[str, str] = {}  # each target as read, stripped
            n = 0
            for n, (task, model, train, lang, text) in enumerate(rows, 1):
                cells = row_cells.get((task, model, train))
                if cells is None:
                    key = (task.strip(), model.strip(), train.strip())
                    cells = row_cells[(task, model, train)] = table.setdefault(key, {})
                target = targets.get(lang)
                if target is None:
                    target = targets[lang] = lang.strip()
                cells[target] = float(text) * factor
            if sum(map(len, table.values())) < n:
                raise ValueError("a repeated cell")
            return cls(table)

        def locate(rows):
            for where, (task, model, train, lang, text) in io._unique_rows(rows, 4, "row for"):
                io._located(where, cls, {(task, model, train): {lang: io._parse_float(text, where) * factor}})

        return io._read_table(path, _PERF_HEADER, fast, locate)

    @classmethod
    def from_scores(cls, scores: Mapping[tuple[str, str, str, str], float]) -> PerformanceTable:
        """The table of ``{(task, model, train language, target language):
        raw score}``, grouped by (task, model, train language) in the
        mapping's order."""
        rows: dict[tuple[str, str, str], dict[str, float]] = {}
        for (task, model, train, lang), score in scores.items():
            rows.setdefault((task, model, train), {})[lang] = score
        return cls(rows)


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
    _check_raw_score(raw_score)
    if raw_score > task.max_performance:
        warnings.warn(
            f"score {raw_score} exceeds task {task.task_id!r} maximum "
            f"{task.max_performance}; clamping utility to 1.0",
            stacklevel=2,
        )
    return _utilities([raw_score], task.max_performance)[0]


def _utilities(raw: Sequence[float | None], maximum: float) -> list[float]:
    """Raw scores over their task maximum, clamped to 1.0; an untested
    language (None) has utility 0."""
    return [0.0 if x is None else 1.0 if x > maximum else x / maximum for x in raw]


def lorenz_points(values: Iterable[float]) -> tuple[tuple[float, float], ...]:
    """Lorenz curve of a non-empty vector of finite values >= 0: n+1 points
    from (0,0) to (1,1).

    Point k is (k/n, share of the total held by the smallest k values): the
    k-th running sum of the sorted values, left to right, over the last.
    """
    cumulative = lorenz_sums(scalar._checked(values))
    n, total = len(cumulative), cumulative[-1]
    return tuple(zip([k / n for k in range(n + 1)], [0.0, *[value / total for value in cumulative]]))


def lorenz_sums(values: Sequence[float]) -> list[float]:
    """The running sums of ``values`` sorted ascending, added left to right:
    the numerators of its Lorenz shares, the last also their denominator.
    ``values`` must be a non-empty vector of finite values >= 0, unchecked
    here (``lorenz_points`` checks it); an all-zero vector has no Lorenz
    curve."""
    cumulative = list(accumulate(sorted(values)))
    if not cumulative[-1]:
        raise ComputationError("Lorenz curve is undefined for an all-zero vector")
    return cumulative


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

    Each row is one vector in universe order: its utilities, its demand
    weights (``demand`` over the row's universe), M the sum of utility times
    weight, added left to right, and the Gini of ``gini``, without its
    checks. The table has checked its ids and raw scores when it was built.
    The universe and tau are checked first, even for an empty table; then
    each rule holds for every row before the next is checked, and its first
    failing row raises: (1) known task, languages in the universe; (2)
    demand weights defined; (3) Gini defined (no all-zero row), its error
    keyed by the row. Clamped scores give one warning per task.
    """
    codes = _check_universe(universe)
    check_tau(tau)
    by_task = {t.task_id: t for t in tasks}
    if len(by_task) != len(tasks):
        raise InputError("duplicate task ids in task specs")
    if not perf.rows:
        return []
    order = sorted(perf.rows)
    _check_rows(perf, order, by_task, set(codes))
    # Each row's raw scores in universe order, None where it has none.
    raws = [list(map(perf.rows[key].get, codes)) for key in order]
    powered = scalar._powers(speakers, codes, tau)
    if tested_only:
        weights = [scalar._weights([lang for lang, x in zip(codes, raw) if x is not None],
                                   [p for p, x in zip(powered, raw) if x is not None], tau) for raw in raws]
    else:
        weights = [scalar._weights(codes, powered, tau)] * len(raws)

    rows = []
    clamped: dict[str, list[float]] = {}
    for (task_id, model, train), raw, w in zip(order, raws, weights):
        maximum = by_task[task_id].max_performance
        tested = [x for x in raw if x is not None]
        u = _utilities(tested if tested_only else raw, maximum)
        if not any(u):
            raise ComputationError(f"({task_id}, {model}, {train}): {_GINI_ALL_ZERO}",
                                   row=dict(zip(_PERF_HEADER, (task_id, model, train))))
        if max(tested) > maximum:
            clamped.setdefault(task_id, []).extend(x for x in tested if x > maximum)
        rows.append(ScorecardRow(
            task=task_id, model=model, train_lang=train, m_tau=sequential_sum(map(operator.mul, u, w)),
            gini_coeff=scalar._gini_row(u), tested=len(tested), universe_size=len(u), utilities=tuple(u),
        ))
    for task_id, scores in clamped.items():
        warnings.warn(
            f"scores above task {task_id!r} maximum {by_task[task_id].max_performance}: "
            f"{len(scores)} (largest {max(scores)}); clamping their utility to 1.0",
            stacklevel=2,
        )
    return rows


def _check_rows(perf: PerformanceTable, order: list[tuple[str, str, str]], by_task: Mapping[str, TaskSpec],
                universe: set[str]) -> None:
    """Rule 1 of ``dei_scorecard``, over the table's rows in ``order``: the
    first row with an unknown task, or a language outside ``universe``,
    raises, its ``row`` the key and, for a language, the first such target
    in cell order."""
    for key in order:
        task_id, model, train = key
        if task_id not in by_task:
            raise InputError(f"unknown task id {task_id!r} in performance table", row=dict(zip(_PERF_HEADER, key)))
        if not universe.issuperset(perf.rows[key]):
            outside = [lang for lang in perf.rows[key] if lang not in universe]
            raise InputError(f"performance rows for ({task_id}, {model}, {train}) name languages outside the "
                             f"universe: {', '.join(sorted(outside))}", row=dict(zip(_PERF_HEADER, (*key, outside[0]))))


def load_tasks(path: str | Path) -> list[TaskSpec]:
    """CSV with header ``task,max_performance`` (percent scale)."""
    return [TaskSpec(*item) for item in io._read_numbers(path, ("task", "max_performance"), "task", TaskSpec).items()]


def load_universe(path: str | Path) -> tuple[str, ...]:
    """Plain text, one language code per line; ``#`` comments allowed."""
    lines = ((where, [code]) for where, code in io._records(path))
    codes = tuple(io._located(where, check_id, code, "language code")
                  for where, (code,) in io._unique_rows(lines, 1, "language"))
    if not codes:
        raise InputError(f"{path}: no language codes")
    return codes


def render_scorecard(rows: Sequence[ScorecardRow], scale: str = "percent") -> str:
    io._check_scale(scale)
    factor = 100.0 if scale == "percent" else 1.0
    lines = [",".join(io._SCORECARD_HEADER)]
    for r in rows:
        lines.append(
            f"{r.task},{r.model},{r.train_lang},{io.fmt_num(r.m_tau * factor)},"
            f"{io.fmt_num(r.gini_coeff)},{r.tested},{r.universe_size}"
        )
    return "\n".join(lines) + "\n"
