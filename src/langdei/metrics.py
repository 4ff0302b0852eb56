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

The scorecard computes each row as one vector in universe order with the
one-vector kernels of ``langdei.scalar``, and needs no numpy: M adds its
terms left to right, as every other total of the package does.
"""

from __future__ import annotations

import csv
import math
import operator
import warnings
from array import array
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
    ``score[i]``. ``row`` and ``target`` are ``array('q')`` columns of codes,
    ``score`` an ``array('d')``; tables compare equal column by column.

    The table owns the raw-score rule: each cell appears once, and its score
    is finite and >= 0. The constructor checks it over all cells and raises
    ``CellError`` for the first cell that breaks it; of a cell that both
    repeats an earlier one and has a bad score, the repeat is reported.
    ``from_scores`` builds a table from a mapping through this constructor.
    """

    keys: tuple[tuple[str, str, str], ...]
    languages: tuple[str, ...]
    row: array
    target: array
    score: array

    def __post_init__(self) -> None:
        row, target, score = self.row, self.target, self.score
        n = len(score)
        if not ([getattr(column, "typecode", None) for column in (row, target, score)] == ["q", "q", "d"]
                and len(row) == len(target) == n
                and (not n or all(0 <= min(codes) and max(codes) < bound  # over the distinct codes
                                  for codes, bound in ((set(row), len(self.keys)),
                                                       (set(target), len(self.languages)))))):
            raise InputError("performance table columns must be code and score arrays of one length, codes in range")
        width = len(self.languages)
        # One pass each over the cells, coded r * width + t, and the scores;
        # a NaN or infinite score makes the sum fail the test. The loop below
        # finds the first fault, and is skipped when the two passes find none.
        if (len({r * width + t for r, t in zip(row, target)}) == n
                and min(score, default=0.0) >= 0 and sum(score) < math.inf):
            return
        seen: set[int] = set()
        for i, (r, t, value) in enumerate(zip(row, target, score)):
            cell = r * width + t
            if cell in seen or not 0 <= value < math.inf:
                key = (*self.keys[r], self.languages[t])
                if cell in seen:
                    raise CellError(f"duplicate row for {key}", i, True)
                raise CellError(f"raw score for {key} must be a finite non-negative number, got {value}", i, False)
            seen.add(cell)

    @classmethod
    def read_csv(cls, path: str | Path, scale: str) -> PerformanceTable:
        """The table of a CSV file with header
        ``task,model,train_lang,target_lang,score`` (``io.load_performance``).

        ``scale`` declares the score scale of the file; unit-scale scores are
        converted to percent, the internal raw-score convention. The file is
        read in one pass of ``csv.reader`` into the columns, and each
        distinct (task, model, train) and target cell as read is stripped,
        and its ids checked, once. The first fault in file order is reported
        at its ``file:line``, found by reading the file again: a row that is
        not CSV or not 5 fields, a repeated cell, an invalid task, model or
        train id, or a score that is malformed, NaN, infinite or negative.
        """
        io._check_scale(scale)
        factor = 100.0 if scale == "unit" else 1.0
        header = ("task", "model", "train_lang", "target_lang", "score")
        keys: dict[tuple[str, str, str], int] = {}
        languages: dict[str, int] = {}
        key_codes: dict[tuple[str, str, str], int] = {}  # the code of each key as read
        lang_codes: dict[str, int] = {}
        row, target, score = array("q"), array("q"), array("d")
        fault: tuple[int, str | None] | None = None  # the data row the reading stopped at, and why

        def table() -> PerformanceTable:
            """The table of the cells read so far; a cell that breaks its
            rule is reported at its line."""
            try:
                return cls(tuple(keys), tuple(languages), row, target, score)
            except CellError as exc:
                where, cells = io._row_at(path, header, exc.index)
                if exc.repeated:
                    raise InputError(f"{where}: {exc}") from None
                io._parse_float(cells[4], where)  # raises for NaN
                raise InputError(f"{where}: score must be finite and non-negative, got {cells[4]}") from None

        try:
            with io._open_utf8(path, newline="") as fh:
                reader = csv.reader(fh)
                io._skip_header(reader, path, header)
                for cells in reader:
                    if len(cells) != 5:
                        if cells:
                            fault = (len(score), None)
                            break
                        continue
                    task, model, train, lang, text = cells
                    code = key_codes.get((task, model, train))
                    if code is None:
                        key = (task.strip(), model.strip(), train.strip())
                        if key not in keys:
                            try:
                                for ident, what in zip(key, ("task id", "model id", "train language")):
                                    check_id(ident, what)
                            except InputError as exc:
                                fault = (len(score), str(exc))
                                break
                            keys[key] = len(keys)
                        code = key_codes[(task, model, train)] = keys[key]
                    row.append(code)
                    code = lang_codes.get(lang)
                    if code is None:
                        code = lang_codes[lang] = languages.setdefault(lang.strip(), len(languages))
                    target.append(code)
                    try:
                        score.append(float(text) * factor)
                    except ValueError:
                        score.append(0.0)  # a valid stand-in, so that a repeated cell on this line is reported first
                        fault = (len(score) - 1, f"malformed number {text.strip()!r}")
                        break
        except csv.Error:
            fault = (len(score), None)
        except InputError:
            table()  # a fault of the table's rule before this one is reported first
            raise
        perf = table()
        if fault is None:
            return perf
        where, _ = io._row_at(path, header, fault[0])  # a row that is not CSV or not 5 fields raises here
        raise InputError(f"{where}: {fault[1]}")

    @classmethod
    def from_scores(cls, scores: Mapping[tuple[str, str, str, str], float]) -> PerformanceTable:
        """The table of ``{(task, model, train language, target language):
        raw score}``, its cells in the mapping's order."""
        keys: dict[tuple[str, str, str], int] = {}
        languages: dict[str, int] = {}
        row = [keys.setdefault((task, model, train), len(keys)) for task, model, train, _ in scores]
        target = [languages.setdefault(lang, len(languages)) for *_, lang in scores]
        return cls(tuple(keys), tuple(languages), array("q", row), array("q", target), array("d", scores.values()))


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
    return _utilities([raw_score], task.max_performance)[0]


def _utilities(raw: Sequence[float | None], maximum: float) -> list[float]:
    """Raw scores over their task maximum, clamped to 1.0; an untested
    language (None) has utility 0."""
    return [0.0 if x is None else 1.0 if x > maximum else x / maximum for x in raw]


def lorenz_points(values: Iterable[float]) -> tuple[tuple[float, float], ...]:
    """Lorenz curve of a non-negative vector: n+1 points from (0,0) to (1,1).

    Point k is (k/n, share of the total held by the smallest k values).
    """
    shares = lorenz_shares(values)
    return tuple(zip([k / len(shares) for k in range(len(shares) + 1)], [0.0, *shares]))


def lorenz_shares(values: Iterable[float]) -> list[float]:
    """The shares of points 1..n of the Lorenz curve of a non-empty vector
    of finite values >= 0: the running sums of the sorted values, left to
    right, each over the last."""
    cumulative = lorenz_sums(scalar._checked(values))
    total = cumulative[-1]
    return [value / total for value in cumulative]


def lorenz_sums(values: Sequence[float]) -> list[float]:
    """The running sums of ``values`` sorted ascending, added left to right:
    the numerators of its Lorenz shares, the last also their denominator.
    ``values`` must be a non-empty vector of finite values >= 0, unchecked
    here (``lorenz_shares`` checks it); an all-zero vector has no Lorenz
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
    checks. The table has checked its raw scores when it was built. The
    universe and tau are checked first, even for an empty table; then each
    rule holds for every row before the next is checked, and its first
    failing row raises: (1) known task, valid model and train ids, languages
    in the universe; (2) demand weights defined; (3) Gini defined (no
    all-zero row). Clamped scores give one warning per task.
    """
    codes = _check_universe(universe)
    check_tau(tau)
    by_task = {t.task_id: t for t in tasks}
    if len(by_task) != len(tasks):
        raise InputError("duplicate task ids in task specs")
    if not perf.keys:
        return []
    order = sorted(range(len(perf.keys)), key=perf.keys.__getitem__)
    column = {lang: j for j, lang in enumerate(codes)}
    columns = [column.get(lang) for lang in perf.languages]
    _check_rows(perf, order, by_task, columns)
    # Each row's raw scores in universe order, None where it has none.
    grid: list[list[float | None]] = [[None] * len(codes) for _ in perf.keys]
    for r, t, value in zip(perf.row, perf.target, perf.score):
        grid[r][columns[t]] = value
    raws = [grid[code] for code in order]
    powered = scalar._powers(speakers, codes, tau)
    if tested_only:
        weights = [scalar._weights([lang for lang, x in zip(codes, raw) if x is not None],
                                   [p for p, x in zip(powered, raw) if x is not None], tau) for raw in raws]
    else:
        weights = [scalar._weights(codes, powered, tau)] * len(raws)

    rows = []
    clamped: dict[str, list[float]] = {}
    for code, raw, w in zip(order, raws, weights):
        task_id, model, train = perf.keys[code]
        maximum = by_task[task_id].max_performance
        tested = [x for x in raw if x is not None]
        u = _utilities(tested if tested_only else raw, maximum)
        if not any(u):
            raise ComputationError(_GINI_ALL_ZERO)
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


def _check_rows(perf: PerformanceTable, order: list[int], by_task: Mapping[str, TaskSpec],
                columns: list[int | None]) -> None:
    """Rule 1 of ``dei_scorecard``, over the table's rows in ``order``: the
    first row with an unknown task, an invalid model or train id, or a cell
    outside the universe (a language whose universe column is None) raises.
    Each distinct id is checked once."""
    outside = {t for t, j in enumerate(columns) if j is None}
    outside_rows = {r for r, t in zip(perf.row, perf.target) if t in outside} if outside else set()
    valid: set[str] = set()
    for code in order:
        task_id, model, train = perf.keys[code]
        if task_id not in by_task:
            raise InputError(f"unknown task id {task_id!r} in performance table")
        for ident, what in ((model, "model id"), (train, "train language")):
            if ident not in valid:
                valid.add(check_id(ident, what))
        if code in outside_rows:
            unknown = sorted({perf.languages[t] for r, t in zip(perf.row, perf.target) if r == code and t in outside})
            raise InputError(
                f"performance rows for ({task_id}, {model}, {train}) name languages "
                f"outside the universe: {', '.join(unknown)}"
            )


def load_tasks(path: str | Path) -> list[TaskSpec]:
    """CSV with header ``task,max_performance`` (percent scale)."""
    specs: dict[str, TaskSpec] = {}
    for lineno, (task, max_text) in io._read_csv_rows(path, ("task", "max_performance")):
        where = f"{path}:{lineno}"
        if task in specs:
            raise InputError(f"{where}: duplicate task {task!r}")
        specs[task] = io._located(where, TaskSpec, task, io._parse_float(max_text, where))
    return list(specs.values())


def load_universe(path: str | Path) -> tuple[str, ...]:
    """Plain text, one language code per line; ``#`` comments allowed."""
    codes: list[str] = []
    for where, code in io._records(path):
        if code in codes:
            raise InputError(f"{where}: duplicate language {code!r}")
        codes.append(io._located(where, check_id, code, "language code"))
    return tuple(codes)


def render_scorecard(rows: Sequence[ScorecardRow], scale: str = "percent") -> str:
    io._check_scale(scale)
    factor = 100.0 if scale == "percent" else 1.0
    lines = ["task,model,train_lang,m_tau,gini,tested,universe"]
    for r in rows:
        lines.append(
            f"{r.task},{r.model},{r.train_lang},{io.fmt_num(r.m_tau * factor)},"
            f"{io.fmt_num(r.gini_coeff)},{r.tested},{r.universe_size}"
        )
    return "\n".join(lines) + "\n"
