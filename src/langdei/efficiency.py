"""Efficiency scoring: convert model goods into performance units.

A model brings three goods: raw performance, throughput (instances/second on
CPU), and memory saved (a fixed ceiling minus the memory it uses). Within a
group of models assumed to trade goods at comparable rates, the average
marginal rate of substitution (AMRS) of a good against performance converts
that good into performance points; the efficiency score is the weighted sum

    w_perf * perf + w_tp * throughput / AMRS_tp + w_mem * memory_saved / AMRS_mem

Performance needs no conversion (its substitution rate against itself is 1).
Substitution rates come from adjacent model pairs ordered by ascending
performance: |delta good| / |delta perf|, averaged over the pairs.

The goods arrive as a ``GoodsTable``: columns in file order, one row per
(model, task). Its constructor owns the goods rule. The rates, the scores and
the rendered table work on row indices, and each row's memory headroom is
computed once, by ``memory_saved``.
"""

from __future__ import annotations

import math
import warnings
from array import array
from pathlib import Path
from typing import Mapping, Sequence

from langdei import io
from langdei.errors import ComputationError, InputError, check_id
from langdei.records import DEFAULT_MAX_MEMORY_GB, Record, sequential_sum

METRIC_THROUGHPUT = "throughput"
METRIC_MEMORY = "memory"
METRICS = (METRIC_THROUGHPUT, METRIC_MEMORY)
_ID_KINDS = ("model id", "group", "task id")  # the goods id columns, in row order
_GOODS_HEADER = ("model", "group", "task", "throughput", "memory_gb", "perf")


class GoodsTable(Record):
    """Measured goods as columns in file order: row i is the model
    ``model[i]`` of the group ``group[i]`` on the task ``task[i]``, with its
    ``throughput`` (instances/second on CPU), ``memory_gb`` and
    ``performance``, each an ``array('d')`` column.

    The table owns the goods rule: each (model, task) appears once, every id
    is valid, throughput and memory are finite and > 0, and performance is
    finite and >= 0 (``check_row``). The constructor checks it over all rows
    and raises an ``InputError`` for the first row that breaks it.
    """

    model: tuple[str, ...]
    group: tuple[str, ...]
    task: tuple[str, ...]
    throughput: array
    memory_gb: array
    performance: array

    def __post_init__(self) -> None:
        n = len(self.model)
        if any(len(column) != n for column in self._values()):
            raise InputError("goods table columns must be of one length")
        # Each distinct id once, and one pass each over the keys and the
        # value columns; a NaN or infinite value makes the sum fail the test.
        # The row loop below finds the first fault, and is skipped when these
        # passes find none.
        try:
            for column, what in zip((self.model, self.group, self.task), _ID_KINDS):
                for ident in set(column):
                    check_id(ident, what)
        except InputError:
            pass
        else:
            if (len(set(zip(self.model, self.task))) == n and min(self.throughput, default=1.0) > 0
                    and min(self.memory_gb, default=1.0) > 0 and min(self.performance, default=0.0) >= 0
                    and sum(self.throughput) + sum(self.memory_gb) + sum(self.performance) < math.inf):
                return
        seen: set[tuple[str, str]] = set()
        for row in zip(*self._values()):
            self.check_row(seen, *row)

    @staticmethod
    def check_row(seen: set, model: str, group: str, task: str, tp: float, mem: float, perf: float) -> None:
        """The goods rule for one row, given the (model, task) pairs ``seen``
        before it: a repeat is reported first, then its ids (model, group,
        task), then its values in column order. A row that keeps the rule
        joins ``seen``."""
        if (model, task) in seen:
            raise InputError(f"duplicate goods row for model {model!r}, task {task!r}")
        for ident, what in zip((model, group, task), _ID_KINDS):
            check_id(ident, what)
        if not 0 < tp < math.inf:  # also true for NaN
            raise InputError(f"throughput for {model!r} must be positive, got {tp}")
        if not 0 < mem < math.inf:
            raise InputError(f"memory for {model!r} must be positive, got {mem}")
        if not 0 <= perf < math.inf:
            raise InputError(f"performance for {model!r} must be non-negative, got {perf}")
        seen.add((model, task))

    @classmethod
    def read_csv(cls, path: str | Path) -> GoodsTable:
        """The table of a CSV file with header
        ``model,group,task,throughput,memory_gb,perf``, read by
        ``io._read_table``."""

        def fast(rows):
            models, groups, tasks = [], [], []
            throughputs, memories, performances = array("d"), array("d"), array("d")
            for model, group, task, tp, mem, perf in rows:
                models.append(model)
                groups.append(group)
                tasks.append(task)
                throughputs.append(float(tp))
                memories.append(float(mem))
                performances.append(float(perf))
            return cls(*(tuple(map(str.strip, column)) for column in (models, groups, tasks)),
                       throughputs, memories, performances)

        def locate(rows):
            seen: set[tuple[str, str]] = set()
            for where, (model, group, task, *numbers) in rows:
                if (model, task) not in seen:  # check_row reports a repeat first, without reading its numbers
                    numbers = [io._parse_float(text, where) for text in numbers]
                io._located(where, cls.check_row, seen, model, group, task, *numbers)

        return io._read_table(path, _GOODS_HEADER, fast, locate)


class EfficiencyConfig(Record):
    max_memory: float = DEFAULT_MAX_MEMORY_GB
    w_perf: float = 0.5
    w_throughput: float = 0.25
    w_memory: float = 0.25

    def __post_init__(self) -> None:
        if not 0 < self.max_memory < math.inf:  # also false for NaN
            raise InputError(f"max memory must be positive and finite, got {self.max_memory}")
        for name, w in (("w_perf", self.w_perf), ("w_throughput", self.w_throughput), ("w_memory", self.w_memory)):
            if not 0 <= w < math.inf:  # also false for NaN
                raise InputError(f"{name} must be finite and non-negative, got {w}")
        total = self.w_perf + self.w_throughput + self.w_memory
        if abs(total - 1.0) > 1e-9:
            warnings.warn(f"efficiency weights sum to {total}, not 1", stacklevel=3)


class AmrsTable(Record):
    """Average substitution rate per (group, task, metric); all rates positive."""

    entries: Mapping[tuple[str, str, str], float]

    def __post_init__(self) -> None:
        for key, value in self.entries.items():
            self.check_entry(key, value)

    @staticmethod
    def check_entry(key: tuple[str, str, str], value: float) -> None:
        """The rule every entry obeys: valid ids, a known metric, a finite rate > 0."""
        group, task, metric = key
        check_id(group, "group")
        check_id(task, "task id")
        if metric not in METRICS:
            raise InputError(f"metric must be one of {METRICS}, got {metric!r}")
        if not math.isfinite(value) or value <= 0:
            raise InputError(f"substitution rate for {key} must be positive, got {value}")

    def get(self, group: str, task: str, metric: str, row: dict[str, str] | None = None) -> float:
        """The rate of (group, task, metric). A missing rate is an InputError
        whose ``row`` is the given one: the input row that needed the rate."""
        try:
            return self.entries[(group, task, metric)]
        except KeyError:
            raise InputError(f"no substitution rate for group={group!r} task={task!r} metric={metric!r}",
                             row=row) from None


def _row(goods: GoodsTable, i: int) -> dict[str, str]:
    """Row i's ids by goods header column: the ``row`` of a fault about it."""
    return dict(zip(_GOODS_HEADER, (goods.model[i], goods.group[i], goods.task[i])))


def memory_saved(goods: GoodsTable, config: EfficiencyConfig) -> list[float]:
    """Each row's headroom below the memory ceiling, in row order; higher is
    better. The first row, in row order, above the ceiling raises, so the
    rates and the scores that use the headroom never meet a negative one."""
    ceiling = config.max_memory
    for i, mem in enumerate(goods.memory_gb):
        if mem > ceiling:
            raise InputError(f"model {goods.model[i]!r} uses {mem} GB on task {goods.task[i]!r}, above the "
                             f"{ceiling} GB ceiling", row=_row(goods, i))
    return [ceiling - mem for mem in goods.memory_gb]


def _rates(goods: GoodsTable, ordered: list[int], values: Sequence[float]) -> list[float]:
    """Pairwise substitution rates |delta value / delta perf| between the rows adjacent
    in ``ordered``, a stable sort by ascending performance; an equal pair's fault names the later."""
    perf = goods.performance
    rates = []
    for lo, hi in zip(ordered, ordered[1:]):
        dperf = perf[hi] - perf[lo]
        if dperf == 0:
            raise InputError(f"({goods.group[hi]}, {goods.task[hi]}): models {goods.model[lo]!r} and "
                             f"{goods.model[hi]!r} have equal performance ({perf[lo]}); substitution rate undefined",
                             row=_row(goods, hi))
        rates.append(abs((values[hi] - values[lo]) / dperf))
    return rates


def amrs(mrs_values: Sequence[float]) -> float:
    """Arithmetic mean of substitution rates. A zero mean would divide by
    zero downstream, so it is undefined here."""
    if not mrs_values:
        raise InputError("cannot average an empty list of substitution rates")
    mean = sequential_sum(mrs_values) / len(mrs_values)
    if mean == 0:
        raise ComputationError("average substitution rate is 0; efficiency scores would divide by zero")
    return mean


def compute_amrs_table(goods: GoodsTable, saved: Sequence[float]) -> AmrsTable:
    """Substitution rates for every (group, task) present in the goods, from
    the rows' throughput and their memory headroom ``saved``
    (``memory_saved``, which has checked the ceiling), groups in sorted
    order. Each group raises its first fault: a single model, two models of
    equal performance, a zero throughput rate, a zero memory rate."""
    grouped: dict[tuple[str, str], list[int]] = {}
    for i, key in enumerate(zip(goods.group, goods.task)):
        grouped.setdefault(key, []).append(i)
    entries: dict[tuple[str, str, str], float] = {}
    for (group, task), rows in sorted(grouped.items()):
        if len(rows) < 2:
            raise InputError(f"group {group!r} has a single model for task {task!r}; substitution rates need >= 2",
                             row={"group": group, "task": task})
        ordered = sorted(rows, key=goods.performance.__getitem__)
        for metric, values in ((METRIC_THROUGHPUT, goods.throughput), (METRIC_MEMORY, saved)):
            try:
                entries[(group, task, metric)] = amrs(_rates(goods, ordered, values))
            except ComputationError as exc:
                raise ComputationError(f"({group}, {task}, {metric}): {exc}",
                                       row={"group": group, "task": task}) from None
    return AmrsTable(entries)


def efficiency_score(goods: GoodsTable, saved: Sequence[float], amrs_table: AmrsTable,
                     config: EfficiencyConfig) -> list[float]:
    """Each row's weighted sum of goods, each converted to performance units,
    in row order; ``saved`` is the rows' memory headroom (``memory_saved``,
    which has checked the ceiling). The first row, in row order, without a
    rate in ``amrs_table`` raises, with that row's ids as its fault's row."""
    w_perf, w_tp, w_mem = config.w_perf, config.w_throughput, config.w_memory
    entries = amrs_table.entries  # rates are > 0, so only a missing one falls through to ``get``, which raises
    scores = []  # len(scores) is the index of the row being scored
    for group, task, tp, room, perf in zip(goods.group, goods.task, goods.throughput, saved, goods.performance):
        rate_tp = (entries.get((group, task, METRIC_THROUGHPUT))
                   or amrs_table.get(group, task, METRIC_THROUGHPUT, _row(goods, len(scores))))
        rate_mem = (entries.get((group, task, METRIC_MEMORY))
                    or amrs_table.get(group, task, METRIC_MEMORY, _row(goods, len(scores))))
        scores.append(w_perf * perf + w_tp * tp / rate_tp + w_mem * room / rate_mem)
    return scores


def load_amrs(path: str | Path) -> AmrsTable:
    """CSV with header ``group,task,metric,amrs``; every rate must be positive."""
    return AmrsTable(io._read_numbers(path, io._AMRS_HEADER, "substitution rate for", AmrsTable.check_entry))


def render_amrs(table: AmrsTable) -> str:
    lines = [",".join(io._AMRS_HEADER)]
    for group, task, metric in sorted(table.entries):
        lines.append(f"{group},{task},{metric},{io.fmt_num(table.entries[(group, task, metric)])}")
    return "\n".join(lines) + "\n"


def render_efficiency(goods: GoodsTable, saved: Sequence[float], scores: Sequence[float]) -> str:
    """The efficiency CSV: each goods row with its memory headroom ``saved``
    and its score, rows sorted by (task, model)."""
    task, model, group = goods.task, goods.model, goods.group
    perf, tp, fmt_num = goods.performance, goods.throughput, io.fmt_num
    keys = list(zip(task, model))
    lines = [",".join(io._EFFICIENCY_HEADER)]
    for i in sorted(range(len(keys)), key=keys.__getitem__):
        lines.append(f"{task[i]},{model[i]},{group[i]},{fmt_num(perf[i])},{fmt_num(tp[i])},"
                     f"{fmt_num(saved[i])},{fmt_num(scores[i])}")
    return "\n".join(lines) + "\n"
