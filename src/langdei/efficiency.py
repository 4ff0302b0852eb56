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

import csv
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


class GoodsError(InputError):
    """The first row of a ``GoodsTable``, in row order, that breaks the goods
    rule; ``index`` is its row, and ``repeated`` is true when it repeats an
    earlier (model, task)."""

    def __init__(self, message: str, index: int, repeated: bool) -> None:
        super().__init__(message)
        self.index = index
        self.repeated = repeated


class GoodsTable(Record):
    """Measured goods as columns in file order: row i is the model
    ``model[i]`` of the group ``group[i]`` on the task ``task[i]``, with its
    ``throughput`` (instances/second on CPU), ``memory_gb`` and
    ``performance``, each an ``array('d')`` column.

    The table owns the goods rule: each (model, task) appears once, every id
    is valid, throughput and memory are finite and > 0, and performance is
    finite and >= 0. The constructor checks it over all rows and raises
    ``GoodsError`` for the first row that breaks it; of one row, a repeat is
    reported first, then its ids (model, group, task), then its values in
    column order.
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
        valid: set[str] = set()  # the rule of an id is the same for every kind
        for i, (model, group, task, tp, mem, perf) in enumerate(zip(*self._values())):
            if (model, task) in seen:
                raise GoodsError(f"duplicate goods row for model {model!r}, task {task!r}", i, True)
            seen.add((model, task))
            try:
                for ident, what in zip((model, group, task), _ID_KINDS):
                    if ident not in valid:
                        valid.add(check_id(ident, what))
            except InputError as exc:
                raise GoodsError(str(exc), i, False) from None
            if not 0 < tp < math.inf:  # also true for NaN
                raise GoodsError(f"throughput for {model!r} must be positive, got {tp}", i, False)
            if not 0 < mem < math.inf:
                raise GoodsError(f"memory for {model!r} must be positive, got {mem}", i, False)
            if not 0 <= perf < math.inf:
                raise GoodsError(f"performance for {model!r} must be non-negative, got {perf}", i, False)

    @classmethod
    def read_csv(cls, path: str | Path) -> GoodsTable:
        """The table of a CSV file with header
        ``model,group,task,throughput,memory_gb,perf``.

        The file is read in one pass of ``csv.reader`` into the columns. The
        first fault in file order is reported at its ``file:line``, found by
        reading the file again: a row that is not CSV or not 6 fields, a
        repeated (model, task), a malformed or NaN number, or a fault of the
        rule.
        """
        header = ("model", "group", "task", "throughput", "memory_gb", "perf")
        ids: tuple[list[str], ...] = ([], [], [])
        values = (array("d"), array("d"), array("d"))
        fault = None  # the data row the reading stopped at

        def table() -> GoodsTable | None:
            """The table of the rows read so far; a row that breaks its rule
            is reported at its line. Of the row the reading stopped at, only
            a repeat precedes the fault that stopped it (None)."""
            try:
                return cls(*(tuple(map(str.strip, column)) for column in ids), *values)
            except GoodsError as exc:
                if fault is None or exc.index < fault or exc.repeated:
                    raise InputError(f"{io._row_at(path, header, exc.index)[0]}: {exc}") from None
            return None

        try:
            with io._open_utf8(path, newline="") as fh:
                reader = csv.reader(fh)
                io._skip_header(reader, path, header)
                for cells in reader:
                    if len(cells) != 6:
                        if cells:
                            fault = len(values[0])
                            break
                        continue
                    try:
                        numbers = (float(cells[3]), float(cells[4]), float(cells[5]))
                    except ValueError:
                        numbers = None
                    # One test of the sum serves all three numbers unless it
                    # is NaN, which inf - inf gives as well.
                    if numbers is None or math.isnan(sum(numbers)) and any(map(math.isnan, numbers)):
                        fault = len(values[0])
                        numbers = (1.0, 1.0, 0.0)  # valid stand-ins, so that a repeat on this line is reported first
                    for column, cell in zip(ids, cells):
                        column.append(cell)
                    for column, number in zip(values, numbers):
                        column.append(number)
                    if fault is not None:
                        break
        except csv.Error:
            fault = len(values[0])
        except InputError:
            table()  # a fault of the rule before this one is reported first
            raise
        goods = table()
        if fault is None:
            return goods
        where, cells = io._row_at(path, header, fault)  # a row that is not CSV or not 6 fields raises here
        for text in cells[3:]:
            io._parse_float(text, where)  # raises for the malformed or NaN number the reading stopped at
        raise AssertionError(f"{where}: no fault found again")


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

    def get(self, group: str, task: str, metric: str) -> float:
        try:
            return self.entries[(group, task, metric)]
        except KeyError:
            raise InputError(f"no substitution rate for group={group!r} task={task!r} metric={metric!r}") from None


def memory_saved(goods: GoodsTable, config: EfficiencyConfig) -> list[float]:
    """Each row's headroom below the memory ceiling, in row order; higher is
    better. A row above the ceiling gets a negative headroom here; the rates
    and the scores that would use it raise ``_above_ceiling`` instead."""
    ceiling = config.max_memory
    return [ceiling - mem for mem in goods.memory_gb]


def _above_ceiling(goods: GoodsTable, i: int, config: EfficiencyConfig) -> InputError:
    return InputError(
        f"model {goods.model[i]!r} uses {goods.memory_gb[i]} GB, above the {config.max_memory} GB ceiling"
    )


def _rates(goods: GoodsTable, ordered: list[int], values: Sequence[float]) -> list[float]:
    """Pairwise substitution rates |delta value / delta perf| between the
    rows adjacent in ``ordered``, rows in ascending-performance order."""
    perf = goods.performance
    rates = []
    for lo, hi in zip(ordered, ordered[1:]):
        dperf = perf[hi] - perf[lo]
        if dperf == 0:
            raise InputError(
                f"models {goods.model[lo]!r} and {goods.model[hi]!r} have equal performance "
                f"({perf[lo]}); substitution rate undefined"
            )
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


def compute_amrs_table(goods: GoodsTable, saved: Sequence[float], config: EfficiencyConfig) -> AmrsTable:
    """Substitution rates for every (group, task) present in the goods, from
    the rows' throughput and their memory headroom ``saved``
    (``memory_saved``), groups in sorted order. Each group raises its first
    fault: a single model, two models of equal performance, a zero
    throughput rate, a model above the memory ceiling (of the first pair in
    performance order that holds one, the better model first), a zero
    memory rate."""
    grouped: dict[tuple[str, str], list[int]] = {}
    for i, key in enumerate(zip(goods.group, goods.task)):
        grouped.setdefault(key, []).append(i)
    memory, ceiling = goods.memory_gb, config.max_memory
    over = max(memory, default=0.0) > ceiling
    entries: dict[tuple[str, str, str], float] = {}
    for (group, task), rows in sorted(grouped.items()):
        if len(rows) < 2:
            raise InputError(
                f"group {group!r} has a single model for task {task!r}; substitution rates need >= 2"
            )
        ordered = sorted(rows, key=goods.performance.__getitem__)
        entries[(group, task, METRIC_THROUGHPUT)] = amrs(_rates(goods, ordered, goods.throughput))
        if over:
            for lo, hi in zip(ordered, ordered[1:]):
                for i in (hi, lo):
                    if memory[i] > ceiling:
                        raise _above_ceiling(goods, i, config)
        entries[(group, task, METRIC_MEMORY)] = amrs(_rates(goods, ordered, saved))
    return AmrsTable(entries)


def efficiency_score(goods: GoodsTable, saved: Sequence[float], amrs_table: AmrsTable,
                     config: EfficiencyConfig) -> list[float]:
    """Each row's weighted sum of goods, each converted to performance units,
    in row order; ``saved`` is the rows' memory headroom (``memory_saved``).
    The first row, in row order, without a rate in ``amrs_table`` or above
    the memory ceiling raises."""
    w_perf, w_tp, w_mem, ceiling = config.w_perf, config.w_throughput, config.w_memory, config.max_memory
    entries = amrs_table.entries  # rates are > 0, so only a missing one falls through to ``get``, which raises
    scores = []
    for i, (group, task, tp, mem, room, perf) in enumerate(zip(
            goods.group, goods.task, goods.throughput, goods.memory_gb, saved, goods.performance)):
        rate_tp = entries.get((group, task, METRIC_THROUGHPUT)) or amrs_table.get(group, task, METRIC_THROUGHPUT)
        rate_mem = entries.get((group, task, METRIC_MEMORY)) or amrs_table.get(group, task, METRIC_MEMORY)
        if mem > ceiling:
            raise _above_ceiling(goods, i, config)
        scores.append(w_perf * perf + w_tp * tp / rate_tp + w_mem * room / rate_mem)
    return scores


def load_amrs(path: str | Path) -> AmrsTable:
    """CSV with header ``group,task,metric,amrs``; every rate must be positive."""
    entries: dict[tuple[str, str, str], float] = {}
    for lineno, (group, task, metric, value_text) in io._read_csv_rows(path, ("group", "task", "metric", "amrs")):
        where = f"{path}:{lineno}"
        key = (group, task, metric)
        if key in entries:
            raise InputError(f"{where}: duplicate substitution rate for {key}")
        value = io._parse_float(value_text, where)
        io._located(where, AmrsTable.check_entry, key, value)
        entries[key] = value
    return AmrsTable(entries)


def render_amrs(table: AmrsTable) -> str:
    lines = ["group,task,metric,amrs"]
    for group, task, metric in sorted(table.entries):
        lines.append(f"{group},{task},{metric},{io.fmt_num(table.entries[(group, task, metric)])}")
    return "\n".join(lines) + "\n"


def render_efficiency(goods: GoodsTable, saved: Sequence[float], scores: Sequence[float]) -> str:
    """The efficiency CSV: each goods row with its memory headroom ``saved``
    and its score, rows sorted by (task, model)."""
    task, model, group = goods.task, goods.model, goods.group
    perf, tp, fmt_num = goods.performance, goods.throughput, io.fmt_num
    keys = list(zip(task, model))
    lines = ["task,model,group,perf,throughput,memory_saved,efficiency"]
    for i in sorted(range(len(keys)), key=keys.__getitem__):
        lines.append(f"{task[i]},{model[i]},{group[i]},{fmt_num(perf[i])},{fmt_num(tp[i])},"
                     f"{fmt_num(saved[i])},{fmt_num(scores[i])}")
    return "\n".join(lines) + "\n"
