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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from langdei.errors import ComputationError, InputError, check_id

METRIC_THROUGHPUT = "throughput"
METRIC_MEMORY = "memory"
METRICS = (METRIC_THROUGHPUT, METRIC_MEMORY)

DEFAULT_MAX_MEMORY_GB = 16.0


@dataclass(frozen=True)
class ModelGoods:
    """One model's measured goods for one task."""

    model_id: str
    group: str
    task_id: str
    throughput: float
    memory_gb: float
    performance: float

    def __post_init__(self) -> None:
        check_id(self.model_id, "model id")
        check_id(self.group, "group")
        check_id(self.task_id, "task id")
        if self.throughput <= 0 or not math.isfinite(self.throughput):
            raise InputError(f"throughput for {self.model_id!r} must be positive, got {self.throughput}")
        if self.memory_gb <= 0 or not math.isfinite(self.memory_gb):
            raise InputError(f"memory for {self.model_id!r} must be positive, got {self.memory_gb}")
        if self.performance < 0 or not math.isfinite(self.performance):
            raise InputError(f"performance for {self.model_id!r} must be non-negative, got {self.performance}")


@dataclass(frozen=True)
class EfficiencyConfig:
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


@dataclass(frozen=True)
class AmrsTable:
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


def memory_saved(goods: ModelGoods, config: EfficiencyConfig = EfficiencyConfig()) -> float:
    """Headroom below the memory ceiling; higher is better."""
    if goods.memory_gb > config.max_memory:
        raise InputError(
            f"model {goods.model_id!r} uses {goods.memory_gb} GB, above the {config.max_memory} GB ceiling"
        )
    return config.max_memory - goods.memory_gb


def _metric_value(goods: ModelGoods, metric: str, config: EfficiencyConfig) -> float:
    if metric == METRIC_THROUGHPUT:
        return goods.throughput
    if metric == METRIC_MEMORY:
        return memory_saved(goods, config)
    raise InputError(f"unknown metric {metric!r}; expected one of {METRICS}")


def mrs_sequence(
    group_models: Sequence[ModelGoods], metric: str, config: EfficiencyConfig = EfficiencyConfig()
) -> list[float]:
    """Pairwise substitution rates |delta good / delta perf| between models
    adjacent in ascending-performance order."""
    if len(group_models) < 2:
        raise InputError(f"substitution rates need at least 2 models in a group, got {len(group_models)}")
    ordered = sorted(group_models, key=lambda g: g.performance)
    rates = []
    for lo, hi in zip(ordered, ordered[1:]):
        dperf = hi.performance - lo.performance
        if dperf == 0:
            raise InputError(
                f"models {lo.model_id!r} and {hi.model_id!r} have equal performance "
                f"({lo.performance}); substitution rate undefined"
            )
        dm = _metric_value(hi, metric, config) - _metric_value(lo, metric, config)
        rates.append(abs(dm / dperf))
    return rates


def amrs(mrs_values: Sequence[float]) -> float:
    """Arithmetic mean of substitution rates. A zero mean would divide by
    zero downstream, so it is undefined here."""
    if not mrs_values:
        raise InputError("cannot average an empty list of substitution rates")
    mean = sum(mrs_values) / len(mrs_values)
    if mean == 0:
        raise ComputationError("average substitution rate is 0; efficiency scores would divide by zero")
    return mean


def compute_amrs_table(
    goods: Iterable[ModelGoods], config: EfficiencyConfig = EfficiencyConfig()
) -> AmrsTable:
    """Substitution rates for every (group, task) present in the goods."""
    grouped: dict[tuple[str, str], list[ModelGoods]] = {}
    for g in goods:
        grouped.setdefault((g.group, g.task_id), []).append(g)
    entries: dict[tuple[str, str, str], float] = {}
    for (group, task), models in sorted(grouped.items()):
        if len(models) < 2:
            raise InputError(
                f"group {group!r} has a single model for task {task!r}; substitution rates need >= 2"
            )
        for metric in METRICS:
            entries[(group, task, metric)] = amrs(mrs_sequence(models, metric, config))
    return AmrsTable(entries)


def efficiency_score(
    goods: ModelGoods, amrs_table: AmrsTable, config: EfficiencyConfig = EfficiencyConfig()
) -> float:
    """Weighted sum of goods, each converted to performance units."""
    rate_tp = amrs_table.get(goods.group, goods.task_id, METRIC_THROUGHPUT)
    rate_mem = amrs_table.get(goods.group, goods.task_id, METRIC_MEMORY)
    return (
        config.w_perf * goods.performance
        + config.w_throughput * goods.throughput / rate_tp
        + config.w_memory * memory_saved(goods, config) / rate_mem
    )
