"""Randomized property checks for the Gini coefficient, shared between the
unit suite (small iteration counts) and the acceptance suite (>= 1000 each),
a ``replace`` for records, reference forms of the performance table: its
cells as a mapping, its rows grouped, the per-row loader and the per-point
Lorenz text; the per-row trace loader; and the numpy kernels that the
one-vector code replaced: the scorecard's matrix kernels (utility, demand,
Gini, Lorenz shares) and the greedy's chunk kernel; the per-source state
closure that the generated state kernel replaced; and the per-row
``ModelGoods`` pipeline of ``efficiency`` that the columnar ``GoodsTable``
replaced; and the exact optimum of the greedy's objective.

Vectors come from a seeded generator, so every run sees the same cases.
"""

from __future__ import annotations

import math
import operator
from array import array
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from langdei import allocator, scalar
from langdei import curves as _curves
from langdei.efficiency import (METRIC_MEMORY, METRIC_THROUGHPUT, METRICS, AmrsTable, EfficiencyConfig, GoodsTable,
                                amrs, load_amrs, render_amrs)
from langdei.errors import ComputationError, InputError, check_id
from langdei.io import _located, _parse_float, _parse_int, _read_csv_rows, fmt_num
from langdei.metrics import PerformanceTable, ScorecardRow, SpeakerTable, gini, lorenz_points
from langdei.records import AllocationPlan, LearningCurve, Record, sequential_sum


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
    target language): raw score}, row by row."""
    return {(*key, lang): score for key, cells in perf.rows.items() for lang, score in cells.items()}


def groups(scores: Mapping[tuple[str, str, str, str], float]) -> list[tuple[tuple[str, str, str], dict[str, float]]]:
    """Cells grouped by (task, model, train language), sorted for determinism."""
    grouped: dict[tuple[str, str, str], dict[str, float]] = {}
    for (task, model, train, target), score in scores.items():
        grouped.setdefault((task, model, train), {})[target] = score
    return [(key, grouped[key]) for key in sorted(grouped)]


def reference_load_performance(path, scale: str = "percent") -> dict[tuple[str, str, str, str], float]:
    """The per-row loader that ``io.load_performance`` replaced: each row is
    checked in full, in file order (repeated cell, then a malformed or NaN
    score, then ids, then the score's range), before the next is read; the
    cells come back as a mapping."""
    factor = 100.0 if scale == "unit" else 1.0
    scores: dict[tuple[str, str, str, str], float] = {}
    header = ("task", "model", "train_lang", "target_lang", "score")
    for where, (task, model, train, target, score_text) in _read_csv_rows(path, header):
        key = (task, model, train, target)
        if key in scores:
            raise InputError(f"{where}: duplicate row for {key}")
        score = _parse_float(score_text, where) * factor
        for ident, what in zip(key, ("task id", "model id", "train language", "target language")):
            _located(where, check_id, ident, what)
        if not 0.0 <= score < math.inf:
            raise InputError(f"{where}: raw score for {key} must be a finite non-negative number, got {score}")
        scores[key] = score
    return scores


def reference_load_trace(path) -> tuple[tuple[int, str, float, float, float], ...]:
    """The per-row trace loader that ``io.load_trace`` replaced: each row is
    parsed in full, step (which must be the data row's number), source id,
    then numbers in column order, before the next is read."""
    rows = []
    header = ("step", "source", "marginal_gain", "gm", "gini")
    for where, (step, source, gain, gm, gini) in _read_csv_rows(path, header):
        if _parse_int(step, where) != len(rows) + 1:
            raise InputError(f"{where}: expected step {len(rows) + 1}, got {step}")
        rows.append((len(rows) + 1, _located(where, check_id, source, "source language"),
                     _parse_float(gain, where), _parse_float(gm, where), _parse_float(gini, where)))
    return tuple(rows)


def reference_lorenz_text(rows: Sequence[ScorecardRow]) -> str:
    """The Lorenz CSV as ``lorenz_points`` of each row gives it, one point
    at a time, rows sorted by (task, model, train language)."""
    lines = ["task,model,train_lang,population_fraction,cumulative_share"]
    for row in sorted(rows, key=lambda r: (r.task, r.model, r.train_lang)):
        for x, y in lorenz_points(row.utilities):
            lines.append(f"{row.task},{row.model},{row.train_lang},{fmt_num(x)},{fmt_num(y)}")
    return "\n".join(lines) + "\n"


# The scorecard's numpy matrix kernels, as ``langdei.metrics`` had them
# before each row became one vector of ``langdei.scalar``: the oracles that
# the one-vector kernels are held to, bit for bit.

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
        powered = np.array([float(speakers.entries[lang]) ** tau if lang in speakers.entries else math.nan
                            for lang in codes])
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
    A finite negative entry, which rounding leaves for near-equal values, is
    0.0, as in ``scalar._gini_kernel``.
    """
    n = rows.shape[1]
    total = rows.sum(axis=1)
    ranks = np.arange(1, n + 1, dtype=float)
    weighted = ((n + 1 - ranks) * np.sort(rows, axis=1)).sum(axis=1)
    g = (n + 1 - 2.0 * weighted / total) / n
    return np.where((-np.inf < g) & (g < 0), 0.0, g)


def _lorenz_shares(rows: np.ndarray) -> np.ndarray:
    """The Lorenz shares of each row of a 2-d array of checked values, one
    row-wise sort and cumulative sum: column k-1 is the share of the row's
    total held by its k smallest values."""
    if not rows.sum(axis=1).all():
        raise ComputationError("Lorenz curve is undefined for an all-zero vector")
    cum = np.cumsum(np.sort(rows, axis=1, kind="stable"), axis=1)
    return cum / cum[:, -1:]


# The greedy's numpy chunk kernel, as the allocator had it before the heap
# merge: ``picks`` is the oracle of ``allocator._picks``, and each row of
# ``_source_chunks`` that of ``allocator._final_state``.

# Rows of a source's first and of its largest state chunk: doubling keeps the
# number of chunks logarithmic, the cap bounds the memory held per source.
CHUNK_ROWS = (64, 256)


def _source_chunks(request: allocator.AllocationRequest, source: str, first: int,
                   last: int) -> Iterator[tuple[np.ndarray, ...]]:
    """(gm, gini, predictions) arrays of one source at k = first, ..., last
    samples, one chunk of consecutive k at a time.

    predictions has a column per target the source covers; gm is their
    demand-weighted sum, gini the Gini coefficient of their absolute values
    (the guard against negative predictions at small k). Each row is
    ``allocator._final_state`` at its k, bit for bit. Chunks have
    CHUNK_ROWS[0] rows, doubling up to CHUNK_ROWS[1]; one ends before the
    first k whose state is undefined, and asking for that k raises its
    ``allocator._undefined_state`` error.
    """
    targets = [t for t in request.targets if (source, t) in request.registry]
    curves = [request.registry[(source, t)] for t in targets]
    weights = [request.demand[t] for t in targets]
    rows = CHUNK_ROWS[0]
    while first <= last:
        ks = range(first, min(first + rows, last + 1))
        gm, gini, predictions, undefined = _state_chunk(curves, weights, ks)
        if gm.size:
            yield gm, gini, predictions
        if undefined is not None:
            allocator._undefined_state(source, ks.start + gm.size, undefined.tolist())
        first = ks.stop
        rows = min(2 * rows, CHUNK_ROWS[1])


def _state_chunk(curves: list[LearningCurve], weights: list[float], ks: range) -> tuple[np.ndarray, ...]:
    """gm, gini and the (ks x targets) matrix of curves.predict columns
    at each k in ks up to the first undefined state (a gm or Gini that is
    not finite), and that k's absolute predictions (or None).

    gm adds the targets in sorted order, and Gini is _gini_rows,
    so each state is bit-identical to allocator._final_state at that k.
    """
    with np.errstate(all="ignore"):  # undefined rows are cut off below
        predictions = np.column_stack([[_curves.predict(curve, k) for k in ks] for curve in curves])
        gm = np.zeros(len(ks))
        for w, column in zip(weights, predictions.T):
            gm += w * column
        absolute = np.abs(predictions)
        gini = _gini_rows(absolute)
    undefined = np.flatnonzero(~(np.isfinite(gm) & np.isfinite(gini)))
    if undefined.size:
        end = int(undefined[0])
        return gm[:end], gini[:end], predictions[:end], absolute[end]
    return gm, gini, predictions, None


def _gain_chunks(request: allocator.AllocationRequest, source: str) -> Iterator[np.ndarray]:
    """(gain, gm, gini, -running minimum gain) rows of each _source_chunks chunk."""
    alpha, beta = request.alpha, request.beta
    gm_prev, gini_prev, least = -math.inf, 1.0, math.inf
    for gm, gini, _ in _source_chunks(request, source, 1, request.budget):
        with np.errstate(all="ignore"):  # a step's float operations, silent as Python's
            gm_term = alpha * (gm - np.append(gm_prev, gm[:-1])) if alpha != 0 else 0.0
            gain = gm_term + beta * (np.append(gini_prev, gini[:-1]) - gini)
        running = np.minimum.accumulate(np.append(least, gain))[1:]
        yield np.stack((gain, gm, gini, -running))
        gm_prev, gini_prev, least = gm[-1], gini[-1], running[-1]


def picks(request: allocator.AllocationRequest, trace: bool) -> tuple[list[int], tuple[tuple, ...]]:
    """Each source's count of the budget's argmax-gain picks, in source
    order, and, if ``trace`` is true, the picks' (step, source, gain, gm,
    gini) rows in step order (else ())."""
    sources, budget = request.sources, request.budget
    streams = [_gain_chunks(request, s) for s in sources]
    kept = slice(None) if trace else slice(3, None)  # the key row alone serves the counts
    # Each source's kept _gain_chunks rows so far: the first size[i] columns
    # of a buffer that doubles when full, so its extensions copy O(k) in all.
    rows = [next(stream)[kept] for stream in streams]
    size = [block.shape[1] for block in rows]
    while True:
        # The bound: the least (-running minimum, source index) over the
        # sources with states left. Every computed state at or below it is
        # final; the step-by-step greedy would next ask its holder for one.
        live = [i for i, n in enumerate(size) if n < budget]
        holder = min(live, key=lambda i: (rows[i][-1, size[i] - 1], i), default=None)
        if holder is None or budget <= sum(
            np.searchsorted(block[-1, :n], rows[holder][-1, size[holder] - 1], "right" if i <= holder else "left")
            for i, (block, n) in enumerate(zip(rows, size))
        ):
            break
        new, n = next(streams[holder])[kept], size[holder]
        if n + new.shape[1] > rows[holder].shape[1]:
            rows[holder] = np.concatenate((rows[holder][:, :n], np.empty((len(new), n + new.shape[1]))), axis=1)
        rows[holder][:, n:n + new.shape[1]] = new
        size[holder] = n + new.shape[1]

    # In (source, k) order, a stable sort on -(running minimum) is a lexsort
    # by (-running minimum, source index, k): the order of the picks.
    order = np.argsort(np.concatenate([block[-1, :n] for block, n in zip(rows, size)]), kind="stable")[:budget]
    owner = np.repeat(np.arange(len(sources)), size)[order]
    steps = ()
    if trace:
        gain, gm, gini = np.concatenate([block[:3, :n] for block, n in zip(rows, size)], axis=1)[:, order].tolist()
        steps = tuple(zip(range(1, budget + 1), [sources[i] for i in owner.tolist()], gain, gm, gini))
    return np.bincount(owner, minlength=len(sources)).tolist(), steps


# The greedy's state closure, as ``allocator._source_state`` had it before
# the state function was generated per target count, with numpy's Gini: the
# oracle of every generated state, bit for bit, and of its error.

def reference_source_state(request: allocator.AllocationRequest,
                           source: str) -> tuple[list[str], Callable[[int], tuple]]:
    """The targets one source covers, in target order, and its state
    function: k -> gm, Gini and the covered targets' predictions at k
    samples, with the Gini of numpy's ``_gini_rows``."""
    targets = [t for t in request.targets if (source, t) in request.registry]
    curves = [request.registry[(source, t)] for t in targets]
    coefficients = [(curve.a, curve.b, -curve.c) for curve in curves]
    weights = [request.demand[t] for t in targets]

    def state(k: int) -> tuple[float, float, list[float]]:
        x = float(k)
        predictions = [a + b * x ** e for a, b, e in coefficients]
        gm = sequential_sum(map(operator.mul, weights, predictions))
        absolute = list(map(abs, predictions))
        with np.errstate(all="ignore"):  # an undefined Gini raises below
            gini = float(_gini_rows(np.array([absolute]))[0])
        if not (math.isfinite(gm) and math.isfinite(gini)):
            allocator._undefined_state(source, k, absolute)
        return gm, gini, predictions

    return targets, state


# The exact optimum of the greedy's objective: the oracle that shows where
# the one-step greedy falls short of it.

def optimal_objective(request: allocator.AllocationRequest) -> np.ndarray:
    """Entry b, for b = 0..budget: the largest F = sum over sources of
    alpha * gm_s(k_s) - beta * gini_s(k_s) over the allocations of b samples
    that give every source k_s >= 1 (-inf where b is below the number of
    sources). A max-plus DP over the sources in source order, each source's
    terms from ``allocator._source_state``: a Python loop over b and numpy
    over k, O(|S| * budget^2) additions. F adds the sources' terms left to
    right, as ``plan_objective`` does."""
    budget = request.budget
    best = np.full(budget + 1, -np.inf)
    best[0] = 0.0
    for source in request.sources:
        state = allocator._source_state(request, source)[1]
        terms = np.array([request.alpha * gm - request.beta * gini
                          for gm, gini, _ in map(state, range(1, budget + 1))])  # terms[k - 1]: at k samples
        # best[b - k] + terms[k - 1] for k = 1..b
        best = np.array([-np.inf] + [np.max(best[b - 1::-1] + terms[:b]) for b in range(1, budget + 1)])
    return best


def plan_objective(plan: AllocationPlan) -> float:
    """The greedy's objective F of a plan whose sources are all funded."""
    return sequential_sum(plan.alpha * plan.final_gm[s] - plan.beta * plan.final_gini[s] for s in sorted(plan.counts))


# The per-row goods pipeline, as ``langdei.efficiency`` and ``langdei.io``
# had it before the columnar ``GoodsTable``: one ``ModelGoods`` record per
# row, built and checked as each row is read. ``reference_run_efficiency``
# is the oracle of ``commands.efficiency.run``: exit code, messages and bytes.

class ModelGoods(Record):
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


def goods_table(goods: Sequence[ModelGoods]) -> GoodsTable:
    """The ``GoodsTable`` of ``ModelGoods`` rows, in their order."""
    return GoodsTable(tuple(g.model_id for g in goods), tuple(g.group for g in goods), tuple(g.task_id for g in goods),
                      array("d", [g.throughput for g in goods]), array("d", [g.memory_gb for g in goods]),
                      array("d", [g.performance for g in goods]))


def memory_saved(goods: ModelGoods, config: EfficiencyConfig = EfficiencyConfig()) -> float:
    """Headroom below the memory ceiling; higher is better."""
    if goods.memory_gb > config.max_memory:
        raise InputError(f"model {goods.model_id!r} uses {goods.memory_gb} GB on task {goods.task_id!r}, "
                         f"above the {config.max_memory} GB ceiling")
    return config.max_memory - goods.memory_gb


def _metric_value(goods: ModelGoods, metric: str, config: EfficiencyConfig) -> float:
    if metric == METRIC_THROUGHPUT:
        return goods.throughput
    if metric == METRIC_MEMORY:
        return memory_saved(goods, config)
    raise InputError(f"unknown metric {metric!r}; expected one of {METRICS}")


def mrs_sequence(group_models: Sequence[ModelGoods], metric: str, config: EfficiencyConfig = EfficiencyConfig(),
                 at: Callable[[ModelGoods], str] = lambda g: "") -> list[float]:
    """Pairwise substitution rates |delta good / delta perf| between models
    adjacent in ascending-performance order; two of equal performance are
    an error prefixed by ``at`` of the later."""
    if len(group_models) < 2:
        raise InputError(f"substitution rates need at least 2 models in a group, got {len(group_models)}")
    ordered = sorted(group_models, key=lambda g: g.performance)
    rates = []
    for lo, hi in zip(ordered, ordered[1:]):
        dperf = hi.performance - lo.performance
        if dperf == 0:
            raise InputError(
                f"{at(hi)}({hi.group}, {hi.task_id}): models {lo.model_id!r} and {hi.model_id!r} have equal "
                f"performance ({lo.performance}); substitution rate undefined"
            )
        dm = _metric_value(hi, metric, config) - _metric_value(lo, metric, config)
        rates.append(abs(dm / dperf))
    return rates


def compute_amrs_table(goods: Iterable[ModelGoods], config: EfficiencyConfig = EfficiencyConfig(),
                       wheres: Mapping[tuple[str, str], str] = {}) -> AmrsTable:
    """Substitution rates for every (group, task) present in the goods. A
    fault is prefixed by the ``file:line`` in ``wheres`` ((model, task) ->
    line) of the row it is about: the later of two rows of equal
    performance, or else its group's first row."""

    def at(g: ModelGoods) -> str:
        where = wheres.get((g.model_id, g.task_id))
        return f"{where}: " if where else ""

    grouped: dict[tuple[str, str], list[ModelGoods]] = {}
    for g in goods:
        grouped.setdefault((g.group, g.task_id), []).append(g)
    entries: dict[tuple[str, str, str], float] = {}
    for (group, task), models in sorted(grouped.items()):
        if len(models) < 2:
            raise InputError(
                f"{at(models[0])}group {group!r} has a single model for task {task!r}; substitution rates need >= 2"
            )
        for metric in METRICS:
            try:
                entries[(group, task, metric)] = amrs(mrs_sequence(models, metric, config, at))
            except ComputationError as exc:
                raise ComputationError(f"{at(models[0])}({group}, {task}, {metric}): {exc}") from None
    return AmrsTable(entries)


def efficiency_score(goods: ModelGoods, amrs_table: AmrsTable, config: EfficiencyConfig = EfficiencyConfig()) -> float:
    """Weighted sum of goods, each converted to performance units."""
    rate_tp = amrs_table.get(goods.group, goods.task_id, METRIC_THROUGHPUT)
    rate_mem = amrs_table.get(goods.group, goods.task_id, METRIC_MEMORY)
    return (
        config.w_perf * goods.performance
        + config.w_throughput * goods.throughput / rate_tp
        + config.w_memory * memory_saved(goods, config) / rate_mem
    )


def reference_load_goods(path) -> list[ModelGoods]:
    """The per-row goods loader: each row is checked in full, in file order
    (repeat, numbers, then the record's rule), before the next is read."""
    goods: list[ModelGoods] = []
    seen: set[tuple[str, str]] = set()
    header = ("model", "group", "task", "throughput", "memory_gb", "perf")
    for where, (model, group, task, tp_text, mem_text, perf_text) in _read_csv_rows(path, header):
        if (model, task) in seen:
            raise InputError(f"{where}: duplicate goods row for model {model!r}, task {task!r}")
        seen.add((model, task))
        numbers = [_parse_float(text, where) for text in (tp_text, mem_text, perf_text)]
        goods.append(_located(where, ModelGoods, model, group, task, *numbers))
    return goods


def reference_render_efficiency(rows: Sequence[tuple[ModelGoods, float]], config: EfficiencyConfig) -> str:
    lines = ["task,model,group,perf,throughput,memory_saved,efficiency"]
    for goods, score in sorted(rows, key=lambda r: (r[0].task_id, r[0].model_id)):
        lines.append(
            f"{goods.task_id},{goods.model_id},{goods.group},{fmt_num(goods.performance)},"
            f"{fmt_num(goods.throughput)},{fmt_num(memory_saved(goods, config))},{fmt_num(score)}"
        )
    return "\n".join(lines) + "\n"


def reference_run_efficiency(args) -> tuple[dict[str, str], str]:
    """``commands.efficiency.run`` over the per-row pipeline. A fault about a
    row, a rate the override lacks included, is prefixed by its ``file:line``."""
    goods = reference_load_goods(args.goods)
    header = ("model", "group", "task", "throughput", "memory_gb", "perf")
    wheres = {(g.model_id, g.task_id): where for g, (where, _) in zip(goods, _read_csv_rows(args.goods, header))}
    w_perf, w_tp, w_mem = args.weights
    config = EfficiencyConfig(max_memory=args.max_memory, w_perf=w_perf, w_throughput=w_tp, w_memory=w_mem)
    for g in goods:  # the ceiling, checked in row order before any rate
        _located(wheres[(g.model_id, g.task_id)], memory_saved, g, config)
    if args.amrs_override:
        table = load_amrs(args.amrs_override)
    else:
        table = compute_amrs_table(goods, config, wheres)
    scored = [(g, _located(wheres[(g.model_id, g.task_id)], efficiency_score, g, table, config)) for g in goods]
    outputs = {args.out: reference_render_efficiency(scored, config)}
    if args.amrs_out:
        outputs[args.amrs_out] = render_amrs(table)
    return outputs, f"efficiency: scored {len(scored)} models -> {args.out}"
