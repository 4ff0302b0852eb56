"""Greedy annotation-budget allocation across source languages.

One labeling budget X is split among source languages S to maximize predicted
quality on target languages T, where quality comes from fitted learning
curves. Each greedy step hands one sample to the source with the highest
marginal gain

    alpha * (gm_s(k+1) - current_gm[s]) + beta * (current_gini[s] - gini_s(k+1))

with gm_s the demand-weighted sum of per-target curve predictions and gini_s
the Gini coefficient of the absolute per-target predictions. current_gm
starts at -inf (every source's first gain is +inf, so each source gets one
sample before any gets two) and current_gini starts at 1. Ties break on
lexicographic source order.

The gain of a source's k-th sample depends only on k, so greedy_allocate
merges lazy per-source streams of states with a heap keyed on
(-gain, source index). That is the exact argmax of every step: unlike lazy
("accelerated") greedy it needs no diminishing returns, which the Gini term
breaks. The trace for a budget is a prefix of the trace for any larger one.

Egalitarian and single-source baselines are provided, plus a surrogate plan
evaluation that composes per-target utilities from the funded sources'
curves; surrogate numbers are predictions, not measurements.
"""

from __future__ import annotations

import heapq
import logging
import math
from dataclasses import dataclass, replace
from typing import Iterator, Mapping, Sequence

import numpy as np

from langdei import curves as _curves
from langdei import metrics as _metrics
from langdei.curves import LearningCurve
from langdei.errors import ComputationError, InputError

logger = logging.getLogger("langdei.allocator")

CurveRegistry = Mapping[tuple[str, str], LearningCurve]

MISSING_POLICIES = ("strict", "permissive")
COMPOSITION_MODES = ("best-source", "mean")

# Rows of a source's first and of its largest state chunk: doubling keeps the
# number of chunks logarithmic, the cap bounds the memory held per source.
CHUNK_ROWS = (64, 256)


@dataclass(frozen=True, slots=True)
class TraceStep:
    step: int
    source: str
    marginal_gain: float
    gm: float
    gini: float


@dataclass(frozen=True)
class PlanEvaluation:
    """Surrogate (curve-predicted) metrics for a finished plan."""

    mode: str
    utilities: Mapping[str, float]
    m_tau: float
    gini_coeff: float
    clamped: bool = False
    surrogate: bool = True


@dataclass(frozen=True)
class AllocationRequest:
    budget: int
    sources: tuple[str, ...]
    targets: tuple[str, ...]
    registry: CurveRegistry
    demand: Mapping[str, float]
    alpha: float = 1.0
    beta: float = 1.0
    missing: str = "strict"

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise InputError(f"budget must be >= 1, got {self.budget}")
        if not self.sources or not self.targets:
            raise InputError("sources and targets must be non-empty")
        object.__setattr__(self, "sources", tuple(sorted(self.sources)))
        object.__setattr__(self, "targets", tuple(sorted(self.targets)))
        if len(set(self.sources)) != len(self.sources):
            raise InputError("duplicate source languages")
        if len(set(self.targets)) != len(self.targets):
            raise InputError("duplicate target languages")
        if self.alpha < 0 or self.beta < 0 or self.alpha + self.beta <= 0:
            raise InputError(f"objective weights must be non-negative with alpha + beta > 0, got alpha={self.alpha} beta={self.beta}")
        if self.missing not in MISSING_POLICIES:
            raise InputError(f"missing-curve policy must be one of {MISSING_POLICIES}, got {self.missing!r}")
        absent = sorted(set(self.targets) - set(self.demand))
        if absent:
            raise InputError(f"demand weights missing for targets: {', '.join(absent)}")
        # Validate curve coverage once, logging each dropped pair once.
        available: dict[str, tuple[str, ...]] = {}
        for s in self.sources:
            missing_pairs = [t for t in self.targets if (s, t) not in self.registry]
            if missing_pairs and self.missing == "strict":
                pairs = ", ".join(f"({s}, {t})" for t in missing_pairs)
                raise InputError(f"no curve for pairs: {pairs} (strict missing-curve policy)")
            for t in missing_pairs:
                logger.warning("no curve for pair (%s, %s); dropping target from source %s", s, t, s)
            covered = tuple(t for t in self.targets if (s, t) in self.registry)
            if not covered:
                raise InputError(f"source {s!r} has no curve for any target")
            available[s] = covered
        object.__setattr__(self, "_available", available)


@dataclass(frozen=True)
class AllocationPlan:
    strategy: str
    budget: int
    counts: Mapping[str, int]
    final_gm: Mapping[str, float]
    final_gini: Mapping[str, float]
    alpha: float = 1.0
    beta: float = 1.0
    missing: str = "strict"
    trace: tuple[TraceStep, ...] = ()
    evaluation: PlanEvaluation | None = None


def _source_states(request: AllocationRequest, source: str, first: int, last: int) -> Iterator[tuple[float, float]]:
    """(gm, gini) of one source at k = first, ..., last samples, in order.

    gm is the demand-weighted sum of the per-target predictions over the
    targets the source covers; gini is the Gini coefficient of their absolute
    values (the guard against negative predictions at small k). Chunks of
    CHUNK_ROWS[0] rows, doubling up to CHUNK_ROWS[1], are computed ahead of
    need, but a state whose Gini is undefined raises only when reached.
    """
    targets = request._available[source]
    curves = [request.registry[(source, t)] for t in targets]
    weights = [request.demand[t] for t in targets]
    rows = CHUNK_ROWS[0]
    while first <= last:
        ks = range(first, min(first + rows, last + 1))
        gm, gini, undefined = _state_chunk(curves, weights, ks)
        yield from zip(gm, gini)
        if undefined is not None:
            _metrics.gini(undefined)  # raises: not finite, or all zero
        first = ks.stop
        rows = min(2 * rows, CHUNK_ROWS[1])


def _state_chunk(
    curves: Sequence[LearningCurve], weights: Sequence[float], ks: range
) -> tuple[list[float], list[float], np.ndarray | None]:
    """gm and gini at each k in ks up to the first undefined Gini, and that
    k's absolute predictions (or None).

    One (ks x targets) matrix of curves.predict_many columns: gm adds the
    targets in sorted order, and the row-wise Gini reductions equal
    metrics.gini on each row, so each state is bit-identical to computing it
    at that k alone.
    """
    n = len(curves)
    with np.errstate(all="ignore"):  # undefined rows are cut off below
        columns = [_curves.predict_many(curve, ks) for curve in curves]
        gm = np.zeros(len(ks))
        for w, column in zip(weights, columns):
            gm += w * column
        absolute = np.abs(np.column_stack(columns))
        total = absolute.sum(axis=1)
        weighted = ((n + 1 - np.arange(1, n + 1, dtype=float)) * np.sort(absolute, axis=1)).sum(axis=1)
        gini = (n + 1 - 2.0 * weighted / total) / n
    undefined = np.flatnonzero(~np.isfinite(absolute).all(axis=1) | (total == 0))
    if undefined.size:
        end = int(undefined[0])
        return gm[:end].tolist(), gini[:end].tolist(), absolute[end].copy()
    return gm.tolist(), gini.tolist(), None


def greedy_allocate(request: AllocationRequest) -> AllocationPlan:
    """Allocate the budget one sample at a time to the argmax-gain source, as
    a heap merge of the sources' state streams (see the module docstring)."""
    sources = request.sources
    alpha, beta, budget = request.alpha, request.beta, request.budget
    streams = [_source_states(request, s, 1, budget) for s in sources]

    def candidate(i: int, gm_now: float, gini_now: float) -> tuple[float, int, float, float]:
        gm, g = next(streams[i])
        gm_term = alpha * (gm - gm_now) if alpha != 0 else 0.0
        return -(gm_term + beta * (gini_now - g)), i, gm, g

    heap = [candidate(i, -math.inf, 1.0) for i in range(len(sources))]
    heapq.heapify(heap)
    samples = [0] * len(sources)
    trace: list[TraceStep] = []
    for step in range(1, budget + 1):
        neg_gain, i, gm, g = heap[0]
        samples[i] += 1
        trace.append(TraceStep(step, sources[i], -neg_gain, gm, g))
        if step < budget:
            heapq.heapreplace(heap, candidate(i, gm, g))

    last = {t.source: t for t in trace}
    return AllocationPlan(
        strategy="greedy",
        budget=budget,
        counts=dict(zip(sources, samples)),
        final_gm={s: last[s].gm for s in sources if s in last},
        final_gini={s: last[s].gini for s in sources if s in last},
        alpha=alpha,
        beta=beta,
        missing=request.missing,
        trace=tuple(trace),
    )


def _fixed_plan(request: AllocationRequest, strategy: str, counts: dict[str, int]) -> AllocationPlan:
    """A plan with counts decided up front and each funded source's final state."""
    states = {s: next(_source_states(request, s, k, k)) for s, k in counts.items() if k > 0}
    return AllocationPlan(
        strategy=strategy,
        budget=request.budget,
        counts=counts,
        final_gm={s: gm for s, (gm, _) in states.items()},
        final_gini={s: g for s, (_, g) in states.items()},
        alpha=request.alpha,
        beta=request.beta,
        missing=request.missing,
    )


def egalitarian_allocate(request: AllocationRequest) -> AllocationPlan:
    """floor(X / |S|) per source; the remainder goes one each to the first
    sources in lexicographic order."""
    base, remainder = divmod(request.budget, len(request.sources))
    counts = {s: base + (1 if i < remainder else 0) for i, s in enumerate(request.sources)}
    return _fixed_plan(request, "egalitarian", counts)


def single_source_allocate(request: AllocationRequest, source: str) -> AllocationPlan:
    """The whole budget to one source."""
    if source not in request.sources:
        raise InputError(f"unknown source language {source!r}; sources are {', '.join(request.sources)}")
    counts = {s: request.budget if s == source else 0 for s in request.sources}
    return _fixed_plan(request, f"single:{source}", counts)


def evaluate_plan(
    plan: AllocationPlan,
    registry: CurveRegistry,
    demand: Mapping[str, float],
    targets: Sequence[str],
    mode: str = "best-source",
    clamp: bool = False,
    missing: str = "strict",
) -> PlanEvaluation:
    """Surrogate metrics of a plan under the fitted curves.

    Per-target utility composes across funded sources: the best funded
    source's prediction, or their mean. There is no measured ground truth
    here; the result is labeled surrogate. Dispersion uses absolute utilities,
    matching the optimizer's guard against negative predictions.
    """
    if mode not in COMPOSITION_MODES:
        raise InputError(f"composition mode must be one of {COMPOSITION_MODES}, got {mode!r}")
    funded = [s for s in sorted(plan.counts) if plan.counts[s] > 0]
    if not funded:
        raise InputError("plan funds no source; nothing to evaluate")
    utilities: dict[str, float] = {}
    for t in sorted(targets):
        preds = [
            _curves.predict(registry[(s, t)], plan.counts[s])
            for s in funded
            if (s, t) in registry
        ]
        if not preds:
            if missing == "strict":
                raise InputError(f"no funded source has a curve for target {t!r}")
            logger.warning("no funded source covers target %s; dropped from evaluation", t)
            continue
        value = max(preds) if mode == "best-source" else sum(preds) / len(preds)
        if clamp:
            value = min(max(value, 0.0), 1.0)
        utilities[t] = value
    if not utilities:
        raise ComputationError("no target is covered by any funded source")
    absent = sorted(set(utilities) - set(demand))
    if absent:
        raise InputError(f"demand weights missing for targets: {', '.join(absent)}")
    covered = sorted(utilities)
    m = sum(demand[t] * utilities[t] for t in covered)
    g = _metrics.gini([abs(utilities[t]) for t in covered])
    return PlanEvaluation(mode=mode, utilities=utilities, m_tau=m, gini_coeff=g, clamped=clamp)


def with_evaluation(plan: AllocationPlan, evaluation: PlanEvaluation) -> AllocationPlan:
    return replace(plan, evaluation=evaluation)
