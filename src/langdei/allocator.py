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

The gain g_s(k) of a source's k-th sample depends only on k, so the greedy
merges per-source gain streams (largest head first, ties to the lower source
index), which picks samples in order of (-min(g_s(1..k)), source index, k).
So greedy_allocate computes each source's states in chunks with the running
minimum of its gains, extends the source holding the least last-computed key
until the budget's samples lie at or below it (final), and sorts once. This
is the exact argmax of every step: unlike lazy ("accelerated") greedy it
needs no diminishing returns, which the Gini term breaks. An undefined
state (a gm or Gini that is not finite) fails the run only when the
step-by-step greedy would ask for it.
The trace for a budget is a prefix of the trace for any larger one.

Every strategy (greedy, egalitarian, single-source) builds its plan with
_plan; evaluate_plan composes its funded sources' final-state predictions,
by the request's composition mode, into surrogate (not measured) utilities.

The plan records (AllocationPlan, PlanEvaluation, TraceStep) and the option
vocabularies MISSING_POLICIES and COMPOSITION_MODES live in langdei.records,
which needs no numpy; they resolve here as well.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from langdei import curves as _curves
from langdei import metrics as _metrics
from langdei import records
from langdei.errors import ComputationError, InputError
from langdei.records import AllocationPlan, LearningCurve, PlanEvaluation, TraceStep, check_plan_settings

MISSING_POLICIES, COMPOSITION_MODES = records.MISSING_POLICIES, records.COMPOSITION_MODES

CurveRegistry = Mapping[tuple[str, str], LearningCurve]

# Rows of a source's first and of its largest state chunk: doubling keeps the
# number of chunks logarithmic, the cap bounds the memory held per source.
CHUNK_ROWS = (64, 256)


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
    composition: str = "best-source"

    def __post_init__(self) -> None:
        check_plan_settings(self.budget, self.alpha, self.beta, self.missing, self.composition)
        if not self.sources or not self.targets:
            raise InputError("sources and targets must be non-empty")
        object.__setattr__(self, "sources", tuple(sorted(self.sources)))
        object.__setattr__(self, "targets", tuple(sorted(self.targets)))
        if len(set(self.sources)) != len(self.sources):
            raise InputError("duplicate source languages")
        if len(set(self.targets)) != len(self.targets):
            raise InputError("duplicate target languages")
        absent = sorted(set(self.targets) - set(self.demand))
        if absent:
            raise InputError(f"demand weights missing for targets: {', '.join(absent)}")
        for t in self.targets:
            if not 0 <= self.demand[t] < math.inf:  # also false for NaN
                raise InputError(f"demand weight of target {t!r} must be finite and non-negative, got {self.demand[t]}")
        # Check curve coverage once, warning of each dropped pair once.
        for s in self.sources:
            missing_pairs = [t for t in self.targets if (s, t) not in self.registry]
            if missing_pairs and self.missing == "strict":
                pairs = ", ".join(f"({s}, {t})" for t in missing_pairs)
                raise InputError(f"no curve for pairs: {pairs} (strict missing-curve policy)")
            for t in missing_pairs:
                warnings.warn(f"no curve for pair ({s}, {t}); dropping target from source {s}", stacklevel=3)
            if len(missing_pairs) == len(self.targets):
                raise InputError(f"source {s!r} has no curve for any target")


def _source_chunks(request: AllocationRequest, source: str, first: int, last: int) -> Iterator[tuple[np.ndarray, ...]]:
    """(gm, gini, predictions) arrays of one source at k = first, ..., last
    samples, one chunk of consecutive k at a time.

    predictions has a column per target the source covers; gm is their
    demand-weighted sum, gini the Gini coefficient of their absolute values
    (the guard against negative predictions at small k). Chunks have
    CHUNK_ROWS[0] rows, doubling up to CHUNK_ROWS[1]; one ends before the
    first k whose state is undefined, and asking for that k raises a
    ComputationError.
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
            _metrics.gini(undefined)  # raises: not finite, all zero, or overflowing
            raise ComputationError(f"gm of source {source!r} at {ks.start + gm.size} samples is not finite")
        first = ks.stop
        rows = min(2 * rows, CHUNK_ROWS[1])


def _state_chunk(curves: list[LearningCurve], weights: list[float], ks: range) -> tuple[np.ndarray, ...]:
    """gm, gini and the (ks x targets) matrix of curves.predict_many columns
    at each k in ks up to the first undefined state (a gm or Gini that is
    not finite), and that k's absolute predictions (or None).

    gm adds the targets in sorted order, and Gini is the row-wise kernel
    of metrics.gini, so each state is bit-identical to computing it at
    that k alone.
    """
    with np.errstate(all="ignore"):  # undefined rows are cut off below
        predictions = np.column_stack([_curves.predict_many(curve, ks) for curve in curves])
        gm = np.zeros(len(ks))
        for w, column in zip(weights, predictions.T):
            gm += w * column
        absolute = np.abs(predictions)
        gini = _metrics._gini_rows(absolute)
    undefined = np.flatnonzero(~(np.isfinite(gm) & np.isfinite(gini)))
    if undefined.size:
        end = int(undefined[0])
        return gm[:end], gini[:end], predictions[:end], absolute[end].copy()
    return gm, gini, predictions, None


def _gain_chunks(request: AllocationRequest, source: str) -> Iterator[np.ndarray]:
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


def greedy_allocate(request: AllocationRequest, trace: bool = True) -> AllocationPlan:
    """The argmax-gain greedy plan, as one sort (see the module docstring);
    its trace is built only if ``trace`` is true, and is empty otherwise."""
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
    picks = np.argsort(np.concatenate([block[-1, :n] for block, n in zip(rows, size)]), kind="stable")[:budget]
    owner = np.repeat(np.arange(len(sources)), size)[picks]
    steps: tuple[TraceStep, ...] = ()
    if trace:
        gain, gm, gini = np.concatenate([block[:3, :n] for block, n in zip(rows, size)], axis=1)[:, picks].tolist()
        steps = tuple(map(TraceStep, range(1, budget + 1), [sources[i] for i in owner.tolist()], gain, gm, gini))
    counts = np.bincount(owner, minlength=len(sources)).tolist()
    return _plan(request, "greedy", dict(zip(sources, counts)), steps)


def _plan(
    request: AllocationRequest, strategy: str, counts: dict[str, int], trace: tuple[TraceStep, ...] = ()
) -> AllocationPlan:
    """A plan with the given counts, each funded source's final state, and their evaluation."""
    states = {s: next(_source_chunks(request, s, k, k)) for s, k in counts.items() if k > 0}
    covered = {s: [t for t in request.targets if (s, t) in request.registry] for s in states}
    return AllocationPlan(
        strategy=strategy,
        budget=request.budget,
        counts=counts,
        final_gm={s: float(gm[0]) for s, (gm, _, _) in states.items()},
        final_gini={s: float(g[0]) for s, (_, g, _) in states.items()},
        alpha=request.alpha,
        beta=request.beta,
        missing=request.missing,
        evaluation=evaluate_plan(request, {(s, t): p for s, (_, _, row) in states.items()
                                           for t, p in zip(covered[s], row[0].tolist())}),
        trace=trace,
    )


def egalitarian_allocate(request: AllocationRequest) -> AllocationPlan:
    """floor(X / |S|) per source; the remainder goes one each to the first
    sources in lexicographic order."""
    base, remainder = divmod(request.budget, len(request.sources))
    counts = {s: base + (1 if i < remainder else 0) for i, s in enumerate(request.sources)}
    return _plan(request, "egalitarian", counts)


def single_source_allocate(request: AllocationRequest, source: str) -> AllocationPlan:
    """The whole budget to one source."""
    if source not in request.sources:
        raise InputError(f"unknown source language {source!r}; sources are {', '.join(request.sources)}")
    counts = {s: request.budget if s == source else 0 for s in request.sources}
    return _plan(request, f"single:{source}", counts)


def evaluate_plan(request: AllocationRequest, predictions: Mapping[tuple[str, str], float]) -> PlanEvaluation:
    """Surrogate metrics of a plan from the prediction of each funded
    (source, target) pair at the source's count.

    Per-target utility composes across funded sources under the request's
    composition mode: the best funded source's prediction, or their mean. A
    target no funded source covers (only under the permissive policy) is
    dropped. Dispersion uses absolute utilities, matching the optimizer's
    guard against negative predictions.
    """
    utilities: dict[str, float] = {}
    for t in request.targets:
        preds = [predictions[(s, t)] for s in request.sources if (s, t) in predictions]
        if not preds:
            warnings.warn(f"no funded source covers target {t}; dropped from evaluation")
            continue
        utilities[t] = max(preds) if request.composition == "best-source" else sum(preds) / len(preds)
    m = sum(request.demand[t] * u for t, u in utilities.items())
    g = _metrics.gini([abs(u) for u in utilities.values()])
    return PlanEvaluation(mode=request.composition, utilities=utilities, m_tau=m, gini_coeff=g)
