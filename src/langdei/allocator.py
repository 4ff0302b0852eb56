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

Egalitarian and single-source baselines are provided, plus a surrogate plan
evaluation that composes per-target utilities from the funded sources'
curves; surrogate numbers are predictions, not measurements.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from langdei import curves as _curves
from langdei import metrics as _metrics
from langdei.curves import LearningCurve
from langdei.errors import ComputationError, InputError

logger = logging.getLogger("langdei.allocator")

CurveRegistry = Mapping[tuple[str, str], LearningCurve]

MISSING_POLICIES = ("strict", "permissive")
COMPOSITION_MODES = ("best-source", "mean")


@dataclass(frozen=True)
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


def _source_state(request: AllocationRequest, source: str, k: int) -> tuple[float, float]:
    """(gm, gini) of one source at k samples over the targets it covers.

    gm is the demand-weighted sum of per-target curve predictions; gini is the
    Gini coefficient of their absolute values, the absolute value guarding
    against negative predictions at small k.
    """
    targets = request._available[source]
    preds = [_curves.predict(request.registry[(source, t)], k) for t in targets]
    gm = sum(request.demand[t] * p for t, p in zip(targets, preds))
    return gm, _metrics.gini([abs(p) for p in preds])


def greedy_allocate(request: AllocationRequest) -> AllocationPlan:
    """Allocate the budget one sample at a time to the argmax-gain source."""
    samples = {s: 0 for s in request.sources}
    current_gm = {s: -math.inf for s in request.sources}
    current_gini = {s: 1.0 for s in request.sources}
    alpha, beta = request.alpha, request.beta

    def candidate(s: str) -> tuple[float, float, float]:
        gm, g = _source_state(request, s, samples[s] + 1)
        gm_term = alpha * (gm - current_gm[s]) if alpha != 0 else 0.0
        return gm_term + beta * (current_gini[s] - g), gm, g

    # A source's candidate only changes when that source receives a sample,
    # so cache candidates and refresh just the chosen source each step. The
    # result is identical to re-evaluating every source every iteration.
    candidates = {s: candidate(s) for s in request.sources}
    trace: list[TraceStep] = []
    for step in range(1, request.budget + 1):
        best_source = None
        best = (-math.inf, 0.0, 0.0)
        for s in request.sources:  # sorted; first strict maximum wins ties
            if best_source is None or candidates[s][0] > best[0]:
                best_source = s
                best = candidates[s]
        assert best_source is not None
        gain, gm, g = best
        samples[best_source] += 1
        current_gm[best_source] = gm
        current_gini[best_source] = g
        trace.append(TraceStep(step=step, source=best_source, marginal_gain=gain, gm=gm, gini=g))
        candidates[best_source] = candidate(best_source)

    return AllocationPlan(
        strategy="greedy",
        budget=request.budget,
        counts=dict(samples),
        final_gm={s: current_gm[s] for s in request.sources if samples[s] > 0},
        final_gini={s: current_gini[s] for s in request.sources if samples[s] > 0},
        alpha=alpha,
        beta=beta,
        missing=request.missing,
        trace=tuple(trace),
    )


def _fixed_plan(request: AllocationRequest, strategy: str, counts: dict[str, int]) -> AllocationPlan:
    """A plan with counts decided up front and each funded source's final state."""
    states = {s: _source_state(request, s, k) for s, k in counts.items() if k > 0}
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
