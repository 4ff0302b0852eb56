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

greedy_allocate takes the budget's picks from the heap merge in
langdei.greedy, which it imports when it runs. The trace for a budget is a
prefix of the trace for any larger one. Nothing here needs numpy, so no
strategy loads it.

One function, _source_state, gives a source's state at k samples: the
greedy asks it for each state it steps through, and every strategy
(greedy, egalitarian, single-source) builds its plan with _plan, which asks
it for each funded source's final state; evaluate_plan composes their
predictions, by the request's composition mode, into surrogate (not
measured) utilities. The state function is straight-line code, generated
and compiled once per number of covered targets (_state_kernel), with the
float operations of the scalar kernels in their order, so its states are
those of scalar._gini_row to the last bit.

The plan records (AllocationPlan, PlanEvaluation, TraceStep) and the option
vocabularies MISSING_POLICIES and COMPOSITION_MODES live in langdei.records,
which needs no numpy; they resolve here as well.
"""

from __future__ import annotations

import functools
import math
import warnings
from typing import Callable, Mapping

from langdei import records, scalar
from langdei.errors import ComputationError, InputError
from langdei.records import (AllocationPlan, LearningCurve, PlanEvaluation, Record, TraceStep, check_plan_settings,
                             sequential_sum)

MISSING_POLICIES, COMPOSITION_MODES = records.MISSING_POLICIES, records.COMPOSITION_MODES

CurveRegistry = Mapping[tuple[str, str], LearningCurve]

class AllocationRequest(Record):
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


def greedy_allocate(request: AllocationRequest, trace: bool = True) -> AllocationPlan:
    """The argmax-gain greedy plan, as one heap merge (see langdei.greedy);
    its trace is built only if ``trace`` is true, and is empty otherwise."""
    from langdei import greedy  # compiled only when the greedy strategy runs

    counts, columns = greedy.picks(request, trace)
    steps = tuple(map(TraceStep, range(1, request.budget + 1), *columns)) if trace else ()
    return _plan(request, "greedy", dict(zip(request.sources, counts)), steps)


def _source_state(request: AllocationRequest, source: str) -> tuple[list[str], Callable[[int], tuple]]:
    """The targets one source covers, in target order, and its state
    function: k -> gm, Gini and the covered targets' predictions at k samples.

    Each prediction is ``a + b * k^(-c)`` with Python's float power, as
    ``curves.predict_many`` takes it; gm adds the predictions times their
    demand weights in target order from 0.0, and the Gini is that of their
    absolute values (``scalar._gini_row``'s float operations, numpy's to the
    last bit). An undefined state raises. The state function is the
    ``_state_kernel`` of the source's target count, bound to its curves'
    coefficients and its targets' weights.
    """
    targets = [t for t in request.targets if (source, t) in request.registry]
    curves = [request.registry[(source, t)] for t in targets]
    coefficients = [(curve.a, curve.b, -curve.c) for curve in curves]
    weights = [request.demand[t] for t in targets]
    return targets, _state_kernel(len(targets))(coefficients, weights, source)


@functools.cache
def _state_kernel(n: int) -> Callable[..., Callable[[int], tuple]]:
    """The factory of the state functions of sources that cover n targets,
    generated from source once per n, as ``Record`` generates ``__init__``.

    Straight-line code does the float operations of ``_gini_row`` over
    ``scalar.pairwise_sum``, in the same order, without its calls, slices
    and loops: at 23 targets a state costs about half as much. Each
    coefficient and weight is a closure variable of the factory.
    """
    def listed(names) -> str:
        """The names as the items of a tuple, list or assignment target."""
        return "".join(f"{name}, " for name in names)

    p, q, s = ([f"{name}{i}" for i in range(n)] for name in "pqs")
    factory = [f"{listed(f'(a{i}, b{i}, e{i})' for i in range(n))}= coefficients",
               f"{listed(f'w{i}' for i in range(n))}= weights"]
    body = [
        "x = float(k)",
        *(f"p{i} = a{i} + b{i} * x ** e{i}" for i in range(n)),
        "gm = 0.0",
        *(f"gm += w{i} * p{i}" for i in range(n)),
        *(f"q{i} = abs(p{i})" for i in range(n)),
        *scalar.pairwise_sum_statements("total", q),
        "if total == 0:",
        "    gini = nan",
        "else:",
        f"    {listed(s)}= sorted(({listed(q)}))",
        *(f"    {line}" for line in scalar.pairwise_sum_statements(
            "weighted", [f"{float(n - i)!r} * {name}" for i, name in enumerate(s)])),
        f"    gini = ({n + 1} - 2.0 * weighted / total) / {n}",
        "if not (isfinite(gm) and isfinite(gini)):",
        f"    undefined(source, k, [{listed(q)}])",
        f"return gm, gini, [{listed(p)}]",
    ]
    namespace = {"isfinite": math.isfinite, "nan": math.nan, "undefined": _undefined_state}
    exec("def factory(coefficients, weights, source):\n    " + "\n    ".join(factory)
         + "\n    def state(k):\n        " + "\n        ".join(body) + "\n    return state", namespace)
    return namespace["factory"]


def _final_state(request: AllocationRequest, source: str, k: int) -> tuple[float, float, dict[str, float]]:
    """gm, Gini and the per-target predictions of one source at k samples."""
    targets, state = _source_state(request, source)
    gm, gini, predictions = state(k)
    return gm, gini, dict(zip(targets, predictions))


def _undefined_state(source: str, k: int, absolute: list[float]) -> None:
    """Raise the error of a source's state at k samples whose gm or Gini is
    not finite, from its absolute predictions."""
    scalar.gini(absolute)  # raises: not finite, all zero, or overflowing
    raise ComputationError(f"gm of source {source!r} at {k} samples is not finite")


def _plan(
    request: AllocationRequest, strategy: str, counts: dict[str, int], trace: tuple[TraceStep, ...] = ()
) -> AllocationPlan:
    """A plan with the given counts, each funded source's final state, and their evaluation."""
    states = {s: _final_state(request, s, k) for s, k in counts.items() if k > 0}
    return AllocationPlan(
        strategy=strategy,
        budget=request.budget,
        counts=counts,
        final_gm={s: gm for s, (gm, _, _) in states.items()},
        final_gini={s: g for s, (_, g, _) in states.items()},
        alpha=request.alpha,
        beta=request.beta,
        missing=request.missing,
        evaluation=evaluate_plan(request, {(s, t): p for s, (_, _, predictions) in states.items()
                                           for t, p in predictions.items()}),
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
        utilities[t] = max(preds) if request.composition == "best-source" else sequential_sum(preds) / len(preds)
    m = sequential_sum([request.demand[t] * u for t, u in utilities.items()])
    g = scalar.gini([abs(u) for u in utilities.values()])
    return PlanEvaluation(mode=request.composition, utilities=utilities, m_tau=m, gini_coeff=g)
