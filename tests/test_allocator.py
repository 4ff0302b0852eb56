"""Unit tests for the greedy/egalitarian/single-source allocators."""

import functools
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langdei import allocator, greedy
from langdei.allocator import (
    COMPOSITION_MODES,
    MISSING_POLICIES,
    AllocationPlan,
    AllocationRequest,
    PlanEvaluation,
    TraceStep,
    egalitarian_allocate,
    greedy_allocate,
    single_source_allocate,
)
from langdei.curves import LearningCurve, predict
from langdei.errors import ComputationError, InputError
from langdei.metrics import gini

import _props
from _props import replace

# Permissive requests warn of each pair they drop and each target no funded
# source covers; the tests that check those warnings catch them themselves.
pytestmark = [
    pytest.mark.filterwarnings("ignore:no curve for pair:UserWarning"),
    pytest.mark.filterwarnings("ignore:no funded source covers:UserWarning"),
]


def curve(s, t, a, b, c):
    return LearningCurve(s, t, a, b, c, r_squared=0.9)


def registry_for(sources, targets, coeffs):
    """coeffs: map source -> (a, b, c) used for every target of that source."""
    reg = {}
    for s in sources:
        a, b, c = coeffs[s]
        for t in targets:
            reg[(s, t)] = curve(s, t, a, b, c)
    return reg


def uniform_demand(targets):
    return {t: 1.0 / len(targets) for t in targets}


def naive_state(request, s, k):
    """(gm, gini) of source s at k samples from curves.predict and
    metrics.gini; gm accumulates left to right over the sorted covered
    targets."""
    covered = [t for t in request.targets if (s, t) in request.registry]
    preds = [predict(request.registry[(s, t)], k) for t in covered]
    gm = 0.0
    for t, p in zip(covered, preds):
        gm += request.demand[t] * p
    return gm, gini([abs(p) for p in preds])


def reference_evaluation(request, counts):
    """The surrogate evaluation of a plan's counts from one curves.predict
    per funded (source, target) pair, with no allocator helper."""
    funded = [s for s in request.sources if counts[s] > 0]
    utilities = {}
    for t in request.targets:
        preds = [predict(request.registry[(s, t)], counts[s]) for s in funded if (s, t) in request.registry]
        if preds:
            utilities[t] = max(preds) if request.composition == "best-source" else sum(preds) / len(preds)
    m = sum(request.demand[t] * u for t, u in utilities.items())
    g = gini([abs(u) for u in utilities.values()])
    return PlanEvaluation(mode=request.composition, utilities=utilities, m_tau=m, gini_coeff=g)


def reference_plan(request, strategy, counts, trace=()):
    """The plan of the given counts: each funded source's naive_state and
    the reference_evaluation."""
    states = {s: naive_state(request, s, k) for s, k in counts.items() if k > 0}
    return AllocationPlan(
        strategy=strategy, budget=request.budget, counts=counts,
        final_gm={s: gm for s, (gm, _) in states.items()}, final_gini={s: g for s, (_, g) in states.items()},
        alpha=request.alpha, beta=request.beta, missing=request.missing,
        evaluation=reference_evaluation(request, counts), trace=trace,
    )


def naive_greedy(request):
    """Reference greedy: every step scans every source's next gain, built from
    the update rules and naive_state, with no allocator helper."""
    alpha, beta = request.alpha, request.beta
    state = functools.cache(functools.partial(naive_state, request))
    samples = {s: 0 for s in request.sources}
    cur_gm = {s: -math.inf for s in request.sources}
    cur_gini = {s: 1.0 for s in request.sources}
    trace = []
    for step in range(1, request.budget + 1):
        best = None
        for s in request.sources:
            gm, g = state(s, samples[s] + 1)
            gm_term = alpha * (gm - cur_gm[s]) if alpha != 0 else 0.0
            gain = gm_term + beta * (cur_gini[s] - g)
            if best is None or gain > best[1]:
                best = (s, gain, gm, g)
        s, gain, gm, g = best
        samples[s] += 1
        cur_gm[s] = gm
        cur_gini[s] = g
        trace.append(TraceStep(step=step, source=s, marginal_gain=gain, gm=gm, gini=g))
    return reference_plan(request, "greedy", samples, tuple(trace))


def reference_egalitarian(request):
    base, remainder = divmod(request.budget, len(request.sources))
    return reference_plan(request, "egalitarian", {
        s: base + 1 if i < remainder else base for i, s in enumerate(request.sources)})


def reference_single(request, source):
    return reference_plan(request, f"single:{source}", {
        s: request.budget if s == source else 0 for s in request.sources})


# strategy: (the allocator's plan, the reference plan), each of a request
STRATEGIES = {
    "greedy": (greedy_allocate, naive_greedy),
    "egalitarian": (egalitarian_allocate, reference_egalitarian),
    "single": (lambda r: single_source_allocate(r, r.sources[-1]), lambda r: reference_single(r, r.sources[-1])),
}


def three_source_request(budget):
    targets = ("t1", "t2", "t3")
    reg = {}
    for s, (a, b, c) in {"s1": (1.1, -0.9, 0.5), "s2": (0.95, -0.6, 0.3), "s3": (1.3, -1.4, 0.2)}.items():
        for i, t in enumerate(targets):
            reg[(s, t)] = curve(s, t, a + 0.05 * i, b - 0.1 * i, c)
    return AllocationRequest(
        budget=budget, sources=("s1", "s2", "s3"), targets=targets, registry=reg,
        demand=uniform_demand(targets),
    )


def two_source_request(budget, zero_source):
    """Source "a" with an ordinary curve and one source with the given
    (name, a, b, c) curve, both on the single target "t"."""
    name, a, b, c = zero_source
    reg = {("a", "t"): curve("a", "t", 1.0, -0.5, 0.5), (name, "t"): curve(name, "t", a, b, c)}
    return AllocationRequest(
        budget=budget, sources=("a", name), targets=("t",), registry=reg, demand={"t": 1.0}
    )


def source_state(reg, targets, k, demand=None, missing="strict"):
    """(gm, gini) of the one source "s" after all k samples went to it."""
    request = AllocationRequest(
        budget=k, sources=("s",), targets=targets, registry=reg,
        demand=demand or uniform_demand(targets), missing=missing,
    )
    plan = single_source_allocate(request, "s")
    return plan.final_gm["s"], plan.final_gini["s"]


class TestSourceMetrics:
    def test_single_target_hand_value(self):
        reg = {("s", "t"): curve("s", "t", 1.0, -1.0, 1.0)}
        gm, _ = source_state(reg, ("t",), k=2, demand={"t": 1.0})
        assert gm == pytest.approx(0.5)

    def test_constant_curves_ignore_k(self):
        reg = {("s", "t"): curve("s", "t", 0.8, 0.0, 0.3)}
        for k in (1, 10, 10_000):
            gm, _ = source_state(reg, ("t",), k=k, demand={"t": 1.0})
            assert gm == pytest.approx(0.8)

    def test_two_equal_demand_targets(self):
        reg = {
            ("s", "t1"): curve("s", "t1", 0.4, 0.0, 0.0),
            ("s", "t2"): curve("s", "t2", 0.8, 0.0, 0.0),
        }
        gm, _ = source_state(reg, ("t1", "t2"), k=7, demand={"t1": 0.5, "t2": 0.5})
        assert gm == pytest.approx(0.6)

    def test_gini_identical_curves_is_zero(self):
        reg = registry_for(["s"], ["t1", "t2", "t3"], {"s": (1.0, -2.0, 0.4)})
        _, g = source_state(reg, ("t1", "t2", "t3"), k=5)
        assert g == pytest.approx(0.0, abs=1e-13)

    def test_gini_absolute_value_guard(self):
        reg = {
            ("s", "t1"): curve("s", "t1", 0.5, 0.0, 0.0),
            ("s", "t2"): curve("s", "t2", -0.5, 0.0, 0.0),
        }
        _, g = source_state(reg, ("t1", "t2"), k=3)
        assert g == pytest.approx(0.0, abs=1e-13)

    def test_gini_zero_one_pair(self):
        reg = {
            ("s", "t1"): curve("s", "t1", 0.0, 0.0, 0.0),
            ("s", "t2"): curve("s", "t2", 1.0, 0.0, 0.0),
        }
        _, g = source_state(reg, ("t1", "t2"), k=3)
        assert g == pytest.approx(0.5)

    def test_all_zero_predictions_propagate(self):
        reg = {("s", "t"): curve("s", "t", 0.0, 0.0, 0.0)}
        with pytest.raises(ComputationError):
            source_state(reg, ("t",), k=1)

    def test_strict_missing_pair_names_it(self):
        reg = {("s", "t1"): curve("s", "t1", 1.0, -1.0, 0.5)}
        with pytest.raises(InputError, match=r"\(s, t2\)"):
            source_state(reg, ("t1", "t2"), k=1, demand={"t1": 0.5, "t2": 0.5})

    def test_permissive_missing_pair_drops_target(self):
        reg = {("s", "t1"): curve("s", "t1", 1.0, 0.0, 0.0)}
        gm, _ = source_state(reg, ("t1", "t2"), k=1, demand={"t1": 0.5, "t2": 0.5}, missing="permissive")
        assert gm == pytest.approx(0.5)


def simple_request(budget, n_sources=3, alpha=1.0, beta=1.0, targets=("t1", "t2")):
    sources = [f"s{i}" for i in range(1, n_sources + 1)]
    coeffs = {s: (1.0 + 0.1 * i, -0.5 - 0.1 * i, 0.5) for i, s in enumerate(sources)}
    reg = registry_for(sources, targets, coeffs)
    return AllocationRequest(
        budget=budget,
        sources=sources,
        targets=targets,
        registry=reg,
        demand=uniform_demand(targets),
        alpha=alpha,
        beta=beta,
    )


class TestGreedy:
    def test_first_round_gives_each_source_one_sample(self):
        sources = [f"s{i}" for i in range(7)]
        coeffs = {s: (1.0, -0.5, 0.5) for s in sources}
        reg = registry_for(sources, ["t"], coeffs)
        request = AllocationRequest(
            budget=7, sources=sources, targets=("t",), registry=reg, demand={"t": 1.0}
        )
        plan = greedy_allocate(request)
        assert plan.counts == {s: 1 for s in sources}
        # -inf initialization makes the first seven gains +inf, chosen in
        # lexicographic order.
        assert [t.source for t in plan.trace] == sorted(sources)
        assert all(math.isinf(t.marginal_gain) for t in plan.trace)

    def test_single_source_takes_everything(self):
        request = simple_request(25, n_sources=1)
        plan = greedy_allocate(request)
        assert plan.counts == {"s1": 25}

    def test_budget_exactness_and_determinism(self):
        request = simple_request(53)
        plan1 = greedy_allocate(request)
        plan2 = greedy_allocate(request)
        assert sum(plan1.counts.values()) == 53
        assert plan1 == plan2

    def test_first_round_coverage_when_budget_below_sources(self):
        request = simple_request(2, n_sources=5)
        plan = greedy_allocate(request)
        assert sum(plan.counts.values()) == 2
        assert max(plan.counts.values()) == 1

    def test_dominant_source_never_trails(self):
        # strong's curves dominate weak's pointwise, with larger increments.
        targets = ("t1", "t2")
        reg = {}
        for t in targets:
            reg[("strong", t)] = curve("strong", t, 1.1, -1.0, 0.5)
            reg[("weak", t)] = curve("weak", t, 0.85, -0.8, 0.5)
        request = AllocationRequest(
            budget=20, sources=("strong", "weak"), targets=targets,
            registry=reg, demand=uniform_demand(targets),
        )
        plan = greedy_allocate(request)
        counts = {"strong": 0, "weak": 0}
        for step in plan.trace:
            if step.source == "weak":
                assert counts["weak"] < counts["strong"]
            counts[step.source] += 1

    def test_trace_replay_reproduces_final_states(self):
        request = simple_request(31)
        plan = greedy_allocate(request)
        last = {}
        for step in plan.trace:
            last[step.source] = step
        for s, step in last.items():
            assert plan.final_gm[s] == step.gm
            assert plan.final_gini[s] == step.gini

    def test_source_gm_nondecreasing_in_k(self):
        reg = registry_for(["s"], ["t1", "t2"], {"s": (1.0, -5.0, 0.4)})
        values = [source_state(reg, ("t1", "t2"), k=k)[0] for k in range(1, 200)]
        assert all(v2 >= v1 for v1, v2 in zip(values, values[1:]))
        increments = [v2 - v1 for v1, v2 in zip(values, values[1:])]
        assert all(d2 <= d1 + 1e-15 for d1, d2 in zip(increments, increments[1:]))

    def test_cached_candidates_match_naive_reevaluation(self):
        request = three_source_request(budget=40)
        assert repr(greedy_allocate(request)) == repr(naive_greedy(request))

    def test_chunk_boundaries_match_naive_reevaluation(self):
        # 700 steps over three sources, past k = 64 and 192, where the chunk
        # oracle in _props starts its second and third chunks.
        request = three_source_request(budget=700)
        assert repr(greedy_allocate(request)) == repr(naive_greedy(request))

    def test_undefined_gini_raises_when_reached(self):
        # z's prediction is exactly 0 at k = 2: 0.5 - 1 * 2^-1.
        request = two_source_request(budget=3, zero_source=("z", 0.5, -1.0, 1.0))
        with pytest.raises(ComputationError, match="all-zero"):
            greedy_allocate(request)
        with pytest.raises(ComputationError, match="all-zero"):
            naive_greedy(request)

    def test_overflowing_gm_raises(self):
        # A prediction of 4 weighted by 1e308 overflows gm; the Gini is 0.
        reg = {("s", "t"): curve("s", "t", 4.0, 0.0, 0.0)}
        request = AllocationRequest(budget=2, sources=("s",), targets=("t",), registry=reg, demand={"t": 1e308})
        with pytest.raises(ComputationError, match="gm of source 's' at 1 samples is not finite"):
            greedy_allocate(request)

    def test_undefined_gini_never_reached_does_not_raise(self):
        # Budget 2 computes z's state at k = 2 but allocates only k = 1.
        request = two_source_request(budget=2, zero_source=("z", 0.5, -1.0, 1.0))
        plan = greedy_allocate(request)
        assert plan.counts == {"a": 1, "z": 1}
        assert repr(plan) == repr(naive_greedy(request))

    @pytest.mark.parametrize(("sources", "budget", "raises"), [
        (("z",), 100, True),  # k = 100 is the last step
        (("z",), 99, False),  # k = 100 would be the step after the last
        (("a", "z"), 150, False),  # z gets 92 samples, so its k = 100 state is never asked for
    ])
    def test_undefined_gini_deep_in_a_chunk(self, sources, budget, raises):
        # z predicts exactly 0 at k = 100 (0.1 - 100^-0.5).
        reg = {("a", "t"): curve("a", "t", 0.3, -0.5, 0.5), ("z", "t"): curve("z", "t", 0.1, -1.0, 0.5)}
        request = AllocationRequest(
            budget=budget, sources=sources, targets=("t",), demand={"t": 1.0}, beta=0.0,
            registry={pair: c for pair, c in reg.items() if pair[0] in sources},
        )
        result = outcome(greedy_allocate, request)
        assert result == outcome(naive_greedy, request)
        assert (result[0] is ComputationError) == raises
        if sources == ("a", "z"):
            assert greedy_allocate(request).counts == {"a": 58, "z": 92}

    def test_alpha_zero_runs_without_nan(self):
        request = simple_request(10, alpha=0.0, beta=1.0)
        plan = greedy_allocate(request)
        assert sum(plan.counts.values()) == 10
        assert all(math.isfinite(t.marginal_gain) for t in plan.trace)

    def test_budget_zero_rejected(self):
        with pytest.raises(InputError):
            simple_request(0)

    def test_oversized_budget_rejected(self):
        # No float holds 10**400, so predictions at it could not be made.
        with pytest.raises(InputError, match="budget must be at most 1.79769e"):
            simple_request(10**400)

    @pytest.mark.parametrize("weight", [-1.0, math.nan, math.inf])
    def test_demand_weight_must_be_finite_and_non_negative(self, weight):
        reg = registry_for(["a", "b"], ["x", "y"], {"a": (1.0, -0.5, 0.5), "b": (0.9, -0.5, 0.5)})
        with pytest.raises(InputError, match="demand weight of target 'x' must be finite and non-negative"):
            AllocationRequest(budget=4, sources=("a", "b"), targets=("x", "y"), registry=reg,
                              demand={"x": weight, "y": 2.0})

    def test_zero_weight_pair_rejected(self):
        with pytest.raises(InputError):
            simple_request(5, alpha=0.0, beta=0.0)

    @pytest.mark.parametrize("alpha, beta", [
        (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf), (-math.inf, 1.0),
    ])
    def test_non_finite_weight_rejected(self, alpha, beta):
        with pytest.raises(InputError, match="finite"):
            simple_request(5, alpha=alpha, beta=beta)

    def test_strict_policy_rejects_missing_pair(self):
        reg = registry_for(["s1"], ["t1", "t2"], {"s1": (1.0, -1.0, 0.5)})
        del reg[("s1", "t2")]
        with pytest.raises(InputError, match=r"\(s1, t2\)"):
            AllocationRequest(
                budget=5, sources=("s1",), targets=("t1", "t2"),
                registry=reg, demand=uniform_demand(("t1", "t2")),
            )

    def test_permissive_policy_logs_and_drops(self):
        reg = registry_for(["s1", "s2"], ["t1", "t2"], {"s1": (1.1, -1.0, 0.5), "s2": (0.9, -1.0, 0.5)})
        del reg[("s1", "t2")]
        with pytest.warns(UserWarning, match=r"no curve for pair \(s1, t2\)") as caught:
            request = AllocationRequest(
                budget=6, sources=("s1", "s2"), targets=("t1", "t2"),
                registry=reg, demand=uniform_demand(("t1", "t2")), missing="permissive",
            )
        assert [w.filename for w in caught] == [__file__]
        plan = greedy_allocate(request)
        assert sum(plan.counts.values()) == 6


coefficients = st.tuples(
    st.floats(0.05, 2.0), st.floats(-3.0, 0.5), st.floats(0.0, 1.5)
).map(lambda abc: tuple(round(v, 3) for v in abc))


@st.composite
def greedy_requests(draw, max_budget=700):
    """Small greedy requests: sources that share a curve profile tie exactly,
    and a permissive request may drop pairs (each source keeps a target)."""
    n_sources = draw(st.integers(1, 4))
    targets = tuple(f"t{j}" for j in range(draw(st.integers(1, 9))))
    profiles = draw(st.lists(st.lists(coefficients, min_size=len(targets), max_size=len(targets)), min_size=1, max_size=3))
    reg = {}
    for i in range(n_sources):
        profile = profiles[draw(st.integers(0, len(profiles) - 1))]
        for t, (a, b, c) in zip(targets, profile):
            reg[(f"s{i}", t)] = curve(f"s{i}", t, a, b, c)
    missing = draw(st.sampled_from(MISSING_POLICIES))
    if missing == "permissive":
        for i in range(n_sources):
            keep = draw(st.sampled_from(targets))
            for t in draw(st.sets(st.sampled_from(targets))) - {keep}:
                del reg[(f"s{i}", t)]
    alpha, beta = draw(st.sampled_from([(1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (0.5, 2.0)]))
    return AllocationRequest(
        budget=draw(st.integers(1, max_budget)), sources=tuple(f"s{i}" for i in range(n_sources)),
        targets=targets, registry=reg, demand={t: (j + 1) / 10 for j, t in enumerate(targets)},
        alpha=alpha, beta=beta, missing=missing, composition=draw(st.sampled_from(COMPOSITION_MODES)),
    )


def outcome(allocate, request):
    """The plan's repr (exact for every float), or the error raised."""
    try:
        return repr(allocate(request))
    except (ComputationError, InputError) as exc:
        return type(exc), str(exc)


class TestGreedyProperties:
    @settings(max_examples=40, deadline=None)
    @given(greedy_requests())
    def test_equals_naive_reevaluation_bit_for_bit(self, req):
        assert outcome(greedy_allocate, req) == outcome(naive_greedy, req)

    @settings(max_examples=25, deadline=None)
    @given(greedy_requests())
    def test_untraced_plan_is_traced_plan_without_trace(self, req):
        untraced = outcome(functools.partial(greedy_allocate, trace=False), req)
        assert untraced == outcome(lambda r: replace(naive_greedy(r), trace=()), req)

    @settings(max_examples=40, deadline=None)
    @given(greedy_requests(max_budget=400), st.integers(1, 400))
    def test_trace_is_prefix_of_larger_budget(self, req, extra):
        larger = replace(req, budget=req.budget + extra)
        # The property is about the steps: an undefined evaluation of the
        # plan at one budget says nothing about the other, so none is made.
        with mock.patch.object(allocator, "evaluate_plan", lambda request, predictions: None):
            try:
                small = greedy_allocate(req)
            except ComputationError:
                with pytest.raises(ComputationError):  # reached within B, so within B + extra
                    greedy_allocate(larger)
                return
            try:
                large = greedy_allocate(larger)
            except ComputationError:
                return  # an undefined state past step B ends only the larger run
        assert large.trace[: req.budget] == small.trace

    @settings(max_examples=60, deadline=None)
    @given(greedy_requests(max_budget=300), st.sampled_from(sorted(STRATEGIES)))
    def test_every_plan_equals_reference_plan(self, req, strategy):
        # Both composition modes and both missing-curve policies are drawn.
        allocate, reference = STRATEGIES[strategy]
        assert outcome(allocate, req) == outcome(reference, req)


class TestBaselines:
    def test_egalitarian_remainder_goes_to_first_lexicographic(self):
        request = simple_request(1000, n_sources=7)
        plan = egalitarian_allocate(request)
        ordered = sorted(plan.counts)
        assert [plan.counts[s] for s in ordered] == [143, 143, 143, 143, 143, 143, 142]
        assert sum(plan.counts.values()) == 1000

    def test_egalitarian_exact_division(self):
        plan = egalitarian_allocate(simple_request(7, n_sources=7))
        assert set(plan.counts.values()) == {1}

    def test_egalitarian_budget_below_sources(self):
        plan = egalitarian_allocate(simple_request(3, n_sources=7))
        ordered = sorted(plan.counts)
        assert [plan.counts[s] for s in ordered] == [1, 1, 1, 0, 0, 0, 0]

    def test_single_source(self):
        plan = single_source_allocate(simple_request(10_000, n_sources=3), "s1")
        assert plan.counts == {"s1": 10_000, "s2": 0, "s3": 0}
        assert plan.strategy == "single:s1"

    def test_single_source_hindi_style_budget(self):
        plan = single_source_allocate(simple_request(5000, n_sources=3), "s2")
        assert plan.counts["s2"] == 5000

    def test_single_unknown_source_rejected(self):
        with pytest.raises(InputError, match="zz"):
            single_source_allocate(simple_request(10), "zz")


class TestEvaluatePlan:
    def test_single_funded_source_modes_coincide(self):
        request = simple_request(9, n_sources=2)
        best = single_source_allocate(request, "s1").evaluation
        mean = single_source_allocate(replace(request, composition="mean"), "s1").evaluation
        assert best.utilities == mean.utilities
        assert best.m_tau == pytest.approx(mean.m_tau)

    def test_two_funded_sources_compose(self):
        reg = {
            ("s1", "t"): curve("s1", "t", 0.6, 0.0, 0.0),
            ("s2", "t"): curve("s2", "t", 0.8, 0.0, 0.0),
        }
        request = AllocationRequest(
            budget=2, sources=("s1", "s2"), targets=("t",), registry=reg, demand={"t": 1.0}
        )
        best = egalitarian_allocate(request).evaluation
        mean = egalitarian_allocate(replace(request, composition="mean")).evaluation
        assert (best.mode, mean.mode) == ("best-source", "mean")
        assert best.utilities["t"] == pytest.approx(0.8)
        assert mean.utilities["t"] == pytest.approx(0.7)

    def test_equal_predictions_have_zero_gini(self):
        ev = egalitarian_allocate(simple_request(8, n_sources=2)).evaluation
        assert ev.gini_coeff == pytest.approx(0.0, abs=1e-13)

    def test_permissive_mode_drops_uncovered_target(self):
        # s1 covers only t1 and s2 only t2; a plan that funds s1 alone leaves t2 uncovered.
        reg = {
            ("s1", "t1"): curve("s1", "t1", 1.0, 0.0, 0.0),
            ("s2", "t2"): curve("s2", "t2", 0.5, 0.0, 0.0),
        }
        request = AllocationRequest(
            budget=4, sources=("s1", "s2"), targets=("t1", "t2"), registry=reg,
            demand={"t1": 0.5, "t2": 0.5}, missing="permissive",
        )
        with pytest.warns(UserWarning, match="no funded source covers target t2"):
            ev = single_source_allocate(request, "s1").evaluation
        assert set(ev.utilities) == {"t1"}
        assert ev.m_tau == pytest.approx(0.5)

    @pytest.mark.parametrize("strategy", ["greedy", "egalitarian"])
    def test_undefined_evaluation_gini_raises_like_reference(self, strategy):
        # Both states are defined, but funded predictions of 0.5 and -0.5
        # compose to a mean utility of 0, whose Gini is undefined.
        reg = {("n", "t"): curve("n", "t", -0.5, 0.0, 0.0), ("p", "t"): curve("p", "t", 0.5, 0.0, 0.0)}
        request = AllocationRequest(budget=2, sources=("n", "p"), targets=("t",), registry=reg,
                                    demand={"t": 1.0}, composition="mean")
        allocate, reference = STRATEGIES[strategy]
        assert outcome(allocate, request) == outcome(reference, request) == (
            ComputationError, "Gini is undefined for an all-zero vector")
        assert egalitarian_allocate(replace(request, composition="best-source")).evaluation.utilities == {"t": 0.5}

    def test_totals_add_left_to_right_on_every_python(self):
        # The 1.0 is lost next to 1e16, so each total is 0.0; the built-in
        # sum of Python 3.12 and later would keep it and give 2.0.
        values = [0.1] * 10 + [1e16, 1.0, -1e16]
        names = [f"x{i:02d}" for i in range(len(values))]
        one_target = AllocationRequest(budget=13, sources=names, targets=("t",), demand={"t": 1.0}, composition="mean",
                                       registry={(s, "t"): curve(s, "t", 1.0, 0.0, 0.0) for s in names})
        with pytest.raises(ComputationError, match="all-zero"):  # the mean utility is 0.0
            allocator.evaluate_plan(one_target, {(s, "t"): v for s, v in zip(names, values)})
        one_source = AllocationRequest(budget=1, sources=("s",), targets=names, demand=dict.fromkeys(names, 1.0),
                                       registry={("s", t): curve("s", t, 1.0, 0.0, 0.0) for t in names})
        assert allocator.evaluate_plan(one_source, {("s", t): v for t, v in zip(names, values)}).m_tau == 0.0

    def test_unknown_mode_rejected(self):
        with pytest.raises(InputError, match="composition mode must be one of"):
            replace(simple_request(4, n_sources=2), composition="median")


def state_outcome(compute):
    """(gm, gini, predictions) with each float by its bits, or the error's type and text."""
    try:
        gm, g, predictions = compute()
    except (ComputationError, InputError) as exc:
        return type(exc), str(exc)
    return [float(v).hex() if not math.isnan(v) else "nan" for v in (gm, g, *predictions)]


# Entries that make a prediction negative, exactly zero (0.5 - 1 * 2^-1, or
# a = b = 0) or overflowing (1e308 + 1e308), and weights that make gm overflow.
SPECIAL_A = [0.0, -0.0, 0.5, -0.5, 1e308, -1e308, sys.float_info.max]
SPECIAL_B = [0.0, -1.0, 1e308, -1e308]
SPECIAL_C = [0.0, 0.5, 1.0]
SPECIAL_WEIGHTS = [0.0, 1.0, 1e308]


class TestFinalStateMatchesGreedyChunk:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 30), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.1, 0.5, 1.0]),
           st.sampled_from([1, 2, 4, 100]) | st.integers(1, 10_000))
    def test_bit_for_bit_or_same_error(self, n, seed, special_rate, k):
        # Random coefficients and weights, each replaced at the drawn rate by
        # a special one.
        rng = np.random.default_rng(seed)

        def draw(low, high, special):
            return float(rng.choice(special) if rng.random() < special_rate else rng.uniform(low, high))

        targets = tuple(f"t{j:02d}" for j in range(n))
        covered = [t for t in targets if rng.random() < 0.8] or [targets[0]]
        request = AllocationRequest(
            budget=1, sources=("s",), targets=targets, missing="permissive",
            registry={("s", t): curve("s", t, draw(-3.0, 3.0, SPECIAL_A), draw(-3.0, 3.0, SPECIAL_B),
                                      draw(0.0, 2.0, SPECIAL_C))
                      for t in covered},
            demand={t: draw(0.0, 1.0, SPECIAL_WEIGHTS) for t in targets},
        )

        def chunk_row():
            gm, g, predictions = next(_props._source_chunks(request, "s", k, k))
            return gm[0], g[0], predictions[0].tolist()

        def scalar_state():
            gm, g, predictions = allocator._final_state(request, "s", k)
            return gm, g, list(predictions.values())

        assert state_outcome(scalar_state) == state_outcome(chunk_row)


# Target counts below, at and past each shape of numpy's pairwise sum: the
# left-to-right sum below 8, the 8 accumulators with and without a tail up
# to 128, and the halves past it.
KERNEL_TARGET_COUNTS = [1, 2, 7, 8, 9, 15, 16, 17, 23, 64, 128, 129, 136, 300]


def one_source_request(coefficients, weights):
    """A budget-1 request of one source "s" that covers a target per
    (a, b, c) in ``coefficients``, each weighted as in ``weights``."""
    targets = tuple(f"t{j:03d}" for j in range(len(coefficients)))
    return AllocationRequest(budget=1, sources=("s",), targets=targets, demand=dict(zip(targets, weights)),
                             registry={("s", t): curve("s", t, *abc) for t, abc in zip(targets, coefficients)})


def states_until_error(request, k_max):
    """The state outcomes of the generated kernel and of the reference
    closure at k = 1, ..., k_max, each up to its first error."""
    sides = []
    for source_state in (allocator._source_state, _props.reference_source_state):
        targets, state = source_state(request, "s")
        outcomes = []
        for k in range(1, k_max + 1):
            outcomes.append(state_outcome(lambda: state(k)))
            if isinstance(outcomes[-1], tuple):
                break
        sides.append((targets, outcomes))
    return sides


class TestStateKernelMatchesClosure:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(KERNEL_TARGET_COUNTS), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.1, 0.5]),
           st.sampled_from([1, 2, 4, 100]) | st.integers(1, 10_000))
    def test_bit_for_bit_or_same_error(self, n, seed, special_rate, k):
        # Coefficients in [-3, 3] make some predictions negative; special
        # ones make them zero, huge or overflowing, and weights of 1e308
        # make gm overflow.
        rng = np.random.default_rng(seed)

        def draw(low, high, special):
            return float(rng.choice(special) if rng.random() < special_rate else rng.uniform(low, high))

        request = one_source_request(
            [(draw(-3.0, 3.0, SPECIAL_A), draw(-3.0, 3.0, SPECIAL_B), draw(0.0, 2.0, SPECIAL_C)) for _ in range(n)],
            [draw(0.0, 1.0, SPECIAL_WEIGHTS) for _ in range(n)])
        (kernel_targets, kernel), (reference_targets, reference) = (
            source_state(request, "s") for source_state in (allocator._source_state, _props.reference_source_state))
        assert kernel_targets == reference_targets
        assert state_outcome(lambda: kernel(k)) == state_outcome(lambda: reference(k))

    @pytest.mark.parametrize("n", KERNEL_TARGET_COUNTS)
    def test_all_zero_predictions_fail_at_the_same_k(self, n):
        # 2^-2 - k^-0.5 on every target: negative before k = 16, all zero there.
        kernel, reference = states_until_error(one_source_request([(0.25, -1.0, 0.5)] * n, [1.0] * n), 20)
        assert kernel == reference
        assert len(kernel[1]) == 16 and kernel[1][-1][1].endswith("all-zero vector")

    @pytest.mark.parametrize("n", KERNEL_TARGET_COUNTS)
    def test_overflowing_gm_fails_at_the_same_k(self, n):
        # 2 - 1.5 k^-0.5 weighted 1e308 on the last target: gm overflows from k = 55.
        kernel, reference = states_until_error(
            one_source_request([(2.0, -1.5, 0.5)] * n, [0.5] * (n - 1) + [1e308]), 60)
        assert kernel == reference
        assert len(kernel[1]) == 55 and kernel[1][-1] == (ComputationError, "gm of source 's' at 55 samples is not finite")


class TestStateKernelCompiledPerLength:
    def test_one_kernel_for_sources_of_one_length(self):
        # Generating a kernel per source would cost a compile per source,
        # more than the states it speeds up.
        targets = tuple(f"t{j:02d}" for j in range(23))
        sources = tuple(f"s{i:02d}" for i in range(23))
        request = AllocationRequest(
            budget=500, sources=sources, targets=targets, demand=dict.fromkeys(targets, 1 / 23),
            registry={(s, t): curve(s, t, 0.5 + i / 50, -1.0 - j / 25, 0.1 + (i + j) % 7 / 10)
                      for i, s in enumerate(sources) for j, t in enumerate(targets)})
        allocator._state_kernel.cache_clear()
        greedy_allocate(request)
        egalitarian_allocate(request)
        assert allocator._state_kernel.cache_info().misses == 1


# Budgets at and next to k = 4^m, where a "zero" profile predicts exactly 0.
EDGE_BUDGETS = [1, 2, 3, 4, 5, 15, 16, 17, 63, 64, 65, 255, 256, 257]


@st.composite
def oracle_requests(draw):
    """Greedy requests for the heap merge against the chunk oracle: 1-30
    targets and 1-5 sources, some pairs missing under the permissive policy;
    alpha and beta each zero or not; sources that share a profile, so their
    gains tie exactly. A profile is random coefficients, each special at a
    drawn rate, or one curve on every target: 2^-m - k^-0.5, negative
    before k = 4^m and exactly zero there; 2 - 1.5 k^-0.5, whose gm
    overflows from k = 55 on a target weighted 1e308; or 0.9e308 - 0.5e308
    / k, whose Gini sums overflow on two or more targets. So a state can be
    undefined from the first k, or only after the budget is reached."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rate = draw(st.sampled_from([0.0, 0.05, 0.3]))

    def value(low, high, special):
        return float(rng.choice(special) if rng.random() < rate else rng.uniform(low, high))

    targets = tuple(f"t{j:02d}" for j in range(draw(st.integers(1, 30))))
    profiles = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["random", "random", "zero", "growing", "large"]))
        if kind == "random":
            profiles.append([(value(-3.0, 3.0, SPECIAL_A), value(-3.0, 3.0, SPECIAL_B), value(0.0, 2.0, SPECIAL_C))
                             for _ in targets])
        else:
            coefficients = {"zero": (2.0 ** -draw(st.integers(0, 4)), -1.0, 0.5), "growing": (2.0, -1.5, 0.5),
                            "large": (0.9e308, -0.5e308, 1.0)}[kind]
            profiles.append([coefficients] * len(targets))
    sources = tuple(f"s{i}" for i in range(draw(st.integers(1, 5))))
    registry = {}
    for s in sources:
        profile = profiles[draw(st.integers(0, len(profiles) - 1))]
        registry.update({(s, t): curve(s, t, *abc) for t, abc in zip(targets, profile)})
    missing = draw(st.sampled_from(MISSING_POLICIES))
    if missing == "permissive":
        for s in sources:
            keep = draw(st.sampled_from(targets))
            for t in targets:
                if t != keep and rng.random() < 0.3:
                    del registry[(s, t)]
    alpha, beta = draw(st.sampled_from([(1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (0.5, 2.0), (3.0, 0.0), (0.0, 0.25)]))
    return AllocationRequest(
        budget=draw(st.sampled_from(EDGE_BUDGETS) | st.integers(1, 700)), sources=sources, targets=targets,
        registry=registry, demand={t: value(0.0, 1.0, SPECIAL_WEIGHTS) for t in targets},
        alpha=alpha, beta=beta, missing=missing,
    )


def picks_outcome(kernel, request, trace):
    """The counts and trace columns of ``kernel(request, trace)``, each
    float by its bits, or the error's type and text."""
    try:
        counts, columns = kernel(request, trace)
    except (ComputationError, InputError) as exc:
        return type(exc), str(exc)
    if columns is None:
        return counts, None
    sources, *numbers = columns
    return counts, list(sources), [[float(v).hex() for v in column] for column in numbers]


class TestHeapMergeMatchesChunkOracle:
    @settings(max_examples=300, deadline=None)
    @given(oracle_requests(), st.booleans())
    def test_picks_bit_for_bit_or_same_error(self, req, trace):
        assert picks_outcome(greedy.picks, req, trace) == picks_outcome(_props.picks, req, trace)
