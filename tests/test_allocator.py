"""Unit tests for the greedy/egalitarian/single-source allocators."""

import functools
import logging
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langdei.allocator import (
    MISSING_POLICIES,
    AllocationPlan,
    AllocationRequest,
    TraceStep,
    egalitarian_allocate,
    evaluate_plan,
    greedy_allocate,
    single_source_allocate,
    with_evaluation,
)
from langdei.curves import LearningCurve, predict
from langdei.errors import ComputationError, InputError
from langdei.metrics import gini


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


def naive_greedy(request):
    """Reference greedy: every step scans every source's next gain, built from
    the update rules, curves.predict and metrics.gini, with no allocator
    helper. gm accumulates left to right over the sorted covered targets."""
    alpha, beta = request.alpha, request.beta

    @functools.cache
    def state(s, k):
        covered = [t for t in request.targets if (s, t) in request.registry]
        preds = [predict(request.registry[(s, t)], k) for t in covered]
        gm = 0.0
        for t, p in zip(covered, preds):
            gm += request.demand[t] * p
        return gm, gini([abs(p) for p in preds])

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
    funded = [s for s in request.sources if samples[s] > 0]
    return AllocationPlan(
        strategy="greedy", budget=request.budget, counts=samples,
        final_gm={s: cur_gm[s] for s in funded}, final_gini={s: cur_gini[s] for s in funded},
        alpha=alpha, beta=beta, missing=request.missing, trace=tuple(trace),
    )


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
        # 700 steps over three sources cross the first two chunk boundaries.
        request = three_source_request(budget=700)
        assert repr(greedy_allocate(request)) == repr(naive_greedy(request))

    def test_undefined_gini_raises_when_reached(self):
        # z's prediction is exactly 0 at k = 2: 0.5 - 1 * 2^-1.
        request = two_source_request(budget=3, zero_source=("z", 0.5, -1.0, 1.0))
        with pytest.raises(ComputationError, match="all-zero"):
            greedy_allocate(request)
        with pytest.raises(ComputationError, match="all-zero"):
            naive_greedy(request)

    def test_undefined_gini_never_reached_does_not_raise(self):
        # Budget 2 computes z's state at k = 2 but allocates only k = 1.
        request = two_source_request(budget=2, zero_source=("z", 0.5, -1.0, 1.0))
        plan = greedy_allocate(request)
        assert plan.counts == {"a": 1, "z": 1}
        assert repr(plan) == repr(naive_greedy(request))

    def test_alpha_zero_runs_without_nan(self):
        request = simple_request(10, alpha=0.0, beta=1.0)
        plan = greedy_allocate(request)
        assert sum(plan.counts.values()) == 10
        assert all(math.isfinite(t.marginal_gain) for t in plan.trace)

    def test_budget_zero_rejected(self):
        with pytest.raises(InputError):
            simple_request(0)

    def test_zero_weight_pair_rejected(self):
        with pytest.raises(InputError):
            simple_request(5, alpha=0.0, beta=0.0)

    def test_strict_policy_rejects_missing_pair(self):
        reg = registry_for(["s1"], ["t1", "t2"], {"s1": (1.0, -1.0, 0.5)})
        del reg[("s1", "t2")]
        with pytest.raises(InputError, match=r"\(s1, t2\)"):
            AllocationRequest(
                budget=5, sources=("s1",), targets=("t1", "t2"),
                registry=reg, demand=uniform_demand(("t1", "t2")),
            )

    def test_permissive_policy_logs_and_drops(self, caplog):
        reg = registry_for(["s1", "s2"], ["t1", "t2"], {"s1": (1.1, -1.0, 0.5), "s2": (0.9, -1.0, 0.5)})
        del reg[("s1", "t2")]
        with caplog.at_level(logging.WARNING, logger="langdei.allocator"):
            request = AllocationRequest(
                budget=6, sources=("s1", "s2"), targets=("t1", "t2"),
                registry=reg, demand=uniform_demand(("t1", "t2")), missing="permissive",
            )
        assert "(s1, t2)" in caplog.text
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
        alpha=alpha, beta=beta, missing=missing,
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

    @settings(max_examples=40, deadline=None)
    @given(greedy_requests(max_budget=400), st.integers(1, 400))
    def test_trace_is_prefix_of_larger_budget(self, req, extra):
        larger = replace(req, budget=req.budget + extra)
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
        plan = single_source_allocate(request, "s1")
        best = evaluate_plan(plan, request.registry, request.demand, request.targets, mode="best-source")
        mean = evaluate_plan(plan, request.registry, request.demand, request.targets, mode="mean")
        assert best.utilities == mean.utilities
        assert best.m_tau == pytest.approx(mean.m_tau)

    def test_two_funded_sources_compose(self):
        targets = ("t",)
        reg = {
            ("s1", "t"): curve("s1", "t", 0.6, 0.0, 0.0),
            ("s2", "t"): curve("s2", "t", 0.8, 0.0, 0.0),
        }
        request = AllocationRequest(
            budget=2, sources=("s1", "s2"), targets=targets, registry=reg, demand={"t": 1.0}
        )
        plan = egalitarian_allocate(request)
        best = evaluate_plan(plan, reg, {"t": 1.0}, targets, mode="best-source")
        mean = evaluate_plan(plan, reg, {"t": 1.0}, targets, mode="mean")
        assert best.utilities["t"] == pytest.approx(0.8)
        assert mean.utilities["t"] == pytest.approx(0.7)

    def test_equal_predictions_have_zero_gini(self):
        request = simple_request(8, n_sources=2)
        plan = egalitarian_allocate(request)
        ev = evaluate_plan(plan, request.registry, request.demand, request.targets)
        assert ev.gini_coeff == pytest.approx(0.0, abs=1e-13)
        assert ev.surrogate is True

    def test_uncovered_target_rejected_in_strict_mode(self):
        reg = {("s1", "t1"): curve("s1", "t1", 1.0, 0.0, 0.0)}
        request = AllocationRequest(
            budget=4, sources=("s1",), targets=("t1",), registry=reg, demand={"t1": 1.0}
        )
        plan = single_source_allocate(request, "s1")
        with pytest.raises(InputError, match="t2"):
            evaluate_plan(plan, reg, {"t1": 0.5, "t2": 0.5}, ("t1", "t2"), mode="best-source")

    def test_clamp_limits_to_unit_interval(self):
        reg = {("s1", "t1"): curve("s1", "t1", 1.4, 0.0, 0.0)}
        request = AllocationRequest(
            budget=4, sources=("s1",), targets=("t1",), registry=reg, demand={"t1": 1.0}
        )
        plan = single_source_allocate(request, "s1")
        raw = evaluate_plan(plan, reg, {"t1": 1.0}, ("t1",))
        clamped = evaluate_plan(plan, reg, {"t1": 1.0}, ("t1",), clamp=True)
        assert raw.utilities["t1"] == pytest.approx(1.4)
        assert clamped.utilities["t1"] == 1.0

    def test_permissive_mode_drops_uncovered_target(self, caplog):
        reg = {("s1", "t1"): curve("s1", "t1", 1.0, 0.0, 0.0)}
        request = AllocationRequest(
            budget=4, sources=("s1",), targets=("t1",), registry=reg, demand={"t1": 1.0}
        )
        plan = single_source_allocate(request, "s1")
        with caplog.at_level(logging.WARNING, logger="langdei.allocator"):
            ev = evaluate_plan(
                plan, reg, {"t1": 0.5, "t2": 0.5}, ("t1", "t2"), missing="permissive"
            )
        assert set(ev.utilities) == {"t1"}
        assert "t2" in caplog.text

    def test_with_evaluation_attaches(self):
        request = simple_request(4, n_sources=2)
        plan = egalitarian_allocate(request)
        ev = evaluate_plan(plan, request.registry, request.demand, request.targets)
        assert with_evaluation(plan, ev).evaluation == ev
