"""Unit tests for the greedy/egalitarian/single-source allocators."""

import logging
import math

import pytest

from langdei.allocator import (
    AllocationRequest,
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
        # Oracle: re-evaluate every source at every step straight from the
        # update rules and the curves, no caching and no allocator helper.
        targets = ("t1", "t2", "t3")
        reg = {}
        for s, (a, b, c) in {"s1": (1.1, -0.9, 0.5), "s2": (0.95, -0.6, 0.3), "s3": (1.3, -1.4, 0.2)}.items():
            for i, t in enumerate(targets):
                reg[(s, t)] = curve(s, t, a + 0.05 * i, b - 0.1 * i, c)
        d = uniform_demand(targets)
        request = AllocationRequest(
            budget=40, sources=("s1", "s2", "s3"), targets=targets, registry=reg, demand=d
        )
        plan = greedy_allocate(request)

        samples = {s: 0 for s in request.sources}
        cur_gm = {s: -math.inf for s in request.sources}
        cur_gini = {s: 1.0 for s in request.sources}
        for step in plan.trace:
            best = None
            for s in request.sources:
                k = samples[s] + 1
                gm = sum(d[t] * predict(reg[(s, t)], k) for t in targets)
                g = gini([abs(predict(reg[(s, t)], k)) for t in targets])
                gain = (gm - cur_gm[s]) + (cur_gini[s] - g)
                if best is None or gain > best[1]:
                    best = (s, gain, gm, g)
            s, gain, gm, g = best
            assert step.source == s
            assert step.marginal_gain == gain
            assert step.gm == gm
            assert step.gini == g
            samples[s] += 1
            cur_gm[s] = gm
            cur_gini[s] = g
        assert plan.counts == samples

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
