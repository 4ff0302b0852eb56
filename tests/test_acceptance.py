"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. Every tolerance is fixed here, not configurable.
"""

import csv
import math
import time
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from langdei.allocator import AllocationRequest, egalitarian_allocate, greedy_allocate, single_source_allocate
from langdei.cli import main as cli_main
from langdei.curves import TrajectoryPoint, fit_power_law
from langdei.efficiency import EfficiencyConfig, compute_amrs_table, efficiency_score, memory_saved
from langdei.commands.report import load_plan
from langdei.io import (
    bundled_path,
    load_curve_registry,
    load_trace,
    render_curves,
    render_plan,
    render_trace,
    write_text,
)
from langdei.curves import LearningCurve
from langdei.metrics import DEFAULT_UNIVERSE, PerformanceTable, TaskSpec, dei_scorecard, demand, gini

from _props import (ALL_PROPERTIES, ModelGoods, check_oracle_equivalence, goods_table, mrs_sequence,
                    reference_load_goods)

# Tested-language sets per task, from the benchmark's task table.
TASK_LANGS = {
    "ner": ("bn", "en", "gu", "hi", "ml", "mr", "pa", "ta", "te", "ur"),
    "pos": ("en", "hi", "mr", "ta", "te", "ur"),
    "nli": ("en", "hi", "ur"),
    "qa": ("bn", "en", "hi", "te"),
}
REFERENCE_GINI = {"ner": 0.59, "pos": 0.76, "nli": 0.88, "qa": 0.83}


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded its runtime budget: {elapsed:.2f}s >= {budget_seconds}s"
    )
    print(f"ACCEPTANCE PASS criterion {number}: {description} ({elapsed:.2f}s)")


def test_criterion_1_gini_structural_reproduction():
    expected_closed_form = {"ner": 13 / 23, "pos": 17 / 23, "nli": 20 / 23, "qa": 19 / 23}
    stated = {"ner": 0.565, "pos": 0.739, "nli": 0.870, "qa": 0.826}
    with criterion(1, "Gini structural reproduction from tested-language counts", 1.0):
        for task, langs in TASK_LANGS.items():
            utilities = [0.795 if lang in langs else 0.0 for lang in DEFAULT_UNIVERSE]
            computed = gini(utilities)
            assert computed == pytest.approx(expected_closed_form[task], abs=1e-12)
            assert computed == pytest.approx(stated[task], abs=5e-4)
            assert abs(computed - REFERENCE_GINI[task]) <= 0.03


def test_criterion_2_global_metric_structural_consistency(bundle):
    with criterion(2, "global metric consistent with the reference NER row", 1.0):
        ner = TaskSpec("ner", 97.6)
        scores = {("ner", "muril_base", "en", lang): 77.6 for lang in TASK_LANGS["ner"]}
        perf = PerformanceTable.from_scores(scores)
        (row_tau1,) = dei_scorecard(perf, bundle.speakers, [ner], tau=1.0)
        (row_tau0,) = dei_scorecard(perf, bundle.speakers, [ner], tau=0.0)
        m1, m0 = row_tau1.m_tau * 100, row_tau0.m_tau * 100
        assert m1 == pytest.approx(70.7, abs=0.05)
        assert m0 == pytest.approx(34.6, abs=0.05)
        assert abs(m1 - 69.6) <= 2.0  # residual: unpublished per-language variation
        assert abs(m0 - 33.4) <= 2.0


def test_criterion_3_gini_property_suite():
    rng = np.random.default_rng(43)
    with criterion(3, "six sparsity properties x 1000 vectors + oracle equivalence", 10.0):
        for _, check in ALL_PROPERTIES:
            check(rng, 1000)
        check_oracle_equivalence(rng, 1000)


def test_criterion_4_curve_fit_recovery():
    rng = np.random.default_rng(44)
    xs = [320 * k for k in range(1, 31)]
    with criterion(4, "power-law recovery on 100 noiseless synthetic trajectories", 30.0):
        for _ in range(100):
            a = float(rng.uniform(0.5, 2.5))
            b = float(rng.uniform(-30.0, -3.0))
            c = float(rng.uniform(0.05, 0.6))
            points = [TrajectoryPoint("s", "t", x, a + b * x ** (-c)) for x in xs]
            fitted = fit_power_law(points)
            assert fitted.a == pytest.approx(a, rel=1e-3)
            assert fitted.b == pytest.approx(b, rel=1e-3)
            assert fitted.c == pytest.approx(c, rel=1e-3)
            assert fitted.r_squared >= 1 - 1e-9


def test_criterion_5_greedy_near_uniformity(bundle):
    # The bundled reference allocations are labeled by the global metric alone.
    # With the one-decimal curve coefficients, the greedy at beta 1 follows the
    # equity term's absolute-value guard, which lets one source's dispersion
    # fall for thousands of steps (it absorbs ~45% of a 5000 budget). That is
    # the greedy's behaviour, not the objective's: the exact optimum
    # (test_allocator's test_greedy_objective_against_the_exact_optimum) beats
    # it at budget 2000. Near-uniformity is therefore checked in the
    # global-metric-only regime (beta=0), where the greedy is optimal and tracks
    # the reference vectors closely; the default weighting is asserted at
    # budget 1000, where it is near-uniform as well.
    registry = bundle.curves["muril"]
    targets = TASK_LANGS["ner"]
    sources = ("bn", "en", "hi", "ml", "mr", "ta", "ur")
    weights = demand(bundle.speakers, targets, tau=1.0)
    with criterion(5, "greedy allocations near-uniform on bundled curves", 30.0):
        for budget in (1000, 5000):
            request = AllocationRequest(
                budget=budget, sources=sources, targets=targets, registry=registry,
                demand=weights, alpha=1.0, beta=0.0, missing="permissive",
            )
            plan = greedy_allocate(request)
            uniform = budget / len(sources)
            assert sum(plan.counts.values()) == budget
            for source, count in plan.counts.items():
                assert 0.75 * uniform <= count <= 1.25 * uniform, (
                    f"budget {budget}: {source} got {count}, outside +-25% of {uniform:.1f}"
                )
        reference_1000 = {"bn": 142, "en": 136, "hi": 152, "ml": 143, "mr": 148, "ta": 157, "ur": 122}
        assert min(reference_1000.values()) >= 0.75 * 1000 / 7
        assert max(reference_1000.values()) <= 1.25 * 1000 / 7
        default_request = AllocationRequest(
            budget=1000, sources=sources, targets=targets, registry=registry,
            demand=weights, alpha=1.0, beta=1.0, missing="permissive",
        )
        default_plan = greedy_allocate(default_request)
        for source, count in default_plan.counts.items():
            assert 0.75 * 1000 / 7 <= count <= 1.25 * 1000 / 7


# The published allocations (allocations_reference.csv) against langdei's
# greedy at beta 0 with the permissive policy, each row at its tau on the
# bundled registry of its model: the L1 distance between the two count
# vectors over the budget. Measured 0.026-0.115 (README lists each row); the
# bound fails a change that moves plans away from the paper's.
REPRODUCTION_GAP_BOUND = 0.12
REGISTRY_OF_MODEL = {"muril_large": "muril", "xlmr_large": "xlmr"}


def test_greedy_stays_near_the_published_allocations(bundle):
    with open(bundled_path("allocations_reference.csv"), newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 12
    for row in rows:
        registry = bundle.curves[REGISTRY_OF_MODEL[row["model"]]]
        sources = tuple(sorted({s for s, _ in registry}))
        targets = tuple(sorted({t for _, t in registry}))
        budget, tau = int(row["budget"]), {"gm_tau0": 0.0, "gm_tau1": 1.0}[row["metric"]]
        with warnings.catch_warnings():  # the muril registry has no (ur, en) curve
            warnings.simplefilter("ignore", UserWarning)
            request = AllocationRequest(budget=budget, sources=sources, targets=targets, registry=registry,
                                        demand=demand(bundle.speakers, targets, tau=tau), alpha=1.0, beta=0.0,
                                        missing="permissive")
        plan = greedy_allocate(request, trace=False)
        distance = sum(abs(plan.counts.get(s, 0) - int(row[s])) for s in sources) / budget
        assert distance <= REPRODUCTION_GAP_BOUND, (row["metric"], budget, row["model"], distance)


# What the surrogate evaluation can rank, recomputed from the bundled files:
# the four plans of each m_tau1 row of budgets_reference.csv (english is
# single:en, hindi single:hi), at the row's budget, on its model's registry,
# tau 1, beta 0, permissive. It pins README's statement of it with README's
# figures; it bounds no behaviour of the program.
SURROGATE_FIGURES = {("xlmr_large", 5000): {"english": 0.536, "hindi": 0.513, "egalitarian": 0.495, "greedy": 0.479},
                     ("muril_large", 10000): {"egalitarian": 0.628, "greedy": 0.624}}


def test_surrogate_ranks_the_published_strategies_unlike_the_measurement(bundle):
    with open(bundled_path("budgets_reference.csv"), newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.DictReader(fh) if row["metric"] == "m_tau1"]
    assert len(rows) == 6
    surrogate, contradicted = {}, []
    for row in rows:
        registry = bundle.curves[REGISTRY_OF_MODEL[row["model"]]]
        targets = tuple(sorted({t for _, t in registry}))
        with warnings.catch_warnings():  # the muril registry has no (ur, en) curve
            warnings.simplefilter("ignore", UserWarning)
            request = AllocationRequest(budget=int(row["budget"]), sources=tuple(sorted({s for s, _ in registry})),
                                        targets=targets, registry=registry,
                                        demand=demand(bundle.speakers, targets, tau=1.0), alpha=1.0, beta=0.0,
                                        missing="permissive")
            plans = {"english": single_source_allocate(request, "en"), "hindi": single_source_allocate(request, "hi"),
                     "egalitarian": egalitarian_allocate(request), "greedy": greedy_allocate(request, trace=False)}
        m = surrogate[row["model"], int(row["budget"])] = {name: plan.evaluation.m_tau for name, plan in plans.items()}
        measured = {name: float(row[name]) for name in plans if row[name]}  # no hindi figure at budget 10,000
        # The orders differ where the surrogate does not rank above what the measurement ranks strictly above.
        if any(measured[a] > measured[b] and m[a] <= m[b] for a in measured for b in measured):
            contradicted.append((row["model"], int(row["budget"])))
    assert set(surrogate) - set(contradicted) == {("xlmr_large", 10000)}
    assert all(m["greedy"] < m["egalitarian"] for m in surrogate.values())
    xlmr = surrogate["xlmr_large", 5000]
    assert sorted(xlmr, key=xlmr.get) == ["greedy", "egalitarian", "hindi", "english"]  # measured: the reverse
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8").split())
    assert "in 5 of the 6 `m_tau1` rows" in readme
    for key, figures in SURROGATE_FIGURES.items():
        assert {name: round(surrogate[key][name], 3) for name in figures} == figures
        assert all(f"{name} {value}" in readme for name, value in figures.items()), key


# Hand-computed trace for a 2-source, 2-target instance, alpha = beta = 1,
# uniform demand, curves with c = 1 (f(k) = a + b/k):
#   s1->t1: 1 - (1/2)/k     s1->t2: 4/5 - (1/5)/k
#   s2->t1: 9/10 - (3/5)/k  s2->t2: 7/10 - (1/10)/k
# Derived independently with exact rational arithmetic from the update rules
# (gm = mean of the two predictions; gini of two values = |p-q| / (2(p+q));
# gain = delta gm + delta gini), then frozen here as floats.
HAND_TRACE = (
    (1, "s1", float("inf"), 0.55, 0.045454545454545456),
    (2, "s2", float("inf"), 0.45, 0.16666666666666666),
    (3, "s2", 0.32166666666666666, 0.625, 0.02),
    (4, "s1", 0.20321316614420062, 0.725, 0.017241379310344827),
    (5, "s2", 0.06613821138211382, 0.6833333333333333, 0.012195121951219513),
    (6, "s1", 0.04365981902665689, 0.7833333333333333, 0.031914893617021274),
    (7, "s1", 0.02262002182214948, 0.8125, 0.038461538461538464),
    (8, "s2", 0.015045999144201969, 0.7125, 0.02631578947368421),
    (9, "s1", 0.01379286376274328, 0.83, 0.04216867469879518),
    (10, "s2", 0.009569214131218457, 0.73, 0.03424657534246575),
)


def test_criterion_6_greedy_hand_trace_oracle():
    registry = {
        ("s1", "t1"): LearningCurve("s1", "t1", 1.0, -0.5, 1.0, 1.0),
        ("s1", "t2"): LearningCurve("s1", "t2", 0.8, -0.2, 1.0, 1.0),
        ("s2", "t1"): LearningCurve("s2", "t1", 0.9, -0.6, 1.0, 1.0),
        ("s2", "t2"): LearningCurve("s2", "t2", 0.7, -0.1, 1.0, 1.0),
    }
    request = AllocationRequest(
        budget=10, sources=("s1", "s2"), targets=("t1", "t2"),
        registry=registry, demand={"t1": 0.5, "t2": 0.5},
    )
    with criterion(6, "10-step greedy trace matches the hand-computed table", 1.0):
        plan = greedy_allocate(request)
        assert len(plan.trace) == 10
        for got, want in zip(plan.trace, HAND_TRACE):
            step, source, gain, gm, g = want
            got_step, got_source, got_gain, got_gm, got_gini = got
            assert got_step == step
            assert got_source == source
            if math.isinf(gain):
                assert math.isinf(got_gain) and got_gain > 0
            else:
                assert got_gain == pytest.approx(gain, abs=1e-12)
            assert got_gm == pytest.approx(gm, abs=1e-12)
            assert got_gini == pytest.approx(g, abs=1e-12)
        assert plan.counts == {"s1": 5, "s2": 5}


def test_criterion_7_efficiency_spot_check(bundle):
    with criterion(7, "efficiency spot check with reference substitution rates", 1.0):
        config = EfficiencyConfig()

        def rates_of(rows):
            table = goods_table(rows)
            return compute_amrs_table(table, memory_saved(table, config))

        def score_of(row, amrs_table):
            table = goods_table([row])
            return efficiency_score(table, memory_saved(table, config), amrs_table, config)[0]

        # Reference-rate path: QA regional model at its main-table QA score.
        goods = ModelGoods("muril_base", "regional", "qa", throughput=15.7, memory_gb=0.9, performance=76.1)
        score = score_of(goods, bundle.printed_amrs)
        assert score == pytest.approx(79.4, abs=0.05)
        assert abs(score - 77.8) <= 2.0
        # Computed-rate path: asserted for its own invariants only.
        table = compute_amrs_table(bundle.goods, memory_saved(bundle.goods, config))
        base = score_of(goods, table)
        better_tp = ModelGoods("x", "regional", "qa", 16.7, 0.9, 76.1)
        better_mem = ModelGoods("x", "regional", "qa", 15.7, 0.5, 76.1)
        better_perf = ModelGoods("x", "regional", "qa", 15.7, 0.9, 77.1)
        assert score_of(better_tp, table) > base
        assert score_of(better_mem, table) > base
        assert score_of(better_perf, table) > base
        # Two-model group: the average rate equals the single pairwise rate.
        rows = reference_load_goods(bundled_path("goods.csv"))
        pair = [g for g in rows if g.group == "global" and g.task_id == "ner"]
        assert rates_of(pair).get("global", "ner", "throughput") == mrs_sequence(pair, "throughput", config)[0]
        # Scale coherence: scaling performances by k scales rates by 1/k.
        k = 3.0
        scaled = [
            ModelGoods(g.model_id, g.group, g.task_id, g.throughput, g.memory_gb, g.performance * k)
            for g in rows
        ]
        scaled_table = rates_of(scaled)
        for key, value in table.entries.items():
            assert scaled_table.entries[key] == pytest.approx(value / k, rel=1e-12)


def test_criterion_8_determinism_and_round_trip(bundle, tmp_path, monkeypatch):
    with criterion(8, "byte-identical pipeline runs and save/load/save identity", 10.0):
        runs = []
        for name in ("run1", "run2"):
            base = tmp_path / name
            (base / "out").mkdir(parents=True)
            monkeypatch.chdir(base)
            assert cli_main([
                "metrics", "--perf", str(bundled_path("fixtures_ner_equal.csv")),
                "--tasks", str(bundled_path("tasks.csv")),
                "--speakers", str(bundled_path("speakers.csv")),
                "--out", "out/scorecard.csv", "--lorenz-out", "out/lorenz.csv",
            ]) == 0
            assert cli_main([
                "efficiency", "--goods", str(bundled_path("goods.csv")),
                "--out", "out/efficiency.csv", "--amrs-out", "out/amrs.csv",
            ]) == 0
            assert cli_main([
                "allocate", "--curves", str(bundled_path("curves_muril.txt")),
                "--budget", "200", "--strategy", "greedy", "--tau", "1",
                "--speakers", str(bundled_path("speakers.csv")),
                "--missing", "permissive",
                "--out", "out/plan.txt", "--trace-out", "out/trace.csv",
            ]) == 0
            assert cli_main([
                "report", "--scorecard", "out/scorecard.csv", "--lorenz", "out/lorenz.csv",
                "--amrs", "out/amrs.csv", "--efficiency", "out/efficiency.csv",
                "--curves", str(bundled_path("curves_muril.txt")),
                "--plan", "out/plan.txt", "--trace", "out/trace.csv",
                "--out", "out/report.md",
            ]) == 0
            files = sorted(p.name for p in (base / "out").iterdir())
            runs.append({f: (base / "out" / f).read_bytes() for f in files})
        assert runs[0] == runs[1]

        # save -> load -> save is byte-identical for every serialized type.
        for name in ("curves_muril.txt", "curves_xlmr.txt"):
            source = bundled_path(name)
            registry = load_curve_registry(source)
            assert render_curves(registry) == source.read_text()
            resaved = tmp_path / name
            write_text(resaved, render_curves(registry))
            assert render_curves(load_curve_registry(resaved)) == resaved.read_text()

        plan_path = tmp_path / "run1" / "out" / "plan.txt"
        plan = load_plan(plan_path)
        assert render_plan(plan) == plan_path.read_text()
        trace_path = tmp_path / "run1" / "out" / "trace.csv"
        trace = load_trace(trace_path)
        assert render_trace(trace) == trace_path.read_text()
        resaved_plan = tmp_path / "plan2.txt"
        write_text(resaved_plan, render_plan(plan))
        assert load_plan(resaved_plan) == plan
        resaved_trace = tmp_path / "trace2.csv"
        write_text(resaved_trace, render_trace(trace))
        assert load_trace(resaved_trace) == trace
