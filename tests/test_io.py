"""Unit tests for file formats, bundled datasets, and canonical output."""

import csv
import struct
from io import StringIO

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from langdei.allocator import AllocationPlan, PlanEvaluation, TraceStep
from langdei.commands.report import load_plan
from langdei.curves import LearningCurve, load_trajectories, predict
from langdei.efficiency import GoodsTable, load_amrs
from langdei.errors import InputError
from langdei.metrics import TaskSpec, load_tasks, load_universe
from langdei.io import (
    bundled_path,
    fmt_num,
    load_curve_registry,
    load_performance,
    load_speakers,
    load_trace,
    render_curves,
    render_plan,
    render_trace,
    write_text,
)

from _props import goods_table, reference_load_goods, reference_load_performance, table_cells


REFERENCE_TABLES = {
    "allocations_reference.csv": ("metric", "budget", "model", "bn", "en", "hi", "ml", "mr", "ta", "ur"),
    "dei_baseline.csv": ("task", "model", "train_lang", "baseline", "m_tau1", "m_tau0", "gini", "efficiency"),
    "gini_tested_only.csv": ("train_lang", "model", "ner", "pos", "nli", "qa"),
    "budgets_reference.csv": ("metric", "budget", "model", "english", "hindi", "egalitarian", "greedy"),
}
ALLOCATION_SOURCES = REFERENCE_TABLES["allocations_reference.csv"][3:]


def reference_rows(name):
    """The rows of a bundled reference table as dicts, once its header and
    the width of every row are checked; empty cells mean 'not published'."""
    with open(bundled_path(name), newline="", encoding="utf-8") as fh:
        header, *rows = [row for row in csv.reader(fh) if row]
    assert tuple(header) == REFERENCE_TABLES[name]
    assert all(len(row) == len(header) for row in rows)
    return [dict(zip(header, row)) for row in rows]


class TestBundle:
    def test_counts(self, bundle):
        assert len(bundle.speakers) == 23
        assert len(bundle.tasks) == 5
        assert len(bundle.goods.model) == 20
        assert len(bundle.curves["muril"]) == 69
        assert len(bundle.curves["xlmr"]) == 68
        assert len(bundle.printed_amrs.entries) == 16
        assert len(bundle.universe) == 23
        assert {name: len(reference_rows(name)) for name in REFERENCE_TABLES} == {
            "allocations_reference.csv": 12,
            "dei_baseline.csv": 12,
            "gini_tested_only.csv": 10,
            "budgets_reference.csv": 12,
        }

    def test_hindi_speakers(self, bundle):
        assert bundle.speakers.millions("hi") == 691.6

    def test_missing_pairs(self, bundle):
        all_pairs = {(s, t) for s in ("bn", "en", "hi", "ml", "mr", "ta", "ur")
                     for t in ("bn", "en", "gu", "hi", "ml", "mr", "pa", "ta", "te", "ur")}
        assert all_pairs - set(bundle.curves["muril"]) == {("ur", "en")}
        assert all_pairs - set(bundle.curves["xlmr"]) == {("bn", "ur"), ("hi", "ur")}

    def test_known_curve_coefficients(self, bundle):
        c = bundle.curves["muril"][("bn", "bn")]
        assert (c.a, c.b, c.c, c.r_squared) == (1.2, -29.0, 0.5, 0.88)
        flat = bundle.curves["xlmr"][("mr", "ur")]
        assert (flat.a, flat.b, flat.c) == (5.2, -7.0, 0.0)

    def test_goods_row_memory_saved(self, bundle):
        from langdei.efficiency import EfficiencyConfig, memory_saved

        goods = bundle.goods
        i = list(zip(goods.model, goods.task)).index(("muril_base", "ner"))
        assert (goods.throughput[i], goods.performance[i]) == (23.8, 74.9)
        assert memory_saved(goods, EfficiencyConfig())[i] == pytest.approx(15.1)

    def test_reference_allocations_sum_to_budget(self):
        for row in reference_rows("allocations_reference.csv"):
            assert sum(int(row[lang]) for lang in ALLOCATION_SOURCES) == int(row["budget"])

    def test_reference_allocation_row(self):
        row = next(
            r for r in reference_rows("allocations_reference.csv")
            if (r["metric"], r["budget"], r["model"]) == ("gm_tau1", "1000", "muril_large")
        )
        counts = {lang: int(row[lang]) for lang in ALLOCATION_SOURCES}
        assert counts == {"bn": 142, "en": 136, "hi": 152, "ml": 143, "mr": 148, "ta": 157, "ur": 122}

    def test_bundled_files_are_canonical(self, bundle):
        for name in ("curves_muril.txt", "curves_xlmr.txt"):
            path = bundled_path(name)
            assert render_curves(load_curve_registry(path)) == path.read_text()

    def test_printed_amrs_spot_values(self, bundle):
        assert bundle.printed_amrs.get("regional", "qa", "throughput") == 1.1
        assert bundle.printed_amrs.get("regional", "qa", "memory") == 0.1

    def test_bundled_exponents_inside_default_search_range(self, bundle):
        for registry in bundle.curves.values():
            for curve in registry.values():
                assert 0.0 <= curve.c <= 0.6


class TestSpeakersLoader:
    def test_header_only_is_valid_empty(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("lang,speakers_millions\n")
        assert len(load_speakers(p)) == 0

    def test_negative_count_line_numbered(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("lang,speakers_millions\nhi,-3\n")
        with pytest.raises(InputError, match=r"s\.csv:2"):
            load_speakers(p)

    def test_duplicate_language_line_numbered(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("lang,speakers_millions\nhi,1\nhi,2\n")
        with pytest.raises(InputError, match=r"s\.csv:3"):
            load_speakers(p)

    def test_malformed_number(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("lang,speakers_millions\nhi,abc\n")
        with pytest.raises(InputError, match="abc"):
            load_speakers(p)

    def test_missing_file_named(self, tmp_path):
        with pytest.raises(InputError, match="nowhere.csv"):
            load_speakers(tmp_path / "nowhere.csv")

    def test_wrong_header_rejected(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("language,count\nhi,1\n")
        with pytest.raises(InputError, match="header"):
            load_speakers(p)


class TestPerformanceLoader:
    def test_single_row(self, tmp_path):
        p = tmp_path / "perf.csv"
        p.write_text("task,model,train_lang,target_lang,score\nner,muril_base,en,hi,82.4\n")
        table = load_performance(p)
        assert table_cells(table)[("ner", "muril_base", "en", "hi")] == 82.4

    def test_unit_scale_converts_to_percent(self, tmp_path):
        p = tmp_path / "perf.csv"
        p.write_text("task,model,train_lang,target_lang,score\nner,m,en,hi,0.824\n")
        table = load_performance(p, scale="unit")
        assert table_cells(table)[("ner", "m", "en", "hi")] == pytest.approx(82.4)

    def test_duplicate_key_rejected(self, tmp_path):
        p = tmp_path / "perf.csv"
        p.write_text(
            "task,model,train_lang,target_lang,score\nner,m,en,hi,80\nner,m,en,hi,81\n"
        )
        with pytest.raises(InputError, match=r"perf\.csv:3"):
            load_performance(p)

    def test_malformed_score_locates_line(self, tmp_path):
        p = tmp_path / "perf.csv"
        p.write_text("task,model,train_lang,target_lang,score\nner,m,en,hi,abc\n")
        with pytest.raises(InputError, match=r"perf\.csv:2.*abc"):
            load_performance(p)

    def test_unknown_scale_rejected(self, tmp_path):
        p = tmp_path / "perf.csv"
        p.write_text("task,model,train_lang,target_lang,score\n")
        with pytest.raises(InputError, match="scale"):
            load_performance(p, scale="promille")


class TestTrajectoriesLoader:
    def test_loads_and_normalizes_percent(self, tmp_path):
        p = tmp_path / "traj.csv"
        p.write_text("source,target,samples,score\nen,hi,320,50\nen,hi,640,60\n")
        pairs = load_trajectories(p)
        assert [pt.score for pt in pairs[("en", "hi")]] == [pytest.approx(0.5), pytest.approx(0.6)]

    def test_non_increasing_samples_rejected(self, tmp_path):
        p = tmp_path / "traj.csv"
        p.write_text("source,target,samples,score\nen,hi,640,50\nen,hi,320,60\n")
        with pytest.raises(InputError, match="strictly increasing"):
            load_trajectories(p)

    def test_zero_samples_rejected(self, tmp_path):
        p = tmp_path / "traj.csv"
        p.write_text("source,target,samples,score\nen,hi,0,50\n")
        with pytest.raises(InputError, match=">= 1"):
            load_trajectories(p)

    def test_infinite_score_line_numbered(self, tmp_path):
        p = tmp_path / "traj.csv"
        p.write_text("source,target,samples,score\nen,hi,320,inf\n")
        with pytest.raises(InputError, match=r"traj\.csv:2"):
            load_trajectories(p)


class TestGoodsLoader:
    def test_bundled_example_row(self, tmp_path):
        p = tmp_path / "goods.csv"
        p.write_text("model,group,task,throughput,memory_gb,perf\nmuril_base,regional,ner,23.8,0.9,74.9\n")
        goods = GoodsTable.read_csv(p)
        assert goods.group == ("regional",)
        assert goods.memory_gb.tolist() == [0.9]

    def test_duplicate_model_task_rejected(self, tmp_path):
        p = tmp_path / "goods.csv"
        p.write_text(
            "model,group,task,throughput,memory_gb,perf\nm,g,t,1,1,1\nm,g,t,2,2,2\n"
        )
        with pytest.raises(InputError, match=r"goods\.csv:3"):
            GoodsTable.read_csv(p)

    @pytest.mark.parametrize("row, message", [
        ("m,g,t,abc,1,1", "P:3: malformed number 'abc'"),
        ("m,g,t,1,nan,1", "P:3: number must not be NaN"),
        ("m,g,t,inf,1,-inf", "P:3: throughput for 'm' must be positive, got inf"),
        ("m,g,t,1,1,-1", "P:3: performance for 'm' must be non-negative, got -1.0"),
        ("m x,g,t,1,1,1", "P:3: invalid model id: 'm x' (ids must be non-empty, without whitespace, ',', '=' or '\"')"),
        ("n,g,t,abc,1,1", "P:3: duplicate goods row for model 'n', task 't'"),
        ("m x,g,t,nan,1,1", "P:3: number must not be NaN"),
    ], ids=["malformed", "nan", "inf-minus-inf", "negative", "id", "repeat-before-malformed", "nan-before-id"])
    def test_message(self, tmp_path, row, message):
        p = tmp_path / "goods.csv"
        p.write_text(f"model,group,task,throughput,memory_gb,perf\nn,g,t,1,1,1\n{row}\n")
        with pytest.raises(InputError) as info:
            GoodsTable.read_csv(p)
        assert str(info.value).replace(str(p), "P") == message


class TestAmrsLoader:
    def test_zero_rate_rejected(self, tmp_path):
        p = tmp_path / "amrs.csv"
        p.write_text("group,task,metric,amrs\nregional,qa,throughput,0\n")
        with pytest.raises(InputError, match="positive"):
            load_amrs(p)

    def test_unknown_metric_rejected(self, tmp_path):
        p = tmp_path / "amrs.csv"
        p.write_text("group,task,metric,amrs\nregional,qa,latency,1\n")
        with pytest.raises(InputError, match="latency"):
            load_amrs(p)


class TestCurveRegistryFormat:
    def test_empty_file_is_valid_empty_registry(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("")
        assert load_curve_registry(p) == {}

    def test_duplicate_pair_rejected(self, tmp_path):
        p = tmp_path / "c.txt"
        line = "curve source=en target=hi a=1 b=-2 c=0.3 r2=0.9\n"
        p.write_text(line + line)
        with pytest.raises(InputError, match=r"c\.txt:2"):
            load_curve_registry(p)

    def test_unparseable_coefficient_rejected(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("curve source=en target=hi a=oops b=-2 c=0.3 r2=0.9\n")
        with pytest.raises(InputError, match="oops"):
            load_curve_registry(p)

    def test_save_load_save_identity(self, tmp_path):
        registry = {
            ("en", "hi"): LearningCurve("en", "hi", 1.0345678901234, -11.7, 0.4, 0.83),
            ("bn", "hi"): LearningCurve("bn", "hi", 0.9, -17.2, 0.5, 0.88),
        }
        p1, p2 = tmp_path / "c1.txt", tmp_path / "c2.txt"
        write_text(p1, render_curves(registry))
        write_text(p2, render_curves(load_curve_registry(p1)))
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_prediction_agrees(self, tmp_path):
        # 12-significant-digit serialization quantizes each coefficient at up
        # to 5e-12 relative, bounding the prediction round-trip error.
        curve = LearningCurve("en", "hi", 1.2345678912345, -8.7654321098765, 0.3456789012345, 0.83)
        p = tmp_path / "c.txt"
        write_text(p, render_curves({("en", "hi"): curve}))
        loaded = load_curve_registry(p)[("en", "hi")]
        for x in (1, 320, 5000):
            assert predict(loaded, x) == pytest.approx(predict(curve, x), rel=2e-11, abs=2e-11)

    def test_round_trip_exact_for_12_digit_values(self, tmp_path):
        curve = LearningCurve("en", "hi", 1.03456789012, -11.7, 0.4, 0.83)
        p = tmp_path / "c.txt"
        write_text(p, render_curves({("en", "hi"): curve}))
        loaded = load_curve_registry(p)[("en", "hi")]
        assert loaded == curve
        for x in (1, 320, 5000):
            assert predict(loaded, x) == predict(curve, x)

    def test_rejects_rendered_as_comments(self):
        text = render_curves({}, rejects=[("en", "hi", "needs >= 3 points, has 2")])
        assert text.startswith("# reject source=en target=hi")

    def test_renders_are_deterministic(self, bundle):
        reg = bundle.curves["muril"]
        assert render_curves(reg) == render_curves(dict(reversed(list(reg.items()))))


class TestPlanAndTraceFormat:
    PLAN = AllocationPlan(
        strategy="greedy",
        budget=6,
        counts={"bn": 2, "en": 4, "ur": 0},
        final_gm={"bn": 0.5, "en": 0.75},
        final_gini={"bn": 0.1, "en": 0.02},
        alpha=1.0,
        beta=0.5,
        missing="permissive",
        trace=(TraceStep(1, "bn", float("inf"), 0.4, 0.3),),
        evaluation=PlanEvaluation(
            mode="best-source", utilities={"hi": 0.9, "ta": 0.7}, m_tau=0.85, gini_coeff=0.05
        ),
    )

    def test_save_load_save_identity(self, tmp_path):
        p1, p2 = tmp_path / "p1.txt", tmp_path / "p2.txt"
        write_text(p1, render_plan(self.PLAN))
        write_text(p2, render_plan(load_plan(p1)))
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_recovers_fields(self, tmp_path):
        p = tmp_path / "p.txt"
        write_text(p, render_plan(self.PLAN))
        loaded = load_plan(p)
        assert loaded.counts == self.PLAN.counts
        assert loaded.strategy == "greedy"
        assert loaded.beta == 0.5
        assert loaded.evaluation.utilities == {"hi": 0.9, "ta": 0.7}
        assert loaded.trace == ()  # trace is stored separately

    def test_trace_round_trip_including_inf(self, tmp_path):
        trace = (
            TraceStep(1, "bn", float("inf"), 0.4, 0.3),
            TraceStep(2, "en", 0.0123456789012, 0.5, 0.2),
        )
        p = tmp_path / "t.csv"
        write_text(p, render_trace(trace))
        assert load_trace(p) == trace
        p2 = tmp_path / "t2.csv"
        write_text(p2, render_trace(load_trace(p)))
        assert p.read_bytes() == p2.read_bytes()

    def test_plan_without_header_rejected(self, tmp_path):
        p = tmp_path / "p.txt"
        p.write_text("alloc source=bn samples=3\n")
        with pytest.raises(InputError, match="header"):
            load_plan(p)

    def test_duplicate_alloc_line_rejected(self, tmp_path):
        p = tmp_path / "p.txt"
        p.write_text(
            "plan strategy=greedy budget=2 alpha=1 beta=1 missing=strict\n"
            "alloc source=bn samples=1 gm=0.5 gini=0\nalloc source=bn samples=1 gm=0.5 gini=0\n"
        )
        with pytest.raises(InputError, match=r"p\.txt:3: duplicate alloc line"):
            load_plan(p)

    def test_pred_before_eval_rejected(self, tmp_path):
        p = tmp_path / "p.txt"
        p.write_text(
            "plan strategy=greedy budget=1 alpha=1 beta=1 missing=strict\n"
            "alloc source=bn samples=1 gm=0.5 gini=0\npred target=hi utility=0.5\n"
        )
        with pytest.raises(InputError, match="before eval"):
            load_plan(p)

    @pytest.mark.parametrize("value", ["true", "yes"])
    def test_eval_clamp_other_than_false_rejected(self, tmp_path, value):
        # Plans never clamp their utilities, so only clamp=false round-trips.
        p = tmp_path / "p.txt"
        p.write_text(
            "plan strategy=greedy budget=1 alpha=1 beta=1 missing=strict\n"
            f"alloc source=bn samples=1 gm=0.5 gini=0\neval mode=best-source clamp={value} m=0.5 gini=0 surrogate=true\n"
        )
        with pytest.raises(InputError, match=rf"p\.txt:3: expected clamp=false, got clamp={value}"):
            load_plan(p)

    PLAN_HEAD = "plan strategy=greedy budget=2 alpha=1 beta=1 missing=strict\n"
    EVAL = "eval mode=best-source clamp=false m=0.5 gini=0 surrogate=true\n"

    @pytest.mark.parametrize(("body", "message"), [
        ("alloc source=bn samples=2 gm=0.5 gini=0\n" + EVAL + "pred target=hi utility=0.5\npred target=hi utility=0.7\n",
         r"p\.txt:5: duplicate pred line for target 'hi'"),
        ('alloc source=b"n samples=2\n' + EVAL, r"p\.txt:2: invalid source language: 'b\"n'"),
        ("alloc source=bn samples=2 gm=0.5 gini=0\n" + EVAL + "pred target=h=i utility=0.5\n",
         r"p\.txt:4: invalid target language: 'h=i'"),
        ("alloc source=bn samples=3 gm=0.5 gini=0\nalloc source=ta samples=-1\n" + EVAL,
         r"p\.txt:3: sample count must be >= 0, got -1"),
        ("alloc source=bn samples=1 gm=0.5 gini=0\n" + EVAL, r"p\.txt: alloc samples sum to 1, not the budget 2"),
        ("alloc source=bn samples=2 gm=0.5 gini=0\n", r"p\.txt: plan has no eval line"),
        ("alloc source=bn samples=2 gm=0.5 gini=0\n" + EVAL.replace("best-source", "median"),
         r"p\.txt: composition mode must be one of \('best-source', 'mean'\), got 'median'"),
        ("alloc source=bn samples=2 gm=0.5 gini=0\nalloc source=ta samples=0 gini=0.1\n" + EVAL,
         r"p\.txt:3: source 'ta' has no samples, so no gm or gini"),
        ("alloc source=bn samples=2\n" + EVAL, r"p\.txt:2: missing fields: gm, gini"),
    ], ids=["duplicate-pred", "source-id", "target-id", "negative-count", "sum", "no-eval", "mode",
            "unfunded-state", "funded-no-state"])
    def test_plan_allocate_could_not_write_rejected(self, tmp_path, body, message):
        p = tmp_path / "p.txt"
        p.write_text(self.PLAN_HEAD + body)
        with pytest.raises(InputError, match=message):
            load_plan(p)

    @pytest.mark.parametrize(("head", "message"), [
        ("budget=0 alpha=1 beta=1 missing=strict", "budget must be >= 1, got 0"),
        ("budget=2 alpha=-1 beta=1 missing=strict", "objective weights must be finite"),
        ("budget=2 alpha=1 beta=inf missing=strict", "objective weights must be finite"),
        ("budget=2 alpha=0 beta=0 missing=strict", "objective weights .* got alpha=0.0 beta=0.0"),
        ("budget=2 alpha=1 beta=1 missing=whatever", "missing-curve policy must be one of"),
    ], ids=["budget", "negative-alpha", "infinite-beta", "zero-weights", "missing"])
    def test_plan_settings_follow_the_request_rule(self, tmp_path, head, message):
        p = tmp_path / "p.txt"
        p.write_text(f"plan strategy=greedy {head}\nalloc source=bn samples=2 gm=0.5 gini=0\n{self.EVAL}")
        with pytest.raises(InputError, match=rf"p\.txt: {message}"):
            load_plan(p)

    @pytest.mark.parametrize(("strategy", "message"), [
        ("bogus", r"p\.txt: unknown strategy 'bogus'"),
        ("single:", r"p\.txt: unknown strategy 'single:'"),
        ("single:ta", r"p\.txt: strategy single:ta names a source without an alloc line"),
    ], ids=["unknown", "empty-single", "single-without-alloc"])
    def test_plan_strategy_is_one_allocate_writes(self, tmp_path, strategy, message):
        p = tmp_path / "p.txt"
        p.write_text(f"plan strategy={strategy} budget=2 alpha=1 beta=1 missing=strict\n"
                     f"alloc source=bn samples=2 gm=0.5 gini=0\n{self.EVAL}")
        with pytest.raises(InputError, match=message):
            load_plan(p)

    def test_unknown_record_kind_rejected(self, tmp_path):
        p = tmp_path / "p.txt"
        p.write_text("plan strategy=greedy budget=1 alpha=1 beta=1 missing=strict\nbudgetline x=1\n")
        with pytest.raises(InputError, match="budgetline"):
            load_plan(p)


class TestNumberFormatting:
    def test_twelve_significant_digits_stable(self):
        value = 0.123456789012345
        once = fmt_num(value)
        assert fmt_num(float(once)) == once

    def test_integers_render_bare(self):
        assert fmt_num(-29.0) == "-29"
        assert fmt_num(7.0) == "7"

    def test_infinity(self):
        assert fmt_num(float("inf")) == "inf"
        assert fmt_num(float("-inf")) == "-inf"

    def test_no_negative_zero(self):
        assert fmt_num(-0.0) == "0"

    # render_trace and render_lorenz format their numbers with "%.12g"
    # templates, which must give fmt_num's text for every float.
    @settings(max_examples=2000, deadline=None)
    @given(st.one_of(
        st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]),
        st.sampled_from([0.0, -0.0, float("inf"), float("-inf"), float("nan"), -float("nan"), 5e-324, -5e-324,
                         2.2250738585072009e-308, 1e16, 1e17, -1e16, -1e17, 999999999999.5, 0.1]),
        st.floats(),
    ))
    def test_percent_template_equals_fmt_num(self, x):
        assert "%.12g" % (x + 0.0) == fmt_num(x)


def test_universe_loader(tmp_path, bundle):
    assert load_universe(bundled_path("universe_23.txt")) == bundle.universe
    p = tmp_path / "u.txt"
    p.write_text("en\nhi\nen\n")
    with pytest.raises(InputError, match=r"u\.txt:3"):
        load_universe(p)


def test_csv_with_byte_order_mark(tmp_path):
    p = tmp_path / "tasks.csv"
    p.write_text("\ufefftask,max_performance\nner,97.6\n", encoding="utf-8")
    assert load_tasks(p) == [TaskSpec("ner", 97.6)]


def test_key_value_file_with_byte_order_mark(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("\ufeffcurve source=en target=hi a=1 b=-2 c=0.3 r2=0.9\n", encoding="utf-8")
    assert list(load_curve_registry(p)) == [("en", "hi")]


def test_tasks_loader_rejects_nonpositive_max(tmp_path):
    p = tmp_path / "tasks.csv"
    p.write_text("task,max_performance\nner,0\n")
    with pytest.raises(InputError, match="positive"):
        load_tasks(p)


def test_bundled_path_unknown_name():
    with pytest.raises(InputError, match="available"):
        bundled_path("nope.csv")


class TestPerformanceLoaderErrors:
    """Every load_performance error names file:line. The bad row sits on
    line 6: a BOM, a blank line before the header, and blank lines between
    rows must not shift the count."""

    GOOD = "ner,m,en,hi,50.5"

    def load(self, tmp_path, bad_row):
        p = tmp_path / "perf.csv"
        text = f"\ufeff\ntask,model,train_lang,target_lang,score\n{self.GOOD}\n\n\n{bad_row}\nner,m,en,ta,1\n"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(InputError) as info:
            load_performance(p)
        return str(info.value).replace(str(p), "P")

    @pytest.mark.parametrize(
        "bad_row,message",
        [
            ("ner,m,en,bn,abc", "P:6: malformed number 'abc'"),
            ("ner,m,en,bn", "P:6: expected 5 fields, got 4"),
            ("ner,m,en,hi,60", "P:6: duplicate row for ('ner', 'm', 'en', 'hi')"),
            ("ner,m,en,bn,nan", "P:6: number must not be NaN"),
            ("ner,m,en,bn,inf", "P:6: score must be finite and non-negative, got inf"),
            ("ner,m,en,bn,-0.5", "P:6: score must be finite and non-negative, got -0.5"),
            ("ner,m x,en,bn,1", "P:6: invalid model id: 'm x' (ids must be non-empty, without whitespace, ',', '=' or '\"')"),
            ("ner,m,,bn,1", "P:6: invalid train language: '' (ids must be non-empty, without whitespace, ',', '=' or '\"')"),
        ],
    )
    def test_message(self, tmp_path, bad_row, message):
        assert self.load(tmp_path, bad_row) == message

    def test_unit_scale_overflow_is_not_finite(self, tmp_path):
        p = tmp_path / "perf.csv"
        p.write_text("task,model,train_lang,target_lang,score\nner,m,en,hi,1e307\n")
        with pytest.raises(InputError, match=r"perf\.csv:2: score must be finite and non-negative, got 1e307"):
            load_performance(p, scale="unit")

    def test_non_utf8_bytes(self, tmp_path):
        p = tmp_path / "perf.csv"
        p.write_bytes(b"task,model,train_lang,target_lang,score\n" + self.GOOD.encode() + b"\nner,m,en,bn,\xe9\n")
        with pytest.raises(InputError) as info:
            load_performance(p)
        assert str(info.value) == f"{p}: not UTF-8 (invalid continuation byte)"

    def test_header_and_empty_file(self, tmp_path):
        p = tmp_path / "perf.csv"
        p.write_text("\n\ntask,model,train,target_lang,score\n")
        with pytest.raises(InputError) as info:
            load_performance(p)
        assert str(info.value) == (
            f"{p}:3: expected header 'task,model,train_lang,target_lang,score', "
            "got 'task,model,train,target_lang,score'"
        )
        p.write_text("\n\n")
        with pytest.raises(InputError) as info:
            load_performance(p)
        assert str(info.value) == f"{p}: empty file (expected header task,model,train_lang,target_lang,score)"

    def test_line_numbers_are_physical_lines(self, tmp_path):
        # A quoted cell spanning lines 2-3 strips to the valid id "ner"; the
        # row after it starts on physical line 4, not on the third record.
        p = tmp_path / "perf.csv"
        p.write_text('task,model,train_lang,target_lang,score\n"ner\n",m,en,hi,5\nner,m,en,ta,abc\n')
        with pytest.raises(InputError) as info:
            load_performance(p)
        assert str(info.value) == f"{p}:4: malformed number 'abc'"

    def test_multi_line_row_reported_at_its_first_line(self, tmp_path):
        # Records: the header, a valid row on lines 2-3, a short row on lines 4-5.
        p = tmp_path / "perf.csv"
        p.write_text('task,model,train_lang,target_lang,score\nner,"m\n",en,hi,5\nner,"m\n",en\n')
        with pytest.raises(InputError) as info:
            load_performance(p)
        assert str(info.value) == f"{p}:4: expected 5 fields, got 3"

    def test_rows_load_in_file_order(self, tmp_path):
        p = tmp_path / "perf.csv"
        p.write_text("task,model,train_lang,target_lang,score\n\n ner , m ,en,hi, 50.5 \nner,m,en,bn,0\n")
        assert list(table_cells(load_performance(p, scale="unit")).items()) == [
            (("ner", "m", "en", "hi"), 5050.0),
            (("ner", "m", "en", "bn"), 0.0),
        ]


@st.composite
def performance_files(draw):
    """The text of a performance CSV, its scale, and up to two injected
    faults: a malformed, NaN, infinite or negative score, a repeated cell,
    a hostile id, a row of the wrong width, or a quoted newline (which
    strips to a valid id, or leaves one with whitespace). Blank lines and a
    BOM shift nothing."""
    ids = st.sampled_from(["ner", "pos"]), st.sampled_from(["m1", "m2"]), st.sampled_from(["en", "hi"])
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        key = [draw(pool) for pool in ids] + [draw(st.sampled_from(["hi", "bn", "ta", "ur"]))]
        if key not in [row[:4] for row in rows]:
            rows.append(key + [draw(st.sampled_from(["50.5", "0", "-0", "1e2", " 7 ", "100", "0.824"]))])
    kinds = ["malformed", "nan", "inf", "negative", "repeat", "id", "width", "newline"]
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=2)):
        i = draw(st.integers(0, len(rows) - 1))
        if kind == "repeat":
            rows.insert(draw(st.integers(i + 1, len(rows))), rows[i][:4] + [draw(st.sampled_from(["1", "nan", "x"]))])
        elif kind == "id":
            rows[i][draw(st.integers(0, 2))] = draw(st.sampled_from(["m x", "m,x", 'm"x', "m=x", ""]))
        elif kind == "width":
            rows[i] = rows[i][:4] if draw(st.booleans()) else rows[i] + ["1"]
        elif kind == "newline":
            j = draw(st.integers(0, 2))
            rows[i][j] = draw(st.sampled_from([rows[i][j] + "\n", rows[i][j][:1] + "\n" + rows[i][j][1:]]))
        else:
            rows[i][-1] = draw(st.sampled_from({
                "malformed": ["abc", "", "1e", "--1"], "nan": ["nan", "NaN", "-nan"],
                "inf": ["inf", "1e999", "-inf"], "negative": ["-1", "-0.5", "-1e-300"]}[kind]))
    text = StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(["task", "model", "train_lang", "target_lang", "score"])
    for row in rows:
        if draw(st.booleans()):
            writer.writerow([])
        writer.writerow(row)
    return ("\ufeff" if draw(st.booleans()) else "") + text.getvalue(), draw(st.sampled_from(["percent", "unit"]))


@st.composite
def goods_files(draw):
    """The text of a goods CSV and up to two injected faults: a malformed,
    NaN, infinite, negative or zero value, a repeated (model, task), a
    hostile id, a row of the wrong width, a quoted newline, or a quote left
    open at the end of the file. Blank lines and a BOM shift nothing."""
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        row = [draw(st.sampled_from(["a", "b", "c"])), draw(st.sampled_from(["g", "h"])),
               draw(st.sampled_from(["ner", "qa"]))]
        if row[0::2] not in [r[0::2] for r in rows]:
            rows.append(row + [draw(st.sampled_from(["1", "0.5", " 7 ", "1e2", "16"])) for _ in range(3)])
    kinds = ["malformed", "nan", "inf", "negative", "repeat", "id", "width", "newline", "quote"]
    tail = ""
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=2)):
        i = draw(st.integers(0, len(rows) - 1))
        if kind == "repeat":
            rows.insert(draw(st.integers(i + 1, len(rows))), rows[i][:3] + [draw(st.sampled_from(["1", "nan", "x"]))] * 3)
        elif kind == "id":
            rows[i][draw(st.integers(0, 2))] = draw(st.sampled_from(["m x", "m,x", 'm"x', "m=x", ""]))
        elif kind == "width":
            rows[i] = rows[i][:5] if draw(st.booleans()) else rows[i] + ["1"]
        elif kind == "newline":
            j = draw(st.integers(0, 2))
            rows[i][j] = draw(st.sampled_from([rows[i][j] + "\n", rows[i][j][:1] + "\n" + rows[i][j][1:]]))
        elif kind == "quote":
            tail = 'z,g,ner,1,"1\n'
        else:
            rows[i][draw(st.integers(3, min(5, len(rows[i]) - 1)))] = draw(st.sampled_from({
                "malformed": ["abc", "", "1e", "--1"], "nan": ["nan", "NaN", "-nan"],
                "inf": ["inf", "1e999", "-inf"], "negative": ["-1", "0", "-1e-300"]}[kind]))
    text = StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(["model", "group", "task", "throughput", "memory_gb", "perf"])
    for row in rows:
        if draw(st.booleans()):
            writer.writerow([])
        writer.writerow(row)
    return ("\ufeff" if draw(st.booleans()) else "") + text.getvalue() + tail


class TestGoodsLoaderMatchesPerRowLoop:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(goods_files())
    def test_same_rows_or_same_first_fault(self, tmp_path, text):
        """One pass into columns, and the table's rule, report the fault the
        per-row ModelGoods loop reports first: the same file:line and
        message."""
        p = tmp_path / "goods.csv"
        p.write_text(text, encoding="utf-8")

        def outcome(load):
            try:
                table = load()
                return "ok", repr(table), [value.hex() for value in table.performance]  # keeps the sign of a zero
            except InputError as exc:
                return "error", str(exc)

        assert outcome(lambda: GoodsTable.read_csv(p)) == outcome(lambda: goods_table(reference_load_goods(p)))


class TestPerformanceLoaderMatchesPerRowLoop:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(performance_files())
    def test_same_cells_or_same_first_fault(self, tmp_path, case):
        """One pass into columns, and the table's vectorised rule, report
        the fault the per-row loop reports first: the same file:line and
        message."""
        text, scale = case
        p = tmp_path / "perf.csv"
        p.write_text(text, encoding="utf-8")

        def outcome(load):
            try:
                return "ok", repr(list(load().items()))  # repr keeps the sign of a zero
            except InputError as exc:
                return "error", str(exc)

        assert outcome(lambda: table_cells(load_performance(p, scale))) == outcome(
            lambda: reference_load_performance(p, scale))

    @pytest.mark.parametrize("rows, message", [
        (["ner,m,en,hi,nan", "ner,m x,en,bn,1"], "P:2: number must not be NaN"),
        (["ner,m,en,hi,1", "ner,m,en,hi,abc"], "P:3: duplicate row for ('ner', 'm', 'en', 'hi')"),
        (["ner,m,en,hi,1", "ner,m,en,bn,-1", "ner,m,en,ta"], "P:3: score must be finite and non-negative, got -1"),
        (["ner,m,en,hi,1", "ner,m,en,hi,inf"], "P:3: duplicate row for ('ner', 'm', 'en', 'hi')"),
    ], ids=["bad-score-before-bad-id", "repeat-before-malformed", "bad-score-before-width", "repeat-before-inf"])
    def test_rule_faults_keep_their_place_in_file_order(self, tmp_path, rows, message):
        p = tmp_path / "perf.csv"
        p.write_text("task,model,train_lang,target_lang,score\n" + "\n".join(rows) + "\n")
        with pytest.raises(InputError) as info:
            load_performance(p)
        assert str(info.value).replace(str(p), "P") == message


HUGE = '"' + "x" * 200_000 + '"'  # past the csv module's field size limit


@pytest.mark.parametrize("kind, rows", [
    ("perf", ["ner,m,en,hi,1", f"ner,m,en,bn,{HUGE}"]),
    ("perf", ["ner,m,en,hi,1", "ner,m,en,bn,-1", f"ner,m,en,ta,{HUGE}"]),
    ("perf", ["ner,m,en,hi,1", "ner,m,en,hi,2", "ner,m,en,ta,\udcff"]),
    ("perf", ["ner,m,en,hi,1", "ner,m,en,ta,\udcff"]),
    ("goods", ["a,g,ner,1,1,1", f"b,g,ner,1,1,{HUGE}"]),
    ("goods", ["a,g,ner,1,1,1", "a,g,ner,1,1,1", f"b,g,ner,1,1,{HUGE}"]),
    ("goods", ["a,g,ner,1,1,1", "b,g,ner,1,0,1", "c,g,ner,1,1,\udcff"]),
    ("goods", ["a,g,ner,1,1,1", "c,g,ner,1,1,\udcff"]),
    ("trace", ["1,bn,0.5,0.6,0.2", f"2,bn,0.5,0.6,{HUGE}"]),
    ("trace", ["1,bn,0.5,0.6,0.2", "2,bn,0.5,x,0.2", f"3,bn,0.5,0.6,{HUGE}"]),
    ("trace", ["1,bn,0.5,0.6,0.2", "2,bn,0.5,0.6", "3,bn,0.5,0.6,\udcff"]),
    ("trace", ["1,bn,0.5,0.6,0.2", "2,bn,0.5,0.6,0.1\udcff"]),
], ids=["perf-csv", "perf-rule-before-csv", "perf-rule-then-bytes", "perf-bytes",
        "goods-csv", "goods-repeat-before-csv", "goods-rule-then-bytes", "goods-bytes",
        "trace-csv", "trace-number-before-csv", "trace-width-then-bytes", "trace-bytes"])
def test_reader_faults_keep_their_place_in_file_order(tmp_path, kind, rows):
    """A cell past the csv field size limit, or bytes that are not UTF-8,
    are reported where the per-row readers report them, after the faults
    of the rows before them."""
    from langdei.commands.report import count_trace

    header = {"perf": "task,model,train_lang,target_lang,score", "goods": "model,group,task,throughput,memory_gb,perf",
              "trace": "step,source,marginal_gain,gm,gini"}[kind]
    p = tmp_path / "t.csv"
    p.write_bytes("\n".join([header, *rows, ""]).encode("utf-8", "surrogateescape"))
    loaders = {"perf": (load_performance, reference_load_performance), "goods": (GoodsTable.read_csv, reference_load_goods),
               "trace": (count_trace, load_trace)}[kind]
    messages = []
    for load in loaders:
        with pytest.raises(InputError) as info:
            load(p)
        messages.append(str(info.value).replace(str(p), "P"))
    assert messages[0] == messages[1]
    assert messages[0].startswith(("P:", "P: not UTF-8"))
