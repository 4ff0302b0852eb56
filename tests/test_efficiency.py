"""Unit tests for the goods table, substitution rates and efficiency scoring."""

import contextlib
import io
import os
import tempfile
from array import array
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _props import ModelGoods, goods_table, mrs_sequence, reference_run_efficiency
from langdei import cli
from langdei.commands import efficiency as efficiency_command
from langdei.efficiency import (
    AmrsTable,
    EfficiencyConfig,
    GoodsTable,
    _rates,
    amrs,
    compute_amrs_table,
    efficiency_score,
    memory_saved,
)
from langdei.errors import ComputationError, InputError
from langdei.io import bundled_path

CONFIG = EfficiencyConfig()


def goods(model="m", group="g", task="t", tp=10.0, mem=1.0, perf=60.0):
    return ModelGoods(model, group, task, tp, mem, perf)


def rates_of(rows, config=CONFIG):
    """compute_amrs_table of ``ModelGoods`` rows, through their table."""
    table = goods_table(rows)
    return compute_amrs_table(table, memory_saved(table, config))


def score_of(row, amrs_table, config=CONFIG):
    """The efficiency score of one ``ModelGoods`` row."""
    table = goods_table([row])
    return efficiency_score(table, memory_saved(table, config), amrs_table, config)[0]


class TestMemorySaved:
    def test_small_footprint(self):
        assert memory_saved(goods_table([goods(mem=0.9)]), CONFIG) == [pytest.approx(15.1)]

    def test_full_footprint(self):
        assert memory_saved(goods_table([goods(mem=16.0)]), CONFIG) == [0.0]

    def test_large_model(self):
        assert memory_saved(goods_table([goods(mem=2.1)]), CONFIG) == [pytest.approx(13.9)]

    def test_above_ceiling_rejected(self):
        # memory_saved raises for a row above the ceiling, before the scores
        # and the rates that would use its headroom.
        table = AmrsTable({("g", "t", "throughput"): 2.0, ("g", "t", "memory"): 0.5})
        with pytest.raises(InputError, match="^model 'm' uses 16.5 GB on task 't', above the 16.0 GB ceiling$"):
            score_of(goods(mem=16.5), table)
        with pytest.raises(InputError, match="'b' uses 16.5 GB") as info:
            rates_of([goods("a", tp=5, perf=10), goods("b", mem=16.5, perf=20)])
        assert info.value.row == {"model": "b", "group": "g", "task": "t"}

    def test_custom_ceiling(self):
        assert memory_saved(goods_table([goods(mem=2.0)]), EfficiencyConfig(max_memory=8.0)) == [6.0]


class TestMrsSequence:
    """The pairwise rates of rows in ascending-performance order
    (``_rates``), and the ordering and group checks of the table."""

    def test_two_models_hand_value(self):
        table = goods_table([goods("a", tp=10, perf=60), goods("b", tp=20, perf=80)])
        assert _rates(table, [0, 1], table.throughput) == [pytest.approx(0.5)]

    def test_identical_throughput_gives_zero(self):
        table = goods_table([goods("a", tp=10, perf=60), goods("b", tp=10, perf=80)])
        assert _rates(table, [0, 1], table.throughput) == [0.0]

    def test_collinear_triple(self):
        table = goods_table([
            goods("a", mem=15.0, perf=10),
            goods("b", mem=14.0, perf=20),
            goods("c", mem=13.0, perf=30),
        ])
        assert _rates(table, [0, 1, 2], memory_saved(table, CONFIG)) == [pytest.approx(0.1), pytest.approx(0.1)]

    def test_ordering_is_by_ascending_performance(self):
        trio = [goods("hi", tp=5, mem=1, perf=90), goods("lo", tp=20, mem=2, perf=10), goods("mid", tp=10, mem=3, perf=50)]
        expected = [abs(10 - 20) / abs(50 - 10), abs(5 - 10) / abs(90 - 50)]
        assert rates_of(trio).get("g", "t", "throughput") == pytest.approx(sum(expected) / 2)
        # input order must not matter
        assert rates_of(trio[::-1]) == rates_of(trio)

    def test_singleton_rejected(self):
        with pytest.raises(InputError, match="single model") as info:
            rates_of([goods()])
        assert info.value.row == {"group": "g", "task": "t"}

    def test_equal_performance_names_pair(self):
        trio = [goods("a", perf=60), goods("b", perf=10), goods("c", perf=60)]
        with pytest.raises(InputError, match=r"^\(g, t\): models 'a' and 'c' have equal performance \(60.0\)") as info:
            rates_of(trio)
        assert info.value.row == {"model": "c", "group": "g", "task": "t"}

    def test_zero_average_rate_names_its_metric(self):
        pair = [goods("a", tp=10, mem=1, perf=60), goods("b", tp=20, mem=1, perf=70)]
        with pytest.raises(ComputationError, match=r"^\(g, t, memory\): average substitution rate is 0;") as info:
            rates_of(pair)
        assert info.value.row == {"group": "g", "task": "t"}


class TestAmrs:
    def test_singleton_mean(self):
        assert amrs([0.5]) == 0.5

    def test_flat_mean(self):
        assert amrs([0.1, 0.1]) == pytest.approx(0.1)

    def test_table_listed_pairing_mean(self):
        # Rates from pairing the three regional models in listed order.
        assert amrs([0.0357, 4.516]) == pytest.approx(2.276, abs=5e-4)

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            amrs([])

    def test_zero_mean_is_flagged(self):
        with pytest.raises(ComputationError, match="divide by zero"):
            amrs([0.0, 0.0])

    def test_mean_adds_left_to_right_on_every_python(self):
        # The 1.0 is lost next to 1e16, so the total is 0.0; the built-in
        # sum of Python 3.12 and later would keep it and give 2.0 / 13.
        with pytest.raises(ComputationError, match="divide by zero"):
            amrs([0.1] * 10 + [1e16, 1.0, -1e16])


class TestComputeAmrsTable:
    def test_bundled_regional_ner_rates(self, bundle):
        # Hand-derived from the bundled goods, ascending-performance pairing:
        # |22.6-9.8|/|41.3-71.8| and |9.8-23.8|/|71.8-74.9|, averaged.
        table = compute_amrs_table(bundle.goods, memory_saved(bundle.goods, CONFIG))
        expected = (12.8 / 30.5 + 14.0 / 3.1) / 2.0
        assert table.get("regional", "ner", "throughput") == pytest.approx(expected, abs=1e-12)
        assert table.get("regional", "ner", "throughput") == pytest.approx(2.4679, abs=5e-5)

    def test_two_model_group_equals_single_mrs(self):
        pair = [goods("a", tp=10, mem=0.5, perf=60), goods("b", tp=20, mem=2.0, perf=80)]
        table = rates_of(pair)
        assert table.get("g", "t", "throughput") == mrs_sequence(pair, "throughput")[0]
        assert table.get("g", "t", "memory") == mrs_sequence(pair, "memory")[0]

    def test_scaling_performance_scales_rates_inversely(self):
        trio = [goods("a", tp=22, mem=1.0, perf=40), goods("b", tp=9, mem=2.0, perf=70), goods("c", tp=24, mem=0.5, perf=75)]
        k = 0.37
        scaled = [
            ModelGoods(g.model_id, g.group, g.task_id, g.throughput, g.memory_gb, g.performance * k)
            for g in trio
        ]
        base = rates_of(trio)
        after = rates_of(scaled)
        for key, value in base.entries.items():
            assert after.entries[key] == pytest.approx(value / k, rel=1e-12)

    def test_singleton_group_rejected(self):
        with pytest.raises(InputError, match="lonely"):
            rates_of([goods(group="lonely")])


class TestEfficiencyScore:
    TABLE = AmrsTable({("g", "t", "throughput"): 2.0, ("g", "t", "memory"): 0.5})

    def test_perf_only_weights(self):
        config = EfficiencyConfig(w_perf=1.0, w_throughput=0.0, w_memory=0.0)
        assert score_of(goods(perf=77.6), self.TABLE, config) == pytest.approx(77.6)

    def test_hand_evaluated_weighted_sum(self):
        config = EfficiencyConfig(max_memory=9.0)  # memory saved = 8
        score = score_of(goods(tp=10, mem=1.0, perf=60), self.TABLE, config)
        assert score == pytest.approx(0.5 * 60 + 0.25 * 5 + 0.25 * 16)

    def test_ratio_invariance(self):
        doubled = AmrsTable({("g", "t", "throughput"): 4.0, ("g", "t", "memory"): 0.5})
        base = score_of(goods(tp=10), self.TABLE)
        after = score_of(goods(tp=20), doubled)
        assert after == pytest.approx(base)

    def test_monotone_in_every_good(self):
        base = score_of(goods(), self.TABLE)
        assert score_of(goods(perf=61), self.TABLE) > base
        assert score_of(goods(tp=11), self.TABLE) > base
        assert score_of(goods(mem=0.5), self.TABLE) > base

    def test_missing_rate_rejected(self):
        with pytest.raises(InputError, match="other"):
            score_of(goods(task="other"), self.TABLE)

    def test_unit_coherence_under_performance_rescale(self):
        # Scaling a group's performances by k scales rates by 1/k, so each
        # good's converted contribution scales by k, like performance itself.
        trio = [
            goods("a", tp=22, mem=0.4, perf=40),
            goods("b", tp=9, mem=2.0, perf=70),
            goods("c", tp=24, mem=0.9, perf=75),
        ]
        k = 2.5
        scaled = [
            ModelGoods(g.model_id, g.group, g.task_id, g.throughput, g.memory_gb, g.performance * k)
            for g in trio
        ]
        base_table = rates_of(trio)
        scaled_table = rates_of(scaled)
        for g, sg in zip(trio, scaled):
            base_tp_units = g.throughput / base_table.get("g", "t", "throughput")
            scaled_tp_units = sg.throughput / scaled_table.get("g", "t", "throughput")
            assert scaled_tp_units == pytest.approx(base_tp_units * k, rel=1e-12)


class TestConfigAndTables:
    def test_weights_not_summing_to_one_warn(self):
        with pytest.warns(UserWarning, match="sum") as caught:
            EfficiencyConfig(w_perf=0.5, w_throughput=0.5, w_memory=0.5)
        # The warning points at the line that built the config, not into
        # the generated __init__.
        assert [w.filename for w in caught] == [__file__]

    def test_negative_weight_rejected(self):
        with pytest.raises(InputError):
            EfficiencyConfig(w_perf=-0.1)

    @pytest.mark.parametrize("max_memory", [0.0, -1.0, float("nan"), float("inf")])
    def test_max_memory_must_be_positive_and_finite(self, max_memory):
        with pytest.raises(InputError, match="max memory must be positive and finite"):
            EfficiencyConfig(max_memory=max_memory)

    def test_amrs_table_rejects_nonpositive(self):
        with pytest.raises(InputError):
            AmrsTable({("g", "t", "throughput"): 0.0})

    def test_goods_validation(self):
        with pytest.raises(InputError):
            table_of(("m", "g", "t", 0.0, 1.0, 10.0))
        with pytest.raises(InputError):
            table_of(("m", "g", "t", 1.0, 0.0, 10.0))
        with pytest.raises(InputError):
            table_of(("m", "g", "t", 1.0, 1.0, -1.0))


def table_of(*rows):
    """The GoodsTable of (model, group, task, throughput, memory, perf) rows."""
    model, group, task, tp, mem, perf = zip(*rows) if rows else ((),) * 6
    return GoodsTable(model, group, task, array("d", tp), array("d", mem), array("d", perf))


class TestGoodsTable:
    """The goods rule: the first row that breaks it, and of one row its
    repeat, then its ids, then its values in column order."""

    @pytest.mark.parametrize("row, message", [
        (("m", "g", "t", 1.0, 1.0, 1.0), "duplicate goods row for model 'm', task 't'"),
        (("n", "g x", "t", 1.0, 1.0, 1.0), "invalid group: 'g x'"),
        (("n", "g", "", 1.0, 1.0, 1.0), "invalid task id: ''"),
        (("n", "g", "t", float("nan"), 1.0, 1.0), "throughput for 'n' must be positive, got nan"),
        (("n", "g", "t", 1.0, float("inf"), 1.0), "memory for 'n' must be positive, got inf"),
        (("n", "g", "t", 1.0, 1.0, -0.5), "performance for 'n' must be non-negative, got -0.5"),
    ], ids=["repeat", "group", "task", "throughput", "memory", "performance"])
    def test_first_fault(self, row, message):
        with pytest.raises(InputError, match=message):
            table_of(("m", "g", "t", 1.0, 1.0, 1.0), ("k", "g", "t", 1.0, 1.0, 1.0), row, ("z z", "g", "t", 0.0, 1.0, 1.0))

    def test_repeat_before_ids_and_values_of_its_row(self):
        with pytest.raises(InputError) as info:
            table_of(("m", "g", "t", 1.0, 1.0, 1.0), ("m", "g x", "t", 0.0, 1.0, 1.0))
        assert str(info.value) == "duplicate goods row for model 'm', task 't'"

    def test_ids_before_values(self):
        with pytest.raises(InputError, match="invalid model id"):
            table_of(("m x", "g", "t", 0.0, 1.0, 1.0))

    def test_same_model_on_two_tasks_and_empty_table(self):
        assert len(table_of(("m", "g", "t", 1.0, 1.0, 0.0), ("m", "g", "u", 1e308, 1e308, 1e308)).model) == 2
        assert table_of().model == ()

    def test_columns_of_one_length(self):
        with pytest.raises(InputError, match="one length"):
            GoodsTable(("m",), ("g",), ("t",), array("d", [1.0]), array("d"), array("d", [1.0]))


def test_bundled_pipeline_equals_per_row_oracle(bundle):
    """Rates, scores and headroom of the bundled goods are the per-row
    pipeline's, bit for bit."""
    from _props import compute_amrs_table as reference_rates, efficiency_score as reference_score
    from _props import memory_saved as reference_saved, reference_load_goods

    rows = reference_load_goods(bundled_path("goods.csv"))
    assert bundle.goods == goods_table(rows)
    config = EfficiencyConfig(max_memory=3.5, w_perf=0.4, w_throughput=0.35, w_memory=0.25)
    rows = [g for g in rows if g.memory_gb <= 3.5]
    table = goods_table(rows)
    saved = memory_saved(table, config)
    rates = compute_amrs_table(table, saved)
    assert rates == reference_rates(rows, config)
    assert saved == [reference_saved(g, config) for g in rows]
    assert efficiency_score(table, saved, rates, config) == [reference_score(g, rates, config) for g in rows]


# ---------------------------------------------------------------------------
# `langdei efficiency` against the per-row pipeline (tests/_props.py), on
# generated goods files with up to two injected faults
# ---------------------------------------------------------------------------

HEADER = "model,group,task,throughput,memory_gb,perf"
FAULTS = ("repeat", "value", "id", "memory", "single", "equal", "width")


@st.composite
def efficiency_runs(draw):
    """(goods CSV text, override CSV text or None, extra argv): 1-3 groups
    on 1-2 tasks with 2-4 models each, then up to two faults of FAULTS, and
    an override that may lack a rate."""
    numbers = st.one_of(st.sampled_from([" 3 ", "1e2"]), st.integers(1, 400).map(lambda v: str(v / 4)))
    memory = st.integers(1, 79).map(lambda v: str(v / 10))
    rows = []
    for g in range(draw(st.integers(1, 3))):
        for task in draw(st.sampled_from([["t"], ["t", "u"]])):
            perfs = draw(st.lists(st.sampled_from(["10", "20.5", "30", "45", "60", "0"]), min_size=2, max_size=4,
                                  unique=True))
            rows += [[f"g{g}m{m}", f"g{g}", task, draw(numbers), draw(memory), perf] for m, perf in enumerate(perfs)]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(rows) - 1))
        fault = draw(st.sampled_from(FAULTS))
        if fault == "repeat":
            j = draw(st.integers(0, len(rows) - 1))
            rows[i][0], rows[i][2] = rows[j][0], rows[j][2]
        elif fault == "value":
            rows[i][draw(st.integers(3, 5))] = draw(st.sampled_from(["abc", "nan", "inf", "-inf", "-1", "0", ""]))
        elif fault == "id":
            rows[i][draw(st.integers(0, 2))] = draw(st.sampled_from(["m x", "", "a=b", "q\"q", " g0m0 "]))
        elif fault == "memory":
            rows[i][4] = "9"
        elif fault == "single":
            rows.append(["solo", "lonely", "t", "1", "1", "50"])
        elif fault == "equal":
            rows[i][5] = rows[i - 1][5]
        else:
            rows[i].append("extra")
    text = "\n".join([HEADER, *(",".join(row) for row in rows)]) + "\n"
    override = None
    if draw(st.booleans()):
        keys = sorted({(row[1].strip(), row[2].strip(), metric) for row in rows if len(row) > 2
                       for metric in ("throughput", "memory")})
        kept = [key for key in keys if draw(st.integers(0, 9))]  # about one in ten rates missing
        override = "\n".join(["group,task,metric,amrs", *(f"{g},{t},{m},{draw(numbers).strip()}" for g, t, m in kept)])
    extra = draw(st.sampled_from([[], ["--max-memory", "8"], ["--weights", "0.4,0.4,0.4"], ["--max-memory", "1.5"]]))
    return text, override + "\n" if override is not None else None, extra


def run_efficiency(argv, directory, command=None):
    """(exit code, stdout, stderr lines, output bytes) of ``cli.main(argv)``
    in ``directory``, with ``command`` standing in for the subcommand's run."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                mock.patch.object(efficiency_command, "run", command or efficiency_command.run):
            code = cli.main(argv)
        written = {}
        for name in ("eff.csv", "amrs.csv"):
            path = Path(directory) / name
            written[name] = path.read_bytes() if path.exists() else None
            path.unlink(missing_ok=True)
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue().splitlines(), written


@settings(max_examples=300, deadline=None)
@given(efficiency_runs())
def test_cli_efficiency_equals_per_row_oracle(run):
    """Exit code, messages and bytes of ``langdei efficiency`` are those of
    the per-row ModelGoods pipeline, computed or with an override, on valid
    goods and on goods with a repeated (model, task), a malformed, NaN, inf
    or negative value, a bad id, memory above the ceiling, a single-model
    group, equal performance in a group, a row of 7 fields, or a rate
    missing from the override."""
    text, override, extra = run
    with tempfile.TemporaryDirectory() as directory:
        Path(directory, "goods.csv").write_text(text)
        argv = ["efficiency", "--goods", "goods.csv", "--out", "eff.csv", *extra]
        if override is None:
            argv += ["--amrs-out", "amrs.csv"]
        else:
            Path(directory, "override.csv").write_text(override)
            argv += ["--amrs-override", "override.csv"]
        assert run_efficiency(argv, directory) == run_efficiency(argv, directory, reference_run_efficiency)


VALID = ["g0m0,g0,t,10,1.5,30", "g0m1,g0,t,20,2.5,60", "g1m0,g1,t,5,0.5,20", "g1m1,g1,t,7.5,1,45"]


@pytest.mark.parametrize("rows, extra, override", [
    (VALID, [], None),
    (VALID + ["g0m0,g2,t,1,1,1"], [], None),
    (VALID[:1] + ["g0m1,g0,t,abc,2.5,60"] + VALID[2:], [], None),
    (VALID[:1] + ["g0m1,g0,t,20,nan,60"] + VALID[2:], [], None),
    (VALID[:1] + ["g0m1,g0,t,inf,2.5,60"] + VALID[2:], [], None),
    (VALID[:1] + ["g0m1,g0,t,20,2.5,-1"] + VALID[2:], [], None),
    (VALID[:1] + ["g0m1,g 0,t,20,2.5,60"] + VALID[2:], [], None),
    (VALID, ["--max-memory", "2"], None),
    (VALID + ["solo,lonely,t,1,1,1"], [], None),
    (VALID[:1] + ["g0m1,g0,t,20,2.5,30"] + VALID[2:], [], None),
    (VALID + ["g1m1,g1,t,nan,1,1"], [], None),
    (VALID, [], ["g0,t,throughput,2", "g0,t,memory,0.5", "g1,t,throughput,1.5"]),
    (VALID, ["--max-memory", "1.2"], ["g0,t,throughput,2", "g0,t,memory,0.5", "g1,t,throughput,1.5", "g1,t,memory,3"]),
], ids=["valid", "repeat", "malformed", "nan", "inf", "negative", "bad-id", "above-ceiling", "single-model",
        "equal-performance", "repeat-before-nan", "missing-rate", "override-above-ceiling"])
def test_cli_efficiency_fault_equals_per_row_oracle(rows, extra, override, tmp_path):
    """One file per fault kind of the property above, so that each is run
    on every pass."""
    (tmp_path / "goods.csv").write_text("\n".join([HEADER, *rows]) + "\n")
    argv = ["efficiency", "--goods", "goods.csv", "--out", "eff.csv", *extra]
    if override is None:
        argv += ["--amrs-out", "amrs.csv"]
    else:
        (tmp_path / "override.csv").write_text("\n".join(["group,task,metric,amrs", *override]) + "\n")
        argv += ["--amrs-override", "override.csv"]
    outcome = run_efficiency(argv, tmp_path)
    assert outcome == run_efficiency(argv, tmp_path, reference_run_efficiency)
    assert outcome[0] == (0 if rows is VALID and extra == [] and override is None else 2)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_efficiency_bytes_do_not_depend_on_row_order(data):
    """Shuffling a valid goods file's data rows leaves the efficiency and
    AMRS bytes unchanged: each group's rates take its rows in performance
    order, and the efficiency rows are sorted."""
    rows = []
    for g in range(data.draw(st.integers(1, 3))):
        for task in data.draw(st.sampled_from([["t"], ["t", "u"]])):
            n = data.draw(st.integers(2, 4))

            def distinct(hi):  # distinct values in a group, so that no rate is 0 or undefined
                return data.draw(st.lists(st.integers(1, hi), min_size=n, max_size=n, unique=True))

            rows += [f"g{g}m{m},g{g},{task},{tp / 4},{mem / 10},{perf / 4}"
                     for m, (tp, mem, perf) in enumerate(zip(distinct(400), distinct(150), distinct(400)))]
    argv = ["efficiency", "--goods", "goods.csv", "--out", "eff.csv", "--amrs-out", "amrs.csv"]
    outcomes = []
    with tempfile.TemporaryDirectory() as directory:
        for order in (rows, data.draw(st.permutations(rows))):
            Path(directory, "goods.csv").write_text("\n".join([HEADER, *order]) + "\n")
            outcomes.append(run_efficiency(argv, directory))
    assert outcomes[0][0] == 0
    assert outcomes[0] == outcomes[1]
