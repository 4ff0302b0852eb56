"""Unit tests for substitution rates and efficiency scoring."""

import pytest

from langdei.efficiency import (
    AmrsTable,
    EfficiencyConfig,
    ModelGoods,
    amrs,
    compute_amrs_table,
    efficiency_score,
    memory_saved,
    mrs_sequence,
)
from langdei.errors import ComputationError, InputError


def goods(model="m", group="g", task="t", tp=10.0, mem=1.0, perf=60.0):
    return ModelGoods(model, group, task, tp, mem, perf)


class TestMemorySaved:
    def test_small_footprint(self):
        assert memory_saved(goods(mem=0.9)) == pytest.approx(15.1)

    def test_full_footprint(self):
        assert memory_saved(goods(mem=16.0)) == 0.0

    def test_large_model(self):
        assert memory_saved(goods(mem=2.1)) == pytest.approx(13.9)

    def test_above_ceiling_rejected(self):
        with pytest.raises(InputError):
            memory_saved(goods(mem=16.5))

    def test_custom_ceiling(self):
        assert memory_saved(goods(mem=2.0), EfficiencyConfig(max_memory=8.0)) == 6.0


class TestMrsSequence:
    def test_two_models_hand_value(self):
        pair = [goods("a", tp=10, perf=60), goods("b", tp=20, perf=80)]
        assert mrs_sequence(pair, "throughput") == [pytest.approx(0.5)]

    def test_identical_throughput_gives_zero(self):
        pair = [goods("a", tp=10, perf=60), goods("b", tp=10, perf=80)]
        assert mrs_sequence(pair, "throughput") == [0.0]

    def test_collinear_triple(self):
        triple = [
            goods("a", mem=15.0, perf=10),
            goods("b", mem=14.0, perf=20),
            goods("c", mem=13.0, perf=30),
        ]
        assert mrs_sequence(triple, "memory") == [pytest.approx(0.1), pytest.approx(0.1)]

    def test_ordering_is_by_ascending_performance(self):
        trio = [goods("hi", tp=5, perf=90), goods("lo", tp=20, perf=10), goods("mid", tp=10, perf=50)]
        expected = [abs(10 - 20) / abs(50 - 10), abs(5 - 10) / abs(90 - 50)]
        assert mrs_sequence(trio, "throughput") == [pytest.approx(v) for v in expected]
        # input order must not matter
        assert mrs_sequence(trio[::-1], "throughput") == mrs_sequence(trio, "throughput")

    def test_singleton_rejected(self):
        with pytest.raises(InputError):
            mrs_sequence([goods()], "throughput")

    def test_equal_performance_names_pair(self):
        pair = [goods("a", perf=60), goods("b", perf=60)]
        with pytest.raises(InputError, match="'a' and 'b'"):
            mrs_sequence(pair, "throughput")


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
        table = compute_amrs_table(bundle.goods)
        expected = (12.8 / 30.5 + 14.0 / 3.1) / 2.0
        assert table.get("regional", "ner", "throughput") == pytest.approx(expected, abs=1e-12)
        assert table.get("regional", "ner", "throughput") == pytest.approx(2.4679, abs=5e-5)

    def test_two_model_group_equals_single_mrs(self):
        pair = [goods("a", tp=10, mem=0.5, perf=60), goods("b", tp=20, mem=2.0, perf=80)]
        table = compute_amrs_table(pair)
        assert table.get("g", "t", "throughput") == mrs_sequence(pair, "throughput")[0]
        assert table.get("g", "t", "memory") == mrs_sequence(pair, "memory")[0]

    def test_scaling_performance_scales_rates_inversely(self):
        trio = [goods("a", tp=22, mem=1.0, perf=40), goods("b", tp=9, mem=2.0, perf=70), goods("c", tp=24, mem=0.5, perf=75)]
        k = 0.37
        scaled = [
            ModelGoods(g.model_id, g.group, g.task_id, g.throughput, g.memory_gb, g.performance * k)
            for g in trio
        ]
        base = compute_amrs_table(trio)
        after = compute_amrs_table(scaled)
        for key, value in base.entries.items():
            assert after.entries[key] == pytest.approx(value / k, rel=1e-12)

    def test_singleton_group_rejected(self):
        with pytest.raises(InputError, match="lonely"):
            compute_amrs_table([goods(group="lonely")])


class TestEfficiencyScore:
    TABLE = AmrsTable({("g", "t", "throughput"): 2.0, ("g", "t", "memory"): 0.5})

    def test_perf_only_weights(self):
        config = EfficiencyConfig(w_perf=1.0, w_throughput=0.0, w_memory=0.0)
        assert efficiency_score(goods(perf=77.6), self.TABLE, config) == pytest.approx(77.6)

    def test_hand_evaluated_weighted_sum(self):
        config = EfficiencyConfig(max_memory=9.0)  # memory saved = 8
        score = efficiency_score(goods(tp=10, mem=1.0, perf=60), self.TABLE, config)
        assert score == pytest.approx(0.5 * 60 + 0.25 * 5 + 0.25 * 16)

    def test_ratio_invariance(self):
        doubled = AmrsTable({("g", "t", "throughput"): 4.0, ("g", "t", "memory"): 0.5})
        base = efficiency_score(goods(tp=10), self.TABLE)
        after = efficiency_score(goods(tp=20), doubled)
        assert after == pytest.approx(base)

    def test_monotone_in_every_good(self):
        base = efficiency_score(goods(), self.TABLE)
        assert efficiency_score(goods(perf=61), self.TABLE) > base
        assert efficiency_score(goods(tp=11), self.TABLE) > base
        assert efficiency_score(goods(mem=0.5), self.TABLE) > base

    def test_missing_rate_rejected(self):
        with pytest.raises(InputError, match="other"):
            efficiency_score(goods(task="other"), self.TABLE)

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
        base_table = compute_amrs_table(trio)
        scaled_table = compute_amrs_table(scaled)
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
            ModelGoods("m", "g", "t", throughput=0.0, memory_gb=1.0, performance=10.0)
        with pytest.raises(InputError):
            ModelGoods("m", "g", "t", throughput=1.0, memory_gb=0.0, performance=10.0)
        with pytest.raises(InputError):
            ModelGoods("m", "g", "t", throughput=1.0, memory_gb=1.0, performance=-1.0)
