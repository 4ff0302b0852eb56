"""Unit tests for the demand/utility/global-metric/Gini layer."""

import csv
import math

import numpy as np
import pytest

from langdei.errors import ComputationError, InputError
from langdei.io import bundled_path
from langdei.metrics import (
    DEFAULT_UNIVERSE,
    PerformanceTable,
    SpeakerTable,
    TaskSpec,
    dei_scorecard,
    demand,
    gini,
    gini_from_lorenz,
    global_metric,
    lorenz_points,
    utility,
)

from _props import ALL_PROPERTIES, check_oracle_equivalence, gini_mean_abs_difference

NER = TaskSpec("ner", 97.6)


class TestUtility:
    def test_normalizes_by_task_maximum(self):
        assert utility(77.6, NER) == pytest.approx(0.7951, abs=5e-5)

    def test_perfect_score(self):
        assert utility(97.6, NER) == 1.0

    def test_zero_score(self):
        assert utility(0.0, TaskSpec("nli", 92.8)) == 0.0

    def test_above_maximum_clamps_with_warning(self):
        with pytest.warns(UserWarning, match="clamping"):
            assert utility(99.0, NER) == 1.0

    def test_negative_score_rejected(self):
        with pytest.raises(InputError):
            utility(-1.0, NER)

    def test_nonpositive_maximum_rejected(self):
        with pytest.raises(InputError):
            TaskSpec("bad", 0.0)


class TestDemand:
    def test_tau_zero_is_uniform(self):
        weights = demand(SpeakerTable({}), DEFAULT_UNIVERSE, tau=0.0)
        assert all(w == pytest.approx(1 / 23) for w in weights.values())

    def test_tau_one_direct_ratio(self):
        weights = demand(SpeakerTable({"x": 100, "y": 300}), ("x", "y"), tau=1.0)
        assert weights == {"x": pytest.approx(0.25), "y": pytest.approx(0.75)}

    def test_tau_one_bundled_hindi_share(self):
        # Independent oracle: sum the bundled CSV directly.
        with open(bundled_path("speakers.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        total = sum(float(r["speakers_millions"]) for r in rows)
        entries = {r["lang"]: float(r["speakers_millions"]) for r in rows}
        expected = entries["hi"] / total
        weights = demand(SpeakerTable(entries), DEFAULT_UNIVERSE, tau=1.0)
        assert weights["hi"] == pytest.approx(expected, abs=1e-12)
        assert weights["hi"] == pytest.approx(0.4417, abs=5e-5)

    def test_weights_sum_to_one_for_any_tau(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 30))
            langs = tuple(f"l{i}" for i in range(n))
            table = SpeakerTable({lang: float(rng.uniform(0.1, 900)) for lang in langs})
            for tau in (0.0, 0.25, 0.5, 0.75, 1.0):
                weights = demand(table, langs, tau)
                assert abs(sum(weights.values()) - 1.0) <= 1e-12

    def test_missing_speaker_entry_names_language(self):
        with pytest.raises(InputError, match="'y'"):
            demand(SpeakerTable({"x": 10}), ("x", "y"), tau=0.5)

    def test_tau_zero_ignores_missing_entries(self):
        assert demand(SpeakerTable({}), ("x", "y"), tau=0.0) == {"x": 0.5, "y": 0.5}

    def test_empty_universe_rejected(self):
        with pytest.raises(InputError):
            demand(SpeakerTable({}), (), tau=0.0)

    def test_tau_out_of_range_rejected(self):
        with pytest.raises(InputError):
            demand(SpeakerTable({"x": 1}), ("x",), tau=1.5)


class TestGlobalMetric:
    def test_perfect_everywhere(self):
        assert global_metric([1.0] * 5, [0.2] * 5) == pytest.approx(1.0)

    def test_no_user_benefits(self):
        assert global_metric([0.0] * 5, [0.2] * 5) == 0.0

    def test_hand_evaluated_weighted_sum(self):
        weights = demand(SpeakerTable({"x": 100, "y": 300}), ("x", "y"), tau=1.0)
        m = global_metric([0.5, 1.0], [weights["x"], weights["y"]])
        assert m == pytest.approx(0.875)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError):
            global_metric([1.0, 0.5], [1.0])

    def test_bounded_by_unit_interval_for_unit_utilities(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 30))
            utilities = rng.uniform(0, 1, size=n)
            raw = rng.uniform(0.01, 1, size=n)
            weights = raw / raw.sum()
            assert 0.0 <= global_metric(utilities, weights) <= 1.0 + 1e-15


class TestGini:
    def test_perfect_equality(self):
        assert gini([5.0, 5.0, 5.0, 5.0]) == 0.0

    def test_small_vector_matches_mean_abs_difference_oracle(self):
        v = np.array([0.0, 1.0, 2.0, 3.0])
        expected = gini_mean_abs_difference(v)  # = 20 / 48
        assert expected == pytest.approx(20 / 48)
        assert gini(v) == pytest.approx(expected, abs=1e-12)

    def test_zeros_plus_equal_positives_closed_form(self):
        v = [0.0] * 20 + [3.7] * 3
        assert gini(v) == pytest.approx(20 / 23, abs=1e-12)

    def test_permutation_invariance(self, rng):
        v = rng.uniform(0, 5, size=17)
        assert gini(v) == gini(v[rng.permutation(17)])

    def test_bounds(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 40))
            v = rng.uniform(0, 10, size=n)
            v[int(rng.integers(0, n))] += 0.1
            assert 0.0 <= gini(v) <= (n - 1) / n + 1e-15

    def test_all_zero_is_an_error(self):
        with pytest.raises(ComputationError):
            gini([0.0, 0.0])

    def test_negative_entry_rejected(self):
        with pytest.raises(InputError):
            gini([1.0, -0.5])

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            gini([])

    @pytest.mark.parametrize("name,check", ALL_PROPERTIES)
    def test_sparsity_property(self, name, check, rng):
        check(rng, 100)

    def test_oracle_equivalence(self, rng):
        check_oracle_equivalence(rng, 200)


class TestLorenz:
    def test_bottom_half_holds_nothing(self):
        assert lorenz_points([0.0, 1.0]) == ((0.0, 0.0), (0.5, 0.0), (1.0, 1.0))

    def test_equality_diagonal(self):
        assert lorenz_points([1.0, 1.0]) == ((0.0, 0.0), (0.5, 0.5), (1.0, 1.0))

    def test_cumulative_shares(self):
        points = lorenz_points([0.0, 1.0, 2.0, 3.0])
        expected = ((0.0, 0.0), (0.25, 0.0), (0.5, 1 / 6), (0.75, 0.5), (1.0, 1.0))
        for got, want in zip(points, expected):
            assert got[0] == pytest.approx(want[0], abs=1e-15)
            assert got[1] == pytest.approx(want[1], abs=1e-15)

    def test_permutation_invariance(self, rng):
        v = rng.uniform(0, 5, size=11)
        assert lorenz_points(v) == lorenz_points(v[rng.permutation(11)])

    def test_curve_lies_on_or_below_diagonal(self, rng):
        for _ in range(100):
            v = rng.uniform(0, 10, size=int(rng.integers(1, 20)))
            v[0] += 0.1
            for x, y in lorenz_points(v):
                assert y <= x + 1e-12

    def test_gini_from_lorenz_equality_diagonal(self):
        assert gini_from_lorenz(((0.0, 0.0), (0.5, 0.5), (1.0, 1.0))) == pytest.approx(0.0)

    def test_gini_from_lorenz_hand_trapezoid(self):
        # Areas: 0 + 0.25, so G = 1 - 2 * 0.25 = 0.5.
        assert gini_from_lorenz(lorenz_points([0.0, 1.0])) == pytest.approx(0.5)

    def test_gini_from_lorenz_matches_discrete_formula(self):
        v = [0.0, 1.0, 2.0, 3.0]
        assert gini_from_lorenz(lorenz_points(v)) == pytest.approx(gini(v), abs=1e-12)

    def test_malformed_curves_rejected(self):
        with pytest.raises(InputError):
            gini_from_lorenz(((0.1, 0.0), (1.0, 1.0)))
        with pytest.raises(InputError):
            gini_from_lorenz(((0.0, 0.0), (0.5, 0.6), (1.0, 0.5), (1.0, 1.0)))
        with pytest.raises(InputError):
            gini_from_lorenz(((0.0, 0.0),))


def _table(rows):
    return PerformanceTable(rows)


class TestScorecard:
    SPEAKERS = SpeakerTable({lang: 10.0 * (i + 1) for i, lang in enumerate(DEFAULT_UNIVERSE)})

    def test_single_perfect_language_tau_zero(self):
        perf = _table({("ner", "m", "en", "hi"): 97.6})
        (row,) = dei_scorecard(perf, self.SPEAKERS, [NER], tau=0.0)
        assert row.m_tau == pytest.approx(1 / 23, abs=1e-12)
        assert row.gini_coeff == pytest.approx(22 / 23, abs=1e-12)

    def test_perfect_scores_everywhere(self):
        perf = _table({("ner", "m", "en", lang): 97.6 for lang in DEFAULT_UNIVERSE})
        (row,) = dei_scorecard(perf, self.SPEAKERS, [NER], tau=1.0)
        assert row.m_tau == pytest.approx(1.0)
        assert row.gini_coeff == pytest.approx(0.0, abs=1e-12)

    def test_ner_structural_row(self):
        tested = ("bn", "en", "gu", "hi", "ml", "mr", "pa", "ta", "te", "ur")
        perf = _table({("ner", "m", "en", lang): 77.6 for lang in tested})
        (row,) = dei_scorecard(perf, self.SPEAKERS, [NER], tau=0.0)
        assert row.gini_coeff == pytest.approx(13 / 23, abs=1e-12)
        assert row.tested == 10
        # The row carries the universe-ordered utilities its numbers came from.
        assert row.utilities == tuple(77.6 / 97.6 if lang in tested else 0.0 for lang in DEFAULT_UNIVERSE)
        assert gini(row.utilities) == row.gini_coeff

    def test_tested_only_mode_drops_zero_fill(self):
        tested = ("bn", "en", "hi")
        perf = _table({("ner", "m", "en", lang): 77.6 for lang in tested})
        (row,) = dei_scorecard(perf, self.SPEAKERS, [NER], tau=0.0, tested_only=True)
        assert row.universe_size == 3
        assert row.gini_coeff == pytest.approx(0.0, abs=1e-12)
        assert row.m_tau == pytest.approx(77.6 / 97.6)

    def test_unknown_task_rejected(self):
        perf = _table({("pos", "m", "en", "hi"): 50.0})
        with pytest.raises(InputError, match="pos"):
            dei_scorecard(perf, self.SPEAKERS, [NER], tau=0.0)

    def test_unknown_language_rejected(self):
        perf = _table({("ner", "m", "en", "zz"): 50.0})
        with pytest.raises(InputError, match="zz"):
            dei_scorecard(perf, self.SPEAKERS, [NER], tau=0.0)

    def test_scorecard_invariant_to_joint_rescaling(self, rng):
        tested = ("bn", "en", "gu", "hi", "ta")
        scores = {("ner", "m", "en", lang): float(rng.uniform(10, 90)) for lang in tested}
        k = float(rng.uniform(0.05, 1.0))
        base = dei_scorecard(_table(scores), self.SPEAKERS, [NER], tau=1.0)
        scaled_scores = {key: s * k for key, s in scores.items()}
        scaled_task = TaskSpec("ner", 97.6 * k)
        scaled = dei_scorecard(_table(scaled_scores), self.SPEAKERS, [scaled_task], tau=1.0)
        assert scaled[0].m_tau == pytest.approx(base[0].m_tau, abs=1e-12)
        assert scaled[0].gini_coeff == pytest.approx(base[0].gini_coeff, abs=1e-12)

    def test_all_zero_scores_propagate_gini_error(self):
        perf = _table({("ner", "m", "en", "hi"): 0.0})
        with pytest.raises(ComputationError):
            dei_scorecard(perf, self.SPEAKERS, [NER], tau=0.0)

    def test_rows_sorted_and_grouped(self):
        perf = _table(
            {
                ("ner", "b", "en", "hi"): 50.0,
                ("ner", "a", "en", "hi"): 50.0,
                ("ner", "a", "en", "ta"): 60.0,
            }
        )
        rows = dei_scorecard(perf, self.SPEAKERS, [NER], tau=0.0)
        assert [(r.model, r.tested) for r in rows] == [("a", 2), ("b", 1)]


def test_gini_iff_equal_within_float_noise(rng):
    for _ in range(50):
        v = np.full(int(rng.integers(2, 30)), float(rng.uniform(0.1, 9)))
        assert gini(v) == pytest.approx(0.0, abs=1e-13)


def test_speaker_table_rejects_negative():
    with pytest.raises(InputError):
        SpeakerTable({"hi": -3.0})


def test_speaker_table_rejects_bad_code():
    with pytest.raises(InputError):
        SpeakerTable({"": 3.0})


def test_demand_all_zero_speakers_is_undefined():
    with pytest.raises(ComputationError):
        demand(SpeakerTable({"x": 0.0, "y": 0.0}), ("x", "y"), tau=1.0)


def test_math_isfinite_guard():
    with pytest.raises(InputError):
        gini([1.0, math.inf])
