"""Unit tests for the demand/utility/global-metric/Gini layer."""

import csv
import math
import sys
import warnings
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langdei import scalar
from langdei.errors import ComputationError, InputError, LangDeiError, check_id
from langdei.io import bundled_path, render_lorenz
from langdei.metrics import (
    DEFAULT_UNIVERSE,
    CellError,
    PerformanceTable,
    ScorecardRow,
    SpeakerTable,
    TaskSpec,
    dei_scorecard,
    demand,
    gini,
    lorenz_points,
    lorenz_shares,
    utility,
)
from langdei.records import check_tau, sequential_sum

from _props import (ALL_PROPERTIES, _check_nonnegative, _demand_rows, _gini_rows, _lorenz_shares, _utilities,
                    check_oracle_equivalence, gini_from_lorenz, gini_mean_abs_difference, groups,
                    reference_lorenz_text)

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


def scorecard_m(speakers, scores, tau=1.0):
    """M of the one scorecard row whose universe is the scored languages, on a
    task with maximum 100, so each utility is its score / 100."""
    perf = PerformanceTable.from_scores({("t", "m", "en", lang): score for lang, score in scores.items()})
    (row,) = dei_scorecard(perf, SpeakerTable(speakers), [TaskSpec("t", 100.0)], tuple(scores), tau=tau)
    return row.m_tau


class TestGlobalMetric:
    def test_perfect_everywhere(self):
        langs = ("a", "b", "c", "d", "e")
        assert scorecard_m({}, dict.fromkeys(langs, 100.0), tau=0.0) == pytest.approx(1.0)

    def test_no_user_benefits(self):
        # The only language served has no speakers, so no user benefits.
        assert scorecard_m({"x": 0.0, "y": 300.0}, {"x": 100.0, "y": 0.0}) == 0.0

    def test_hand_evaluated_weighted_sum(self):
        assert scorecard_m({"x": 100, "y": 300}, {"x": 50.0, "y": 100.0}) == pytest.approx(0.875)

    def test_bounded_by_unit_interval_for_unit_utilities(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 30))
            langs = [f"l{i}" for i in range(n)]
            speakers = dict(zip(langs, rng.uniform(0.01, 1, size=n).tolist()))
            scores = dict(zip(langs, rng.uniform(0, 100, size=n).tolist()))
            assert 0.0 <= scorecard_m(speakers, scores) <= 1.0 + 1e-15


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

    # The total overflows (NaN), the weighted sum overflows (-inf), and twice
    # the weighted sum overflows (-inf): each Gini is undefined, not a number.
    @pytest.mark.parametrize("values", [[1e308, 1e308], [5e307] * 3, [0.0, 1.5e308]])
    def test_overflowing_sums_are_an_error(self, values):
        with pytest.raises(ComputationError, match="overflow"):
            gini(values)

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
    return PerformanceTable.from_scores(rows)


class TestPerformanceTable:
    def test_columns_in_mapping_order(self):
        perf = _table({("ner", "m", "en", "hi"): 50.0, ("pos", "m", "en", "bn"): 0.0, ("ner", "m", "en", "ta"): 7.5})
        assert perf.keys == (("ner", "m", "en"), ("pos", "m", "en"))
        assert perf.languages == ("hi", "bn", "ta")
        assert perf.row.tolist() == [0, 1, 0] and perf.target.tolist() == [0, 1, 2]
        assert perf.score.tolist() == [50.0, 0.0, 7.5]

    def test_equal_by_value(self):
        scores = {("ner", "m", "en", "hi"): 50.0, ("ner", "m", "en", "bn"): 0.0}
        assert _table(scores) == _table(dict(scores))
        assert _table(scores) != _table({**scores, ("ner", "m", "en", "bn"): 1.0})
        assert _table(scores) != _table(dict(reversed(scores.items())))
        with pytest.raises(TypeError):
            hash(_table(scores))

    @pytest.mark.parametrize("bad", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
    def test_first_bad_score_is_named(self, bad):
        scores = {("ner", "m", "en", "hi"): 50.0, ("ner", "m", "en", "bn"): bad, ("ner", "n", "en", "hi"): -3.0}
        with pytest.raises(CellError) as info:
            _table(scores)
        assert str(info.value) == f"raw score for ('ner', 'm', 'en', 'bn') must be a finite non-negative number, got {bad}"
        assert (info.value.index, info.value.repeated) == (1, False)

    def test_first_repeat_is_named_and_wins_over_its_own_bad_score(self):
        columns = ((("ner", "m", "en"),), ("hi", "bn"), array("q", [0, 0, 0, 0]), array("q", [0, 1, 0, 1]),
                   array("d", [5.0, 1.0, math.nan, -1.0]))
        with pytest.raises(CellError) as info:
            PerformanceTable(*columns)
        assert str(info.value) == "duplicate row for ('ner', 'm', 'en', 'hi')"
        assert (info.value.index, info.value.repeated) == (2, True)

    @pytest.mark.parametrize("row, target, score", [
        (array("q", [0, 1]), array("q", [0, 0]), array("d", [1.0, 2.0])),
        (array("q", [0, 0]), array("q", [0, -1]), array("d", [1.0, 2.0])),
        (array("q", [0, 0]), array("q", [0, 0]), array("d", [1.0])),
        ([[0]], [[0]], [[1.0]]),
        (array("d", [0.0]), array("q", [0]), array("d", [1.0])),
    ], ids=["row-code", "target-code", "lengths", "2-d", "float-codes"])
    def test_malformed_columns_rejected(self, row, target, score):
        with pytest.raises(InputError, match="columns"):
            PerformanceTable((("ner", "m", "en"),), ("hi",), row, target, score)


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

    @pytest.mark.parametrize("tau", [5.0, -0.5, math.nan])
    def test_tau_checked_for_an_empty_table(self, tau):
        with pytest.raises(InputError, match="tau must lie in"):
            dei_scorecard(_table({}), SpeakerTable({}), [NER], tau=tau)

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


OVERFLOW = "demand is undefined: the sum of the speaker counts to the power tau overflows a float"


def test_demand_overflowing_speaker_total_is_undefined():
    # Each count is finite, but their total is not: the weights would all be 0.
    speakers = SpeakerTable({"x": 1e308, "y": 1e308})
    with pytest.raises(ComputationError, match=OVERFLOW):
        demand(speakers, ("x", "y"), tau=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning is silenced on this path
        with pytest.raises(ComputationError, match=OVERFLOW):
            _demand_rows(speakers, ("x", "y"), 1.0, np.array([[True, False], [True, True]]))
    assert _demand_rows(speakers, ("x", "y"), 1.0, np.array([[True, False]])).tolist() == [[1.0, 0.0]]


@pytest.mark.parametrize("tested_only", [False, True])
def test_scorecard_with_overflowing_speaker_total_is_undefined(tested_only):
    table = PerformanceTable.from_scores({("ner", "m", "en", "x"): 50.0, ("ner", "m", "en", "y"): 60.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ComputationError, match=OVERFLOW):
            dei_scorecard(table, SpeakerTable({"x": 1e308, "y": 1e308}), [TaskSpec("ner", 100.0)],
                          universe=("x", "y"), tau=1.0, tested_only=tested_only)


def test_math_isfinite_guard():
    with pytest.raises(InputError):
        gini([1.0, math.inf])


# ---------------------------------------------------------------------------
# The whole-table scorecard against the per-row loop
# ---------------------------------------------------------------------------

def reference_scorecard(scores, speakers, tasks, universe=DEFAULT_UNIVERSE, tau=1.0, tested_only=False):
    """The table and its scorecard, from a {(task, model, train, target):
    score} mapping, as one pass over the cells or rows per rule, in the
    documented order, then each row's numbers as standalone scalar functions
    would compute them: the oracle for ``PerformanceTable.from_scores``
    followed by ``dei_scorecard``."""

    def ref_demand(row_universe):
        if tau == 0:
            return {lang: 1.0 / len(row_universe) for lang in row_universe}
        powered = {}
        for lang in row_universe:
            if lang not in speakers:
                raise InputError(f"tau={tau} requires a speaker count for language {lang!r}")
            powered[lang] = speakers.millions(lang) ** tau
        total = 0.0
        for value in powered.values():  # left to right, as ``sum`` before Python 3.12
            total += value
        if total <= 0:
            raise ComputationError("demand is undefined: all speaker counts in the universe are zero")
        if total == math.inf:
            raise ComputationError(OVERFLOW)
        return {lang: value / total for lang, value in powered.items()}

    def ref_gini(utilities):
        arr = np.asarray(utilities, dtype=float)
        total = float(arr.sum())
        if total == 0:
            raise ComputationError("Gini is undefined for an all-zero vector")
        y = np.sort(arr, kind="stable")
        n = y.size
        weighted = float(((n + 1 - np.arange(1, n + 1, dtype=float)) * y).sum())
        return float((n + 1 - 2.0 * weighted / total) / n)

    codes = tuple(universe)
    by_task = {t.task_id: t for t in tasks}
    # The table's raw-score rule, when it is built: the first bad cell.
    for index, (key, raw) in enumerate(scores.items()):
        if not math.isfinite(raw) or raw < 0:
            raise CellError(f"raw score for {key} must be a finite non-negative number, got {raw}", index, False)
    # Then tau, even for an empty table.
    if not (isinstance(tau, (int, float)) and math.isfinite(tau) and 0.0 <= tau <= 1.0):
        raise InputError(f"tau must lie in [0, 1], got {tau}")
    rows_of = groups(scores)
    # (1) known task, valid model and train ids, languages in the universe.
    for (task_id, model, train), cells in rows_of:
        if task_id not in by_task:
            raise InputError(f"unknown task id {task_id!r} in performance table")
        check_id(model, "model id")
        check_id(train, "train language")
        unknown = sorted(set(cells) - set(codes))
        if unknown:
            raise InputError(
                f"performance rows for ({task_id}, {model}, {train}) name languages "
                f"outside the universe: {', '.join(unknown)}"
            )
    # (2) demand weights defined over each row's universe.
    universes = [tuple(lang for lang in codes if lang in cells) if tested_only else codes for _, cells in rows_of]
    weights = [ref_demand(row_universe) for row_universe in universes]
    # (3) Gini defined.
    utilities = [
        tuple(_utilities(np.array([cells.get(lang, 0.0) for lang in row_universe]),
                         by_task[task_id].max_performance).tolist())
        for ((task_id, _, _), cells), row_universe in zip(rows_of, universes)
    ]
    ginis = [ref_gini(u) for u in utilities]
    rows = []
    for ((task_id, model, train), cells), row_universe, d, u, g in zip(rows_of, universes, weights, utilities, ginis):
        m = sequential_sum(ui * d[lang] for ui, lang in zip(u, row_universe))  # left to right, in universe order
        rows.append(ScorecardRow(task_id, model, train, m, g, len(cells), len(row_universe), u))
    return rows


def _outcome(compute):
    """The rows and their repr (bit-exact for floats), or the error's type,
    text and, for a bad cell, its position."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            rows = compute()
        return "ok", rows, repr(rows)
    except LangDeiError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "index", None)


@st.composite
def scorecard_inputs(draw, faults=True):
    """The cells of a performance table over a default or custom universe, with zero and
    clamped scores, 1-23 tested languages a row and, if ``faults``, now and
    then one or two of the inputs that each error path of the scorecard needs."""
    if draw(st.booleans()):
        universe = DEFAULT_UNIVERSE
    else:
        custom = draw(st.lists(st.sampled_from(["x1", "x2", "yy", "z-3"]), unique=True, max_size=4))
        universe = tuple(draw(st.permutations(list(DEFAULT_UNIVERSE[: draw(st.integers(1, 23))]) + custom)))
    specs = [TaskSpec(t, draw(st.floats(1.0, 100.0))) for t in ("ner", "pos", "qa")[: draw(st.integers(1, 3))]]
    # Each task's scores come from a small pool: zero of either sign, in
    # range, the maximum itself, and above it (clamped).
    pools = {
        spec.task_id: [0.0, -0.0, spec.max_performance, spec.max_performance * draw(st.floats(1.0, 1.5, exclude_min=True))]
        + draw(st.lists(st.floats(0.0, spec.max_performance), min_size=1, max_size=4))
        for spec in specs
    }
    scores = {}
    for _ in range(draw(st.integers(1, 6))):
        task = draw(st.sampled_from(specs)).task_id
        key = (task, draw(st.sampled_from(["m1", "m2"])), draw(st.sampled_from(["en", "hi", "bn"])))
        langs = draw(st.lists(st.sampled_from(universe), min_size=1, max_size=len(universe), unique=True))
        values = draw(st.lists(st.sampled_from(pools[task]), min_size=len(langs), max_size=len(langs)))
        if not any(values):  # all-zero rows come from the "zero-row" fault below
            values[0] = pools[task][2]
        scores.update({key + (lang,): value for lang, value in zip(langs, values)})
    counts = draw(st.lists(st.sampled_from([0.0, 1.0, 43.7, 691.6, 1e-3, 2.5e3]), min_size=len(universe), max_size=len(universe)))
    speakers = dict(zip(universe, counts))
    tau = draw(st.sampled_from([0.0, 0.37, 1.0]))
    if faults:
        # Up to two faults, so the order between the rules is drawn too.
        kinds = ["task", "id", "lang", "raw", "zero-row", "speaker", "zero-speakers", "tau"]
        for fault in draw(st.lists(st.sampled_from(kinds), max_size=2, unique=True)):
            key = draw(st.sampled_from(sorted(scores)))
            if fault == "zero-row":
                scores.update({k: 0.0 for k in scores if k[:3] == key[:3]})
            elif fault == "task":
                scores[("pos-x",) + key[1:]] = 10.0
            elif fault == "id":
                bad = draw(st.sampled_from(["m,x", "m x", 'm"x', "m=x", ""]))
                scores[(key[0], bad, key[2], key[3]) if draw(st.booleans()) else key[:2] + (bad, key[3])] = 10.0
            elif fault == "lang":
                scores[key[:3] + ("qq",)] = 10.0
            elif fault == "raw":
                scores[key] = draw(st.sampled_from([-1.0, -1e-300, math.nan, math.inf, -math.inf]))
            elif fault == "speaker":
                del speakers[draw(st.sampled_from(sorted(speakers)))]
            elif fault == "zero-speakers":
                speakers = dict.fromkeys(speakers, 0.0)
            elif fault == "tau":
                tau = draw(st.sampled_from([-0.5, 1.5, math.nan]))
    return scores, SpeakerTable(speakers), specs, universe, tau, draw(st.booleans())


def scorecard(scores, *rest):
    return dei_scorecard(PerformanceTable.from_scores(scores), *rest)


class TestScorecardMatchesPerRowLoop:
    @settings(max_examples=200, deadline=None)
    @given(scorecard_inputs())
    def test_bit_for_bit_or_same_error(self, case):
        assert _outcome(lambda: scorecard(*case)) == _outcome(lambda: reference_scorecard(*case))

    def test_each_rule_checks_every_row_before_the_next(self):
        speakers = SpeakerTable({"en": 1.0, "hi": 2.0})
        # Row "a" is all-zero (rule 4) and sorts first; row "b" names a
        # language outside the universe (rule 1).
        perf = _table({("ner", "a", "en", "hi"): 0.0, ("ner", "b", "en", "qq"): 5.0})
        with pytest.raises(InputError, match="outside the universe: qq"):
            dei_scorecard(perf, speakers, [NER], tau=0.0)
        # Row "b" lacks a speaker count (rule 3), which comes before row
        # "a"'s undefined Gini (rule 4).
        perf = _table({("ner", "a", "en", "hi"): 0.0, ("ner", "b", "en", "bn"): 5.0})
        with pytest.raises(InputError, match="'bn'"):
            dei_scorecard(perf, speakers, [NER], tau=1.0, tested_only=True)
        # Row "b"'s bad raw score fails when the table is built, before row
        # "a"'s missing speaker count could.
        with pytest.raises(InputError, match="got -2.0"):
            _table({("ner", "a", "en", "bn"): 5.0, ("ner", "b", "en", "hi"): -2.0})

    @pytest.mark.parametrize(("model", "train", "message"), [
        ("m,x", "en", "invalid model id: 'm,x'"),
        ("m", "e n", "invalid train language: 'e n'"),
    ])
    def test_invalid_model_or_train_id_rejected(self, model, train, message):
        perf = _table({("ner", model, train, "hi"): 50.0})
        with pytest.raises(InputError, match=message):
            dei_scorecard(perf, SpeakerTable({}), [NER], tau=0.0)


class TestClampWarnings:
    def test_one_warning_per_task_with_count_and_largest(self):
        perf = _table({
            ("ner", "m", "en", "hi"): 98.0,
            ("ner", "m", "en", "bn"): 99.5,
            ("ner", "m", "en", "ta"): 97.6,  # the maximum itself is not clamped
            ("ner", "n", "hi", "hi"): 97.7,
            ("ner", "n", "hi", "ta"): 50.0,
            ("pos", "m", "en", "hi"): 97.1,
            ("nli", "m", "en", "hi"): 10.0,
        })
        tasks = [NER, TaskSpec("pos", 97.0), TaskSpec("nli", 92.8)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows = dei_scorecard(perf, TestScorecard.SPEAKERS, tasks, tau=0.0)
        assert [str(w.message) for w in caught] == [
            "scores above task 'ner' maximum 97.6: 3 (largest 99.5); clamping their utility to 1.0",
            "scores above task 'pos' maximum 97.0: 1 (largest 97.1); clamping their utility to 1.0",
        ]
        assert all(w.category is UserWarning for w in caught)
        assert sum(u == 1.0 for row in rows for u in row.utilities) == 5

    def test_no_warning_without_clamped_scores(self):
        perf = _table({("ner", "m", "en", "hi"): 97.6})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dei_scorecard(perf, TestScorecard.SPEAKERS, [NER], tau=0.0)


class TestScorecardLorenz:
    """The Lorenz CSV, each distinct k/n formatted once, against
    ``lorenz_points`` of each row: ragged tested-only rows, zeros of either
    sign, and clamped utilities."""

    @settings(max_examples=100, deadline=None)
    @given(scorecard_inputs(faults=False))
    def test_equals_lorenz_points_of_each_row(self, case):
        outcome = _outcome(lambda: scorecard(*case))
        if outcome[0] != "ok":
            return
        rows = outcome[1]
        assert render_lorenz(rows) == reference_lorenz_text(rows)

    def test_ragged_rows(self):
        rows = [
            ScorecardRow("ner", "m", "en", 0.5, 0.1, 2, 2, (0.25, 0.5)),
            ScorecardRow("ner", "m", "hi", 0.5, 0.1, 3, 3, (0.0, 1.0, -0.0)),
            ScorecardRow("ner", "n", "en", 0.5, 0.1, 2, 2, (0.7, -0.0)),
        ]
        assert render_lorenz(rows) == reference_lorenz_text(rows)
        assert ",-" not in render_lorenz(rows)  # -0.0 shares print as 0

    def test_all_zero_row_is_undefined(self):
        rows = [ScorecardRow("ner", "m", "en", 0.0, 0.0, 2, 2, (0.0, 0.0))]
        with pytest.raises(ComputationError):
            render_lorenz(rows)


# ---------------------------------------------------------------------------
# The numpy-free one-vector kernels against the numpy matrix kernels they
# replaced (tests/_props.py)
# ---------------------------------------------------------------------------

# Lengths on both sides of numpy's block edges: 8 accumulators, blocks of 128.
EDGE_LENGTHS = [1, 2, 7, 8, 9, 15, 16, 17, 23, 64, 127, 128, 129, 135, 136, 137, 255, 256, 257, 300]
# Entries besides ordinary values: zeros of either sign, subnormals, and
# values near the largest float, whose sums overflow.
SPECIAL_ENTRIES = [0.0, -0.0, 5e-324, 1e-310, sys.float_info.min, 1e307, 1e308, sys.float_info.max]


@st.composite
def vectors(draw, rows=1, signed=False):
    """Rows of one length: random floats of mixed magnitude, so that their
    sums round, each replaced by a special entry at a drawn rate."""
    n = draw(st.sampled_from(EDGE_LENGTHS) | st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.uniform(0.0, 1.0, (rows, n)) * 10.0 ** rng.integers(-3, 4, (rows, n))
    if signed:
        values *= rng.choice([-1.0, 1.0], values.shape)
    special = rng.random(values.shape) < draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))
    values[special] = rng.choice(SPECIAL_ENTRIES, int(special.sum()))
    return values.tolist()


def exact(value):
    """A float by its bits (NaN as one value)."""
    return "nan" if math.isnan(value) else float(value).hex()


def checked_gini_rows(values):
    """``gini`` as the matrix kernel gives it: the scalar checks, then
    ``_gini_rows`` of the one row."""
    arr = np.array(scalar._checked(values))
    with np.errstate(all="ignore"):
        g = float(_gini_rows(arr[None, :])[0])
    if not math.isfinite(g):
        raise ComputationError(scalar._GINI_OVERFLOW if arr.any() else scalar._GINI_ALL_ZERO)
    return g


def matrix_demand(speakers, universe, tau):
    """``demand`` as the matrix kernel gives it: one row of ``_demand_rows``."""
    codes = scalar._check_universe(universe)
    check_tau(tau)
    weights = _demand_rows(speakers, codes, tau, np.ones((1, len(codes)), dtype=bool))
    return dict(zip(codes, weights[0].tolist()))


def matrix_lorenz_shares(values):
    """``lorenz_shares`` as the matrix kernel gives it: one row of ``_lorenz_shares``."""
    if not values:
        raise InputError("expected a non-empty 1-d vector of values")
    with np.errstate(all="ignore"):
        return _lorenz_shares(_check_nonnegative(np.array([values], dtype=float)))[0].tolist()


def outcome_of(compute, *args):
    """The result with each float by its bits, or the error's type and text."""
    try:
        result = compute(*args)
    except LangDeiError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(result, dict):
        return {key: exact(value) for key, value in result.items()}
    if isinstance(result, list):
        return [exact(value) for value in result]
    return exact(result)


class TestScalarKernelsMatchMatrixKernels:
    @settings(max_examples=200, deadline=None)
    @given(vectors(signed=True))
    def test_pairwise_sum_is_numpys_sum(self, rows):
        (values,) = rows
        with np.errstate(all="ignore"):
            assert exact(scalar.pairwise_sum(values)) == exact(np.array(values).sum())

    def test_emitted_sum_is_numpys_sum(self):
        # Every length through 300, past the halving at 128 twice, and two
        # lengths whose halves split again and again; two vectors of each,
        # the second with about 30% of its entries replaced by zeros of
        # either sign and by special entries.
        mismatches = []
        for n in [*range(301), 1000, 5000]:
            rng = np.random.default_rng(n)
            values = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.integers(-3, 4, n) * rng.choice([-1.0, 1.0], n)
            special = np.where(rng.random(n) < 0.3, rng.choice(SPECIAL_ENTRIES + [-0.0] * 8, n), values)
            namespace = {}
            code = scalar.pairwise_sum_statements("total", [f"v[{i}]" for i in range(n)])
            exec("def emitted(v):\n    " + "\n    ".join(code) + "\n    return total", namespace)
            for vector in (values.tolist(), special.tolist()):
                with np.errstate(all="ignore"):
                    expected = exact(np.array(vector).sum())
                if not exact(namespace["emitted"](vector)) == expected == exact(scalar.pairwise_sum(vector)):
                    mismatches.append(n)
        assert mismatches == []

    @settings(max_examples=300, deadline=None)
    @given(vectors())
    def test_gini_is_gini_rows_or_same_error(self, rows):
        (values,) = rows
        assert outcome_of(gini, values) == outcome_of(checked_gini_rows, values)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 5).flatmap(lambda k: vectors(rows=k)))
    def test_each_row_of_a_matrix(self, rows):
        with np.errstate(all="ignore"):
            matrix = _gini_rows(np.array(rows))
        assert [exact(scalar._gini_row(row)) for row in rows] == [exact(g) for g in matrix.tolist()]

    @settings(max_examples=300, deadline=None)
    @given(st.permutations(DEFAULT_UNIVERSE), st.integers(1, 23), vectors(), st.sampled_from([0.0, 0.05, 1.0]),
           st.sampled_from([0.0, 0.5, 1.0, 0, 1]) | st.floats(0.0, 1.0))
    def test_demand_is_demand_rows_or_same_error(self, universe, n, counts, missing_rate, tau):
        # Speaker counts as the Gini entries (-0.0, subnormal, overflowing
        # totals), each absent at a drawn rate; codes past the end of the
        # drawn vector have none.
        codes = universe[:n]
        absent = np.random.default_rng(n).random(n) < missing_rate
        speakers = SpeakerTable({lang: count for lang, count, gone in zip(codes, counts[0], absent) if not gone})
        assert outcome_of(demand, speakers, codes, tau) == outcome_of(matrix_demand, speakers, codes, tau)

    @settings(max_examples=200, deadline=None)
    @given(vectors() | vectors(signed=True) | st.just([[]]))
    def test_lorenz_shares_are_lorenz_shares_rows_or_same_error(self, rows):
        (values,) = rows
        assert outcome_of(lorenz_shares, values) == outcome_of(matrix_lorenz_shares, values)

    def test_sequential_sum_does_not_compensate(self):
        # Left to right from 0.0 the 1.0 is lost to rounding next to 1e16;
        # the built-in sum of Python 3.12 and later keeps it and gives 2.0.
        assert sequential_sum([0.1] * 10 + [1e16, 1.0, -1e16]) == 0.0
