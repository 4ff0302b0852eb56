"""Property checks: every text format round-trips byte for byte, and an id
that would corrupt an output cell or token is rejected, never written."""

import csv
import math
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langdei.allocator import AllocationPlan, PlanEvaluation
from langdei.records import COMPOSITION_MODES, MISSING_POLICIES, baseline_counts, parse_strategy
from langdei.cli import main
from langdei.curves import LearningCurve, TrajectoryPoint
from langdei.efficiency import METRICS, AmrsTable, GoodsTable, load_amrs, render_amrs, render_efficiency
from langdei.errors import InputError, check_id
from langdei.commands.report import load_plan
from langdei import io
from langdei.io import (
    bundled_path,
    load_curve_registry,
    load_trace,
    render_curves,
    render_plan,
    render_trace,
    write_text,
)
from langdei.metrics import ScorecardRow, SpeakerTable, TaskSpec, render_scorecard

FORBIDDEN = list(' \t\n\r\x0b\x0c\x85\u00a0\u2003\u2028,="')


def _valid(text):
    return not any(ch.isspace() or ch in ',="' for ch in text)


ids = st.text(min_size=1, max_size=8).filter(_valid)
numbers = st.floats(allow_nan=False)
finite = st.floats(allow_nan=False, allow_infinity=False)
# Any text with a forbidden character somewhere, or nothing at all.
hostile_ids = st.one_of(
    st.just(""),
    st.builds(lambda a, c, b: a + c + b, st.text(max_size=4), st.sampled_from(FORBIDDEN), st.text(max_size=4)),
)
# A forbidden character between valid ids, so stripping a CSV cell cannot remove it.
hostile_cells = st.builds(lambda a, c, b: a + c + b, ids, st.sampled_from(FORBIDDEN), ids)


@st.composite
def registries(draw):
    pairs = draw(st.lists(st.tuples(ids, ids), max_size=6, unique=True))
    return {
        (s, t): LearningCurve(
            s, t, draw(finite), draw(finite),
            draw(st.floats(min_value=0.0, allow_infinity=False)),
            draw(st.floats(max_value=1.0, allow_infinity=False, allow_nan=False)),
        )
        for s, t in pairs
    }


@st.composite
def plans(draw):
    """Plans the file rules accept: counts that sum to the budget (for a
    baseline, the counts ``baseline_counts`` gives it), a known strategy,
    settings from the option lists, valid objective weights, gm and gini on
    exactly the funded sources, and an evaluation."""
    counts = draw(st.dictionaries(ids, st.integers(min_value=0, max_value=10**9), min_size=1, max_size=6)
                  .filter(lambda c: sum(c.values()) > 0))
    strategy = draw(st.sampled_from(["greedy", "egalitarian", *(f"single:{s}" for s in sorted(counts))]))
    if strategy != "greedy":
        counts = baseline_counts(sum(counts.values()), sorted(counts), parse_strategy(strategy)[1])
    funded = [s for s in sorted(counts) if counts[s] > 0]
    weights = st.floats(min_value=0.0, allow_infinity=False)
    alpha, beta = draw(st.tuples(weights, weights).filter(lambda ab: ab[0] + ab[1] > 0))
    return AllocationPlan(
        strategy=strategy,
        budget=sum(counts.values()),
        counts=counts,
        final_gm={s: draw(numbers) for s in funded},
        final_gini={s: draw(numbers) for s in funded},
        alpha=alpha,
        beta=beta,
        missing=draw(st.sampled_from(MISSING_POLICIES)),
        evaluation=PlanEvaluation(
            mode=draw(st.sampled_from(COMPOSITION_MODES)),
            utilities=draw(st.dictionaries(ids, numbers, max_size=6)),
            m_tau=draw(numbers),
            gini_coeff=draw(numbers),
        ),
    )


traces = st.lists(st.tuples(ids, numbers, numbers, numbers), max_size=8).map(
    lambda rows: tuple((step, *row) for step, row in enumerate(rows, 1)))  # step i on data row i


# Ids with the characters a markdown cell or a %-template would take as
# syntax, and numbers with the values whose text is easiest to get wrong.
cell_ids = st.one_of(ids, st.builds(lambda a, c, b: a + c + b, ids, st.sampled_from("|%"), ids))
cell_numbers = st.one_of(numbers, st.sampled_from([math.inf, -math.inf, -0.0, 5e-324, -2.5e-310]))
utilities = st.lists(st.one_of(st.floats(0.0, 1e300), st.sampled_from([-0.0, 5e-324])), min_size=1,
                     max_size=23).filter(any)


@st.composite
def scorecard_rows(draw):
    return [ScorecardRow(draw(cell_ids), draw(cell_ids), draw(cell_ids), draw(cell_numbers), draw(cell_numbers),
                         draw(st.integers(0, 23)), draw(st.integers(0, 23)), tuple(draw(utilities)))
            for _ in range(draw(st.integers(0, 4)))]


@st.composite
def amrs_tables(draw):
    keys = st.tuples(cell_ids, cell_ids, st.sampled_from(METRICS))
    rates = st.one_of(st.floats(0.0, exclude_min=True, allow_infinity=False), st.just(5e-324))
    return AmrsTable(draw(st.dictionaries(keys, rates, max_size=6)))


@st.composite
def efficiency_tables(draw):
    pairs = draw(st.lists(st.tuples(cell_ids, cell_ids), max_size=6, unique=True))
    positive = st.floats(0.0, exclude_min=True, allow_infinity=False)
    columns = [array("d", [draw(values) for _ in pairs]) for values in (positive, positive, finite.map(abs))]
    goods = GoodsTable(tuple(m for m, _ in pairs), tuple(draw(cell_ids) for _ in pairs), tuple(t for _, t in pairs),
                       *columns)
    return goods, [draw(cell_numbers) for _ in pairs], [draw(cell_numbers) for _ in pairs]


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("props")


@given(registry=registries())
def test_curve_registry_round_trip(scratch, registry):
    text = render_curves(registry)
    write_text(scratch / "curves.txt", text)
    assert render_curves(load_curve_registry(scratch / "curves.txt")) == text


@given(plan=plans())
def test_plan_round_trip(scratch, plan):
    text = render_plan(plan)
    write_text(scratch / "plan.txt", text)
    assert render_plan(load_plan(scratch / "plan.txt")) == text


@given(trace=traces)
def test_trace_round_trip(scratch, trace):
    text = render_trace(trace)
    write_text(scratch / "trace.csv", text)
    assert render_trace(load_trace(scratch / "trace.csv")) == text


def read_back(path, header):
    """The text of a CSV file as ``report`` reads it: its header, then each
    row's cells, each an id or a number, joined with commas."""
    rows = [",".join(check_id(cell, "cell") for cell in cells) for _, cells in io._read_csv_rows(path, header)]
    return "\n".join([",".join(header), *rows]) + "\n"


@settings(deadline=None)
@given(rows=scorecard_rows(), scale=st.sampled_from(io.SCALES))
def test_scorecard_and_lorenz_read_back(scratch, rows, scale):
    for text, header in ((render_scorecard(rows, scale), io._SCORECARD_HEADER),
                         (io.render_lorenz(rows), io._LORENZ_HEADER)):
        write_text(scratch / "table.csv", text)
        assert read_back(scratch / "table.csv", header) == text


@given(table=amrs_tables())
def test_amrs_read_back(scratch, table):
    text = render_amrs(table)
    write_text(scratch / "amrs.csv", text)
    assert read_back(scratch / "amrs.csv", io._AMRS_HEADER) == text
    assert render_amrs(load_amrs(scratch / "amrs.csv")) == text


@given(case=efficiency_tables())
def test_efficiency_read_back(scratch, case):
    text = render_efficiency(*case)
    write_text(scratch / "efficiency.csv", text)
    assert read_back(scratch / "efficiency.csv", io._EFFICIENCY_HEADER) == text


@given(bad=hostile_ids)
def test_hostile_id_rejected_by_every_record(bad):
    with pytest.raises(InputError):
        check_id(bad, "id")
    builders = (
        lambda: TaskSpec(bad, 97.6),
        lambda: SpeakerTable({bad: 1.0}),
        lambda: GoodsTable((bad,), ("g",), ("t",), array("d", [1.0]), array("d", [1.0]), array("d", [1.0])),
        lambda: GoodsTable(("m",), (bad,), ("t",), array("d", [1.0]), array("d", [1.0]), array("d", [1.0])),
        lambda: GoodsTable(("m",), ("g",), (bad,), array("d", [1.0]), array("d", [1.0]), array("d", [1.0])),
        lambda: AmrsTable({(bad, "t", "memory"): 1.0}),
        lambda: TrajectoryPoint(bad, "hi", 1, 0.5),
        lambda: TrajectoryPoint("hi", bad, 1, 0.5),
        lambda: LearningCurve(bad, "hi", 1.0, -1.0, 0.5, 0.9),
        lambda: LearningCurve("hi", bad, 1.0, -1.0, 0.5, 0.9),
    )
    for build in builders:
        with pytest.raises(InputError):
            build()


@settings(deadline=None, max_examples=50)
@given(bad=hostile_cells, column=st.sampled_from(["task", "model", "train_lang"]))
def test_hostile_id_in_scores_is_never_written(scratch, bad, column):
    row = {"task": "ner", "model": "m", "train_lang": "en", "target_lang": "hi", "score": "80"}
    row[column] = bad
    perf = scratch / "perf.csv"
    with open(perf, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(row))
        writer.writeheader()
        writer.writerow(row)
    out = scratch / "scorecard.csv"
    rc = main(["metrics", "--perf", str(perf), "--tasks", str(bundled_path("tasks.csv")),
               "--tau", "0", "--out", str(out)])
    assert rc == 2
    assert not out.exists()
