"""Property checks: every text format round-trips byte for byte, and an id
that would corrupt an output cell or token is rejected, never written."""

import csv
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langdei.allocator import COMPOSITION_MODES, MISSING_POLICIES, AllocationPlan, PlanEvaluation, TraceStep
from langdei.cli import main
from langdei.curves import LearningCurve, TrajectoryPoint
from langdei.efficiency import AmrsTable, GoodsTable
from langdei.errors import InputError, check_id
from langdei.io import (
    bundled_path,
    load_curve_registry,
    load_plan,
    load_trace,
    render_curves,
    render_plan,
    render_trace,
    write_text,
)
from langdei.metrics import SpeakerTable, TaskSpec

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
    """Plans the file rules accept: counts that sum to the budget, a known
    strategy, settings from the option lists, valid objective weights, gm
    and gini on exactly the funded sources, and an evaluation."""
    counts = draw(st.dictionaries(ids, st.integers(min_value=0, max_value=10**9), min_size=1, max_size=6)
                  .filter(lambda c: sum(c.values()) > 0))
    funded = [s for s in sorted(counts) if counts[s] > 0]
    weights = st.floats(min_value=0.0, allow_infinity=False)
    alpha, beta = draw(st.tuples(weights, weights).filter(lambda ab: ab[0] + ab[1] > 0))
    return AllocationPlan(
        strategy=draw(st.sampled_from(["greedy", "egalitarian", *(f"single:{s}" for s in sorted(counts))])),
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


traces = st.lists(
    st.builds(TraceStep, st.integers(min_value=1), ids, numbers, numbers, numbers), max_size=8
).map(tuple)


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
