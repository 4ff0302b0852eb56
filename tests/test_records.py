"""The record base against frozen dataclasses: every record class of the
package, and the ``ModelGoods`` oracle of ``tests/_props.py``, has a
``dataclasses.make_dataclass(..., frozen=True)`` twin with the same fields
and defaults, and a record must print, compare and hash as its twin does."""

import copy
import dataclasses
import pickle
from array import array

import pytest

from _props import ModelGoods
from langdei.allocator import AllocationRequest
from langdei.curves import TrajectoryPoint
from langdei.efficiency import AmrsTable, EfficiencyConfig, GoodsTable
from langdei.errors import InputError
from langdei.metrics import PerformanceTable, ScorecardRow, SpeakerTable, TaskSpec
from langdei.records import AllocationPlan, LearningCurve, PlanEvaluation, Record

CURVE = LearningCurve("bn", "hi", 1.0, -2.0, 0.5, 0.9)
EVALUATION = PlanEvaluation("best-source", {"hi": 0.5}, 0.5, 0.0)

# Each record class with valid values for all of its fields, in order.
SAMPLES = {
    TrajectoryPoint: ("bn", "hi", 10, 0.5),
    LearningCurve: ("bn", "hi", 1.0, -2.0, 0.5, 0.9),
    PlanEvaluation: ("best-source", {"hi": 0.5}, 0.5, 0.0),
    AllocationPlan: ("greedy", 1, {"bn": 1}, {"bn": 0.5}, {"bn": 0.0}, 1.0, 0.0, "strict", EVALUATION, ((1, "bn", 0.1, 0.2, 0.3),)),
    ModelGoods: ("m", "g", "ner", 10.0, 2.0, 50.0),
    GoodsTable: (("m",), ("g",), ("ner",), array("d", [10.0]), array("d", [2.0]), array("d", [50.0])),
    EfficiencyConfig: (12.0, 0.5, 0.3, 0.2),
    AmrsTable: ({("g", "ner", "throughput"): 1.5},),
    SpeakerTable: ({"hi": 528.0},),
    TaskSpec: ("ner", 97.6),
    PerformanceTable: ({("ner", "m", "en"): {"hi": 50.0}},),
    ScorecardRow: ("ner", "m", "en", 0.5, 0.1, 3, 23, (0.1, 0.0)),
    AllocationRequest: (10, ("bn",), ("hi",), {("bn", "hi"): CURVE}, {"hi": 1.0}, 0.5, 2.0, "permissive", "mean"),
}
CLASSES = pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)


def fields(cls):
    return tuple(cls.__annotations__)


def defaults(cls):
    """A class attribute of a field's name is its default."""
    return {name: vars(cls)[name] for name in fields(cls) if name in vars(cls)}


def twin(cls):
    """The frozen dataclass with the fields and defaults of ``cls``."""
    spec = [(name, object, defaults(cls)[name]) if name in defaults(cls) else (name, object) for name in fields(cls)]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


def hashed(value):
    try:
        return hash(value)
    except TypeError:  # a field holds a dict
        return TypeError


def test_every_record_class_has_a_sample():
    assert len(SAMPLES) == 13
    assert all(issubclass(cls, Record) for cls in SAMPLES)


@CLASSES
def test_repr_eq_and_hash_match_a_frozen_dataclass(cls):
    values = SAMPLES[cls]
    record, other = cls(*values), twin(cls)(*values)
    assert repr(record) == repr(other)
    assert record == cls(*values) and other == type(other)(*values)
    assert hashed(record) == hashed(other)
    assert record.__eq__(other) is NotImplemented


@CLASSES
def test_keywords_and_positions_build_the_same_record(cls):
    values = SAMPLES[cls]
    assert cls(**dict(zip(fields(cls), values))) == cls(*values)


@CLASSES
def test_defaults_apply(cls):
    required = [value for name, value in zip(fields(cls), SAMPLES[cls]) if name not in defaults(cls)]
    assert repr(cls(*required)) == repr(twin(cls)(*required))


def test_records_with_defaults_are_sampled():
    assert {cls.__name__ for cls in SAMPLES if defaults(cls)} == {"AllocationPlan", "EfficiencyConfig", "AllocationRequest"}
    assert EfficiencyConfig() == EfficiencyConfig(16.0, 0.5, 0.25, 0.25)


@CLASSES
def test_fields_are_frozen(cls):
    record = cls(*SAMPLES[cls])
    name = fields(cls)[0]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(record, name, SAMPLES[cls][0])
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == repr(cls(*SAMPLES[cls]))


@CLASSES
def test_wrong_arguments_raise_type_error(cls):
    values = SAMPLES[cls]
    with pytest.raises(TypeError):
        cls(*values, bogus=1)
    with pytest.raises(TypeError):
        cls(*values, **{fields(cls)[0]: values[0]})
    with pytest.raises(TypeError):
        cls(*values, None)


@pytest.mark.parametrize("args, kwargs", [
    ((), {}),
    (("bn", "hi", 1.0, -2.0, 0.5), {}),
    ((), {"source": "bn", "target": "hi", "b": -2.0, "c": 0.5, "r_squared": 0.9}),
])
def test_missing_argument_raises_type_error(args, kwargs):
    with pytest.raises(TypeError, match="missing"):
        LearningCurve(*args, **kwargs)


@CLASSES
@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_are_equal(cls, duplicate):
    record = cls(*SAMPLES[cls])
    duplicated = duplicate(record)
    assert type(duplicated) is cls
    assert repr(duplicated) == repr(record)
    assert duplicated == record


def test_post_init_checks_the_rule():
    with pytest.raises(InputError, match="decay exponent"):
        LearningCurve("bn", "hi", 1.0, -2.0, -0.5, 0.9)
