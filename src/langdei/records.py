"""Record types, option vocabularies and value rules shared by the file
formats, the argument parser and the numeric modules, and the one
left-to-right float sum (``sequential_sum``) that their totals use.

This module needs no numpy, so ``io`` and ``cli`` import it at start-up and
the subcommands that only read or write records (``efficiency``, ``report``)
never load numpy. ``curves`` and ``allocator`` import these names, so each
also resolves there: ``curves.LearningCurve``, ``allocator.AllocationPlan``.

Every record class of the package derives from ``Record`` rather than using
``@dataclass``, for start-up time. ``dataclasses`` loads ``inspect`` and, with
it, ``ast``, ``dis`` and ``tokenize``, and then generates and compiles the
methods of each class. Median of 15 ``python -X importtime -c "import
langdei.cli"`` runs (Python 3.11): ``dataclasses`` took 11.6 ms, and
``langdei.cli`` in all 49.2 ms with dataclasses against 32.2 ms with
``Record``.
"""

from __future__ import annotations

import math
import sys
from typing import Iterable, Mapping, Sequence

from langdei.errors import InputError, check_id

DEFAULT_C_RANGE: tuple[float, float] = (0.0, 2.0)
DEFAULT_MAX_MEMORY_GB = 16.0

MISSING_POLICIES = ("strict", "permissive")
COMPOSITION_MODES = ("best-source", "mean")


class Record:
    """A frozen record: its fields are the class annotations, in order, and a
    class attribute of a field's name is its default.

    ``__init__`` takes the fields by position or keyword and then runs
    ``__post_init__`` if the class defines one; ``repr``, ``==`` and ``hash``
    are those of a frozen dataclass. Copy and unpickle rebuild a record
    through ``__init__``, so its rule is checked again.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # __init__ is generated from source once per class, as dataclasses
        # does: a loop over *args and **kwargs builds a record two to three
        # times as slowly. It stores each field in the instance dict, past
        # the frozen __setattr__.
        super().__init_subclass__()
        own = vars(cls)
        cls._fields = fields = tuple(own.get("__annotations__", ()))
        namespace = {f"_default_{name}": own[name] for name in fields if name in own}
        params = [f"{name}=_default_{name}" if f"_default_{name}" in namespace else name for name in fields]
        body = ["values = self.__dict__"] + [f"values[{name!r}] = {name}" for name in fields]
        if hasattr(cls, "__post_init__"):
            body.append("self.__post_init__()")
        exec(f"def __init__(self, {', '.join(params)}):\n    " + "\n    ".join(body), namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class LearningCurve(Record):
    """Fitted coefficients for one (source, target) pair.

    b is negative for curves that increase with sample count; c >= 0 keeps
    predictions finite for all samples >= 1.
    """

    source: str
    target: str
    a: float
    b: float
    c: float
    r_squared: float

    def __post_init__(self) -> None:
        check_id(self.source, "source language")
        check_id(self.target, "target language")
        for name, value in (("a", self.a), ("b", self.b), ("c", self.c)):
            if not math.isfinite(value):
                raise InputError(f"curve coefficient {name} must be finite, got {value}")
        if self.c < 0:
            raise InputError(f"decay exponent must be >= 0, got {self.c}")
        if not math.isfinite(self.r_squared) or self.r_squared > 1.0:
            raise InputError(f"r-squared must be <= 1, got {self.r_squared}")


def sequential_sum(values: Iterable[float]) -> float:
    """The float sum of ``values``, added left to right from 0.0.

    The built-in ``sum`` does this up to Python 3.11; from 3.12 it
    compensates the rounding, so its totals would depend on the Python
    version.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def check_count(count: int, what: str) -> None:
    """The rule of every count (a sample count, a budget): at least 1, and at
    most the largest float, so that float arithmetic on it is defined."""
    if count < 1:
        raise InputError(f"{what} must be >= 1, got {count}")
    if count > sys.float_info.max:
        raise InputError(f"{what} must be at most {sys.float_info.max:g}, the largest float")


def check_plan_settings(budget: int, alpha: float, beta: float, missing: str, composition: str) -> None:
    """The rule of a plan's settings, for its request and for a plan file:
    weights finite, >= 0 and not both 0; options from their lists."""
    check_count(budget, "budget")
    if not (0 <= alpha < math.inf and 0 <= beta < math.inf) or alpha + beta <= 0:
        raise InputError(f"objective weights must be finite and non-negative with alpha + beta > 0, got alpha={alpha} beta={beta}")
    if missing not in MISSING_POLICIES:
        raise InputError(f"missing-curve policy must be one of {MISSING_POLICIES}, got {missing!r}")
    if composition not in COMPOSITION_MODES:
        raise InputError(f"composition mode must be one of {COMPOSITION_MODES}, got {composition!r}")


def parse_strategy(text: str) -> tuple[str, str | None]:
    """The rule of a strategy name, for ``allocate`` and for a plan file:
    greedy, egalitarian or single:<source>, as (strategy, source or None)."""
    if text in ("greedy", "egalitarian"):
        return text, None
    if text.startswith("single:") and len(text) > len("single:"):
        return "single", text.split(":", 1)[1]
    raise InputError(f"unknown strategy {text!r}; expected greedy, egalitarian, or single:<lang>")


def baseline_counts(budget: int, sources: Sequence[str], single: str | None = None) -> dict[str, int]:
    """The sample counts of a baseline strategy, for ``allocate`` and for a
    plan file: the whole budget to ``single``; with no ``single``, the
    egalitarian split, budget // |S| to each source and one more to each of
    the first budget % |S| sources in the given order."""
    if single is not None:
        return {s: budget if s == single else 0 for s in sources}
    base, remainder = divmod(budget, len(sources))
    return {s: base + (1 if i < remainder else 0) for i, s in enumerate(sources)}


def check_tau(tau: float) -> float:
    """The demand exponent tau, if it lies in [0, 1]."""
    if not (isinstance(tau, (int, float)) and 0.0 <= tau <= 1.0):  # also false for NaN
        raise InputError(f"tau must lie in [0, 1], got {tau}")
    return tau


def check_c_range(c_range: tuple[float, float]) -> tuple[float, float]:
    """The exponent search range (LO, HI) as floats, if 0 <= LO <= HI and
    both are finite."""
    lo, hi = float(c_range[0]), float(c_range[1])
    if not 0.0 <= lo <= hi < math.inf:  # also false for NaN
        raise InputError(f"invalid c range {lo:g}:{hi:g}: need 0 <= LO <= HI, both finite")
    return lo, hi


class PlanEvaluation(Record):
    """Surrogate (curve-predicted) metrics for a finished plan."""

    mode: str
    utilities: Mapping[str, float]
    m_tau: float
    gini_coeff: float


class AllocationPlan(Record):
    strategy: str
    budget: int
    counts: Mapping[str, int]
    final_gm: Mapping[str, float]
    final_gini: Mapping[str, float]
    alpha: float
    beta: float
    missing: str
    evaluation: PlanEvaluation
    trace: tuple[tuple[int, str, float, float, float], ...] = ()  # greedy rows, in io._TRACE_HEADER's order
