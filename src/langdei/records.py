"""Record types, option vocabularies and value rules shared by the file
formats, the argument parser and the numeric modules.

This module needs no numpy, so ``io`` and ``cli`` import it at start-up and
the subcommands that only read or write records (``efficiency``, ``report``)
never load numpy. ``curves`` and ``allocator`` import these names, so each
also resolves there: ``curves.LearningCurve``, ``allocator.AllocationPlan``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Mapping

from langdei.errors import InputError, check_id

DEFAULT_C_RANGE: tuple[float, float] = (0.0, 2.0)

MISSING_POLICIES = ("strict", "permissive")
COMPOSITION_MODES = ("best-source", "mean")


@dataclass(frozen=True)
class TrajectoryPoint:
    """One observed (training samples, score) measurement for a language pair."""

    source: str
    target: str
    samples: int
    score: float

    def __post_init__(self) -> None:
        check_id(self.source, "source language")
        check_id(self.target, "target language")
        check_count(self.samples, "sample count")
        if not math.isfinite(self.score):
            raise InputError(f"score must be finite, got {self.score}")


@dataclass(frozen=True)
class LearningCurve:
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


@dataclass(frozen=True, slots=True)
class TraceStep:
    step: int
    source: str
    marginal_gain: float
    gm: float
    gini: float


@dataclass(frozen=True)
class PlanEvaluation:
    """Surrogate (curve-predicted) metrics for a finished plan."""

    mode: str
    utilities: Mapping[str, float]
    m_tau: float
    gini_coeff: float


@dataclass(frozen=True)
class AllocationPlan:
    strategy: str
    budget: int
    counts: Mapping[str, int]
    final_gm: Mapping[str, float]
    final_gini: Mapping[str, float]
    alpha: float
    beta: float
    missing: str
    evaluation: PlanEvaluation
    trace: tuple[TraceStep, ...] = ()
