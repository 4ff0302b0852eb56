"""Power-law learning curves: score = a + b * samples^(-c).

Fitted per (source language, target language) pair from fine-tuning
trajectories. For a fixed exponent c the model is linear in (a, b), so the
fit runs a deterministic grid search on c with a closed-form least-squares
solve at each grid point, then refines the grid locally. No starting point,
no derivatives, no randomness. One kernel, _ols_rows, solves a whole grid
round as a (grid x points) array, one row per c; the final coefficients are
its one-row solve at the chosen c. The power-law form follows Hestness et
al. 2017 (arXiv:1712.00409).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from langdei.errors import ComputationError, InputError, check_id

DEFAULT_C_RANGE: tuple[float, float] = (0.0, 2.0)

# Grid-search shape: coarse pass over the full c range, then local rounds
# shrinking the bracket by 10x each. Eight rounds put the c error near 1e-10,
# which the recovery tolerance of the synthetic round-trip tests requires.
COARSE_GRID_POINTS = 200
REFINE_ROUNDS = 8
REFINE_GRID_POINTS = 21


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
        if self.samples < 1:
            raise InputError(f"sample count must be >= 1, got {self.samples}")
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


def predict(curve: LearningCurve, samples: float) -> float:
    """Evaluate the curve at a sample count >= 1. No clamping."""
    return float(predict_many(curve, (samples,))[0])


def predict_many(curve: LearningCurve, samples: Sequence[float]) -> np.ndarray:
    """Evaluate the curve at each sample count (all >= 1). No clamping.

    The power is Python's float pow, one element at a time, not numpy's
    vectorised power: that one can differ in the last bit depending on the
    SIMD build, and a last-bit change can flip a greedy tie, so plans would
    depend on how numpy was built.
    """
    lowest = min(samples, default=1)
    if lowest < 1:
        raise InputError(f"prediction requires samples >= 1, got {lowest}")
    powers = map(pow, map(float, samples), itertools.repeat(-curve.c))
    return curve.a + curve.b * np.fromiter(powers, float, len(samples))


def check_c_range(c_range: tuple[float, float]) -> tuple[float, float]:
    """The exponent search range (LO, HI) as floats, if 0 <= LO <= HI and
    both are finite."""
    lo, hi = float(c_range[0]), float(c_range[1])
    if not 0.0 <= lo <= hi < math.inf:  # also false for NaN
        raise InputError(f"invalid c range {lo:g}:{hi:g}: need 0 <= LO <= HI, both finite")
    return lo, hi


def _ols_rows(x: np.ndarray, y: np.ndarray, cs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best (a, b) and the residual sum of squares at each exponent in cs,
    one row per c. A row whose x^(-c) is constant (c = 0) identifies only
    a + b, and keeps b = 0."""
    u = x[None, :] ** (-cs[:, None])
    um = u.mean(axis=1)
    ym = y.mean()
    du = u - um[:, None]
    dy = y - ym
    s_uu = (du * du).sum(axis=1)
    b = np.divide((du * dy).sum(axis=1), s_uu, out=np.zeros_like(s_uu), where=s_uu > 0.0)
    resid = dy - b[:, None] * du
    return ym - b * um, b, (resid * resid).sum(axis=1)


def fit_power_law(
    points: Sequence[TrajectoryPoint],
    c_range: tuple[float, float] = DEFAULT_C_RANGE,
) -> LearningCurve:
    """Least-squares fit of a + b * x^(-c) to one pair's trajectory.

    Requires >= 3 points with >= 2 distinct sample counts, all for the same
    (source, target) pair. Exactly constant scores degenerate to the
    canonical representation (a = mean, b = 0, c = 0, R^2 = 1).
    """
    if len(points) < 3:
        raise InputError(f"power-law fit needs at least 3 points, got {len(points)}")
    pairs = {(p.source, p.target) for p in points}
    if len(pairs) != 1:
        raise InputError(f"fit expects points for exactly one pair, got {sorted(pairs)}")
    source, target = points[0].source, points[0].target
    x = np.array([p.samples for p in points], dtype=float)
    y = np.array([p.score for p in points], dtype=float)
    if np.unique(x).size < 2:
        raise InputError(f"all sample counts equal ({int(x[0])}); cannot fit a curve for ({source}, {target})")
    c_lo, c_hi = check_c_range(c_range)

    if float(y.max()) == float(y.min()):
        return LearningCurve(source, target, a=float(y[0]), b=0.0, c=0.0, r_squared=1.0)

    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0.0:
        raise ComputationError(f"score variance of ({source}, {target}) underflows to 0; r-squared is undefined")

    def best_on_grid(grid: np.ndarray) -> float:
        return float(grid[int(np.argmin(_ols_rows(x, y, grid)[2]))])

    if c_hi == c_lo:
        c_best = c_lo
    else:
        grid = np.linspace(c_lo, c_hi, COARSE_GRID_POINTS)
        c_best = best_on_grid(grid)
        half_width = float(grid[1] - grid[0])
        for _ in range(REFINE_ROUNDS):
            lo = max(c_lo, c_best - half_width)
            hi = min(c_hi, c_best + half_width)
            c_best = best_on_grid(np.linspace(lo, hi, REFINE_GRID_POINTS))
            half_width /= 10.0

    (a,), (b,), (sse,) = _ols_rows(x, y, np.array([c_best]))
    r2 = 1.0 - max(float(sse), 0.0) / ss_tot
    return LearningCurve(source, target, a=float(a), b=float(b), c=float(c_best), r_squared=min(r2, 1.0))
