"""Power-law learning curves: score = a + b * samples^(-c).

Fitted per (source language, target language) pair from fine-tuning
trajectories. For a fixed exponent c the model is linear in (a, b), so the
fit runs a deterministic grid search on c with a closed-form least-squares
solve at each grid point, then refines the grid locally. No starting point,
no derivatives, no randomness. fit_power_laws fits many pairs at once:
pairs with the same number of points share one (pairs x grid x points)
array per grid round, in batches capped by element count, and one kernel,
_ols_rows, solves every round and the final one-c solve of each pair. Each
curve is bit-identical to fitting its pair alone (fit_power_law). The
power-law form follows Hestness et al. 2017 (arXiv:1712.00409).

LearningCurve, DEFAULT_C_RANGE and check_c_range live in langdei.records,
which needs no numpy; they resolve here as well.
"""

from __future__ import annotations

import itertools
import math
from pathlib import Path
from typing import Sequence

import numpy as np

from langdei import io
from langdei.errors import ComputationError, InputError, check_id
from langdei.records import DEFAULT_C_RANGE, LearningCurve, Record, check_c_range, check_count

# Grid-search shape: coarse pass over the full c range, then local rounds
# shrinking the bracket by 10x each. Eight rounds put the c error near 1e-10,
# which the recovery tolerance of the synthetic round-trip tests requires.
COARSE_GRID_POINTS = 200
REFINE_ROUNDS = 8
REFINE_GRID_POINTS = 21
# The fewest trajectory points a fit takes.
MIN_POINTS = 3
# Elements of one (pairs x grid x points) temporary: pairs of one point count
# are fitted this many grid-by-point cells at a time, so memory stays flat.
BATCH_ELEMENTS = 32_768


class TrajectoryPoint(Record):
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


def predict(curve: LearningCurve, samples: float) -> float:
    """Evaluate the curve at a sample count >= 1. No clamping. The power is
    Python's float pow, as the allocator takes it (``allocator._source_state``)."""
    if samples < 1:
        raise InputError(f"prediction requires samples >= 1, got {samples}")
    return curve.a + curve.b * float(samples) ** -curve.c


def _ols_rows(u: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best (a, b) and residual sum of squares as (pairs x exponents) arrays,
    from pair p's scores y[p] and powers u[p, j] = x[p]^(-c_pj). Reductions
    run along the point axis, so each entry is bit-identical to solving one
    pair at one c. A row whose u is constant (c = 0) keeps b = 0."""
    um = u.mean(axis=2)
    ym = y.mean(axis=1)[:, None]
    du = u - um[:, :, None]
    dy = (y - ym)[:, None, :]
    s_uu = (du * du).sum(axis=2)
    b = np.divide((du * dy).sum(axis=2), s_uu, out=np.zeros_like(s_uu), where=s_uu > 0.0)
    resid = dy - b[:, :, None] * du
    return ym - b * um, b, (resid * resid).sum(axis=2)


def _checked(points: Sequence[TrajectoryPoint]) -> tuple:
    """One pair's sample counts, scores, total sum of squares, and canonical
    curve if its scores are exactly constant (else None), checked."""
    if len(points) < MIN_POINTS:
        raise InputError(f"power-law fit needs at least {MIN_POINTS} points, got {len(points)}")
    pairs = {(p.source, p.target) for p in points}
    if len(pairs) != 1:
        raise InputError(f"fit expects points for exactly one pair, got {sorted(pairs)}")
    source, target = points[0].source, points[0].target
    x = np.array([p.samples for p in points], dtype=float)
    y = np.array([p.score for p in points], dtype=float)
    if x.min() == x.max():
        raise InputError(f"all sample counts equal ({int(x[0])}); cannot fit a curve for ({source}, {target})")
    if float(y.max()) == float(y.min()):
        return x, y, 0.0, LearningCurve(source, target, a=float(y[0]), b=0.0, c=0.0, r_squared=1.0)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0.0:
        raise ComputationError(f"score variance of ({source}, {target}) underflows to 0; r-squared is undefined")
    return x, y, ss_tot, None


def _search_c(x: np.ndarray, y: np.ndarray, c_lo: float, c_hi: float) -> list[float]:
    """The grid-search exponent of each pair (row of x and y)."""

    def best_on_grids(grids: np.ndarray) -> np.ndarray:  # each row's first least residual
        best = np.argmin(_ols_rows(x[:, None, :] ** -grids[:, :, None], y)[2], axis=1)
        return grids[np.arange(len(grids)), best]

    grid = np.linspace(c_lo, c_hi, COARSE_GRID_POINTS)
    c_best = best_on_grids(np.broadcast_to(grid, (len(x), grid.size)))
    half_width = float(grid[1] - grid[0])
    for _ in range(REFINE_ROUNDS):
        lo = np.maximum(c_lo, c_best - half_width)
        hi = np.minimum(c_hi, c_best + half_width)
        grids = np.linspace(lo, hi, REFINE_GRID_POINTS, axis=1)
        tiny = (hi - lo) / (REFINE_GRID_POINTS - 1) == 0.0
        if tiny.any():  # then linspace took its zero-step branch for every row
            grids[~tiny] = np.linspace(lo[~tiny], hi[~tiny], REFINE_GRID_POINTS, axis=1)
        c_best = best_on_grids(grids)
        half_width /= 10.0
    return c_best.tolist()


@np.errstate(all="ignore")  # an overflowing fit is not finite, and raises at the end
def fit_power_laws(
    trajectories: Sequence[Sequence[TrajectoryPoint]],
    c_range: tuple[float, float] = DEFAULT_C_RANGE,
) -> list[LearningCurve]:
    """Least-squares fit of a + b * x^(-c) to each pair's trajectory, in order.

    Each trajectory needs >= MIN_POINTS points with >= 2 distinct sample
    counts, all for one (source, target) pair; the c range and then every
    pair, in order, are checked before any is fitted. Exactly constant
    scores degenerate to the canonical curve (a = mean, b = 0, c = 0, R^2 =
    1). The others are fitted in batches of one point count, of at most
    BATCH_ELEMENTS (pairs x grid x points) elements. A fit whose a, b or
    sums of squares overflow a float is undefined: the first such pair in
    input order raises a ComputationError.
    """
    c_lo, c_hi = check_c_range(c_range)
    checked = [_checked(points) for points in trajectories]
    fits = [canonical for *_, canonical in checked]
    pending = sorted((x.size, i) for i, (x, *_, canonical) in enumerate(checked) if canonical is None)
    for size, group in itertools.groupby(pending, key=lambda entry: entry[0]):
        indices = [i for _, i in group]
        step = max(1, BATCH_ELEMENTS // (COARSE_GRID_POINTS * size))
        for batch in (indices[j:j + step] for j in range(0, len(indices), step)):
            x, y = (np.array([checked[i][k] for i in batch]) for k in (0, 1))
            c_best = _search_c(x, y, c_lo, c_hi)
            # Each pair's powers at its c as a scalar exponent, as a one-pair
            # fit takes them: numpy's power can round the last bit otherwise
            # for an array of exponents.
            u = np.stack([x_p ** -c_p for x_p, c_p in zip(x, c_best)])[:, None, :]
            a, b, sse = (column[:, 0].tolist() for column in _ols_rows(u, y))
            for i, a_i, b_i, c_i, sse_i in zip(batch, a, b, c_best, sse):
                if all(map(math.isfinite, (a_i, b_i, sse_i, checked[i][2]))):  # else fits[i] stays None
                    r2 = 1.0 - max(sse_i, 0.0) / checked[i][2]
                    source, target = trajectories[i][0].source, trajectories[i][0].target
                    fits[i] = LearningCurve(source, target, a=a_i, b=b_i, c=c_i, r_squared=min(r2, 1.0))
    for points, fit in zip(trajectories, fits):
        if fit is None:
            raise ComputationError(f"fit of ({points[0].source}, {points[0].target}) is undefined: its sums overflow a float")
    return fits


def fit_power_law(points: Sequence[TrajectoryPoint]) -> LearningCurve:
    """fit_power_laws of one pair's trajectory, over the default c range."""
    return fit_power_laws([points])[0]


def load_trajectories(path: str | Path, scale: str = "percent") -> dict[tuple[str, str], list[TrajectoryPoint]]:
    """CSV with header ``source,target,samples,score``.

    Scores are normalized to the unit scale internally; sample counts must be
    strictly increasing within each pair.
    """
    io._check_scale(scale)
    factor = 0.01 if scale == "percent" else 1.0
    pairs: dict[tuple[str, str], list[TrajectoryPoint]] = {}
    for where, (source, target, samples_text, score_text) in io._read_csv_rows(
        path, ("source", "target", "samples", "score")
    ):
        point = io._located(
            where, TrajectoryPoint, source, target,
            io._parse_int(samples_text, where), io._parse_float(score_text, where) * factor,
        )
        points = pairs.setdefault((source, target), [])
        if points and point.samples <= points[-1].samples:
            raise InputError(
                f"{where}: sample counts for pair ({source}, {target}) must be strictly increasing "
                f"({point.samples} after {points[-1].samples})"
            )
        points.append(point)
    return pairs
