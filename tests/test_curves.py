"""Unit tests for power-law curve prediction and fitting."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langdei.curves import (
    COARSE_GRID_POINTS,
    REFINE_GRID_POINTS,
    REFINE_ROUNDS,
    LearningCurve,
    TrajectoryPoint,
    _ols_at_c,
    fit_power_law,
    predict,
    r_squared,
)
from langdei.errors import ComputationError, InputError


def make_points(a, b, c, xs, source="s", target="t"):
    return [TrajectoryPoint(source, target, int(x), a + b * float(x) ** (-c)) for x in xs]


GRID_X = [320 * k for k in range(1, 31)]


def reference_fit(points, c_range):
    """The grid search one c at a time: _ols_at_c's SSE at each grid point,
    the first least SSE wins, then the same local refinement rounds."""
    x = np.array([p.samples for p in points], dtype=float)
    y = np.array([p.score for p in points], dtype=float)
    c_lo, c_hi = c_range
    if float(y.max()) == float(y.min()):
        return LearningCurve("s", "t", a=float(y[0]), b=0.0, c=0.0, r_squared=1.0)

    def best_on_grid(grid):
        sses = [_ols_at_c(x, y, float(c))[2] for c in grid]
        return float(grid[int(np.argmin(sses))])

    c_best = c_lo
    if c_hi != c_lo:
        grid = np.linspace(c_lo, c_hi, COARSE_GRID_POINTS)
        c_best = best_on_grid(grid)
        half_width = float(grid[1] - grid[0])
        for _ in range(REFINE_ROUNDS):
            lo = max(c_lo, c_best - half_width)
            hi = min(c_hi, c_best + half_width)
            c_best = best_on_grid(np.linspace(lo, hi, REFINE_GRID_POINTS))
            half_width /= 10.0
    a, b, sse = _ols_at_c(x, y, c_best)
    r2 = 1.0 - max(sse, 0.0) / float(((y - y.mean()) ** 2).sum())  # raises if the variance underflows
    return LearningCurve("s", "t", a=float(a), b=float(b), c=float(c_best), r_squared=min(r2, 1.0))


@st.composite
def trajectories(draw):
    """3-13 points with at least two distinct sample counts, noisy or exact
    power-law scores, and a c range that may be a single point or start at 0."""
    n = draw(st.integers(3, 13))
    xs = draw(st.lists(st.integers(1, 50_000), min_size=n, max_size=n).filter(lambda v: len(set(v)) > 1))
    a, b, c = draw(st.floats(0.0, 2.0)), draw(st.floats(-30.0, 5.0)), draw(st.floats(0.0, 2.0))
    noise = draw(st.lists(st.sampled_from([0.0, 0.0, 1e-3, -1e-3, 0.1]), min_size=n, max_size=n))
    points = [TrajectoryPoint("s", "t", x, a + b * float(x) ** (-c) + e) for x, e in zip(xs, noise)]
    c_range = draw(st.one_of(
        st.just((0.0, 2.0)),
        st.tuples(st.just(0.0), st.sampled_from([0.0, 0.5, 1.0, 3.0])),
        st.floats(0.0, 2.0).map(lambda c: (c, c)),
        st.tuples(st.floats(0.0, 1.0), st.floats(1.0, 3.0)),
    ))
    return points, c_range


class TestPredict:
    def test_one_decimal_coefficients(self):
        curve = LearningCurve("bn", "bn", a=1.2, b=-29.0, c=0.5, r_squared=0.88)
        assert predict(curve, 10_000) == pytest.approx(1.2 - 29.0 * 0.01, abs=1e-12)

    def test_zero_exponent_is_constant(self):
        curve = LearningCurve("s", "t", a=5.2, b=-7.0, c=0.0, r_squared=0.91)
        for x in (1, 320, 10**9):
            assert predict(curve, x) == pytest.approx(-1.8)

    def test_asymptote(self):
        # |f(x) - a| = |b| * x^-c; at c = 0.5 and x = 1e12 that is 1e-6 |b|.
        curve = LearningCurve("s", "t", a=1.0, b=-8.0, c=0.5, r_squared=1.0)
        assert abs(predict(curve, 10**12) - curve.a) <= 1e-6 * abs(curve.b) * (1 + 1e-12)
        # The general rate: c >= 0.1 reaches the same tolerance at x = 1e60.
        slow = LearningCurve("s", "t", a=1.0, b=-8.0, c=0.1, r_squared=1.0)
        assert abs(predict(slow, 10**60) - slow.a) <= 1e-6 * abs(slow.b) * (1 + 1e-12)

    def test_negative_values_allowed_at_small_x(self):
        curve = LearningCurve("s", "t", a=1.2, b=-29.0, c=0.5, r_squared=0.88)
        assert predict(curve, 1) == pytest.approx(-27.8)

    def test_samples_below_one_rejected(self):
        curve = LearningCurve("s", "t", a=1.0, b=-1.0, c=0.5, r_squared=1.0)
        with pytest.raises(InputError):
            predict(curve, 0)

    def test_monotone_increasing_for_negative_b(self, rng):
        for _ in range(50):
            curve = LearningCurve(
                "s", "t",
                a=float(rng.uniform(0.5, 2.5)),
                b=float(rng.uniform(-30, -3)),
                c=float(rng.uniform(0.05, 0.6)),
                r_squared=1.0,
            )
            xs = np.unique(rng.integers(1, 10_000, size=20))
            preds = [predict(curve, int(x)) for x in xs]
            assert all(p1 < p2 for p1, p2 in zip(preds, preds[1:]))


class TestFit:
    def test_noiseless_round_trip(self):
        a, b, c = 0.9, -8.0, 0.35
        curve = fit_power_law(make_points(a, b, c, GRID_X))
        assert curve.a == pytest.approx(a, rel=1e-3)
        assert curve.b == pytest.approx(b, rel=1e-3)
        assert curve.c == pytest.approx(c, rel=1e-3)
        assert curve.r_squared >= 1 - 1e-9

    def test_constant_data_degenerates_canonically(self):
        points = [TrajectoryPoint("s", "t", x, 0.7) for x in (320, 640, 960)]
        curve = fit_power_law(points)
        assert (curve.a, curve.b, curve.c, curve.r_squared) == (0.7, 0.0, 0.0, 1.0)
        assert predict(curve, 123_456) == 0.7

    def test_pinned_exponent_interpolates_exactly(self):
        points = make_points(1.1, -4.0, 0.5, [320, 640, 1280])
        curve = fit_power_law(points, c_range=(0.5, 0.5))
        assert curve.c == 0.5
        assert curve.a == pytest.approx(1.1, abs=1e-9)
        assert curve.b == pytest.approx(-4.0, abs=1e-9)
        assert curve.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_too_few_points_rejected(self):
        with pytest.raises(InputError):
            fit_power_law(make_points(1.0, -2.0, 0.3, [320, 640]))

    def test_equal_sample_counts_rejected(self):
        points = [TrajectoryPoint("s", "t", 320, y) for y in (0.1, 0.2, 0.3)]
        with pytest.raises(InputError, match="sample counts equal"):
            fit_power_law(points)

    def test_mixed_pairs_rejected(self):
        points = make_points(1.0, -2.0, 0.3, [320, 640]) + make_points(
            1.0, -2.0, 0.3, [960], source="other"
        )
        with pytest.raises(InputError, match="one pair"):
            fit_power_law(points)

    def test_fit_is_locally_optimal(self, rng):
        for _ in range(20):
            a = float(rng.uniform(0.5, 2.5))
            b = float(rng.uniform(-30, -3))
            c = float(rng.uniform(0.05, 0.6))
            noise = rng.normal(0, 0.01, size=len(GRID_X))
            points = [
                TrajectoryPoint("s", "t", x, a + b * x ** (-c) + float(e))
                for x, e in zip(GRID_X, noise)
            ]
            fitted = fit_power_law(points)

            def sse(pa, pb, pc):
                trial = LearningCurve("s", "t", pa, pb, pc, 0.0)
                return sum((predict(trial, p.samples) - p.score) ** 2 for p in points)

            base = sse(fitted.a, fitted.b, fitted.c)
            for factor in (0.99, 1.01):
                assert sse(fitted.a * factor, fitted.b, fitted.c) >= base - 1e-12
                assert sse(fitted.a, fitted.b * factor, fitted.c) >= base - 1e-12
                assert sse(fitted.a, fitted.b, fitted.c * factor) >= base - 1e-10

    def test_r_squared_never_below_constant_model(self, rng):
        for _ in range(20):
            ys = rng.uniform(0, 1, size=10)
            points = [TrajectoryPoint("s", "t", 320 * (i + 1), float(y)) for i, y in enumerate(ys)]
            assert fit_power_law(points).r_squared >= 0.0

    def test_parallel_fits_match_sequential(self, rng):
        jobs = []
        for i in range(8):
            a = float(rng.uniform(0.5, 2.5))
            b = float(rng.uniform(-30, -3))
            c = float(rng.uniform(0.05, 0.6))
            jobs.append(make_points(a, b, c, GRID_X, source=f"s{i}"))
        sequential = [fit_power_law(points) for points in jobs]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(fit_power_law, jobs))
        assert sequential == threaded

    @settings(max_examples=150, deadline=None)
    @given(trajectories())
    def test_equals_scalar_grid_reference(self, case):
        points, c_range = case
        try:
            expected = reference_fit(points, c_range)
        except ZeroDivisionError:
            with pytest.raises(ComputationError, match="underflows"):
                fit_power_law(points, c_range=c_range)
        else:
            assert fit_power_law(points, c_range=c_range) == expected

    def test_underflowing_variance_is_undefined(self):
        # Distinct scores whose squared deviations underflow to 0.
        points = [TrajectoryPoint("s", "t", x, y) for x, y in ((1, 1e-308), (1, 1e-308), (2, 5e-309))]
        with pytest.raises(ComputationError, match="underflows"):
            fit_power_law(points)

    def test_invalid_c_range_rejected(self):
        with pytest.raises(InputError):
            fit_power_law(make_points(1.0, -2.0, 0.3, GRID_X), c_range=(-0.1, 2.0))
        with pytest.raises(InputError):
            fit_power_law(make_points(1.0, -2.0, 0.3, GRID_X), c_range=(1.0, 0.5))


class TestRSquared:
    def test_perfect_fit(self):
        curve = LearningCurve("s", "t", 1.0, -2.0, 0.3, r_squared=1.0)
        assert r_squared(make_points(1.0, -2.0, 0.3, GRID_X), curve) == pytest.approx(1.0)

    def test_constant_mean_curve_scores_zero(self):
        points = [TrajectoryPoint("s", "t", x, y) for x, y in ((320, 0.2), (640, 0.4), (960, 0.6))]
        mean_curve = LearningCurve("s", "t", a=0.4, b=0.0, c=0.0, r_squared=0.0)
        assert r_squared(points, mean_curve) == pytest.approx(0.0)

    def test_constant_data_with_residual_is_undefined(self):
        points = [TrajectoryPoint("s", "t", x, 0.5) for x in (320, 640)]
        off_curve = LearningCurve("s", "t", a=0.9, b=0.0, c=0.0, r_squared=0.0)
        with pytest.raises(ComputationError):
            r_squared(points, off_curve)

    def test_constant_data_perfectly_fit(self):
        points = [TrajectoryPoint("s", "t", x, 0.5) for x in (320, 640)]
        flat = LearningCurve("s", "t", a=0.5, b=0.0, c=0.0, r_squared=1.0)
        assert r_squared(points, flat) == 1.0

    def test_single_point_rejected(self):
        flat = LearningCurve("s", "t", a=0.5, b=0.0, c=0.0, r_squared=1.0)
        with pytest.raises(InputError):
            r_squared([TrajectoryPoint("s", "t", 320, 0.5)], flat)


def test_curve_validation():
    with pytest.raises(InputError):
        LearningCurve("s", "t", a=1.0, b=-1.0, c=-0.1, r_squared=0.5)
    with pytest.raises(InputError):
        LearningCurve("s", "t", a=1.0, b=-1.0, c=0.1, r_squared=1.5)
    with pytest.raises(InputError):
        TrajectoryPoint("s", "t", 0, 0.5)
