"""Unit tests for power-law curve prediction and fitting."""

from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langdei import curves
from langdei.curves import (
    BATCH_ELEMENTS,
    COARSE_GRID_POINTS,
    REFINE_GRID_POINTS,
    REFINE_ROUNDS,
    LearningCurve,
    TrajectoryPoint,
    fit_power_law,
    fit_power_laws,
    predict,
    predict_many,
)
from langdei.errors import ComputationError, InputError


def make_points(a, b, c, xs, source="s", target="t"):
    return [TrajectoryPoint(source, target, int(x), a + b * float(x) ** (-c)) for x in xs]


GRID_X = [320 * k for k in range(1, 31)]


def ols_at_c(x, y, c):
    """Best (a, b) and the residual sum of squares for one fixed exponent c,
    solved on its own; b = 0 when x^(-c) is constant (c == 0)."""
    u = x ** (-c)
    um = u.mean()
    ym = y.mean()
    du = u - um
    dy = y - ym
    s_uu = float((du * du).sum())
    if s_uu <= 0.0:
        return ym, 0.0, float((dy * dy).sum())
    b = float((du * dy).sum()) / s_uu
    a = ym - b * um
    resid = dy - b * du
    return a, b, float((resid * resid).sum())


def reference_fit(points, c_range):
    """The grid search one pair and one c at a time: ols_at_c's SSE at each
    grid point, the first least SSE wins, then the same local refinement
    rounds."""
    x = np.array([p.samples for p in points], dtype=float)
    y = np.array([p.score for p in points], dtype=float)
    c_lo, c_hi = c_range
    if float(y.max()) == float(y.min()):
        return LearningCurve(points[0].source, points[0].target, a=float(y[0]), b=0.0, c=0.0, r_squared=1.0)

    def best_on_grid(grid):
        sses = [ols_at_c(x, y, float(c))[2] for c in grid]
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
    a, b, sse = ols_at_c(x, y, c_best)
    r2 = 1.0 - max(sse, 0.0) / float(((y - y.mean()) ** 2).sum())  # raises if the variance underflows
    source, target = points[0].source, points[0].target
    return LearningCurve(source, target, a=float(a), b=float(b), c=float(c_best), r_squared=min(r2, 1.0))


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


# c ranges whose refine rounds run out of float resolution, so a round's step
# (HI - LO) / 20 is 0 (it underflows, or LO = HI after rounding), for all
# pairs of a batch or, around 1 where the exponent spacing doubles, for some;
# and ranges that pin or clip c at 1 or 0.5, exponents whose powers numpy
# rounds differently for an array of exponents.
EXTREME_C_RANGES = [
    (1e8, 1e8 + 1), (0.0, 1e-310), (0.3, 0.3 + 1e-15), (5.0, 5.0), (0.0, 1e-320), (0.0, 5e-324),
    (1 - 7.5e-8, 1 + 7.5e-8), (0.0, 1.0), (1.0, 1.0), (0.5, 0.5),
]


@st.composite
def batches(draw):
    """Pairs for one fit_power_laws call: 3-40 points each with few distinct
    point counts (so batches hold several pairs), some constant, a shared c
    range, and a batch size from one pair up to the default."""
    sizes = draw(st.lists(st.integers(3, 40), min_size=1, max_size=3))
    trajectories_ = []
    for index in range(draw(st.integers(1, 16))):
        n = draw(st.sampled_from(sizes))
        xs = draw(st.lists(st.integers(1, 50_000), min_size=n, max_size=n).filter(lambda v: len(set(v)) > 1))
        if draw(st.integers(0, 5)) == 0:
            scores = [0.7] * n
        else:
            a, b, c = draw(st.floats(0.0, 2.0)), draw(st.floats(-30.0, 5.0)), draw(st.floats(0.0, 2.0))
            noise = draw(st.lists(st.sampled_from([0.0, 0.0, 1e-3, -1e-3, 0.1]), min_size=n, max_size=n))
            scores = [a + b * float(x) ** (-c) + e for x, e in zip(xs, noise)]
        trajectories_.append([TrajectoryPoint(f"s{index}", "t", x, y) for x, y in zip(xs, scores)])
    c_range = draw(st.one_of(
        st.sampled_from([(0.0, 2.0), *EXTREME_C_RANGES]),
        st.floats(0.0, 2.0).map(lambda c: (c, c)),
        st.tuples(st.floats(0.0, 1.0), st.floats(1.0, 3.0)),
    ))
    batch_elements = draw(st.sampled_from([1, COARSE_GRID_POINTS * 3 * 2, BATCH_ELEMENTS]))
    return trajectories_, c_range, batch_elements


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

    def test_range_checked_at_its_endpoints(self):
        # min() over a range walks every element; its endpoints bound it.
        curve = LearningCurve("s", "t", a=1.0, b=-1.0, c=0.5, r_squared=1.0)
        with mock.patch.object(curves, "min", create=True, wraps=min) as spy:
            assert predict_many(curve, range(9, 0, -1)).tolist() == [1.0 - k ** -0.5 for k in range(9, 0, -1)]
            with pytest.raises(InputError, match="got 0"):
                predict_many(curve, range(5, -1, -1))
        assert not any(isinstance(arg, range) for call in spy.call_args_list for arg in call.args)

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

    @settings(max_examples=40, deadline=None)
    @given(batches())
    def test_batch_equals_scalar_grid_reference(self, case):
        trajectories_, c_range, batch_elements = case
        with mock.patch.object(curves, "BATCH_ELEMENTS", batch_elements):
            fits = fit_power_laws(trajectories_, c_range)
        assert fits == [reference_fit(points, c_range) for points in trajectories_]

    @pytest.mark.parametrize("c_range", [(1.0, 1.0), (0.0, 1.0)])
    def test_batch_at_exponent_one_equals_scalar_reference(self, rng, c_range):
        # At c = 1 numpy's power rounds some x^-1 differently for an array of
        # exponents than for one scalar exponent.
        jobs = []
        for i in range(20):
            xs = np.unique(rng.integers(1, 50_000, size=8))
            a, b, c = rng.uniform(0.5, 2.5), rng.uniform(-30, -3), rng.uniform(1.0, 2.0)
            jobs.append(make_points(a, b, c, xs, source=f"s{i}"))
        assert fit_power_laws(jobs, c_range) == [reference_fit(points, c_range) for points in jobs]

    def test_first_failing_pair_raises(self):
        good = make_points(1.0, -2.0, 0.3, [320, 640, 960])
        equal_counts = [TrajectoryPoint("e", "t", 320, y) for y in (0.1, 0.2, 0.3)]
        underflow = [TrajectoryPoint("u", "t", x, y) for x, y in ((1, 1e-308), (1, 1e-308), (2, 5e-309))]
        too_few = good[:2]
        cases = [
            ([good, equal_counts, underflow, too_few], InputError, "sample counts equal"),
            ([good, underflow, equal_counts], ComputationError, "underflows"),
            ([too_few, underflow], InputError, "at least 3 points"),
            ([good, good], InputError, "invalid c range"),
        ]
        for trajectories_, error, message in cases:
            c_range = (1.0, 0.5) if message == "invalid c range" else (0.0, 2.0)
            with pytest.raises(error, match=message):
                fit_power_laws(trajectories_, c_range)
            with pytest.raises(error, match=message):  # the one-pair loop fails the same way
                [fit_power_law(points, c_range) for points in trajectories_]

    def test_underflowing_variance_is_undefined(self):
        # Distinct scores whose squared deviations underflow to 0.
        points = [TrajectoryPoint("s", "t", x, y) for x, y in ((1, 1e-308), (1, 1e-308), (2, 5e-309))]
        with pytest.raises(ComputationError, match="underflows"):
            fit_power_law(points)

    def test_c_range_checked_once_per_call(self):
        jobs = [make_points(1.0, -2.0, 0.3, GRID_X[:n], source=f"s{n}") for n in (3, 4, 5)]
        with mock.patch.object(curves, "check_c_range", wraps=curves.check_c_range) as check:
            fit_power_laws(jobs, (0.0, 2.0))
        assert check.call_count == 1

    def test_overflowing_fit_is_undefined(self):
        # Deviations of 1e160 square past the largest float. Pairs of 3 points
        # are fitted in a batch before pairs of 4, yet the first overflowing
        # pair in input order names the error.
        def pair(source, scores):
            return [TrajectoryPoint(source, "t", 10 ** k, y) for k, y in enumerate(scores)]

        good = make_points(1.0, -2.0, 0.3, [320, 640, 960])
        four, three = pair("f", (1.0, 1e160, 2.0, 3.0)), pair("h", (1.0, 1e160, 2.0))
        with pytest.raises(ComputationError, match=r"fit of \(f, t\) is undefined: its sums overflow a float"):
            fit_power_laws([good, four, three])
        with pytest.raises(ComputationError, match=r"fit of \(h, t\) is undefined"):
            fit_power_laws([three, good, four])
        assert fit_power_law(pair("h", (1.0, 1e150, 2.0))).r_squared <= 1.0  # its sums stay finite

    def test_invalid_c_range_rejected(self):
        with pytest.raises(InputError):
            fit_power_law(make_points(1.0, -2.0, 0.3, GRID_X), c_range=(-0.1, 2.0))
        with pytest.raises(InputError):
            fit_power_law(make_points(1.0, -2.0, 0.3, GRID_X), c_range=(1.0, 0.5))


def test_curve_validation():
    with pytest.raises(InputError):
        LearningCurve("s", "t", a=1.0, b=-1.0, c=-0.1, r_squared=0.5)
    with pytest.raises(InputError):
        LearningCurve("s", "t", a=1.0, b=-1.0, c=0.1, r_squared=1.5)
    with pytest.raises(InputError):
        TrajectoryPoint("s", "t", 0, 0.5)
