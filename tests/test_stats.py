import ast
import io
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dtnspeed.cli import write_curve
from dtnspeed import stats
from dtnspeed.kernel import (
    BoundStatus,
    KernelPoint,
    ModelParams,
    SpeedBound,
    speed_bound,
)
from dtnspeed.sim import InfectionRecord
from dtnspeed.stats import (
    SlopeFit,
    StatsError,
    build_curve,
    check_bound,
    curve_r_squared,
    fit_slope,
    front_records,
)


def rec(t, d, node=0):
    return InfectionRecord(node_id=node, infection_time=t, distance=d)


def synthetic_line(slope, intercept, n, noise, seed=0):
    rng = np.random.default_rng(seed)
    ds = rng.uniform(0.0, 50.0, n)
    ts = intercept + slope * ds + rng.normal(0.0, noise, n)
    return [rec(float(t), float(d), node=i) for i, (t, d) in enumerate(zip(ts, ds))]


class TestBuildCurve:
    def test_single_record(self):
        curve = build_curve([rec(3.0, 2.5)], 1.0)
        assert len(curve.bins) == 1
        b = curve.bins[0]
        assert b.distance_center == 2.5
        assert b.mean_time == 3.0
        assert b.std_error == 0.0
        assert b.sample_count == 1

    def test_same_bin_mean(self):
        curve = build_curve([rec(1.0, 2.2), rec(3.0, 2.8)], 1.0)
        assert curve.bins[0].mean_time == 2.0

    def test_empty(self):
        assert build_curve([], 1.0).bins == []

    def test_bad_width(self):
        with pytest.raises(StatsError):
            build_curve([rec(1.0, 1.0)], 0.0)

    @pytest.mark.parametrize("width", [math.nan, math.inf])
    def test_non_finite_width(self, width):
        # NaN used to fail in int(), inf to make one bin centred at inf
        with pytest.raises(StatsError, match="bin_width must be finite"):
            build_curve([rec(1.0, 1.0)], width)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["distance", "infection_time"])
    def test_non_finite_record_refused(self, field, bad):
        # a NaN distance used to fail in int(), a NaN time to make a NaN mean
        records = [rec(1.0, 1.0), replace(rec(2.0, 2.0), **{field: bad})]
        with pytest.raises(StatsError, match=f"record {field} must be finite"):
            build_curve(records, 1.0)

    def test_counts_preserved(self):
        records = synthetic_line(2.0, 0.0, 500, 0.1)
        curve = build_curve(records, 2.5)
        assert sum(b.sample_count for b in curve.bins) == len(records)

    def test_synthetic_means_within_stderr(self):
        records = synthetic_line(2.0, 0.0, 10_000, 0.1, seed=4)
        curve = build_curve(records, 1.0)
        for b in curve.bins:
            if b.sample_count > 30:
                assert abs(b.mean_time - 2.0 * b.distance_center) < max(
                    3.0 * b.std_error, 0.1
                )

    def test_bins_sorted(self):
        records = synthetic_line(1.0, 0.0, 200, 0.0)
        centers = [b.distance_center for b in build_curve(records, 1.0).bins]
        assert centers == sorted(centers)


class TestFitSlope:
    def test_exact_line(self):
        records = [rec(0.8 * d + 1.0, d) for d in np.linspace(0.0, 20.0, 40)]
        fit = fit_slope(records, 0.0)
        assert fit.slope == pytest.approx(0.8, abs=1e-12)
        assert fit.intercept == pytest.approx(1.0, abs=1e-10)
        assert fit.slope_std_error == pytest.approx(0.0, abs=1e-12)

    def test_noisy_line(self):
        records = synthetic_line(0.8, 1.0, 10_000, 0.05, seed=9)
        fit = fit_slope(records, 0.0)
        assert abs(fit.slope - 0.8) < 3.0 * fit.slope_std_error

    def test_too_few_records(self):
        # the message names the whole window, in the shape perfbench parses
        with pytest.raises(StatsError) as err:
            fit_slope([rec(1.0, 1.0)] * 9 + [rec(2.0, 20.0)], 0.0, 12.0)
        assert str(err.value) == (
            "need at least 10 records with distance in [0.0, 12.0], got 9"
        )

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["distance", "infection_time"])
    def test_non_finite_record_refused(self, field, bad):
        # a NaN time in the window used to give a NaN slope
        records = synthetic_line(2.0, 1.0, 20, 0.1)
        records[5] = replace(records[5], **{field: bad})
        with pytest.raises(StatsError, match=f"record {field} must be finite"):
            fit_slope(records, 0.0)

    def test_degenerate_design(self):
        with pytest.raises(StatsError, match="one distance"):
            fit_slope([rec(float(i), 3.0) for i in range(20)], 0.0)

    def test_d_min_filters(self):
        records = [rec(100.0, 1.0)] * 5 + [
            rec(2.0 * d, d) for d in np.linspace(5.0, 30.0, 50)
        ]
        fit = fit_slope(records, 5.0)
        assert fit.slope == pytest.approx(2.0, abs=1e-9)
        assert fit.fit_window[0] == 5.0

    def test_d_max_filters(self):
        records = [rec(2.0 * d, d) for d in np.linspace(5.0, 30.0, 50)]
        records += [rec(1000.0, 40.0)] * 5
        fit = fit_slope(records, 5.0, d_max=30.0)
        assert fit.slope == pytest.approx(2.0, abs=1e-9)

    def test_shuffle_invariance(self):
        records = synthetic_line(1.5, 2.0, 500, 0.3, seed=1)
        fit_a = fit_slope(records, 0.0)
        rng = np.random.default_rng(2)
        shuffled = list(records)
        rng.shuffle(shuffled)
        fit_b = fit_slope(shuffled, 0.0)
        assert fit_a.slope == pytest.approx(fit_b.slope, rel=1e-12)

    def test_scale_covariance(self):
        records = synthetic_line(1.5, 2.0, 300, 0.2, seed=3)
        base = fit_slope(records, 0.0)
        c = 3.0
        both = [rec(r.infection_time * c, r.distance * c) for r in records]
        times_only = [rec(r.infection_time * c, r.distance) for r in records]
        assert fit_slope(both, 0.0).slope == pytest.approx(base.slope, rel=1e-12)
        assert fit_slope(times_only, 0.0).slope == pytest.approx(
            c * base.slope, rel=1e-12
        )


class TestFrontRecords:
    def test_running_maximum(self):
        records = [rec(0.0, 0.0), rec(1.0, 3.0), rec(2.0, 2.0), rec(3.0, 5.0)]
        out = front_records(records)
        assert [r.distance for r in out] == [0.0, 3.0, 5.0]

    def test_monotone_in_time_and_distance(self):
        records = synthetic_line(1.0, 0.0, 200, 5.0, seed=8)
        out = front_records(records)
        times = [r.infection_time for r in out]
        dists = [r.distance for r in out]
        assert times == sorted(times)
        assert dists == sorted(dists)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["distance", "infection_time"])
    def test_non_finite_record_refused(self, field, bad):
        # a NaN time sorts anywhere, so it could cut the front short or
        # drop the source; a NaN distance would be skipped silently
        records = [rec(0.0, 0.0), rec(1.0, 50.0), rec(1.0, 2.0), rec(2.0, 3.0)]
        records[1] = replace(records[1], **{field: bad})
        with pytest.raises(StatsError, match=f"record {field} must be finite"):
            front_records(records)


class TestCurveRSquared:
    def test_exact_line_is_one(self):
        # records placed exactly at bin centers so binning adds no offset
        curve = build_curve([rec(2.0 * (k + 0.5), k + 0.5) for k in range(20)], 1.0)
        assert curve_r_squared(curve, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_flat_bins_are_one(self):
        # equal mean times leave nothing to explain: R^2 is 1, not 0/0
        curve = build_curve([rec(3.0, k + 0.5) for k in range(6)], 1.0)
        assert curve_r_squared(curve, 0.0) == 1.0

    def test_needs_three_bins(self):
        curve = build_curve([rec(1.0, 0.5), rec(2.0, 1.5)], 1.0)
        with pytest.raises(StatsError, match=r"in \[0.0, inf\], got 2"):
            curve_r_squared(curve, 0.0)

    @pytest.mark.parametrize("d_max", [20.0, 30.0, 40.0])
    def test_uncropped_curve_gives_the_same_value(self, d_max):
        # with d_max a multiple of the bin width, no bin whose center is in
        # the window holds a record past d_max: cropping the records at
        # d_max first leaves R^2 bit-equal, records at d_max and one ulp
        # below it included
        records = synthetic_line(1.2, 3.0, 2000, 2.0, seed=4)
        edge = math.nextafter(d_max, 0.0)
        records += [rec(1.2 * d + 7.0, d, node=1) for d in (d_max, edge) * 5]
        cropped = [r for r in records if r.distance <= d_max]
        assert len(cropped) < len(records)
        full = curve_r_squared(build_curve(records, 2.0), 5.0, d_max)
        assert full == curve_r_squared(build_curve(cropped, 2.0), 5.0, d_max)


@pytest.mark.parametrize("d_min,d_max", [(8.0, 2.0), (5.0, 5.0), (math.nan, 20.0),
                                         (5.0, math.nan), (math.inf, math.inf)])
@pytest.mark.parametrize("statistic", ["fit_slope", "curve_r_squared"])
def test_window_not_increasing_is_refused(statistic, d_min, d_max):
    # an empty or NaN window used to read as too few records past d_min
    records = synthetic_line(2.0, 1.0, 200, 0.1)
    data = records if statistic == "fit_slope" else build_curve(records, 2.0)
    with pytest.raises(StatsError, match="fit window needs d_min < d_max") as err:
        getattr(stats, statistic)(data, d_min, d_max)
    assert f"d_min={d_min}, d_max={d_max}" in str(err.value)


def finite_bound(speed):
    return SpeedBound(
        status=BoundStatus.FINITE,
        slowness=1.0 / speed,
        speed=speed,
        argmin=KernelPoint(1.0, speed),
    )


class TestCheckBound:
    def test_pass(self):
        fit = SlopeFit(slope=1.2, intercept=0.0, slope_std_error=0.01, fit_window=(5, 50))
        report = check_bound(fit, finite_bound(1.0))
        assert report.passed
        assert report.margin == pytest.approx(0.2)

    def test_fail(self):
        fit = SlopeFit(slope=0.5, intercept=0.0, slope_std_error=0.01, fit_window=(5, 50))
        report = check_bound(fit, finite_bound(1.0))
        assert not report.passed

    def test_two_stderr_tolerance(self):
        fit = SlopeFit(slope=0.95, intercept=0.0, slope_std_error=0.03, fit_window=(5, 50))
        assert check_bound(fit, finite_bound(1.0)).passed

    def test_unbounded_always_passes(self):
        fit = SlopeFit(slope=0.01, intercept=0.0, slope_std_error=0.0, fit_window=(5, 50))
        report = check_bound(
            fit, SpeedBound(status=BoundStatus.UNBOUNDED, slowness=0.0)
        )
        assert report.passed
        assert report.theoretical_slowness == 0.0

    def test_degenerate_zero_density_refused(self):
        # slowness +inf by kernel's convention: no fit can be checked
        # against it, and reading it as 0 would pass any fit
        bound = speed_bound(ModelParams(d=2, nu=0.0, v=1.0, tau=0.1))
        assert bound.status == BoundStatus.DEGENERATE_ZERO_DENSITY
        fit = SlopeFit(slope=1.2, intercept=0.0, slope_std_error=0.01, fit_window=(5, 50))
        with pytest.raises(StatsError, match="bound slowness must be finite, got inf"):
            check_bound(fit, bound)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["slope", "slope_std_error"])
    def test_non_finite_fit_refused(self, field, bad):
        # a NaN slope or stderr would read as FAIL, an infinite one as
        # PASS or FAIL by its sign
        fit = SlopeFit(slope=1.2, intercept=0.0, slope_std_error=0.01, fit_window=(5, 50))
        with pytest.raises(StatsError, match="must be finite"):
            check_bound(replace(fit, **{field: bad}), finite_bound(1.0))

    def test_negative_stderr_refused(self):
        fit = SlopeFit(slope=0.5, intercept=0.0, slope_std_error=-1.0, fit_window=(5, 50))
        with pytest.raises(StatsError, match="slope stderr must be >= 0"):
            check_bound(fit, finite_bound(1.0))

    def test_json_round_trip(self):
        fit = SlopeFit(slope=1.2, intercept=0.0, slope_std_error=0.01, fit_window=(5, 50))
        report = check_bound(fit, finite_bound(1.0))
        doc = json.loads(report.to_json())
        assert doc["pass"] is True
        assert doc["fitted_slowness"] == 1.2
        assert "PASS" in report.describe()


def test_stats_imports_nothing_from_the_package():
    # check_bound reads the bound's own slowness, not kernel's statuses
    tree = ast.parse(Path(stats.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and not node.module.startswith("dtnspeed")
        elif isinstance(node, ast.Import):
            assert not any(alias.name.startswith("dtnspeed") for alias in node.names)


class TestWriters:
    def test_curve_csv(self):
        curve = build_curve([rec(1.0, 0.5), rec(2.0, 1.5)], 1.0)
        buf = io.StringIO()
        write_curve(buf, curve)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "distance,mean_time,std_error,count"
        assert len(lines) == 3
