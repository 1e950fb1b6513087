"""Aggregation of infection records into time-vs-distance curves, slope
(slowness) estimation, and the domination check against the analytical
bound.  No I/O here: `cli.write_curve` writes a curve as CSV."""

import json
import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np


class StatsError(ValueError):
    """Insufficient or degenerate data for the requested statistic."""


@dataclass(frozen=True)
class CurveBin:
    distance_center: float
    mean_time: float
    std_error: float
    sample_count: int


@dataclass(frozen=True)
class PropagationCurve:
    bins: List[CurveBin]
    bin_width: float


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    slope_std_error: float
    fit_window: Tuple[float, float]


@dataclass(frozen=True)
class DominationReport:
    theoretical_slowness: float
    fitted_slowness: float
    stderr: float
    margin: float
    passed: bool

    def to_json(self):
        return json.dumps(
            {
                "theoretical_slowness": self.theoretical_slowness,
                "fitted_slowness": self.fitted_slowness,
                "stderr": self.stderr,
                "margin": self.margin,
                "pass": self.passed,
            }
        )

    def describe(self):
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"{verdict}: fitted slowness {self.fitted_slowness:.6g} "
            f"(stderr {self.stderr:.3g}) vs theoretical {self.theoretical_slowness:.6g}, "
            f"margin {self.margin:.6g}"
        )


def _check_finite(records):
    """Refuse a record whose distance or infection_time is NaN or infinite:
    it would make a bin or a fit silently NaN, or fail to bin."""
    for rec in records:
        if not (math.isfinite(rec.distance) and math.isfinite(rec.infection_time)):
            name = "infection_time" if math.isfinite(rec.distance) else "distance"
            raise StatsError(f"record {name} must be finite, got {getattr(rec, name)}")


def _check_window(d_min, d_max):
    """Refuse a distance window that is not d_min < d_max (written so that
    NaN at either end fails): it would silently keep nothing."""
    if not d_min < d_max:
        raise StatsError(
            f"fit window needs d_min < d_max, got d_min={d_min}, d_max={d_max}"
        )


def _check_bin_width(bin_width):
    """Refuse a bin width that is not finite and > 0 (written so that NaN
    fails it): no record could be binned by it."""
    if not 0.0 < bin_width < math.inf:
        raise StatsError(f"bin_width must be finite and > 0, got {bin_width}")


def build_curve(records, bin_width):
    """Group records by distance bin; per-bin mean time, standard error of
    the mean, and count.  Empty input gives an empty curve."""
    _check_bin_width(bin_width)
    _check_finite(records)
    groups = {}
    for rec in records:
        groups.setdefault(int(rec.distance // bin_width), []).append(
            rec.infection_time
        )
    bins = []
    for k in sorted(groups):
        times = np.asarray(groups[k])
        count = times.size
        stderr = float(times.std(ddof=1) / math.sqrt(count)) if count > 1 else 0.0
        bins.append(
            CurveBin(
                distance_center=(k + 0.5) * bin_width,
                mean_time=float(times.mean()),
                std_error=stderr,
                sample_count=count,
            )
        )
    return PropagationCurve(bins=bins, bin_width=bin_width)


def front_records(records):
    """Per-run first-passage subset: records that push the maximum distance
    reached so far, in infection-time order.

    The analytical bound constrains the fastest journey, and the figure
    curves track the propagation front; per-node reception times in a
    finite box are dominated by mixing, not by the front.  A non-finite
    record is refused: it would sort anywhere and hide the real front.
    """
    _check_finite(records)
    best = -math.inf
    out = []
    for rec in sorted(records, key=lambda r: (r.infection_time, r.node_id)):
        if rec.distance > best:
            best = rec.distance
            out.append(rec)
    return out


def _ols(xs, ys):
    """Ordinary least-squares line ys ~ intercept + slope*xs; returns
    (slope, intercept, sxx, rss): sxx the sum of squared x deviations,
    rss the residual sum of squares."""
    sxx = float(((xs - xs.mean()) ** 2).sum())
    if sxx == 0.0:
        raise StatsError("degenerate design: all points at one distance")
    slope = float(((xs - xs.mean()) * (ys - ys.mean())).sum()) / sxx
    intercept = float(ys.mean()) - slope * float(xs.mean())
    rss = float(((ys - (intercept + slope * xs)) ** 2).sum())
    return slope, intercept, sxx, rss


def fit_slope(records, d_min, d_max=math.inf):
    """Ordinary least squares of infection time on distance, restricted to
    records at distance >= d_min (and <= d_max when given).  The free
    intercept absorbs the near-field transient; the slope estimates the
    slowness.  A window that is not d_min < d_max is refused."""
    _check_window(d_min, d_max)
    _check_finite(records)
    kept = [r for r in records if d_min <= r.distance <= d_max]
    xs = np.asarray([r.distance for r in kept])
    ys = np.asarray([r.infection_time for r in kept])
    n = xs.size
    if n < 10:
        raise StatsError(
            f"need at least 10 records with distance in [{d_min}, {d_max}], got {n}"
        )
    slope, intercept, sxx, rss = _ols(xs, ys)
    stderr = math.sqrt(rss / (n - 2) / sxx)
    return SlopeFit(
        slope=slope,
        intercept=intercept,
        slope_std_error=stderr,
        fit_window=(float(d_min), float(xs.max())),
    )


def curve_r_squared(curve, d_min, d_max=math.inf):
    """Coefficient of determination of a straight-line fit on the bin means
    with d_min <= distance_center <= d_max; measures straight-line
    convergence.  A window that is not d_min < d_max is refused."""
    _check_window(d_min, d_max)
    pts = [
        (b.distance_center, b.mean_time)
        for b in curve.bins
        if d_min <= b.distance_center <= d_max
    ]
    if len(pts) < 3:
        raise StatsError(
            f"need at least 3 bins with distance_center in [{d_min}, {d_max}], "
            f"got {len(pts)}"
        )
    xs = np.asarray([p[0] for p in pts])
    ys = np.asarray([p[1] for p in pts])
    rss = _ols(xs, ys)[3]
    tss = float(((ys - ys.mean()) ** 2).sum())
    if tss == 0.0:
        return 1.0
    return 1.0 - rss / tss


def check_bound(fit, bound):
    """Domination test: fitted slowness (plus 2 stderr) must not fall below
    the bound's own slowness, so an unbounded bound (slowness 0) passes
    trivially.  A non-finite slowness (the zero-density degenerate bound),
    slope or stderr, or a negative stderr, is refused: no verdict holds."""
    for name, value in (("bound slowness", bound.slowness), ("fitted slope", fit.slope),
                        ("slope stderr", fit.slope_std_error)):
        if not math.isfinite(value):
            raise StatsError(f"{name} must be finite, got {value}")
    if fit.slope_std_error < 0.0:
        raise StatsError(f"slope stderr must be >= 0, got {fit.slope_std_error}")
    return DominationReport(
        theoretical_slowness=bound.slowness,
        fitted_slowness=fit.slope,
        stderr=fit.slope_std_error,
        margin=fit.slope - bound.slowness,
        passed=fit.slope + 2.0 * fit.slope_std_error >= bound.slowness,
    )
