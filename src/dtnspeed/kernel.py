"""Kernel equation of the journey Laplace transform and the speed bound.

The kernel is the set of (rho, theta) where

    1/Y_D(rho, theta) - tau - 2*v*nu*Xi_D(rho) / (1 - nu*Psi_D(rho)) = 0,

and the information-propagation-speed upper bound is the smallest ratio
theta/rho on that set.  The bound is finite only for densities below the
threshold 1/V_D (V_D the unit-ball volume).

`speed_bound` is the one minimiser of theta/rho.  It returns a finite
bound or raises DomainError, also where double precision runs out.
"""

import enum
import functools
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .specfun import (
    _PSI3_TAYLOR_RHO,
    _SERIES_CAP,
    _SMALL_RHO,
    MAX_ARG,
    DomainError,
    UNIT_BALL_VOLUME,
    check_dim,
    psi,
    xi,
    y,
)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_SCAN_POINTS = 2000
_ALL_POINTS = np.arange(_SCAN_POINTS)
_POLE_CLIP = 1.0 - 1e-9   # keep the search strictly left of the pole
# theta = (tau + theta) - tau keeps about six digits only while theta is at
# least this many rounding units of tau + theta
_THETA_ULPS = 1e6
# `_screen` keeps every point whose error bound kappa exceeds this, and
# every other point within this relative margin of the least of them
_SCREEN_KAPPA = 1e6
_SCREEN_MARGIN = 1e-6
# D=1 forms A**2 + 4*(rho*v)**2: squares up to this cannot overflow it
_SQUARE_MAX = sys.float_info.max / 8.0


@dataclass(frozen=True)
class ModelParams:
    """Analytical model inputs: dimension, density, speed, turn rate."""

    d: int
    nu: float
    v: float
    tau: float

    def __post_init__(self):
        # written so that NaN fails every check
        check_dim(self.d)
        if not 0.0 <= self.nu < math.inf:
            raise DomainError(f"nu must be finite and >= 0, got {self.nu}")
        if not 0.0 < self.v < math.inf:
            raise DomainError(f"v must be finite and > 0, got {self.v}")
        if not 0.0 <= self.tau < math.inf:
            raise DomainError(f"tau must be finite and >= 0, got {self.tau}")

    @property
    def threshold(self):
        """Density 1/V_D above which the bound is infinite."""
        return 1.0 / UNIT_BALL_VOLUME[self.d]


@dataclass(frozen=True)
class KernelPoint:
    """A (rho, theta) pair on or near the kernel set."""

    rho: float
    theta: float


class BoundStatus(enum.Enum):
    FINITE = "finite"
    UNBOUNDED = "unbounded"
    DEGENERATE_ZERO_DENSITY = "degenerate-zero-density"


@dataclass(frozen=True)
class SpeedBound:
    """Result of minimizing theta/rho over the kernel set.

    speed and argmin are present only for FINITE status.  slowness is
    1/speed when finite, 0 by convention when unbounded, and +inf for the
    zero-density random-walk degenerate case (the ratio infimum is 0).
    """

    status: BoundStatus
    slowness: float
    speed: Optional[float] = None
    argmin: Optional[KernelPoint] = None


def coupling(params, rho):
    """Right-hand side A(rho) = tau + 2*v*nu*Xi_D(rho)/(1 - nu*Psi_D(rho)).

    The kernel equation then reads 1/Y_D(rho, theta) = A(rho).
    """
    denom = 1.0 - params.nu * psi(params.d, rho)
    if denom <= 0.0:
        raise DomainError(f"rho={rho} is at or beyond the kernel pole")
    return params.tau + 2.0 * params.v * params.nu * xi(params.d, rho) / denom


def pole_rho(params):
    """Right edge of the rho search interval: the root of nu*Psi_D(rho) = 1.

    Returns +inf for nu = 0; raises for nu >= 1/V_D where the pole
    collapses to the origin, and where the pole lies past MAX_ARG.
    """
    if params.nu >= params.threshold:
        raise DomainError(
            f"density {params.nu} meets or exceeds threshold 1/V_D = {params.threshold}"
        )
    if params.nu == 0.0:
        return math.inf
    lo, hi = 0.0, 1.0
    while params.nu * psi(params.d, hi) < 1.0:
        if hi == MAX_ARG:
            raise DomainError(
                f"density {params.nu} puts the kernel pole past the overflow "
                f"guard {MAX_ARG}"
            )
        lo = hi
        hi = min(2.0 * hi, MAX_ARG)
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if params.nu * psi(params.d, mid) < 1.0:
            lo = mid
        else:
            hi = mid
    # lo is the side where the denominator is still positive
    return lo


def _unit_speed(params):
    """(params with v and tau times 2**shift, shift), the power of two
    that puts v in [1, 2).  theta and theta/rho scale by exactly that
    power while nothing over- or underflows, and at v in [1, 2) the
    closed forms' square of rho*v stays in the normal range.

    It is the one place that refuses a tau swamping theta, in every D: a
    scaled tau of 2**100 or more, so that tau**2 never overflows.  No
    finite bound is lost: the argmin theta stays below about 1e17*v even
    next to threshold, where 1 - nu*V_D is an ulp, and so is under the
    1e6 ulps of tau + theta that speed_bound requires."""
    shift = 1 - math.frexp(params.v)[1]
    if params.tau and math.frexp(params.tau)[1] + shift > 100:
        raise DomainError(
            f"density {params.nu} is too small for tau = {params.tau}: theta "
            f"is lost to rounding against tau over about 2**100 times v = {params.v}"
        )
    v, tau = math.ldexp(params.v, shift), math.ldexp(params.tau, shift)
    return ModelParams(params.d, params.nu, v, tau), shift


def _scale_back(value, shift, v):
    """value * 2**-shift, a value solved at v * 2**shift, or DomainError
    where that leaves the normal double range."""
    try:
        value = math.ldexp(value, -shift)
    except OverflowError:
        value = math.inf
    if not value < math.inf:
        raise DomainError(f"v = {v} is too large: the bound overflows double precision")
    if value < sys.float_info.min:
        raise DomainError(f"v = {v} is too small: the bound underflows double precision")
    return value


def theta_of_rho(params, rho):
    """The unique theta > 0 solving the kernel equation at this rho.

    Closed forms from inverting 1/Y_D = A: a quadratic for D=1, a square
    root for D=2, and x = rho*v*coth(rho*v/A) with x = tau+theta for D=3.

    theta scales with (v, tau) by a power of two exactly, and the closed
    forms square rho*v and A(rho), which leave the double range at tiny
    or huge v: so theta is solved at v in [1, 2) (`_unit_speed`) and
    scaled back, and a theta outside the normal range raises DomainError,
    as does a tau of about 2**100 times v or more, which swamps theta.
    Where A(rho) and rho*v are both below 2**-480, whose squares would
    underflow, x is formed from them 2**600 times larger and scaled back.
    """
    if not (1.0 <= params.v < 2.0 and params.tau < 2.0**100):
        solved, shift = _unit_speed(params)
        return _scale_back(theta_of_rho(solved, rho), shift, params.v)
    if rho <= 0.0:
        raise DomainError(f"theta_of_rho requires rho > 0, got {rho}")
    a_rho = coupling(params, rho)
    a = rho * params.v
    if a_rho == 0.0:
        # nu = 0 and tau = 0: the kernel degenerates to theta = rho*v
        return a
    tiny = a_rho < 2.0**-480 and a < 2.0**-480
    if tiny:
        a_rho, a = a_rho * 2.0**600, a * 2.0**600
    if params.d == 1:
        x = 0.5 * (a_rho + math.sqrt(a_rho * a_rho + 4.0 * a * a))
    elif params.d == 2:
        x = math.sqrt(a_rho * a_rho + a * a)
    else:
        z = a / a_rho
        if z < 1e-12:
            x = a_rho * (1.0 + z * z / 3.0)
        else:
            x = a / math.tanh(z)
    return (x * 2.0**-600 if tiny else x) - params.tau


def kernel_residual(params, point):
    """Left-hand side of the kernel equation; zero exactly on the kernel."""
    return 1.0 / y(params.d, point.rho, point.theta, params.v, params.tau) - coupling(
        params, point.rho
    )


def _golden_min(f, lo, hi, rel_tol):
    """Argmin of a unimodal f on [lo, hi] by golden-section search."""
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > rel_tol * max(1e-300, abs(lo) + abs(hi)):
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = f(d)
    return 0.5 * (lo + hi)


def _map(fn, values):
    """fn applied to each element of the array values, as an array.  The
    exact scan takes math's cosh, sinh and tanh, not numpy's: on AVX-512
    CPUs numpy's differ from them by an ulp or two in about a quarter of
    the arguments, and the cancellation in Psi_3 magnifies that.  numpy's
    only screen the scan (`_screen`); they never decide an output."""
    return np.fromiter(map(fn, values.tolist()), float, values.size)


# the hyperbolic functions (sinh, cosh, tanh) of an array pass: math's,
# element by element, for the exact values, and numpy's for the screen
_LIBM = (
    functools.partial(_map, math.sinh),
    functools.partial(_map, math.cosh),
    functools.partial(_map, math.tanh),
)


def _join(mask, inside, outside):
    """One array from the values of the points in mask and of the rest,
    each in its points' order: np.where with each branch evaluated only
    on the points that take it."""
    out = np.empty(mask.shape)
    out[mask] = inside
    out[~mask] = outside
    return out


def _bessel_grid(x, order):
    """specfun._bessel_series over an array of 0 <= x <= MAX_ARG: each
    element takes the same terms, stops on the same rule and cap, and
    leaves the loop there.

    Two of the scalar's stop tests are out of the per-term work.  Its
    total == 0 holds only where the first term is 0 (order 1 at x = +-0,
    or a subnormal x whose half underflows), since terms are >= 0; such
    an element returns that term, sign included, and never enters the
    loop.  Its cap, _SERIES_CAP + int(x), is at least _SERIES_CAP, so it
    is tested only from k = _SERIES_CAP on."""
    out = 0.5 * x if order else np.ones_like(x)
    left = np.flatnonzero(out)
    term = total = out[left]
    q = 0.25 * x[left] * x[left]
    cap = _SERIES_CAP + x[left].astype(int)
    k = 1
    while left.size:
        term = term * (q / (k * (k + order)))
        total = total + term
        done = term < 1e-16 * total
        if k >= _SERIES_CAP:
            done |= cap == k
        if done.any():
            out[left[done]] = total[done]
            keep = ~done
            left, q, term, total, cap = (
                left[keep], q[keep], term[keep], total[keep], cap[keep]
            )
        k += 1
    return out


def _psi_xi_grid(d, rho, hyp):
    """specfun.psi and specfun.xi over an array of 0 < rho <= MAX_ARG,
    with the same branches and operation order, and the sinh and cosh of
    hyp (`_LIBM` or numpy's) for math's.  Each point evaluates only its
    own branch: the Taylor polynomials below _SMALL_RHO (below
    _PSI3_TAYLOR_RHO for D=3 psi), the closed forms or the I1 series
    above it.

    The third value is how much Psi magnifies a relative error of sinh
    and cosh: (rho*cosh + sinh)/(rho*cosh - sinh) on D=3's closed form,
    whose difference cancels, and 1 elsewhere."""
    small = rho < _SMALL_RHO
    s, b = rho[small], rho[~small]
    s2 = s * s
    if d == 2:
        psi_ = _join(
            small,
            2.0 * math.pi * (0.5 + s2 / 16.0 + s2 * s2 / 384.0),
            2.0 * math.pi * _bessel_grid(b, 1) / b,
        )
        return psi_, 2.0 * math.pi * _bessel_grid(rho, 0), 1.0
    sinh, cosh, _ = hyp
    sinh_b = sinh(b)
    if d == 1:
        psi_ = _join(
            small, 2.0 * (1.0 + s2 / 6.0 + s2 * s2 / 120.0), 2.0 * sinh_b / b
        )
        xi_ = _join(small, 2.0 * (1.0 + s2 / 2.0 + s2 * s2 / 24.0), 2.0 * cosh(b))
        return psi_, xi_, 1.0
    xi_ = _join(
        small,
        4.0 * math.pi * (1.0 + s2 / 6.0 + s2 * s2 / 120.0),
        4.0 * math.pi * sinh_b / b,
    )
    taylor, closed = rho < _PSI3_TAYLOR_RHO, b >= _PSI3_TAYLOR_RHO
    t2, c = rho[taylor] * rho[taylor], b[closed]
    c_cosh, c_sinh = c * cosh(c), sinh_b[closed]
    psi_ = _join(
        taylor,
        4.0 * math.pi * (1.0 / 3.0 + t2 / 30.0 + t2 * t2 / 840.0 + t2 * t2 * t2 / 45360.0),
        4.0 * math.pi * (c_cosh - c_sinh) / (c * c * c),
    )
    return psi_, xi_, _join(taylor, 1.0, (c_cosh + c_sinh) / (c_cosh - c_sinh))


def _kernel_grid(params, rho, hyp):
    """theta_of_rho(params, r) / r for each r of the array rho, 0 < r <=
    MAX_ARG, and +inf where theta_of_rho raises (at or past the pole),
    with hyp's hyperbolic functions; and the terms `_screen` bounds its
    error with.  Returns (ratio, x, theta, denom, amp, a_rho): x = tau +
    theta, denom = 1 - nu*Psi, amp Psi's error gain and a_rho = A(rho)."""
    # no point evaluates a branch it does not take, but the points past
    # the pole, where A(rho) = 0, or where A(rho) overflows may divide by
    # zero or overflow: Python floats do so silently, and the last two
    # np.where drop the values past the pole and at A(rho) = 0
    with np.errstate(all="ignore"):
        psi_, xi_, amp = _psi_xi_grid(params.d, rho, hyp)
        denom = 1.0 - params.nu * psi_
        a_rho = params.tau + 2.0 * params.v * params.nu * xi_ / denom
        a = rho * params.v
        if params.d == 1:
            x = 0.5 * (a_rho + np.sqrt(a_rho * a_rho + 4.0 * a * a))
        elif params.d == 2:
            x = np.sqrt(a_rho * a_rho + a * a)
        else:
            z = a / a_rho
            tiny = z < 1e-12
            zt = z[tiny]
            x = _join(
                tiny,
                a_rho[tiny] * (1.0 + zt * zt / 3.0),
                a[~tiny] / hyp[2](z[~tiny]),
            )
        theta = np.where(a_rho == 0.0, a, x - params.tau)
        ratio = np.where(denom <= 0.0, math.inf, theta / rho)
        return ratio, x, theta, denom, amp, a_rho


def _ratio_grid(params, rho):
    """theta_of_rho(params, r) / r for each r of the array rho, 0 < r <=
    MAX_ARG, and +inf where theta_of_rho raises (at or past the pole).

    Bit-identical to the scalar path: it takes the same branches and the
    same IEEE operations in the same order, and math's transcendentals.
    It has no rescaled branch for tiny squares: on a `_scan_grid`, rho*v
    at v in [1, 2) is at least about 1e-13, far above theta_of_rho's
    2**-480.
    numpy's only prune the scan (`_screen`); no output depends on them."""
    return _kernel_grid(params, rho, _LIBM)[0]


def _screen(params, grid):
    """The indices, in order, of the grid points that can hold the first
    argmin of `_ratio_grid`, found with numpy's vector sinh, cosh and tanh.

    numpy's differ from math's by a few ulp (none with its CPU dispatch
    off).  A point's screened ratio is then within about kappa ulps of
    the exact one, kappa = (x/theta) * (2 + amp/(1 - nu*Psi)): the
    cancellation in theta = x - tau, times the error of A(rho) (Xi's, and
    Psi's through 1 - nu*Psi) and of D=3's tanh, each of which moves x by
    at most its own relative size.  So a point with kappa <= 1e6 is
    within about 1e-9 of its exact value, and one screened more than
    1e-6 above the least such value is strictly above the exact minimum.
    Every other point is kept: kappa above 1e6, a ratio that is not
    finite, or a square of A(rho) outside the normal range (or so large
    that D=1's A**2 + 4*(rho*v)**2 may overflow).  The square of rho*v
    needs no guard: speed_bound scans at v in [1, 2) (`_unit_speed`),
    where rho*v lies between about 1e-13 and 1400."""
    with np.errstate(all="ignore"):
        ratio, x, theta, denom, amp, a_rho = _kernel_grid(
            params, grid, (np.sinh, np.cosh, np.tanh)
        )
        kappa = x / theta * (2.0 + amp / denom)
        square = a_rho * a_rho
        sure = (kappa > 0.0) & (kappa <= _SCREEN_KAPPA) & np.isfinite(ratio)
        sure &= (square >= sys.float_info.min) & (square <= _SQUARE_MAX)
        least = ratio[sure].min(initial=math.inf)
        return np.flatnonzero(~sure | (ratio <= least * (1.0 + _SCREEN_MARGIN)))


@functools.lru_cache(maxsize=8)
def _scan_powers(step):
    """step**i for i < _SCAN_POINTS, read-only.  Python's pow, not
    numpy's: like its transcendentals (`_map`), numpy's pow may differ by
    an ulp across CPUs."""
    powers = np.array([step**i for i in range(_SCAN_POINTS)])
    powers.flags.writeable = False
    return powers


def _scan_grid(rho_star):
    """The 2000-point log grid over (1e-6*rho_star, _POLE_CLIP*rho_star):
    lo times the powers of the step, one array multiply per bound.

    The step, (hi/lo)**(1/1999), is the same float for nearly every
    rho_star (a subnormal one differs), so its powers are taken once and
    cached.  Each point is one IEEE multiply, the same float as the
    scalar lo * step**i; the returned array is a fresh one."""
    lo = 1e-6 * rho_star
    hi = _POLE_CLIP * rho_star
    step = (hi / lo) ** (1.0 / (_SCAN_POINTS - 1))
    return lo * _scan_powers(step)


def _minimize_ratio(params, rho_star):
    """Argmin of theta/rho on (0, rho_star): a coarse log-grid scan, then
    golden-section refinement of the best bracket.

    The scan guards against the (unproven) possibility of multiple local
    minima.  The grid is one array (`_scan_grid`: cached powers of the
    step times lo), and the scan is one array pass (`_ratio_grid`),
    bit-identical to evaluating theta_of_rho point by point, over the
    points `_screen` keeps (all of them in D=2); it picks the first point
    of least value, as a pass over the whole grid would.  The refinement
    is scalar.
    The left edge 1e-6*rho_star can lie above the argmin (tau > 0 and
    small nu), so a best point on that edge is refined on (0, grid[1]).
    """

    def ratio(r):
        # points rounding past the pole act as +inf, never as candidates
        try:
            return theta_of_rho(params, r) / r
        except DomainError:
            return math.inf

    grid = _scan_grid(rho_star)
    # numpy has no vector I1 to screen D=2 with: its scan stays whole
    points = _ALL_POINTS if params.d == 2 else _screen(params, grid)
    # at v in [1, 2) (`_unit_speed`) rho*v cannot overflow, so no theta is
    # NaN and argmin picks the first least value, as min() would
    i = int(points[np.argmin(_ratio_grid(params, grid[points]))])
    left = float(grid[i - 1]) if i else 0.0
    right = float(grid[min(i + 1, _SCAN_POINTS - 1)])
    return _golden_min(ratio, left, right, 1e-10)


def speed_bound(params):
    """Upper bound on the information propagation speed (smallest theta/rho).

    Unbounded for nu >= 1/V_D.  For nu = 0 the kernel degenerates: with
    tau = 0 the ratio is identically v (infimum at rho -> inf, reported
    with a sentinel argmin); with tau > 0 the ratio infimum is 0 at
    rho -> 0, reported as the zero-density degenerate status.
    """
    if params.nu >= params.threshold:
        return SpeedBound(status=BoundStatus.UNBOUNDED, slowness=0.0)
    if params.nu == 0.0:
        if params.tau == 0.0:
            point = KernelPoint(rho=math.inf, theta=math.inf)
            return SpeedBound(
                status=BoundStatus.FINITE,
                slowness=1.0 / params.v,
                speed=params.v,
                argmin=point,
            )
        return SpeedBound(
            status=BoundStatus.DEGENERATE_ZERO_DENSITY, slowness=math.inf
        )
    solved, shift = _unit_speed(params)
    rho0 = _minimize_ratio(solved, pole_rho(params))
    theta0 = theta_of_rho(solved, rho0)
    if theta0 < _THETA_ULPS * sys.float_info.epsilon * (solved.tau + theta0):
        raise DomainError(
            f"density {params.nu} is too small for tau = {params.tau}: "
            f"theta = {math.ldexp(theta0, -shift):.3g} is lost to rounding against tau"
        )
    speed = _scale_back(theta0 / rho0, shift, params.v)
    return SpeedBound(
        status=BoundStatus.FINITE,
        slowness=1.0 / speed,
        speed=speed,
        argmin=KernelPoint(rho=rho0, theta=_scale_back(theta0, shift, params.v)),
    )


def asymptotic_speed_random_walk(params):
    """Sparse-density random-walk estimate v*sqrt(4*nu*H(0)/(D*tau)).

    H(0) = 2*v*Xi_D(0) / (1 - nu*V_D) is the zero-rho limit of the
    coupling function behind the random-walk corollary; near rho = 0,
    theta = nu*H(0) + (rho*v)**2/(D*tau), whose least theta/rho this is.
    """
    if params.tau <= 0.0:
        raise DomainError("random-walk asymptotic requires tau > 0")
    if params.nu >= params.threshold:
        raise DomainError(f"density must be below 1/V_D = {params.threshold}")
    h0 = 2.0 * params.v * xi(params.d, 0.0) / (1.0 - params.nu * UNIT_BALL_VOLUME[params.d])
    return params.v * math.sqrt(4.0 * params.nu * h0 / (params.d * params.tau))
