import math
import re
import sys

import numpy as np
import pytest
from scipy import optimize, special

import dtnspeed.kernel as kernel
from dtnspeed.kernel import (
    _POLE_CLIP,
    _SCAN_POINTS,
    BoundStatus,
    KernelPoint,
    ModelParams,
    SpeedBound,
    asymptotic_speed_random_walk,
    coupling,
    kernel_residual,
    pole_rho,
    speed_bound,
    theta_of_rho,
    _bessel_grid,
    _ratio_grid,
    _scan_grid,
    _screen,
)
from dtnspeed.specfun import (
    _SMALL_RHO,
    UNIT_BALL_VOLUME,
    DomainError,
    _bessel_series,
    psi,
    y,
)

# Xi_D(0): 2, 2*pi, 4*pi
XI_AT_ZERO = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}


def bisect_theta(params, rho, tol=1e-12):
    """Generic theta root of the kernel equation by plain bisection on the
    residual; independent of the closed-form inversions."""
    a = coupling(params, rho)
    lo = max(0.0, rho * params.v - params.tau) + 1e-15

    def residual(theta):
        return 1.0 / y(params.d, rho, theta, params.v, params.tau) - a

    hi = max(lo * 2.0, rho * params.v + a + 1.0)
    while residual(hi) < 0.0:
        hi *= 2.0
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if residual(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def billiard_oracle(params):
    """The paper's billiard (tau = 0, D=2) bound v*sqrt(1 + (H1(rho0)/rho0)^2),
    H1(rho) = 4*pi*nu*I0(rho) / (1 - 2*pi*nu*I1(rho)/rho) and rho0 the
    argmin of H1(rho)/rho on (0, pole).  Built from scipy's Bessel
    functions, root finder and bounded minimiser, so it shares no code
    with speed_bound."""
    if params.d != 2:
        raise DomainError("billiard formula is derived for D=2 only")
    if params.tau != 0.0:
        raise DomainError("billiard formula requires tau = 0")
    nu = params.nu
    if nu == 0.0:
        return params.v

    def pole_gap(rho):
        return 1.0 - 2.0 * math.pi * nu * special.i1(rho) / rho

    hi = 1.0
    while pole_gap(hi) > 0.0:
        hi *= 2.0
    pole = optimize.brentq(pole_gap, 1e-12, hi, xtol=1e-14, rtol=1e-15)

    def h1_over_rho(rho):
        return 4.0 * math.pi * nu * special.i0(rho) / (pole_gap(rho) * rho)

    res = optimize.minimize_scalar(
        h1_over_rho,
        bounds=(1e-9 * pole, (1.0 - 1e-9) * pole),
        method="bounded",
        options={"xatol": 1e-10},
    )
    return params.v * math.sqrt(1.0 + res.fun * res.fun)


def small_density_speed(params):
    """Leading small-density speed for tau > 0 in any D: near rho = 0,
    theta = c*nu + (rho*v)^2 / (D*tau) with c = 2*v*Xi_D(0)/(1 - nu*V_D),
    so the least theta/rho is 2*v*sqrt(c*nu / (D*tau)).  In D=2 this is
    the random-walk asymptote."""
    d, nu, v, tau = params.d, params.nu, params.v, params.tau
    c = 2.0 * v * XI_AT_ZERO[d] / (1.0 - nu * UNIT_BALL_VOLUME[d])
    return 2.0 * v * math.sqrt(c * nu / (d * tau))


def scaled_bound(bound, k):
    """The bound at (v, tau) times 2**-k, from `bound` at (v, tau):
    theta and theta/rho scale by 2**-k exactly.  None where its speed or
    argmin theta leaves the normal double range."""
    try:
        speed = math.ldexp(bound.speed, -k)
        theta = math.ldexp(bound.argmin.theta, -k)
    except OverflowError:
        return None
    if min(speed, theta) < sys.float_info.min:
        return None
    return SpeedBound(
        status=BoundStatus.FINITE,
        slowness=1.0 / speed,
        speed=speed,
        argmin=KernelPoint(bound.argmin.rho, theta),
    )


class TestModelParams:
    def test_rejects_bad_values(self):
        with pytest.raises(DomainError):
            ModelParams(d=2, nu=-0.1, v=1.0, tau=0.0)
        with pytest.raises(DomainError):
            ModelParams(d=2, nu=0.1, v=0.0, tau=0.0)
        with pytest.raises(DomainError):
            ModelParams(d=2, nu=0.1, v=1.0, tau=-1.0)
        with pytest.raises(DomainError):
            ModelParams(d=4, nu=0.1, v=1.0, tau=0.0)
        with pytest.raises(DomainError, match="must be an integer"):
            ModelParams(d=True, nu=0.1, v=1.0, tau=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["nu", "v", "tau"])
    def test_rejects_non_finite(self, name, value):
        fields = {"d": 2, "nu": 0.1, "v": 1.0, "tau": 0.1, name: value}
        with pytest.raises(DomainError, match=f"^{name} must be finite"):
            ModelParams(**fields)

    def test_threshold(self):
        assert ModelParams(d=1, nu=0.0, v=1.0, tau=0.0).threshold == 0.5
        assert ModelParams(d=2, nu=0.0, v=1.0, tau=0.0).threshold == 1.0 / math.pi


class TestCoupling:
    def test_zero_density_gives_tau(self):
        p = ModelParams(d=2, nu=0.0, v=1.0, tau=0.1)
        assert coupling(p, 1.0) == pytest.approx(0.1)

    def test_substitution_value(self):
        # 2*0.05*2pi*I0(1)/(1 - 0.05*2pi*I1(1)), frozen from the mpmath oracle
        p = ModelParams(d=2, nu=0.05, v=1.0, tau=0.0)
        assert coupling(p, 1.0) == pytest.approx(0.9672230798725386, rel=1e-13)

    def test_d1_small_rho_limit(self):
        p = ModelParams(d=1, nu=0.1, v=1.0, tau=0.0)
        assert coupling(p, 1e-9) == pytest.approx(0.5, rel=1e-8)

    def test_beyond_pole(self):
        p = ModelParams(d=2, nu=0.1, v=1.0, tau=0.0)
        with pytest.raises(DomainError):
            coupling(p, 2.0 * pole_rho(p))


class TestPoleRho:
    def test_threshold_exceeded(self):
        with pytest.raises(DomainError):
            pole_rho(ModelParams(d=2, nu=1.0 / math.pi, v=1.0, tau=0.0))

    def test_zero_density_is_infinite(self):
        assert pole_rho(ModelParams(d=2, nu=0.0, v=1.0, tau=0.0)) == math.inf

    def test_near_threshold_collapses_to_origin(self):
        p = ModelParams(d=2, nu=(1.0 - 1e-6) / math.pi, v=1.0, tau=0.0)
        assert pole_rho(p) < 0.01

    def test_d2_value(self):
        # root of (2pi/rho)*I1(rho) = 10, frozen from the mpmath oracle
        p = ModelParams(d=2, nu=0.1, v=1.0, tau=0.0)
        assert pole_rho(p) == pytest.approx(3.3227355761640956, abs=1e-10)

    def test_d1_value(self):
        # root of 2*sinh(rho)/rho = 4, frozen from the mpmath oracle
        p = ModelParams(d=1, nu=0.25, v=1.0, tau=0.0)
        assert pole_rho(p) == pytest.approx(2.1773189849653068, abs=1e-10)

    def test_is_a_root(self):
        for d, nu in ((1, 0.3), (2, 0.2), (3, 0.1)):
            p = ModelParams(d=d, nu=nu, v=1.0, tau=0.0)
            r = pole_rho(p)
            assert nu * psi(d, r) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize(
        "g, rel", [(1e-6, 1e-6), (1e-8, 1e-6), (1e-9, 1e-6), (1e-12, 1e-3)]
    )
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_near_threshold_root_matches_mpmath(self, d, g, rel):
        # nu = (1 - g)/V_D puts the pole near sqrt(2*(D+2)*g), where Psi_3's
        # closed form once cancelled to noise and pole_rho returned 2.2e-4
        # in D=3 for every g <= 1e-9.  The oracle is the root of
        # nu*Psi_D(rho) = 1 for the float nu, in 50-digit arithmetic.  A
        # rounding unit of nu*Psi_D moves the root by about eps/(2g)
        # relative, so no double-precision search gets within 1e-6 at
        # g = 1e-12 (D=2 lands 3.4e-5 off there); that case is held to
        # 1e-3, ten times that resolution.
        from mpmath import besseli, cosh, findroot, mp, mpf, pi as mppi, sinh

        def mp_psi(r):
            if d == 1:
                return 2 * sinh(r) / r
            if d == 2:
                return 2 * mppi * besseli(1, r) / r
            return 4 * mppi * (r * cosh(r) - sinh(r)) / r**3

        nu = (1.0 - g) / UNIT_BALL_VOLUME[d]
        got = pole_rho(ModelParams(d=d, nu=nu, v=1.0, tau=0.0))
        with mp.workdps(50):
            root = findroot(lambda r: mpf(nu) * mp_psi(r) - 1, math.sqrt(2 * (d + 2) * g))
            assert abs(mpf(got) / root - 1) < rel

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bracket_stops_at_overflow_guard(self, d):
        # the pole lies in (512, MAX_ARG): the doubling bracket must stop at 700
        p = ModelParams(d=d, nu=1e-250, v=1.0, tau=0.1)
        r = pole_rho(p)
        assert 512.0 < r < 700.0
        assert 1e-250 * psi(d, r) == pytest.approx(1.0, rel=1e-9)

    def test_pole_past_overflow_guard_raises(self):
        with pytest.raises(DomainError, match="density 1e-300"):
            pole_rho(ModelParams(d=3, nu=1e-300, v=1.0, tau=0.0))


class TestThetaOfRho:
    def test_no_relays_limit(self):
        p = ModelParams(d=2, nu=0.0, v=1.0, tau=0.0)
        assert theta_of_rho(p, 2.0) == pytest.approx(2.0)

    def test_d2_substitution(self):
        # sqrt(A^2 + 1) with the frozen coupling value above
        p = ModelParams(d=2, nu=0.05, v=1.0, tau=0.0)
        assert theta_of_rho(p, 1.0) == pytest.approx(1.391229846660184, rel=1e-12)

    @pytest.mark.parametrize("rho", [0.0, -1.0])
    def test_rho_not_positive_rejected(self, rho):
        with pytest.raises(DomainError, match="requires rho > 0"):
            theta_of_rho(ModelParams(d=2, nu=0.05, v=1.0, tau=0.1), rho)

    def test_d3_transcendental(self):
        # frozen from a 40-digit solve of 2*rho*v/log(...) = A
        p = ModelParams(d=3, nu=0.01, v=1.0, tau=0.1)
        assert theta_of_rho(p, 0.5) == pytest.approx(0.47392251503692247, rel=1e-10)

    def test_root_feeds_back_to_zero_residual(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            d = int(rng.integers(1, 4))
            p = ModelParams(
                d=d,
                nu=float(rng.uniform(0.0, 0.9)) / psi(d, 0.0),
                v=float(rng.uniform(0.2, 3.0)),
                tau=float(rng.uniform(0.0, 2.0)),
            )
            rho_star = pole_rho(p)
            hi = min(rho_star, 50.0)
            rho = float(rng.uniform(1e-3, 0.999) * hi)
            theta = theta_of_rho(p, rho)
            res = kernel_residual(p, KernelPoint(rho, theta))
            assert abs(res) < 1e-9 * max(1.0, p.tau + theta)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_generic_bisection(self, d):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = ModelParams(
                d=d,
                nu=float(rng.uniform(0.01, 0.9)) / psi(d, 0.0),
                v=float(rng.uniform(0.2, 2.0)),
                tau=float(rng.uniform(0.0, 1.0)),
            )
            rho = float(rng.uniform(0.05, 0.95)) * min(pole_rho(p), 30.0)
            closed = theta_of_rho(p, rho)
            generic = bisect_theta(p, rho)
            assert closed == pytest.approx(generic, abs=1e-10 * max(1.0, generic))

    @pytest.mark.parametrize("tau", [0.0, 0.1])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_scales_with_v_or_raises(self, d, tau):
        # theta scales with (v, tau) by a power of two exactly: the closed
        # forms' squares of rho*v and A(rho) would under- or overflow at
        # these v, so a theta out of the normal range is a DomainError
        one = ModelParams(d=d, nu=0.1, v=1.0, tau=tau)
        for rho in (0.01, 1.0):
            theta = theta_of_rho(one, rho)
            for k in (1, 100, 520, 600, 1000, -1, -100, -520, -600, -1000):
                p = ModelParams(d=d, nu=0.1, v=2.0**k, tau=tau * 2.0**k)
                try:
                    expected = math.ldexp(theta, k)
                except OverflowError:
                    expected = math.inf
                if not sys.float_info.min <= expected < math.inf:
                    with pytest.raises(DomainError, match=re.escape(f"v = {p.v} is too")):
                        theta_of_rho(p, rho)
                    continue
                assert theta_of_rho(p, rho) == expected, (rho, k)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_tiny_squares_match_mpmath(self, d):
        # A(rho) and rho*v both far below 2**-480, where the D=1 and D=2
        # closed forms' squares underflow.  At these rho, Xi and Psi
        # equal their rho = 0 values to within 1e-400, below 50 digits,
        # so A = tau + 2*v*nu*Xi(0)/(1 - nu*V_D)
        from mpmath import mp, mpf, sqrt, tanh

        for nu, tau, rho in ((1e-300, 0.0, 1e-300), (1e-300, 1e-301, 1e-290),
                             (1e-250, 0.0, 1e-200)):
            with mp.workdps(50):
                xi0 = {1: mpf(2), 2: 2 * mp.pi, 3: 4 * mp.pi}[d]
                volume = {1: mpf(2), 2: mp.pi, 3: 4 * mp.pi / 3}[d]
                a_rho = tau + 2 * mpf(nu) * xi0 / (1 - mpf(nu) * volume)
                a = mpf(rho)
                if d == 1:
                    x = (a_rho + sqrt(a_rho**2 + 4 * a**2)) / 2
                elif d == 2:
                    x = sqrt(a_rho**2 + a**2)
                else:
                    x = a / tanh(a / a_rho)
                expected = float(x - tau)
            theta = theta_of_rho(ModelParams(d=d, nu=nu, v=1.0, tau=tau), rho)
            assert theta == pytest.approx(expected, rel=1e-15, abs=0.0), (nu, tau, rho)


class TestKernelResidual:
    def test_direct_values(self):
        p = ModelParams(d=2, nu=0.0, v=1.0, tau=0.0)
        assert kernel_residual(p, KernelPoint(1.0, 2.0)) == pytest.approx(
            math.sqrt(3.0)
        )
        p1 = ModelParams(d=1, nu=0.0, v=1.0, tau=1.0)
        assert kernel_residual(p1, KernelPoint(1.0, 1.0)) == pytest.approx(0.5)

    @pytest.mark.parametrize("point", [KernelPoint(1.0, math.nan), KernelPoint(math.inf, 1.0)])
    def test_non_finite_point_rejected(self, point):
        # a NaN theta once gave a NaN residual instead of an error
        with pytest.raises(DomainError, match="finite"):
            kernel_residual(ModelParams(d=2, nu=0.1, v=1.0, tau=0.1), point)


class TestSpeedBound:
    def test_unbounded_at_threshold(self):
        for d in (1, 2, 3):
            thr = ModelParams(d=d, nu=0.0, v=1.0, tau=0.0).threshold
            assert (
                speed_bound(ModelParams(d=d, nu=thr, v=1.0, tau=0.0)).status
                == BoundStatus.UNBOUNDED
            )
            assert (
                speed_bound(ModelParams(d=d, nu=thr * 1.5, v=1.0, tau=0.5)).status
                == BoundStatus.UNBOUNDED
            )

    def test_threshold_flip_is_exact(self):
        thr = 1.0 / math.pi
        below = speed_bound(ModelParams(d=2, nu=thr - 1e-12, v=1.0, tau=0.0))
        above = speed_bound(ModelParams(d=2, nu=thr + 1e-12, v=1.0, tau=0.0))
        assert below.status == BoundStatus.FINITE
        assert above.status == BoundStatus.UNBOUNDED

    def test_zero_density_billiard_degenerates_to_v(self):
        b = speed_bound(ModelParams(d=2, nu=0.0, v=2.5, tau=0.0))
        assert b.status == BoundStatus.FINITE
        assert b.speed == 2.5
        assert math.isinf(b.argmin.rho)

    def test_zero_density_random_walk(self):
        b = speed_bound(ModelParams(d=2, nu=0.0, v=1.0, tau=0.5))
        assert b.status == BoundStatus.DEGENERATE_ZERO_DENSITY
        assert math.isinf(b.slowness)

    def test_sparse_billiard_close_to_v(self):
        b = speed_bound(ModelParams(d=2, nu=1e-4, v=1.0, tau=0.0))
        assert 1.0 <= b.speed <= 1.0 + 1e-4

    def test_argmin_consistency(self):
        b = speed_bound(ModelParams(d=2, nu=0.1, v=1.0, tau=0.1))
        assert b.status == BoundStatus.FINITE
        assert b.speed == pytest.approx(b.argmin.theta / b.argmin.rho, rel=1e-12)
        assert b.slowness == pytest.approx(1.0 / b.speed, rel=1e-12)

    def test_against_dense_grid_oracle(self):
        # independent route: scipy Bessel + 10^6-point scan of theta/rho
        from scipy import special

        p = ModelParams(d=2, nu=0.1, v=1.0, tau=0.1)
        rho_star = pole_rho(p)
        rho = np.geomspace(1e-7 * rho_star, (1.0 - 1e-10) * rho_star, 1_000_000)
        a = p.tau + 2.0 * p.v * p.nu * 2.0 * np.pi * special.i0(rho) / (
            1.0 - p.nu * 2.0 * np.pi * special.i1(rho) / rho
        )
        theta = np.sqrt(a * a + rho * rho * p.v * p.v) - p.tau
        oracle = float((theta / rho).min())
        assert speed_bound(p).speed == pytest.approx(oracle, rel=1e-6)

    @pytest.mark.parametrize("nu", [1e-8, 1e-10, 1e-11])
    def test_argmin_below_scan_edge(self, nu):
        # the argmin sqrt(8*pi*nu*tau)/v lies below the scan's left edge
        # 1e-6*pole at these densities
        p = ModelParams(d=2, nu=nu, v=1.0, tau=0.1)
        b = speed_bound(p)
        assert b.speed == pytest.approx(asymptotic_speed_random_walk(p), rel=1e-4)
        assert b.argmin.rho == pytest.approx(
            math.sqrt(8.0 * math.pi * nu * p.tau), rel=1e-3
        )

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_theta_lost_to_rounding_raises(self, d):
        with pytest.raises(DomainError, match="too small"):
            speed_bound(ModelParams(d=d, nu=1e-20, v=1.0, tau=0.1))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_billiard_at_tiny_density(self, d):
        assert speed_bound(ModelParams(d=d, nu=1e-250, v=1.0, tau=0.0)).speed == 1.0

    @pytest.mark.parametrize("tau", [0.0, 0.1])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_right_answer_or_domain_error(self, d, tau):
        # log-spaced densities over (0, 1/V_D): a finite positive speed,
        # equal to the small-density limit where that holds, or a
        # DomainError only where double precision runs out
        threshold = 1.0 / UNIT_BALL_VOLUME[d]
        for nu in np.geomspace(1e-300, 0.99 * threshold, 25):
            p = ModelParams(d=d, nu=float(nu), v=1.0, tau=tau)
            try:
                b = speed_bound(p)
            except DomainError:
                assert nu < (1e-11 if tau > 0.0 else 1e-299)
                continue
            assert b.status == BoundStatus.FINITE
            assert 0.0 < b.speed < math.inf
            assert 0.0 < b.argmin.rho < pole_rho(p)
            if nu < 1e-6:
                expected = small_density_speed(p) if tau > 0.0 else p.v
                assert b.speed == pytest.approx(expected, rel=1e-4)

    def test_huge_v_is_finite_or_domain_error(self):
        # 1500 random parameter sets with v up to 1e307: each bound is the
        # one solved at v in [1, 2) scaled back, and a DomainError naming
        # v only where its speed or argmin theta overflows
        rng = np.random.default_rng(8)
        refused = 0
        for _ in range(1500):
            d = int(rng.integers(1, 4))
            nu = float(rng.uniform(0.001, 0.99)) / UNIT_BALL_VOLUME[d]
            v = float(10.0 ** rng.uniform(-3.0, 307.0))
            tau = 0.0 if rng.random() < 0.3 else float(10.0 ** rng.uniform(-3.0, 3.0))
            k = 1 - math.frexp(v)[1]
            one = speed_bound(
                ModelParams(d=d, nu=nu, v=math.ldexp(v, k), tau=math.ldexp(tau, k))
            )
            expected = scaled_bound(one, k)
            p = ModelParams(d=d, nu=nu, v=v, tau=tau)
            if expected is None:
                with pytest.raises(DomainError, match=re.escape(f"v = {v} is too large")):
                    speed_bound(p)
                refused += 1
                continue
            assert speed_bound(p) == expected, p
            assert 0.0 < expected.slowness < math.inf
        assert refused < 10, refused

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_overflow_is_a_domain_error(self, d):
        # D=1 and D=2's argmin theta overflows, D=3's speed: each scale
        # back ends in DomainError, never a bare OverflowError
        with pytest.raises(DomainError, match=re.escape("v = 1.5e+308 is too large")):
            speed_bound(ModelParams(d=d, nu=0.1 / UNIT_BALL_VOLUME[d], v=1.5e308, tau=0.0))

    @pytest.mark.parametrize("tau", [1e155, 1e200])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_huge_tau_is_a_density_too_small_for_tau(self, d, tau):
        # tau at or above about 2**100 times v swamps theta at every
        # density: the error blames tau, in every D, not v
        with pytest.raises(DomainError, match=re.escape(f"too small for tau = {tau}")):
            speed_bound(ModelParams(d=d, nu=0.1, v=1.0, tau=tau))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_tau_swamping_theta_is_refused_alike(self, d):
        # tau of 2**100 times v or more swamps theta: speed_bound and
        # theta_of_rho refuse it alike, blaming tau, at tiny and huge v
        # too, and never report an infinite theta
        nu = 0.1 / UNIT_BALL_VOLUME[d]
        for v in (2.0**-600, 1.0, 4.0, 2.0**600):
            for ratio in (2.0**100, 2.0**200):
                p = ModelParams(d=d, nu=nu, v=v, tau=ratio * v)
                for solve in (lambda: speed_bound(p), lambda: theta_of_rho(p, 1.0)):
                    with pytest.raises(DomainError) as error:
                        solve()
                    message = str(error.value)
                    assert f"too small for tau = {p.tau}" in message
                    assert "inf" not in message
        # below 2**100 times v, speed_bound's own test of theta against
        # the rounding of tau + theta refuses every density: the cut at
        # 2**100 loses no finite bound
        rng = np.random.default_rng(29)
        for _ in range(40):
            g = float(10.0 ** rng.uniform(-15.0, 0.0))
            v = float(2.0 ** rng.uniform(-600.0, 600.0))
            p = ModelParams(
                d=d,
                nu=(1.0 - g) / UNIT_BALL_VOLUME[d],
                v=v,
                tau=float(2.0 ** rng.uniform(88.0, 100.0)) * v,
            )
            with pytest.raises(DomainError, match=re.escape(f"too small for tau = {p.tau}")):
                speed_bound(p)

    @pytest.mark.parametrize("tau", [0.0, 0.1])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_tiny_v_is_the_scaled_bound_or_domain_error(self, d, tau):
        # theta/rho scales with (v, tau) by a power of two exactly; the
        # closed forms square rho*v and A(rho), which under- or overflow
        # at tiny and huge v, and a speed or argmin theta out of the
        # normal range is refused
        for nu in (0.1, 1e-3):
            one = speed_bound(ModelParams(d=d, nu=nu, v=1.0, tau=tau))
            for k in (1, 100, 500, 510, 520, 600, 1000, 1070,
                      -1, -100, -500, -520, -600, -1000, -1023):
                p = ModelParams(d=d, nu=nu, v=2.0**-k, tau=tau * 2.0**-k)
                expected = scaled_bound(one, k)
                if expected is None:
                    assert k in (1070, -1023), (nu, k)
                    size = "small" if k > 0 else "large"
                    with pytest.raises(DomainError, match=re.escape(f"v = {p.v} is too {size}")):
                        speed_bound(p)
                    continue
                assert speed_bound(p) == expected, (nu, k)
        # tau over 2**100 times v: theta is lost against it at every density
        with pytest.raises(DomainError, match="too small for tau = 10000000000.0"):
            speed_bound(ModelParams(d=d, nu=0.1, v=1e-300, tau=1e10))

    def test_monotone_in_density(self):
        speeds = []
        for nu in np.linspace(1e-4, 0.3, 12):
            b = speed_bound(ModelParams(d=2, nu=float(nu), v=1.0, tau=0.1))
            speeds.append(b.speed)
        assert all(b >= a - 1e-12 for a, b in zip(speeds, speeds[1:]))

    def test_time_rescaling_covariance(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            d = int(rng.integers(1, 4))
            nu = float(rng.uniform(0.01, 0.9)) / psi(d, 0.0)
            v = float(rng.uniform(0.2, 2.0))
            tau = float(rng.uniform(0.0, 1.0))
            b1 = speed_bound(ModelParams(d=d, nu=nu, v=v, tau=tau))
            b2 = speed_bound(ModelParams(d=d, nu=nu, v=2.0 * v, tau=2.0 * tau))
            assert b2.speed == pytest.approx(2.0 * b1.speed, rel=1e-9)


def scan_cases(d, nu_min):
    """(params, pole) for five taus x three speeds x 25 log-spaced
    densities from nu_min to 0.999/V_D, skipping the densities whose
    pole_rho raises."""
    for tau in (0.0, 0.01, 0.1, 1.0, 10.0):
        for v in (0.5, 1.0, 3.0):
            for nu in np.geomspace(nu_min, 0.999 / UNIT_BALL_VOLUME[d], 25):
                p = ModelParams(d=d, nu=float(nu), v=v, tau=tau)
                try:
                    pole = pole_rho(p)
                except DomainError:
                    continue
                yield p, pole


def scalar_ratio(p, rho):
    try:
        return theta_of_rho(p, rho) / rho
    except DomainError:
        return math.inf


def local_minima(values):
    """Local minima of a sequence, its two ends included, after steps
    under 1e-12 relative are merged into the value before them."""
    kept = [values[0]]
    for x in values[1:]:
        if abs(x - kept[-1]) > 1e-12 * abs(kept[-1]):
            kept.append(x)
    s = np.sign(np.diff(kept))
    inner = np.count_nonzero((s[:-1] < 0) & (s[1:] > 0))
    return int(s[0] > 0) + int(inner) + int(s[-1] < 0)


class TestRatioScan:
    """The speed-bound scan: `_ratio_grid` evaluates theta/rho over the
    whole grid in one array pass."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_array_pass_is_bit_identical(self, d):
        # just below threshold the pole is near 3e-6, so the whole grid
        # takes the Taylor branch and the other branch's subset is empty;
        # the low densities give grids with no Taylor point, and in D=3
        # the grids of poles from 0.01 to 1e4 cross Psi_3's own switch.
        near = []
        for tau in (0.0, 0.1):
            p = ModelParams(d=d, nu=(1 - 1e-12) / UNIT_BALL_VOLUME[d], v=1.0, tau=tau)
            pole = pole_rho(p)
            assert _scan_grid(pole)[-1] < _SMALL_RHO
            near.append((p, pole))
        cases = 0
        for p, pole in [*scan_cases(d, 1e-300), *near]:
            grid = _scan_grid(pole)
            values = [scalar_ratio(p, r) for r in grid]
            array = _ratio_grid(p, np.array(grid))
            assert np.array_equal(array, values), p
            first_min = min(range(_SCAN_POINTS), key=values.__getitem__)
            assert int(np.argmin(array)) == first_min, p
            cases += 1
        assert cases >= 360

    @pytest.mark.parametrize("order", [0, 1])
    def test_bessel_grid_is_the_scalar_series(self, order):
        # bit for bit, so -0.0 and 0.0 differ: at order 1 the first three
        # have a first term of 0, and the sweep's large x run past
        # k = 300, where the cap is tested
        sweep = np.geomspace(1e-300, 700.0, 3000)
        x = np.array([0.0, -0.0, 5e-324, 1e-300, *sweep])
        expected = np.array([_bessel_series(v, order) for v in x.tolist()])
        got = _bessel_grid(x, order)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    def test_grid_is_the_per_point_powers(self):
        # the cached powers times lo are, bit for bit, the grid taken one
        # Python pow per point; the subnormal 1e-310 has a step of its own
        def per_point(rho_star):
            lo = 1e-6 * rho_star
            step = (_POLE_CLIP * rho_star / lo) ** (1.0 / (_SCAN_POINTS - 1))
            return np.array([lo * step**i for i in range(_SCAN_POINTS)])

        for rho_star in [*np.geomspace(1e-300, 700.0, 10_000).tolist(), 1e-310]:
            grid = _scan_grid(rho_star)
            expected = per_point(rho_star)
            assert grid.dtype == np.float64
            assert np.array_equal(grid.view(np.int64), expected.view(np.int64)), rho_star

    def test_grid_is_a_fresh_array(self):
        # writing into one grid cannot reach the cached powers behind it
        first = _scan_grid(3.0)
        expected = first.copy()
        first[:] = -1.0
        assert np.array_equal(_scan_grid(3.0), expected)

    def test_overflowing_points_are_never_the_argmin(self):
        # rho*v and A(rho) overflow on the right of the grid, where theta
        # is NaN; speed_bound scans at v in [1, 2), where they cannot, and
        # its bound is the one at the finite points
        p = ModelParams(d=3, nu=1e-100, v=1e306, tau=0.0)
        assert np.isnan(_ratio_grid(p, np.array(_scan_grid(pole_rho(p))))).any()
        assert speed_bound(p).speed == p.v

    def test_one_local_minimum(self):
        # the premise of a bracketed minimiser in place of the scan:
        # theta/rho has one local minimum on (0, pole).  Steps under
        # 1e-12 relative are merged first: compared strictly, 17 of these
        # 1125 cases show more than one, all on rounding plateaus.
        cases = 0
        for d in (1, 2, 3):
            for p, pole in scan_cases(d, 1e-6 / UNIT_BALL_VOLUME[d]):
                rho = np.geomspace(1e-9 * pole, _POLE_CLIP * pole, 3000)
                values = _ratio_grid(p, rho)
                assert local_minima(values[np.isfinite(values)].tolist()) == 1, p
                cases += 1
        assert cases == 1125


def screen_cases(seed, count):
    """count D=1 and D=3 parameter sets, alternating, for the screen: a
    quarter each of densities 1e-1 to 1e-14 below threshold, log-uniform
    ones from 1e-300 up, ones from 1e-3 of threshold up, and billiards at
    1e-4 to 3e-3 (where D=3's speed is exactly v).  v spans 1e+-300; tau
    is 0, a multiple 1e-6 to 1e3 of v, or anything in 1e+-300."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        d = 1 + 2 * (i % 2)
        threshold = 1.0 / UNIT_BALL_VOLUME[d]
        v = 10.0 ** rng.uniform(-300.0, 300.0)
        kind, draw = i // 2 % 4, rng.random()
        if kind == 3 or draw < 0.25:
            tau = 0.0
        elif draw < 0.8:
            tau = v * 10.0 ** rng.uniform(-6.0, 3.0)
        else:
            tau = 10.0 ** rng.uniform(-300.0, 300.0)
        if kind == 0:
            nu = (1.0 - 10.0 ** rng.uniform(-14.0, -1.0)) * threshold
        elif kind == 1:
            nu = threshold * 10.0 ** rng.uniform(-300.0, -0.01)
        elif kind == 2:
            nu = threshold * 10.0 ** rng.uniform(-3.0, -0.01)
        else:
            nu = 10.0 ** rng.uniform(-4.0, math.log10(3e-3))
        yield ModelParams(d=d, nu=float(nu), v=float(v), tau=float(tau))


def bounds_or_errors(cases):
    """speed_bound of each case, or the text of its DomainError."""
    out = []
    for p in cases:
        try:
            out.append(speed_bound(p))
        except DomainError as err:
            out.append(str(err))
    return out


def nudged(fn, rng):
    """fn with each positive finite result moved by -4 to 4 ulp."""

    def moved(x):
        out = fn(x)
        bits = out.view(np.int64) + rng.integers(-4, 5, out.shape)
        return np.where(np.isfinite(out) & (out > 0.0), bits.view(np.float64), out)

    return moved


class TestScreen:
    """D=1 and D=3 evaluate the scan exactly only at the points numpy's
    vector sinh, cosh and tanh cannot rule out (`_screen`)."""

    @staticmethod
    def whole_scan(monkeypatch):
        monkeypatch.setattr(kernel, "_screen", lambda params, grid: np.arange(grid.size))

    def test_screen_changes_no_result(self, monkeypatch):
        cases = list(screen_cases(27, 8400))
        screened = bounds_or_errors(cases)
        self.whole_scan(monkeypatch)
        assert bounds_or_errors(cases) == screened
        finite = sum(isinstance(b, SpeedBound) for b in screened)
        assert 3000 < finite < len(cases) - 1000, finite

    def test_screen_changes_no_result_with_nudged_hyperbolics(self, monkeypatch):
        # numpy's vector sinh, cosh and tanh are within 2 ulp of math's
        # here; the screen holds at 4
        cases = list(screen_cases(28, 2000))
        rng = np.random.default_rng(29)
        with monkeypatch.context() as m:
            for name in ("sinh", "cosh", "tanh"):
                m.setattr(np, name, nudged(getattr(np, name), rng))
            screened = bounds_or_errors(cases)
        self.whole_scan(monkeypatch)
        assert bounds_or_errors(cases) == screened

    @pytest.mark.parametrize("d", [1, 3])
    def test_screen_keeps_the_first_argmin(self, d):
        # over the bit-identity cases from 1e-3 of threshold up: the whole
        # exact scan's first argmin is a kept point, and the screen keeps
        # few points (near plateaus, and where theta = x - tau or D=3's
        # Psi cancel, it keeps many)
        kept = []
        for p, pole in scan_cases(d, 1e-3 / UNIT_BALL_VOLUME[d]):
            grid = _scan_grid(pole)
            values = _ratio_grid(p, grid)
            points = _screen(p, grid)
            assert np.all(np.diff(points) > 0)
            assert int(np.argmin(values)) in points, p
            kept.append(points.size)
        assert np.median(kept) <= 3, kept


class TestSlownessSweep:
    """Slowness (1/speed) across densities, one speed_bound per density."""

    @staticmethod
    def slowness(nu, tau):
        return speed_bound(ModelParams(d=2, nu=nu, v=1.0, tau=tau)).slowness

    def test_near_zero_density_billiard(self):
        assert self.slowness(1e-5, 0.0) == pytest.approx(1.0, abs=1e-3)

    def test_zero_at_threshold(self):
        assert self.slowness(1.0 / math.pi, 0.1) == 0.0

    def test_sqrt_density_scaling_random_walk(self):
        ratio = self.slowness(1e-4, 0.1) / self.slowness(4e-4, 0.1)
        assert ratio == pytest.approx(2.0, rel=0.05)


class TestAsymptotics:
    def test_random_walk_zero_density(self):
        p = ModelParams(d=2, nu=0.0, v=1.0, tau=0.1)
        assert asymptotic_speed_random_walk(p) == 0.0

    def test_random_walk_value(self):
        # sqrt(2e-4 * 4pi/(1-pi*1e-4) / 0.1), frozen from the mpmath oracle
        p = ModelParams(d=2, nu=1e-4, v=1.0, tau=0.1)
        assert asymptotic_speed_random_walk(p) == pytest.approx(
            0.15855800009309172, rel=1e-12
        )

    def test_random_walk_speed_homogeneity(self):
        p1 = ModelParams(d=2, nu=1e-4, v=1.0, tau=0.1)
        p2 = ModelParams(d=2, nu=1e-4, v=2.0, tau=0.1)
        ratio = asymptotic_speed_random_walk(p2) / asymptotic_speed_random_walk(p1)
        assert ratio == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_random_walk_is_the_small_density_speed_in_every_d(self, d):
        rng = np.random.default_rng(d)
        for _ in range(200):
            p = ModelParams(
                d=d, nu=float(rng.uniform(0.0, 0.99)) / UNIT_BALL_VOLUME[d],
                v=float(10.0 ** rng.uniform(-2.0, 2.0)),
                tau=float(10.0 ** rng.uniform(-3.0, 3.0)),
            )
            assert asymptotic_speed_random_walk(p) == pytest.approx(
                small_density_speed(p), rel=1e-14
            )

    def test_random_walk_matches_full_bound_at_small_density(self):
        p = ModelParams(d=2, nu=1e-5, v=1.0, tau=0.1)
        full = speed_bound(p).speed
        asym = asymptotic_speed_random_walk(p)
        assert full / asym == pytest.approx(1.0, abs=0.05)

    def test_billiard_zero_density(self):
        p = ModelParams(d=2, nu=0.0, v=1.5, tau=0.0)
        assert billiard_oracle(p) == 1.5
        assert speed_bound(p).speed == 1.5

    def test_billiard_near_v(self):
        p = ModelParams(d=2, nu=1e-3, v=1.0, tau=0.0)
        assert billiard_oracle(p) == pytest.approx(1.0, abs=1e-3)
        assert speed_bound(p).speed == pytest.approx(billiard_oracle(p), rel=1e-9)

    def test_billiard_equals_full_bound(self):
        for nu in (0.01, 0.05, 0.2):
            p = ModelParams(d=2, nu=nu, v=1.0, tau=0.0)
            assert speed_bound(p).speed == pytest.approx(billiard_oracle(p), rel=1e-9)

    def test_billiard_quadratic_excess(self):
        e3 = speed_bound(ModelParams(d=2, nu=1e-3, v=1.0, tau=0.0)).speed - 1.0
        e4 = speed_bound(ModelParams(d=2, nu=1e-4, v=1.0, tau=0.0)).speed - 1.0
        assert 50.0 <= e3 / e4 <= 200.0

    def test_wrong_regime_rejected(self):
        # billiard motion, or a density at or above 1/V_D
        for d, nu, tau in ((2, 0.01, 0.0), (2, 1.0 / math.pi, 0.1), (2, 0.5, 0.1),
                           (1, 0.5, 0.1), (3, 0.3, 0.1)):
            with pytest.raises(DomainError):
                asymptotic_speed_random_walk(ModelParams(d=d, nu=nu, v=1.0, tau=tau))
        with pytest.raises(DomainError):
            billiard_oracle(ModelParams(d=2, nu=0.01, v=1.0, tau=0.1))
        with pytest.raises(DomainError):
            billiard_oracle(ModelParams(d=1, nu=0.01, v=1.0, tau=0.0))
