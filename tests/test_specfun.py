import math

import numpy as np
import pytest

from dtnspeed.specfun import (
    _PSI3_TAYLOR_RHO,
    DomainError,
    UNIT_BALL_VOLUME,
    bessel_i0,
    bessel_i1,
    check_dim,
    psi,
    xi,
    y,
)

# frozen from a 40-digit mpmath series/direct-evaluation oracle
I0_1 = 1.2660658777520083
I0_2 = 2.2795853023360673
I1_1 = 0.5651591039924851
I1_2 = 1.5906368546373291


def mp_oracle_i(order, x):
    """Independent extended-precision power-series oracle."""
    from mpmath import mp, mpf, factorial

    terms = 200 + int(x)  # the terms peak near k = x/2
    with mp.workdps(50):
        half = mpf(x) / 2
        total = mpf(0)
        for k in range(terms):
            if order == 0:
                total += half ** (2 * k) / factorial(k) ** 2
            else:
                total += half ** (2 * k + 1) / (factorial(k) * factorial(k + 1))
        return float(total)


class TestDim:
    @pytest.mark.parametrize("d", [1, 2, 3, np.int64(2)])
    def test_valid(self, d):
        assert check_dim(d) == d

    @pytest.mark.parametrize("d", [0, 4, -1, 2.0, "2", None, True, False])
    def test_invalid(self, d):
        with pytest.raises(DomainError):
            check_dim(d)


class TestBessel:
    def test_i0_at_zero(self):
        assert bessel_i0(0.0) == 1.0

    def test_i1_at_zero(self):
        assert bessel_i1(0.0) == 0.0

    @pytest.mark.parametrize(
        "x,expected", [(1.0, I0_1), (2.0, I0_2)]
    )
    def test_i0_known(self, x, expected):
        assert bessel_i0(x) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize(
        "x,expected", [(1.0, I1_1), (2.0, I1_2)]
    )
    def test_i1_known(self, x, expected):
        assert bessel_i1(x) == pytest.approx(expected, rel=1e-13)

    def test_domain(self):
        for fn in (bessel_i0, bessel_i1):
            with pytest.raises(DomainError, match=r"requires x >= 0, got -1e-09$"):
                fn(-1e-9)
            with pytest.raises(DomainError, match="701.0 exceeds overflow guard 700.0"):
                fn(701.0)
            with pytest.raises(DomainError):
                fn(math.nan)

    def test_series_oracle_grid(self):
        # up to MAX_ARG, where the series needs over 400 terms
        for x in [*np.linspace(0.0, 30.0, 61), 450.0, 600.0, 700.0]:
            assert bessel_i0(x) == pytest.approx(mp_oracle_i(0, x), rel=1e-12)
            assert bessel_i1(x) == pytest.approx(mp_oracle_i(1, x), rel=1e-12)


class TestXi:
    def test_limits(self):
        assert xi(1, 1e-9) == pytest.approx(2.0, rel=1e-12)
        assert xi(2, 1e-9) == pytest.approx(2.0 * math.pi, rel=1e-12)
        assert xi(3, 1e-9) == pytest.approx(4.0 * math.pi, rel=1e-12)

    def test_hyperbolic_value(self):
        # 2*cosh(1), frozen from direct extended-precision evaluation
        assert xi(1, 1.0) == pytest.approx(3.0861612696304874, rel=1e-13)

    def test_xi2_value(self):
        # 2*pi*I0(1)
        assert xi(2, 1.0) == pytest.approx(7.954926521012845, rel=1e-13)

    def test_small_rho_branch_continuity(self):
        for d in (1, 2, 3):
            assert xi(d, 0.99e-4) == pytest.approx(xi(d, 1.01e-4), rel=1e-7)

    def test_negative_rho(self):
        with pytest.raises(DomainError, match=r"^xi requires rho >= 0, got -0.1$"):
            xi(2, -0.1)
        with pytest.raises(DomainError, match=r"^xi argument 701.0 exceeds"):
            xi(1, 701.0)
        with pytest.raises(DomainError):
            xi(3, math.nan)


class TestPsi:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_zero_limit_is_unit_ball_volume(self, d):
        assert abs(psi(d, 1e-6) - UNIT_BALL_VOLUME[d]) < 1e-8

    def test_small_rho_branch_continuity(self):
        for d in (1, 2, 3):
            assert psi(d, 0.99e-4) == pytest.approx(psi(d, 1.01e-4), rel=1e-7)

    def test_psi3_matches_mpmath_where_its_closed_form_cancels(self):
        # rho*cosh(rho) - sinh(rho) loses about 3*eps/rho**2 of Psi_3 to
        # cancellation (3e-8 at rho = 1e-4); below the switch the Taylor
        # polynomial keeps it to rounding, and above it the loss is under
        # 4e-12
        from mpmath import cosh, mp, mpf, pi as mppi, sinh

        with mp.workdps(50):
            for rho in np.geomspace(1e-6, 0.1, 61).tolist():
                r = mpf(rho)
                exact = float(4 * mppi * (r * cosh(r) - sinh(r)) / r**3)
                rel = 1e-15 if rho < _PSI3_TAYLOR_RHO else 4e-12
                assert psi(3, rho) == pytest.approx(exact, rel=rel), rho

    def test_negative_rho(self):
        with pytest.raises(DomainError, match=r"^psi requires rho >= 0, got -1.0$"):
            psi(3, -1.0)
        with pytest.raises(DomainError, match=r"^psi argument inf exceeds"):
            psi(2, math.inf)
        with pytest.raises(DomainError):
            psi(2, math.nan)


class TestMonotonicity:
    grid = np.linspace(30.0 / 1000, 30.0, 1000)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_xi_strictly_increasing(self, d):
        vals = [xi(d, r) for r in self.grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_psi_strictly_increasing(self, d):
        vals = [psi(d, r) for r in self.grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_above_zero_limits(self, d):
        for r in np.linspace(0.0, 30.0, 100):
            assert xi(d, r) >= xi(d, 0.0)
            assert psi(d, r) >= UNIT_BALL_VOLUME[d] * (1.0 - 1e-15)


class TestY:
    def test_trivial_values(self):
        assert y(2, 1.0, 1.0, 0.0, 0.0) == pytest.approx(1.0)
        assert y(1, 1.0, 2.0, 1.0, 0.0) == pytest.approx(2.0 / 3.0)
        # (1/2)*log(3), frozen from direct evaluation
        assert y(3, 1.0, 2.0, 1.0, 0.0) == pytest.approx(
            0.5493061443340548, rel=1e-13
        )

    def test_domain_boundary(self):
        with pytest.raises(DomainError):
            y(2, 1.0, 0.5, 1.0, 0.5)  # tau + theta == rho*v
        with pytest.raises(DomainError):
            y(1, 2.0, 0.5, 1.0, 0.0)
        with pytest.raises(DomainError, match="requires rho >= 0"):
            y(2, -0.5, 1.0, 1.0, 0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("arg", ["rho", "theta", "v", "tau"])
    def test_non_finite_argument_rejected(self, arg, bad):
        # y(2, 1.0, nan, 1.0, 0.1) once returned nan, and theta = inf 0.0
        args = {"rho": 1.0, "theta": 1.0, "v": 1.0, "tau": 0.1, arg: bad}
        for d in (1, 2, 3):
            with pytest.raises(DomainError, match="requires finite rho, theta, v and tau"):
                y(d, **args)

    @pytest.mark.parametrize(
        "d,rho,theta,expected",
        [
            # x*x overflows: the value once read 0.0, or NaN
            (1, 1.0, 1e200, 1.0e-200),
            (2, 1.0, 1e200, 1.0e-200),
            (1, 1e200, 2e200, 6.666666666666667e-201),
            (2, 1e200, 2e200, 5.773502691896258e-201),
            (3, 1e200, 2e200, 5.493061443340548e-201),
            # x*x underflows to zero: once a bare ZeroDivisionError
            (1, 1e-200, 3e-200, 3.75e199),
            (2, 1e-200, 3e-200, 3.5355339059327376e199),
            (3, 1e-200, 3e-200, 3.4657359027997267e199),
            # x + a overflows (and 2a in the second): once inf and NaN
            (3, 1.5e307, 1.7e308, 5.89769027196927e-309),
            (3, 0.97e308, 1.0e308, 2.157005896943236e-308),
        ],
    )
    def test_extreme_arguments(self, d, rho, theta, expected):
        # expected values from mpmath at 50 digits; the two D=3 values
        # near 1e-308 are subnormal or nearly so (abs=0: approx's default
        # absolute slack of 1e-12 would pass 0.0)
        assert y(d, rho, theta, 1.0, 0.0) == pytest.approx(expected, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_unrepresentable_value_refused(self, d):
        # 1/5e-324 is past the largest float
        with pytest.raises(DomainError, match="overflows"):
            y(d, 0.0, 5e-324, 1.0, 0.0)

    def test_y3_small_rhov_limit(self):
        assert y(3, 1e-10, 2.0, 1.0, 0.5) == pytest.approx(1.0 / 2.5, rel=1e-12)

    def test_y3_branch_accuracy_at_crossover(self):
        from mpmath import mp, mpf, log as mplog

        with mp.workdps(50):
            for rho in (0.99e-4, 1.01e-4):
                a = mpf(rho)
                exact = float(mplog((1 + a) / (1 - a)) / (2 * a))
                assert y(3, rho, 1.0, 1.0, 0.0) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_strictly_decreasing_in_theta(self, d):
        rho, v, tau = 1.3, 1.0, 0.2
        thetas = np.linspace(rho * v - tau + 0.05, 20.0, 200)
        vals = [y(d, rho, t, v, tau) for t in thetas]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_mpmath_oracle_grid(self):
        from mpmath import mp, mpf, log as mplog, sqrt as mpsqrt

        rng = np.random.default_rng(7)
        with mp.workdps(50):
            for _ in range(100):
                d = int(rng.integers(1, 4))
                rho = float(rng.uniform(0.01, 5.0))
                v = float(rng.uniform(0.1, 2.0))
                tau = float(rng.uniform(0.0, 1.0))
                theta = rho * v - tau + float(rng.uniform(0.05, 5.0))
                if tau + theta <= rho * v:
                    continue
                x, a = mpf(tau) + mpf(theta), mpf(rho) * mpf(v)
                if d == 1:
                    expected = x / (x * x - a * a)
                elif d == 2:
                    expected = 1 / mpsqrt(x * x - a * a)
                else:
                    expected = mplog((x + a) / (x - a)) / (2 * a)
                assert y(d, rho, theta, v, tau) == pytest.approx(
                    float(expected), rel=1e-12
                )
