"""Special functions used by the propagation-speed kernel.

Modified Bessel functions I0/I1 (power series), and the dimension-indexed
transform factors Xi_D, Psi_D, Y_D for D in {1, 2, 3}.  All functions are
pure and thread-safe.
"""

import math
import operator

# exp/cosh overflow region starts near 709 in double precision
MAX_ARG = 700.0

# Bessel series term cap, plus int(x): the terms peak near k = x/2, and at
# x = MAX_ARG the sum has converged by k = 463, so 300 + x terms suffice
# over the whole domain.
_SERIES_CAP = 300
_SMALL_RHO = 1e-4     # switch to Taylor expansion below this (0/0 guards)
# Psi_3's closed form loses about 3*eps/rho**2 of its value to cancellation;
# below this it takes its Taylor polynomial, whose first omitted term is
# under 1e-22 of the sum there
_PSI3_TAYLOR_RHO = 0.01
_SMALL_RHOV_RATIO = 1e-4   # Y_3 series branch when rho*v << tau+theta

# volume of the unit communication ball per dimension
UNIT_BALL_VOLUME = {1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0}


class DomainError(ValueError):
    """Argument lies outside a function's domain of validity."""


def check_dim(d):
    """Validate a spatial dimension; only the integers 1, 2, 3 are supported."""
    if d.__class__ is int and 1 <= d <= 3:  # xi, psi and y check every call
        return d
    if d is True or d is False:  # a bool is an int to operator.index
        raise DomainError(f"dimension must be an integer, got {d!r}")
    try:
        d = operator.index(d)
    except TypeError:
        raise DomainError(f"dimension must be an integer, got {d!r}") from None
    if d not in (1, 2, 3):
        raise DomainError(f"dimension must be 1, 2 or 3, got {d!r}")
    return d


def _domain_error(name, var, x):
    """The one error for an argument outside [0, MAX_ARG].  Callers test
    `0.0 <= x <= MAX_ARG` inline (NaN fails it too): a helper call per
    evaluation would cost the speed-bound scan several percent."""
    if x > MAX_ARG:
        return DomainError(f"{name} argument {x} exceeds overflow guard {MAX_ARG}")
    return DomainError(f"{name} requires {var} >= 0, got {x}")


def _bessel_series(x, order):
    """Power series of I_order(x) for order 0 or 1 and 0 <= x <= MAX_ARG.

    The term cap grows with x, so the series converges in double
    precision over that whole range.
    """
    q = 0.25 * x * x
    term = (0.5 * x) ** order
    total = term
    for k in range(1, _SERIES_CAP + int(x) + 1):
        term *= q / (k * (k + order))
        total += term
        if term < 1e-16 * total or total == 0.0:
            break
    return total


def bessel_i0(x):
    """Modified Bessel function I0(x) by power series, 0 <= x <= MAX_ARG."""
    if not 0.0 <= x <= MAX_ARG:
        raise _domain_error("bessel_i0", "x", x)
    return _bessel_series(x, 0)


def bessel_i1(x):
    """Modified Bessel function I1(x) by power series; domain as bessel_i0."""
    if not 0.0 <= x <= MAX_ARG:
        raise _domain_error("bessel_i1", "x", x)
    return _bessel_series(x, 1)


def xi(d, rho):
    """Xi_D(rho): 2*cosh(rho), 2*pi*I0(rho), 4*pi*sinh(rho)/rho for D=1,2,3."""
    check_dim(d)
    if not 0.0 <= rho <= MAX_ARG:
        raise _domain_error("xi", "rho", rho)
    if d == 1:
        if rho < _SMALL_RHO:
            r2 = rho * rho
            return 2.0 * (1.0 + r2 / 2.0 + r2 * r2 / 24.0)
        return 2.0 * math.cosh(rho)
    if d == 2:
        return 2.0 * math.pi * _bessel_series(rho, 0)
    if rho < _SMALL_RHO:
        r2 = rho * rho
        return 4.0 * math.pi * (1.0 + r2 / 6.0 + r2 * r2 / 120.0)
    return 4.0 * math.pi * math.sinh(rho) / rho


def psi(d, rho):
    """Psi_D(rho): the uniform-ball transform factor; Psi_D(0) = V_D."""
    check_dim(d)
    if not 0.0 <= rho <= MAX_ARG:
        raise _domain_error("psi", "rho", rho)
    r2 = rho * rho
    if d == 1:
        if rho < _SMALL_RHO:
            return 2.0 * (1.0 + r2 / 6.0 + r2 * r2 / 120.0)
        return 2.0 * math.sinh(rho) / rho
    if d == 2:
        if rho < _SMALL_RHO:
            return 2.0 * math.pi * (0.5 + r2 / 16.0 + r2 * r2 / 384.0)
        return 2.0 * math.pi * _bessel_series(rho, 1) / rho
    # D=3: rho*cosh(rho) - sinh(rho) cancels catastrophically near 0
    if rho < _PSI3_TAYLOR_RHO:
        return 4.0 * math.pi * (
            1.0 / 3.0 + r2 / 30.0 + r2 * r2 / 840.0 + r2 * r2 * r2 / 45360.0
        )
    return 4.0 * math.pi * (rho * math.cosh(rho) - math.sinh(rho)) / (r2 * rho)


def y(d, rho, theta, v, tau):
    """Y_D(rho, theta), the per-carry Laplace factor of the journey transform.

    Requires tau + theta > rho * v (convergence region of the transform).
    """
    check_dim(d)
    if not all(map(math.isfinite, (rho, theta, v, tau))):
        raise DomainError(
            f"y requires finite rho, theta, v and tau, got {rho}, {theta}, {v}, {tau}"
        )
    if rho < 0.0:
        raise DomainError(f"y requires rho >= 0, got {rho}")
    x = tau + theta
    a = rho * v
    if x <= a:
        raise DomainError(
            f"y requires tau + theta > rho*v, got tau+theta={x}, rho*v={a}"
        )
    if d == 1:
        return x / (x * x - a * a)
    if d == 2:
        return 1.0 / math.sqrt(x * x - a * a)
    u = a / x
    if u < _SMALL_RHOV_RATIO:
        # log((x+a)/(x-a)) / (2a) = (1 + u^2/3 + u^4/5 + ...) / x; the
        # direct log cancels when u is tiny
        return (1.0 + u * u / 3.0 + u**4 / 5.0) / x
    return math.log((x + a) / (x - a)) / (2.0 * a)
