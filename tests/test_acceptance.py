"""Acceptance suite: one criterion per test, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines live.  The
figure-reproduction criterion simulates six scenarios at 100 runs each and
dominates the total runtime (several minutes).
"""

import math
import time

import numpy as np
import pytest

from dtnspeed.cli import judge_runs
from dtnspeed.kernel import (
    BoundStatus,
    KernelPoint,
    ModelParams,
    asymptotic_speed_random_walk,
    kernel_residual,
    pole_rho,
    speed_bound,
    theta_of_rho,
)
from dtnspeed.sim import SimConfig, advance, flood, init_world, run_epidemic
from dtnspeed.specfun import UNIT_BALL_VOLUME, bessel_i0, bessel_i1, psi, xi, y
from dtnspeed.stats import curve_r_squared

from test_kernel import bisect_theta
from test_sim import bfs_oracle


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_special_function_oracles():
    rng = np.random.default_rng(101)
    xs = rng.uniform(0.0, 30.0, 1000)
    rhos = rng.uniform(1e-3, 30.0, 1000)
    dims = rng.integers(1, 4, 1000)
    y_rho = rng.uniform(0.01, 5.0, 1000)
    y_v = rng.uniform(0.1, 2.0, 1000)
    y_tau = rng.uniform(0.0, 1.0, 1000)
    y_theta = y_rho * y_v - y_tau + rng.uniform(0.05, 5.0, 1000)

    # extended-precision oracles, computed outside the timed section
    from mpmath import mp, mpf, besseli, cosh, sinh, pi as mppi, log as mplog
    from mpmath import sqrt as mpsqrt

    with mp.workdps(40):
        oracle_i0 = [float(besseli(0, mpf(x))) for x in xs]
        oracle_i1 = [float(besseli(1, mpf(x))) for x in xs]
        oracle_xi, oracle_psi = [], []
        for d, r in zip(dims, rhos):
            rr = mpf(r)
            if d == 1:
                oracle_xi.append(float(2 * cosh(rr)))
                oracle_psi.append(float(2 * sinh(rr) / rr))
            elif d == 2:
                oracle_xi.append(float(2 * mppi * besseli(0, rr)))
                oracle_psi.append(float(2 * mppi * besseli(1, rr) / rr))
            else:
                oracle_xi.append(float(4 * mppi * sinh(rr) / rr))
                oracle_psi.append(
                    float(4 * mppi * (rr * cosh(rr) - sinh(rr)) / rr**3)
                )
        oracle_y = []
        for d, r, th, v, tau in zip(dims, y_rho, y_theta, y_v, y_tau):
            x, a = mpf(tau) + mpf(th), mpf(r) * mpf(v)
            if d == 1:
                oracle_y.append(float(x / (x * x - a * a)))
            elif d == 2:
                oracle_y.append(float(1 / mpsqrt(x * x - a * a)))
            else:
                oracle_y.append(float(mplog((x + a) / (x - a)) / (2 * a)))

    start = time.perf_counter()
    got_i0 = [bessel_i0(x) for x in xs]
    got_i1 = [bessel_i1(x) for x in xs]
    got_xi = [xi(int(d), r) for d, r in zip(dims, rhos)]
    got_psi = [psi(int(d), r) for d, r in zip(dims, rhos)]
    got_y = [
        y(int(d), r, th, v, tau)
        for d, r, th, v, tau in zip(dims, y_rho, y_theta, y_v, y_tau)
    ]
    elapsed = time.perf_counter() - start

    worst = 0.0
    for got, expected in (
        (got_i0, oracle_i0),
        (got_i1, oracle_i1),
        (got_xi, oracle_xi),
        (got_psi, oracle_psi),
        (got_y, oracle_y),
    ):
        for g, e in zip(got, expected):
            worst = max(worst, abs(g - e) / max(abs(e), 1e-300))
    ok = worst < 1e-12 and elapsed < 1.0
    report(1, ok, f"worst relative error {worst:.2e}, eval time {elapsed:.2f}s")


def test_criterion_2_kernel_root_consistency():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 4))
        p = ModelParams(
            d=d,
            nu=float(rng.uniform(0.0, 0.9)) / UNIT_BALL_VOLUME[d],
            v=float(rng.uniform(0.2, 3.0)),
            tau=float(rng.uniform(0.0, 2.0)),
        )
        rho = float(rng.uniform(1e-3, 0.999)) * min(pole_rho(p), 50.0)
        theta = theta_of_rho(p, rho)
        res = abs(kernel_residual(p, KernelPoint(rho, theta)))
        worst = max(worst, res / max(1.0, p.tau + theta))
    closed_vs_bisect = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 3))
        p = ModelParams(
            d=d,
            nu=float(rng.uniform(0.01, 0.9)) / UNIT_BALL_VOLUME[d],
            v=float(rng.uniform(0.2, 2.0)),
            tau=float(rng.uniform(0.0, 1.0)),
        )
        rho = float(rng.uniform(0.05, 0.95)) * min(pole_rho(p), 30.0)
        diff = abs(theta_of_rho(p, rho) - bisect_theta(p, rho))
        closed_vs_bisect = max(closed_vs_bisect, diff)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and closed_vs_bisect < 1e-10 * 30 and elapsed < 5.0
    report(
        2,
        ok,
        f"max normalized residual {worst:.2e}, closed-vs-bisection "
        f"{closed_vs_bisect:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_threshold_behavior():
    flips_exact = True
    for d in (1, 2, 3):
        thr = 1.0 / UNIT_BALL_VOLUME[d]
        below = speed_bound(ModelParams(d=d, nu=thr * (1.0 - 1e-9), v=1.0, tau=0.0))
        at = speed_bound(ModelParams(d=d, nu=thr, v=1.0, tau=0.0))
        above = speed_bound(ModelParams(d=d, nu=thr * 1.01, v=1.0, tau=0.3))
        flips_exact &= below.status == BoundStatus.FINITE
        flips_exact &= at.status == BoundStatus.UNBOUNDED
        flips_exact &= above.status == BoundStatus.UNBOUNDED

    thr2 = 1.0 / math.pi
    grid = list(np.linspace(0.01, thr2 - 1e-3, 60))
    sweep = [(nu, speed_bound(ModelParams(2, nu, 1.0, 0.0)).slowness) for nu in grid]
    slow = [s for _, s in sweep]
    decreasing = all(b <= a + 1e-12 for a, b in zip(slow, slow[1:]))
    jumps = max(abs(b - a) for a, b in zip(slow, slow[1:]))
    last_small = slow[-1] < 0.05
    ok = flips_exact and decreasing and last_small
    report(
        3,
        ok,
        f"status flips exact={flips_exact}, sweep decreasing={decreasing} "
        f"(max step {jumps:.3f}), slowness near threshold {slow[-1]:.3e}",
    )


def test_criterion_4_billiard_quadratic_excess():
    start = time.perf_counter()
    e3 = speed_bound(ModelParams(d=2, nu=1e-3, v=1.0, tau=0.0)).speed - 1.0
    e4 = speed_bound(ModelParams(d=2, nu=1e-4, v=1.0, tau=0.0)).speed - 1.0
    ratio = e3 / e4
    elapsed = time.perf_counter() - start
    ok = 50.0 <= ratio <= 200.0 and e4 < 1e-6 and elapsed < 1.0
    report(
        4,
        ok,
        f"excess ratio {ratio:.1f} (quadratic ~100), excess(1e-4)={e4:.2e}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_5_random_walk_asymptotic():
    start = time.perf_counter()
    p = ModelParams(d=2, nu=1e-5, v=1.0, tau=0.1)
    ratio = speed_bound(p).speed / asymptotic_speed_random_walk(p)
    elapsed = time.perf_counter() - start
    ok = 0.95 <= ratio <= 1.05 and elapsed < 1.0
    report(5, ok, f"full/asymptotic ratio {ratio:.4f}, {elapsed:.2f}s")


def test_criterion_6_simulator_physics():
    start = time.perf_counter()
    cfg = SimConfig(
        d=2, box_length=30.0, n=100, v=1.0, tau=0.1, dt=0.1, t_max=1000.0, seed=606
    )
    w = init_world(cfg)
    contained = True
    speed_ok = True
    for _ in range(int(cfg.t_max / cfg.dt)):
        advance(w)
        contained &= bool(
            np.all(w.positions >= 0.0) and np.all(w.positions <= cfg.box_length)
        )
        speed_ok &= bool(
            np.allclose(np.linalg.norm(w.directions, axis=1), 1.0, atol=1e-9)
        )
    expected = cfg.tau * cfg.t_max
    mean_turns = w.turn_count.mean()
    poisson_ok = abs(mean_turns - expected) < 3.0 * math.sqrt(expected / cfg.n)

    flood_ok = True
    rng = np.random.default_rng(607)
    for trial in range(100):
        n = int(rng.integers(10, 201))
        snap = SimConfig(
            d=2,
            box_length=float(rng.uniform(8.0, 25.0)),
            n=n,
            v=1.0,
            tau=0.0,
            dt=0.05,
            t_max=1.0,
            seed=int(rng.integers(0, 2**32)),
        )
        world = init_world(snap)
        seeds = set(map(int, rng.choice(n, size=int(rng.integers(1, 4)), replace=False)))
        world.infected[:] = False
        for s in seeds:
            world.infected[s] = True
        flood(world)
        oracle = bfs_oracle(
            [tuple(p) for p in world.positions], seeds, snap.radio_range
        )
        flood_ok &= set(np.flatnonzero(world.infected)) == oracle
    elapsed = time.perf_counter() - start
    ok = contained and speed_ok and poisson_ok and flood_ok and elapsed < 30.0
    report(
        6,
        ok,
        f"in-box={contained}, |dir|=1 to 1e-9: {speed_ok}, mean turns "
        f"{mean_turns:.1f} vs {expected:.0f} (3-sigma), flood==BFS: {flood_ok}, "
        f"{elapsed:.1f}s",
    )


SCENARIOS = [
    (0.0, 0.025, 80.0),
    (0.0, 0.05, 60.0),
    (0.0, 0.1, 40.0),
    (0.1, 0.025, 80.0),
    (0.1, 0.05, 60.0),
    (0.1, 0.1, 40.0),
]


@pytest.mark.parametrize("tau,nu,L", SCENARIOS)
def test_criterion_7_figure_scenarios(tau, nu, L):
    start = time.perf_counter()
    n = round(nu * L * L)
    cfg = SimConfig(d=2, box_length=L, n=n, v=1.0, tau=tau, dt=0.05, t_max=1000.0)
    bound = speed_bound(ModelParams(d=2, nu=nu, v=1.0, tau=tau))
    d_min, d_max = 5.0, L / 2.0
    curve, verdict = judge_runs(run_epidemic(cfg, runs=100), bound, d_min, d_max, 2.0)
    r2 = curve_r_squared(curve, d_min, d_max)
    elapsed = time.perf_counter() - start
    ok = verdict.passed and r2 > 0.95 and elapsed < 600.0
    report(
        f"7 (nu={nu}, L={L:.0f}, tau={tau})",
        ok,
        f"fitted slowness {verdict.fitted_slowness:.3f}+-{verdict.stderr:.3f} vs "
        f"theoretical {verdict.theoretical_slowness:.3f}, R2={r2:.3f}, {elapsed:.0f}s",
    )


def test_criterion_8_dt_refinement_stability():
    start = time.perf_counter()
    bound = speed_bound(ModelParams(2, 0.1, 1.0, 0.0))  # nu = 160 / 40**2
    slopes = {}
    for dt in (0.05, 0.025):
        cfg = SimConfig(
            d=2, box_length=40.0, n=160, v=1.0, tau=0.0, dt=dt, t_max=1000.0
        )
        verdict = judge_runs(run_epidemic(cfg, runs=20), bound, 5.0, 20.0, 2.0)[1]
        slopes[dt] = verdict.fitted_slowness
    change = abs(slopes[0.025] - slopes[0.05]) / slopes[0.05]
    elapsed = time.perf_counter() - start
    ok = change < 0.05 and elapsed < 600.0
    report(
        8,
        ok,
        f"slowness {slopes[0.05]:.4f} (dt=0.05) vs {slopes[0.025]:.4f} "
        f"(dt=0.025): change {change * 100:.2f}%, {elapsed:.0f}s",
    )


def test_criterion_9_end_to_end_determinism(tmp_path):
    from dtnspeed.cli import main

    args = [
        "compare", "--dim", "2", "--L", "20", "--n", "40", "--v", "1",
        "--tau", "0", "--tmax", "300", "--seed", "12", "--runs", "5",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    code_a = main(args + ["--out", str(a)])
    code_b = main(args + ["--out", str(b)])
    identical = a.read_bytes() == b.read_bytes()
    ok = identical and code_a == code_b == 0
    report(9, ok, f"byte-identical={identical}, exit codes {code_a}/{code_b}")
