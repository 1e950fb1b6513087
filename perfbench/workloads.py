"""Benchmark workloads: the CLI commands each pass runs, made from the
benchmark seed, and the checks their outputs must pass.

A pass is one user-level answer (the whole figure, one compare, one
large simulation, one set of sweeps).  Seed s always gives the same pass,
drawn from random.Random(f"{workload}:{s}"); the program only ever sees
the resulting command lines.
"""

import csv
import io
import json
import math
import random
import re
from dataclasses import dataclass
from typing import Callable, List, Optional

V = 1.0
DT = 0.05
UNIT_BALL_VOLUME = {1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0}

# acceptance-7 figure scenarios: (tau, nu, L)
FIGURE_SCENARIOS = [
    (0.0, 0.025, 80.0),
    (0.0, 0.05, 60.0),
    (0.0, 0.1, 40.0),
    (0.1, 0.025, 80.0),
    (0.1, 0.05, 60.0),
    (0.1, 0.1, 40.0),
]
FIGURE_RUNS = 4            # per scenario and pass: enough front records to fit

LARGE_N = dict(L=120.0, nu=0.05, tau=0.1, tmax=1000.0)
LARGE_N_RUNS = 2           # one run's wall time varies about 10% with the seed

SWEEP_DIMS = (1, 2, 3)
SWEEP_TAUS = (0.0, 0.1)
SWEEP_POINTS = 50
SWEEP_NU_MAX_FRAC = 0.95   # of the threshold 1/V_D


# compare's refusal to fit too few front records: a correct outcome
# (exit 2, no curve) that a sparse scenario with a few runs can meet
TOO_FEW_RECORDS = re.compile(r"error: need at least 10 records .*, got (\d+)$")


@dataclass
class Op:
    """One CLI invocation: argv (output path last), the units of work it
    does (simulation runs or bounds), and its output check, called as
    check(stdout, stderr, exit_code, csv_bytes_or_None) -> problems."""

    label: str
    argv: List[str]
    out: str
    units: int
    check: Callable[[str, str, int, Optional[bytes]], List[str]]


def _fmt(x):
    return repr(float(x))


def sim_argv(command, d, L, nu, tau, tmax, seed, runs, out):
    return [
        command, "--dim", str(d), "--L", _fmt(L), "--nu", _fmt(nu),
        "--v", _fmt(V), "--tau", _fmt(tau), "--dt", _fmt(DT),
        "--tmax", _fmt(tmax), "--seed", str(seed), "--runs", str(runs),
        "--out", out,
    ]


def _csv_rows(data, header):
    if data is None:
        return None, ["no output file"]
    rows = list(csv.reader(io.StringIO(data.decode())))
    if not rows or rows[0] != header:
        return None, [f"bad CSV header {rows[0] if rows else None}"]
    return rows[1:], []


def _domination_line(stdout):
    """The JSON verdict compare prints as its last stdout line."""
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def _too_few_records(stderr, code, data):
    match = TOO_FEW_RECORDS.match(stderr.strip())
    return code == 2 and data is None and match and int(match.group(1)) < 10


def check_compare(theoretical):
    def check(stdout, stderr, code, data):
        if _too_few_records(stderr, code, data):
            return []
        problems = [f"stderr: {stderr.strip()}"] if stderr.strip() else []
        if code != 0:
            problems.append(f"compare exited {code}")
        verdict = _domination_line(stdout)
        if verdict is None:
            return problems + ["no domination JSON line"]
        if verdict.get("pass") is not True:
            problems.append("domination check did not pass")
        got = verdict.get("theoretical_slowness")
        if theoretical is not None and not (
            isinstance(got, float) and math.isclose(got, theoretical, rel_tol=1e-9)
        ):
            problems.append(f"theoretical slowness {got} != {theoretical}")
        rows, bad = _csv_rows(data, ["distance", "mean_time", "std_error", "count"])
        if bad:
            return problems + bad
        if not rows:
            problems.append("empty curve")
        for distance, mean_time, _, count in rows:
            if not (float(distance) > 0 and float(mean_time) >= 0 and int(count) > 0):
                problems.append(f"bad curve row {distance},{mean_time},{count}")
                break
        return problems

    return check


def check_simulate(n, L, d, runs):
    def check(stdout, stderr, code, data):
        if code != 0 or stderr.strip():
            return [f"simulate exited {code}: {stderr.strip()}"]
        rows, bad = _csv_rows(
            data, ["run_seed", "node_id", "infection_time", "distance"]
        )
        if bad:
            return bad
        by_run = {}
        for seed, node, t, dist in rows:
            by_run.setdefault(int(seed), []).append((int(node), float(t), float(dist)))
        problems = []
        if len(by_run) != runs:
            problems.append(f"{len(by_run)} runs in records, expected {runs}")
        for seed, recs in by_run.items():
            nodes = [r[0] for r in recs]
            times = [r[1] for r in recs]
            if recs[0][:3] != (0, 0.0, 0.0):
                problems.append(f"run {seed}: source record missing")
            if len(set(nodes)) != len(nodes) or not all(0 <= i < n for i in nodes):
                problems.append(f"run {seed}: bad node ids")
            if times != sorted(times):
                problems.append(f"run {seed}: infection times out of order")
            if max(r[2] for r in recs) > L * math.sqrt(d) + 1e-9:
                problems.append(f"run {seed}: distance outside the box")
        return problems

    return check


def check_sweep(points, tau):
    """Slowness is positive, falls with density, and (billiard) is at most
    1/v, since the flood is never slower than one moving node."""

    def check(stdout, stderr, code, data):
        if code != 0 or stderr.strip():
            return [f"sweep exited {code}: {stderr.strip()}"]
        rows, bad = _csv_rows(
            data, ["nu", "slowness", "speed", "rho0", "theta0", "status"]
        )
        if bad:
            return bad
        problems = []
        if len(rows) != points:
            problems.append(f"{len(rows)} sweep rows, expected {points}")
        prev = math.inf
        for nu, slowness, speed, _, _, status in rows:
            s = float(slowness)
            if status != "finite" or not 0.0 < s < math.inf or (
                tau == 0.0 and s > (1.0 + 1e-12) / V
            ):
                problems.append(f"nu={nu}: slowness {slowness} status {status}")
                break
            if not math.isclose(s * float(speed), 1.0, rel_tol=1e-12):
                problems.append(f"nu={nu}: speed is not 1/slowness")
                break
            if s > prev * (1 + 1e-12):
                problems.append(f"nu={nu}: slowness rises with density")
                break
            prev = s
        return problems

    return check


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


def _seed(rng):
    return rng.randrange(1_000_000)


def figure_pass(seed, outdir, theoretical):
    rng = _rng("figure", seed)
    ops = []
    for j, (tau, nu, L) in enumerate(FIGURE_SCENARIOS):
        label = f"compare tau={tau} nu={nu} L={L:g}"
        out = f"{outdir}/figure-{j}.csv"
        argv = sim_argv(
            "compare", 2, L, nu, tau, 1000.0, _seed(rng), FIGURE_RUNS, out
        )
        ops.append(Op(label, argv, out, FIGURE_RUNS, check_compare(theoretical.get(label))))
    return ops


def large_n_pass(seed, outdir, theoretical):
    """One simulate command per run, so that the machine's speed is
    measured between runs."""
    rng = _rng("large-n", seed)
    c = LARGE_N
    n = round(c["nu"] * c["L"] ** 2)
    ops = []
    for j in range(LARGE_N_RUNS):
        out = f"{outdir}/large-n-{j}.csv"
        argv = sim_argv(
            "simulate", 2, c["L"], c["nu"], c["tau"], c["tmax"], _seed(rng), 1, out,
        )
        label = f"simulate n={n} L={c['L']:g} #{j}"
        ops.append(Op(label, argv, out, 1, check_simulate(n, c["L"], 2, 1)))
    return ops


def sweep_pass(seed, outdir, theoretical):
    """Log-spaced densities from a seed-drawn lower end up to 0.95/V_D."""
    rng = _rng("sweep", seed)
    ops = []
    for d in SWEEP_DIMS:
        threshold = 1.0 / UNIT_BALL_VOLUME[d]
        for tau in SWEEP_TAUS:
            nu_min = threshold * 10.0 ** rng.uniform(-3.0, -2.0)
            nu_max = SWEEP_NU_MAX_FRAC * threshold
            out = f"{outdir}/sweep-{d}-{tau}.csv"
            argv = [
                "sweep", "--dim", str(d), "--v", _fmt(V), "--tau", _fmt(tau),
                "--nu-min", _fmt(nu_min), "--nu-max", _fmt(nu_max),
                "--nu-points", str(SWEEP_POINTS), "--out", out,
            ]
            ops.append(
                Op(f"sweep d={d} tau={tau}", argv, out, SWEEP_POINTS,
                   check_sweep(SWEEP_POINTS, tau))
            )
    return ops


# name -> (pass builder, unit of work, calibration chunk kind, why)
WORKLOADS = {
    "figure": (figure_pass, "runs", "sim",
               "the six paper-figure compare scenarios a user runs; flood about 65% and advance about 33% of the time"),
    "large-n": (large_n_pass, "runs", "sim",
                "n=720 simulate writing per-node records; the dense O(n^2) flood is about 90% of the time"),
    "sweep": (sweep_pass, "bounds", "kernel",
              "300 speed bounds over D and tau; all kernel and specfun, no simulation"),
}
