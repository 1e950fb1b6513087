"""Command-line front end: `bound`, `sweep`, `simulate`, `compare`.

Exit codes: 0 success (or domination pass), 1 usage error, 2 domain or
statistics error, 3 domination failure.
"""

import argparse
import dataclasses
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from .kernel import (
    BoundStatus,
    KernelPoint,
    ModelParams,
    kernel_residual,
    speed_bound,
)
from .sim import ConfigError, SimConfig, run_epidemic, write_records
from .specfun import DomainError
from .stats import (
    StatsError,
    build_curve,
    check_bound,
    fit_slope,
    front_records,
    write_curve,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_DOMINATION = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser():
    parser = _Parser(prog="dtn-speed", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def model_flags(p):
        p.add_argument("--dim", type=int, default=None, help="dimension (1, 2 or 3)")
        p.add_argument("--v", type=float, default=None, help="node speed")
        p.add_argument("--tau", type=float, default=None, help="direction change rate")

    def common_flags(p):
        p.add_argument("--config", default=None, help="JSON config file; flags win")
        p.add_argument("--out", default=None, help="output CSV path")

    p = sub.add_parser("bound", help="analytical speed bound for one parameter set")
    model_flags(p)
    p.add_argument("--nu", type=float, default=None, help="node density")
    common_flags(p)

    p = sub.add_parser("sweep", help="slowness vs density sweep (figure data)")
    model_flags(p)
    p.add_argument("--nu-grid", default=None, help="comma-separated density list")
    p.add_argument("--nu-min", type=float, default=None)
    p.add_argument("--nu-max", type=float, default=None)
    p.add_argument("--nu-points", type=int, default=None)
    common_flags(p)

    def sim_flags(p):
        model_flags(p)
        p.add_argument("--nu", type=float, default=None, help="density (sets n)")
        p.add_argument("--L", type=float, default=None, help="box side length")
        p.add_argument("--n", type=int, default=None, help="node count (overrides nu)")
        p.add_argument("--range", type=float, default=None, help="radio range")
        p.add_argument("--dt", type=float, default=None)
        p.add_argument("--tmax", type=float, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--runs", type=int, default=None)

    p = sub.add_parser("simulate", help="epidemic broadcast runs, records to CSV")
    sim_flags(p)
    common_flags(p)

    p = sub.add_parser("compare", help="simulate, fit slowness, check domination")
    sim_flags(p)
    p.add_argument("--bin-width", type=float, default=None)
    p.add_argument("--dmin", type=float, default=None, help="fit window lower edge")
    p.add_argument(
        "--dmax", type=float, default=None, help="fit window upper edge (default L/2)"
    )
    # test hook: scales the theoretical slowness to exercise the fail path
    p.add_argument(
        "--theoretical-scale", type=float, default=None, help=argparse.SUPPRESS
    )
    common_flags(p)

    return parser


def _apply_config_file(args):
    """Fill unset flags from the JSON config document; explicit flags win."""
    if not getattr(args, "config", None):
        return
    with open(args.config) as fh:
        doc = json.load(fh)
    for key, value in doc.items():
        dest = key.replace("-", "_")
        if not hasattr(args, dest):
            raise UsageError(f"unknown config key {key!r}")
        if getattr(args, dest) is None:
            setattr(args, dest, value)


def _required(args, names):
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        raise UsageError("missing required options: " + ", ".join(missing))


def _defaults(args, **pairs):
    for dest, value in pairs.items():
        if getattr(args, dest, None) is None:
            setattr(args, dest, value)


def _worker_count():
    raw = os.environ.get("DTN_SPEED_THREADS", "1")
    try:
        count = int(raw)
    except ValueError:
        raise UsageError(f"DTN_SPEED_THREADS must be an integer, got {raw!r}")
    return max(1, count)


def _run_one(config_kwargs, seed):
    config = SimConfig(**{**config_kwargs, "seed": seed})
    return seed, run_epidemic(config)


def _run_many(config_kwargs, first_seed, runs):
    """Independent runs with seeds first_seed, first_seed+1, ...; results
    ordered by seed regardless of worker count."""
    seeds = [first_seed + k for k in range(runs)]
    workers = _worker_count()
    if workers == 1:
        results = [_run_one(config_kwargs, s) for s in seeds]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(
                pool.map(_run_one, [config_kwargs] * runs, seeds)
            )
    results.sort(key=lambda pair: pair[0])
    return results


def _sim_kwargs(args):
    _required(args, ["dim", "L", "v", "tau"])
    _defaults(args, dt=0.05, tmax=1000.0, seed=0, runs=1)
    if args.range is None:
        args.range = 1.0
    if args.n is None:
        _required(args, ["nu"])
        args.n = round(args.nu * args.L ** args.dim)
    return dict(
        d=args.dim,
        box_length=args.L,
        n=args.n,
        v=args.v,
        tau=args.tau,
        radio_range=args.range,
        dt=args.dt,
        t_max=args.tmax,
    )


def _format_bound(params, bound):
    lines = [f"status: {bound.status.value}"]
    if bound.status == BoundStatus.FINITE:
        lines.append(f"speed: {bound.speed:.12g}")
        lines.append(f"slowness: {bound.slowness:.12g}")
        rho0, theta0 = bound.argmin.rho, bound.argmin.theta
        lines.append(f"argmin: rho0={rho0:.12g} theta0={theta0:.12g}")
        if math.isfinite(rho0):
            residual = kernel_residual(params, KernelPoint(rho0, theta0))
            lines.append(f"kernel residual at argmin: {residual:.3g}")
        else:
            lines.append("argmin is the rho->inf degenerate sentinel (nu=0, tau=0)")
    elif bound.status == BoundStatus.UNBOUNDED:
        lines.append("slowness: 0 (density at or above 1/V_D)")
    else:
        lines.append("slowness: inf (zero density with tau > 0)")
    return "\n".join(lines)


def _cmd_bound(args):
    _required(args, ["dim", "nu", "v", "tau"])
    params = ModelParams(d=args.dim, nu=args.nu, v=args.v, tau=args.tau)
    print(_format_bound(params, speed_bound(params)))
    return EXIT_OK


def _parse_nu_grid(args):
    if args.nu_grid is not None:
        if isinstance(args.nu_grid, str):
            return [float(tok) for tok in args.nu_grid.split(",") if tok.strip()]
        return [float(x) for x in args.nu_grid]
    _required(args, ["nu_min", "nu_max", "nu_points"])
    if args.nu_min <= 0 or args.nu_max <= args.nu_min or args.nu_points < 2:
        raise UsageError("need 0 < nu-min < nu-max and nu-points >= 2")
    ratio = (args.nu_max / args.nu_min) ** (1.0 / (args.nu_points - 1))
    return [args.nu_min * ratio**i for i in range(args.nu_points)]


def _write_sweep(stream, args, grid):
    stream.write("nu,slowness,speed,rho0,theta0,status\n")
    for nu in grid:
        bound = speed_bound(ModelParams(d=args.dim, nu=nu, v=args.v, tau=args.tau))
        if bound.status == BoundStatus.FINITE:
            stream.write(
                f"{nu:.17g},{bound.slowness:.17g},{bound.speed:.17g},"
                f"{bound.argmin.rho:.17g},{bound.argmin.theta:.17g},"
                f"{bound.status.value}\n"
            )
        else:
            stream.write(f"{nu:.17g},{bound.slowness:.17g},,,,{bound.status.value}\n")


def _cmd_sweep(args):
    """Write the sweep CSV to --out, or to stdout when --out is absent."""
    _required(args, ["dim", "v", "tau"])
    grid = _parse_nu_grid(args)
    if args.out is None:
        _write_sweep(sys.stdout, args, grid)
        return EXIT_OK
    with open(args.out, "w") as fh:
        _write_sweep(fh, args, grid)
    print(f"wrote {len(grid)} rows to {args.out}")
    return EXIT_OK


def _cmd_simulate(args):
    kwargs = _sim_kwargs(args)
    _required(args, ["out"])
    nu = args.n / args.L ** args.dim
    print(f"n={args.n} L={args.L} dim={args.dim} -> nu={nu:.6g}")
    results = _run_many(kwargs, args.seed, args.runs)
    rows = []
    for seed, records in results:
        fraction = len(records) / args.n
        print(f"run seed={seed}: infected {len(records)}/{args.n} ({fraction:.3f})")
        rows.extend((seed, rec) for rec in records)
    rows.sort(key=lambda pair: (pair[0], pair[1].infection_time, pair[1].node_id))
    with open(args.out, "w") as fh:
        write_records(fh, rows)
    print(f"wrote {len(rows)} records to {args.out}")
    return EXIT_OK


def _cmd_compare(args):
    kwargs = _sim_kwargs(args)
    _defaults(args, bin_width=1.0, theoretical_scale=1.0)
    if args.dmin is None:
        args.dmin = 5.0 * kwargs["radio_range"]
    if args.dmax is None:
        args.dmax = 0.5 * args.L
    nu = args.n / args.L ** args.dim
    params = ModelParams(d=args.dim, nu=nu, v=args.v, tau=args.tau)
    print(f"n={args.n} L={args.L} dim={args.dim} -> nu={nu:.12g}")

    results = _run_many(kwargs, args.seed, args.runs)
    # the figure curves track the propagation front, so fit the per-run
    # first-passage records, windowed to distances where a full annulus
    # fits inside the box
    records = [rec for _, recs in results for rec in front_records(recs)]
    curve = build_curve(records, args.bin_width)
    fit = fit_slope(records, args.dmin, args.dmax)
    bound = speed_bound(params)
    if args.theoretical_scale != 1.0:
        # test hook: check against a scaled theoretical slowness
        bound = dataclasses.replace(
            bound, slowness=bound.slowness * args.theoretical_scale
        )
    report = check_bound(fit, bound)
    if args.out:
        with open(args.out, "w") as fh:
            write_curve(fh, curve)
        print(f"wrote curve to {args.out}")
    print(report.describe())
    print(report.to_json())
    return EXIT_OK if report.passed else EXIT_DOMINATION


_COMMANDS = {
    "bound": _cmd_bound,
    "sweep": _cmd_sweep,
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _apply_config_file(args)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DomainError, ConfigError, StatsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
