"""Command-line front end: `bound`, `sweep`, `simulate`, `compare`.

Exit codes: 0 success (or domination pass), 1 usage error, 2 domain or
statistics error, 3 domination failure.  Every CSV is written here.
"""

import argparse
import dataclasses
import errno
import json
import math
import os
import sys

from .kernel import (
    BoundStatus,
    KernelPoint,
    ModelParams,
    kernel_residual,
    speed_bound,
)
from .sim import ConfigError, SimConfig, run_epidemic
from .specfun import DomainError
from .stats import (
    StatsError,
    _check_bin_width,
    _check_window,
    build_curve,
    check_bound,
    fit_slope,
    front_records,
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

    def out_flag(p):
        p.add_argument("--out", default=None, help="output CSV path")

    p = sub.add_parser("bound", help="analytical speed bound for one parameter set")
    model_flags(p)
    p.add_argument("--nu", type=float, default=None, help="node density")

    p = sub.add_parser("sweep", help="slowness vs density sweep (figure data)")
    model_flags(p)
    p.add_argument("--nu-grid", default=None, help="comma-separated density list")
    p.add_argument("--nu-min", type=float, default=None)
    p.add_argument("--nu-max", type=float, default=None)
    p.add_argument("--nu-points", type=int, default=None)
    out_flag(p)

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
    out_flag(p)

    p = sub.add_parser("compare", help="simulate, fit slowness, check domination")
    sim_flags(p)
    p.add_argument("--bin-width", type=float, default=None,
                   help="curve bin width (default one radio range)")
    p.add_argument("--dmin", type=float, default=None,
                   help="fit window lower edge (default 5 radio ranges)")
    p.add_argument(
        "--dmax", type=float, default=None, help="fit window upper edge (default L/2)"
    )
    # test hook: scales the theoretical slowness to exercise the fail path
    p.add_argument(
        "--theoretical-scale", type=float, default=None, help=argparse.SUPPRESS
    )
    out_flag(p)

    for p in sub.choices.values():
        p.add_argument("--config", default=None, help="JSON config file; flags win")
    parser.commands = sub.choices  # name -> subparser, whose flag types --config uses
    return parser


def _config_value(key, value, kind):
    """A config value converted by its flag's type, as the flag's text would
    be; a bool, or a float for an int flag, is refused, not truncated."""
    if kind is None or value is None:
        return value
    if not isinstance(value, bool) and not (kind is int and isinstance(value, float)):
        try:
            return kind(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise UsageError(f"config key {key!r} must be {kind.__name__}, got {value!r}")


def _apply_config_file(args, parser):
    """Fill unset flags from the JSON config document; explicit flags win.
    Each value gets the type of its flag."""
    if not getattr(args, "config", None):
        return
    try:
        with open(args.config) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise UsageError(
            f"cannot read config file {args.config!r}: {exc.strerror}"
        ) from None
    except ValueError as exc:  # invalid JSON or text encoding
        raise UsageError(
            f"config file {args.config!r} is not valid JSON: {exc}"
        ) from None
    if not isinstance(doc, dict):
        raise UsageError(
            f"config file {args.config!r} must hold a JSON object, "
            f"got {type(doc).__name__}"
        )
    kinds = {a.dest: a.type for a in parser.commands[args.command]._actions}
    for key, value in doc.items():
        dest = key.replace("-", "_")
        # a config file cannot name another one
        if dest == "config" or dest not in kinds or not hasattr(args, dest):
            raise UsageError(f"unknown config key {key!r}")
        if getattr(args, dest) is None:
            setattr(args, dest, _config_value(key, value, kinds[dest]))


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


def _run_many(config, runs, workers):
    """Independent runs with seeds config.seed, config.seed+1, ...; returns
    (seed, records) pairs in seed order regardless of worker count.  Each
    worker runs one contiguous chunk of the seeds as one lockstep batch,
    `replace(config, seed=first seed of the chunk)`, and `pool.map` keeps
    the chunks in order.  No more workers than runs: the pool starts all
    of its processes on the first submit."""
    workers = min(workers, runs)
    edges = [config.seed + runs * k // workers for k in range(workers + 1)]
    chunks = ([dataclasses.replace(config, seed=first) for first in edges[:-1]],
              [b - a for a, b in zip(edges, edges[1:])])
    if workers == 1:
        batches = list(map(run_epidemic, *chunks))
    else:
        # imported here: multiprocessing is a cost every command would pay
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(run_epidemic, *chunks))
    records = [recs for batch in batches for recs in batch]
    return list(zip(range(config.seed, config.seed + runs), records))


def _sim_config(args):
    """The validated SimConfig of a simulate or compare command, and its
    density n / L**dim.  Flags left unset are not passed, so SimConfig's
    own defaults apply."""
    _required(args, ["dim", "L", "v", "tau"])
    _defaults(args, runs=1)
    if args.runs < 1:
        raise UsageError(f"--runs must be >= 1, got {args.runs}")
    for name in ("nu", "L"):
        value = getattr(args, name)
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")
    out_of_range = ConfigError(
        f"box volume L**dim is out of range: L={args.L}, dim={args.dim}"
    )
    try:
        volume = args.L ** args.dim
    except (OverflowError, ZeroDivisionError):  # 0.0 to a negative power
        raise out_of_range from None
    if args.n is None:
        _required(args, ["nu"])
        count = args.nu * volume
        if not math.isfinite(count):
            raise ConfigError(
                f"node count nu*L**dim overflows: nu={args.nu}, L={args.L}, "
                f"dim={args.dim}"
            )
        args.n = round(count)
    fields = dict(d=args.dim, box_length=args.L, n=args.n, v=args.v, tau=args.tau,
                  radio_range=args.range, dt=args.dt, t_max=args.tmax, seed=args.seed)
    config = SimConfig(**{k: v for k, v in fields.items() if v is not None})
    if volume == 0.0:  # a valid L whose volume underflows
        raise out_of_range
    return config, config.n / volume


def _check_out(path):
    """Refuse an --out that is a directory, or whose directory is missing
    or not writable, before any output or simulation.  The file is not
    created here: a command that fails later leaves none."""
    parent = os.path.dirname(path) or os.curdir
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif not os.access(parent, os.W_OK | os.X_OK):
        code = errno.EACCES
    else:
        return
    raise UsageError(f"cannot write {path!r}: {os.strerror(code)}")


def _open_out(path):
    """--out opened for writing, or a UsageError that says why it cannot be."""
    try:
        return open(path, "w")
    except OSError as exc:
        raise UsageError(f"cannot write {path!r}: {exc.strerror}") from None


def _format_bound(params, bound):
    lines = [f"status: {bound.status.value}"]
    if bound.status == BoundStatus.FINITE:
        lines.append(f"speed: {bound.speed:.12g}")
        lines.append(f"slowness: {bound.slowness:.12g}")
        rho0, theta0 = bound.argmin.rho, bound.argmin.theta
        lines.append(f"argmin: rho0={rho0:.12g} theta0={theta0:.12g}")
        if not math.isfinite(rho0):
            lines.append("argmin is the rho->inf degenerate sentinel (nu=0, tau=0)")
        elif params.tau + theta0 > rho0 * params.v:
            residual = kernel_residual(params, KernelPoint(rho0, theta0))
            lines.append(f"kernel residual at argmin: {residual:.3g}")
        else:
            # speed exactly v: the argmin is on the edge of Y's domain
            lines.append("kernel residual at argmin: undefined (tau + theta0 = "
                         "rho0*v, the edge of Y's convergence region)")
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
        values = args.nu_grid
        if isinstance(values, str):
            values = [tok for tok in values.split(",") if tok.strip()]
        try:
            grid = [float(x) for x in values]
        except (TypeError, ValueError, OverflowError):
            grid = None
        # a bool is not a density, as for every other config value
        if grid is None or any(isinstance(x, bool) for x in values):
            raise UsageError(f"nu-grid must be a list of numbers, got {args.nu_grid!r}")
        if not grid:
            raise UsageError("nu-grid must hold at least one density")
        return grid
    _required(args, ["nu_min", "nu_max", "nu_points"])
    # written so that NaN fails it; a ratio that overflows would put inf
    # in the grid
    lo, hi = args.nu_min, args.nu_max
    if not (0.0 < lo < hi < math.inf and hi / lo < math.inf) or args.nu_points < 2:
        raise UsageError(
            "need 0 < nu-min < nu-max < inf with a finite nu-max/nu-min, "
            "and nu-points >= 2"
        )
    ratio = (hi / lo) ** (1.0 / (args.nu_points - 1))
    return [lo * ratio**i for i in range(args.nu_points)]


def _csv_field(x):
    """Floats with 17 significant digits (they read back bit-exact), None
    as an empty field, anything else by str."""
    if x is None:
        return ""
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def _write_csv(stream, header, rows):
    """Every CSV goes through here: a header line, then one line per row."""
    stream.write(header + "\n")
    for row in rows:
        stream.write(",".join(map(_csv_field, row)) + "\n")


def write_records(stream, rows):
    """Serialize (run_seed, record) rows as CSV with full double precision."""
    _write_csv(stream, "run_seed,node_id,infection_time,distance",
               ((s, r.node_id, r.infection_time, r.distance) for s, r in rows))


def write_curve(stream, curve):
    """Serialize a propagation curve as CSV, one line per distance bin."""
    _write_csv(stream, "distance,mean_time,std_error,count",
               ((b.distance_center, b.mean_time, b.std_error, b.sample_count)
                for b in curve.bins))


def _sweep_row(params):
    """One sweep CSV row: the density and its bound."""
    bound = speed_bound(params)
    point = bound.argmin
    rho0, theta0 = (point.rho, point.theta) if point else (None, None)
    return params.nu, bound.slowness, bound.speed, rho0, theta0, bound.status.value


def _cmd_sweep(args):
    """Write the sweep CSV to --out, or to stdout when --out is absent.
    Every row is computed before the header is written, so a density
    whose bound raises leaves no output."""
    _required(args, ["dim", "v", "tau"])
    params = [ModelParams(d=args.dim, nu=nu, v=args.v, tau=args.tau)
              for nu in _parse_nu_grid(args)]
    if args.out is not None:
        _check_out(args.out)
    rows = [_sweep_row(p) for p in params]
    header = "nu,slowness,speed,rho0,theta0,status"
    if args.out is None:
        _write_csv(sys.stdout, header, rows)
        return EXIT_OK
    with _open_out(args.out) as fh:
        _write_csv(fh, header, rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def _cmd_simulate(args):
    config, nu = _sim_config(args)
    _required(args, ["out"])
    _check_out(args.out)
    workers = _worker_count()
    print(f"n={config.n} L={config.box_length} dim={config.d} -> nu={nu:.6g}")
    rows = []
    for seed, records in _run_many(config, args.runs, workers):
        fraction = len(records) / config.n
        print(f"run seed={seed}: infected {len(records)}/{config.n} ({fraction:.3f})")
        rows.extend((seed, rec) for rec in records)
    with _open_out(args.out) as fh:
        write_records(fh, rows)
    print(f"wrote {len(rows)} records to {args.out}")
    return EXIT_OK


def judge_runs(runs, bound, d_min, d_max, bin_width):
    """The one chain from run records to a domination verdict; returns
    (curve, report).  `runs` holds one record list per run.  The figure
    curves track the propagation front, so each run's first-passage
    records are binned into the curve and fitted on [d_min, d_max] (with
    d_max = L/2, a full annulus fits inside the box); `check_bound`
    judges the fit against `bound`.

    The stats functions are called through this module's names, with
    `fit_slope` given its three arguments by position, so a caller that
    wraps `cli.front_records`, `cli.build_curve` or `cli.fit_slope` sees
    every call."""
    records = [rec for recs in runs for rec in front_records(recs)]
    curve = build_curve(records, bin_width)
    return curve, check_bound(fit_slope(records, d_min, d_max), bound)


def _cmd_compare(args):
    """The bound takes the radio range r as its unit of length: a run at
    range r is judged against the unit-range bound at density nu*r**D
    and speed v/r, its slowness divided by r.  For r a power of two this
    is exact: compare at (r*L, n, r*v, range r) writes the unit-range
    curve with every distance times r, and a verdict whose slownesses
    are the unit ones divided by r."""
    config, nu = _sim_config(args)
    r = config.radio_range
    _defaults(args, bin_width=r, theoretical_scale=1.0, dmin=5.0 * r,
              dmax=0.5 * config.box_length)
    # refuse a bad fit window, bin width or bound before any simulation
    _check_window(args.dmin, args.dmax)
    _check_bin_width(args.bin_width)
    bound = speed_bound(
        ModelParams(d=config.d, nu=nu * r**config.d, v=config.v / r, tau=config.tau)
    )
    # --theoretical-scale is a test hook: it scales the theoretical
    # slowness to exercise the fail path
    scale = args.theoretical_scale / r
    bound = dataclasses.replace(bound, slowness=bound.slowness * scale)
    if args.out:
        _check_out(args.out)
    workers = _worker_count()
    print(f"n={config.n} L={config.box_length} dim={config.d} -> nu={nu:.12g}")

    results = _run_many(config, args.runs, workers)
    curve, report = judge_runs(
        [recs for _, recs in results], bound, args.dmin, args.dmax, args.bin_width
    )
    if args.out:
        with _open_out(args.out) as fh:
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
        _apply_config_file(args, parser)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DomainError, ConfigError, StatsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
