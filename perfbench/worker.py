"""One benchmark process: import dtnspeed, repeat a workload's pass
through `dtnspeed.cli.main`, check and hash the outputs, and write a
result JSON.  Started fresh by run.py for every measurement.

    python3 perfbench/worker.py --probe --spawned-at T
    python3 perfbench/worker.py --workload W --seed S --seconds N \
        --trace 0|1 --outdir DIR --result FILE --spawned-at T

--spawned-at is the parent's time.monotonic() just before the spawn
(CLOCK_MONOTONIC is system-wide on Linux), so setup_s covers interpreter
start and `import dtnspeed`.  A probe reports that set-up time and the
mean chunk time it measures right after.

Untraced, every command is timed in machine-speed chunks (speed.py):
`net_s` is its wall time less the chunks sampled while it ran, and
`cal_s` the mean chunk time at its boundaries and during it.
"""

import argparse
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

import speed


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--probe", action="store_true")
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--outdir")
    p.add_argument("--result")
    p.add_argument("--reference")
    p.add_argument("--spans")
    return p.parse_args(argv)


def run_op(op, entry, sampler=None):
    """Run one CLI command; returns its timing, hash and problems."""
    out, err = io.StringIO(), io.StringIO()
    problems = []
    code = None
    Path(op.out).unlink(missing_ok=True)
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err), sampler or nullcontext():
            code = entry(op.argv)
    except Exception as exc:  # a crash is a failed operation, not a dead benchmark
        problems.append(f"raised {type(exc).__name__}: {exc}")
    wall = time.perf_counter() - start
    try:
        data = Path(op.out).read_bytes()
    except FileNotFoundError:
        data = None
    if not problems:
        problems = op.check(out.getvalue(), err.getvalue(), code, data)
    lines = out.getvalue().strip().splitlines()
    return {
        "label": op.label,
        "wall_s": wall,
        "units": op.units,
        "exit": code,
        "sha256": hashlib.sha256(data or b"").hexdigest(),
        "csv_bytes": len(data or b""),
        "last_line": lines[-1] if lines else "",
        "problems": problems,
    }


def run_pass(ops, entry, fits=lambda j: True, chunk=None):
    """Run the ops in order, stopping before the first op j for which
    fits(j) is false.  Given a chunk kind (speed.CHUNKS), each result
    also gets net_s and cal_s (module docstring)."""
    if chunk is None:
        return [run_op(op, entry) for j, op in enumerate(ops) if fits(j)]
    results = []
    before = speed.calibrate(chunk)
    for j, op in enumerate(ops):
        if not fits(j):
            break
        sampler = speed.Sampler(chunk)
        result = run_op(op, entry, sampler)
        after = speed.calibrate(chunk)
        result["net_s"] = result["wall_s"] - sum(sampler.samples)
        result["cal_s"] = statistics.fmean(before + sampler.samples + after)
        results.append(result)
        before = after
    return results


def main(argv=None):
    args = _parse(argv)
    import dtnspeed  # noqa: F401  (the set-up being measured)
    import dtnspeed.cli

    setup_s = time.monotonic() - args.spawned_at
    if args.probe:
        speed.calibrate("sim", 2)  # the first chunks pay numpy's lazy set-up
        cal_s = statistics.fmean(speed.calibrate("sim", 16))
        print(json.dumps({"setup_s": setup_s, "cal_s": cal_s,
                          "dtnspeed": dtnspeed.__file__}))
        return 0

    import numpy

    import layers
    from workloads import WORKLOADS

    build, unit, chunk, _ = WORKLOADS[args.workload]
    reference = json.loads(Path(args.reference).read_text())
    theoretical = reference.get("theoretical", {})
    os.makedirs(args.outdir, exist_ok=True)

    ops = build(args.seed, args.outdir, theoretical)
    passes = []
    layer = None
    if args.trace:
        passes.append(run_pass(ops, dtnspeed.cli.main))
        traced, layer = layers.traced_pass(ops, run_pass, args.spans)
        passes.append(traced)
        wall = [sum(r["wall_s"] for r in p) for p in passes]
        layer["trace_overhead_frac"] = wall[1] / wall[0] - 1.0
    else:
        # one whole pass, then repeat the commands in order while each,
        # as long as its first run, still fits the time; the last
        # repeat may stop part-way
        speed.calibrate(chunk, 2)  # the first chunks pay any lazy set-up
        deadline = time.monotonic() + args.seconds
        passes.append(run_pass(ops, dtnspeed.cli.main, chunk=chunk))

        def fits(j):
            return time.monotonic() + passes[0][j]["wall_s"] <= deadline

        while len(passes[-1]) == len(ops):
            repeat = run_pass(ops, dtnspeed.cli.main, fits, chunk)
            if not repeat:
                break
            passes.append(repeat)
    # every repeat (and the traced pass) must write the same bytes
    for repeat in passes[1:]:
        for r, first in zip(repeat, passes[0]):
            if r["sha256"] != first["sha256"]:
                r["problems"].append("output differs from the first pass")

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "unit": unit,
        "chunk": chunk,
        "setup_s": setup_s,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "per_layer": layer,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "dtnspeed": dtnspeed.__file__,
        "DTN_SPEED_THREADS": os.environ.get("DTN_SPEED_THREADS"),
    }
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
