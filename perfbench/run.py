"""Run the dtnspeed benchmark.

    python3 perfbench/run.py --workload figure --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py                      # every workload, untraced
    python3 perfbench/run.py --write-reference    # re-record reference.json

Every measurement runs in fresh Python processes with DTN_SPEED_THREADS=1
and dtnspeed imported from this checkout's src/.  Untraced (--trace 0),
the worker repeats the seed's pass for --seconds and the end-to-end
metrics are reported.  Their times are in reference seconds: each
measured time is divided by the mean time of a fixed calibration chunk
measured around and during it (speed.py) and multiplied by that chunk's
time on the reference machine, so that the machine's changing speed
cancels; traced (--trace 1), the pass runs once untraced
and once with layer wrappers installed, and the per-layer metrics are
reported.  The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics.  Full results, including
the run's metadata and output hashes, go to .perfbench_work/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER
from speed import CHUNKS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"
SETUP_PROBES = 5
TIMEOUT_S = 170.0


class BenchError(Exception):
    """The benchmark itself could not run (no result is printed)."""


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true",
                   help="record the seed-0 pass's outputs as the reference")
    return p.parse_args(argv)


def _git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _spawn(args, deadline):
    """Run worker.py in a fresh interpreter; returns its stdout."""
    env = dict(os.environ, DTN_SPEED_THREADS="1", PYTHONPATH=str(SRC))
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--spawned-at", repr(time.monotonic()), *args]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out: {' '.join(args)}")
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()}")
    return proc.stdout


def _setup_samples(count, deadline):
    """(set-up time, calibration time) of short-lived probe processes."""
    samples = []
    for _ in range(count):
        probe = json.loads(_spawn(["--probe"], deadline))
        if Path(probe["dtnspeed"]).resolve().parent.parent != SRC.resolve():
            raise BenchError(f"imported dtnspeed from {probe['dtnspeed']}, not {SRC}")
        samples.append((probe["setup_s"], probe["cal_s"]))
    return samples


def _reference():
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


def _reference_problems(reference, workload, seed, first_pass):
    """The first pass's outputs must match the stored reference at its seed."""
    if seed != reference.get("seed"):
        return
    expected = reference.get("outputs", {}).get(workload, {})
    for op in first_pass:
        ref = expected.get(op["label"])
        if ref is None:
            continue
        got = {"sha256": op["sha256"], "exit": op["exit"], "last_line": op["last_line"]}
        changed = [key for key in ref if ref[key] != got[key]]
        if changed:
            op["problems"].append("outputs changed: " + ", ".join(changed))


def measure(workload, seed, seconds, trace, deadline):
    """One measurement: probes plus one worker.  Returns the full record."""
    if not (SRC / "dtnspeed" / "__init__.py").is_file():
        raise BenchError(f"no dtnspeed sources under {SRC}")
    WORK.mkdir(exist_ok=True)
    # the first probe only warms the bytecode cache; the rest run before
    # and after the worker, so the median spans the machine's slow and
    # fast spells
    _setup_samples(1, deadline)
    samples = _setup_samples(SETUP_PROBES // 2, deadline)
    result_path = WORK / f"result-{workload}.worker.json"
    _spawn([
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
        "--trace", str(trace), "--outdir", str((WORK / "out").relative_to(ROOT)),
        "--result", str(result_path), "--reference", str(REFERENCE),
        "--spans", str(WORK / f"spans-{workload}.csv"),
    ], deadline)
    worker = json.loads(result_path.read_text())
    samples += _setup_samples(SETUP_PROBES - SETUP_PROBES // 2, deadline)
    passes = worker["passes"]
    _reference_problems(_reference(), workload, seed, passes[0])

    ops = [op for p in passes for op in p]
    failed = sum(1 for op in ops if op["problems"])
    # every repeat of each command (the last repeat may be partial); a
    # traced run's only untraced pass is the first, and it has no chunks
    measured = passes[:1] if trace else passes
    repeats = [[p[j] for p in measured if j < len(p)] for j in range(len(passes[0]))]
    key = "wall_s" if trace else "net_s"
    wall = sum(statistics.median(r[key] for r in rs) for rs in repeats)
    values = {}
    if not trace:
        # each command's median over repeats of its time in calibration
        # chunks: the machine's speed drifts by up to 2x over seconds to
        # minutes, and slows the chunks during the command alike
        ref_s = CHUNKS[worker["chunk"]][1]
        pass_s = ref_s * sum(
            statistics.median(r["net_s"] / r["cal_s"] for r in rs) for rs in repeats
        )
        values = {
            "pass_s": pass_s,
            "work_per_s": sum(op["units"] for op in passes[0]) / pass_s,
            "setup_s": statistics.median(CHUNKS["sim"][1] * s / c for s, c in samples),
            "peak_rss_mb": worker["peak_rss_mb"],
        }
    wanted = PER_LAYER if trace else END_TO_END
    source = worker["per_layer"] if trace else values
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": worker["python"],
        "numpy": worker["numpy"],
        "DTN_SPEED_THREADS": worker["DTN_SPEED_THREADS"],
        "commit": _git_commit(),
        "unit": worker["unit"],
        "chunk": worker["chunk"],
        "repeats": min(len(rs) for rs in repeats),
        "wall_s": wall,
        "cal_s": [op["cal_s"] for op in ops if "cal_s" in op],
        "setup_samples_s": [s for s, _ in samples],
        "setup_cal_s": [c for _, c in samples],
        "worker_setup_s": worker["setup_s"],
        "end_to_end": values,
        "per_layer": worker["per_layer"],
        "attempted": len(ops),
        "failed": failed,
        "problems": [f"{op['label']}: {p}" for op in ops for p in op["problems"]],
        "outputs": {op["label"]: {"sha256": op["sha256"], "exit": op["exit"],
                                  "last_line": op["last_line"]} for op in passes[0]},
        "metrics": {name: {"value": source[name], "unit": unit}
                    for name, unit in wanted.items()},
    }


def _report(rec):
    print(f"== {rec['workload']}  seed={rec['seed']} trace={rec['trace']} "
          f"repeats>={rec['repeats']} ops={rec['attempted']}  nproc={rec['nproc']} "
          f"python={rec['python']} numpy={rec['numpy']} "
          f"DTN_SPEED_THREADS={rec['DTN_SPEED_THREADS']} commit={rec['commit']}")
    if not rec["trace"]:
        e2e = rec["end_to_end"]
        # work_per_s under the name of its unit of work; times in
        # reference seconds, with the measured ones beside them
        print(f"  {'pass_s':<30} {e2e['pass_s']:.6g} s  (medians of at least "
              f"{rec['repeats']} repeats; measured {rec['wall_s']:.6g} s, "
              f"{rec['chunk']} chunk {statistics.median(rec['cal_s']):.4g} s "
              f"for {CHUNKS[rec['chunk']][1]:g} s)")
        print(f"  {rec['unit'] + '_per_s':<30} {e2e['work_per_s']:.6g} 1/s")
        print(f"  {'setup_s':<30} {e2e['setup_s']:.6g} s  (measured "
              f"{statistics.median(rec['setup_samples_s']):.6g} s)")
        print(f"  {'peak_rss_mb':<30} {e2e['peak_rss_mb']:.6g} MB")
    else:
        for name, m in rec["metrics"].items():
            print(f"  {name:<30} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':<30} {rec['failed'] / rec['attempted']:.6g} "
          f"({rec['failed']}/{rec['attempted']} ops)")
    for problem in rec["problems"]:
        print(f"  PROBLEM {problem}")


def _write_reference(records):
    theoretical = {}
    outputs = {}
    for rec in records:
        outputs[rec["workload"]] = rec["outputs"]
        for label, out in rec["outputs"].items():
            if label.startswith("compare") and out["exit"] == 0:
                theoretical[label] = json.loads(out["last_line"])["theoretical_slowness"]
    REFERENCE.write_text(json.dumps(
        {"seed": 0, "theoretical": theoretical, "outputs": outputs},
        indent=1, sort_keys=True) + "\n")


def main(argv=None):
    args = _parse(argv)
    if args.write_reference:
        args.workload, args.seed, args.seconds, args.trace = "all", 0, 0.0, 0
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    try:
        for name in names:
            deadline = time.monotonic() + TIMEOUT_S
            records.append(measure(name, args.seed, args.seconds, args.trace, deadline))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for rec in records:
        _report(rec)
        suffix = f"{rec['workload']}-seed{rec['seed']}-trace{rec['trace']}"
        (WORK / f"result-{suffix}.json").write_text(json.dumps(rec, indent=1))
    if args.write_reference:
        _write_reference(records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
