"""Smoke test of the benchmark itself at a tiny config (a few seconds).

    python3 perfbench/smoke.py            # or: python3 -m pytest perfbench/smoke.py

Checks that a traced pass restores every wrapped function, that layer
self times add up to no more than the wall time, that repeated and
traced passes give byte-identical outputs, that every command gets a
calibration time and a partial repeat stops where it should, that the metric names agree
with BENCHMARK.json, and that run.py refuses to run without src/.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import dtnspeed.cli  # noqa: E402

import layers  # noqa: E402
import workloads as wl  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from worker import run_pass  # noqa: E402


def tiny_ops(outdir):
    """One small compare, simulate and sweep: every layer, under a second."""
    compare = wl.sim_argv("compare", 2, 30.0, 0.1, 0.1, 200.0, 3, 4, f"{outdir}/c.csv")
    simulate = wl.sim_argv("simulate", 2, 12.0, 0.15, 0.1, 200.0, 5, 2, f"{outdir}/s.csv")
    sweep = ["sweep", "--dim", "2", "--v", "1", "--tau", "0.1", "--nu-min", "0.01",
             "--nu-max", "0.2", "--nu-points", "3", "--out", f"{outdir}/w.csv"]
    return [
        wl.Op("compare", compare, f"{outdir}/c.csv", 4, wl.check_compare(None)),
        wl.Op("simulate", simulate, f"{outdir}/s.csv", 2, wl.check_simulate(22, 12.0, 2, 2)),
        wl.Op("sweep", sweep, f"{outdir}/w.csv", 3, wl.check_sweep(3, 0.1)),
    ]


def _wrapped_attrs():
    return [(m, a, getattr(m, a)) for m, a, _ in layers.SPANS + layers.COUNTERS]


def _scratch():
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=work)


def test_traced_pass_restores_and_adds_up():
    with _scratch() as tmp:
        before = _wrapped_attrs()
        plain = run_pass(tiny_ops(tmp), dtnspeed.cli.main)
        traced, metrics = layers.traced_pass(tiny_ops(tmp), run_pass)
        again = run_pass(tiny_ops(tmp), dtnspeed.cli.main)
        partial = run_pass(tiny_ops(tmp), dtnspeed.cli.main, fits=lambda j: j < 2,
                           chunk="sim")
    for module, attr, original in before:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr} not restored"
    for results in (plain, traced, again):
        assert all(not r["problems"] for r in results), results
    hashes = [[r["sha256"] for r in results] for results in (plain, traced, again)]
    assert hashes[0] == hashes[1] == hashes[2]
    assert [r["sha256"] for r in partial] == hashes[0][:2]
    assert all(0 < r["net_s"] <= r["wall_s"] and r["cal_s"] > 0 for r in partial)
    wall = sum(r["wall_s"] for r in traced)
    assert 0.0 < metrics["self_sum_s"] <= wall
    assert set(PER_LAYER) - {"trace_overhead_frac"} <= set(metrics)
    for name in ("sim.flood.calls", "sim.advance.calls", "sim.turns",
                 "kernel.theta_evals_per_bound", "specfun.calls",
                 "stats.fit.records_in_window", "cli.csv_bytes"):
        assert metrics[name] > 0, name


def test_checks_accept_refusals_and_catch_failures():
    """Too few front records to fit is a correct exit 2; a domination
    failure (exit 3, through compare's scaling hook) is caught."""
    with _scratch() as tmp:
        sparse = wl.sim_argv("compare", 2, 12.0, 0.15, 0.1, 200.0, 1, 1, f"{tmp}/c.csv")
        failing = wl.sim_argv("compare", 2, 30.0, 0.1, 0.1, 200.0, 3, 4, f"{tmp}/f.csv")
        failing += ["--theoretical-scale", "100"]
        refused, failed = run_pass([
            wl.Op("sparse", sparse, f"{tmp}/c.csv", 1, wl.check_compare(None)),
            wl.Op("failing", failing, f"{tmp}/f.csv", 4, wl.check_compare(None)),
        ], dtnspeed.cli.main)
    assert refused["exit"] == 2 and refused["problems"] == [], refused
    assert failed["exit"] == 3 and failed["problems"], failed


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def test_refuses_to_run_without_sources():
    """A directory with only BENCHMARK.json and perfbench/ has no program."""
    with _scratch() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=60,
        )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
