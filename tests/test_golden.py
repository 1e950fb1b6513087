"""Golden outputs: the benchmark's seed-0 commands, run through the CLI,
write the CSV bytes and print the last stdout lines recorded in
perfbench/reference.json.  The commands come from perfbench/workloads.py,
so this checks exactly what the benchmark checks, without timing it."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from dtnspeed.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())
# the benchmark's output directory, relative to its working directory; the
# simulate and sweep commands print the output paths
OUTDIR = ".perfbench_work/out"

_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", PERFBENCH / "workloads.py"
)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed0_outputs_match_reference(workload, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path(OUTDIR).mkdir(parents=True)
    build = workloads.WORKLOADS[workload][0]
    ops = build(REFERENCE["seed"], OUTDIR, REFERENCE["theoretical"])
    expected = REFERENCE["outputs"][workload]
    assert sorted(op.label for op in ops) == sorted(expected)
    for op in ops:
        code = main(op.argv)
        lines = capsys.readouterr().out.strip().splitlines()
        out = Path(op.out)
        data = out.read_bytes() if out.exists() else b""
        want = expected[op.label]
        assert code == want["exit"], op.label
        assert hashlib.sha256(data).hexdigest() == want["sha256"], op.label
        assert (lines[-1] if lines else "") == want["last_line"], op.label
