import json
import subprocess
import sys

import pytest

from dtnspeed import cli
from dtnspeed.cli import main
from dtnspeed.sim import SimConfig, run_epidemic


def run_cli(*argv):
    return main(list(argv))


class TestBound:
    def test_unbounded(self, capsys):
        assert run_cli("bound", "--dim", "2", "--nu", "0.5", "--v", "1", "--tau", "0") == 0
        out = capsys.readouterr().out
        assert "unbounded" in out

    def test_degenerate_zero_density(self, capsys):
        assert run_cli("bound", "--dim", "2", "--nu", "0", "--v", "1", "--tau", "0") == 0
        out = capsys.readouterr().out
        assert "speed: 1" in out
        assert "degenerate" in out

    def test_finite_with_residual(self, capsys):
        code = run_cli("bound", "--dim", "3", "--nu", "0.05", "--v", "1", "--tau", "0.1")
        assert code == 0
        out = capsys.readouterr().out
        assert "status: finite" in out
        residual = float(out.split("kernel residual at argmin:")[1].strip())
        assert abs(residual) < 1e-9

    @pytest.mark.parametrize("nu", ["1e-3", "2e-3"])
    def test_speed_exactly_v_prints_bound_and_undefined_residual(self, nu, capsys):
        # in D=3 at tau = 0 and these densities the bound is speed v, so
        # tau + theta0 = rho0*v: the residual's Y is not defined there
        code = run_cli("bound", "--dim", "3", "--nu", nu, "--v", "1", "--tau", "0")
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert captured.err == ""
        assert "status: finite\nspeed: 1\nslowness: 1\n" in captured.out
        assert captured.out.splitlines()[-1] == (
            "kernel residual at argmin: undefined (tau + theta0 = rho0*v, "
            "the edge of Y's convergence region)"
        )

    def test_missing_flags(self, capsys):
        assert run_cli("bound", "--dim", "2") == 1

    def test_invalid_params(self, capsys):
        assert run_cli("bound", "--dim", "2", "--nu", "-1", "--v", "1", "--tau", "0") == 2

    def test_zero_density_with_turns_is_infinite(self, capsys):
        code = run_cli("bound", "--dim", "2", "--nu", "0", "--v", "1", "--tau", "0.1")
        assert code == 0
        out = capsys.readouterr().out
        assert "slowness: inf (zero density with tau > 0)" in out.splitlines()

    def test_out_is_refused(self, tmp_path, monkeypatch, capsys):
        # bound prints and writes nothing, so it takes no --out
        monkeypatch.chdir(tmp_path)
        code = run_cli("bound", "--dim", "2", "--nu", "0.1", "--v", "1", "--tau", "0",
                       "--out", "x.csv")
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "usage error: unrecognized arguments: --out x.csv\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags", [["--dim", "x"], ["--bogus", "1"]])
    def test_parser_error_is_one_usage_line(self, flags, capsys):
        code = run_cli("bound", "--nu", "0.1", "--v", "1", "--tau", "0", *flags)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("usage error: ")
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "--dim", "2", "--nu", "nan", "--v", "1", "--tau", "0.1"],
        ["bound", "--dim", "2", "--nu", "0.1", "--v", "inf", "--tau", "0.1"],
        ["bound", "--dim", "2", "--nu", "0.1", "--v", "1", "--tau", "nan"],
        ["simulate", "--dim", "2", "--L", "nan", "--nu", "0.1", "--v", "1",
         "--tau", "0"],
        ["simulate", "--dim", "2", "--L", "10", "--nu", "nan", "--v", "1",
         "--tau", "0"],
        ["simulate", "--dim", "2", "--L", "inf", "--n", "5", "--v", "1",
         "--tau", "0"],
        ["simulate", "--dim", "2", "--L", "10", "--n", "5", "--v", "1",
         "--tau", "nan"],
        ["compare", "--dim", "2", "--L", "10", "--nu", "inf", "--v", "1",
         "--tau", "0"],
        *(
            ["compare", "--dim", "2", "--L", "20", "--n", "40", "--v", "1",
             "--tau", "0", "--tmax", "300", "--seed", "3", "--runs", "2",
             "--dmin", "1", "--bin-width", width]
            for width in ("nan", "inf")
        ),
    ],
)
def test_non_finite_input_is_one_error_line(argv, tmp_path, capsys):
    code = run_cli(*argv, "--out", str(tmp_path / "out.csv"))
    err = capsys.readouterr().err
    assert code in (1, 2)
    assert len(err.splitlines()) == 1
    assert "error:" in err


@pytest.mark.parametrize("command", ["simulate", "compare"])
@pytest.mark.parametrize(
    "flags,message",
    [
        (["--dim", "3", "--L", "1e10", "--nu", "1e300"], "node count"),
        (["--dim", "2", "--L", "1e200", "--n", "5"], "box volume"),
        (["--dim", "2", "--L", "1e200", "--nu", "0.1"], "box volume"),
        (["--dim", "-1", "--L", "0", "--nu", "0.1"], "box volume"),
        (["--dim", "2", "--L", "0", "--n", "5"], "box_length"),
        # a valid box whose volume underflows to 0.0
        (["--dim", "3", "--L", "1e-110", "--range", "1e-111", "--dt", "1e-113",
          "--n", "5"], "box volume"),
    ],
)
def test_box_out_of_range_is_one_error_line(command, flags, message, tmp_path, capsys):
    out = tmp_path / "out.csv"
    code = run_cli(command, *flags, "--v", "1", "--tau", "0", "--out", str(out))
    captured = capsys.readouterr()
    assert code == 2
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")
    assert message in captured.err
    assert captured.out == ""
    assert not out.exists()


class TestSweep:
    def test_billiard_slowness_drops_to_zero(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        grid = "0.01,0.05,0.1,0.2,0.3,0.32"
        code = run_cli(
            "sweep", "--dim", "2", "--v", "1", "--tau", "0",
            "--nu-grid", grid, "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "nu,slowness,speed,rho0,theta0,status"
        slow = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(b <= a for a, b in zip(slow, slow[1:]))
        assert slow[-1] == 0.0  # 0.32 > 1/pi

    def test_rows_without_a_finite_argmin(self, capsys):
        # empty fields where there is no speed or argmin; inf where the
        # argmin is the rho -> inf sentinel
        for tau, rows in (
            ("0", ["0,1,1,inf,inf,finite", "0.32000000000000001,0,,,,unbounded"]),
            ("0.1", ["0,inf,,,,degenerate-zero-density"]),
        ):
            grid = ",".join(row.split(",")[0] for row in rows)
            code = run_cli(
                "sweep", "--dim", "2", "--v", "1", "--tau", tau, "--nu-grid", grid
            )
            assert code == 0
            assert capsys.readouterr().out.splitlines()[1:] == rows

    def test_random_walk_slowness_diverges_at_zero_density(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "sweep", "--dim", "2", "--v", "1", "--tau", "0.1",
            "--nu-min", "1e-5", "--nu-max", "1e-2", "--nu-points", "6",
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()[1:]
        slow = [float(line.split(",")[1]) for line in lines]
        assert slow[0] > slow[-1]
        assert slow[0] > 10.0

    def test_stdout_without_out(self, tmp_path, capsys):
        args = (
            "sweep", "--dim", "2", "--v", "1", "--tau", "0.1",
            "--nu-grid", "0.01,0.05,0.2,0.5",
        )
        out = tmp_path / "sweep.csv"
        assert run_cli(*args, "--out", str(out)) == 0
        assert capsys.readouterr().out == f"wrote 4 rows to {out}\n"
        assert run_cli(*args) == 0
        assert capsys.readouterr().out == out.read_text()

    SWEEP = ("sweep", "--dim", "2", "--v", "1", "--tau", "0")

    @staticmethod
    def assert_nu_grid_usage_error(code, capsys):
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("usage error: nu-grid must ")
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""

    @pytest.mark.parametrize("grid", ["abc", "0.1,x", "", ","])
    def test_bad_nu_grid_flag(self, grid, capsys):
        # not a number, or no density at all
        self.assert_nu_grid_usage_error(run_cli(*self.SWEEP, "--nu-grid", grid), capsys)

    @pytest.mark.parametrize("grid", [5, [0.1, "x"], [], [0.1, True], "0.1,abc"])
    def test_bad_nu_grid_in_config(self, grid, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"nu_grid": grid}))
        code = run_cli(*self.SWEEP, "--config", str(path))
        self.assert_nu_grid_usage_error(code, capsys)

    @pytest.mark.parametrize(
        "nu_min,nu_max",
        [("nan", "0.1"), ("1e-3", "inf"), ("1e-3", "nan"), ("1e-10", "1e300")],
    )
    def test_non_finite_nu_range_is_a_usage_error(self, nu_min, nu_max, tmp_path, capsys):
        # NaN, inf, or a range whose ratio overflows: refused before the
        # CSV header or any row is written, to stdout or to --out
        args = (*self.SWEEP, "--nu-min", nu_min, "--nu-max", nu_max, "--nu-points", "3")
        out = tmp_path / "sweep.csv"
        for extra in ((), ("--out", str(out))):
            code = run_cli(*args, *extra)
            captured = capsys.readouterr()
            assert code == 1
            assert captured.err.startswith("usage error: need 0 < nu-min < nu-max < inf")
            assert captured.out == ""
            assert not out.exists()

    @pytest.mark.parametrize("bad", ["nan", "-1", "inf"])
    def test_bad_nu_grid_density_is_refused_before_any_output(self, bad, tmp_path,
                                                              capsys):
        # the kernel's own check, made for every density before the CSV
        # header or any row is written, to stdout or to --out
        out = tmp_path / "sweep.csv"
        for extra in ((), ("--out", str(out))):
            code = run_cli(*self.SWEEP, "--nu-grid", f"0.01,{bad}", *extra)
            captured = capsys.readouterr()
            assert code == 2
            message = f"nu must be finite and >= 0, got {float(bad)}"
            assert captured.err == f"error: {message}\n"
            assert captured.out == ""
            assert not out.exists()

    def test_a_density_that_raises_leaves_no_rows(self, tmp_path, capsys):
        # 0.1 has a bound, 1e-14 is a domain error: not even the 0.1 row or
        # the header is written, to stdout or to --out
        out = tmp_path / "sweep.csv"
        for extra in ((), ("--out", str(out))):
            code = run_cli("sweep", "--dim", "2", "--v", "1", "--tau", "0.1",
                           "--nu-grid", "0.1,1e-14", *extra)
            captured = capsys.readouterr()
            assert code == 2
            assert captured.err.startswith("error: density 1e-14 is too small")
            assert len(captured.err.splitlines()) == 1
            assert captured.out == ""
            assert not out.exists()

    @pytest.mark.parametrize("dim", [1, 3])
    def test_other_dimensions_smoke(self, dim, tmp_path):
        from dtnspeed.kernel import KernelPoint, ModelParams, kernel_residual
        from dtnspeed.specfun import UNIT_BALL_VOLUME

        out = tmp_path / "sweep.csv"
        hi = 0.95 / UNIT_BALL_VOLUME[dim]
        code = run_cli(
            "sweep", "--dim", str(dim), "--v", "1", "--tau", "0.05",
            "--nu-min", "1e-4", "--nu-max", str(hi), "--nu-points", "12",
            "--out", str(out),
        )
        assert code == 0
        for line in out.read_text().splitlines()[1:]:
            nu, slowness, speed, rho0, theta0, status = line.split(",")
            if status == "finite":
                p = ModelParams(d=dim, nu=float(nu), v=1.0, tau=0.05)
                res = kernel_residual(p, KernelPoint(float(rho0), float(theta0)))
                assert abs(res) < 1e-9


class TestSimulate:
    def test_writes_records_and_echoes_density(self, tmp_path, capsys):
        out = tmp_path / "records.csv"
        code = run_cli(
            "simulate", "--dim", "2", "--L", "15", "--nu", "0.1",
            "--v", "1", "--tau", "0", "--tmax", "200",
            "--seed", "5", "--runs", "2", "--out", str(out),
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "n=22" in stdout  # round(0.1 * 225)
        lines = out.read_text().splitlines()
        assert lines[0] == "run_seed,node_id,infection_time,distance"
        seeds = {line.split(",")[0] for line in lines[1:]}
        assert seeds == {"5", "6"}

    def test_deterministic_rerun(self, tmp_path):
        args = (
            "simulate", "--dim", "2", "--L", "12", "--n", "15",
            "--v", "1", "--tau", "0.1", "--tmax", "100", "--seed", "1",
            "--runs", "2",
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(*args, "--out", str(a)) == 0
        assert run_cli(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_config(self, tmp_path):
        code = run_cli(
            "simulate", "--dim", "2", "--L", "1", "--n", "5", "--v", "1",
            "--tau", "0", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2

    @pytest.mark.parametrize("runs", ["0", "-3"])
    def test_runs_below_one_is_a_usage_error(self, runs, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = run_cli(
            "simulate", "--dim", "2", "--L", "10", "--n", "5", "--v", "1",
            "--tau", "0", "--runs", runs, "--out", str(out),
        )
        assert code == 1
        assert "--runs must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_radio_range_other_than_one(self, tmp_path, capsys):
        out = tmp_path / "records.csv"
        code = run_cli(
            "simulate", "--dim", "2", "--L", "30", "--n", "40", "--range", "2",
            "--v", "1", "--tau", "0", "--tmax", "50", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "run_seed,node_id,infection_time,distance"
        assert len(lines) > 2

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_negative_seed_is_refused_before_any_output(self, command, tmp_path, capsys):
        # a typed error and exit 2, not numpy's traceback, and no CSV
        out = tmp_path / "x.csv"
        code = run_cli(
            command, "--dim", "2", "--L", "10", "--n", "5", "--v", "1",
            "--tau", "0", "--seed", "-1", "--out", str(out),
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: seed must be an integer >= 0, got -1\n"
        assert captured.out == ""
        assert not out.exists()


class TestCompare:
    ARGS = (
        "compare", "--dim", "2", "--L", "20", "--n", "40", "--v", "1",
        "--tau", "0", "--tmax", "300", "--seed", "3", "--runs", "5",
    )

    def test_pass_and_report(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code = run_cli(*self.ARGS, "--out", str(out))
        stdout = capsys.readouterr().out
        assert code == 0, stdout
        assert "nu=0.1" in stdout
        report = json.loads(stdout.strip().splitlines()[-1])
        assert report["pass"] is True
        assert report["fitted_slowness"] >= report["theoretical_slowness"]
        assert out.read_text().startswith("distance,mean_time,std_error,count")

    def test_fail_path_via_scaled_bound(self, capsys):
        code = run_cli(*self.ARGS, "--theoretical-scale", "50")
        assert code == 3
        stdout = capsys.readouterr().out
        assert "FAIL" in stdout

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(*self.ARGS, "--out", str(a)) == 0
        assert run_cli(*self.ARGS, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_too_few_front_records_is_one_error_line(self, tmp_path, capsys):
        # the fit runs before the curve is written: one run of this box
        # has 3 front records in [5, 10], so compare writes no curve
        out = tmp_path / "curve.csv"
        code = run_cli(*self.ARGS, "--runs", "1", "--out", str(out))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == (
            "error: need at least 10 records with distance in [5.0, 10.0], got 3\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags,message",
        [
            (("--dmin", "8", "--dmax", "2"), "d_min=8.0, d_max=2.0"),
            (("--dmin", "3", "--dmax", "3"), "d_min=3.0, d_max=3.0"),
            (("--bin-width", "nan"), "bin_width must be finite and > 0"),
            (("--bin-width", "0"), "bin_width must be finite and > 0"),
            (("--tau", "0.1", "--L", "1e10", "--n", "2"), "too small for tau"),
        ],
    )
    def test_bad_input_fails_before_any_run(self, flags, message, monkeypatch, capsys):
        # a bad window, bin width or bound is one error line, exit 2, and
        # no simulation runs first
        def refuse(*args):
            raise AssertionError("compare simulated before checking its inputs")

        monkeypatch.setattr(cli, "_run_many", refuse)
        code = run_cli(*self.ARGS, *flags)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert message in captured.err
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""

    @staticmethod
    def compare_outputs(argv, out, capsys):
        """Exit code, JSON verdict and curve rows of one compare."""
        code = run_cli(*argv, "--out", str(out))
        report = json.loads(capsys.readouterr().out.splitlines()[-1])
        lines = out.read_text().splitlines()
        return code, report, lines[0], [line.split(",") for line in lines[1:]]

    @pytest.mark.parametrize("scale", [None, "50"])
    @pytest.mark.parametrize("radio_range", [2.0, 0.5])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_radio_range_is_the_unit_of_length(
        self, radio_range, source, scale, tmp_path, capsys
    ):
        # compare at (r*L, n, r*v, range r) is the unit-range compare with
        # every length times r: the same curve with its distances times r,
        # slownesses divided by r, and the same verdict and exit code (a
        # power of two r makes this exact)
        r = radio_range
        hook = () if scale is None else ("--theoretical-scale", scale)
        unit = self.compare_outputs((*self.ARGS, *hook), tmp_path / "unit.csv", capsys)
        if source == "flag":
            extra = ("--range", repr(r))
        else:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"range": r}))
            extra = ("--config", str(path))
        # a repeated flag's last value wins: --L 20 and --v 1 become r*20 and r
        argv = (*self.ARGS, "--L", repr(20.0 * r), "--v", repr(r), *extra, *hook)
        code, report, header, rows = self.compare_outputs(argv, tmp_path / "r.csv", capsys)
        unit_code, unit_report, unit_header, unit_rows = unit
        assert unit_code == (0 if scale is None else 3)
        assert (code, report["pass"]) == (unit_code, unit_report["pass"])
        for key in ("theoretical_slowness", "fitted_slowness", "stderr", "margin"):
            assert report[key] == unit_report[key] / r, key
        assert header == unit_header
        assert len(rows) == len(unit_rows) > 5
        for row, unit_row in zip(rows, unit_rows):
            assert float(row[0]) == r * float(unit_row[0])
            assert row[1:] == unit_row[1:]


def test_judge_runs_calls_the_names_perfbench_wraps(monkeypatch):
    # perfbench times the stats layers by wrapping these cli globals, and
    # reads the fit window from fit_slope's first three positional arguments
    calls = {}

    def recorder(name):
        original = getattr(cli, name)

        def wrapped(*args, **kwargs):
            calls.setdefault(name, []).append((args, kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, name, wrapped)

    for name in ("front_records", "build_curve", "fit_slope"):
        recorder(name)
    config = SimConfig(d=2, box_length=20.0, n=40, v=1.0, tau=0.0, t_max=300.0)
    bound = cli.speed_bound(cli.ModelParams(d=2, nu=0.1, v=1.0, tau=0.0))
    curve, report = cli.judge_runs(run_epidemic(config, runs=5), bound, 5.0, 10.0, 1.0)
    assert len(calls["front_records"]) == 5
    assert len(calls["build_curve"]) == 1
    [(args, kwargs)] = calls["fit_slope"]
    assert len(args) == 3 and args[1:] == (5.0, 10.0) and kwargs == {}
    assert curve.bins and report.theoretical_slowness == bound.slowness


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--dim", "2", "--v", "1", "--tau", "0", "--nu-grid", "0.01"],
        ["simulate", "--dim", "2", "--L", "12", "--n", "15", "--v", "1", "--tau", "0",
         "--tmax", "20"],
        list(TestCompare.ARGS),
    ],
    ids=["sweep", "simulate", "compare"],
)
def test_unwritable_out_is_one_usage_line(argv, tmp_path, capsys, monkeypatch):
    # like an unreadable --config: one line, exit 1, no traceback, and
    # refused before any output, sweep row or simulation, whether its
    # directory is missing or a file, or it is a directory itself, or it
    # is not writable
    def refuse(*args, **kwargs):
        raise AssertionError("computed before checking --out")

    monkeypatch.setattr(cli, "run_epidemic", refuse)
    if argv[0] == "sweep":  # compare refuses a bad bound first
        monkeypatch.setattr(cli, "speed_bound", refuse)
    (tmp_path / "file").write_text("")
    targets = [(tmp_path / "missing" / "x.csv", "No such file or directory"),
               (tmp_path / "file" / "x.csv", "Not a directory"),
               (tmp_path, "Is a directory")]
    # mode bits do not stop root: make os.access deny the directory
    monkeypatch.setattr(cli.os, "access", lambda *args, **kwargs: False)
    targets.append((tmp_path / "x.csv", "Permission denied"))
    for out, reason in targets:
        code = run_cli(*argv, "--out", str(out))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"usage error: cannot write {str(out)!r}: {reason}\n"
        assert captured.out == ""
    assert not (tmp_path / "missing").exists()
    assert (tmp_path / "file").read_text() == ""


class TestConfigFile:
    def test_flags_win_over_config(self, tmp_path, capsys):
        doc = {"dim": 2, "nu": 0.5, "v": 1.0, "tau": 0.0}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert run_cli("bound", "--config", str(path)) == 0
        assert "unbounded" in capsys.readouterr().out
        # flag overrides the config's nu
        assert run_cli("bound", "--config", str(path), "--nu", "0.05") == 0
        assert "finite" in capsys.readouterr().out

    def test_unknown_key(self, tmp_path, capsys):
        # a key that is no flag of the chosen command is refused, the
        # top-level `command` included: it would not switch the command
        path = tmp_path / "cfg.json"
        # and `config`: a config file cannot name another one
        for key, value in [("bogus", 1), ("command", "sweep"),
                           ("config", "/nonexistent.json")]:
            doc = {key: value, "dim": 2, "nu": 0.1, "v": 1, "tau": 0}
            path.write_text(json.dumps(doc))
            assert run_cli("bound", "--config", str(path)) == 1
            captured = capsys.readouterr()
            assert captured.err == f"usage error: unknown config key {key!r}\n"
            assert captured.out == ""

    @pytest.mark.parametrize(
        "text,message",
        [(None, "cannot read config file"), ("{", "is not valid JSON"),
         ("[1, 2]", "must hold a JSON object, got list")],
    )
    def test_unusable_file(self, text, message, tmp_path, capsys):
        # missing, not JSON, or not an object: one usage line, no traceback
        path = tmp_path / "cfg.json"
        if text is not None:
            path.write_text(text)
        code = run_cli("bound", "--config", str(path))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("usage error: ")
        assert len(captured.err.splitlines()) == 1
        assert message in captured.err
        assert captured.out == ""

    SIM = {"dim": 2, "L": 10.0, "n": 5, "v": 1.0, "tau": 0.0, "tmax": 5.0}

    @pytest.mark.parametrize(
        "key,value",
        [("L", "abc"), ("L", True), ("dim", True), ("dim", 2.5), ("dim", 2.0),
         ("n", "five"), ("n", [5]), ("v", {"x": 1}), ("tmax", 10**400)],
    )
    def test_value_of_the_wrong_type(self, key, value, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**self.SIM, key: value}))
        code = run_cli(
            "simulate", "--config", str(path), "--out", str(tmp_path / "x.csv")
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"usage error: config key {key!r} must be " + (
            "int" if key in ("dim", "n") else "float"
        ) + f", got {value!r}\n"

    @pytest.mark.parametrize("command", ["sweep", "simulate", "compare"])
    @pytest.mark.parametrize("value", [5, ["a"]])
    def test_out_must_be_a_string(self, command, value, tmp_path, monkeypatch, capsys):
        # a non-string out is one usage line before any run or file
        monkeypatch.chdir(tmp_path)
        sweep = {"dim": 2, "v": 1.0, "tau": 0.0, "nu-grid": "0.1"}
        doc = {**(sweep if command == "sweep" else self.SIM), "out": value}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        code = run_cli(command, "--config", str(path))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"usage error: config key 'out' must be str, got {value!r}\n"
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_values_get_the_flag_type(self, tmp_path):
        # strings convert as the flag's text would, ints become floats
        doc = {**self.SIM, "L": "10", "n": "5", "v": 1, "seed": "3"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        flags = ("simulate", "--dim", "2", "--L", "10", "--n", "5", "--v", "1",
                 "--tau", "0", "--tmax", "5", "--seed", "3")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("simulate", "--config", str(path), "--out", str(a)) == 0
        assert run_cli(*flags, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dtnspeed.cli", "bound", "--dim", "2",
             "--nu", "0.05", "--v", "1", "--tau", "0.1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "finite" in proc.stdout

    def test_import_leaves_out_the_process_pool(self):
        # multiprocessing is imported only when a command runs in workers
        code = ("import sys, dtnspeed.cli; "
                "sys.exit('concurrent.futures.process' in sys.modules)")
        assert subprocess.run([sys.executable, "-c", code]).returncode == 0

    @pytest.mark.parametrize(
        "threads,runs,pool_size,chunks",
        [
            ("1000000", 2, 2, [(7, 1), (8, 1)]),
            ("3", 5, 3, [(7, 1), (8, 2), (10, 2)]),
            ("1", 5, None, [(7, 5)]),
            ("1000000", 1, None, [(7, 1)]),
        ],
        ids=["1000000-2-2", "3-5-3", "1-5-None", "1000000-1-None"],
    )
    def test_workers_capped_at_runs(self, threads, runs, pool_size, chunks, monkeypatch):
        # the process pool starts all max_workers processes on its first
        # submit, so it gets no more workers than runs; one run needs no
        # pool; each worker runs one contiguous chunk of seeds as one batch
        sizes, batches = [], []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        def batch(config, runs):
            batches.append((config.seed, runs))
            return run_epidemic(config, runs)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(cli, "run_epidemic", batch)
        monkeypatch.setenv("DTN_SPEED_THREADS", threads)
        kwargs = dict(d=2, box_length=12.0, n=15, v=1.0, tau=0.0, t_max=20.0)
        config = SimConfig(**kwargs, seed=7)
        results = cli._run_many(config, runs, cli._worker_count())
        assert [seed for seed, _ in results] == list(range(7, 7 + runs))
        assert sizes == ([] if pool_size is None else [pool_size])
        assert batches == chunks
        for seed, records in results:
            alone = run_epidemic(SimConfig(**kwargs, seed=seed))
            assert [records] == alone

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_bad_worker_env_is_refused_before_any_output(self, command, tmp_path,
                                                          monkeypatch, capsys):
        out = tmp_path / "x.csv"
        monkeypatch.setenv("DTN_SPEED_THREADS", "abc")
        code = run_cli(command, "--dim", "2", "--L", "12", "--n", "15", "--v", "1",
                       "--tau", "0", "--tmax", "20", "--out", str(out))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == (
            "usage error: DTN_SPEED_THREADS must be an integer, got 'abc'\n"
        )
        assert captured.out == ""
        assert not out.exists()

    def test_worker_env_does_not_change_output(self, tmp_path, monkeypatch):
        args = (
            "simulate", "--dim", "2", "--L", "12", "--n", "15", "--v", "1",
            "--tau", "0", "--tmax", "100", "--seed", "0", "--runs", "3",
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.setenv("DTN_SPEED_THREADS", "1")
        assert run_cli(*args, "--out", str(a)) == 0
        monkeypatch.setenv("DTN_SPEED_THREADS", "3")
        assert run_cli(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()
        # rows in strict (run_seed, infection_time, node_id) order
        keys = []
        for line in a.read_text().splitlines()[1:]:
            seed, node, time, _ = line.split(",")
            keys.append((int(seed), float(time), int(node)))
        assert all(x < y for x, y in zip(keys, keys[1:]))
        assert {k[0] for k in keys} == {0, 1, 2}
