import json
import subprocess
import sys

import pytest

from dtnspeed.cli import main


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

    def test_missing_flags(self, capsys):
        assert run_cli("bound", "--dim", "2") == 1

    def test_invalid_params(self, capsys):
        assert run_cli("bound", "--dim", "2", "--nu", "-1", "--v", "1", "--tau", "0") == 2


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

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"bogus": 1}))
        assert run_cli("bound", "--config", str(path)) == 1


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dtnspeed.cli", "bound", "--dim", "2",
             "--nu", "0.05", "--v", "1", "--tau", "0.1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "finite" in proc.stdout

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
