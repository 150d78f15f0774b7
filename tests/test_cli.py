import json
import math
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "subwave.cli"]


def run_cli(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True)


class TestBoundCommand:
    def test_gaussian_example(self):
        r = run_cli("bound", "--phi", "gaussian", "--c", "1", "--p", "2", "--eps", "4")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["bound"] == pytest.approx(2.0 * math.exp(-2.0), rel=1e-12)
        assert doc["valid"] is True

    def test_bad_family_exit_code(self):
        r = run_cli("bound", "--phi", "cauchy", "--c", "1", "--p", "2", "--eps", "4")
        assert r.returncode == 2
        assert "error" in r.stderr

    def test_unknown_flag_exit_code(self):
        r = run_cli("bound", "--phi", "gaussian", "--zzz", "1")
        assert r.returncode == 2


class TestThresholdCommand:
    def test_power_value(self):
        r = run_cli("threshold", "--phi", "power:1.5", "--c", "1", "--p", "2")
        assert r.returncode == 0
        assert float(r.stdout) == pytest.approx(2.0 ** (2.0 / 3.0), rel=1e-12)

    def test_invalid_c(self):
        r = run_cli("threshold", "--phi", "gaussian", "--c", "-1", "--p", "2")
        assert r.returncode == 2


class TestBasisInfoCommand:
    def test_haar_constants(self):
        r = run_cli("basis-info", "--basis", "haar", "--T", "1", "--k1", "3")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["C_delta_m"] == pytest.approx(5.0)
        assert doc["C_delta_T_k1_m"] == 0.0
        assert doc["lipschitz"]["order"] == 1.0
        assert doc["lipschitz"]["constant"] == pytest.approx(0.25, abs=1e-3)
        # the lattice sums of the unit box and the Haar wavelet
        assert doc["C_lattice_f"] == doc["C_lattice_m"] == 1.0
        assert doc["C_lattice_T_k1_f"] == doc["C_lattice_T_k1_m"] == 0.0

    def test_meyer_lattice_constants(self):
        r = run_cli("basis-info", "--basis", "meyer", "--T", "1", "--k1", "3")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        # the uniform route's constants, far below the envelope ones
        assert doc["C_lattice_m"] == pytest.approx(2.082, abs=5e-4)
        assert doc["C_delta_m"] == pytest.approx(1368.9, abs=0.05)
        assert doc["C_lattice_f"] == pytest.approx(1.973, abs=5e-4)
        assert 0.0 < doc["C_lattice_T_k1_m"] < doc["C_lattice_m"]
        assert 0.0 < doc["C_lattice_T_k1_f"] < doc["C_lattice_f"]

    def test_unknown_basis(self):
        r = run_cli("basis-info", "--basis", "coiflet")
        assert r.returncode == 2


class TestPlanCommand:
    def test_feasible_plan_with_haar(self):
        # large epsilon: the lattice origin already satisfies a loose target
        from subwave.bounds import c_n_infty_uniform
        from subwave.expansion import TruncationScheme
        from subwave.processes import make_ou
        from subwave.wavelets import make_basis

        c0 = c_n_infty_uniform(
            make_ou(1.0), make_basis("haar"), TruncationScheme(2, (2,)), 2.0, 1.0, 0.5
        )
        r = run_cli(
            "plan", "--model", "ou:1", "--basis", "haar", "--phi", "gaussian",
            "--p", "2", "--T", "1", "--eps", str(3.0 * c0), "--delta", "0.99",
            "--alpha", "0.5",
        )
        assert r.returncode == 0
        lines = r.stdout.splitlines()
        assert lines[0] == "k0'=2;k=2"
        doc = json.loads(lines[1])
        assert doc["valid"] is True and doc["bound"] <= 0.99

    def test_infeasible_plan_exit_code(self):
        r = run_cli(
            "plan", "--model", "ou:1", "--basis", "haar", "--phi", "gaussian",
            "--p", "2", "--T", "1", "--eps", "0.5", "--delta", "0.1",
            "--alpha", "0.5",
        )
        assert r.returncode == 1
        assert "numeric failure" in r.stderr


class TestSimulateCommand:
    def test_writes_paths(self, tmp_path):
        out = tmp_path / "paths"
        r = run_cli(
            "simulate", "--model", "ou:1", "--L", "2", "--h", "0.25",
            "--paths", "3", "--seed", "1", "--out", str(out),
        )
        assert r.returncode == 0
        files = sorted(p.name for p in out.iterdir())
        assert files == ["path_0.csv", "path_1.csv", "path_2.csv"]
        head = (out / "path_0.csv").read_text().splitlines()[0]
        assert head == "t,x"

    def test_grid_too_large(self, tmp_path):
        r = run_cli(
            "simulate", "--model", "ou:1", "--L", "100", "--h", "0.001",
            "--paths", "1", "--seed", "1", "--out", str(tmp_path / "x"),
        )
        assert r.returncode == 1


class TestExperimentCommand:
    def test_missing_config(self, tmp_path):
        r = run_cli("experiment", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path))
        assert r.returncode == 2

    def test_bad_json(self, tmp_path):
        f = tmp_path / "cfg.json"
        f.write_text("{not json")
        r = run_cli("experiment", "--config", str(f), "--out", str(tmp_path))
        assert r.returncode == 2

    def test_zero_off_the_grid(self, tmp_path):
        cfg = {
            "model_spec": "ou:1",
            "basis_spec": "haar",
            "nfunction_spec": "gaussian",
            "schemes": ["k0'=1;k=1", "k0'=2;k=2,3"],
            "p": 2,
            "T": 1,
            "grid_L": 13.0,
            "grid_h": 0.4,
            "n_paths": 100,
            "epsilons": [0.5, 1.0],
            "seed": 3,
        }
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps(cfg))
        r = run_cli("experiment", "--config", str(f), "--out", str(tmp_path / "results"))
        assert r.returncode == 2
        assert "must be nodes" in r.stderr
        assert not (tmp_path / "results").exists()

    def test_grid_too_large(self, tmp_path):
        # a config error (exit 2), unlike `subwave simulate` on such a grid
        cfg = {
            "model_spec": "ou:1",
            "basis_spec": "haar",
            "nfunction_spec": "gaussian",
            "schemes": ["k0'=1;k=1", "k0'=2;k=2,3"],
            "p": 2,
            "T": 1,
            "grid_L": 100.0,
            "grid_h": 0.01,
            "n_paths": 100,
            "epsilons": [0.5, 1.0],
            "seed": 3,
        }
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps(cfg))
        r = run_cli("experiment", "--config", str(f), "--out", str(tmp_path / "results"))
        assert r.returncode == 2
        assert "20001 points" in r.stderr
        assert not (tmp_path / "results").exists()

    def test_small_run(self, tmp_path):
        cfg = {
            "model_spec": "ou:1",
            "basis_spec": "haar",
            "nfunction_spec": "gaussian",
            "schemes": ["k0'=1;k=1", "k0'=2;k=2,3"],
            "p": 2,
            "T": 1,
            "grid_L": 4.0,
            "grid_h": 0.03125,
            "n_paths": 100,
            "epsilons": [0.5, 1.0],
            "seed": 3,
        }
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps(cfg))
        out = tmp_path / "results"
        r = run_cli("experiment", "--config", str(f), "--out", str(out))
        assert r.returncode == 0, r.stderr
        report = json.loads((out / "report.json").read_text())
        assert report["tightness"]["violations"] == 0
        assert (out / "results.csv").exists() and (out / "tails.csv").exists()
