import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

CLI = [sys.executable, "-m", "subwave.cli"]
# the subprocess imports the package from this checkout, installed or not
SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(CLI + list(args), capture_output=True, text=True, env=env)


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

    def test_threshold_past_float_range_is_null(self):
        # strict JSON: an infinite threshold is written as null, not Infinity
        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        r = run_cli("bound", "--phi", "gaussian", "--c", "1", "--p", "1000", "--eps", "5")
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout, parse_constant=reject)
        assert doc["threshold"] is None and doc["valid"] is False


class TestThresholdCommand:
    def test_power_value(self):
        r = run_cli("threshold", "--phi", "power:1.5", "--c", "1", "--p", "2")
        assert r.returncode == 0
        assert float(r.stdout) == pytest.approx(2.0 ** (2.0 / 3.0), rel=1e-12)

    def test_invalid_c(self):
        r = run_cli("threshold", "--phi", "gaussian", "--c", "-1", "--p", "2")
        assert r.returncode == 2

    def test_threshold_past_float_range_is_inf(self):
        # 1000^500 overflows: no eps is valid, which is an answer, not a crash
        r = run_cli("threshold", "--phi", "gaussian", "--c", "1", "--p", "1000")
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "inf"


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
        assert r.returncode == 2


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
        # a config error (exit 2), as for `subwave simulate` on such a grid
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


_PLAN = ("plan", "--model", "ou:1", "--basis", "haar", "--phi", "gaussian", "--eps", "1e9", "--delta", "0.9")
_SIMULATE = ("simulate", "--model", "ou:1", "--paths", "2", "--seed", "1")
_CONFIG = {
    "model_spec": "ou:1",
    "basis_spec": "haar",
    "nfunction_spec": "gaussian",
    "schemes": ["k0'=1;k=1", "k0'=2;k=2,3"],
    "p": 2,
    "T": 1,
    "grid_L": 4.0,
    "grid_h": 0.125,
    "n_paths": 100,
    "epsilons": [0.5, 1.0],
    "seed": 3,
}


@pytest.mark.parametrize(
    "call",
    [
        _SIMULATE + ("--L", "inf", "--h", "0.125"),
        _SIMULATE + ("--L", "1", "--h", "1e-320"),
        {"grid_L": math.inf},
        _PLAN + ("--p", "2", "--T", "inf", "--alpha", "0.5"),
        _PLAN + ("--p", "2", "--T", "nan", "--alpha", "0.5"),
        _PLAN + ("--p", "2", "--T", "1", "--alpha", "nan"),
        _PLAN + ("--p", "2", "--T", "1", "--alpha", "inf"),
        _PLAN + ("--p", "inf", "--T", "1", "--alpha", "0.5"),
        ("plan", "--model", "ou:inf") + _PLAN[3:] + ("--p", "2", "--T", "1", "--alpha", "0.5"),
        ("basis-info", "--basis", "meyer", "--T", "nan"),
        ("bound", "--phi", "power:1.5", "--c", "1", "--p", "inf", "--eps", "3"),
        ("threshold", "--phi", "gaussian", "--c", "inf", "--p", "2"),
        ("bound", "--phi", "gaussian", "--c", "1", "--p", "2", "--eps", "inf"),
        _PLAN[:7] + ("--eps", "inf", "--delta", "0.9", "--p", "2", "--T", "1", "--alpha", "0.5"),
        {"p": math.inf},
        {"p": math.nan},
        {"epsilons": [math.nan]},
    ],
    ids=lambda call: " ".join(call) if isinstance(call, tuple) else json.dumps(call),
)
def test_non_finite_number_exits_2(call, tmp_path):
    if isinstance(call, dict):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({**_CONFIG, **call}))  # writes Infinity / NaN
        call = ("experiment", "--config", str(config))
    if call[0] in ("simulate", "experiment"):
        call += ("--out", str(tmp_path / "out"))
    r = run_cli(*call)
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error: ")
    assert "Traceback" not in r.stderr
    assert not (tmp_path / "out").exists()


def _experiment_config(tmp_path, **change):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({**_CONFIG, **change}))
    return str(config)


@pytest.mark.parametrize(
    "make_call",
    [
        lambda tmp: _SIMULATE + ("--L", "2", "--h", "0.125", "--out", str(tmp / "afile")),
        lambda tmp: ("experiment", "--config", _experiment_config(tmp), "--out", str(tmp / "afile")),
        lambda tmp: ("experiment", "--config", str(tmp), "--out", str(tmp / "out")),
        lambda tmp: ("experiment", "--config", _experiment_config(tmp, p=True),
                     "--out", str(tmp / "out")),
        lambda tmp: ("simulate", "--model", "ou:1", "--paths", "0", "--seed", "1",
                     "--L", "2", "--h", "0.125", "--out", str(tmp / "out")),
        lambda tmp: ("experiment", "--config", _experiment_config(tmp, basis_spec="nosuch"),
                     "--out", str(tmp / "out")),
        lambda tmp: ("experiment", "--config", _experiment_config(tmp, model_spec="nosuch"),
                     "--out", str(tmp / "out")),
        lambda tmp: ("experiment", "--config", _experiment_config(tmp, nfunction_spec="nosuch"),
                     "--out", str(tmp / "out")),
        lambda tmp: ("simulate", "--model", "ou:1", "--paths", "2", "--seed", "-5",
                     "--L", "2", "--h", "0.125", "--out", str(tmp / "out")),
        lambda tmp: ("simulate", "--model", "ou:1", "--paths", "2", "--seed", str(2**64),
                     "--L", "2", "--h", "0.125", "--out", str(tmp / "out")),
        lambda tmp: ("experiment", "--config", _experiment_config(tmp, seed=-1),
                     "--out", str(tmp / "out")),
        lambda tmp: ("experiment", "--config", _experiment_config(tmp, epsilons=[0.5, 0.5]),
                     "--out", str(tmp / "out")),
    ],
    ids=["simulate --out file", "experiment --out file", "--config dir", "boolean p",
         "--paths 0", "unknown basis", "unknown model", "unknown N-function",
         "--seed -5", "--seed 2^64", "seed -1", "repeated epsilon"],
)
def test_unusable_path_or_config_exits_2(make_call, tmp_path):
    (tmp_path / "afile").write_text("kept\n")
    r = run_cli(*make_call(tmp_path))
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error: ")
    assert "Traceback" not in r.stderr
    assert (tmp_path / "afile").read_text() == "kept\n"
    assert not (tmp_path / "out").exists()
    assert not list(tmp_path.rglob("*.csv"))


def test_rejected_experiment_writes_no_results(tmp_path):
    # every epsilon is below the threshold, so no bound is valid
    config = _experiment_config(tmp_path, epsilons=[1e-9])
    r = run_cli("experiment", "--config", config, "--out", str(tmp_path / "out"))
    assert r.returncode == 2, r.stderr
    assert "at least one valid bound" in r.stderr
    for name in ("results.csv", "tails.csv", "report.json"):
        assert not (tmp_path / "out" / name).exists()


def test_experiment_out_checked_before_simulation(tmp_path, monkeypatch):
    from subwave import cli, experiment

    def no_simulation(*args):
        raise AssertionError("simulated paths before checking --out")

    monkeypatch.setattr(experiment, "simulate_paths", no_simulation)
    (tmp_path / "afile").write_text("")
    argv = ["experiment", "--config", _experiment_config(tmp_path), "--out", str(tmp_path / "afile")]
    assert cli.main(argv) == 2


@pytest.mark.parametrize(
    "make_call",
    [
        lambda tmp: ("simulate", "--model", "ou:1", "--L", "1", "--h", "0.5", "--paths", str(10**16),
                     "--seed", "1", "--out", str(tmp / "out")),
        lambda tmp: ("experiment", "--config", _experiment_config(tmp, n_paths=10**16),
                     "--out", str(tmp / "out")),
    ],
    ids=["simulate", "experiment"],
)
def test_paths_past_memory_exit_1_before_out(make_call, tmp_path):
    # 10^16 paths need more bytes than any machine has: refused before
    # anything is allocated or --out is made
    r = run_cli(*make_call(tmp_path))
    assert r.returncode == 1, r.stderr
    assert r.stderr.startswith("numeric failure: ") and r.stderr.count("\n") == 1
    assert "Traceback" not in r.stderr
    assert not (tmp_path / "out").exists()
