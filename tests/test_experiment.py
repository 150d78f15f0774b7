import copy
import dataclasses
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from subwave import cli, experiment
from subwave.errors import SupportCoverageError, ValidationError
from subwave.expansion import compute_coefficients, lp_error, reconstruct
from subwave.experiment import (
    config_from_dict,
    load_config,
    run_experiment,
    tightness_report,
    write_outputs,
)
from subwave.processes import SamplePath, parse_model_spec, simulate_paths
from subwave.wavelets import make_basis

BASE = {
    "model_spec": "ou:1",
    "basis_spec": "meyer",
    "nfunction_spec": "gaussian",
    "schemes": ["k0'=1;k=1", "k0'=2;k=2,3"],
    "p": 2,
    "T": 1,
    "grid_L": 52.0,
    "grid_h": 0.125,
    "n_paths": 120,
    "epsilons": [0.4, 0.6, 1.0],
    "seed": 11,
}


def cfg_with(**kw):
    doc = copy.deepcopy(BASE)
    doc.update(kw)
    return config_from_dict(doc)


@pytest.fixture(scope="module")
def base_result():
    return run_experiment(config_from_dict(BASE))


class TestConfigValidation:
    def test_accepts_base(self):
        cfg = config_from_dict(BASE)
        assert cfg.n_paths == 120
        assert cfg.schemes[1].levels == (2, 3)

    def test_unknown_key_rejected(self):
        doc = dict(BASE, extra_knob=1)
        with pytest.raises(ValidationError, match="unknown config keys"):
            config_from_dict(doc)

    def test_missing_key_rejected(self):
        doc = dict(BASE)
        del doc["seed"]
        with pytest.raises(ValidationError, match="missing config keys"):
            config_from_dict(doc)

    def test_wrong_type_rejected(self):
        with pytest.raises(ValidationError, match="wrong type"):
            config_from_dict(dict(BASE, p="2"))

    def test_non_nested_schemes_rejected(self):
        with pytest.raises(ValidationError, match="nested"):
            cfg_with(schemes=["k0'=3;k=3", "k0'=2;k=2,3"])

    def test_minimum_paths(self):
        with pytest.raises(ValidationError):
            cfg_with(n_paths=50)

    def test_grid_must_cover_interval(self):
        with pytest.raises(ValidationError):
            cfg_with(T=60.0)

    def test_epsilons_positive(self):
        with pytest.raises(ValidationError):
            cfg_with(epsilons=[0.5, -1.0])

    @pytest.mark.parametrize("key", ["p", "T", "grid_L", "grid_h"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_number_rejected(self, key, value):
        # rejected with the config, before any path is simulated
        with pytest.raises(ValidationError, match=f"{key} must be finite"):
            cfg_with(**{key: value})

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_epsilon_rejected(self, value):
        with pytest.raises(ValidationError, match="finite positives"):
            cfg_with(epsilons=[0.4, value])

    def test_single_scheme_rejected(self):
        with pytest.raises(ValidationError):
            cfg_with(schemes=["k0'=1;k=1"])

    def test_load_config_roundtrip(self, tmp_path):
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps(BASE))
        assert load_config(f) == config_from_dict(BASE)

    def test_json_roundtrip(self):
        cfg = config_from_dict(BASE)
        doc = cfg.to_json_dict()
        assert list(doc) == list(BASE)
        assert config_from_dict(doc) == cfg
        assert doc["schemes"] == BASE["schemes"]
        assert doc["epsilons"] == BASE["epsilons"]

    def test_wrong_item_type_rejected(self):
        for key, bad in (("schemes", ["k0'=1;k=1", 3]), ("epsilons", [0.4, "1"])):
            with pytest.raises(ValidationError, match="wrong type"):
                config_from_dict(dict(BASE, **{key: bad}))

    @pytest.mark.parametrize(
        "change",
        [{"p": True}, {"T": True}, {"grid_L": False}, {"grid_h": True}, {"n_paths": True},
         {"seed": False}, {"epsilons": [0.4, True]}],
        ids=lambda change: json.dumps(change),
    )
    def test_boolean_is_not_a_number(self, change):
        (key,) = change
        with pytest.raises(ValidationError, match=f"config field '{key}' has the wrong type"):
            config_from_dict(dict(BASE, **change))

    def test_list_field_needs_a_list(self):
        with pytest.raises(ValidationError, match="config field 'schemes' has the wrong type"):
            config_from_dict(dict(BASE, schemes="k0'=1;k=1"))

    @pytest.mark.parametrize(
        "key, message",
        [
            ("model_spec", "unknown model spec"),
            ("basis_spec", "unknown wavelet family"),
            ("nfunction_spec", "unknown N-function spec"),
        ],
    )
    def test_unknown_spec_rejected(self, key, message):
        # rejected with the config, before a run makes its output directory
        with pytest.raises(ValidationError, match=message):
            cfg_with(**{key: "nosuch"})

    def test_p_below_one_rejected(self):
        with pytest.raises(ValidationError, match="p must be >= 1"):
            cfg_with(p=0.5)

    def test_zero_and_T_must_be_grid_nodes(self):
        # nodes at -13 + 0.4 i miss 0: the old node mask kept [0.2, 0.6] of [0, 1]
        with pytest.raises(ValidationError, match="must be nodes"):
            cfg_with(grid_L=13.0, grid_h=0.4, T=1)
        with pytest.raises(ValidationError, match="must be nodes"):
            cfg_with(T=1.0 + 1.0 / 16.0)  # grid step 1/8


    def test_repeated_epsilon_rejected(self):
        # the tails are keyed (scheme, epsilon): a repeat would lose rows
        with pytest.raises(ValidationError, match="must not repeat"):
            cfg_with(epsilons=[0.5, 0.6, 0.5])

    @pytest.mark.parametrize("seed", [-1, 2**64, 5 + 2**64])
    def test_seed_outside_64_bits_rejected(self, seed):
        # the path streams key on 64 bits: 5 + 2^64 would replay seed 5
        with pytest.raises(ValidationError, match=r"seed must be in \[0, 2\^64\)"):
            cfg_with(seed=seed)

    def test_seed_range_ends_accepted(self):
        assert cfg_with(seed=0).seed == 0
        assert cfg_with(seed=2**64 - 1).seed == 2**64 - 1

    @pytest.mark.parametrize("basis_spec, grid_L", [("haar", 1.5), ("meyer", 20.0)])
    def test_grid_must_cover_the_supports(self, tmp_path, monkeypatch, basis_spec, grid_L):
        # (f, 0, -2) of haar lives on [-3, -1]; meyer's supports are wider
        # than 20; a run fails on the config, before any work or output
        doc = dict(BASE, basis_spec=basis_spec, grid_L=grid_L)
        with pytest.raises(SupportCoverageError, match="does not cover the effective support"):
            config_from_dict(doc)

        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated paths before the coverage check")

        monkeypatch.setattr(experiment, "simulate_paths", no_simulation)
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        argv = ["experiment", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        assert not (tmp_path / "out").exists()


class TestRunExperiment:
    def test_unusable_bound_fails_before_sampling(self, monkeypatch):
        # at p = 1e6 the rate constant underflows to 0, so no bound exists;
        # that must be found before any path is drawn (and without the
        # overflow warning of the error integral, which tier-1 makes an error)
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated paths before the bounds")

        monkeypatch.setattr(experiment, "simulate_paths", no_simulation)
        cfg = cfg_with(basis_spec="haar", grid_L=4.0, grid_h=0.125, p=1e6, epsilons=[0.5])
        with pytest.raises(ValidationError, match="finite c > 0"):
            run_experiment(cfg)

    def test_shapes_and_ranges(self, base_result):
        res = base_result
        assert res.per_path_errors.shape == (2, 120)
        assert np.all(res.per_path_errors >= 0.0)
        for freq in res.empirical_tail.values():
            assert 0.0 <= freq <= 1.0

    def test_median_decreases_with_refinement(self, base_result):
        med = [s["median"] for s in base_result.summary]
        assert med[1] < med[0]

    def test_huge_epsilon_gives_zero_tail(self):
        res = run_experiment(cfg_with(epsilons=[1e6]))
        assert all(v == 0.0 for v in res.empirical_tail.values())

    def test_deterministic_outputs(self, base_result):
        res2 = run_experiment(config_from_dict(BASE))
        assert res2.results_csv() == base_result.results_csv()
        assert res2.tails_csv() == base_result.tails_csv()
        assert np.array_equal(res2.per_path_errors, base_result.per_path_errors)

    def test_csv_shapes(self, base_result):
        lines = base_result.results_csv().splitlines()
        assert lines[0] == "scheme_index,path_index,lp_error"
        assert len(lines) == 1 + 2 * 120
        for line in lines[1:]:
            s, i, err = line.split(",")
            assert float(err) == base_result.per_path_errors[int(s), int(i)]
        tails = base_result.tails_csv().splitlines()
        assert tails[0] == "scheme_index,epsilon,empirical,bound,valid,stderr"
        assert len(tails) == 1 + 2 * 3


class TestQuartiles:
    def test_equal_numpy_percentile_bit_for_bit(self):
        rng = np.random.default_rng(0)
        for n in range(100, 2002):
            errors = rng.lognormal(-3.0, 2.0, n)
            tied = np.round(rng.exponential(1.0, n), 1)  # many ties, no -0.0
            for x in (errors, tied):
                got = np.array(experiment._quartiles(x))
                assert got.tobytes() == np.percentile(x, [25, 50, 75]).tobytes(), n

    def test_a_run_never_imports_numpy_ma(self, tmp_path):
        # np.percentile imports numpy.ma on its first call in a process
        src = Path(experiment.__file__).resolve().parents[1]
        script = (
            "import json, sys\n"
            "from subwave import experiment\n"
            "cfg = experiment.config_from_dict(json.loads(sys.argv[1]))\n"
            "experiment.write_outputs(experiment.run_experiment(cfg), sys.argv[2])\n"
            "print(sorted(m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.')))\n"
        )
        doc = {**BASE, "basis_spec": "haar", "grid_L": 4.0, "n_paths": 100}
        out = subprocess.run(
            [sys.executable, "-c", script, json.dumps(doc), str(tmp_path / "out")],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120, check=True,
        )
        assert (tmp_path / "out" / "report.json").is_file()
        assert out.stdout.strip() == "[]"


class TestOnePipeline:
    def test_batch_matches_single_path_functions(self, base_result):
        cfg = config_from_dict(BASE)
        basis = make_basis(cfg.basis_spec)
        paths = simulate_paths(
            parse_model_spec(cfg.model_spec), cfg.grid_L, cfg.grid_h, cfg.n_paths, cfg.seed
        )
        for s, scheme in enumerate(cfg.schemes):
            single = [
                lp_error(path, reconstruct(compute_coefficients(path, basis, scheme), basis,
                                           path.grid), cfg.p, cfg.T)
                for path in paths
            ]
            # BLAS sums a one-column product in another order than an
            # N-column one, so the two agree to rounding, not bitwise
            np.testing.assert_allclose(base_result.per_path_errors[s], single, rtol=1e-12)

    def test_paths_come_through_experiment_simulate_paths(self, monkeypatch):
        calls = []
        real = experiment.simulate_paths

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(experiment, "simulate_paths", spy)
        run_experiment(config_from_dict(BASE))
        assert len(calls) == 1

    def test_builds_no_per_path_objects(self, monkeypatch, base_result):
        def refuse(self):
            raise AssertionError("run_experiment built a SamplePath")

        monkeypatch.setattr(SamplePath, "__post_init__", refuse)
        result = run_experiment(config_from_dict(BASE))
        assert np.array_equal(result.per_path_errors, base_result.per_path_errors)

    def test_traced_names_resolve(self, monkeypatch):
        # the benchmark's traced run wraps these module attributes by name
        bench = Path(__file__).resolve().parents[1] / "bench"
        monkeypatch.syspath_prepend(str(bench))
        layers = importlib.import_module("layers")
        for module, names in layers.TRACED:
            for name in names:
                assert callable(getattr(module, name)), f"{module.__name__}.{name}"


class TestTightness:
    def test_no_violations_for_gaussian_ou(self, base_result):
        rep = tightness_report(base_result)
        assert rep["violations"] == 0

    def test_rows_cover_all_pairs(self, base_result):
        rep = tightness_report(base_result)
        assert len(rep["rows"]) == 6
        for row in rep["rows"]:
            if row["valid"]:
                assert row["empirical"] <= row["bound"] + 3.0 * row["stderr"]

    def test_invalid_epsilons_rejected_as_report_input(self):
        res = run_experiment(cfg_with(epsilons=[0.01]))
        assert not any(r.valid for r in res.theoretical_bound.values())
        with pytest.raises(ValidationError):
            tightness_report(res)

    def test_tails_csv_rows_are_the_report_rows(self, base_result):
        lines = base_result.tails_csv().splitlines()
        rows = tightness_report(base_result)["rows"]
        assert len(lines) == len(rows) + 1
        for line, row in zip(lines[1:], rows):
            s, eps, freq, bound, valid, se = line.split(",")
            assert (int(s), float(eps), float(freq), float(bound), float(se)) == (
                row["scheme_index"], row["epsilon"], row["empirical"], row["bound"], row["stderr"]
            )
            assert valid == str(row["valid"]).lower()

    def test_tails_csv_needs_no_valid_bound(self):
        res = run_experiment(cfg_with(epsilons=[0.01]))
        assert len(res.tails_csv().splitlines()) == 1 + 2
        with pytest.raises(ValidationError, match="at least one valid bound"):
            tightness_report(res)

    def test_write_outputs(self, base_result, tmp_path):
        files = write_outputs(base_result, tmp_path)
        report = json.loads((tmp_path / "report.json").read_text())
        assert set(files) == {"results", "tails", "report"}
        assert report["config"]["seed"] == 11
        assert report["tightness"]["violations"] == 0
        assert (tmp_path / "results.csv").exists()
        assert (tmp_path / "tails.csv").exists()

    def test_report_is_strict_json(self, base_result, tmp_path):
        # a bound that underflows to 0 has no ratio: null, not Infinity
        key = min(base_result.theoretical_bound)
        bounds = dict(base_result.theoretical_bound)
        bounds[key] = dataclasses.replace(bounds[key], bound=0.0)
        write_outputs(dataclasses.replace(base_result, theoretical_bound=bounds), tmp_path)

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        report = json.loads((tmp_path / "report.json").read_text(), parse_constant=reject)
        assert report["tightness"]["rows"][0]["ratio"] is None
        assert all(r["ratio"] is not None for r in report["tightness"]["rows"][1:])
