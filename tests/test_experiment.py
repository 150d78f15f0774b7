import copy
import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from subwave import experiment
from subwave.errors import ValidationError
from subwave.expansion import compute_coefficients, lp_error, reconstruct
from subwave.experiment import (
    config_from_dict,
    load_config,
    run_experiment,
    tightness_report,
    write_outputs,
)
from subwave.processes import parse_model_spec, simulate_paths
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

    def test_zero_and_T_must_be_grid_nodes(self):
        # nodes at -13 + 0.4 i miss 0: the old node mask kept [0.2, 0.6] of [0, 1]
        with pytest.raises(ValidationError, match="must be nodes"):
            cfg_with(grid_L=13.0, grid_h=0.4, T=1)
        with pytest.raises(ValidationError, match="must be nodes"):
            cfg_with(T=1.0 + 1.0 / 16.0)  # grid step 1/8


class TestRunExperiment:
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
        tails = base_result.tails_csv().splitlines()
        assert tails[0] == "scheme_index,epsilon,empirical,bound,valid,stderr"
        assert len(tails) == 1 + 2 * 3


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

    def test_write_outputs(self, base_result, tmp_path):
        files = write_outputs(base_result, tmp_path)
        report = json.loads((tmp_path / "report.json").read_text())
        assert set(files) == {"results", "tails", "report"}
        assert report["config"]["seed"] == 11
        assert report["tightness"]["violations"] == 0
        assert (tmp_path / "results.csv").exists()
        assert (tmp_path / "tails.csv").exists()
