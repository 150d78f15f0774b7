import math

import numpy as np
import pytest

from subwave.errors import ResourceLimitError, ValidationError
from subwave.processes import (
    ProcessModel,
    SamplePath,
    dump_paths,
    make_gauss_bump,
    make_ou,
    make_separable,
    minkowski_gap,
    parse_model_spec,
    simulate_paths,
    simulation_grid,
    validate_model,
)


class TestOU:
    def test_covariance_values(self, ou1):
        assert ou1.covariance(0.0, 0.0) == 1.0
        assert ou1.covariance(0.0, 1.0) == pytest.approx(math.exp(-1.0))

    def test_spectral_density_at_zero(self, ou1):
        assert ou1.spectral_density(0.0) == pytest.approx(2.0)

    @pytest.mark.parametrize("z", [0.0, 1.0, 5.0])
    def test_spectral_density_matches_numeric_transform(self, ou1, z):
        t = np.linspace(-40.0, 40.0, 160001)
        vals = np.exp(-np.abs(t)) * np.cos(z * t)
        numeric = np.trapezoid(vals, t)
        assert abs(numeric - ou1.spectral_density(z)) < 1e-3

    def test_unit_tau(self):
        m = make_ou(2.0)
        t = np.linspace(-3, 3, 7)
        assert np.allclose(m.tau_phi(t), 1.0)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValidationError):
            make_ou(0.0)
        with pytest.raises(ValidationError):
            make_ou(-1.0)


class TestSeparable:
    def test_covariance_value(self, gauss_bump):
        assert gauss_bump.covariance(1.0, 1.0) == pytest.approx(math.exp(-1.0))

    def test_double_transform_origin(self, gauss_bump):
        assert gauss_bump.double_transform(0.0, 0.0) == pytest.approx(2.0 * math.pi)

    def test_g_hat_matches_numeric_transform(self, gauss_bump):
        t = np.linspace(-20.0, 20.0, 40001)
        numeric = np.trapezoid(np.exp(-0.5 * t * t), t)
        assert numeric == pytest.approx(math.sqrt(2.0 * math.pi), abs=1e-9)

    def test_rank_one_covariance(self, gauss_bump):
        t = np.linspace(-2, 2, 9)
        K = gauss_bump.covariance(t[:, None], t[None, :])
        w = np.linalg.eigvalsh(K)
        assert w[-1] > 0.1
        assert np.all(np.abs(w[:-1]) < 1e-10)


class TestModelValidation:
    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(ValidationError):
            ProcessModel(
                covariance=lambda t, s: np.asarray(t) - np.asarray(s),
                stationary=False,
                det_constant=1.0,
                tau_phi=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
                gaussian=False,
            )

    def test_gaussian_tau_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            ProcessModel(
                covariance=lambda t, s: np.exp(-np.abs(np.asarray(t) - np.asarray(s))),
                stationary=True,
                det_constant=1.0,
                tau_phi=lambda t: 2.0 * np.ones_like(np.asarray(t, dtype=float)),
            )

    def test_stationary_flag_checked(self):
        with pytest.raises(ValidationError):
            ProcessModel(
                covariance=lambda t, s: np.asarray(t) * np.asarray(s),
                stationary=True,
                det_constant=1.0,
                tau_phi=lambda t: np.abs(np.asarray(t, dtype=float)),
            )

    def test_spec_strings(self):
        ou = parse_model_spec("ou:1.5")
        assert ou.spectral_density is not None and ou.separable_g is None
        bump = parse_model_spec("separable:gauss-bump")
        assert bump.separable_g is not None and bump.spectral_density is None
        for bad in ("ou:", "ou:x", "separable:other", "wiener"):
            with pytest.raises(ValidationError):
                parse_model_spec(bad)


class TestSimulation:
    def test_grid_limits(self):
        with pytest.raises(ResourceLimitError):
            simulation_grid(100.0, 0.01)
        with pytest.raises(ValidationError):
            simulation_grid(1.0, 0.3)  # 0.3 does not divide [-1, 1]

    def test_sample_path_invariants(self):
        with pytest.raises(ValidationError):
            SamplePath(grid=np.array([0.0, 1.0]), values=np.zeros(3), seed=0, path_index=0)
        with pytest.raises(ValidationError):
            SamplePath(
                grid=np.array([0.0, 1.0, 3.0]), values=np.zeros(3), seed=0, path_index=0
            )

    def test_determinism(self, ou1):
        a = simulate_paths(ou1, 2.0, 0.125, 3, seed=42)
        b = simulate_paths(ou1, 2.0, 0.125, 3, seed=42)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.values, pb.values)
        c = simulate_paths(ou1, 2.0, 0.125, 3, seed=43)
        assert not np.array_equal(a[0].values, c[0].values)

    def test_variance_at_origin(self, ou1):
        paths = simulate_paths(ou1, 2.0, 0.25, 1000, seed=1)
        grid = paths[0].grid
        i0 = int(np.argmin(np.abs(grid)))
        x0 = np.array([p.values[i0] for p in paths])
        assert abs(np.var(x0) - 1.0) < 0.15

    def test_empirical_covariance_lag_half(self, ou1):
        paths = simulate_paths(ou1, 2.0, 0.25, 2000, seed=5)
        grid = paths[0].grid
        i0 = int(np.argmin(np.abs(grid)))
        i5 = int(np.argmin(np.abs(grid - 0.5)))
        prod = np.array([p.values[i0] * p.values[i5] for p in paths])
        se = float(np.std(prod) / math.sqrt(len(prod)))
        assert abs(np.mean(prod) - math.exp(-0.5)) < 3.0 * se

    def test_separable_paths_proportional_to_g(self, gauss_bump):
        paths = simulate_paths(gauss_bump, 2.0, 0.25, 4, seed=9)
        g = np.exp(-0.5 * paths[0].grid ** 2)
        for p in paths:
            z = p.values[np.argmax(g)]  # value at t=0, where g=1
            assert np.allclose(p.values, z * g, atol=1e-10)

    def test_non_gaussian_not_simulatable(self):
        m = ProcessModel(
            covariance=lambda t, s: np.exp(-np.abs(np.asarray(t) - np.asarray(s))),
            stationary=True,
            det_constant=2.0,
            tau_phi=lambda t: 2.0 * np.ones_like(np.asarray(t, dtype=float)),
            gaussian=False,
        )
        with pytest.raises(ValidationError):
            simulate_paths(m, 1.0, 0.5, 1, seed=0)

    def test_dump_paths(self, ou1, tmp_path):
        paths = simulate_paths(ou1, 1.0, 0.5, 2, seed=3)
        written = dump_paths(paths, tmp_path)
        assert sorted(written) == [
            str(tmp_path / "path_0.csv"),
            str(tmp_path / "path_1.csv"),
        ]
        lines = (tmp_path / "path_0.csv").read_text().splitlines()
        assert lines[0] == "t,x"
        assert len(lines) == 1 + len(paths[0].grid)


class TestValidateModel:
    def test_ou_with_constant_bound(self, ou1, meyer):
        rep = validate_model(ou1, meyer, lambda t: 2.0 * np.ones_like(np.asarray(t, dtype=float)), 2.0)
        assert rep["passed"]
        assert rep["growth_condition"]["A_estimates"][2.0] == pytest.approx(1.0)

    def test_separable_passes(self, gauss_bump, db3):
        rep = validate_model(
            gauss_bump, db3, lambda t: 2.0 * np.ones_like(np.asarray(t, dtype=float)), 2.0
        )
        assert rep["passed"]

    def test_c_bound_preconditions(self, ou1, meyer):
        ones = lambda t: 0.5 * np.ones_like(np.asarray(t, dtype=float))
        with pytest.raises(ValidationError):
            validate_model(ou1, meyer, ones, 1.0)  # c(0) <= 1
        with pytest.raises(ValidationError):
            validate_model(ou1, meyer, lambda t: 2.0 + np.asarray(t, dtype=float), 1.0)  # odd
        with pytest.raises(ValidationError):
            validate_model(
                ou1, meyer, lambda t: 2.0 / (1.0 + np.abs(np.asarray(t))), 1.0
            )  # decreasing

    def test_failed_domination_reported(self, meyer):
        # tau = 1 but c_bound dips to 1.01 only at huge |t|... use growing tau
        m = make_separable(
            g=lambda t: 1.0 + np.asarray(t, dtype=float) ** 2,
            g_hat=lambda z: np.zeros_like(np.asarray(z, dtype=float)),
        )
        rep = validate_model(
            m, meyer, lambda t: 1.5 * np.ones_like(np.asarray(t, dtype=float)), 2.0
        )
        assert not rep["tau_dominated"]["passed"]
        assert not rep["passed"]


class TestMinkowski:
    def test_ou_closed_form(self, ou1):
        lhs, rhs = minkowski_gap(ou1, 1.0)
        assert lhs == pytest.approx(math.sqrt(2.0 * math.exp(-1.0)), abs=1e-4)
        assert rhs == pytest.approx(1.0, abs=1e-6)

    def test_degenerate_interval_ratio(self, ou1):
        lhs, rhs = minkowski_gap(ou1, 1e-3)
        assert lhs / rhs == pytest.approx(1.0, abs=1e-3)

    def test_saturation_for_constant_g(self):
        # g ~ 1 on [0, T]: perfectly correlated, equality up to the taper
        m = make_separable(
            g=lambda t: np.exp(-np.asarray(t, dtype=float) ** 2 / 200.0),
            g_hat=lambda z: math.sqrt(200.0 * math.pi)
            * np.exp(-50.0 * np.asarray(z, dtype=float) ** 2),
        )
        lhs, rhs = minkowski_gap(m, 1.0)
        assert lhs == pytest.approx(rhs, rel=1e-5)
        assert rhs == pytest.approx(1.0, abs=5e-3)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("T", [1.0, 5.0])
    def test_inequality_ou(self, lam, T):
        lhs, rhs = minkowski_gap(make_ou(lam), T)
        assert lhs <= rhs + 1e-9

    @pytest.mark.parametrize("T", [1.0, 5.0])
    def test_inequality_separable(self, gauss_bump, T):
        lhs, rhs = minkowski_gap(gauss_bump, T)
        assert lhs <= rhs + 1e-9
