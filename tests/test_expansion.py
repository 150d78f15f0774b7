import math

import numpy as np
import pytest
from scipy.integrate import quad

from subwave.errors import (
    DivergenceError,
    SupportCoverageError,
    ValidationError,
)
from subwave.expansion import (
    CoefficientSet,
    TruncationScheme,
    basis_matrix,
    batch_coefficients,
    batch_lp_errors,
    batch_reconstruct,
    coefficients_csv,
    compute_coefficients,
    interval_window,
    lp_error,
    parse_scheme_spec,
    reconstruct,
    second_moment_eta,
    second_moment_eta_parseval,
    second_moment_eta_spectral_bound,
    second_moment_eta_spectral_bound_ns,
    second_moment_xi_bound,
)
from subwave.processes import SamplePath, make_ou, simulate_paths, simulation_grid
from subwave.wavelets import eval_dilated


def make_path(grid, values):
    return SamplePath(grid=grid, values=values, seed=0, path_index=0)


class TestTruncationScheme:
    def test_basic_properties(self):
        s = TruncationScheme(k0_prime=2, levels=(1, 3))
        assert s.n == 2
        assert s.count() == 5 + 3 + 7
        assert len(s.indices()) == s.count()

    def test_empty_scheme(self):
        s = TruncationScheme(k0_prime=-1, levels=())
        assert s.count() == 0
        assert s.indices() == []

    def test_invariants(self):
        with pytest.raises(ValidationError):
            TruncationScheme(k0_prime=-2, levels=())
        with pytest.raises(ValidationError):
            TruncationScheme(k0_prime=1, levels=(-1,))

    def test_nesting(self):
        small = TruncationScheme(k0_prime=1, levels=(2,))
        big = TruncationScheme(k0_prime=2, levels=(3, 4))
        assert big.contains(small)
        assert not small.contains(big)

    def test_spec_string_roundtrip(self):
        s = TruncationScheme(k0_prime=4, levels=(4, 5, 7))
        assert s.spec_string() == "k0'=4;k=4,5,7"
        assert parse_scheme_spec(s.spec_string()) == s
        assert parse_scheme_spec("k0'=3;k=") == TruncationScheme(3, ())

    @pytest.mark.parametrize("bad", ["k0=3;k=1", "k0'=3", "k0'=a;k=1", "k0'=3;k=1,b"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValidationError):
            parse_scheme_spec(bad)

    def test_coefficient_set_must_match_scheme(self):
        s = TruncationScheme(k0_prime=0, levels=())
        with pytest.raises(ValidationError):
            CoefficientSet(xi={1: 0.0}, eta={}, scheme=s)
        CoefficientSet(xi={0: 1.0}, eta={}, scheme=s)


class TestCoefficients:
    def test_zero_path_gives_zero_coefficients(self, db2):
        grid = np.arange(-8.0, 8.0 + 2.0**-8, 2.0**-8)
        path = make_path(grid, np.zeros_like(grid))
        coeffs = compute_coefficients(path, db2, TruncationScheme(2, (2, 2)))
        assert np.all(coeffs.vector() == 0.0)

    def test_haar_coefficient_matches_quadrature_oracle(self, haar):
        # X = g * z with g the Gaussian bump; eta_00 = z * int g psi
        z = 1.7
        grid = np.arange(-6.0, 6.0 + 2.0**-10, 2.0**-10)
        g = np.exp(-0.5 * grid**2)
        path = make_path(grid, z * g)
        coeffs = compute_coefficients(path, haar, TruncationScheme(0, (0,)))
        gfun = lambda t: math.exp(-0.5 * t * t)
        upper, _ = quad(gfun, 0.0, 0.5, epsabs=1e-13)
        lower, _ = quad(gfun, 0.5, 1.0, epsabs=1e-13)
        # trapezoid is first order across the Haar jumps: tolerance ~ grid step
        assert coeffs.eta[(0, 0)] == pytest.approx(z * (upper - lower), abs=1e-3)

    def test_self_coefficient_is_one(self, db2):
        h = 2.0**-12
        grid = np.arange(-6.0, 9.0 + h, h)
        path = make_path(grid, eval_dilated(db2, "m", 0, 0, grid))
        coeffs = compute_coefficients(path, db2, TruncationScheme(2, (2, 2)))
        for (j, k), v in coeffs.eta.items():
            target = 1.0 if (j, k) == (0, 0) else 0.0
            assert v == pytest.approx(target, abs=1e-3)
        for v in coeffs.xi.values():
            assert abs(v) < 1e-3

    def test_support_coverage_error(self, meyer):
        grid = np.arange(-4.0, 4.0 + 0.125, 0.125)
        path = make_path(grid, np.zeros_like(grid))
        with pytest.raises(SupportCoverageError) as err:
            compute_coefficients(path, meyer, TruncationScheme(1, (1,)))
        assert err.value.level in ("f", "m")

    def test_csv_dump(self, haar):
        grid = np.arange(-4.0, 4.0 + 2.0**-6, 2.0**-6)
        path = make_path(grid, np.zeros_like(grid))
        coeffs = compute_coefficients(path, haar, TruncationScheme(0, (1,)))
        text = coefficients_csv(coeffs)
        lines = text.splitlines()
        assert lines[0] == "level,j,k,value"
        assert lines[1] == "phi,0,0,0.0"
        assert len(lines) == 1 + coeffs.scheme.count()
        assert lines[2].startswith("psi,0,-1,")


class TestReconstruct:
    def test_zero_coefficients(self, db2):
        s = TruncationScheme(1, (1,))
        coeffs = CoefficientSet(
            xi={k: 0.0 for k in (-1, 0, 1)},
            eta={(0, k): 0.0 for k in (-1, 0, 1)},
            scheme=s,
        )
        t = np.linspace(-2, 2, 33)
        assert np.all(reconstruct(coeffs, db2, t) == 0.0)

    def test_single_scaling_term_reproduces_basis(self, db2):
        s = TruncationScheme(0, ())
        coeffs = CoefficientSet(xi={0: 1.0}, eta={}, scheme=s)
        t = np.linspace(-1, 4, 101)
        assert np.allclose(reconstruct(coeffs, db2, t), db2.f_wavelet(t))

    @staticmethod
    def _bump_path(h, L, z):
        grid = np.arange(-L, L + h / 2, h)
        return make_path(grid, z * np.exp(-0.5 * grid**2))

    def test_roundtrip_error_matches_parseval_tail(self, db3):
        h = 2.0**-9
        path = self._bump_path(h, 9.0, z=1.3)
        scheme = TruncationScheme(4, (4, 8, 16))
        coeffs = compute_coefficients(path, db3, scheme)
        recon = reconstruct(coeffs, db3, path.grid)
        err_sq = np.sum((path.values - recon) ** 2) * h
        tail = np.sum(path.values**2) * h - np.sum(coeffs.vector() ** 2)
        assert err_sq == pytest.approx(tail, abs=1e-6)

    def test_nested_schemes_reduce_l2_error(self, db3):
        h = 2.0**-9
        path = self._bump_path(h, 9.0, z=-0.8)
        errs = []
        for scheme in (
            TruncationScheme(2, ()),
            TruncationScheme(2, (4,)),
            TruncationScheme(4, (4, 8)),
            TruncationScheme(4, (4, 8, 16)),
        ):
            coeffs = compute_coefficients(path, db3, scheme)
            recon = reconstruct(coeffs, db3, path.grid)
            errs.append(np.sum((path.values - recon) ** 2) * h)
        assert all(b <= a + 1e-6 for a, b in zip(errs[:-1], errs[1:]))


class TestLpError:
    def _path(self):
        grid = np.arange(-1.0, 2.0 + 2.0**-8, 2.0**-8)
        return make_path(grid, np.zeros_like(grid))

    def test_zero_difference(self):
        p = self._path()
        assert lp_error(p, p.values, 2.0, 1.0) == 0.0

    def test_unit_difference(self):
        p = self._path()
        assert lp_error(p, p.values + 1.0, 2.0, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_linear_difference(self):
        p = self._path()
        recon = p.values + p.grid
        assert lp_error(p, recon, 2.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-5)

    def test_rejects_small_p(self):
        with pytest.raises(ValidationError):
            lp_error(self._path(), self._path().values, 0.5, 1.0)

    def test_rejects_uncovered_interval(self):
        with pytest.raises(ValidationError):
            lp_error(self._path(), self._path().values, 2.0, 5.0)

    def test_rejects_zero_off_the_grid(self):
        # nodes at -1.3 + 0.2 i: 0 falls between -0.1 and 0.1, so a window
        # of nodes would drop the piece [0, 0.1] (and [0.9, 1]) of [0, 1]
        grid = simulation_grid(1.3, 0.2)
        p = make_path(grid, np.zeros_like(grid))
        with pytest.raises(ValidationError, match="must be nodes"):
            lp_error(p, p.values + 1.0, 2.0, 1.0)

    def test_rejects_window_without_nodes(self):
        # nodes -0.75, -0.25, 0.25, 0.75: only 0.25 lies in [0, 0.5]
        grid = simulation_grid(0.75, 0.5)
        p = make_path(grid, np.zeros_like(grid))
        with pytest.raises(ValidationError, match="must be nodes"):
            lp_error(p, p.values + 1.0, 2.0, 0.5)

    def test_rejects_nonpositive_T(self):
        with pytest.raises(ValidationError):
            lp_error(self._path(), self._path().values, 2.0, 0.0)

    def test_nodes_off_by_rounding_are_kept(self):
        # -1.3 + 13 * 0.1 and -1.3 + 23 * 0.1 miss 0 and 1 by rounding only
        grid = simulation_grid(1.3, 0.1)
        p = make_path(grid, np.zeros_like(grid))
        window, w = interval_window(grid, 1.0)
        assert (window.start, window.stop) == (13, 24)
        assert np.sum(w) == pytest.approx(1.0, rel=1e-12)
        assert lp_error(p, p.values + 1.0, 2.0, 1.0) == pytest.approx(1.0, rel=1e-12)


class TestBatchOfOne:
    """The single-path functions run the batched pipeline on one column."""

    def test_columns_match_single_paths(self, db3):
        paths = simulate_paths(make_ou(1.0), 8.0, 2.0**-5, 4, 5)
        grid = paths[0].grid
        X = np.column_stack([p.values for p in paths])
        scheme = TruncationScheme(2, (2, 3))
        C = batch_coefficients(db3, scheme, grid, X)
        R = batch_reconstruct(db3, scheme, C, grid)
        E = batch_lp_errors(db3, scheme, grid, X, 2.0, 1.0)
        for i, path in enumerate(paths):
            coeffs = compute_coefficients(path, db3, scheme)
            recon = reconstruct(coeffs, db3, grid)
            assert np.allclose(coeffs.vector(), C[:, i], rtol=1e-12, atol=1e-15)
            assert np.allclose(recon, R[:, i], rtol=1e-12, atol=1e-15)
            assert lp_error(path, recon, 2.0, 1.0) == pytest.approx(E[i], rel=1e-12)

    def test_reconstruct_at_a_point(self, db3):
        path = simulate_paths(make_ou(1.0), 8.0, 2.0**-5, 1, 5)[0]
        coeffs = compute_coefficients(path, db3, TruncationScheme(2, (2, 3)))
        at = reconstruct(coeffs, db3, 0.3)
        assert np.shape(at) == ()
        assert float(at) == pytest.approx(reconstruct(coeffs, db3, [0.3, 0.5])[0], rel=1e-12)

    def test_empty_scheme_reconstructs_zero(self, db3):
        path = simulate_paths(make_ou(1.0), 8.0, 2.0**-5, 1, 5)[0]
        coeffs = compute_coefficients(path, db3, TruncationScheme(-1, ()))
        assert coeffs.vector().shape == (0,)
        assert np.all(reconstruct(coeffs, db3, path.grid) == 0.0)


class TestSecondMoments:
    def test_separable_rank_one_oracle(self, gauss_bump, meyer):
        h = 2.0**-8
        t = np.arange(-52.0, 53.0, h)
        g = np.exp(-0.5 * t * t)
        for j, k in ((0, 0), (1, 2), (2, -3)):
            oracle = (np.sum(g * eval_dilated(meyer, "m", j, k, t)) * h) ** 2
            val = second_moment_eta(gauss_bump, meyer, j, k)
            assert val == pytest.approx(oracle, rel=1e-4, abs=1e-12)

    def test_ou_haar_frequency_cross_check(self, ou1, haar):
        td = second_moment_eta(ou1, haar, 0, 0)
        fd = second_moment_eta_parseval(ou1, haar, 0)
        assert abs(td / fd - 1.0) < 0.02

    @pytest.mark.parametrize("family", ["haar", "meyer", "daubechies:3"])
    def test_frequency_side_dominates(self, ou1, family):
        from subwave.wavelets import make_basis

        b = make_basis(family)
        for j in range(6):
            td = second_moment_eta(ou1, b, j, 0)
            fd = second_moment_eta_parseval(ou1, b, j)
            assert td <= fd * 1.02

    def test_nonnegative(self, ou1, gauss_bump, meyer, db3):
        for model in (ou1, gauss_bump):
            for basis in (meyer, db3):
                for j, k in ((0, 0), (2, 5), (4, -3)):
                    assert second_moment_eta(model, basis, j, k) >= 0.0

    def test_rejects_negative_level(self, ou1, haar):
        with pytest.raises(ValidationError):
            second_moment_eta(ou1, haar, -1, 0)


class TestSpectralBounds:
    def test_level_scaling_exact(self, ou1, meyer):
        a = 0.5
        b0 = second_moment_eta_spectral_bound(ou1, meyer, 0, a)
        for j in range(1, 6):
            bj = second_moment_eta_spectral_bound(ou1, meyer, j, a)
            assert bj / b0 == pytest.approx(2.0 ** (-j * (1 + a)), rel=1e-12)

    def test_level_scaling_exact_ns(self, gauss_bump, meyer):
        a = 1.0
        b0 = second_moment_eta_spectral_bound_ns(gauss_bump, meyer, 0, a)
        for j in range(1, 5):
            bj = second_moment_eta_spectral_bound_ns(gauss_bump, meyer, j, a)
            assert bj / b0 == pytest.approx(2.0 ** (-j * (1 + 2 * a)), rel=1e-12)

    @pytest.mark.parametrize("family", ["meyer", "daubechies:3"])
    def test_dominates_quadrature_moments(self, ou1, family):
        from subwave.wavelets import make_basis

        b = make_basis(family)
        for j in range(6):
            bound = second_moment_eta_spectral_bound(ou1, b, j, 0.5)
            for k in range(-10, 11):
                assert second_moment_eta(ou1, b, j, k) <= bound + 1e-9

    def test_ns_dominates_exact_moments(self, gauss_bump, meyer):
        for j in range(5):
            bound = second_moment_eta_spectral_bound_ns(gauss_bump, meyer, j, 1.0)
            for k in range(-10, 11):
                assert second_moment_eta(gauss_bump, meyer, j, k) <= bound + 1e-9

    def test_separable_weight_integral_value(self, gauss_bump, meyer):
        # int |g_hat(z)| |z| dz = 2 sqrt(2 pi) for the Gaussian bump
        got = second_moment_eta_spectral_bound_ns(gauss_bump, meyer, 0, 1.0)
        from subwave.expansion import _lipschitz_constant

        C = _lipschitz_constant(meyer, 1.0)
        expect = C * C * (2.0 * math.sqrt(2.0 * math.pi)) ** 2 / (2.0 * math.pi) ** 2
        assert got == pytest.approx(expect, rel=1e-9)

    def test_requires_matching_model_kind(self, ou1, gauss_bump, meyer):
        with pytest.raises(ValidationError):
            second_moment_eta_spectral_bound(gauss_bump, meyer, 0, 0.5)
        with pytest.raises(ValidationError):
            second_moment_eta_spectral_bound_ns(ou1, meyer, 0, 0.5)

    def test_divergent_weight_detected(self, ou1, meyer):
        # OU spectrum decays like z^-2, so the weight integral needs a < 1
        with pytest.raises(DivergenceError):
            second_moment_eta_spectral_bound(ou1, meyer, 0, 1.2)


class TestXiBound:
    def test_ou_haar_equals_closed_form_moment(self, ou1, haar):
        # for |phi_hat|^2 of the unit box against the OU spectrum the bound
        # equals E|xi_00|^2 = 2(T - 1 + e^-T) at T=1
        val = second_moment_xi_bound(ou1, haar)
        assert val == pytest.approx(2.0 * math.exp(-1.0), rel=1e-10)

    def test_scaling_in_spectrum(self, ou1, haar):
        import dataclasses

        doubled = dataclasses.replace(
            ou1,
            covariance=lambda t, s: 2.0
            * np.exp(-np.abs(np.asarray(t) - np.asarray(s))),
            spectral_density=lambda z: 4.0 / (1.0 + np.asarray(z, dtype=float) ** 2),
            tau_phi=lambda t: math.sqrt(2.0)
            * np.ones_like(np.asarray(t, dtype=float)),
        )
        assert second_moment_xi_bound(doubled, haar) == pytest.approx(
            2.0 * second_moment_xi_bound(ou1, haar), rel=1e-12
        )

    def test_bounded_by_total_spectrum_mass(self, ou1, haar, meyer):
        # |phi_hat| <= 1 makes the bound at most (1/2pi) int |R_hat| = R(0)
        for b in (haar, meyer):
            assert second_moment_xi_bound(ou1, b) <= 1.0 + 1e-9

    def test_separable_route(self, gauss_bump, meyer):
        val = second_moment_xi_bound(gauss_bump, meyer)
        # dominates the exact E|xi_0k|^2 = (int g phi_0k)^2
        h = 2.0**-8
        t = np.arange(-52.0, 53.0, h)
        g = np.exp(-0.5 * t * t)
        for k in (-2, 0, 3):
            exact = (np.sum(g * eval_dilated(meyer, "f", 0, k, t)) * h) ** 2
            assert exact <= val + 1e-9

    def test_requires_spectral_data(self, haar):
        from subwave.processes import ProcessModel

        plain = ProcessModel(
            covariance=lambda t, s: np.exp(-np.abs(np.asarray(t) - np.asarray(s))),
            stationary=False,
            det_constant=1.0,
            tau_phi=lambda t: np.ones_like(np.asarray(t, dtype=float)),
        )
        with pytest.raises(ValidationError):
            second_moment_xi_bound(plain, haar)
