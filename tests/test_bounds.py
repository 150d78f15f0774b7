import math

import numpy as np
import pytest

from subwave.errors import (
    InfeasiblePlanError,
    ResourceLimitError,
    ValidationError,
)
from subwave.expansion import (
    TruncationScheme,
    parse_scheme_spec,
    second_moment_eta,
    second_moment_eta_parseval,
    second_moment_eta_spectral_bound,
)
from subwave.orlicz import make_gaussian, make_power_family
from subwave.bounds import (
    _level_series,
    c_n_infty_integral,
    c_n_infty_uniform,
    epsilon_threshold,
    level_cutoff,
    plan_truncation,
    pointwise_ms_error,
    series_condition_check,
    tail_probability_bound,
)

# recorded from the uniform route with direct lattice sums and exact Parseval
# level moments; the pipeline is deterministic
UNIFORM_REGRESSION_VALUE = 0.9170547794153667


class TestEpsilonThreshold:
    def test_gaussian_closed_form(self):
        assert epsilon_threshold(make_gaussian(), 1.0, 2.0) == 2.0

    def test_power_closed_form(self):
        val = epsilon_threshold(make_power_family(1.5), 1.0, 2.0)
        assert val == pytest.approx(2.0 ** (2.0 / 3.0), rel=1e-14)

    @pytest.mark.parametrize("c", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
    @pytest.mark.parametrize("alpha", [None, 1.2, 1.5, 2.0])
    def test_numeric_matches_closed(self, c, p, alpha):
        nf = make_gaussian() if alpha is None else make_power_family(alpha)
        closed = epsilon_threshold(nf, c, p)
        numeric = epsilon_threshold(nf, c, p, method="numeric")
        assert abs(numeric - closed) <= 1e-9 * closed

    def test_preconditions(self):
        with pytest.raises(ValidationError):
            epsilon_threshold(make_gaussian(), 0.0, 2.0)
        with pytest.raises(ValidationError):
            epsilon_threshold(make_gaussian(), 1.0, 0.5)

    def test_custom_family_uses_solver(self):
        from subwave.orlicz import make_custom

        nf = make_custom(phi=lambda x: 0.5 * x * x)
        # same phi as the gaussian family, so the same crossing
        assert epsilon_threshold(nf, 1.0, 2.0) == pytest.approx(2.0, rel=1e-6)


class TestTailProbabilityBound:
    def test_gaussian_example(self):
        rep = tail_probability_bound(make_gaussian(), 1.0, 2.0, 4.0)
        assert rep.bound == pytest.approx(2.0 * math.exp(-2.0), rel=1e-12)
        assert rep.valid
        assert rep.threshold == 2.0

    def test_below_threshold_invalid(self):
        rep = tail_probability_bound(make_gaussian(), 1.0, 2.0, 1.0)
        assert not rep.valid
        assert 0.0 < rep.bound <= 2.0

    def test_power_example(self):
        rep = tail_probability_bound(make_power_family(1.5), 1.0, 2.0, 8.0)
        assert rep.bound == pytest.approx(
            2.0 * math.exp(-math.sqrt(8.0) ** 3 / 3.0), rel=1e-12
        )

    def test_strictly_decreasing_in_epsilon(self):
        nf = make_power_family(1.3)
        reps = [tail_probability_bound(nf, 1.0, 2.0, e) for e in (3.0, 4.0, 6.0, 9.0)]
        assert all(r.valid for r in reps)
        vals = [r.bound for r in reps]
        assert all(b < a for a, b in zip(vals[:-1], vals[1:]))

    @pytest.mark.parametrize("lam", [0.5, 3.0])
    def test_scale_invariance(self, lam):
        nf = make_gaussian()
        a = tail_probability_bound(nf, 1.0, 2.0, 4.0)
        b = tail_probability_bound(nf, lam * 1.0, 2.0, lam * 4.0)
        assert b.bound == pytest.approx(a.bound, rel=1e-12)
        assert a.valid == b.valid

    def test_json_shape(self):
        rep = tail_probability_bound(make_gaussian(), 1.0, 2.0, 4.0)
        d = rep.to_json_dict()
        assert set(d) == {"c", "epsilon", "threshold", "bound", "valid", "route"}
        assert d["valid"] is True


class TestPointwiseMsError:
    def test_empty_scheme_gives_variance(self, ou1, meyer):
        empty = TruncationScheme(k0_prime=-1, levels=())
        assert pointwise_ms_error(ou1, meyer, empty, 0.3) == pytest.approx(1.0)

    def test_separable_near_complete(self, gauss_bump, meyer):
        scheme = TruncationScheme(6, (6, 10))
        assert pointwise_ms_error(gauss_bump, meyer, scheme, 0.0) <= 1e-5

    def test_nested_monotonicity(self, gauss_bump, meyer):
        schemes = [
            TruncationScheme(2, (2,)),
            TruncationScheme(3, (3, 4)),
            TruncationScheme(4, (4, 6)),
        ]
        for t in (0.0, 0.25, 0.7, 1.0):
            vals = [pointwise_ms_error(gauss_bump, meyer, s, t) for s in schemes]
            assert all(b <= a + 1e-8 for a, b in zip(vals[:-1], vals[1:]))

    def test_scheme_size_limit(self, ou1, meyer):
        with pytest.raises(ResourceLimitError):
            pointwise_ms_error(ou1, meyer, TruncationScheme(40, (80,)), 0.0)


class TestCnInftyIntegral:
    def test_empty_scheme_ou(self, ou1, meyer):
        empty = TruncationScheme(k0_prime=-1, levels=())
        val = c_n_infty_integral(ou1, meyer, empty, 2.0, 1.0)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_nested_nonincreasing(self, ou1, meyer):
        schemes = [
            TruncationScheme(2, (2,)),
            TruncationScheme(3, (3, 4)),
            TruncationScheme(4, (4, 5, 7)),
        ]
        vals = [c_n_infty_integral(ou1, meyer, s, 2.0, 1.0) for s in schemes]
        assert all(b < a for a, b in zip(vals[:-1], vals[1:]))

    def test_separable_near_complete(self, gauss_bump, meyer):
        val = c_n_infty_integral(gauss_bump, meyer, TruncationScheme(6, (6, 10)), 2.0, 1.0)
        assert val <= 1e-4

    def test_rejects_bad_p(self, ou1, meyer):
        with pytest.raises(ValidationError):
            c_n_infty_integral(ou1, meyer, TruncationScheme(2, (2,)), 0.5, 1.0)


class TestCnInftyUniform:
    def test_level_cutoff_definition(self):
        # all k_j >= 2^j T + 1: empty inner min, J = n
        assert level_cutoff(TruncationScheme(4, (2, 3, 5, 9)), 1.0) == 4
        # first violation at j = 2 (k_2 = 4 < 5)
        assert level_cutoff(TruncationScheme(4, (2, 3, 4, 9)), 1.0) == 2
        assert level_cutoff(TruncationScheme(4, (1,)), 1.0) == 0

    def test_regression_locked_value(self, ou1, meyer):
        scheme = TruncationScheme(k0_prime=4, levels=(3, 4, 6, 10))
        a = c_n_infty_uniform(ou1, meyer, scheme, 2.0, 1.0, 0.5)
        b = c_n_infty_uniform(ou1, meyer, scheme, 2.0, 1.0, 0.5)
        assert a == b  # deterministic pipeline
        assert a == pytest.approx(UNIFORM_REGRESSION_VALUE, rel=1e-12)

    def test_tail_closure_negligible(self, ou1, meyer):
        # the closed-form remainder past the explicit levels
        series = _level_series(ou1, meyer, 0.5)
        c = c_n_infty_uniform(ou1, meyer, TruncationScheme(4, (3, 4, 6, 10)), 2.0, 1.0, 0.5)
        closure = series.suffix[-1]
        assert 0.0 < closure < 1e-12 * c
        assert closure < 1e-12 * series.suffix[0]

    def test_refinement_strictly_decreasing(self, ou1, meyer):
        vals = []
        for n, m in ((2, 2), (4, 4), (6, 8)):
            scheme = TruncationScheme(
                k0_prime=2 + m, levels=tuple(math.ceil(2.0**j) + 1 + m for j in range(n))
            )
            vals.append(c_n_infty_uniform(ou1, meyer, scheme, 2.0, 1.0, 0.5))
        assert vals[0] > vals[1] > vals[2] > 0.0

    def test_separable_route(self, gauss_bump, meyer):
        scheme = TruncationScheme(3, (3, 4))
        val = c_n_infty_uniform(gauss_bump, meyer, scheme, 2.0, 1.0, 1.0)
        assert np.isfinite(val) and val > 0

    def test_k0_hypothesis_enforced(self, ou1, meyer):
        with pytest.raises(ValidationError):
            c_n_infty_uniform(ou1, meyer, TruncationScheme(1, (3, 4)), 2.0, 1.0, 0.5)


class TestUniformMoments:
    """The level moments and the constant of the uniform route are sound."""

    def test_meyer_ou_uses_parseval_below_spectral_bound(self, ou1, meyer):
        series = _level_series(ou1, meyer, 0.5)
        for j in range(25):
            used = (series.terms[j] / 2.0 ** (j / 2.0)) ** 2
            assert used == pytest.approx(second_moment_eta_parseval(ou1, meyer, j), rel=1e-12)
            assert used <= second_moment_eta_spectral_bound(ou1, meyer, j, 0.5)

    def test_meyer_ou_moment_matches_tensor_quadrature(self, ou1, meyer):
        # tensor Simpson across the kink of exp(-|u-v|) overshoots by ~0.2%
        series = _level_series(ou1, meyer, 0.5)
        for j in range(6):
            used = (series.terms[j] / 2.0 ** (j / 2.0)) ** 2
            assert abs(second_moment_eta(ou1, meyer, j, 0) / used - 1.0) < 0.005

    @pytest.mark.parametrize("family", ["haar", "daubechies:3"])
    def test_truncated_window_bases_keep_spectral_bound(self, ou1, family):
        from subwave.wavelets import make_basis

        b = make_basis(family)
        series = _level_series(ou1, b, 0.5)
        for j in range(6):
            bound = second_moment_eta_spectral_bound(ou1, b, j, 0.5)
            assert series.terms[j] == pytest.approx(math.sqrt(bound) * 2.0 ** (j / 2.0), rel=1e-12)

    @pytest.mark.parametrize("spec", ["k0'=2;k=2,3", "k0'=3;k=3,4,5"])
    def test_uniform_dominates_integral(self, ou1, meyer, spec):
        # Minkowski: the sup-based constant bounds the exact integral one
        scheme = parse_scheme_spec(spec)
        uniform = c_n_infty_uniform(ou1, meyer, scheme, 2.0, 1.0, 0.5)
        assert uniform >= c_n_infty_integral(ou1, meyer, scheme, 2.0, 1.0)


class TestSeriesCondition:
    def test_ou_ratio(self, ou1, meyer):
        rep = series_condition_check(ou1, meyer, 0.5, 8)
        assert rep["verdict"] == "convergent"
        assert rep["limit_ratio"] == pytest.approx(2.0 ** -0.25, rel=1e-12)
        for r in rep["ratios"]:
            assert r == pytest.approx(2.0 ** -0.25, rel=1e-9)

    def test_separable_ratio(self, gauss_bump, meyer):
        rep = series_condition_check(gauss_bump, meyer, 1.0, 6)
        assert rep["verdict"] == "convergent"
        assert rep["limit_ratio"] == pytest.approx(0.5, rel=1e-12)
        for r in rep["ratios"]:
            assert r == pytest.approx(0.5, rel=1e-9)

    def test_partial_sum_and_tail_finite(self, ou1, meyer):
        rep = series_condition_check(ou1, meyer, 0.5, 5)
        assert np.isfinite(rep["partial_sum"]) and np.isfinite(rep["geometric_tail"])


class TestPlanner:
    def test_large_epsilon_returns_lattice_origin(self, ou1, meyer):
        nf = make_gaussian()
        origin = TruncationScheme(2, (2,))
        c0 = c_n_infty_uniform(ou1, meyer, origin, 2.0, 1.0, 0.5)
        scheme, rep = plan_truncation(
            ou1, meyer, nf, 2.0, 1.0, epsilon=3.0 * c0, delta=0.99, alpha=0.5
        )
        assert scheme == origin
        assert rep.valid and rep.bound <= 0.99
        assert rep.route == "uniform"

    def test_returned_bound_reproduces(self, ou1, meyer):
        nf = make_gaussian()
        c0 = c_n_infty_uniform(ou1, meyer, TruncationScheme(2, (2,)), 2.0, 1.0, 0.5)
        scheme, rep = plan_truncation(
            ou1, meyer, nf, 2.0, 1.0, epsilon=3.0 * c0, delta=0.9, alpha=0.5
        )
        c_again = c_n_infty_uniform(ou1, meyer, scheme, 2.0, 1.0, 0.5)
        rep_again = tail_probability_bound(nf, c_again, 2.0, 3.0 * c0)
        assert rep_again.bound == pytest.approx(rep.bound, rel=1e-12)
        assert rep_again.bound <= 0.9

    def test_exhaustion_carries_diagnostics(self, ou1, meyer):
        nf = make_gaussian()
        with pytest.raises(InfeasiblePlanError) as err:
            plan_truncation(
                ou1, meyer, nf, 2.0, 1.0, epsilon=0.5, delta=0.1, alpha=0.5,
                n_max=3, m_max=4,
            )
        assert err.value.best_bound is not None
        assert err.value.best_scheme is not None
        assert err.value.best_bound.bound > 0.1

    def test_exhaustion_without_valid_scheme(self, ou1, meyer):
        # epsilon below the threshold on every scheme: the report must not
        # call its bound a valid-region bound
        nf = make_gaussian()
        with pytest.raises(InfeasiblePlanError) as err:
            plan_truncation(
                ou1, meyer, nf, 2.0, 1.0, epsilon=1e-3, delta=0.1, alpha=0.5,
                n_max=2, m_max=2,
            )
        best = err.value.best_bound
        assert best is not None and err.value.best_scheme is not None
        assert best.valid is False
        assert "valid-region" not in str(err.value)
        assert "below the validity threshold" in str(err.value)
        lattice = [
            TruncationScheme(2 + m, tuple(math.ceil(2.0**j) + 1 + m for j in range(n)))
            for n in (1, 2)
            for m in (0, 1, 2)
        ]
        bounds = [
            tail_probability_bound(
                nf, c_n_infty_uniform(ou1, meyer, s, 2.0, 1.0, 0.5), 2.0, 1e-3
            ).bound
            for s in lattice
        ]
        assert best.bound == min(bounds)

    def test_exhaustion_reports_best_valid_bound(self, ou1, meyer):
        with pytest.raises(InfeasiblePlanError) as err:
            plan_truncation(
                ou1, meyer, make_gaussian(), 2.0, 1.0, epsilon=20.0, delta=1e-3,
                alpha=0.5, n_max=2, m_max=2,
            )
        assert err.value.best_bound.valid is True
        assert err.value.best_bound.bound > 1e-3
        assert "best valid-region bound" in str(err.value)

    def test_parameter_validation(self, ou1, meyer):
        nf = make_gaussian()
        with pytest.raises(ValidationError):
            plan_truncation(ou1, meyer, nf, 2.0, 1.0, 0.5, delta=1.5, alpha=0.5)
        with pytest.raises(ValidationError):
            plan_truncation(ou1, meyer, nf, 2.0, 1.0, -1.0, delta=0.1, alpha=0.5)
