import dataclasses
import itertools
import math

import numpy as np
import pytest

from subwave.errors import (
    DivergenceError,
    InfeasiblePlanError,
    ResourceLimitError,
    ValidationError,
)
from subwave.expansion import (
    TruncationScheme,
    coefficient_moments,
    parse_scheme_spec,
    second_moment_eta,
    second_moment_eta_parseval,
    second_moment_eta_spectral_bound,
)
from subwave.orlicz import make_gaussian, make_power_family
from subwave.processes import parse_model_spec
from subwave.wavelets import make_basis
from subwave.bounds import (
    _lattice_scheme,
    _level_series,
    _numeric_threshold,
    c_n_infty_integral,
    c_n_infty_uniform,
    epsilon_threshold,
    level_cutoff,
    plan_truncation,
    pointwise_ms_error,
    series_condition_check,
    tail_probability_bound,
)

# recorded from the uniform route with direct lattice sums over the omitted
# shifts |k| >= k_j + 1 and exact Parseval level moments, on the Meyer tables
# from one inverse FFT; the pipeline is deterministic
UNIFORM_REGRESSION_VALUE = 0.6578180248765952


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
        numeric = _numeric_threshold(nf, c, p)
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

    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
    def test_root_below_one(self, p):
        # f(x) = x/10 puts the root of u = f(p/u) at u* = sqrt(p/10) < 1,
        # so the solver brackets it downward from u = 1
        from subwave.orlicz import make_custom

        nf = make_custom(phi=lambda x: x * x / 20.0, density=lambda x: x / 10.0)
        for c in (0.5, 3.0):
            assert epsilon_threshold(nf, c, p) == pytest.approx(c * (p / 10.0) ** (p / 2.0), rel=1e-14)

    def test_cosh_threshold_is_linear_in_c(self):
        # phi = cosh x - 1 is quadratic at 0; u* solves u = sinh(p/u)
        from subwave.orlicz import make_custom

        nf = make_custom(phi=lambda x: math.cosh(x) - 1.0, density=math.sinh)
        tau = epsilon_threshold(nf, 1.0, 2.0)
        assert tau == pytest.approx(2.5624826012956627, rel=1e-12)
        u = math.sqrt(tau)
        assert u == pytest.approx(math.sinh(2.0 / u), rel=1e-12)
        for p in (1.0, 2.0, 4.0):
            ref = epsilon_threshold(nf, 1.0, p)
            for c in (1e-14, 1e8):
                assert epsilon_threshold(nf, c, p) / c == pytest.approx(ref, rel=1e-12)
        rep = tail_probability_bound(nf, 1.0, 2.0, 10.0)
        assert rep.valid and 0.0 < rep.bound < 2.0

    def test_closed_form_past_float_range(self):
        nf = make_gaussian()
        assert epsilon_threshold(nf, 1.0, 1000.0) == math.inf
        # p^(p/2) = 300^150 overflows alone, c p^(p/2) does not
        val = epsilon_threshold(nf, 1e-300, 300.0)
        assert val == pytest.approx(math.exp(math.log(1e-300) + 150.0 * math.log(300.0)), rel=1e-12)

    def test_overflowing_density_counts_as_above_u(self):
        # f(x) = 2x exp(x^2) overflows at the bracket start u = 1 (f(30))
        from subwave.orlicz import make_custom

        nf = make_custom(
            phi=lambda x: math.exp(x * x) - 1.0, density=lambda x: 2.0 * x * math.exp(x * x)
        )
        tau = epsilon_threshold(nf, 1.0, 30.0)
        assert math.isfinite(tau)
        u = tau ** (1.0 / 30.0)
        assert u == pytest.approx(2.0 * (30.0 / u) * math.exp((30.0 / u) ** 2), rel=1e-9)

    def test_cosh_threshold_past_float_range(self):
        # u* = 141.7 at p = 800, so c u*^p = 10^1721 overflows
        from subwave.orlicz import make_custom

        nf = make_custom(phi=lambda x: math.cosh(x) - 1.0, density=math.sinh)
        assert epsilon_threshold(nf, 1.0, 800.0) == math.inf


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

    def test_infinite_threshold_invalid(self):
        rep = tail_probability_bound(make_gaussian(), 1.0, 1000.0, 5.0)
        assert rep.threshold == math.inf
        assert not rep.valid
        assert 0.0 < rep.bound <= 2.0

    @pytest.mark.parametrize("nf", [make_gaussian(), make_power_family(1.5)])
    def test_conjugate_past_float_range_gives_zero(self, nf):
        # phi*(1e300) = 1e600 / 2 (or 1e900 / 3) overflows: 2 exp(-inf) = 0
        rep = tail_probability_bound(nf, 1.0, 1.0, 1e300)
        assert rep.bound == 0.0 and rep.valid

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

    @pytest.mark.parametrize("c, p, eps", [(0.0, 2.0, 4.0), (1.0, 0.5, 4.0), (1.0, 2.0, 0.0)])
    def test_preconditions(self, c, p, eps):
        with pytest.raises(ValidationError):
            tail_probability_bound(make_gaussian(), c, p, eps)

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

    @pytest.mark.parametrize(
        "spec, reference",
        [("k0'=2;k=2,3", 0.0571874), ("k0'=3;k=3,4,5", 0.0273431), ("k0'=4;k=4,5,7,11", 0.0132650)],
    )
    def test_ou_meyer_matches_fine_grid_reference(self, ou1, meyer, spec, reference):
        # reference values from `python3 bench/reference.py` (the last, the
        # lattice scheme n=4, m=2, from its `rate_constant`): the exponential
        # kernel convolved on [-60, 60] at step 2^-9, independent of the
        # program's moment quadrature; its own O(step^2) error is most of
        # the remaining gap
        val = c_n_infty_integral(ou1, meyer, parse_scheme_spec(spec), 2.0, 1.0)
        assert val == pytest.approx(reference, rel=1e-3)

    def test_separable_near_complete(self, gauss_bump, meyer):
        val = c_n_infty_integral(gauss_bump, meyer, TruncationScheme(6, (6, 10)), 2.0, 1.0)
        assert val <= 1e-4

    def test_rejects_bad_p(self, ou1, meyer):
        with pytest.raises(ValidationError):
            c_n_infty_integral(ou1, meyer, TruncationScheme(2, (2,)), 0.5, 1.0)

    @pytest.mark.parametrize("T", [0.0, -1.0])
    def test_rejects_nonpositive_T(self, ou1, haar, T):
        with pytest.raises(ValidationError, match="T must be finite and > 0"):
            c_n_infty_integral(ou1, haar, parse_scheme_spec("k0'=2;k=2,3"), 2.0, T)

    def test_fresh_parses_share_moment_caches(self, haar):
        # one spec gives one model, so the moment caches hit across parses
        coefficient_moments.cache_clear()
        _level_series.cache_clear()
        scheme = parse_scheme_spec("k0'=2;k=2,3")
        vals = [
            c_n_infty_integral(parse_model_spec("ou:1"), haar, scheme, 2.0, 0.75)
            for _ in range(3)
        ]
        info = coefficient_moments.cache_info()
        assert vals[0] == vals[1] == vals[2]
        assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
        for _ in range(3):
            c_n_infty_uniform(parse_model_spec("ou:1"), haar, scheme, 2.0, 0.75, 0.7)
        info = _level_series.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 2, 1)


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

    @pytest.mark.parametrize("T", [0.0, -1.0])
    def test_rejects_nonpositive_T(self, ou1, haar, T):
        with pytest.raises(ValidationError, match="T must be finite and > 0"):
            c_n_infty_uniform(ou1, haar, parse_scheme_spec("k0'=3;k=3,4"), 2.0, T, 0.5)

    def test_preconditions(self, ou1, meyer):
        scheme = TruncationScheme(3, (3, 4))
        with pytest.raises(ValidationError, match="p must be >= 1"):
            c_n_infty_uniform(ou1, meyer, scheme, 0.5, 1.0, 0.5)
        # neither a spectral density nor a rank-one g_hat
        bare = dataclasses.replace(ou1, structure=None)
        with pytest.raises(ValidationError, match="uniform-route constants need"):
            c_n_infty_uniform(bare, meyer, scheme, 2.0, 1.0, 0.5)

    def test_ratio_near_one_diverges(self, ou1, meyer):
        # q = 2^(-1e-10) is within 1e-9 of 1: the constant and the diagnostic
        # both read the one convergence test of the level series
        with pytest.raises(DivergenceError):
            c_n_infty_uniform(ou1, meyer, TruncationScheme(2, (2,)), 2.0, 1.0, 2e-10)
        assert series_condition_check(ou1, meyer, 2e-10, 4)["verdict"] == "divergent"


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

    @pytest.mark.parametrize("basis_spec", ["haar", "daubechies:2", "daubechies:4", "meyer"])
    @pytest.mark.parametrize("model_spec", ["ou:1", "separable:gauss-bump"])
    def test_uniform_dominates_integral_on_the_planner_lattice(self, model_spec, basis_spec):
        # the sup-based constant bounds the integral one (Minkowski) on every
        # scheme the planner walks; OU on daubechies:4 takes the tensor Gram,
        # seconds per scheme beyond ~35 coefficients, so those are left out
        model, basis = parse_model_spec(model_spec), make_basis(basis_spec)
        for (n, m), T in itertools.product([(1, 0), (2, 1), (3, 2)], [1.0, 2.5]):
            scheme = _lattice_scheme(n, m, T)
            if (model_spec, basis_spec) == ("ou:1", "daubechies:4") and scheme.count() > 35:
                continue
            for p in (1.0, 2.0, 3.0):
                uniform = c_n_infty_uniform(model, basis, scheme, p, T, 0.5)
                assert uniform >= c_n_infty_integral(model, basis, scheme, p, T), (n, m, T, p)


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

    def test_single_term_probe(self, ou1, meyer):
        # no numeric ratio at j_probe = 0; the verdict is the series' own
        rep = series_condition_check(ou1, meyer, 0.5, 0)
        assert rep["verdict"] == "convergent" and rep["ratios"] == []
        assert np.isfinite(rep["geometric_tail"])
        with pytest.raises(ValidationError):
            series_condition_check(ou1, meyer, 0.5, -1)


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


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "c, p, message",
        [(math.inf, 2.0, "finite c > 0"), (math.nan, 2.0, "finite c > 0"),
         (1.0, math.inf, "finite p >= 1"), (1.0, math.nan, "finite p >= 1")],
    )
    def test_threshold_and_bound(self, c, p, message):
        with pytest.raises(ValidationError, match="threshold needs a " + message):
            epsilon_threshold(make_power_family(1.5), c, p)
        with pytest.raises(ValidationError, match="bound needs a " + message):
            tail_probability_bound(make_power_family(1.5), c, p, 3.0)

    @pytest.mark.parametrize("p", [math.inf, math.nan])
    def test_rate_constants_need_finite_p(self, ou1, haar, p):
        scheme = parse_scheme_spec("k0'=3;k=3,4")
        with pytest.raises(ValidationError, match="p must be >= 1 and finite"):
            c_n_infty_integral(ou1, haar, scheme, p, 1.0)
        with pytest.raises(ValidationError, match="p must be >= 1 and finite"):
            c_n_infty_uniform(ou1, haar, scheme, p, 1.0, 0.5)

    @pytest.mark.parametrize("T", [math.inf, math.nan])
    def test_rate_constants_need_finite_T(self, ou1, haar, T):
        scheme = parse_scheme_spec("k0'=3;k=3,4")
        with pytest.raises(ValidationError, match="T must be finite and > 0"):
            c_n_infty_integral(ou1, haar, scheme, 2.0, T)
        with pytest.raises(ValidationError, match="T must be finite and > 0"):
            c_n_infty_uniform(ou1, haar, scheme, 2.0, T, 0.5)

    @pytest.mark.parametrize(
        "T, alpha, message",
        [(math.inf, 0.5, "T must be finite"), (math.nan, 0.5, "T must be finite"),
         (1.0, math.nan, "alpha must be finite"), (1.0, math.inf, "alpha must be finite")],
    )
    def test_planner(self, ou1, haar, T, alpha, message):
        with pytest.raises(ValidationError, match=message):
            plan_truncation(ou1, haar, make_gaussian(), 2.0, T, 1e9, 0.9, alpha)


def test_level_cutoff_past_the_explicit_levels(ou1, haar):
    # 482 levels, each with k_j >= 2^j T + 1, so J = 482
    scheme = TruncationScheme(3, tuple(2**j + 2 for j in range(482)))
    with pytest.raises(ResourceLimitError, match="level cutoff 482 exceeds 480 levels"):
        c_n_infty_uniform(ou1, haar, scheme, 2.0, 1.0, 0.5)
