import math

import numpy as np
import pytest
from scipy.integrate import quad

from subwave.errors import ValidationError
from subwave.orlicz import (
    conjugate,
    density,
    make_custom,
    make_gaussian,
    make_power_family,
    numeric_conjugate,
    parse_nfunction_spec,
)

X_GRID = np.array([-10.0, -5.0, -2.0, -0.7, 0.0, 0.3, 1.0, 3.3, 10.0])


def rel_err(a, b, floor=1.0):
    return abs(a - b) / max(abs(b), floor * 1e-8)


class TestBuiltinFamilies:
    def test_gaussian_values(self):
        g = make_gaussian()
        assert g.phi(0.0) == 0.0
        assert g.phi(1.0) == 0.5
        assert conjugate(g, 2.0) == 2.0
        assert density(g, 3.0) == 3.0
        assert g.q_constant == 0.5

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.5, 3.0])
    def test_power_domain_rejected(self, alpha):
        with pytest.raises(ValidationError):
            make_power_family(alpha)

    def test_power_two_matches_gaussian(self):
        p2 = make_power_family(2.0)
        assert p2.phi(1.0) == 0.5
        assert conjugate(p2, 1.0) == 0.5
        assert p2.q_constant == 0.5

    def test_power_15_closed_forms(self):
        p = make_power_family(1.5)
        # beta = 3: conjugate |x|^3/3, density x^0.5
        assert rel_err(conjugate(p, 2.0), 8.0 / 3.0) < 1e-14
        assert rel_err(conjugate(p, 1.0), 1.0 / 3.0) < 1e-14
        assert density(p, 4.0) == 2.0
        assert p.q_constant == math.inf

    @pytest.mark.parametrize("family", ["gaussian", "power:1.5"])
    def test_conjugate_past_float_range_is_inf(self, family):
        # (1e200)^2 / 2 and (1e200)^3 / 3 leave the float range
        nf = parse_nfunction_spec(family)
        assert conjugate(nf, 1e200) == math.inf
        assert conjugate(nf, -1e200) == math.inf

    def test_density_rejects_negative(self):
        with pytest.raises(ValidationError):
            density(make_gaussian(), -1.0)


class TestConjugate:
    def test_numeric_matches_analytic_for_custom(self):
        nf = make_custom(phi=lambda x: 0.5 * x * x)
        assert nf.conjugate_closed_form is None
        assert abs(conjugate(nf, 2.0) - 2.0) < 1e-8

    @pytest.mark.parametrize("family", ["gaussian", "power:1.2", "power:1.5", "power:2"])
    def test_numeric_vs_closed_form(self, family):
        nf = parse_nfunction_spec(family)
        for x in X_GRID:
            num = numeric_conjugate(nf.phi, float(x))
            ref = nf.conjugate_closed_form(float(x))
            assert rel_err(num, ref) < 1e-8

    def test_even_in_x(self):
        nf = make_power_family(1.7)
        for x in (0.5, 2.0, 9.0):
            assert numeric_conjugate(nf.phi, -x) == pytest.approx(
                numeric_conjugate(nf.phi, x), rel=1e-12
            )

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 2.0])
    def test_biconjugation_recovers_phi(self, alpha):
        # the numeric conjugate of power alpha is ~|x|^beta with beta >= 2,
        # which need not satisfy the quadratic-origin assumption, so the
        # outer transform runs on the bare evaluator
        nf = make_power_family(alpha)

        def conj_num(y):
            return numeric_conjugate(nf.phi, y)

        for x in X_GRID:
            val = numeric_conjugate(conj_num, float(x))
            ref = nf.phi(float(x))
            assert abs(val - ref) <= 1e-6 * max(abs(ref), 1.0)

    def test_fenchel_young_inequality(self):
        for nf in (make_gaussian(), make_power_family(1.5)):
            xs = np.linspace(-10, 10, 21)
            for x in xs:
                cx = numeric_conjugate(nf.phi, float(x))
                for y in xs:
                    assert x * y <= nf.phi(float(y)) + cx + 1e-9

    def test_bracket_failure_reported(self):
        from subwave.errors import NumericError

        # sublinear slope never exceeds |x|: no finite bracket exists
        with pytest.raises(NumericError):
            numeric_conjugate(lambda y: 0.1 * abs(y), 1.0)


class TestDensity:
    def test_finite_difference_fallback(self):
        nf = make_custom(phi=lambda x: 0.5 * x * x)
        assert abs(density(nf, 2.0) - 2.0) < 1e-4

    @pytest.mark.parametrize("family", ["gaussian", "power:1.2", "power:1.5", "power:2"])
    @pytest.mark.parametrize("u", [0.1, 1.0, 5.0])
    def test_reconstruction_integral(self, family, u):
        # phi(u) = int_0^u f, checked with adaptive quadrature
        nf = parse_nfunction_spec(family)
        val, _ = quad(nf.density_f, 0.0, u, epsabs=1e-13, epsrel=1e-12)
        assert rel_err(val, nf.phi(u)) < 1e-8


class TestCustomValidation:
    def test_valid_custom_accepted(self):
        nf = make_custom(phi=lambda x: x * x)
        assert nf.family == "custom"
        assert nf.q_constant == pytest.approx(1.0)

    def test_odd_phi_rejected(self):
        with pytest.raises(ValidationError):
            make_custom(phi=lambda x: x**3)

    def test_linear_phi_rejected(self):
        # |x| is not sublinear at the origin
        with pytest.raises(ValidationError):
            make_custom(phi=lambda x: abs(x))

    def test_nonzero_origin_rejected(self):
        with pytest.raises(ValidationError):
            make_custom(phi=lambda x: x * x + 1.0)

    @pytest.mark.parametrize(
        "kw, message",
        [
            ({"phi": lambda x: x * x if x >= 0 else 2.0 * x * x}, "not even"),
            ({"phi": lambda x: math.sqrt(abs(x))}, "midpoint convexity"),
            # x^2 inside [-1, 1], |x| outside: phi(10)/10 = phi(1)
            ({"phi": lambda x: x * x if abs(x) <= 1.0 else abs(x)}, "grow toward the grid endpoint"),
            ({"phi": lambda x: 0.5 * x * x, "density": lambda x: x + 1.0}, "density must vanish at 0"),
            ({"phi": lambda x: 0.5 * x * x, "density": lambda x: x if x < 5.0 else 0.0},
             "density must be nondecreasing"),
            ({"phi": lambda x: 0.5 * x * x, "q_constant": 0.0}, "q_constant"),
        ],
    )
    def test_axiom_checks(self, kw, message):
        with pytest.raises(ValidationError, match=message):
            make_custom(**kw)


class TestSpecStrings:
    def test_parse_gaussian(self):
        assert parse_nfunction_spec("gaussian").family == "gaussian"

    def test_parse_power(self):
        nf = parse_nfunction_spec("power:1.5")
        assert nf.family == "power"
        assert nf.params == (1.5,)
        assert nf.spec_string() == "power:1.5"

    def test_custom_spec_string(self):
        assert make_custom(phi=lambda x: x * x).spec_string() == "custom"

    @pytest.mark.parametrize("bad", ["power:", "power:abc", "power:1e3", "cauchy", ""])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValidationError):
            parse_nfunction_spec(bad)
