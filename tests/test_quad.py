import numpy as np
import pytest

from subwave.quad import (
    gauss_legendre,
    gauss_nodes,
    piecewise_simpson_nodes,
    simpson_nodes,
    trapezoid_weights,
)


def test_simpson_exact_on_cubic():
    x, w = simpson_nodes(0.0, 2.0, 8)
    assert np.sum(w * x**3) == pytest.approx(4.0, rel=1e-14)


def test_simpson_rejects_odd_panels():
    with pytest.raises(ValueError):
        simpson_nodes(0.0, 1.0, 3)


def test_piecewise_simpson_matches_single_segment():
    f = lambda x: np.exp(-x) * np.sin(3 * x)
    x1, w1 = simpson_nodes(0.0, 4.0, 512)
    x2, w2 = piecewise_simpson_nodes([0.0, 1.0, 4.0], [128, 384])
    assert np.sum(w1 * f(x1)) == pytest.approx(np.sum(w2 * f(x2)), rel=1e-10)


def test_gauss_exact_on_high_degree_polynomial():
    x, w = gauss_nodes(-1.0, 3.0, 12)
    # degree 2*12-1 exactness; check degree 20
    val = np.sum(w * x**20)
    exact = (3.0**21 - (-1.0) ** 21) / 21.0
    assert val == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("n", [7, 24, 512])
def test_gauss_legendre_matches_numpy(n):
    x, w = gauss_legendre(n)
    x_ref, w_ref = np.polynomial.legendre.leggauss(n)
    np.testing.assert_allclose(x, x_ref, rtol=0, atol=2e-16)
    # numpy's weights drift with n (1e-10 relative at n = 512)
    np.testing.assert_allclose(w, w_ref, rtol=1e-9)


@pytest.mark.parametrize("odd", [1, 3, 513])
def test_gauss_legendre_odd_n_has_a_zero_node(odd):
    x, w = gauss_legendre(odd)
    assert x[odd // 2] == 0.0
    np.testing.assert_array_equal(x, -x[::-1])
    assert np.sum(w) == pytest.approx(2.0, rel=1e-14)


def test_gauss_legendre_exact_at_2048_nodes():
    # numpy's leggauss misses both by 1.2e-13 and 3.0e-13
    x, w = gauss_legendre(2048)
    assert abs(np.sum(w * np.cos(20.0 * x)) - np.sin(20.0) / 10.0) < 1e-13
    assert abs(np.sum(w * x**40) - 2.0 / 41.0) < 1e-13


def test_trapezoid_weights_uniform_and_nonuniform():
    t = np.array([0.0, 1.0, 2.0, 3.0])
    assert np.allclose(trapezoid_weights(t), [0.5, 1.0, 1.0, 0.5])
    t = np.array([0.0, 1.0, 3.0])
    w = trapezoid_weights(t)
    # integral of f(x)=x over [0,3] is 4.5
    assert np.sum(w * t) == pytest.approx(4.5)


def test_gauss_legendre_needs_a_node():
    with pytest.raises(ValueError, match="needs n >= 1 nodes"):
        gauss_legendre(0)
