"""Deterministic fixed-node quadrature helpers.

Everything here uses fixed node counts (no adaptivity) so that repeated runs
are bit-reproducible.  Composite Simpson is used for smooth integrands,
trapezoid for data known only on a sample grid.
"""

from functools import lru_cache

import numpy as np


def simpson_nodes(a: float, b: float, panels: int):
    """Nodes and weights of composite Simpson on [a, b] with ``panels`` panels.

    ``panels`` must be even (each Simpson panel pair spans two subintervals).
    """
    if panels % 2 != 0:
        raise ValueError("composite Simpson needs an even panel count")
    x = np.linspace(a, b, panels + 1)
    h = (b - a) / panels
    w = np.full(panels + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return x, w * (h / 3.0)

def piecewise_simpson_nodes(breaks, panels):
    """Composite Simpson over consecutive segments with per-segment panel counts.

    ``breaks`` is an increasing sequence of segment boundaries, ``panels`` the
    panel count per segment.  Shared endpoints are kept (their weights add).
    """
    xs, ws = [], []
    for (a, b), n in zip(zip(breaks[:-1], breaks[1:]), panels):
        x, w = simpson_nodes(a, b, n)
        xs.append(x)
        ws.append(w)
    return np.concatenate(xs), np.concatenate(ws)


def _legendre(n: int, x: np.ndarray):
    """P_n(x) and P_n'(x) by the three-term recurrence
    k P_k = (2k - 1) x P_{k-1} - (k - 1) P_{k-2}, for |x| < 1."""
    p0, p1 = np.ones_like(x), x
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


@lru_cache(maxsize=32)
def gauss_legendre(n: int):
    """Cached Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton steps on P_n from x_i = cos(pi (i - 1/4) / (n + 1/2)), i = 1..n/2
    rounded up, give the nonnegative nodes; the weights are
    2 / ((1 - x^2) P_n'(x)^2), and the negative half follows by symmetry.
    """
    if n < 1:
        raise ValueError("Gauss-Legendre needs n >= 1 nodes")
    x = np.cos(np.pi * (np.arange(1, (n + 1) // 2 + 1) - 0.25) / (n + 0.5))
    for _ in range(100):
        p, dp = _legendre(n, x)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) <= 1e-15:
            break
    odd = n % 2
    if odd:
        x[-1] = 0.0
    _, dp = _legendre(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return np.concatenate([-x, x[::-1][odd:]]), np.concatenate([w, w[::-1][odd:]])


def gauss_nodes(a: float, b: float, n: int):
    """Gauss-Legendre nodes and weights mapped to [a, b]."""
    x, w = gauss_legendre(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def trapezoid_weights(t):
    """Trapezoid weights for a (possibly non-uniform) increasing grid."""
    t = np.asarray(t, dtype=float)
    w = np.empty_like(t)
    d = np.diff(t)
    w[0] = d[0] / 2
    w[-1] = d[-1] / 2
    w[1:-1] = (d[:-1] + d[1:]) / 2
    return w
