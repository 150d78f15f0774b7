"""Orthonormal wavelet pairs with decay envelopes.

A pair consists of a scaling function (f-wavelet) and a mother wavelet
(m-wavelet), each dominated by a decreasing integrable envelope Phi,
given by Phi itself and its tail integrals int_a^inf Phi (the whole mass
is the tail from 0).  The envelopes supply the two lattice-sum constants

    C_delta        = 3*Phi(0) + 4*int_{1/2}^inf Phi
    C_delta(T,k1)  = int_{k1-T-1}^inf Phi + int_{k1-1}^inf Phi   (k1 >= T+1)

which bound sup_x sum_k |w(x-k)| and the corresponding index-tail sums.

A ``WaveletPair`` checks itself at construction: both value functions are
tables aligned with the integer lattice, each is dominated by its
envelope, and psi_hat(0) = 0.  So the same two suprema are always
computed exactly as sums over the tables the code evaluates
(``lattice_constant`` / ``lattice_tail_constant``), with no envelope
fallback; for the polynomially decaying Meyer pair they are several
hundred times smaller than the envelope constants.

Shipped families:

* ``haar``            analytic step tables; discontinuous (``continuous`` is
                      read off the table kind), so it violates the continuity
                      hypothesis of the mean-square convergence theory (kept
                      for arithmetic tests).
* ``daubechies:N``    N in {2, 3, 4}; filter by spectral factorization,
                      values by exact dyadic refinement (12 levels, grid
                      step 2^-12), compactly supported.
* ``meyer``           closed-form Fourier expressions, band-limited; time
                      domain tabulated from the transform sampled at its
                      nonzero harmonics, summed over the table window by
                      one chirp-z transform (exact up to periodisation at
                      period 2048); polynomial-decay rational envelope.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Tuple

import numpy as np
from numpy.polynomial.polynomial import polyval

from .errors import NumericError, ValidationError

_SQRT2 = math.sqrt(2.0)

# Daubechies construction constants: refinement depth / dyadic step of
# the value tables, and the factors m0(y / 2^j), j = 1.._PRODUCT_DEPTH, of
# the truncated infinite product behind the transforms.
_CASCADE_LEVELS = 12
_PRODUCT_DEPTH = 40

# Tail mass beyond an effective support, relative to the whole envelope.
_TAIL_MASS = 1e-6

# Meyer tabulation: half-width and dyadic step of the value table, the
# period P whose harmonics sample the transform (the table holds the
# P-periodised function, see ``_fourier_table``), and the envelope shape
# parameter b in Phi(x) = A * (1 + x/b)^-4.
_MEYER_TABLE_HALFWIDTH = 56.0
_MEYER_TABLE_STEP = 2.0**-10
_MEYER_PERIOD = 2048.0
_MEYER_ENVELOPE_SCALE = 0.5


@dataclass(frozen=True)
class Envelope:
    """Decreasing integrable dominant of a wavelet: |w(x)| <= big_phi(|x|),
    with ``tail_integral(a)`` = int_a^inf big_phi, so its whole mass is
    ``tail_integral(0.0)``."""

    big_phi: Callable[[np.ndarray], np.ndarray]
    tail_integral: Callable[[float], float]

    def __post_init__(self):
        if not np.isfinite(self.big_phi(0.0)):
            raise ValidationError("envelope must be finite at 0")
        if not np.isfinite(self.tail_integral(0.0)):
            raise ValidationError("envelope must be integrable")
        grid = np.linspace(0.0, 50.0, 201)
        vals = np.asarray(self.big_phi(grid), dtype=float)
        if np.any(np.diff(vals) > 1e-12):
            raise ValidationError("envelope must be nonincreasing")
        tails = np.array([self.tail_integral(x) for x in grid[::20]])
        if np.any(np.diff(tails) > 1e-12):
            raise ValidationError("tail integral must be nonincreasing")

    def effective_support(self) -> float:
        """Smallest s with tail_integral(s) <= _TAIL_MASS * tail_integral(0)."""
        target = _TAIL_MASS * self.tail_integral(0.0)
        lo, hi = 0.0, 1.0
        while self.tail_integral(hi) > target:
            hi *= 2.0
            if hi > 1e9:
                raise NumericError("envelope tail does not reach the target mass")
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if self.tail_integral(mid) > target:
                lo = mid
            else:
                hi = mid
        return hi


def box_envelope(height: float, support: float) -> Envelope:
    """Envelope height * 1[0, support]; exact for compactly supported wavelets."""
    def tail(a, _h=height, _s=support):
        return _h * max(0.0, _s - max(a, 0.0))

    return Envelope(
        big_phi=lambda x: np.where(np.asarray(x) <= support, height, 0.0),
        tail_integral=tail,
    )


def rational_envelope(amplitude: float, scale: float) -> Envelope:
    """Envelope A * (1 + x/b)^-4 with analytic tail integrals."""
    def tail(a, _a=amplitude, _b=scale):
        return _a * _b / 3.0 * (1.0 + max(a, 0.0) / _b) ** -3

    return Envelope(
        big_phi=lambda x: amplitude * (1.0 + np.abs(x) / scale) ** -4,
        tail_integral=tail,
    )


def exponential_envelope(rate: float = 1.0, amplitude: float = 1.0) -> Envelope:
    """Envelope A * exp(-rate x); used mostly as a closed-form test fixture."""
    return Envelope(
        big_phi=lambda x: amplitude * np.exp(-rate * np.abs(x)),
        tail_integral=lambda a: amplitude / rate * math.exp(-rate * max(a, 0.0)),
    )


class _TableFunc:
    """Linear interpolation of a uniformly tabulated function, zero outside."""

    def __init__(self, x0: float, dx: float, values: np.ndarray):
        self.x0 = x0
        self.dx = dx
        self.values = np.asarray(values, dtype=float)
        self.grid = x0 + dx * np.arange(len(self.values))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return np.interp(x, self.grid, self.values, left=0.0, right=0.0)


class _StepFunc(_TableFunc):
    """Piecewise constant: values[i] on [x0 + i dx, x0 + (i+1) dx), zero
    outside, and NaN at NaN like the interpolated tables."""

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        i = np.floor((x - self.x0) / self.dx)
        inside = (i >= 0) & (i < len(self.values))
        idx = np.where(inside, i, 0).astype(int)
        return np.where(inside, self.values[idx], np.where(np.isnan(x), x, 0.0))


@dataclass(frozen=True)
class WaveletPair:
    """A scaling-function / wavelet pair with Fourier evaluators and envelopes.

    Construction checks the pair: both value functions are tables aligned
    with the integer lattice (1/dx an integer, x0 a multiple of dx), each
    is dominated by its envelope on [-50, 50] (assumption S), and
    psi_hat(0) = 0.  All fields are immutable and all evaluators pure, so
    instances are safe to share across threads.
    """

    family: str
    f_wavelet: _TableFunc
    m_wavelet: _TableFunc
    f_hat: Callable[[np.ndarray], np.ndarray]
    m_hat: Callable[[np.ndarray], np.ndarray]
    envelope_f: Envelope
    envelope_m: Envelope

    def __post_init__(self):
        x = np.linspace(-50.0, 50.0, 4001)
        for w, env, name in (
            (self.f_wavelet, self.envelope_f, "f"),
            (self.m_wavelet, self.envelope_m, "m"),
        ):
            if not isinstance(w, _TableFunc):
                raise ValidationError(f"{name}-wavelet must be a value table")
            if round(1.0 / w.dx) * w.dx != 1.0 or round(w.x0 / w.dx) * w.dx != w.x0:
                raise ValidationError(
                    f"{name}-wavelet table must be aligned with the integer lattice"
                )
            if np.any(np.abs(w(x)) > env.big_phi(np.abs(x)) + 1e-9):
                raise ValidationError(f"{name}-wavelet exceeds its envelope")
        if abs(complex(self.m_hat(np.array([0.0]))[0])) > 1e-8:
            raise ValidationError("wavelet Fourier transform must vanish at 0")

    @property
    def continuous(self) -> bool:
        """False when a value function is a step table (Haar)."""
        return not isinstance(self.f_wavelet, _StepFunc) and not isinstance(
            self.m_wavelet, _StepFunc
        )


# ---------------------------------------------------------------------------
# Haar


def _haar_f_hat(y):
    y = np.asarray(y, dtype=complex)
    out = np.where(
        np.abs(y) < 1e-12, 1.0, (1.0 - np.exp(-1j * y)) / (1j * y + (y == 0))
    )
    return out


def _haar_m_hat(y):
    y = np.asarray(y, dtype=complex)
    num = (1.0 - np.exp(-1j * y / 2.0)) ** 2
    return np.where(np.abs(y) < 1e-12, 0.0, num / (1j * y + (y == 0)))


def _make_haar() -> WaveletPair:
    env = box_envelope(1.0, 1.0)
    return WaveletPair(
        family="haar",
        f_wavelet=_StepFunc(0.0, 1.0, [1.0]),
        m_wavelet=_StepFunc(0.0, 0.5, [1.0, -1.0]),
        f_hat=_haar_f_hat,
        m_hat=_haar_m_hat,
        envelope_f=env,
        envelope_m=env,
    )


# ---------------------------------------------------------------------------
# Daubechies


def daubechies_filter(n_moments: int) -> np.ndarray:
    """Minimal-phase orthonormal scaling filter with ``n_moments`` vanishing
    moments (length 2 * n_moments), normalized to sum sqrt(2).

    Spectral factorization: the half-band polynomial
    P(y) = sum_{k<N} C(N-1+k, k) y^k is evaluated at y = (2 - z - 1/z)/4 and
    the roots inside the unit circle are kept.
    """
    N = n_moments
    base = np.array([-0.25, 0.5, -0.25])  # (2z - z^2 - 1)/4, ascending in z
    q = np.zeros(2 * N - 1)
    term = np.array([1.0])
    for k in range(N):
        coeff = math.comb(N - 1 + k, k)
        shift = N - 1 - k
        q[shift : shift + len(term)] += coeff * term
        term = np.convolve(term, base)
    roots = np.roots(q[::-1])
    inside = roots[np.abs(roots) < 1.0]
    if len(inside) != N - 1:
        raise NumericError("spectral factorization produced a bad root split")
    poly = np.array([1.0 + 0.0j])
    for r in inside:
        poly = np.convolve(poly, np.array([-r, 1.0]))
    poly = np.real(poly)
    for _ in range(N):
        poly = np.convolve(poly, np.array([0.5, 0.5]))
    h = poly * (_SQRT2 / poly.sum())
    if abs(h[0]) < abs(h[-1]):  # match the conventional min-phase ordering
        h = h[::-1]
    return h


def _refine_dyadic(h: np.ndarray, levels: int) -> np.ndarray:
    """Scaling-function values on the dyadic grid step 2^-levels over its
    support [0, len(h)-1], via exact refinement from the integer values."""
    L = len(h) - 1
    A = np.zeros((L - 1, L - 1))
    for i in range(1, L):
        for j in range(1, L):
            idx = 2 * i - j
            if 0 <= idx <= L:
                A[i - 1, j - 1] = _SQRT2 * h[idx]
    w, V = np.linalg.eig(A)
    pick = int(np.argmin(np.abs(w - 1.0)))
    v = np.real(V[:, pick])
    v = v / v.sum()
    cur = np.concatenate(([0.0], v, [0.0]))  # values at integers 0..L
    for m in range(1, levels + 1):
        step_prev = 2 ** (m - 1)
        n_new = L * 2**m + 1
        new = np.zeros(n_new)
        for k, hk in enumerate(h):
            # phi(i*2^-m) += sqrt2*h_k*phi_prev(i*2^-(m-1) - k)
            off = k * step_prev
            lo = max(0, off)
            hi = min(n_new, off + len(cur))
            if lo < hi:
                new[lo:hi] += _SQRT2 * hk * cur[lo - off : hi - off]
        cur = new
    return cur


def _make_daubechies(n_moments: int) -> WaveletPair:
    h = daubechies_filter(n_moments)
    L = len(h) - 1
    step = 2.0**-_CASCADE_LEVELS
    phi_vals = _refine_dyadic(h, _CASCADE_LEVELS)
    g = np.array([(-1) ** k * h[len(h) - 1 - k] for k in range(len(h))])
    # psi(x) = sqrt2 * sum_k g_k phi(2x - k); 2x on the same dyadic grid
    n = len(phi_vals)
    psi_vals = np.zeros(n)
    scale = 2**_CASCADE_LEVELS
    for k, gk in enumerate(g):
        # index of (2x - k) in phi table for x = i*step: 2i - k*scale
        idx = 2 * np.arange(n) - k * scale
        ok = (idx >= 0) & (idx < n)
        psi_vals[ok] += _SQRT2 * gk * phi_vals[idx[ok]]
    f_w = _TableFunc(0.0, step, phi_vals)
    m_w = _TableFunc(0.0, step, psi_vals)

    def f_hat(y, _h=h):
        return _filter_product_hat(y, _h, None)

    def m_hat(y, _h=h, _g=g):
        return _filter_product_hat(y, _h, _g)

    env_f = box_envelope(float(np.max(np.abs(phi_vals))), float(L))
    env_m = box_envelope(float(np.max(np.abs(psi_vals))), float(L))
    return WaveletPair(
        family=f"daubechies:{n_moments}",
        f_wavelet=f_w,
        m_wavelet=m_w,
        f_hat=f_hat,
        m_hat=m_hat,
        envelope_f=env_f,
        envelope_m=env_m,
    )


def _filter_product_hat(y, h, g=None):
    """Fourier transform via the refinement product.

    f-wavelet: prod_{j>=1} m0(y / 2^j); m-wavelet: m1(y/2) * fhat(y/2),
    where m0, m1 are the (1/sqrt2)-normalized filter symbols, evaluated as
    polynomials in exp(-i w) (one complex exponential per node).
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))

    def m0(w):
        return polyval(np.exp(-1j * w), h) / _SQRT2

    def product(w):
        out = np.ones(len(w), dtype=complex)
        v = np.array(w, dtype=float)
        for _ in range(_PRODUCT_DEPTH):
            v = v / 2.0
            out *= m0(v)
        return out

    if g is None:
        return product(y)
    m1 = polyval(np.exp(-0.5j * y), g) / _SQRT2
    return m1 * product(y / 2.0)


# ---------------------------------------------------------------------------
# Meyer

_TWO_PI_3 = 2.0 * math.pi / 3.0
# kinks of |phi_hat| and |psi_hat| on z >= 0 (``band_breaks``)
_MEYER_BREAKS = {
    "f": (0.0, _TWO_PI_3, 2 * _TWO_PI_3),
    "m": (_TWO_PI_3, 2 * _TWO_PI_3, 4 * _TWO_PI_3),
}


def _nu(x):
    """Smooth 0->1 ramp x^4(35 - 84x + 70x^2 - 20x^3), clipped outside [0,1]."""
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    return x**4 * (35.0 - 84.0 * x + 70.0 * x**2 - 20.0 * x**3)


def _meyer_f_hat_abs(y):
    a = np.abs(np.asarray(y, dtype=float))
    out = np.zeros_like(a)
    out[a <= _TWO_PI_3] = 1.0
    mid = (a > _TWO_PI_3) & (a <= 2.0 * _TWO_PI_3)
    out[mid] = np.cos(0.5 * math.pi * _nu(a[mid] / _TWO_PI_3 - 1.0))
    return out


def _meyer_m_hat_abs(y):
    a = np.abs(np.asarray(y, dtype=float))
    out = np.zeros_like(a)
    band1 = (a > _TWO_PI_3) & (a <= 2.0 * _TWO_PI_3)
    band2 = (a > 2.0 * _TWO_PI_3) & (a <= 4.0 * _TWO_PI_3)
    out[band1] = np.sin(0.5 * math.pi * _nu(a[band1] / _TWO_PI_3 - 1.0))
    out[band2] = np.cos(0.5 * math.pi * _nu(a[band2] / (2.0 * _TWO_PI_3) - 1.0))
    return out


def _meyer_f_hat(y):
    return _meyer_f_hat_abs(y).astype(complex)


def _meyer_m_hat(y):
    y = np.asarray(y, dtype=float)
    return np.exp(-0.5j * y) * _meyer_m_hat_abs(y)


def _fourier_table(profile, center, edge):
    """Tabulate w(x) = (1/2pi) int profile(|y|) exp(i (x - center) y) dy.

    This is the inverse transform of the Hermitian spectrum
    exp(-i*center*y) * profile(|y|); the result is real and symmetric about
    ``center``.  By Poisson summation the trapezoid rule in y with step
    2pi/P is exactly the P-periodised function sum_n w(x + nP), so at step
    dx, with n = P/dx, the table holds

        w(center + i dx) = (a_0 + 2 sum_{k=1..K} a_k cos(2pi i k / n)) / (n dx)

    for the harmonics a_k = profile(2pi k / P); the profile vanishes above
    ``edge``, so K = floor(edge P / 2pi) loses nothing.  Only the half
    window 0 <= i <= H/dx is summed, by a chirp-z transform: i k =
    (i^2 + k^2 - (i - k)^2) / 2 turns the sum into one linear convolution
    with the chirp exp(-i pi m^2 / n), done by FFT at the next power of two
    above H/dx + K, with each phase m^2 reduced mod 2n in exact integers.
    Inside the table window |x - center| <= H the periodisation adds at
    most 2 sum_{n>=1} Phi(nP - H), with Phi the rational envelope: below
    4e-12 at P = 2048, H = 56.  The true tails are far smaller, and the
    table agrees with an independent quadrature of the integral, and with
    the full-period inverse FFT of the same spectrum, to a few ulps.
    """
    dx = _MEYER_TABLE_STEP
    n = round(_MEYER_PERIOD / dx)
    half = round(_MEYER_TABLE_HALFWIDTH / dx)
    K = math.floor(edge * _MEYER_PERIOD / (2.0 * math.pi))
    a = profile(2.0 * math.pi / _MEYER_PERIOD * np.arange(K + 1))
    a[1:] *= 2.0
    m = np.arange(-K, half + 1, dtype=np.int64)
    chirp = np.exp(1j * math.pi / n * (m * m % (2 * n)))  # even in m
    size = 1 << (half + K).bit_length()
    u = np.zeros(size, dtype=complex)
    u[: K + 1] = a * chirp[K : 2 * K + 1]
    v = np.zeros(size, dtype=complex)
    v[m % size] = chirp.conj()
    conv = np.fft.ifft(np.fft.fft(u) * np.fft.fft(v))[: half + 1]
    vals = (chirp[K:] * conv).real / (n * dx)
    return _TableFunc(center - half * dx, dx, np.concatenate([vals[:0:-1], vals]))


def _fit_rational_envelope(table: _TableFunc, scale: float) -> Envelope:
    """Smallest A with |w(x)| <= A (1 + |x|/scale)^-4 on the table grid."""
    amp = float(np.max(np.abs(table.values) * (1.0 + np.abs(table.grid) / scale) ** 4))
    return rational_envelope(amp, scale)


def _make_meyer() -> WaveletPair:
    f_w = _fourier_table(_meyer_f_hat_abs, 0.0, _MEYER_BREAKS["f"][-1])
    m_w = _fourier_table(_meyer_m_hat_abs, 0.5, _MEYER_BREAKS["m"][-1])
    env_f = _fit_rational_envelope(f_w, _MEYER_ENVELOPE_SCALE)
    env_m = _fit_rational_envelope(m_w, _MEYER_ENVELOPE_SCALE)
    return WaveletPair(
        family="meyer",
        f_wavelet=f_w,
        m_wavelet=m_w,
        f_hat=_meyer_f_hat,
        m_hat=_meyer_m_hat,
        envelope_f=env_f,
        envelope_m=env_m,
    )


# ---------------------------------------------------------------------------
# Public operations

_DAUBECHIES_ORDERS = (2, 3, 4)


@lru_cache(maxsize=None)
def make_basis(family: str) -> WaveletPair:
    """Build a wavelet pair from its spec string; the pair checks itself
    (``WaveletPair``) once per family, as the result is cached.

    Accepted: "haar", "daubechies:2|3|4", "meyer".  Haar is discontinuous
    (a step table, so ``continuous`` reads False): it violates the
    continuity hypothesis of the mean-square theory and is meant for
    arithmetic tests only.
    """
    if family == "haar":
        return _make_haar()
    if family == "meyer":
        return _make_meyer()
    if not family.startswith("daubechies:"):
        raise ValidationError(f"unknown wavelet family {family!r}")
    try:
        order = int(family.split(":", 1)[1])
    except ValueError:
        raise ValidationError(f"bad daubechies order in {family!r}") from None
    if order not in _DAUBECHIES_ORDERS:
        raise ValidationError(f"daubechies order must be one of {_DAUBECHIES_ORDERS}")
    return _make_daubechies(order)


def band_breaks(basis: WaveletPair, which: str) -> Optional[Tuple[float, ...]]:
    """Kinks of a band-limited |w_hat| on z >= 0, ascending: it is smooth
    between them and zero outside [first, last].  None when the transform
    is not band-limited (Haar, Daubechies)."""
    if which not in ("f", "m"):
        raise ValidationError("which must be 'f' or 'm'")
    return _MEYER_BREAKS[which] if basis.family == "meyer" else None


def _dilated_table(basis: WaveletPair, which: str, j: int, k: int) -> _TableFunc:
    if any(isinstance(i, bool) or not isinstance(i, (int, np.integer)) for i in (j, k)):
        raise ValidationError(f"level j and shift k must be integers, got {j!r}, {k!r}")
    if j < 0:
        raise ValidationError("dilation level j must be >= 0")
    if which == "f":
        return basis.f_wavelet
    if which == "m":
        return basis.m_wavelet
    raise ValidationError("which must be 'f' or 'm'")


def eval_dilated(basis: WaveletPair, which: str, j: int, k: int, t):
    """2^{j/2} w(2^j t - k) for the selected mother function w.

    ``which`` is "f" (scaling) or "m" (wavelet); j >= 0 and k are ints or
    numpy integers, not bools.
    """
    w = _dilated_table(basis, which, j, k)
    t = np.asarray(t, dtype=float)
    return 2.0 ** (j / 2.0) * w(2.0**j * t - k)


def dilated_support(basis: WaveletPair, which: str, j: int, k: int) -> Tuple[float, float]:
    """Closed interval [lo, hi] outside which ``eval_dilated(basis, which,
    j, k, t)`` is exactly 0.

    A value table vanishes outside [x0, x0 + len dx) (``_TableFunc``,
    ``_StepFunc``); the interval is that, widened by one table step on
    each side, mapped by x -> (x + k) / 2^j.  The step is far wider than
    the rounding of 2^j t - k, so no t outside [lo, hi] reaches the table.
    """
    w = _dilated_table(basis, which, j, k)
    scale = 2.0**-j
    return (w.x0 - w.dx + k) * scale, (w.x0 + (len(w.values) + 1) * w.dx + k) * scale


def envelope_constant(env: Envelope) -> float:
    """C_delta = 3 Phi(0) + 4 int_{1/2}^inf Phi: bounds sup_x sum_k |w(x-k)|."""
    return 3.0 * float(env.big_phi(0.0)) + 4.0 * env.tail_integral(0.5)


def _check_tail_window(T: float, k1: int) -> None:
    if not 0 <= T < math.inf:
        raise ValidationError("tail constant requires a finite T >= 0")
    if k1 < T + 1:
        raise ValidationError("tail constant requires k1 >= T + 1")


def tail_constant(env: Envelope, T: float, k1: int) -> float:
    """C_delta(T, k1) = int_{k1-T-1}^inf Phi + int_{k1-1}^inf Phi.

    Bounds sup_{|x|<=T} sum_{|k|>=k1} |w(x-k)|; requires a finite T >= 0 and
    k1 >= T + 1.
    """
    _check_tail_window(T, k1)
    return env.tail_integral(k1 - T - 1.0) + env.tail_integral(k1 - 1.0)


@lru_cache(maxsize=None)
def _lattice_table(basis: WaveletPair, which: str):
    """Per-residue prefix sums of |w| over the nodes of its value table.

    A node sits at g dx with g integer and 1/dx = P an integer (the pair
    guarantees the alignment); writing g = P c + r (0 <= r < P) puts it at
    x = c + r dx.  Row r then lists the values |w(r dx + c)| over the
    integers c, so the lattice sum at any node with residue r is the row
    total.  Returns (dx, c_min, cum) with cum[r, i] = sum over the first i
    columns of row r.
    """
    if which not in ("f", "m"):
        raise ValidationError("which must be 'f' or 'm'")
    w = basis.f_wavelet if which == "f" else basis.m_wavelet
    P = round(1.0 / w.dx)
    g = round(w.x0 / w.dx) + np.arange(len(w.values))
    c_min = int(g.min() // P)
    A = np.zeros((P, int(g.max() // P) - c_min + 1))
    A[g % P, g // P - c_min] = np.abs(w.values)
    cum = np.concatenate([np.zeros((P, 1)), np.cumsum(A, axis=1)], axis=1)
    return w.dx, c_min, cum


def lattice_constant(basis: WaveletPair, which: str) -> float:
    """sup_x sum_k |w(x-k)| for the function the code evaluates.

    Linear interpolation between table nodes makes each |w(x-k)| convex on
    every table cell, and the cells of all integer shifts line up, so the
    supremum is attained at a node; a step function is constant on its
    cells.  The node sums are exact row totals of ``_lattice_table``.
    """
    return float(_lattice_table(basis, which)[2][:, -1].max())


@lru_cache(maxsize=None)
def lattice_tail_constant(basis: WaveletPair, which: str, T: float, k1: int) -> float:
    """sup_{|x|<=T} sum_{|k|>=k1} |w(x-k)| for the function the code evaluates.

    Requires T and k1 like ``tail_constant``.  On a table cell the sum
    is convex (linear interpolation) or constant on the half-open cell
    (steps), so its supremum over the part of the cell inside [-T, T] is
    attained at a node g dx of that cell with |g| <= G = ceil(T / dx); the
    maximum is taken over those nodes.  A node x = q + r dx carries the tail
    sum_{c <= q-k1} + sum_{c >= q+k1} of row r; only integer parts q within
    reach of the table support can give a nonzero tail, which keeps the
    work independent of T.
    """
    _check_tail_window(T, k1)
    dx, c_min, cum = _lattice_table(basis, which)
    P, n_cols = cum.shape[0], cum.shape[1] - 1
    c_max = c_min + n_cols - 1
    G = math.ceil(T / dx)
    q_lo, q_hi = -(G // P) - 1, G // P
    q = np.union1d(
        np.arange(max(q_lo, c_min + k1), q_hi + 1),
        np.arange(q_lo, min(q_hi, c_max - k1) + 1),
    )
    if len(q) == 0:
        return 0.0
    r = np.arange(P)
    inside = np.abs(q[:, None] * P + r[None, :]) <= G
    left = cum[r[None, :], np.clip(q[:, None] - k1 - c_min + 1, 0, n_cols)]
    right = cum[r, -1][None, :] - cum[r[None, :], np.clip(q[:, None] + k1 - c_min, 0, n_cols)]
    return float(np.max(np.where(inside, left + right, 0.0)))


def _lipschitz_grid(m_max: int) -> np.ndarray:
    """Dyadic points 2^-m near zero plus a dense sweep over (0, 16].

    The dense part matters for band-limited wavelets whose transform
    vanishes identically near the origin: there the global ratio
    sup |psi_hat(z)| / |z|^gamma is attained away from zero, and restricting
    to the near-zero dyadic points would degenerate the constant to 0.
    """
    dyadic = 2.0 ** -np.arange(0, m_max + 1, dtype=float)
    dense = np.linspace(1e-3, 16.0, 4096)
    return np.unique(np.concatenate([dyadic, dense]))


def lipschitz_fit(basis: WaveletPair, orders) -> Tuple[float, float]:
    """Fit a Lipschitz bound |psi_hat(z) - psi_hat(0)| <= C |z|^gamma.

    For each candidate order the constant is maximized over dyadic points
    2^-m (m = 0..20) plus a dense grid covering the transform's support
    band, refining the dyadic part; a candidate is accepted when successive
    refinements change the constant by a factor <= 1.05.  Returns the
    largest accepted order and its constant.
    """
    orders = sorted(set(float(g) for g in orders))
    if not orders:
        raise ValidationError("no candidate Lipschitz orders supplied")
    psi0 = complex(np.atleast_1d(basis.m_hat(np.array([0.0])))[0])

    def const_at(gamma, m_max):
        z = _lipschitz_grid(m_max)
        dev = np.abs(np.atleast_1d(basis.m_hat(z)) - psi0)
        return float(np.max(dev / z**gamma))

    best = None
    for gamma in orders:
        cs = [const_at(gamma, m) for m in (12, 16, 20)]
        ratios = [b / a for a, b in zip(cs[:-1], cs[1:]) if a > 0]
        stable = all(r <= 1.05 for r in ratios) and np.isfinite(cs[-1])
        if stable:
            best = (gamma, cs[-1])
    if best is None:
        raise NumericError("no candidate Lipschitz order stabilized")
    return best
