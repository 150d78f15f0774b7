"""Orthonormal wavelet pairs with decay envelopes.

A pair consists of a scaling function (f-wavelet) and a mother wavelet
(m-wavelet), each dominated by a decreasing integrable envelope.  The
envelopes supply the two lattice-sum constants

    C_delta        = 3*Phi(0) + 4*int_{1/2}^inf Phi
    C_delta(T,k1)  = int_{k1-T-1}^inf Phi + int_{k1-1}^inf Phi   (k1 >= T+1)

which bound sup_x sum_k |w(x-k)| and the corresponding index-tail sums.
The same two suprema are also computed directly from the tabulated values
the code evaluates (``lattice_constant`` / ``lattice_tail_constant``); for
the polynomially decaying Meyer pair these are several hundred times
smaller than the envelope constants.

Shipped families:

* ``haar``            analytic; discontinuous, so it violates the continuity
                      hypothesis of the mean-square convergence theory and is
                      flagged accordingly (kept for arithmetic tests).
* ``daubechies:N``    N in {2, 3, 4}; filter by spectral factorization,
                      values by exact dyadic refinement (12 levels, grid
                      step 2^-12), compactly supported.
* ``meyer``           closed-form Fourier expressions, band-limited; time
                      domain tabulated by quadrature of the inverse
                      transform; polynomial-decay rational envelope.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Tuple

import numpy as np

from .errors import NumericError, ValidationError
from .quad import gauss_nodes

_SQRT2 = math.sqrt(2.0)

# Daubechies construction constants: refinement depth / dyadic step.
_CASCADE_LEVELS = 12

# Meyer tabulation: half-width and dyadic step of the value table, quadrature
# nodes per frequency band, and the envelope shape parameter b in
# Phi(x) = A * (1 + x/b)^-4.
_MEYER_TABLE_HALFWIDTH = 56.0
_MEYER_TABLE_STEP = 2.0**-10
_MEYER_BAND_NODES = 512
_MEYER_ENVELOPE_SCALE = 0.5


@dataclass(frozen=True)
class Envelope:
    """Decreasing integrable dominant of a wavelet: |w(x)| <= big_phi(|x|)."""

    big_phi: Callable[[np.ndarray], np.ndarray]
    total_integral: float
    tail_integral: Callable[[float], float]

    def __post_init__(self):
        if not np.isfinite(self.big_phi(0.0)):
            raise ValidationError("envelope must be finite at 0")
        if not np.isfinite(self.total_integral):
            raise ValidationError("envelope must be integrable")
        if abs(self.tail_integral(0.0) - self.total_integral) > 1e-10 * (
            1.0 + self.total_integral
        ):
            raise ValidationError("tail_integral(0) must equal total_integral")
        grid = np.linspace(0.0, 50.0, 201)
        vals = np.asarray(self.big_phi(grid), dtype=float)
        if np.any(np.diff(vals) > 1e-12):
            raise ValidationError("envelope must be nonincreasing")
        tails = np.array([self.tail_integral(x) for x in grid[::20]])
        if np.any(np.diff(tails) > 1e-12):
            raise ValidationError("tail integral must be nonincreasing")

    def effective_support(self, tail_mass: float = 1e-6) -> float:
        """Smallest s with tail_integral(s) <= tail_mass * total_integral."""
        target = tail_mass * self.total_integral
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
        total_integral=height * support,
        tail_integral=tail,
    )


def rational_envelope(amplitude: float, scale: float) -> Envelope:
    """Envelope A * (1 + x/b)^-4 with analytic tail integrals."""
    def tail(a, _a=amplitude, _b=scale):
        return _a * _b / 3.0 * (1.0 + max(a, 0.0) / _b) ** -3

    return Envelope(
        big_phi=lambda x: amplitude * (1.0 + np.abs(x) / scale) ** -4,
        total_integral=amplitude * scale / 3.0,
        tail_integral=tail,
    )


def exponential_envelope(rate: float = 1.0, amplitude: float = 1.0) -> Envelope:
    """Envelope A * exp(-rate x); used mostly as a closed-form test fixture."""
    return Envelope(
        big_phi=lambda x: amplitude * np.exp(-rate * np.abs(x)),
        total_integral=amplitude / rate,
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
    """Piecewise constant: values[i] on [x0 + i dx, x0 + (i+1) dx), zero outside."""

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        i = np.floor((x - self.x0) / self.dx)
        inside = (i >= 0) & (i < len(self.values))
        idx = np.clip(np.nan_to_num(i), 0, len(self.values) - 1).astype(int)
        return np.where(inside, self.values[idx], 0.0)


@dataclass(frozen=True)
class WaveletPair:
    """A scaling-function / wavelet pair with Fourier evaluators and envelopes.

    All fields are immutable and all evaluators pure, so instances are safe
    to share across threads.
    """

    family: str
    f_wavelet: Callable[[np.ndarray], np.ndarray]
    m_wavelet: Callable[[np.ndarray], np.ndarray]
    f_hat: Callable[[np.ndarray], np.ndarray]
    m_hat: Callable[[np.ndarray], np.ndarray]
    envelope_f: Envelope
    envelope_m: Envelope
    continuous: bool = True


def _check_domination(pair: WaveletPair) -> None:
    """Assumption-S check: wavelet values dominated by their envelopes."""
    for w, env, name in (
        (pair.f_wavelet, pair.envelope_f, "f"),
        (pair.m_wavelet, pair.envelope_m, "m"),
    ):
        x = np.linspace(-50.0, 50.0, 4001)
        if np.any(np.abs(w(x)) > env.big_phi(np.abs(x)) + 1e-9):
            raise ValidationError(f"{name}-wavelet exceeds its envelope")
    z0 = complex(pair.m_hat(np.array([0.0]))[0])
    if abs(z0) > 1e-8:
        raise ValidationError("wavelet Fourier transform must vanish at 0")


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
        continuous=False,
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


def _filter_product_hat(y, h, g=None, depth: int = 40):
    """Fourier transform via the refinement product.

    f-wavelet: prod_{j>=1} m0(y / 2^j); m-wavelet: m1(y/2) * fhat(y/2),
    where m0, m1 are the (1/sqrt2)-normalized filter symbols.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    k = np.arange(len(h))

    def m0(w):
        return np.exp(-1j * np.outer(w, k)) @ h / _SQRT2

    def product(w):
        out = np.ones(len(w), dtype=complex)
        v = np.array(w, dtype=float)
        for _ in range(depth):
            v = v / 2.0
            out *= m0(v)
        return out

    if g is None:
        return product(y)
    m1 = np.exp(-1j * np.outer(y / 2.0, k)) @ g / _SQRT2
    return m1 * product(y / 2.0)


# ---------------------------------------------------------------------------
# Meyer

_TWO_PI_3 = 2.0 * math.pi / 3.0


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


def _cosine_table(profile, band_hi, center, halfwidth, step, nodes):
    """Tabulate (1/pi) * int_0^band_hi profile(y) cos((x - center) y) dy.

    This is the inverse transform of a Hermitian spectrum
    exp(-i*center*y) * profile(|y|); the result is real and symmetric about
    ``center``.  Values are computed in chunks via a cosine matrix.
    """
    yq, wq = gauss_nodes(0.0, band_hi, nodes)
    pw = profile(yq) * wq / math.pi
    xs = center + np.arange(-halfwidth / step, halfwidth / step + 1) * step
    vals = np.empty(len(xs))
    chunk = 8192
    for i in range(0, len(xs), chunk):
        xc = xs[i : i + chunk]
        vals[i : i + chunk] = np.cos(np.outer(xc - center, yq)) @ pw
    return _TableFunc(float(xs[0]), step, vals)


def _fit_rational_envelope(table: _TableFunc, center: float, scale: float) -> Envelope:
    """Smallest A with |w(x)| <= A (1 + |x|/scale)^-4 on the table grid."""
    amp = float(np.max(np.abs(table.values) * (1.0 + np.abs(table.grid) / scale) ** 4))
    return rational_envelope(amp, scale)


@lru_cache(maxsize=None)
def _make_meyer() -> WaveletPair:
    f_w = _cosine_table(
        _meyer_f_hat_abs,
        2.0 * _TWO_PI_3,
        0.0,
        _MEYER_TABLE_HALFWIDTH,
        _MEYER_TABLE_STEP,
        _MEYER_BAND_NODES,
    )
    m_w = _cosine_table(
        _meyer_m_hat_abs,
        4.0 * _TWO_PI_3,
        0.5,
        _MEYER_TABLE_HALFWIDTH,
        _MEYER_TABLE_STEP,
        2 * _MEYER_BAND_NODES,
    )
    env_f = _fit_rational_envelope(f_w, 0.0, _MEYER_ENVELOPE_SCALE)
    env_m = _fit_rational_envelope(m_w, 0.5, _MEYER_ENVELOPE_SCALE)
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
    """Build a wavelet pair from its spec string.

    Accepted: "haar", "daubechies:2|3|4", "meyer".  Haar is discontinuous
    (``continuous=False``): it violates the continuity hypothesis of the
    mean-square theory and is meant for arithmetic tests only.
    """
    if family == "haar":
        pair = _make_haar()
    elif family == "meyer":
        pair = _make_meyer()
    elif family.startswith("daubechies:"):
        try:
            order = int(family.split(":", 1)[1])
        except ValueError:
            raise ValidationError(f"bad daubechies order in {family!r}") from None
        if order not in _DAUBECHIES_ORDERS:
            raise ValidationError(
                f"daubechies order must be one of {_DAUBECHIES_ORDERS}"
            )
        pair = _make_daubechies(order)
    else:
        raise ValidationError(f"unknown wavelet family {family!r}")
    _check_domination(pair)
    return pair


def eval_dilated(basis: WaveletPair, which: str, j: int, k: int, t):
    """2^{j/2} w(2^j t - k) for the selected mother function w.

    ``which`` is "f" (scaling) or "m" (wavelet); j >= 0.
    """
    if j < 0:
        raise ValidationError("dilation level j must be >= 0")
    if which == "f":
        w = basis.f_wavelet
    elif which == "m":
        w = basis.m_wavelet
    else:
        raise ValidationError("which must be 'f' or 'm'")
    t = np.asarray(t, dtype=float)
    return 2.0 ** (j / 2.0) * w(2.0**j * t - k)


def envelope_constant(env: Envelope) -> float:
    """C_delta = 3 Phi(0) + 4 int_{1/2}^inf Phi: bounds sup_x sum_k |w(x-k)|."""
    return 3.0 * float(env.big_phi(0.0)) + 4.0 * env.tail_integral(0.5)


def tail_constant(env: Envelope, T: float, k1: int) -> float:
    """C_delta(T, k1) = int_{k1-T-1}^inf Phi + int_{k1-1}^inf Phi.

    Bounds sup_{|x|<=T} sum_{|k|>=k1} |w(x-k)|; requires k1 >= T + 1.
    """
    if k1 < T + 1:
        raise ValidationError("tail constant requires k1 >= T + 1")
    return env.tail_integral(k1 - T - 1.0) + env.tail_integral(k1 - 1.0)


@lru_cache(maxsize=None)
def _lattice_table(basis: WaveletPair, which: str):
    """Per-residue prefix sums of |w| over the nodes of its value table.

    A node sits at g dx with g integer and 1/dx = P an integer; writing
    g = P c + r (0 <= r < P) puts it at x = c + r dx.  Row r then lists the
    values |w(r dx + c)| over the integers c, so the lattice sum at any node
    with residue r is the row total.  Returns (dx, c_min, cum) with
    cum[r, i] = sum over the first i columns of row r, or None when the
    function has no table aligned with the integer lattice.
    """
    w = basis.f_wavelet if which == "f" else basis.m_wavelet
    if not isinstance(w, _TableFunc):
        return None
    P = round(1.0 / w.dx)
    s = round(w.x0 / w.dx)
    if P * w.dx != 1.0 or s * w.dx != w.x0:
        return None
    g = s + np.arange(len(w.values))
    c_min = int(g.min() // P)
    A = np.zeros((P, int(g.max() // P) - c_min + 1))
    A[g % P, g // P - c_min] = np.abs(w.values)
    cum = np.concatenate([np.zeros((P, 1)), np.cumsum(A, axis=1)], axis=1)
    return w.dx, c_min, cum


def _which_envelope(basis: WaveletPair, which: str) -> Envelope:
    if which not in ("f", "m"):
        raise ValidationError("which must be 'f' or 'm'")
    return basis.envelope_f if which == "f" else basis.envelope_m


def lattice_constant(basis: WaveletPair, which: str) -> float:
    """sup_x sum_k |w(x-k)| for the function the code evaluates.

    Linear interpolation between table nodes makes each |w(x-k)| convex on
    every table cell, and the cells of all integer shifts line up, so the
    supremum is attained at a node; a step function is constant on its
    cells.  The node sums are exact row totals of ``_lattice_table``.
    Functions without an aligned table fall back to ``envelope_constant``.
    """
    env = _which_envelope(basis, which)
    table = _lattice_table(basis, which)
    if table is None:
        return envelope_constant(env)
    return float(table[2][:, -1].max())


@lru_cache(maxsize=None)
def lattice_tail_constant(basis: WaveletPair, which: str, T: float, k1: int) -> float:
    """sup_{|x|<=T} sum_{|k|>=k1} |w(x-k)| for the function the code evaluates.

    Requires k1 >= T + 1, like ``tail_constant``.  On a table cell the sum
    is convex (linear interpolation) or constant on the half-open cell
    (steps), so its supremum over the part of the cell inside [-T, T] is
    attained at a node g dx of that cell with |g| <= G = ceil(T / dx); the
    maximum is taken over those nodes.  A node x = q + r dx carries the tail
    sum_{c <= q-k1} + sum_{c >= q+k1} of row r; only integer parts q within
    reach of the table support can give a nonzero tail, which keeps the
    work independent of T.  Functions without an aligned table fall back to
    ``tail_constant``.
    """
    if k1 < T + 1:
        raise ValidationError("tail constant requires k1 >= T + 1")
    env = _which_envelope(basis, which)
    table = _lattice_table(basis, which)
    if table is None:
        return tail_constant(env, T, k1)
    dx, c_min, cum = table
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
