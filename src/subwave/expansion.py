"""Wavelet coefficients of sample paths, truncated reconstructions, and
coefficient second moments.

Index convention: the truncated expansion keeps the scaling band
|k| <= k0' at level 0 and detail levels j = 0..n-1 with |k| <= k_j.
Coefficient order is always: scaling k = -k0'..k0', then per level j
ascending, k = -k_j..k_j.

Coefficients, reconstruction and the Lp([0,T]) error integral have one
batched implementation over a matrix of paths [grid node, path]
(``batch_coefficients``, ``batch_reconstruct``, ``batch_lp_errors``, with
the [0, T] node window of ``interval_window``); ``compute_coefficients``,
``reconstruct`` and ``lp_error`` run it on a single path.

Every time-side second moment of the coefficients comes from one function,
``coefficient_moments``: the covariance integrated against the dilated
wavelets over one Simpson node set per wavelet, giving the Gram matrix,
the cross moments with X(t) and, for rank-one models, the factors
int g w_a.  The frequency-side integral (stationary models; the proof-side
upper bound for the time-side value) and k-independent spectral bounds
driven by a Lipschitz estimate of the wavelet transform near zero serve
the uniform route.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Tuple

import numpy as np

from .errors import (
    DivergenceError,
    NumericError,
    ResourceLimitError,
    SupportCoverageError,
    ValidationError,
)
from .processes import ProcessModel, SamplePath
from .quad import gauss_nodes, piecewise_simpson_nodes, trapezoid_weights
from .wavelets import WaveletPair, eval_dilated

_TAIL_MASS = 1e-6  # relative envelope tail mass defining effective supports
_TWO_PI_3 = 2.0 * math.pi / 3.0
_MAX_MOMENT_COEFFICIENTS = 200


@dataclass(frozen=True)
class TruncationScheme:
    """Index cuts of a truncated expansion.

    ``k0_prime = -1`` encodes an empty scaling band (no terms at all when
    ``levels`` is empty too); otherwise k0_prime >= 0.
    """

    k0_prime: int
    levels: Tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(int(k) for k in self.levels))
        if self.k0_prime < -1:
            raise ValidationError("k0_prime must be >= 0 (or -1 for an empty band)")
        if any(k < 0 for k in self.levels):
            raise ValidationError("level cuts must be >= 0")

    @property
    def n(self) -> int:
        return len(self.levels)

    def indices(self):
        """Ordered coefficient indices: ("f", 0, k) then ("m", j, k)."""
        out = [("f", 0, k) for k in range(-self.k0_prime, self.k0_prime + 1)]
        for j, kj in enumerate(self.levels):
            out.extend(("m", j, k) for k in range(-kj, kj + 1))
        return out

    def count(self) -> int:
        base = 0 if self.k0_prime < 0 else 2 * self.k0_prime + 1
        return base + sum(2 * k + 1 for k in self.levels)

    def contains(self, other: "TruncationScheme") -> bool:
        """True when every index of ``other`` is also kept by this scheme."""
        if other.k0_prime > self.k0_prime or other.n > self.n:
            return False
        return all(ko <= ks for ko, ks in zip(other.levels, self.levels))

    def spec_string(self) -> str:
        ks = ",".join(str(k) for k in self.levels)
        return f"k0'={self.k0_prime};k={ks}"


def parse_scheme_spec(spec: str) -> TruncationScheme:
    """Parse "k0'=<int>;k=<int,int,...>" (empty k list allowed)."""
    try:
        left, right = spec.split(";")
        if not left.startswith("k0'=") or not right.startswith("k="):
            raise ValueError
        k0 = int(left[4:])
        body = right[2:]
        levels = tuple(int(x) for x in body.split(",")) if body else ()
    except ValueError:
        raise ValidationError(f"bad scheme spec {spec!r}") from None
    return TruncationScheme(k0_prime=k0, levels=levels)


@dataclass(frozen=True)
class CoefficientSet:
    """Computed expansion coefficients matching a scheme's index set."""

    xi: Dict[int, float]
    eta: Dict[Tuple[int, int], float]
    scheme: TruncationScheme

    def __post_init__(self):
        want_xi = set(range(-self.scheme.k0_prime, self.scheme.k0_prime + 1))
        if set(self.xi) != want_xi:
            raise ValidationError("scaling coefficients do not match the scheme")
        want_eta = {
            (j, k)
            for j, kj in enumerate(self.scheme.levels)
            for k in range(-kj, kj + 1)
        }
        if set(self.eta) != want_eta:
            raise ValidationError("detail coefficients do not match the scheme")

    def vector(self) -> np.ndarray:
        vals = []
        for kind, j, k in self.scheme.indices():
            vals.append(self.xi[k] if kind == "f" else self.eta[(j, k)])
        return np.array(vals)


# ---------------------------------------------------------------------------
# Effective supports and basis matrices


@lru_cache(maxsize=None)
def _effective_support(basis: WaveletPair, which: str) -> float:
    env = basis.envelope_f if which == "f" else basis.envelope_m
    return env.effective_support(_TAIL_MASS)


def _support_interval(basis, kind, j, k):
    s = _effective_support(basis, kind)
    return (k - s) / 2.0**j, (k + s) / 2.0**j


def check_support_coverage(basis: WaveletPair, scheme: TruncationScheme, grid):
    """Raise SupportCoverageError when the grid misses an indexed support."""
    lo, hi = float(grid[0]), float(grid[-1])
    for kind, j, k in scheme.indices():
        a, b = _support_interval(basis, kind, j, k)
        if a < lo - 1e-9 or b > hi + 1e-9:
            raise SupportCoverageError(
                f"grid [{lo:g}, {hi:g}] does not cover the effective support "
                f"[{a:g}, {b:g}] of ({kind}, j={j}, k={k})",
                level=kind,
                j=j,
                k=k,
            )


def basis_matrix(basis: WaveletPair, scheme: TruncationScheme, t) -> np.ndarray:
    """Rows of dilated basis values on ``t``, one row per scheme index."""
    t = np.asarray(t, dtype=float)
    rows = [eval_dilated(basis, kind, j, k, t) for kind, j, k in scheme.indices()]
    if not rows:
        return np.zeros((0, len(t)))
    return np.array(rows)


# ---------------------------------------------------------------------------
# Coefficients, reconstruction, Lp error


def interval_window(grid, T: float):
    """The nodes of ``grid`` in [0, T], as a slice, and their trapezoid weights.

    0 and T must be grid nodes (to within 1e-9 of the first step), so the
    trapezoid rule covers the whole of [0, T].
    """
    grid = np.asarray(grid, dtype=float)
    tol = 1e-9 * (grid[1] - grid[0])
    if not T > 0 or grid[0] > tol or grid[-1] < T - tol:
        raise ValidationError("[0, T] must be a nonempty interval inside the path grid")
    i0, i1 = np.searchsorted(grid, [-tol, T - tol])
    if grid[i0] > tol or grid[i1] > T + tol:
        raise ValidationError(f"0 and T = {T:g} must be nodes of the path grid")
    window = slice(int(i0), int(i1) + 1)
    return window, trapezoid_weights(grid[window])


def batch_coefficients(basis: WaveletPair, scheme: TruncationScheme, grid, X) -> np.ndarray:
    """Trapezoid inner products [coefficient, path] of the columns of X with
    the indexed (real-valued) basis functions, whose effective supports
    (envelope tail mass 1e-6) the grid must cover.
    """
    check_support_coverage(basis, scheme, grid)
    return (basis_matrix(basis, scheme, grid) * trapezoid_weights(grid)) @ X


def batch_reconstruct(basis: WaveletPair, scheme: TruncationScheme, coefs, t) -> np.ndarray:
    """Truncated expansions [point, path] of the coefficient columns at ``t``."""
    return basis_matrix(basis, scheme, t).T @ coefs


def _window_integral(values, recon, w, p: float):
    """w @ |values - recon|^p: the Lp error integral over a node window."""
    if p < 1:
        raise ValidationError("p must be >= 1")
    return w @ (np.abs(values - recon) ** p)


def batch_lp_errors(
    basis: WaveletPair, scheme: TruncationScheme, grid, X, p: float, T: float
) -> np.ndarray:
    """Per-path int_0^T |X(t) - X_n(t)|^p dt for the columns of X.

    The expansion is reconstructed only on the nodes in [0, T].
    """
    window, w = interval_window(grid, T)
    coefs = batch_coefficients(basis, scheme, grid, X)
    recon = batch_reconstruct(basis, scheme, coefs, np.asarray(grid)[window])
    return _window_integral(X[window], recon, w, p)


def compute_coefficients(
    path: SamplePath, basis: WaveletPair, scheme: TruncationScheme
) -> CoefficientSet:
    """The coefficients of one path (``batch_coefficients`` on a batch of one)."""
    vals = batch_coefficients(basis, scheme, path.grid, path.values[:, None])[:, 0]
    idx = list(zip(scheme.indices(), vals.tolist()))
    xi = {k: v for (kind, _, k), v in idx if kind == "f"}
    eta = {(j, k): v for (kind, j, k), v in idx if kind == "m"}
    return CoefficientSet(xi=xi, eta=eta, scheme=scheme)


def coefficients_csv(coeffs: CoefficientSet) -> str:
    """CSV dump ``level,j,k,value`` with level in {phi, psi}."""
    lines = ["level,j,k,value"]
    for kind, j, k in coeffs.scheme.indices():
        if kind == "f":
            lines.append(f"phi,0,{k},{coeffs.xi[k]!r}")
        else:
            lines.append(f"psi,{j},{k},{coeffs.eta[(j, k)]!r}")
    return "\n".join(lines) + "\n"


def reconstruct(coeffs: CoefficientSet, basis: WaveletPair, t_grid) -> np.ndarray:
    """Evaluate the truncated expansion at the given points."""
    t_grid = np.asarray(t_grid, dtype=float)
    recon = batch_reconstruct(basis, coeffs.scheme, coeffs.vector()[:, None], t_grid.reshape(-1))
    return recon.reshape(t_grid.shape)


def lp_error(path: SamplePath, recon, p: float, T: float) -> float:
    """int_0^T |X(t) - recon(t)|^p dt by trapezoid over the grid nodes in
    [0, T]; ``recon`` holds values on the whole path grid.

    0 and T must be nodes of the path grid (``interval_window``).  Returns
    the integral itself (not its p-th root), which is the quantity the
    exceedance bounds refer to.
    """
    window, w = interval_window(path.grid, T)
    return float(_window_integral(path.values[window], np.asarray(recon)[window], w, p))


# ---------------------------------------------------------------------------
# Quadrature node builders (wavelet-argument coordinates)


def _even(n: int) -> int:
    n = max(int(n), 2)
    return n if n % 2 == 0 else n + 1


@lru_cache(maxsize=None)
def _scaled_nodes(basis: WaveletPair, which: str):
    """Simpson nodes/weights over the effective support in wavelet
    coordinates, plus the wavelet values at the nodes.

    Heavy-tailed envelopes (Meyer) get a dense core on [-8, 8] plus sparse
    tails.  Haar's jump points become segment boundaries and values are
    taken from segment interiors, which keeps the rule exact for its
    piecewise-constant factors.
    """
    s = _effective_support(basis, which)
    core_h = 1.0 / 32.0
    if basis.family == "haar":
        jumps = [0.0, 0.5] if which == "m" else [0.0]
        breaks = sorted({-s, s} | {x for x in jumps if -s < x < s})
        panels = [_even((b - a) / core_h) for a, b in zip(breaks[:-1], breaks[1:])]
    elif s <= 20.0:
        breaks = [-s, s]
        panels = [_even(2.0 * s / core_h)]
    else:
        core, tail_h = 8.0, 1.0 / 4.0
        breaks = [-s, -core, core, s]
        panels = [
            _even((s - core) / tail_h),
            _even(2 * core / core_h),
            _even((s - core) / tail_h),
        ]
    which_fn = basis.f_wavelet if which == "f" else basis.m_wavelet
    x, w = piecewise_simpson_nodes(breaks, panels)
    # evaluate strictly inside each node's segment so jump nodes take the
    # one-sided value belonging to that segment
    seg = np.repeat(np.arange(len(panels)), np.asarray(panels) + 1)
    a, b = np.asarray(breaks[:-1])[seg], np.asarray(breaks[1:])[seg]
    nudge = 1e-9 * (b - a)
    return x, w, np.asarray(which_fn(np.clip(x, a + nudge, b - nudge)), dtype=float)


@lru_cache(maxsize=None)
def coefficient_moments(model: ProcessModel, basis: WaveletPair, idx: tuple, t: tuple = ()):
    """Second moments of the coefficients ``idx``, a tuple of (kind, j, k).

    Coefficient c_a = int X(u) w_a(u) du with w_a = 2^{j/2} w(2^j u - k) is
    integrated over the Simpson nodes of its wavelet (``_scaled_nodes``),
    mapped to u = (x + k) / 2^j.  Returns

    * for rank-one models, R(u, v) = g(u) g(v): the vector gamma_a =
      int g w_a, from which E[c_a c_b] = gamma_a gamma_b and
      E[c_a X(t)] = gamma_a g(t);
    * otherwise the pair (G, M): the Gram matrix G = E[c c^T] and the
      cross moments M[a, i] = E[c_a X(t_i)] at the points ``t`` (a tuple
      of floats, like ``idx`` hashable for the cache).

    Cached per (model, basis, idx, t), so the arrays are read-only; more
    than 200 coefficients raise ResourceLimitError.
    """
    if len(idx) > _MAX_MOMENT_COEFFICIENTS:
        raise ResourceLimitError(
            f"{len(idx)} coefficients (limit {_MAX_MOMENT_COEFFICIENTS} for moment quadrature)"
        )
    nodes = []
    for kind, j, k in idx:
        x, w, vals = _scaled_nodes(basis, kind)
        nodes.append(((x + k) / 2.0**j, w, vals, 2.0 ** (-j / 2.0)))
    if model.separable_g is not None:
        # summed as w * g * v: near-complete schemes cancel g - gamma . B to
        # ~1e-7 of g, where another summation order shows at 1e-9 in c
        gamma = np.array(
            [s * np.sum(w * np.asarray(model.separable_g(u), dtype=float) * v) for u, w, v, s in nodes]
        )
        gamma.setflags(write=False)
        return gamma
    nodes = [(u, w * v * s) for u, w, v, s in nodes]
    t = np.asarray(t, dtype=float)
    G, M = np.empty((len(nodes), len(nodes))), np.empty((len(nodes), len(t)))
    for a, (ua, wa) in enumerate(nodes):
        M[a] = wa @ model.covariance(ua[:, None], t[None, :])
        for b, (ub, wb) in enumerate(nodes[a:], start=a):
            G[a, b] = G[b, a] = wa @ model.covariance(ua[:, None], ub[None, :]) @ wb
    G.setflags(write=False)
    M.setflags(write=False)
    return G, M


def second_moment_eta(model: ProcessModel, basis: WaveletPair, j: int, k: int) -> float:
    """E|eta_jk|^2 = int int R(u,v) psi_jk(u) psi_jk(v) du dv, the 1 x 1 case
    of ``coefficient_moments``."""
    if j < 0:
        raise ValidationError("level j must be >= 0")
    moments = coefficient_moments(model, basis, (("m", j, k),))
    val = float(moments[0] ** 2) if model.separable_g is not None else float(moments[0][0, 0])
    if val < -1e-8:
        raise NumericError(f"second moment quadrature came out negative ({val:.3e})")
    return max(val, 0.0)


# ---------------------------------------------------------------------------
# Frequency-side integrals


def band_limited(basis: WaveletPair) -> bool:
    """True when the transforms vanish outside a finite window, so
    frequency-side moments are exact (Meyer).  Haar and Daubechies
    transforms decay slowly; their window ends at +-2^22."""
    return basis.family == "meyer"


def _hat_window(basis: WaveletPair, which: str):
    """Integration segments: the transform's support for band-limited bases,
    otherwise [-64, 64] plus log-spaced segments out to +-2^22."""
    if band_limited(basis):
        if which == "m":
            return [(-4 * _TWO_PI_3, -_TWO_PI_3), (_TWO_PI_3, 4 * _TWO_PI_3)]
        return [(-2 * _TWO_PI_3, 2 * _TWO_PI_3)]
    edges = [2.0**e for e in range(6, 23)]
    outer = list(zip(edges[:-1], edges[1:]))
    return [(-b, -a) for a, b in reversed(outer)] + [(-64.0, 64.0)] + outer


@lru_cache(maxsize=None)
def _hat_nodes(basis: WaveletPair, which: str):
    """Window nodes (2048 Gauss nodes per segment), quadrature weights and
    |w_hat| at the nodes; shared by every frequency-side moment of the basis."""
    u, w = zip(*(gauss_nodes(a, b, 2048) for a, b in _hat_window(basis, which)))
    u = np.concatenate(u)
    hat = basis.f_hat if which == "f" else basis.m_hat
    return u, np.concatenate(w), np.abs(np.atleast_1d(hat(u)))


def second_moment_eta_parseval(model: ProcessModel, basis: WaveletPair, j: int) -> float:
    """Frequency-side value (1 / 2^{j+1} pi) int |R_hat(z)| |psi_hat(z/2^j)|^2 dz.

    For nonnegative spectral densities this equals E|eta_jk|^2 exactly; in
    general it is the upper bound the dominance tests compare against.
    """
    if model.spectral_density is None:
        raise ValidationError("frequency-side moment needs a spectral density")
    u, w, h = _hat_nodes(basis, "m")
    rh = np.abs(np.asarray(model.spectral_density(2.0**j * u), dtype=float))
    return float(np.sum(w * h**2 * rh)) / (2.0 * math.pi)


@lru_cache(maxsize=None)
def _lipschitz_constant(basis: WaveletPair, gamma: float) -> float:
    from .wavelets import lipschitz_fit

    return lipschitz_fit(basis, [gamma])[1]


def _abs_weight_integral(func, order: float) -> float:
    """int_R |func(z)| |z|^order dz with a numeric tail-decay test.

    The inner part uses a z = v^2 substitution (smooth through the |z|^order
    kink at 0) plus log-spaced Gauss segments; beyond the window the decay
    exponent is probed and the tail closed by a power law, or a
    DivergenceError is raised when the probe does not decay.
    """
    def f(z):
        return np.abs(np.asarray(func(z), dtype=float)) * np.abs(z) ** order

    v, wv = gauss_nodes(0.0, math.sqrt(8.0), 512)
    inner = float(np.sum(wv * f(v**2) * 2.0 * v))
    mid = 0.0
    a = 8.0
    while a < 32768.0:
        b = a * 4.0
        z, wz = gauss_nodes(a, b, 256)
        mid += float(np.sum(wz * f(z)))
        a = b
    z_hi = 32768.0
    f_hi = float(f(np.array([z_hi]))[0])
    tail = 0.0
    if f_hi > 1e-300:
        ratios = [float(f(np.array([2.0 * z_hi]))[0]) / f_hi]
        q = math.log2(max(ratios[0], 1e-300))
        if q >= -1.0 - 1e-9:
            raise DivergenceError(
                f"weight integral decays like z^{q:.3f} at the window edge; "
                "int |R_hat| |z|^order dz diverges"
            )
        tail = f_hi * z_hi / (-q - 1.0)
    return 2.0 * (inner + mid) + 2.0 * tail


def second_moment_eta_spectral_bound(
    model: ProcessModel, basis: WaveletPair, j: int, order: float
) -> float:
    """k-independent bound on E|eta_jk|^2 for stationary short-memory models:

        C^2 / (pi 2^{1 + j(1+order)}) * int |R_hat(z)| |z|^order dz,

    where C is the Lipschitz constant of the wavelet transform at exponent
    order/2 (the transform enters squared).  Decays exactly by 2^-(1+order)
    per level.
    """
    if not model.stationary or model.spectral_density is None:
        raise ValidationError("spectral bound needs a stationary model with R_hat")
    if order <= 0:
        raise ValidationError("order must be positive")
    C = _lipschitz_constant(basis, order / 2.0)
    W = _abs_weight_integral(model.spectral_density, order)
    return C * C * W / (math.pi * 2.0 ** (1.0 + j * (1.0 + order)))


def second_moment_eta_spectral_bound_ns(
    model: ProcessModel, basis: WaveletPair, j: int, order: float
) -> float:
    """Non-stationary analogue via the double transform:

        C^2 / ((2 pi)^2 2^{j(1+2 order)}) * int int |R2_hat| |z|^a |w|^a dz dw,

    with C the Lipschitz constant at exponent ``order`` itself.  Rank-one
    models factor the double integral into a 1-D integral squared.
    """
    if model.double_transform is None:
        raise ValidationError("non-stationary spectral bound needs the double transform")
    if order <= 0:
        raise ValidationError("order must be positive")
    C = _lipschitz_constant(basis, order)
    if model.separable_g_hat is not None:
        w1 = _abs_weight_integral(model.separable_g_hat, order)
        W2 = w1 * w1
    else:
        z, wz = gauss_nodes(-64.0, 64.0, 1024)
        F = np.abs(model.double_transform(z[:, None], z[None, :]))
        W2 = float((wz * np.abs(z) ** order) @ F @ (wz * np.abs(z) ** order))
    return C * C * W2 / ((2.0 * math.pi) ** 2 * 2.0 ** (j * (1.0 + 2.0 * order)))


def second_moment_xi_bound(model: ProcessModel, basis: WaveletPair) -> float:
    """k-independent bound on E|xi_0k|^2.

    Stationary: (1/2 pi) int |R_hat(z)| |phi_hat(z)|^2 dz.  Models carrying
    only the double transform use the analogous double integral (rank-one
    factorization when available).
    """
    u, w, ph = _hat_nodes(basis, "f")
    if model.stationary and model.spectral_density is not None:
        rh = np.abs(np.asarray(model.spectral_density(u), dtype=float))
        return float(np.sum(w * ph**2 * rh)) / (2.0 * math.pi)
    if model.separable_g_hat is not None:
        gh = np.abs(np.asarray(model.separable_g_hat(u), dtype=float))
        val = float(np.sum(w * gh * ph)) / (2.0 * math.pi)
        return val * val
    if model.double_transform is not None:
        z, wz = gauss_nodes(-64.0, 64.0, 1024)
        F = np.abs(model.double_transform(z[:, None], z[None, :]))
        ph = np.abs(np.atleast_1d(basis.f_hat(z)))
        return float((wz * ph) @ F @ (wz * ph)) / (2.0 * math.pi) ** 2
    raise ValidationError("scaling-coefficient bound needs spectral data")
