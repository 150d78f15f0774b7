"""Wavelet coefficients of sample paths, truncated reconstructions, and
coefficient second moments.

Index convention: the truncated expansion keeps the scaling band
|k| <= k0' at level 0 and detail levels j = 0..n-1 with |k| <= k_j.
Coefficient order is always: scaling k = -k0'..k0', then per level j
ascending, k = -k_j..k_j (``TruncationScheme.indices``).  A path's
coefficients are one vector in that order, ``CoefficientSet.values``.

One pipeline expands paths: every basis row comes from one evaluator
(``_rows``, behind ``basis_matrix``), and every coefficient from one
product of rows times trapezoid weights with path values, over the union
of the grid nodes where the rows can be nonzero (``_weighted_rows``,
``wavelets.dilated_support``).  ``compute_coefficients`` runs it on one
path and ``lp_error`` integrates over the [0, T] nodes
(``interval_window``).  Only ``block_lp_errors``, which serves nested
schemes from the rows of the largest that are nonzero on [0, T], takes
many paths: one fixed-width block of the sampler's rows at a time, with
one product for the coefficients, one for the reconstructions of every
scheme and one for all their window integrals, on one BLAS thread, so
every per-path error is the same bit for bit whatever the number of paths
or of threads.  ``batch_lp_errors`` runs it over a ``SampleBatch``, whose
rows are its paths; the experiment runs it in the sampler's threads, on
each block as it is drawn.

Every second moment of the coefficients comes from one function,
``coefficient_moments``: the Gram matrix, the cross moments with X(t) and,
for rank-one models, the factors int g w_a.  It has two integrators,
chosen from the model and the basis alone.  On a band-limited basis
(Meyer), a model with spectral data integrates R_hat (or g_hat) against
the wavelet transforms over their finite band: a few matrix products on
Gauss panels between the dilated kinks of the transforms
(``wavelets.band_breaks``).  Every other
pair (Haar, Daubechies, or a ``Kernel`` model, which has no spectral data) integrates the
covariance against the dilated wavelets over one Simpson node set per
wavelet; that tensor quadrature is also the test oracle of the first.
The Parseval integral of |R_hat| |w_hat|^2 (the proof-side upper bound of
a level moment) and k-independent spectral bounds driven by a Lipschitz
estimate of the wavelet transform near zero serve the uniform route.
One Gauss panel rule serves every integral over a band-limited transform:
the Parseval values and the xi bound take the engine's panels of the band.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

from .errors import (
    DivergenceError,
    NumericError,
    ResourceLimitError,
    SupportCoverageError,
    ValidationError,
)
from .processes import _PATH_BLOCK, ProcessModel, RankOne, SampleBatch, SamplePath, Stationary, _one_blas_thread
from .quad import gauss_legendre, gauss_nodes, piecewise_simpson_nodes, trapezoid_weights
from .wavelets import WaveletPair, band_breaks, dilated_support, eval_dilated, lipschitz_fit

_MAX_MOMENT_COEFFICIENTS = 200
# Frequency-side moment rule: Gauss-Legendre panels of _PANEL_NODES nodes,
# each spanning at most _PANEL_PHASE radians of the fastest phase; the span
# below the first positive kink split geometrically down to 2^-_ZERO_GRADING
# of it; _CHUNK_NODES nodes per matrix product.
_PANEL_NODES = 24
_PANEL_PHASE = 8.0
_ZERO_GRADING = 30
_CHUNK_NODES = 512


@dataclass(frozen=True)
class TruncationScheme:
    """Index cuts of a truncated expansion.

    ``k0_prime = -1`` encodes an empty scaling band (no terms at all when
    ``levels`` is empty too); otherwise k0_prime >= 0.  Every cut is an
    int or a numpy integer (not a bool), stored as an int.
    """

    k0_prime: int
    levels: Tuple[int, ...] = ()

    def __post_init__(self):
        try:
            cuts = (self.k0_prime, *self.levels)
        except TypeError:  # levels not a sequence, e.g. a bare int
            raise ValidationError(f"scheme cuts must be integers, got levels {self.levels!r}") from None
        if any(isinstance(k, bool) or not isinstance(k, (int, np.integer)) for k in cuts):
            raise ValidationError(f"scheme cuts must be integers, got {cuts!r}")
        object.__setattr__(self, "k0_prime", int(self.k0_prime))
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
    """Computed expansion coefficients: ``values[i]`` is the coefficient of
    ``scheme.indices()[i]``."""

    scheme: TruncationScheme
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.shape != (self.scheme.count(),):
            raise ValidationError(f"values has shape {self.values.shape}, the scheme ({self.scheme.count()},)")


# ---------------------------------------------------------------------------
# Effective supports and basis matrices


@lru_cache(maxsize=None)
def _effective_support(basis: WaveletPair, which: str) -> float:
    env = basis.envelope_f if which == "f" else basis.envelope_m
    return env.effective_support()


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


def _rows(basis: WaveletPair, idx, t) -> np.ndarray:
    """Dilated basis values [row, point] at the points ``t``, one row per
    index (kind, j, k) of ``idx``: the one evaluator of the basis rows."""
    t = np.asarray(t, dtype=float)
    B = np.empty((len(idx),) + t.shape)
    for r, (kind, j, k) in enumerate(idx):
        B[r] = eval_dilated(basis, kind, j, k, t)
    return B


def basis_matrix(basis: WaveletPair, scheme: TruncationScheme, t) -> np.ndarray:
    """Rows of dilated basis values on ``t``, one row per scheme index."""
    return _rows(basis, scheme.indices(), t)


# ---------------------------------------------------------------------------
# Coefficients, reconstruction, Lp error


def interval_window(grid, T: float):
    """The nodes of ``grid`` in [0, T], as a slice, and their trapezoid weights.

    0 and T must be grid nodes (to within 1e-9 of the first step), so the
    trapezoid rule covers the whole of [0, T].
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size < 2:
        raise ValidationError("grid needs at least two nodes")
    tol = 1e-9 * (grid[1] - grid[0])
    if not T > 0 or grid[0] > tol or grid[-1] < T - tol:
        raise ValidationError("[0, T] must be a nonempty interval inside the path grid")
    i0, i1 = np.searchsorted(grid, [-tol, T - tol])
    if grid[i0] > tol or grid[i1] > T + tol:
        raise ValidationError(f"0 and T = {T:g} must be nodes of the path grid")
    window = slice(int(i0), int(i1) + 1)
    return window, trapezoid_weights(grid[window])


def _node_spans(basis: WaveletPair, idx, grid):
    """Node ranges [start, stop) of the ascending ``grid``, one per index
    (kind, j, k): the nodes in its ``dilated_support``, so the row is
    exactly 0 on every other node."""
    bounds = np.array([dilated_support(basis, kind, j, k) for kind, j, k in idx]).reshape(-1, 2)
    return np.searchsorted(grid, bounds[:, 0], "left"), np.searchsorted(grid, bounds[:, 1], "right")


def _weighted_rows(basis: WaveletPair, idx, spans, grid):
    """The rows ``idx`` times the trapezoid weights of ``grid``, on the
    union of their node spans only, and that union as a slice: the
    coefficients of a path x are ``Bw @ x[nodes]``."""
    if not idx:
        return np.zeros((0, 0)), slice(0, 0)
    nodes = slice(int(spans[0].min()), int(spans[1].max()))
    return _rows(basis, idx, grid[nodes]) * trapezoid_weights(grid)[nodes], nodes


def block_lp_errors(basis: WaveletPair, schemes, grid, p: float, T: float):
    """The per-block step of ``batch_lp_errors``: checks the arguments and
    returns ``expand(block, out)``, which writes into the (scheme, path)
    array ``out`` the errors of the first ``out.shape[1]`` rows of
    ``block``, a fixed-width array of paths on ``grid`` (rows past those
    are padding).

    Only the rows of the last scheme that are nonzero somewhere in [0, T]
    take part, as no other row changes an expansion there.  Each scheme
    reconstructs on the nodes in [0, T] only, from the window's basis
    matrix with the rows it does not keep zeroed; the schemes' matrices
    are stacked into one.  Per block, one product gives the coefficients,
    one more every scheme's reconstruction, and one the window integrals
    of all schemes.  Every product has the same shape and runs on one BLAS
    thread, so a path's errors depend neither on the other rows of its
    block nor on the thread counts.  ``expand`` may run in several threads
    at once.
    """
    if not 1 <= p < math.inf:
        raise ValidationError("p must be >= 1 and finite")
    schemes = tuple(schemes)
    if not schemes:
        raise ValidationError("need at least one truncation scheme")
    full = schemes[-1]
    if not all(full.contains(s) for s in schemes):
        raise ValidationError(f"every scheme must be contained in the last, {full.spec_string()}")
    check_support_coverage(basis, full, grid)
    window, w = interval_window(grid, T)
    idx = full.indices()
    starts, stops = _node_spans(basis, idx, grid)
    kept = np.flatnonzero((starts < window.stop) & (stops > window.start))
    rows = [idx[r] for r in kept]
    Bw, nodes = _weighted_rows(basis, rows, (starts[kept], stops[kept]), grid)
    B = _rows(basis, rows, grid[window])
    members = [set(scheme.indices()) for scheme in schemes]
    # (scheme, node) x row: each scheme's B.T, the rows it does not keep zeroed
    masked = np.concatenate([B * np.array([i in m for i in rows], dtype=float)[:, None] for m in members], 1).T

    def expand(block, out):
        with _one_blas_thread():
            d = masked @ (Bw @ block[:, nodes].T)
            per_scheme = d.reshape(len(schemes), -1, len(block))
            np.subtract(per_scheme, block[:, window].T, out=per_scheme)
            np.abs(d, out=d)
            d **= p
            out[...] = (w @ per_scheme)[:, : out.shape[1]]

    return expand


def batch_lp_errors(basis: WaveletPair, schemes, paths: SampleBatch, p: float, T: float) -> np.ndarray:
    """Per-path int_0^T |X(t) - X_n(t)|^p dt [scheme, path] for the batch's
    paths and each of the ``schemes``, which the last one must contain.

    The paths go through ``block_lp_errors``' step in the sampler's blocks
    of ``_PATH_BLOCK`` rows of ``paths.values``, one after another, the
    last block zero-padded to the full width, so path i's errors do not
    depend on the number of paths.
    """
    schemes = tuple(schemes)
    expand = block_lp_errors(basis, schemes, paths.grid, p, T)
    X = paths.values
    errors = np.empty((len(schemes), len(X)))
    for start in range(0, len(X), _PATH_BLOCK):
        block = X[start : start + _PATH_BLOCK]
        out = errors[:, start : start + len(block)]
        if len(block) < _PATH_BLOCK:
            block = np.concatenate([block, np.zeros((_PATH_BLOCK - len(block), X.shape[1]))])
        expand(block, out)
    return errors


def compute_coefficients(
    path: SamplePath, basis: WaveletPair, scheme: TruncationScheme
) -> CoefficientSet:
    """Trapezoid inner products of one path with the scheme's basis rows,
    whose effective supports the path grid must cover (``_weighted_rows``)."""
    check_support_coverage(basis, scheme, path.grid)
    grid = np.asarray(path.grid, dtype=float)
    idx = scheme.indices()
    Bw, nodes = _weighted_rows(basis, idx, _node_spans(basis, idx, grid), grid)
    return CoefficientSet(scheme, Bw @ path.values[nodes])


def reconstruct(coeffs: CoefficientSet, basis: WaveletPair, t_grid) -> np.ndarray:
    """Evaluate the truncated expansion at the given points."""
    t = np.asarray(t_grid, dtype=float)
    return (basis_matrix(basis, coeffs.scheme, t.reshape(-1)).T @ coeffs.values).reshape(t.shape)


def lp_error(path: SamplePath, recon, p: float, T: float) -> float:
    """int_0^T |X(t) - recon(t)|^p dt by trapezoid over the grid nodes in
    [0, T]; ``recon`` holds values on the whole path grid.

    0 and T must be nodes of the path grid (``interval_window``).  Returns
    the integral itself (not its p-th root), which is the quantity the
    exceedance bounds refer to.
    """
    if not 1 <= p < math.inf:
        raise ValidationError("p must be >= 1 and finite")
    if np.shape(recon) != np.shape(path.values):
        raise ValidationError(f"recon has shape {np.shape(recon)}, the path {np.shape(path.values)}")
    window, w = interval_window(path.grid, T)
    return float(w @ np.abs(path.values[window] - np.asarray(recon)[window]) ** p)


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
    tails.  A discontinuous basis (Haar) is a step table: its cell edges
    become segment boundaries and values are taken from segment interiors,
    which keeps the rule exact for its piecewise-constant factors.
    """
    s = _effective_support(basis, which)
    core_h = 1.0 / 32.0
    which_fn = basis.f_wavelet if which == "f" else basis.m_wavelet
    if not basis.continuous:
        breaks = sorted({-s, s} | {x for x in which_fn.grid if -s < x < s})
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

    Coefficient c_a = int X(u) w_a(u) du with w_a = 2^{j/2} w(2^j u - k).
    Returns

    * for rank-one models, R(u, v) = g(u) g(v): the vector gamma_a =
      int g w_a, from which E[c_a c_b] = gamma_a gamma_b and
      E[c_a X(t)] = gamma_a g(t);
    * otherwise the pair (G, M): the Gram matrix G = E[c c^T] and the
      cross moments M[a, i] = E[c_a X(t_i)] at the points ``t`` (a tuple
      of floats, like ``idx`` hashable for the cache).

    Two integrators, chosen from the model and the basis alone
    (``_frequency_side``): models with spectral data on a band-limited
    basis (Meyer) integrate R_hat or g_hat against the transforms over a
    finite frequency band (``_frequency_moments``); every other pair runs
    the time-side tensor quadrature of the covariance (``_tensor_moments``).

    Cached per (model, basis, idx, t), so the arrays are read-only; more
    than 200 coefficients raise ResourceLimitError.
    """
    if len(idx) > _MAX_MOMENT_COEFFICIENTS:
        raise ResourceLimitError(
            f"{len(idx)} coefficients (limit {_MAX_MOMENT_COEFFICIENTS} for moment quadrature)"
        )
    t = np.asarray(t, dtype=float)
    if _frequency_side(model, basis):
        out = _frequency_moments(model, basis, idx, t)
    else:
        out = _tensor_moments(model, basis, idx, t)
    for arr in out if isinstance(out, tuple) else (out,):
        arr.setflags(write=False)
    return out


def _frequency_side(model: ProcessModel, basis: WaveletPair) -> bool:
    """True when ``coefficient_moments`` integrates on the frequency side:
    a band-limited basis and a stationary or rank-one model."""
    return band_limited(basis) and isinstance(model.structure, (Stationary, RankOne))


def _tensor_moments(model: ProcessModel, basis: WaveletPair, idx, t):
    """Time-side moments: the covariance (or g) integrated against the
    dilated wavelets over the Simpson nodes of each wavelet
    (``_scaled_nodes``), mapped to u = (x + k) / 2^j.  Serves the
    compactly supported bases, whose transforms decay too slowly for the
    frequency side, and ``Kernel`` models (no spectral data); it is also the test
    oracle of ``_frequency_moments``.
    """
    nodes = []
    for kind, j, k in idx:
        x, w, vals = _scaled_nodes(basis, kind)
        nodes.append(((x + k) / 2.0**j, w, vals, 2.0 ** (-j / 2.0)))
    if isinstance(model.structure, RankOne):
        # summed as w * g * v: near-complete schemes cancel g - gamma . B to
        # ~1e-7 of g, where another summation order shows at 1e-9 in c
        g = model.structure.g
        return np.array([s * np.sum(w * np.asarray(g(u), dtype=float) * v) for u, w, v, s in nodes])
    nodes = [(u, w * v * s) for u, w, v, s in nodes]
    G, M = np.empty((len(nodes), len(nodes))), np.empty((len(nodes), len(t)))
    for a, (ua, wa) in enumerate(nodes):
        M[a] = wa @ model.covariance(ua[:, None], t[None, :])
        for b, (ub, wb) in enumerate(nodes[a:], start=a):
            G[a, b] = G[b, a] = wa @ model.covariance(ua[:, None], ub[None, :]) @ wb
    return G, M


def _frequency_segments(basis: WaveletPair, idx):
    """Integration segments on z >= 0: between consecutive dilated kinks
    2^j b (``band_breaks``) of the indexed transforms, with the span below
    the first positive kink split geometrically toward z = 0, where a
    spectral density may peak (OU at a small rate)."""
    ends = {2.0**j * b for kind, j, _ in idx for b in band_breaks(basis, kind)}
    first = min((e for e in ends if e > 0.0), default=0.0)
    ends.update(first * 2.0**-i for i in range(1, _ZERO_GRADING + 1))
    ends = sorted(ends)
    return list(zip(ends[:-1], ends[1:]))


def _dilated_hats(basis: WaveletPair, idx, z) -> np.ndarray:
    """A[z, a] = 2^{-j/2} w_hat(z / 2^j) e^{-izk/2^j}, the transforms of the
    dilated wavelets ``idx`` at the nodes z."""
    groups = sorted({(kind, j) for kind, j, _ in idx})
    H = np.column_stack(
        [2.0 ** (-j / 2.0) * (basis.f_hat if kind == "f" else basis.m_hat)(z / 2.0**j) for kind, j in groups]
    )
    cols = [groups.index((kind, j)) for kind, j, _ in idx]
    shifts = np.array([k / 2.0**j for _, j, k in idx])
    return H[:, cols] * np.exp(-1j * np.outer(z, shifts))


def _frequency_moments(model: ProcessModel, basis: WaveletPair, idx, t):
    """Frequency-side moments on a band-limited basis, with w_hat_a the
    transform of w_a (``_dilated_hats``):

        G[a, b]  = (1/2pi) int R_hat(z) conj(w_hat_a(z)) w_hat_b(z) dz,
        M[a, i]  = (1/2pi) Re int R_hat(z) conj(w_hat_a(z)) e^{-i z t_i} dz,
        gamma_a  = (1/2pi) Re int g_hat(z) conj(w_hat_a(z)) dz.

    The integrands are Hermitian in z, so each is (1/pi) Re of the
    integral over z >= 0, where w_hat_a vanishes outside
    [2^j lo, 2^j hi].  Each segment between dilated kinks is covered by
    Gauss-Legendre panels of ``_PANEL_NODES`` nodes, as many as keep the
    fastest phase in play, max(|t|, (|k| + 1) / 2^j) over the segment's
    coefficients, within ``_PANEL_PHASE`` radians per panel for both the
    products conj(w_hat_a) w_hat_b and conj(w_hat_a) e^{-izt}.  Nodes are
    processed in chunks of ``_CHUNK_NODES``, so the phase matrix
    e^{-izt} stays small.  Each segment adds only the coefficients whose
    band covers it, so levels more than one apart never meet.
    """
    lo = np.array([2.0**j * band_breaks(basis, kind)[0] for kind, j, _ in idx])
    hi = np.array([2.0**j * band_breaks(basis, kind)[-1] for kind, j, _ in idx])
    k_rate = np.array([(abs(k) + 1.0) / 2.0**j for _, j, k in idx])
    t_rate = float(np.max(np.abs(t), initial=0.0))
    rank_one = isinstance(model.structure, RankOne)
    gamma = np.zeros(len(idx))
    G, M = np.zeros((len(idx), len(idx))), np.zeros((len(idx), len(t)))
    x, w = gauss_legendre(_PANEL_NODES)
    for a, b in _frequency_segments(basis, idx):
        act = np.flatnonzero((lo <= a) & (hi >= b))
        if act.size == 0:
            continue
        rate = max(t_rate, float(np.max(k_rate[act])))
        edges = np.linspace(a, b, max(1, math.ceil(2.0 * rate * (b - a) / _PANEL_PHASE)) + 1)
        half = 0.5 * np.diff(edges)
        z = ((edges[:-1] + half)[:, None] + half[:, None] * x).ravel()
        wz = (half[:, None] * w).ravel()
        sub = [idx[i] for i in act]
        for s in range(0, z.size, _CHUNK_NODES):
            zc, wc = z[s : s + _CHUNK_NODES], wz[s : s + _CHUNK_NODES]
            A = _dilated_hats(basis, sub, zc)
            if rank_one:
                gamma[act] += ((wc * model.structure.g_hat(zc)) @ np.conj(A)).real
                continue
            B = np.conj(A) * (wc * np.asarray(model.structure.r_hat(zc), dtype=float))[:, None]
            G[np.ix_(act, act)] += (B.T @ A).real
            if t.size:
                M[act] += (B.T @ np.exp(-1j * np.outer(zc, t))).real
    if rank_one:
        return gamma / math.pi
    # Re(B^H A) is symmetric up to rounding; averaging makes it exact
    return (G + G.T) / (2.0 * math.pi), M / math.pi


def second_moment_eta(model: ProcessModel, basis: WaveletPair, j: int, k: int) -> float:
    """E|eta_jk|^2 = int int R(u,v) psi_jk(u) psi_jk(v) du dv, the 1 x 1 case
    of ``coefficient_moments``."""
    if j < 0:
        raise ValidationError("level j must be >= 0")
    moments = coefficient_moments(model, basis, (("m", j, k),))
    val = float(moments[0] ** 2) if isinstance(model.structure, RankOne) else float(moments[0][0, 0])
    if val < -1e-8:
        raise NumericError(f"second moment quadrature came out negative ({val:.3e})")
    return max(val, 0.0)


# ---------------------------------------------------------------------------
# Frequency-side integrals


def band_limited(basis: WaveletPair) -> bool:
    """True when the transforms vanish outside a finite band
    (``band_breaks``), so frequency-side moments are exact (Meyer).  Haar
    and Daubechies transforms decay slowly; their window ends at +-2^22."""
    return band_breaks(basis, "m") is not None


def _hat_window(basis: WaveletPair, which: str):
    """Integration segments of w_hat and Gauss nodes per segment: on a band
    the moment engine's (``_frequency_segments`` above the lower edge,
    mirrored to z < 0) with ``_PANEL_NODES`` each, so one rule serves every
    integral over the band; otherwise [-64, 64] plus log-spaced segments out
    to +-2^22 with 2048 each."""
    breaks = band_breaks(basis, which)
    if breaks is not None:
        band = [(a, b) for a, b in _frequency_segments(basis, ((which, 0, 0),)) if a >= breaks[0]]
        return [(-b, -a) for a, b in reversed(band)] + band, _PANEL_NODES
    edges = [2.0**e for e in range(6, 23)]
    outer = list(zip(edges[:-1], edges[1:]))
    return [(-b, -a) for a, b in reversed(outer)] + [(-64.0, 64.0)] + outer, 2048


@lru_cache(maxsize=None)
def _hat_nodes(basis: WaveletPair, which: str):
    """Window nodes (``_hat_window``), quadrature weights and |w_hat| at the
    nodes; shared by the level moments and the xi bound of the basis."""
    segments, n = _hat_window(basis, which)
    u, w = zip(*(gauss_nodes(a, b, n) for a, b in segments))
    u = np.concatenate(u)
    hat = basis.f_hat if which == "f" else basis.m_hat
    return u, np.concatenate(w), np.abs(np.atleast_1d(hat(u)))


def _parseval_integral(model: ProcessModel, basis: WaveletPair, which: str, j: int) -> float:
    """(1/2pi) int |R_hat(2^j u)| |w_hat(u)|^2 du over the window nodes of w_hat."""
    u, w, h = _hat_nodes(basis, which)
    rh = np.abs(np.asarray(model.structure.r_hat(2.0**j * u), dtype=float))
    return float(np.sum(w * h**2 * rh)) / (2.0 * math.pi)


def second_moment_eta_parseval(model: ProcessModel, basis: WaveletPair, j: int) -> float:
    """Frequency-side value (1 / 2^{j+1} pi) int |R_hat(z)| |psi_hat(z/2^j)|^2 dz.

    For nonnegative spectral densities this equals E|eta_jk|^2 exactly; in
    general it is the upper bound the dominance tests compare against.
    """
    if not isinstance(model.structure, Stationary):
        raise ValidationError("frequency-side moment needs a spectral density")
    return _parseval_integral(model, basis, "m", j)


@lru_cache(maxsize=None)
def _lipschitz_constant(basis: WaveletPair, gamma: float) -> float:
    return lipschitz_fit(basis, [gamma])[1]


def _abs_weight_integral(func, order: float) -> float:
    """int_R |func(z)| |z|^order dz with a numeric tail-decay test.

    The inner part uses a z = v^2 substitution (smooth through the |z|^order
    kink at 0) plus log-spaced Gauss segments; beyond the window the decay
    exponent is probed and the tail closed by a power law, or a
    DivergenceError is raised when the probe does not decay.
    """
    def f(z):
        return np.abs(func(z)) * np.abs(z) ** order  # |g_hat|: a complex modulus

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
    """k-independent bound on E|eta_jk|^2 from the model's spectral data.

    Stationary short-memory models, with C the Lipschitz constant of the
    wavelet transform at exponent order/2 (the transform enters squared):

        C^2 / (pi 2^{1 + j(1+order)}) * int |R_hat(z)| |z|^order dz,

    which decays exactly by 2^-(1+order) per level.  Rank-one models
    R(u,v) = g(u) g(v), with C the Lipschitz constant at exponent ``order``:

        C^2 / ((2 pi)^2 2^{j(1+2 order)}) * (int |g_hat(z)| |z|^order dz)^2.
    """
    if not isinstance(model.structure, (Stationary, RankOne)):
        raise ValidationError("spectral bound needs a stationary or rank-one model")
    if order <= 0:
        raise ValidationError("order must be positive")
    if isinstance(model.structure, Stationary):
        C = _lipschitz_constant(basis, order / 2.0)
        W = _abs_weight_integral(model.structure.r_hat, order)
        return C * C * W / (math.pi * 2.0 ** (1.0 + j * (1.0 + order)))
    C = _lipschitz_constant(basis, order)
    w1 = _abs_weight_integral(model.structure.g_hat, order)
    return C * C * (w1 * w1) / ((2.0 * math.pi) ** 2 * 2.0 ** (j * (1.0 + 2.0 * order)))


# the rank-one name, kept for bench/layers.py; goes when it calls the one above
second_moment_eta_spectral_bound_ns = second_moment_eta_spectral_bound


def second_moment_xi_bound(model: ProcessModel, basis: WaveletPair) -> float:
    """k-independent bound on E|xi_0k|^2.

    Stationary: (1/2 pi) int |R_hat(z)| |phi_hat(z)|^2 dz.  Rank-one:
    ((1/2 pi) int |g_hat(z)| |phi_hat(z)| dz)^2.
    """
    if isinstance(model.structure, Stationary):
        return _parseval_integral(model, basis, "f", 0)
    if isinstance(model.structure, RankOne):
        u, w, ph = _hat_nodes(basis, "f")
        gh = np.abs(model.structure.g_hat(u))  # a complex modulus, not |Re g_hat|
        val = float(np.sum(w * gh * ph)) / (2.0 * math.pi)
        return val * val
    raise ValidationError("scaling-coefficient bound needs spectral data")
