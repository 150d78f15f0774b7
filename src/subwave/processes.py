"""Zero-mean second-order process models and exact Gaussian path simulation.

A model is ``ProcessModel(structure, law)``.  The structure gives the
covariance R(t,s): ``Stationary(r, r_hat)`` (R = r(t - s)), ``RankOne(g,
g_hat)`` (X(t) = g(t) Z) or ``Kernel(covariance)`` (no spectral data).  The
law gives the determinative constant C_X, the one property of a law that
the bounds read: ``Gaussian()`` has C_X = 1, and
``SubGaussian(det_constant)`` states it.  Only Gaussian models are
simulated; the bounds take any C_X.

Simulation is exact: the samples on a grid are L z for standard normals z
and a linear map L with L L^T equal to the covariance matrix K.  L comes
from the structure the model declares.  A rank-one model has L = g(grid)
and one normal per path.  A stationary model whose lag row on the grid is
geometric (OU) is an AR(1) sequence there (Gillespie 1996): its path is
the exact recursion x_i = rho x_(i-1) + sigma z_i, n normals and no FFT,
applied as matrix products over chunks of 32 nodes joined by a pass over
the chunks' carries.
Any other stationary model has a Toeplitz K on the uniform grid, which
embeds in a circulant matrix (Dietrich & Newsam 1997; Wood & Chan 1994)
of the shortest fast FFT length m (2^a 3^b 5^c) from 2(n - 1) up whose
eigenvalues are nonnegative; a path is one ``irfft`` of a spectrum drawn
directly from its m normals.  Any other model, or a stationary one with no
nonnegative embedding up to 8 x 2(n - 1), uses the dense ``eigh`` factor
of K and n normals a path.  One simulation returns one ``SampleBatch``:
the grid, validated once, and the path x grid matrix of values, whose row
i is path i; indexing it gives ``SamplePath`` views.  The normals come
from one SFC64 stream per block of 256 paths, seeded by
SeedSequence(seed, spawn_key=(block,)).  Every sampler is a pure function
of at most 32 rows of normals that writes whole paths into the matrix in
place; ``simulate_paths`` alone cuts the blocks into such slabs and fills
the blocks in parallel, one thread per usable CPU, each on one BLAS
thread, so path i depends only on (seed, i), whatever the number of paths,
of threads or of BLAS threads.  A caller may consume each block in the
thread that filled it (``simulate_paths``' ``on_block``).

The constructors the model specs call are memoised, so one spec always
gives the same model object: a process that parses a spec again (a loop
of runs, not a single CLI call) reuses the moment caches keyed on it.
"""

import csv
import math
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, ClassVar, Union

import numpy as np

from .errors import NumericError, ResourceLimitError, ValidationError
from .quad import gauss_nodes, simpson_nodes

_MAX_GRID_POINTS = 10_000
_PATH_BLOCK = 256  # paths per block of normals and per random stream
_SLAB = 32  # most paths per call of a sampler map: bounds its scratch
_CHUNK = 32  # nodes per chunk of the Markov map's products
_SPECTRAL_MASS_RTOL = 1e-6  # a transform's integral against its function at 0
_EMBEDDING_GROWTH = 8  # circulant length cap, in multiples of the minimal 2(n - 1)


@dataclass(frozen=True)
class Stationary:
    """Stationary: R(t,s) = r(t - s), with spectral density r_hat (r's transform)."""

    r: Callable[[np.ndarray], np.ndarray]
    r_hat: Callable[[np.ndarray], np.ndarray]

    def covariance(self, t, s):
        return self.r(np.asarray(t) - np.asarray(s))


@dataclass(frozen=True)
class RankOne:
    """Rank-one: X(t) = g(t) Z, Z standard normal, R(t,s) = g(t) g(s); g_hat is g's transform."""

    g: Callable[[np.ndarray], np.ndarray]
    g_hat: Callable[[np.ndarray], np.ndarray]

    def covariance(self, t, s):
        return np.asarray(self.g(np.asarray(t))) * np.asarray(self.g(np.asarray(s)))


@dataclass(frozen=True)
class Kernel:
    """A general covariance R(t,s), with no spectral data."""

    covariance: Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Gaussian:
    """Gaussian law: C_X = 1; the law that is simulated."""

    det_constant: ClassVar[float] = 1.0


@dataclass(frozen=True)
class SubGaussian:
    """A phi-sub-Gaussian law given by its determinative constant C_X;
    its models are bounded, not simulated."""

    det_constant: float

    def __post_init__(self):
        if not self.det_constant > 0:
            raise ValidationError("determinative constant must be positive")


@dataclass(frozen=True)
class ProcessModel:
    """A zero-mean process: its covariance structure and its law.

    The covariance comes from the structure and C_X from the law, so no
    field restates another.  Structures and laws are hashable values, so a
    model keys the moment caches.
    """

    structure: Union[Stationary, RankOne, Kernel]
    law: Union[Gaussian, SubGaussian] = Gaussian()

    def __post_init__(self):
        if not isinstance(self.structure, (Stationary, RankOne, Kernel)):
            raise ValidationError(f"structure must be Stationary, RankOne or Kernel, got {self.structure!r}")
        if not isinstance(self.law, (Gaussian, SubGaussian)):
            raise ValidationError(f"law must be Gaussian or SubGaussian, got {self.law!r}")
        _validate_covariance(self)

    @property
    def covariance(self) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        return self.structure.covariance

    @property
    def gaussian(self) -> bool:
        return isinstance(self.law, Gaussian)

    @property
    def det_constant(self) -> float:
        return self.law.det_constant

    @property
    def spectral_density(self):
        # R_hat or None, kept for bench/layers.py; goes when it reads ``structure``
        return self.structure.r_hat if isinstance(self.structure, Stationary) else None


def _validate_covariance(model: ProcessModel) -> None:
    """Spot-check symmetry and positive semidefiniteness on a small fixed
    grid, and that a structure's function and transform agree at 0:
    r(0) = (1/2pi) int R_hat for a stationary model (relative tolerance
    ``_SPECTRAL_MASS_RTOL``), g(0) = (1/2pi) Re int g_hat for a rank-one one
    (within ``_SPECTRAL_MASS_RTOL`` times max |g| on the grid)."""
    t = np.linspace(-4.0, 4.0, 17)
    mid = len(t) // 2  # t = 0
    K = model.covariance(t[:, None], t[None, :])
    if np.max(np.abs(K - K.T)) > 1e-10 * (1.0 + np.max(np.abs(K))):
        raise ValidationError("covariance is not symmetric")
    if np.any(np.diag(K) < -1e-12):
        raise ValidationError("covariance has negative variance on the grid")
    if _beyond_rounding(np.linalg.eigvalsh(K)):
        raise ValidationError("covariance is not positive semidefinite")
    if isinstance(model.structure, Stationary):
        mass, r0 = _inverse_at_zero(model.structure.r_hat), float(K[mid, mid])
        if not math.isclose(mass, r0, rel_tol=_SPECTRAL_MASS_RTOL):
            raise ValidationError(
                f"R_hat does not match the covariance: (1/2pi) int R_hat = {mass!r}, r(0) = {r0!r}"
            )
    if isinstance(model.structure, RankOne):
        g = np.asarray(model.structure.g(t), dtype=float)
        g0 = _inverse_at_zero(model.structure.g_hat)
        if not abs(g0 - g[mid]) <= _SPECTRAL_MASS_RTOL * np.max(np.abs(g)):
            raise ValidationError(
                f"g_hat does not match g: (1/2pi) Re int g_hat = {g0!r}, g(0) = {float(g[mid])!r}"
            )


def _inverse_at_zero(f_hat: Callable[[np.ndarray], np.ndarray]) -> float:
    """(1/2pi) Re int f_hat over the line: the function whose transform is
    f_hat, at 0, on the ``_spectral_nodes`` rule."""
    z, w = _spectral_nodes()
    return float(w @ np.asarray(f_hat(z)).real) / (2.0 * math.pi)


@lru_cache(maxsize=None)
def _spectral_nodes() -> tuple[np.ndarray, np.ndarray]:
    """Nodes z and weights w with w @ f(z) ~ int f(z) dz over the line.

    The integral is taken in theta with z = tan(theta), so dz = sec^2 d theta
    (OU with lambda = 1 then has the constant integrand 2), by 8-point
    Gauss-Legendre on each panel between theta = 0, +-arctan 2^k
    (|k| <= 20) and +-pi/2: one panel per dyadic band of |z|.  OU's
    integral comes out within 2e-12 of 2 pi for every lambda in
    [1e-4, 1e4], so spectra on those scales are checked far inside
    ``_SPECTRAL_MASS_RTOL``.
    """
    right = np.append(np.arctan(2.0 ** np.arange(-20, 21)), math.pi / 2)
    breaks = np.concatenate([-right[::-1], [0.0], right])
    theta, weight = (a.ravel() for a in gauss_nodes(breaks[:-1, None], breaks[1:, None], 8))
    return np.tan(theta), weight / np.cos(theta) ** 2


def _check_grid(grid: np.ndarray, n_values: int) -> None:
    """A simulation grid: at least two nodes, increasing with a uniform
    step, one node per value."""
    if len(grid) != n_values:
        raise ValidationError("grid and values must have equal length")
    if len(grid) < 2:
        raise ValidationError("grid needs at least two nodes")
    d = np.diff(grid)
    h = d[0]
    if not h > 0:
        raise ValidationError("grid must be increasing")
    if np.any(np.abs(d - h) > 1e-12 * max(abs(h), 1.0)):
        raise ValidationError("grid step must be uniform")


@dataclass(frozen=True)
class SamplePath:
    """One simulated realization on a uniform grid."""

    grid: np.ndarray
    values: np.ndarray
    path_index: int

    def __post_init__(self):
        _check_grid(self.grid, len(self.values))


@dataclass(frozen=True)
class SampleBatch:
    """The paths of one ``simulate_paths`` call on one uniform grid.

    ``values`` is the N x n path x grid matrix: row i is path i.  It is
    kept as a C-contiguous float array (the sampler's as it is, any other
    copied once), so every path is contiguous.  Indexing gives
    ``SamplePath`` views of the rows (an int, negative too, gives one path;
    a slice gives a list), and iteration yields every path in order.
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if np.ndim(self.values) != 2:
            raise ValidationError("batch values must be a path x grid matrix")
        object.__setattr__(self, "grid", np.asarray(self.grid, dtype=float))
        object.__setattr__(self, "values", np.ascontiguousarray(self.values, dtype=float))
        _check_grid(self.grid, self.values.shape[1])

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i):
        i = range(len(self))[i]
        if isinstance(i, range):
            return [self[j] for j in i]
        return SamplePath(self.grid, self.values[i], i)

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def make_ou(lam: float) -> ProcessModel:
    """Stationary Gaussian Ornstein-Uhlenbeck model.

    R(t,s) = exp(-lam |t-s|), spectral density 2 lam / (lam^2 + z^2),
    unit variance so tau(t) = 1.  Equal rates give the same model object.
    """
    if not 0 < lam < math.inf:
        raise ValidationError("OU rate must be positive and finite")
    # keyed on the float: lru_cache keys an int argument apart from its float
    return _ou_model(float(lam))


@lru_cache(maxsize=None)
def _ou_model(lam: float) -> ProcessModel:
    return ProcessModel(
        Stationary(
            r=lambda tau: np.exp(-lam * np.abs(tau)),
            r_hat=lambda z: 2.0 * lam / (lam**2 + np.asarray(z, dtype=float) ** 2),
        )
    )


def make_separable(g: Callable, g_hat: Callable) -> ProcessModel:
    """Rank-one Gaussian model X(t) = g(t) Z with Z standard normal.

    R(u,v) = g(u) g(v), so the spectral data is g_hat alone; tau(t) = |g(t)|.
    """
    return ProcessModel(RankOne(g=g, g_hat=g_hat))


@lru_cache(maxsize=None)
def make_gauss_bump() -> ProcessModel:
    """The shipped separable example: g(t) = exp(-t^2/2); one model object."""
    root_two_pi = math.sqrt(2.0 * math.pi)
    return make_separable(
        g=lambda t: np.exp(-0.5 * np.asarray(t, dtype=float) ** 2),
        g_hat=lambda z: root_two_pi * np.exp(-0.5 * np.asarray(z, dtype=float) ** 2),
    )


def parse_model_spec(spec: str) -> ProcessModel:
    """Parse "ou:<lambda>" or "separable:gauss-bump"."""
    if spec.startswith("ou:"):
        try:
            lam = float(spec.split(":", 1)[1])
        except ValueError:
            raise ValidationError(f"bad OU rate in {spec!r}") from None
        return make_ou(lam)
    if spec == "separable:gauss-bump":
        return make_gauss_bump()
    raise ValidationError(f"unknown model spec {spec!r}")


def simulation_grid(L: float, h: float) -> np.ndarray:
    """Uniform grid over [-L, L] with step h (endpoints included)."""
    if not (0 < L < math.inf and 0 < h < math.inf):
        raise ValidationError("grid requires finite L > 0 and h > 0")
    steps = 2.0 * L / h  # inf for a tiny h: checked before it is rounded
    if not steps + 1 < _MAX_GRID_POINTS + 0.5:
        raise ValidationError(
            f"grid would have {steps + 1:.0f} points (limit {_MAX_GRID_POINTS})"
        )
    n_steps = round(steps)
    if abs(n_steps * h - 2.0 * L) > 1e-9 * L:
        raise ValidationError("step h must divide the interval [-L, L]")
    return -L + h * np.arange(n_steps + 1)


def _beyond_rounding(w: np.ndarray) -> bool:
    """True when the spectrum w has a negative part below the floor -1e-10
    relative to its largest value (and to 1), i.e. more than rounding."""
    return bool(w.min() < -1e-10 * max(w.max(), 1.0))


def _covariance_factor(model: ProcessModel, grid: np.ndarray) -> np.ndarray:
    """Symmetric factor F with F F^T = covariance matrix on the grid.

    Eigendecomposition with clamping of tiny negative eigenvalues (floor
    -1e-10 relative to the largest); anything below the floor is a model
    error.
    """
    K = model.covariance(grid[:, None], grid[None, :])
    with _one_blas_thread():  # eigh, too, rounds by the BLAS thread count
        w, V = np.linalg.eigh(K)
    if _beyond_rounding(w):
        raise NumericError(
            f"covariance matrix indefinite beyond tolerance (min eig {w.min():.3e})"
        )
    return V * np.sqrt(np.clip(w, 0.0, None))


def _fast_lengths(lo: int, hi: int) -> list[int]:
    """The even lengths 2^a 3^b 5^c (a >= 1) in [lo, hi], ascending: the
    lengths pocketfft transforms at full speed."""
    lengths = [2]
    for p in (2, 3, 5):
        # the walk reaches the lengths it appends, so each gets every power of p
        for m in lengths:
            if m * p <= hi:
                lengths.append(m * p)
    return sorted(m for m in lengths if m >= lo)


def _embedding_spectrum(model: ProcessModel, grid: np.ndarray):
    """The shortest nonnegative circulant embedding of a stationary model's
    covariance on the grid: (m, lambda), or None past the length cap.

    The lengths tried are ``_fast_lengths`` from 2(n - 1) up to
    ``_EMBEDDING_GROWTH`` times that.  At length m the embedding's first row
    is r at the m/2 + 1 lags 0, h, ..., (m/2) h from grid[0] (the grid,
    extended past its end at its step) followed by the lags m/2 - 1, ..., 1,
    and its eigenvalues are lambda = rfft(row).  The first length whose
    lambda is nonnegative up to the eigenvalue floor is taken (Wood & Chan
    1994; Dietrich & Newsam 1997).
    """
    n = len(grid)
    h = (grid[-1] - grid[0]) / (n - 1)
    for m in _fast_lengths(2 * (n - 1), _EMBEDDING_GROWTH * 2 * (n - 1)):
        t = grid[0] + h * np.arange(m // 2 + 1)
        t[:n] = grid
        c = np.asarray(model.covariance(t, grid[0]), dtype=float)
        lam = np.fft.rfft(np.concatenate([c, c[-2:0:-1]])).real
        if not _beyond_rounding(lam):
            return m, lam
    return None


def _markov_row(model: ProcessModel, grid: np.ndarray):
    """(c_0, rho) when a stationary model's lag row on the grid is
    geometric, c_j = c_0 rho^j with c_0 > 0 and rho in [0, 1] up to the
    floor 1e-10 c_0 of ``_beyond_rounding``; None otherwise.  Such a
    covariance is an AR(1) sequence on the grid (OU: rho = e^(-lambda h);
    Gillespie 1996)."""
    c = np.asarray(model.covariance(grid, grid[0]), dtype=float)
    c0 = float(c[0])
    if not c0 > 0:
        return None
    rho = float(c[1]) / c0
    if not 0.0 <= rho <= 1.0:
        return None
    if np.max(np.abs(c - c0 * rho ** np.arange(len(c)))) > 1e-10 * c0:
        return None
    return c0, rho


@contextmanager
def _one_blas_thread():
    """Run the enclosed products on one BLAS thread, set for the calling
    thread only, then restore its setting: OpenBLAS sums a product in an
    order that follows its thread count, and the path-block pool is the
    one parallel layer.  Does nothing on a BLAS without
    ``openblas_set_num_threads_local``."""
    set_local = _blas_threads_setter()
    if set_local is None:
        yield
        return
    previous = set_local(1)
    try:
        yield
    finally:
        set_local(previous)


@lru_cache(maxsize=None)
def _blas_threads_setter():
    """OpenBLAS's ``openblas_set_num_threads_local`` as numpy loaded it
    (looked up through numpy's own extension, which links it), or None."""
    import ctypes  # on first use: its import is ~3 ms of start-up

    try:
        setter = ctypes.CDLL(np._core._multiarray_umath.__file__).openblas_set_num_threads_local
    except (AttributeError, OSError):
        return None
    setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
    return setter


def _markov_map(n: int, c0: float, rho: float) -> Callable[[np.ndarray, np.ndarray], None]:
    """``sample(Z, out)`` for the AR(1) sequence of n nodes x_0 = sqrt(c_0)
    z_0, x_i = rho x_(i-1) + sigma z_i, sigma = sqrt(c_0 (1 - rho^2)),
    rho in [0, 1]: K's exact Cholesky factor, n normals a path.  Z and out
    have unit-stride rows; Z is overwritten.

    Nodes 1..n-1 fall in chunks of b = ``_CHUNK``, the last maybe partial.
    A chunk's carry is the value at the node before it (x_0 for the
    first), so its first node is sigma z + rho carry, and the chunk is
    [that node, its other normals] @ W, with W the lower-triangular block
    sigma rho^(i - j) whose first row is rho^i.  Per path, a GEMV of the
    chunks' normals with sigma rho^(b - 1 - j) gives each chunk's last
    node from its own normals; a doubling scan over the chunks, weight
    rho^(b d) <= 1 at step d, turns those into the carries; the first
    nodes go over their spent normals, and a GEMM (one more for a partial
    chunk) writes every node into ``out``.  Nothing divides by sigma, so
    rho = 0 (each node its scaled normal) and rho = 1 (sigma = 0, every
    node x_0) are exact.  Every product has one shape per path, so on one
    BLAS thread a row's bits depend on its own normals alone.
    """
    b = _CHUNK
    full, tail = divmod(n - 1, b)  # whole chunks, and the nodes of a partial one
    chunks = full + (tail > 0)
    sigma = math.sqrt(c0 * (1.0 - rho * rho))
    powers = rho ** np.arange(b)
    lag = np.arange(b) - np.arange(b)[:, None]  # i - j at row j, column i
    W = np.triu(sigma * powers[np.abs(lag)])
    W[0] = powers  # row 0 takes the chunk's first node, not its normal
    steps = [(1 << i, rho ** (b << i)) for i in range((chunks - 1).bit_length())]

    def markov(Z, out):
        m, body = len(Z), slice(1, 1 + full * b)
        chunked = Z[:, body].reshape(m, full, b)
        carries = np.empty((m, chunks))
        carries[:, 0] = out[:, 0] = math.sqrt(c0) * Z[:, 0]
        carries[:, 1:] = (chunked @ (sigma * powers[::-1]))[:, : chunks - 1]
        for d, weight in steps:
            carries[:, d:] += weight * carries[:, :-d]
        Z[:, 1::b] = sigma * Z[:, 1::b] + rho * carries  # each chunk's first node
        np.matmul(chunked, W, out=out[:, body].reshape(m, full, b))
        np.matmul(Z[:, None, body.stop :], W[:tail, :tail], out=out[:, None, body.stop :])

    return markov


def _linear_sampler(model: ProcessModel, grid: np.ndarray) -> tuple[int, Callable[[np.ndarray, np.ndarray], None]]:
    """The exact linear map L (n x k, L L^T = K on the grid) of the model.

    Returns k and a function ``sample(Z, out)`` taking a (B, k) slab of
    standard normals, one row per path, B <= ``_SLAB``, and writing the B
    paths L z as the rows of the (B, n) array ``out``; it may overwrite Z.
    On one BLAS thread, a row's path depends on that row alone, bit for
    bit, whatever else the slab holds.

    * ``RankOne``: k = 1 and L = g(grid).
    * ``Stationary`` with a geometric lag row c_j = c_0 rho^j
      (``_markov_row``; OU): K is the covariance of the AR(1) sequence
      x_0 = sqrt(c_0) z_0, x_i = rho x_(i-1) + sqrt(c_0 (1 - rho^2)) z_i,
      and this recursion is K's exact Cholesky factor, so k = n.  It runs
      as chunked BLAS products (``_markov_map``).
    * Any other ``Stationary``: K is the symmetric Toeplitz matrix of the
      lags of the grid.  It embeds in a circulant matrix C of size m, the
      shortest fast length m >= 2(n - 1) whose eigenvalues lambda are
      nonnegative up to the eigenvalue floor (``_embedding_spectrum``).
      Then C^(1/2) w = irfft(sqrt(lambda) rfft(w)) for m white normals w,
      and rfft(w) has q = m/2 + 1 independent parts: entries 0 and q - 1
      real N(0, m), the others with real and imaginary parts N(0, m/2).
      So k = m and the spectrum is drawn directly: a row's first q normals
      are the real parts, its other q - 2 the imaginary parts of entries
      1..q-2, all scaled by one ``root`` vector, and one irfft per row
      follows, written back over the spent normals.  Each thread builds
      its spectra in one buffer of its own, reused from call to call.  The
      first n rows of that map satisfy L L^T = (C)_{n x n} = K.
    * ``Kernel``, or a stationary model with no nonnegative embedding
      up to the length cap: k = n and L is the dense ``eigh`` factor of K,
      applied to the slab zero-padded to ``_SLAB`` rows.
    """
    n = len(grid)
    if isinstance(model.structure, RankOne):
        g = np.asarray(model.structure.g(grid), dtype=float)

        def rank_one(Z, out):
            np.einsum("i,j->ij", Z[:, 0], g, out=out)

        return 1, rank_one
    stationary = isinstance(model.structure, Stationary)
    markov = _markov_row(model, grid) if stationary else None
    if markov is not None:
        return n, _markov_map(n, *markov)
    embedding = _embedding_spectrum(model, grid) if stationary else None
    if embedding is not None:
        m, lam = embedding
        q = len(lam)
        variance = np.full(q, m / 2.0)
        variance[[0, -1]] = m
        root = np.sqrt(np.clip(lam, 0.0, None) * variance)

        scratch = threading.local()

        def circulant(Z, out):
            # imaginary parts 0 and q - 1 stay at the buffer's zeros
            if not hasattr(scratch, "spectrum"):
                scratch.spectrum = np.zeros((_SLAB, q), dtype=complex)
            spectrum = scratch.spectrum[: len(Z)]
            np.multiply(Z[:, :q], root, out=spectrum.real)
            np.multiply(Z[:, q:], root[1:-1], out=spectrum.imag[:, 1:-1])
            np.fft.irfft(spectrum, n=m, out=Z)
            out[...] = Z[:, :n]

        return m, circulant
    F = _covariance_factor(model, grid)

    def dense(Z, out):
        # a product of one fixed width rounds each column the same way
        padded = np.zeros((_SLAB, n))
        padded[: len(Z)] = Z
        out[...] = (F @ padded.T)[:, : len(Z)].T

    return n, dense


def check_seed(seed: int) -> None:
    """Reject a seed that is not an integer in [0, 2^64), the seed range
    of configs and the CLI.  The path streams are keyed by int(seed), so a
    float or a bool would give the paths of an integer seed (1.5 those of
    1), and a negative one would reach SeedSequence's bare ValueError."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValidationError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed < 2**64:
        raise ValidationError(f"seed must be in [0, 2^64), got {seed}")


def _block_rng(seed: int, block: int) -> np.random.Generator:
    """The stream of the paths block * _PATH_BLOCK onwards, one row of
    normals per path: SFC64 seeded by SeedSequence(seed, spawn_key=(block,)),
    so each (seed, block) has its own independent stream."""
    sequence = np.random.SeedSequence(int(seed), spawn_key=(int(block),))
    return np.random.Generator(np.random.SFC64(sequence))


def _worker_count() -> int:
    """Threads that fill blocks of paths: the CPUs this process may use."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _physical_memory() -> float:
    """Bytes of physical memory on this machine (``os.sysconf``), or inf
    where the platform does not report it."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return math.inf


def check_path_memory(n_paths: int, n_nodes: int, per_path: int = 0) -> None:
    """Raise ResourceLimitError, before anything is allocated, when the
    buffer of ``n_paths`` paths of ``n_nodes`` nodes (whole blocks of float
    rows, as ``simulate_paths`` holds them) plus ``per_path`` bytes a path
    would not fit in this machine's physical memory."""
    need = -(-n_paths // _PATH_BLOCK) * _PATH_BLOCK * n_nodes * 8 + n_paths * per_path
    have = _physical_memory()
    if need > have:
        raise ResourceLimitError(
            f"{n_paths} paths of {n_nodes} nodes need {need / 2**30:.3g} GiB, "
            f"more than this machine's {have / 2**30:.3g} GiB of memory"
        )


def _allocate(shape: tuple) -> np.ndarray:
    """``np.empty(shape)`` of floats, a MemoryError raised as ResourceLimitError."""
    try:
        return np.empty(shape)
    except MemoryError:
        raise ResourceLimitError(f"cannot allocate a {' x '.join(map(str, shape))} float array") from None


def simulate_paths(
    model: ProcessModel, L: float, h: float, n_paths: int, seed: int, *, on_block=None
) -> SampleBatch:
    """Exact joint Gaussian samples on the grid [-L, L] with step h.

    The samples are L z for the model's exact linear map L (L L^T = K on
    the grid, see ``_linear_sampler``): g(t) z for a rank-one model, the
    AR(1) recursion, as chunked matrix products, for a stationary one
    with a geometric lag row (OU), circulant embedding for any other
    stationary one (length m, the shortest fast length >= 2(n - 1) with a
    nonnegative spectrum), the dense ``eigh`` factor otherwise.  The paths
    are the rows of the batch's N x n ``values``, filled in place.  They
    come in blocks of ``_PATH_BLOCK``; block b draws its rows of k normals
    in order from its own stream (``_block_rng(seed, b)``) and maps them
    into its own rows of ``values`` in slabs of ``_SLAB`` rows (the last
    one maybe partial), the map's contract.  The blocks are filled in
    parallel by ``_worker_count()`` threads, thread w taking blocks w,
    w + workers, ... (a single worker runs inline), each on one BLAS
    thread for all its work, ``on_block`` included.  Each thread draws
    into one buffer of normals for all its blocks, and the circulant map
    keeps one spectrum per thread: fresh scratch for every slab costs more
    in page faults than the map itself.  numpy's generator, FFT and BLAS
    release the GIL.  Every map sends a row to the same path whatever
    else its slab holds, so path i is bit for bit a function of (model,
    grid, seed, i) alone, for any n_paths and any count of threads or of
    BLAS threads.

    The buffer holds whole blocks: its rows past n_paths are zeros, and
    ``values`` is the view of its first n_paths rows.  A buffer past
    physical memory is refused with ResourceLimitError before anything is
    allocated (``check_path_memory``).  ``on_block``, if given, is called
    as ``on_block(first, rows)`` in the thread that filled the block, once
    per block as soon as it is filled, with the block's first path index
    and its ``_PATH_BLOCK`` rows (the last block's pad rows zero), so a
    caller can consume each block while the others are drawn.
    """
    if not model.gaussian:
        raise ValidationError("only Gaussian models can be simulated")
    if isinstance(n_paths, bool) or not isinstance(n_paths, (int, np.integer)):
        raise ValidationError(f"n_paths must be an integer, got {n_paths!r}")
    if n_paths < 1:
        raise ValidationError("n_paths must be >= 1")
    check_seed(seed)
    grid = simulation_grid(L, h)
    check_path_memory(n_paths, len(grid))
    k, sample = _linear_sampler(model, grid)
    blocks = -(-n_paths // _PATH_BLOCK)
    # whole blocks of rows, so every block (the last too) is one view
    paths = _allocate((blocks * _PATH_BLOCK, len(grid)))
    paths[n_paths:] = 0.0
    workers = min(_worker_count(), blocks)

    def fill(worker):
        Z = np.empty((_SLAB, k))
        with _one_blas_thread():
            for block in range(worker, blocks, workers):
                rng = _block_rng(seed, block)
                first = block * _PATH_BLOCK
                stop = min(first + _PATH_BLOCK, n_paths)
                for start in range(first, stop, _SLAB):
                    z = rng.standard_normal(out=Z[: min(_SLAB, stop - start)])
                    sample(z, paths[start : start + len(z)])
                if on_block is not None:
                    on_block(first, paths[first : first + _PATH_BLOCK])

    if workers == 1:
        fill(0)
    else:
        # imported on first use: concurrent.futures loads logging, ~8 ms of
        # start-up that a process which simulates nothing should not pay
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(fill, range(workers)))
    return SampleBatch(grid=grid, values=paths[:n_paths])


def dump_paths(paths, out_dir) -> list[str]:
    """Write one CSV per path of ``paths`` (a ``SampleBatch`` or any iterable
    of ``SamplePath``; header ``t,x``, name ``path_<index>.csv``)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for p in paths:
        fname = out / f"path_{p.path_index}.csv"
        with open(fname, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "x"])
            for t, x in zip(p.grid, p.values):
                w.writerow([repr(float(t)), repr(float(x))])
        written.append(str(fname))
    return written


def minkowski_gap(model: ProcessModel, T: float) -> tuple[float, float]:
    """Both sides of the integral tau-norm inequality on [0, T].

    lhs = tau(int_0^T X dt) = sqrt(int int R(t,s) dt ds) for a Gaussian
    model, rhs = int_0^T sqrt(R(t,t)) dt; composite Simpson with 512 panels.
    """
    if not model.gaussian:
        raise ValidationError("minkowski_gap assumes a Gaussian model (tau = sigma)")
    nodes, wts = simpson_nodes(0.0, T, 512)
    K = model.covariance(nodes[:, None], nodes[None, :])
    lhs_sq = float(wts @ K @ wts)
    if lhs_sq < -1e-10:
        raise NumericError(f"negative squared integral {lhs_sq:.3e}")
    lhs = math.sqrt(max(lhs_sq, 0.0))
    var = np.clip(np.diag(K), 0.0, None)
    rhs = float(np.sum(wts * np.sqrt(var)))
    return lhs, rhs
