"""Zero-mean second-order process models and exact Gaussian path simulation.

A model bundles the covariance R(t,s), one structure (``Stationary(R_hat)``,
``RankOne(g, g_hat)`` for X(t) = g(t) Z, or None for a general covariance),
the sub-Gaussian norm function tau(t), and the determinative constant C_X
relating tau to the second moment.  Gaussian models have tau = sqrt(R(t,t))
and C_X = 1 exactly; only Gaussian models are simulated, but every bound
computation accepts a general C_X.

Simulation is exact: the samples on a grid are L z for standard normals z
and a linear map L with L L^T equal to the covariance matrix K.  L comes
from the structure the model declares.  A rank-one model has L = g(grid)
and one normal per path.  A stationary model has a Toeplitz K on the
uniform grid, which embeds in a circulant matrix (Dietrich & Newsam 1997;
Wood & Chan 1994); a path is one ``irfft`` of a spectrum drawn directly
from its normals.  Any other model, or an embedding with negative
eigenvalues, uses the dense ``eigh`` factor of K.  One simulation returns
one ``SampleBatch``: the grid, validated once, and the path x grid matrix
of values, whose row i is path i; indexing it gives ``SamplePath`` views.
The normals come from one counter-based stream per block of 256 paths,
each sampler writes whole paths into the matrix in place, and the blocks
are filled in parallel, one thread per usable CPU, so path i depends only
on (seed, i), whatever the number of paths or of threads.

The constructors the model specs call are memoised, so one spec always
gives the same model object: a process that parses a spec again (a loop
of runs, not a single CLI call) reuses the moment caches keyed on it.
"""

import csv
import math
import os
import threading
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, Union

import numpy as np

from .errors import NumericError, ValidationError
from .quad import simpson_nodes
from .wavelets import WaveletPair

_MAX_GRID_POINTS = 10_000
_PATH_BLOCK = 256  # paths per block of normals and per random stream
_SLAB = 32  # paths per call of the circulant map: bounds its scratch memory


@dataclass(frozen=True)
class Stationary:
    """Stationary: R(t,s) = r(t - s), with spectral density R_hat (r's transform)."""

    r_hat: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class RankOne:
    """Rank-one: X(t) = g(t) Z, Z standard normal, R(t,s) = g(t) g(s); g_hat is g's transform."""

    g: Callable[[np.ndarray], np.ndarray]
    g_hat: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ProcessModel:
    """Second-order process with covariance, structure and tau-norm.

    Each layer that depends on the structure tests its type in one place.
    Both structures are hashable values, so a model keys the moment caches.
    """

    covariance: Callable[[np.ndarray, np.ndarray], np.ndarray]
    det_constant: float
    tau_phi: Callable[[np.ndarray], np.ndarray]
    structure: Union[Stationary, RankOne, None] = None
    gaussian: bool = True

    def __post_init__(self):
        if not self.det_constant > 0:
            raise ValidationError("determinative constant must be positive")
        if not isinstance(self.structure, (Stationary, RankOne, type(None))):
            raise ValidationError(f"structure must be Stationary, RankOne or None, got {self.structure!r}")
        _validate_covariance(self)

    @property
    def spectral_density(self):
        # R_hat or None, kept for bench/layers.py; goes when it reads ``structure``
        return self.structure.r_hat if isinstance(self.structure, Stationary) else None


def _validate_covariance(model: ProcessModel) -> None:
    """Spot-check symmetry, positive semidefiniteness and the Gaussian
    tau/covariance link on a small fixed grid."""
    t = np.linspace(-4.0, 4.0, 17)
    K = model.covariance(t[:, None], t[None, :])
    if np.max(np.abs(K - K.T)) > 1e-10 * (1.0 + np.max(np.abs(K))):
        raise ValidationError("covariance is not symmetric")
    d = np.diag(K)
    if np.any(d < -1e-12):
        raise ValidationError("covariance has negative variance on the grid")
    if _beyond_rounding(np.linalg.eigvalsh(K)):
        raise ValidationError("covariance is not positive semidefinite")
    if model.gaussian:
        tau = np.asarray(model.tau_phi(t), dtype=float)
        if np.max(np.abs(tau - np.sqrt(np.maximum(d, 0.0)))) > 1e-8:
            raise ValidationError("Gaussian model must have tau(t) = sqrt(R(t,t))")
        if abs(model.det_constant - 1.0) > 1e-12:
            raise ValidationError("Gaussian model must have C_X = 1")
    if isinstance(model.structure, Stationary):
        s = np.linspace(-3.0, 3.0, 7)
        lag = model.covariance(s + 1.25, s * 0 + 1.25)
        lag2 = model.covariance(s - 0.75, s * 0 - 0.75)
        if np.max(np.abs(lag - lag2)) > 1e-10 * (1.0 + np.max(np.abs(lag))):
            raise ValidationError("model carries R_hat but R(t,s) is not a lag function")


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
    seed: int
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
    seed: int

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
        return SamplePath(self.grid, self.values[i], self.seed, i)

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
        covariance=lambda t, s: np.exp(-lam * np.abs(np.asarray(t) - np.asarray(s))),
        det_constant=1.0,
        tau_phi=lambda t: np.ones_like(np.asarray(t, dtype=float)),
        structure=Stationary(
            r_hat=lambda z: 2.0 * lam / (lam**2 + np.asarray(z, dtype=float) ** 2)
        ),
    )


def make_separable(g: Callable, g_hat: Callable) -> ProcessModel:
    """Rank-one Gaussian model X(t) = g(t) Z with Z standard normal.

    R(u,v) = g(u) g(v), so the spectral data is g_hat alone; tau(t) = |g(t)|.
    """
    return ProcessModel(
        covariance=lambda t, s: np.asarray(g(np.asarray(t))) * np.asarray(g(np.asarray(s))),
        det_constant=1.0,
        tau_phi=lambda t: np.abs(np.asarray(g(np.asarray(t)))),
        structure=RankOne(g=g, g_hat=g_hat),
    )


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
    w, V = np.linalg.eigh(K)
    if _beyond_rounding(w):
        raise NumericError(
            f"covariance matrix indefinite beyond tolerance (min eig {w.min():.3e})"
        )
    return V * np.sqrt(np.clip(w, 0.0, None))


def _linear_sampler(
    model: ProcessModel, grid: np.ndarray
) -> tuple[int, Callable[[np.ndarray, np.ndarray], None]]:
    """The exact linear map L (n x k, L L^T = K on the grid) of the model.

    Returns k and a function ``sample(Z, out)`` taking a (B, k) block of
    standard normals, one row per path, and writing the B paths L z as
    the rows of the (B, n) array ``out``; it may overwrite Z.

    * ``RankOne``: k = 1 and L = g(grid).
    * ``Stationary``: K is the symmetric Toeplitz matrix of the lag
      row c_j = R(t_j, t_0).  Its minimal circulant embedding C (size
      m = 2(n - 1), first row c_0..c_{n-1}, c_{n-2}..c_1) has eigenvalues
      lambda = rfft(row) (Dietrich & Newsam 1997; Wood & Chan 1994).  When
      lambda is nonnegative up to the eigenvalue floor, C^(1/2) w =
      irfft(sqrt(lambda) rfft(w)) for m white normals w, and rfft(w) has
      independent parts: entries 0 and n - 1 real N(0, m), the others with
      real and imaginary parts N(0, m/2).  So k = m and the spectrum is
      drawn directly: a row's first n normals are the real parts, its other
      n - 2 the imaginary parts of entries 1..n-2, all scaled by one
      ``root`` vector, and one irfft per row follows, written back over
      the spent normals.  Each thread builds its spectra in one buffer of
      its own, reused from call to call.  The first n rows of that map
      satisfy L L^T = (C)_{n x n} = K.
    * anything else, or an indefinite embedding: k = n and L is the dense
      ``eigh`` factor of K, applied to the block zero-padded to
      ``_PATH_BLOCK`` rows (B <= ``_PATH_BLOCK``).
    """
    n = len(grid)
    if isinstance(model.structure, RankOne):
        g = np.asarray(model.structure.g(grid), dtype=float)

        def rank_one(Z, out):
            np.multiply(Z[:, :1], g, out=out)

        return 1, rank_one
    if isinstance(model.structure, Stationary):
        c = np.asarray(model.covariance(grid, grid[0]), dtype=float)
        m = 2 * (n - 1)
        lam = np.fft.rfft(np.concatenate([c, c[-2:0:-1]])).real
        if not _beyond_rounding(lam):
            variance = np.full(n, m / 2.0)
            variance[[0, -1]] = m
            root = np.sqrt(np.clip(lam, 0.0, None) * variance)

            scratch = threading.local()

            def circulant(Z, out):
                # imaginary parts 0 and n - 1 stay at the buffer's zeros
                spectrum = getattr(scratch, "spectrum", None)
                if spectrum is None or len(spectrum) < len(Z):
                    spectrum = scratch.spectrum = np.zeros((len(Z), n), dtype=complex)
                spectrum = spectrum[: len(Z)]
                np.multiply(Z[:, :n], root, out=spectrum.real)
                np.multiply(Z[:, n:], root[1:-1], out=spectrum.imag[:, 1:-1])
                np.fft.irfft(spectrum, n=m, out=Z)
                out[...] = Z[:, :n]

            return m, circulant
    F = _covariance_factor(model, grid)

    def dense(Z, out):
        # a product of one fixed width rounds each column the same way
        padded = np.zeros((_PATH_BLOCK, n))
        padded[: len(Z)] = Z
        out[...] = (F @ padded.T)[:, : len(Z)].T

    return n, dense


def check_seed(seed: int) -> None:
    """Reject a seed that is not an integer in [0, 2^64): the path streams
    key on 64 bits of int(seed), so any other value would give the paths of
    a seed in that range (1.5 those of 1)."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValidationError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed < 2**64:
        raise ValidationError(f"seed must be in [0, 2^64), got {seed}")


def _block_rng(seed: int, block: int) -> np.random.Generator:
    """Counter-based stream keyed by (seed, block) for the paths
    block * _PATH_BLOCK onwards, one row of normals per path."""
    key = (int(block) << 64) | int(seed)
    return np.random.Generator(np.random.Philox(key=key))


def _worker_count() -> int:
    """Threads that fill blocks of paths: the CPUs this process may use."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def simulate_paths(
    model: ProcessModel, L: float, h: float, n_paths: int, seed: int
) -> SampleBatch:
    """Exact joint Gaussian samples on the grid [-L, L] with step h.

    The samples are L z for the model's exact linear map L (L L^T = K on
    the grid, see ``_linear_sampler``): g(t) z for a rank-one model,
    circulant embedding for a stationary one, the dense ``eigh`` factor
    otherwise.  The paths are the rows of the batch's N x n ``values``,
    filled in place.  They come in blocks of ``_PATH_BLOCK``; block b
    draws its rows of k normals in order from one counter-based stream
    keyed by (seed, b) and maps them into its own rows of ``values``: the
    circulant map ``_SLAB`` rows at a time, which bounds its scratch
    memory, the others the whole block at once.  The blocks are filled in
    parallel by ``_worker_count()`` threads, thread w taking blocks w,
    w + workers, ... (one block runs inline).  Each thread draws into one
    buffer of normals for all its blocks, and the circulant map keeps one
    spectrum per thread: fresh scratch for every slab costs more in page
    faults than the map itself.  numpy's generator, FFT and BLAS release
    the GIL.  Every
    sampler maps a row the same way whatever else the call holds, so path
    i is bit for bit a function of (model, grid, seed, i) alone, for any
    n_paths and any thread count.
    """
    if not model.gaussian:
        raise ValidationError("only Gaussian models can be simulated")
    if n_paths < 1:
        raise ValidationError("n_paths must be >= 1")
    check_seed(seed)
    grid = simulation_grid(L, h)
    k, sample = _linear_sampler(model, grid)
    # the circulant map (k = 2(n - 1)) holds a spectrum and an irfft per
    # row, so it goes a slab at a time; the dense map takes the whole block
    # at its padded width, and the rank-one map writes its output directly
    rows = _SLAB if k > len(grid) else _PATH_BLOCK
    paths = np.empty((n_paths, len(grid)))
    blocks = -(-n_paths // _PATH_BLOCK)
    workers = min(_worker_count(), blocks)

    def fill(worker):
        Z = np.empty((rows, k))
        for block in range(worker, blocks, workers):
            rng = _block_rng(seed, block)
            stop = min((block + 1) * _PATH_BLOCK, n_paths)
            for start in range(block * _PATH_BLOCK, stop, rows):
                z = rng.standard_normal(out=Z[: min(rows, stop - start)])
                sample(z, paths[start : start + len(z)])

    if workers == 1:
        fill(0)
    else:
        # imported on first use: concurrent.futures loads logging, ~8 ms of
        # start-up that a process which simulates nothing should not pay
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(fill, range(workers)))
    return SampleBatch(grid=grid, values=paths, seed=seed)


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


def validate_model(
    model: ProcessModel,
    basis: WaveletPair,
    c_bound: Callable[[np.ndarray], np.ndarray],
    T_check: float,
) -> dict:
    """Check the mean-square convergence hypotheses on a finite grid.

    ``c_bound`` must be even, nondecreasing on [0, inf) and exceed 1 at the
    origin.  Checks: tau(t) <= c_bound(t) on [-T_check, T_check]; finiteness
    of int c(x) Phi(|x|) dx for both envelopes (numeric convergence between
    a window and its doubling); the growth condition c(a x) <= c(x) A(a) for
    a in {2, 4} with A estimated as the max grid ratio.  Report-style: never
    raises on a failed check, only on violated preconditions.
    """
    x = np.linspace(0.0, max(T_check, 1.0) * 4.0, 201)
    cb = np.asarray(c_bound(x), dtype=float)
    if not c_bound(0.0) > 1.0:
        raise ValidationError("c_bound(0) must exceed 1")
    if np.any(np.abs(np.asarray(c_bound(-x)) - cb) > 1e-10 * (1.0 + np.abs(cb))):
        raise ValidationError("c_bound must be even")
    if np.any(np.diff(cb) < -1e-10):
        raise ValidationError("c_bound must be nondecreasing on [0, inf)")

    report = {}
    t = np.linspace(-T_check, T_check, 401)
    tau = np.asarray(model.tau_phi(t), dtype=float)
    dom = np.asarray(c_bound(t), dtype=float)
    worst = float(np.max(tau - dom))
    report["tau_dominated"] = {"passed": bool(worst <= 1e-12), "max_excess": worst}

    for name, env in (("f", basis.envelope_f), ("m", basis.envelope_m)):
        s = env.effective_support()

        def integral(a, b, panels=2048):
            nodes, wts = simpson_nodes(a, b, panels)
            return float(
                np.sum(wts * np.asarray(c_bound(nodes)) * env.big_phi(np.abs(nodes)))
            )

        # peaked near 0: integrate the core with its own nodes; bound the
        # doubling-window increment by the analytic envelope tail mass
        core = integral(-1.0, 1.0) + integral(-s, -1.0) + integral(1.0, s)
        cb_max = float(np.max(np.asarray(c_bound(np.linspace(s, 2.0 * s, 65)))))
        inc = 2.0 * (env.tail_integral(s) - env.tail_integral(2.0 * s)) * cb_max
        converged = inc <= max(1e-5 * abs(core), 1e-8)
        report[f"envelope_integral_{name}"] = {
            "passed": bool(converged and np.isfinite(core + inc)),
            "value": core + inc,
            "window_increment": inc,
        }

    xg = np.linspace(0.25, max(T_check, 1.0) * 4.0, 400)
    growth = {}
    ok = True
    for a in (2.0, 4.0):
        ratio = np.asarray(c_bound(a * xg), dtype=float) / np.asarray(
            c_bound(xg), dtype=float
        )
        A = float(np.max(ratio))
        growth[a] = A
        ok = ok and np.isfinite(A)
    report["growth_condition"] = {"passed": bool(ok), "A_estimates": growth}
    report["passed"] = all(v["passed"] for v in report.values() if isinstance(v, dict))
    return report


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
