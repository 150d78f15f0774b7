"""Zero-mean second-order process models and exact Gaussian path simulation.

A model bundles the covariance R(t,s), optional spectral data (the Fourier
transform of R for stationary models, the double transform for non-stationary
ones), the sub-Gaussian norm function tau(t), and the determinative constant
C_X relating tau to the second moment.  Gaussian models have tau = sqrt(R(t,t))
and C_X = 1 exactly; only Gaussian models are simulated, but every bound
computation accepts a general C_X.
"""

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .errors import NumericError, ResourceLimitError, ValidationError
from .quad import simpson_nodes, trapezoid_weights
from .wavelets import WaveletPair

_MAX_GRID_POINTS = 10_000


@dataclass(frozen=True)
class ProcessModel:
    """Second-order process with covariance, spectral data and tau-norm."""

    covariance: Callable[[np.ndarray, np.ndarray], np.ndarray]
    stationary: bool
    det_constant: float
    tau_phi: Callable[[np.ndarray], np.ndarray]
    spectral_density: Optional[Callable[[np.ndarray], np.ndarray]] = None
    double_transform: Optional[Callable] = None
    separable_g: Optional[Callable[[np.ndarray], np.ndarray]] = None
    separable_g_hat: Optional[Callable[[np.ndarray], np.ndarray]] = None
    gaussian: bool = True

    def __post_init__(self):
        if not self.det_constant > 0:
            raise ValidationError("determinative constant must be positive")
        _validate_covariance(self)


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
    w = np.linalg.eigvalsh(K)
    if w.min() < -1e-10 * max(w.max(), 1.0):
        raise ValidationError("covariance is not positive semidefinite")
    if model.gaussian:
        tau = np.asarray(model.tau_phi(t), dtype=float)
        if np.max(np.abs(tau - np.sqrt(np.maximum(d, 0.0)))) > 1e-8:
            raise ValidationError("Gaussian model must have tau(t) = sqrt(R(t,t))")
        if abs(model.det_constant - 1.0) > 1e-12:
            raise ValidationError("Gaussian model must have C_X = 1")
    if model.stationary:
        s = np.linspace(-3.0, 3.0, 7)
        lag = model.covariance(s + 1.25, s * 0 + 1.25)
        lag2 = model.covariance(s - 0.75, s * 0 - 0.75)
        if np.max(np.abs(lag - lag2)) > 1e-10 * (1.0 + np.max(np.abs(lag))):
            raise ValidationError("stationary flag set but R(t,s) is not a lag function")


@dataclass(frozen=True)
class SamplePath:
    """One simulated realization on a uniform grid."""

    grid: np.ndarray
    values: np.ndarray
    seed: int
    path_index: int

    def __post_init__(self):
        if len(self.grid) != len(self.values):
            raise ValidationError("grid and values must have equal length")
        d = np.diff(self.grid)
        h = d[0]
        if np.any(np.abs(d - h) > 1e-12 * max(abs(h), 1.0)):
            raise ValidationError("grid step must be uniform")


def make_ou(lam: float) -> ProcessModel:
    """Stationary Gaussian Ornstein-Uhlenbeck model.

    R(t,s) = exp(-lam |t-s|), spectral density 2 lam / (lam^2 + z^2),
    unit variance so tau(t) = 1.
    """
    if not lam > 0:
        raise ValidationError("OU rate must be positive")
    return ProcessModel(
        covariance=lambda t, s: np.exp(-lam * np.abs(np.asarray(t) - np.asarray(s))),
        stationary=True,
        det_constant=1.0,
        tau_phi=lambda t: np.ones_like(np.asarray(t, dtype=float)),
        spectral_density=lambda z: 2.0 * lam / (lam**2 + np.asarray(z, dtype=float) ** 2),
    )


def make_separable(g: Callable, g_hat: Callable) -> ProcessModel:
    """Rank-one Gaussian model X(t) = g(t) Z with Z standard normal.

    R(u,v) = g(u) g(v); the double Fourier transform factorizes as
    g_hat(z) g_hat(w); tau(t) = |g(t)|.
    """
    return ProcessModel(
        covariance=lambda t, s: np.asarray(g(np.asarray(t))) * np.asarray(g(np.asarray(s))),
        stationary=False,
        det_constant=1.0,
        tau_phi=lambda t: np.abs(np.asarray(g(np.asarray(t)))),
        double_transform=lambda z, w: np.asarray(g_hat(np.asarray(z)))
        * np.asarray(g_hat(np.asarray(w))),
        separable_g=g,
        separable_g_hat=g_hat,
    )


def make_gauss_bump() -> ProcessModel:
    """The shipped separable example: g(t) = exp(-t^2/2)."""
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
    if not (L > 0 and h > 0):
        raise ValidationError("grid requires L > 0 and h > 0")
    n_steps = int(round(2.0 * L / h))
    if abs(n_steps * h - 2.0 * L) > 1e-9 * L:
        raise ValidationError("step h must divide the interval [-L, L]")
    if n_steps + 1 > _MAX_GRID_POINTS:
        raise ResourceLimitError(
            f"grid would have {n_steps + 1} points (limit {_MAX_GRID_POINTS})"
        )
    return -L + h * np.arange(n_steps + 1)


def _covariance_factor(model: ProcessModel, grid: np.ndarray) -> np.ndarray:
    """Symmetric factor F with F F^T = covariance matrix on the grid.

    Eigendecomposition with clamping of tiny negative eigenvalues (floor
    -1e-10 relative to the largest); anything below the floor is a model
    error.
    """
    K = model.covariance(grid[:, None], grid[None, :])
    w, V = np.linalg.eigh(K)
    floor = -1e-10 * max(w.max(), 1.0)
    if w.min() < floor:
        raise NumericError(
            f"covariance matrix indefinite beyond tolerance (min eig {w.min():.3e})"
        )
    return V * np.sqrt(np.clip(w, 0.0, None))


def _path_rng(seed: int, path_index: int) -> np.random.Generator:
    """Counter-based stream keyed by (seed, path_index)."""
    key = (int(path_index) << 64) | (int(seed) & (2**64 - 1))
    return np.random.Generator(np.random.Philox(key=key))


def simulate_paths(
    model: ProcessModel, L: float, h: float, n_paths: int, seed: int
) -> list[SamplePath]:
    """Exact joint Gaussian samples on the grid [-L, L] with step h.

    Path i draws its normals from an independent counter-based stream keyed
    by (seed, i), so the output is deterministic given (model, grid, seed)
    and independent of any parallel execution order.
    """
    if not model.gaussian:
        raise ValidationError("only Gaussian models can be simulated")
    if n_paths < 1:
        raise ValidationError("n_paths must be >= 1")
    grid = simulation_grid(L, h)
    F = _covariance_factor(model, grid)
    n = len(grid)
    Z = np.empty((n, n_paths))
    for i in range(n_paths):
        Z[:, i] = _path_rng(seed, i).standard_normal(n)
    X = F @ Z
    return [
        SamplePath(grid=grid, values=X[:, i].copy(), seed=seed, path_index=i)
        for i in range(n_paths)
    ]


def dump_paths(paths, out_dir) -> list[str]:
    """Write one CSV per path (header ``t,x``, name ``path_<index>.csv``)."""
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
        s = env.effective_support(1e-6)

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
