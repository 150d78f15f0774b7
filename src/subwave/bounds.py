"""Exceedance bounds and convergence-rate constants for truncated expansions.

The central estimate: for a process whose reconstruction error has
tau-norm integral c = int_0^T tau(X_n(t) - X(t))^p dt,

    P{ int_0^T |X_n - X|^p dt > eps }  <=  2 exp( -phi*( (eps/c)^(1/p) ) )

valid for eps above a threshold defined through the N-function density.
Two routes produce c: the integral route (exact second moments of the
error, Gaussian-type models, small schemes) and the uniform route (direct
lattice-sum constants of the tabulated wavelets plus k-independent level
moments: exact Parseval values for stationary models on a band-limited
basis, spectral bounds otherwise; the level series is summed explicitly
to level 480 and closed by its spectral-bound remainder in closed form;
tail constants run over the omitted shifts |k| >= k_j + 1).  The planner
walks a lattice of schemes on the uniform route.
"""

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .errors import (
    DivergenceError,
    InfeasiblePlanError,
    NumericError,
    ResourceLimitError,
    ValidationError,
)
from .expansion import (
    TruncationScheme,
    band_limited,
    basis_matrix,
    coefficient_moments,
    second_moment_eta_parseval,
    second_moment_eta_spectral_bound,
    second_moment_xi_bound,
)
from .orlicz import NFunction, conjugate
from .processes import ProcessModel, RankOne, Stationary
from .quad import simpson_nodes
from .wavelets import WaveletPair, lattice_constant, lattice_tail_constant

_LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class TailBoundReport:
    """One evaluation of the exceedance bound.

    ``bound`` is 2 exp(-phi*((epsilon/c)^(1/p))), always in [0, 2];
    ``route`` names the construction that produced the c constant.
    """

    c_constant: float
    epsilon: float
    threshold: float
    bound: float
    route: str = "direct"

    @property
    def valid(self) -> bool:
        """Whether epsilon clears the threshold, where the theory asserts the bound."""
        return bool(self.epsilon > self.threshold)

    def to_json_dict(self) -> dict:
        return {
            "c": self.c_constant,
            "epsilon": self.epsilon,
            "threshold": self.threshold,
            "bound": self.bound,
            "valid": self.valid,
            "route": self.route,
        }


def epsilon_threshold(nf: NFunction, c: float, p: float) -> float:
    """Smallest eps with eps > c * f(p (c/eps)^(1/p))^p, f the density.

    Writing eps = c u^p turns the condition into u > f(p/u), so the
    threshold is eps* = c u*^p, linear in c, with u* the one root of
    u = f(p/u) (u - f(p/u) increases in u).  For the power family
    f(x) = x^(a-1) (the Gaussian is a = 2) the root is u* = p^((a-1)/a):

        eps* = c p^((a-1)/a * p)

    Any other phi solves for u* numerically (``_numeric_threshold``).  A
    threshold past the float range is inf: no eps is valid.
    """
    if not 0 < c < math.inf:
        raise ValidationError("threshold needs a finite c > 0")
    if not 1 <= p < math.inf:
        raise ValidationError("threshold needs a finite p >= 1")
    if nf.family in ("gaussian", "power"):
        alpha = nf.params[0]
        return _times_power(c, p, (alpha - 1.0) / alpha * p)
    return _numeric_threshold(nf, c, p)


def _numeric_threshold(nf: NFunction, c: float, p: float) -> float:
    """eps* = c u*^p with u* = f(p/u*) bracketed from u = 1 by halving or
    doubling and bisected to 1e-15 relative; a density value past the
    float range counts as f(p/u) > u."""

    def excess(u):
        try:
            return u - nf.density_f(p / u)
        except OverflowError:  # f(p/u) past the float range exceeds u
            return -math.inf

    lo = hi = 1.0
    for _ in range(200):
        if excess(lo) <= 0:
            break
        lo, hi = 0.5 * lo, lo
    else:
        raise NumericError("threshold bisection found no lower bracket")
    for _ in range(200):
        if excess(hi) > 0:
            break
        lo, hi = hi, 2.0 * hi
    else:
        raise NumericError("threshold bisection found no upper bracket")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-15 * hi:
            break
    return _times_power(c, 0.5 * (lo + hi), p)


def _times_power(c: float, base: float, e: float) -> float:
    """c * base^e, in log space when base^e alone leaves the float range,
    and inf when the product does."""
    try:
        return c * base**e
    except OverflowError:
        log_value = math.log(c) + e * math.log(base)
        return math.exp(log_value) if log_value < _LOG_FLOAT_MAX else math.inf


def tail_probability_bound(
    nf: NFunction, c: float, p: float, epsilon: float, route: str = "direct"
) -> TailBoundReport:
    """Evaluate the exceedance bound 2 exp(-phi*((eps/c)^(1/p))).

    epsilon below the threshold yields valid=False (the bound value is
    still reported; it is just not asserted by the theory there).
    """
    if not 0 < c < math.inf:
        raise ValidationError("bound needs a finite c > 0")
    if not 1 <= p < math.inf:
        raise ValidationError("bound needs a finite p >= 1")
    if not epsilon > 0:
        raise ValidationError("bound needs epsilon > 0")
    thr = epsilon_threshold(nf, c, p)
    return TailBoundReport(
        c_constant=c,
        epsilon=epsilon,
        threshold=thr,
        bound=2.0 * math.exp(-conjugate(nf, (epsilon / c) ** (1.0 / p))),
        route=route,
    )


# ---------------------------------------------------------------------------
# Integral route: exact second moments of the reconstruction error


def _ms_error_curve(model, basis, scheme, t):
    """E (X_n(t) - X(t))^2 on an array of points, from ``coefficient_moments``.

    Rank-one models keep the residual form (g - gamma . B)^2, which stays
    accurate when the scheme is nearly complete.
    """
    t = np.asarray(t, dtype=float)
    B = basis_matrix(basis, scheme, t)
    idx = tuple(scheme.indices())
    if isinstance(model.structure, RankOne):
        gamma = coefficient_moments(model, basis, idx)
        return (np.asarray(model.structure.g(t), dtype=float) - gamma @ B) ** 2
    G, M = coefficient_moments(model, basis, idx, tuple(t.tolist()))
    r_tt = np.asarray(model.covariance(t, t), dtype=float)
    return r_tt - 2.0 * np.sum(M * B, axis=0) + np.sum((G @ B) * B, axis=0)


def pointwise_ms_error(
    model: ProcessModel, basis: WaveletPair, scheme: TruncationScheme, t: float
) -> float:
    """Mean-square reconstruction error at one point, from covariances:

        R(t,t) - 2 sum_c E[coef_c X(t)] b_c(t) + sum_cc' E[coef coef'] b b'

    Feasible for schemes up to 200 coefficients.
    """
    val = float(_ms_error_curve(model, basis, scheme, np.array([t]))[0])
    if val < -1e-8:
        raise NumericError(f"mean-square error quadrature came out negative ({val:.3e})")
    return max(val, 0.0)


def c_n_infty_integral(
    model: ProcessModel, basis: WaveletPair, scheme: TruncationScheme, p: float, T: float
) -> float:
    """Integral-route rate constant C_X^p int_0^T (E(X_n - X)^2)^(p/2) dt.

    Simpson with 257 nodes on [0, T].
    """
    if not 1 <= p < math.inf:
        raise ValidationError("p must be >= 1 and finite")
    if not 0 < T < math.inf:
        raise ValidationError("T must be finite and > 0")
    t, w = simpson_nodes(0.0, T, 256)
    E = _ms_error_curve(model, basis, scheme, t)
    if np.min(E) < -1e-8:
        raise NumericError("mean-square error curve came out negative")
    E = np.clip(E, 0.0, None)
    return model.det_constant**p * float(np.sum(w * E ** (p / 2.0)))


# ---------------------------------------------------------------------------
# Uniform route: direct lattice-sum constants plus k-independent moments

# Levels summed explicitly: 0.._MAX_LEVEL (at which 4^j still fits in a
# double, so frequency-side moments stay finite).
_MAX_LEVEL = 480
_CONVERGENCE_TOL = 1e-9  # the level series converges iff its ratio q < 1 - _CONVERGENCE_TOL


class _LevelSeries:
    """Level factors of the uniform-route series for one (model, basis, alpha):
    the one place that reads the route, ``q`` and ``convergent`` off the model.

    ``terms[j]`` = sqrt(sup_k E eta_j^2) 2^{j/2} for j <= _MAX_LEVEL, with the
    moment the route evaluates at explicit levels: the exact Parseval value
    for stationary models on a band-limited basis, the spectral bound
    otherwise.  ``bound_term(j)`` is the same factor built from the spectral
    bound; it decays exactly by ``q`` per level, so
    sum_{i>=j} bound_term(i) = bound_term(j) / (1 - q).

    ``suffix[j]`` = C_psi (sum_{j<=i<=_MAX_LEVEL} terms[i] + sum_{i>_MAX_LEVEL}
    bound_term(i)), the level series from j on with the lattice constant ``c_psi``;
    ``suffix[_MAX_LEVEL + 1]`` is the closed-form closure alone (inf if divergent).
    """

    def __init__(self, model: ProcessModel, basis: WaveletPair, alpha: float):
        if isinstance(model.structure, Stationary):
            self.route, self.q = "stationary", 2.0 ** (-alpha / 2.0)
        elif isinstance(model.structure, RankOne):
            self.route, self.q = "rank-one", 2.0 ** (-alpha)
        else:
            raise ValidationError(
                "uniform-route constants need a stationary spectral density "
                "or a rank-one g_hat"
            )
        self.convergent = self.q < 1.0 - _CONVERGENCE_TOL
        self.xi_moment = second_moment_xi_bound(model, basis)
        self._bound0 = math.sqrt(second_moment_eta_spectral_bound(model, basis, 0, alpha))
        levels = range(_MAX_LEVEL + 1)
        if self.route == "stationary" and band_limited(basis):
            self.terms = [
                math.sqrt(second_moment_eta_parseval(model, basis, j)) * 2.0 ** (j / 2.0)
                for j in levels
            ]
        else:
            self.terms = [self.bound_term(j) for j in levels]
        self.c_psi = lattice_constant(basis, "m")
        closure = math.inf
        if self.convergent:
            closure = self.bound_term(_MAX_LEVEL + 1) * self.c_psi / (1.0 - self.q)
        weighted = [term * self.c_psi for term in self.terms] + [closure]
        self.suffix = list(accumulate(reversed(weighted)))[::-1]

    def bound_term(self, j: int) -> float:
        return self._bound0 * self.q**j


_level_series = lru_cache(maxsize=None)(_LevelSeries)


def level_cutoff(scheme: TruncationScheme, T: float) -> int:
    """J = min(n, min{j : k_j < 2^j T + 1}); n when the inner set is empty.

    Levels below J admit the dilated-window tail constants; from J on the
    full lattice-sum constant applies.
    """
    for j, kj in enumerate(scheme.levels):
        if kj < 2.0**j * T + 1.0:
            return j
    return scheme.n


def c_n_infty_uniform(
    model: ProcessModel,
    basis: WaveletPair,
    scheme: TruncationScheme,
    p: float,
    T: float,
    alpha: float,
) -> float:
    """Uniform-route rate constant

        C_X^p T ( sqrt(sup_k E xi^2) C_phi(T, k0')
                  + sum_{j<J} sqrt(sup_k E eta_j^2) 2^{j/2} C_psi(2^j T, k_j)
                  + sum_{j>=J} sqrt(sup_k E eta_j^2) 2^{j/2} C_psi )^p

    with J = min(n, min{j : k_j < 2^j T + 1}) (J = n when the inner set is
    empty).  Level-j tail constants use the dilated window 2^j T, which is
    exactly the regime where k_j >= 2^j T + 1 makes them defined.

    Constants: C_phi(T, k0'), C_psi(2^j T, k_j) and C_psi are the direct
    lattice sums (``lattice_tail_constant`` / ``lattice_constant``) of the
    tabulated functions the code evaluates, not the envelope constants.
    The scheme keeps |k| <= k_j, so the tail constants run over the omitted
    shifts |k| >= k_j + 1 (and |k| >= k0' + 1).

    Moments: sup_k E xi^2 is the frequency-side value.  For stationary
    models on a band-limited basis (Meyer) sup_k E eta_j^2 is the exact
    Parseval value, which does not depend on k; otherwise it is the
    spectral bound (a truncated frequency window would under-estimate the
    moments of Haar and Daubechies wavelets).

    Closure: levels J..480 are summed explicitly (suffix sums computed once
    per model, basis and alpha, so a call takes O(J) time), and the levels
    from 481 on are the spectral-bound series in closed form; its ratio q is
    2^(-alpha/2) (stationary) or 2^(-alpha) (rank-one); q >= 1 - 1e-9 raises DivergenceError.
    """
    if not 1 <= p < math.inf:
        raise ValidationError("p must be >= 1 and finite")
    if not 0 < T < math.inf:
        raise ValidationError("T must be finite and > 0")
    if scheme.k0_prime < T + 1:
        raise ValidationError("C_phi(T, k0') needs k0' >= T + 1")
    series = _level_series(model, basis, alpha)
    if not series.convergent:
        raise DivergenceError(f"level series does not converge (ratio {series.q!r})")
    J = level_cutoff(scheme, T)
    if J > _MAX_LEVEL:
        raise ResourceLimitError(f"level cutoff {J} exceeds {_MAX_LEVEL} levels")
    total = math.sqrt(series.xi_moment) * lattice_tail_constant(
        basis, "f", T, scheme.k0_prime + 1
    )
    for j in range(J):
        total += series.terms[j] * lattice_tail_constant(
            basis, "m", 2.0**j * T, scheme.levels[j] + 1
        )
    total += series.suffix[J]
    return model.det_constant**p * T * total**p


def series_condition_check(
    model: ProcessModel, basis: WaveletPair, alpha: float, j_probe: int
) -> dict:
    """Partial sums and term ratios of the spectral-bound level series.

    The series sqrt(sup E xi^2) C_phi + sum_j sqrt(b_j) 2^{j/2} C_psi, with
    b_j the spectral moment bound and the direct lattice-sum constants,
    has the exact ratio q = 2^(-alpha/2) (stationary) or 2^(-alpha)
    (rank-one); its tail closes the uniform-route constant.  The verdict is
    the series' single convergence test, the one ``c_n_infty_uniform``
    raises on; ``ratios`` are the numeric term ratios up to j_probe >= 0.
    """
    if j_probe < 0:
        raise ValidationError("j_probe must be >= 0")
    series = _level_series(model, basis, alpha)
    xi_term = math.sqrt(series.xi_moment) * lattice_constant(basis, "f")
    terms = [series.bound_term(j) * series.c_psi for j in range(j_probe + 1)]
    ratios = [b / a for a, b in zip(terms[:-1], terms[1:])]
    tail = terms[-1] * series.q / (1.0 - series.q) if series.convergent else math.inf
    return {
        "route": series.route,
        "xi_term": xi_term,
        "terms": terms,
        "ratios": ratios,
        "limit_ratio": series.q,
        "verdict": "convergent" if series.convergent else "divergent",
        "partial_sum": xi_term + sum(terms),
        "geometric_tail": tail,
    }


# ---------------------------------------------------------------------------
# Truncation planner


def _lattice_scheme(n: int, m: int, T: float) -> TruncationScheme:
    return TruncationScheme(
        k0_prime=math.ceil(T) + 1 + m,
        levels=tuple(math.ceil(2.0**j * T) + 1 + m for j in range(n)),
    )


def plan_truncation(
    model: ProcessModel,
    basis: WaveletPair,
    nf: NFunction,
    p: float,
    T: float,
    epsilon: float,
    delta: float,
    alpha: float,
    n_max: int = 12,
    m_max: int = 64,
):
    """Smallest lattice scheme whose uniform-route bound meets the target.

    Walks schemes k_j = ceil(2^j T) + 1 + m, k0' = ceil(T) + 1 + m in
    row-major order (n = 1..n_max outer, m = 0..m_max inner) and returns the
    first (scheme, report) whose bound is <= delta with epsilon above the
    validity threshold.  Every lattice scheme keeps k_j >= 2^j T + 1, so the
    level cutoff J equals n throughout.  Exhaustion raises
    InfeasiblePlanError carrying the smallest bound among schemes where
    epsilon clears the threshold, or, when it clears it nowhere, the
    smallest bound overall (then marked valid=False).
    """
    if not (0.0 < delta < 1.0):
        raise ValidationError("delta must be in (0, 1)")
    if not epsilon > 0:
        raise ValidationError("epsilon must be positive")
    if not 0 < T < math.inf:
        raise ValidationError("T must be finite and > 0")
    if not math.isfinite(alpha):
        raise ValidationError("alpha must be finite")
    best = best_valid = None
    for n in range(1, n_max + 1):
        for m in range(0, m_max + 1):
            scheme = _lattice_scheme(n, m, T)
            c = c_n_infty_uniform(model, basis, scheme, p, T, alpha)
            rep = tail_probability_bound(nf, c, p, epsilon, route="uniform")
            if best is None or rep.bound < best[1].bound:
                best = (scheme, rep)
            if rep.valid:
                if rep.bound <= delta:
                    return scheme, rep
                if best_valid is None or rep.bound < best_valid[1].bound:
                    best_valid = (scheme, rep)
    if best_valid is not None:
        best, detail = best_valid, "best valid-region bound"
    else:
        detail = "epsilon is below the validity threshold on every scheme; best bound"
    raise InfeasiblePlanError(
        f"no lattice scheme up to n={n_max}, m={m_max} reaches bound <= {delta} "
        f"({detail} {best[1].bound:.6g} at {best[0].spec_string()})",
        best_bound=best[1],
        best_scheme=best[0],
    )
