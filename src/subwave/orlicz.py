"""Orlicz N-function calculus.

An N-function is an even convex function ``phi`` with ``phi(0) = 0`` that is
sublinear at the origin and superlinear at infinity.  Together with its
nondecreasing density ``f`` (``phi(u) = int_0^|u| f``) and its Young-Fenchel
conjugate ``phi*`` it drives every exponential tail bound in this package:
the conjugate sits in the exponent, the density defines the smallest epsilon
for which the bound is asserted.

Built-in families:

* ``power:alpha``   phi(x) = |x|^alpha / alpha for 1 < alpha <= 2, with
  conjugate |x|^beta / beta, 1/alpha + 1/beta = 1, density x^(alpha-1).
* ``gaussian``      phi(x) = x^2/2, self-conjugate, density x: the power
  family at alpha = 2 under its own name.

Custom evaluators are accepted and validated structurally on a fixed grid at
construction time.
"""

import math
import re
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .errors import NumericError, ValidationError

# Fixed validation grid: {+-10^k : k = -6..1} plus 0.
_VALIDATION_GRID = sorted(
    {0.0}
    | {10.0**k for k in range(-6, 2)}
    | {-(10.0**k) for k in range(-6, 2)}
)

# Largest bracket endpoint the conjugate search will expand to.
_BRACKET_CAP = 2.0**60
# Relative width of [a, b] at which the golden-section search stops.
_GOLDEN_REL_TOL = 1e-12


@dataclass(frozen=True)
class NFunction:
    """An Orlicz N-function with density, conjugate and quadratic-origin data.

    ``q_constant`` is lim_{x->0} phi(x)/x^2, stored as an extended real
    (``math.inf`` allowed); it is only ever checked for positivity.
    """

    family: str
    params: tuple
    phi: Callable[[float], float]
    density_f: Callable[[float], float]
    conjugate_closed_form: Optional[Callable[[float], float]] = None
    q_constant: float = field(default=math.inf)

    def __post_init__(self):
        _validate_structure(self)

    def spec_string(self) -> str:
        if self.family == "power":
            return f"power:{self.params[0]:g}"
        return self.family


def _validate_structure(nf: NFunction) -> None:
    """Grid-level checks of the N-function axioms; raises ValidationError."""
    phi = nf.phi
    if abs(phi(0.0)) > 1e-12:
        raise ValidationError("phi(0) must be 0")
    for x in _VALIDATION_GRID:
        px, pmx = phi(x), phi(-x)
        if not (np.isfinite(px) and px >= -1e-15):
            raise ValidationError(f"phi({x}) is not finite nonnegative")
        if abs(px - pmx) > 1e-12 * (1.0 + abs(px)):
            raise ValidationError(f"phi is not even at x={x}")
    pos = [x for x in _VALIDATION_GRID if x > 0]
    # convexity via midpoints of consecutive positive grid points
    for a, b in zip(pos[:-1], pos[1:]):
        mid = 0.5 * (a + b)
        if phi(mid) > 0.5 * (phi(a) + phi(b)) + 1e-10 * (1.0 + phi(b)):
            raise ValidationError(f"phi fails midpoint convexity on [{a}, {b}]")
    # sublinear at 0 / superlinear at infinity, spot-checked at grid endpoints
    r_lo = phi(pos[0]) / pos[0]
    r_hi = phi(pos[-1]) / pos[-1]
    r_one = phi(1.0)
    if not r_lo < 0.5 * r_hi:
        raise ValidationError("phi(x)/x does not decrease toward 0 on the grid")
    if not r_hi > r_one:
        raise ValidationError("phi(x)/x does not grow toward the grid endpoint")
    # density: nondecreasing, zero at zero (tolerance covers the
    # finite-difference fallback, whose f(0) is O(step))
    f = nf.density_f
    if abs(f(0.0)) > 1e-5:
        raise ValidationError("density must vanish at 0")
    vals = [f(x) for x in pos]
    if any(b < a - 1e-12 * (1 + abs(a)) for a, b in zip(vals[:-1], vals[1:])):
        raise ValidationError("density must be nondecreasing")
    if not nf.q_constant > 0:
        raise ValidationError("q_constant (lim phi(x)/x^2 at 0) must be positive")


def make_gaussian() -> NFunction:
    """The Gaussian N-function phi(x) = x^2/2: the power family at alpha = 2."""
    return replace(make_power_family(2.0), family="gaussian")


def make_power_family(alpha: float) -> NFunction:
    """phi(x) = |x|^alpha / alpha for 1 < alpha <= 2.

    Density f(x) = x^(alpha-1); conjugate |x|^beta / beta with
    1/alpha + 1/beta = 1.  The quadratic-origin constant is 1/2 at alpha = 2
    and +inf for alpha < 2 (|x|^(alpha-2)/alpha blows up at the origin).
    """
    if not (1.0 < alpha <= 2.0):
        raise ValidationError(f"power family needs alpha in (1, 2], got {alpha}")
    beta = alpha / (alpha - 1.0)
    return NFunction(
        family="power",
        params=(alpha,),
        phi=lambda x: abs(x) ** alpha / alpha,
        density_f=lambda x: x ** (alpha - 1.0),
        conjugate_closed_form=lambda x: abs(x) ** beta / beta,
        q_constant=0.5 if alpha == 2.0 else math.inf,
    )


def make_custom(
    phi: Callable[[float], float],
    density: Optional[Callable[[float], float]] = None,
    conjugate_closed_form: Optional[Callable[[float], float]] = None,
    q_constant: Optional[float] = None,
) -> NFunction:
    """Wrap user evaluators as an NFunction, validating the axioms on a grid.

    When ``density`` is omitted a forward finite difference of ``phi`` is
    used (relative step 1e-6).  When ``q_constant`` is omitted it is
    estimated from phi(x)/x^2 at the smallest grid point and mapped to +inf
    when that ratio exceeds 1e6.
    """
    if density is None:
        def density(x, _phi=phi):
            h = 1e-6 * (1.0 + x)
            return (_phi(x + h) - _phi(x)) / h
    if q_constant is None:
        x0 = 1e-6
        ratio = phi(x0) / (x0 * x0)
        q_constant = math.inf if ratio > 1e6 else ratio
    return NFunction(
        family="custom",
        params=(),
        phi=phi,
        density_f=density,
        conjugate_closed_form=conjugate_closed_form,
        q_constant=q_constant,
    )


def density(nf: NFunction, x: float) -> float:
    """Density f of the N-function at x >= 0 (right-continuous, nondecreasing)."""
    if x < 0:
        raise ValidationError("density is defined on x >= 0")
    return nf.density_f(x)


def _bracket_endpoint(phi, xa: float) -> float:
    """Smallest power-of-two y with phi(y)/y > xa.

    phi(y)/y is nondecreasing and tends to infinity, so doubling terminates;
    capped at 2^60 for pathological evaluators.
    """
    y = 1.0
    while phi(y) / y <= xa:
        y *= 2.0
        if y > _BRACKET_CAP:
            raise NumericError(
                "conjugate bracket not established below 2^60; "
                "phi does not look superlinear"
            )
    return y


def _golden_max(g, a: float, b: float) -> float:
    """Golden-section maximum of a unimodal g on [a, b]; returns max value."""
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv * (b - a)
    d = a + inv * (b - a)
    gc, gd = g(c), g(d)
    while (b - a) > _GOLDEN_REL_TOL * max(1.0, abs(b)):
        if gc >= gd:
            b, d, gd = d, c, gc
            c = b - inv * (b - a)
            gc = g(c)
        else:
            a, c, gc = c, d, gd
            d = a + inv * (b - a)
            gd = g(d)
    return max(gc, gd, g(0.5 * (a + b)))


def numeric_conjugate(phi: Callable[[float], float], x: float) -> float:
    """sup_y (|x| y - phi(y)) for an even superlinear phi, by golden section.

    Usable on bare evaluators (e.g. for biconjugation of a numerically
    computed conjugate, which need not satisfy the quadratic-origin
    assumption and so cannot be wrapped as an NFunction).
    """
    xa = abs(x)
    y_max = _bracket_endpoint(phi, xa)
    val = _golden_max(lambda y: xa * y - phi(y), 0.0, y_max)
    # y = 0 is always admissible and gives 0
    return max(val, 0.0)


def conjugate(nf: NFunction, x: float) -> float:
    """Young-Fenchel conjugate phi*(x) = sup_y (x*y - phi(y)).

    Uses the closed form when the family carries one, otherwise a
    golden-section search on the concave objective y -> x*y - phi(y) over
    [0, y_max] with y_max expanded until phi(y_max)/y_max > |x|.  Evenness of
    phi makes the conjugate even, so only |x| is searched.  A closed form
    past the float range gives inf.
    """
    if nf.conjugate_closed_form is not None:
        try:
            return nf.conjugate_closed_form(x)
        except OverflowError:
            return math.inf
    return numeric_conjugate(nf.phi, x)


_POWER_SPEC = re.compile(r"^power:(\d+(?:\.\d+)?)$")


def parse_nfunction_spec(spec: str) -> NFunction:
    """Parse the config string form: "gaussian" or "power:<alpha>"."""
    if spec == "gaussian":
        return make_gaussian()
    m = _POWER_SPEC.match(spec)
    if m:
        return make_power_family(float(m.group(1)))
    raise ValidationError(f"unknown N-function spec {spec!r}")
