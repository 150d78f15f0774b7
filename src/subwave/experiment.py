"""Monte Carlo experiment harness: reconstruction-error boxplot data and
bound-tightness comparison, with CSV/JSON emission.

A run computes the integral-route rate constant and the tail bounds of
each of a list of nested truncation schemes, simulates Gaussian paths, and
expands each block of the sampler's paths against every scheme in the
thread that drew it (``expansion.block_lp_errors``), which gives the
Lp([0,T]) error integral per (scheme, path); it compares empirical
exceedance frequencies against the bounds.  0 and T must be nodes of the
simulation grid; configs where they are not are rejected.

All randomness is keyed by the config seed through independent streams,
one per block of paths, and the expansion runs on one BLAS thread, so a
config maps to byte-identical outputs whatever the thread counts, and
path i's error row is the same for any ``n_paths``.
"""

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Dict, List, Tuple, get_args, get_origin

import numpy as np

from .bounds import TailBoundReport, c_n_infty_integral, tail_probability_bound
from .errors import ValidationError
from .expansion import (
    TruncationScheme,
    block_lp_errors,
    check_support_coverage,
    interval_window,
    parse_scheme_spec,
)
# Not called here, but kept importable from this module: the benchmark's
# traced run (bench/layers.py) wraps it by module attribute.
from .expansion import basis_matrix  # noqa: F401
from .orlicz import parse_nfunction_spec
from .processes import _allocate, check_path_memory, check_seed, parse_model_spec, simulate_paths, simulation_grid
from .wavelets import make_basis

_MIN_PATHS = 100

# JSON types accepted for each config field type; tuple fields are JSON
# lists of their item type, and schemes are spec strings.
_JSON_TYPES = {str: (str,), float: (int, float), int: (int,), TruncationScheme: (str,)}


@dataclass(frozen=True)
class ExperimentConfig:
    model_spec: str
    basis_spec: str
    nfunction_spec: str
    schemes: Tuple[TruncationScheme, ...]
    p: float
    T: float
    grid_L: float
    grid_h: float
    n_paths: int
    epsilons: Tuple[float, ...]
    seed: int

    def __post_init__(self):
        for name in ("p", "T", "grid_L", "grid_h"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        if len(self.schemes) < 2:
            raise ValidationError("need at least 2 truncation schemes")
        for a, b in zip(self.schemes[:-1], self.schemes[1:]):
            if not b.contains(a):
                raise ValidationError(
                    f"schemes must be nested: {b.spec_string()} does not "
                    f"contain {a.spec_string()}"
                )
        if self.n_paths < _MIN_PATHS:
            raise ValidationError(f"n_paths must be >= {_MIN_PATHS} for tail estimation")
        if not self.epsilons or not all(0 < e < math.inf for e in self.epsilons):
            raise ValidationError("epsilons must be a nonempty list of finite positives")
        # the tails are keyed (scheme, epsilon): a repeat would drop rows
        if len(set(self.epsilons)) < len(self.epsilons):
            raise ValidationError("epsilons must not repeat")
        check_seed(self.seed)
        if self.T <= 0 or self.grid_L < self.T:
            raise ValidationError("grid [-L, L] must cover [0, T]")
        if self.p < 1:
            raise ValidationError("p must be >= 1")
        # unknown specs fail here, before a run makes its output directory
        # (under 0.1 ms once the basis is built: model and basis are memoised)
        parse_model_spec(self.model_spec)
        basis = make_basis(self.basis_spec)
        parse_nfunction_spec(self.nfunction_spec)
        # 0 and T must be nodes of the simulation grid, and the grid must
        # cover every support the expansion reads
        grid = simulation_grid(self.grid_L, self.grid_h)
        interval_window(grid, self.T)
        check_support_coverage(basis, self.schemes[-1], grid)
        # the path buffer and a float error per (scheme, path)
        check_path_memory(self.n_paths, len(grid), 8 * len(self.schemes))

    def to_json_dict(self) -> dict:
        return {f.name: _to_json(getattr(self, f.name)) for f in fields(self)}


def _to_json(value):
    if isinstance(value, tuple):
        return [v.spec_string() if isinstance(v, TruncationScheme) else v for v in value]
    return value


def strict_json(value, **kwargs) -> str:
    """``json.dumps`` of ``value`` with every non-finite float written as null.

    The default dump writes inf and nan as ``Infinity`` and ``NaN``, which
    strict JSON parsers reject; null marks the value as undefined instead
    (a threshold past the float range, the ratio to a bound of 0).
    """
    return json.dumps(_finite_or_null(value), allow_nan=False, **kwargs)


def _finite_or_null(value):
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def _from_json(tp, value):
    """The value of a config field of type ``tp``; TypeError on a wrong JSON type."""
    if get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise TypeError
        return tuple(_from_json(get_args(tp)[0], v) for v in value)
    # bool subclasses int, but a JSON true/false is never a config number
    if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[tp]):
        raise TypeError
    return parse_scheme_spec(value) if tp is TruncationScheme else tp(value)


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Strict config parsing: unknown keys and missing fields are errors."""
    schema = {f.name: f.type for f in fields(ExperimentConfig)}
    unknown = set(doc) - set(schema)
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    missing = set(schema) - set(doc)
    if missing:
        raise ValidationError(f"missing config keys: {sorted(missing)}")
    values = {}
    for key, tp in schema.items():
        try:
            values[key] = _from_json(tp, doc[key])
        except TypeError:
            raise ValidationError(f"config field {key!r} has the wrong type") from None
    return ExperimentConfig(**values)


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return config_from_dict(json.load(fh))


@dataclass(frozen=True)
class ExperimentResult:
    """The Lp errors of every (scheme, path) and the bound of every
    (scheme, epsilon); the tails and the summary are derived from them."""

    config: ExperimentConfig
    per_path_errors: np.ndarray  # [scheme, path]
    theoretical_bound: Dict[Tuple[int, float], TailBoundReport]

    @property
    def empirical_tail(self) -> Dict[Tuple[int, float], float]:
        """The share of paths whose error exceeds epsilon, per (scheme, epsilon)."""
        return {(s, eps): freq for s, eps, freq, _, _ in self._tail_rows()}

    @property
    def summary(self) -> List[dict]:
        """Per scheme: its spec, its rate constant and the quartiles of its errors."""
        rows = []
        for s, (scheme, errors) in enumerate(zip(self.config.schemes, self.per_path_errors)):
            q1, q2, q3 = _quartiles(errors)
            c = self.theoretical_bound[(s, self.config.epsilons[0])].c_constant
            rows.append({"scheme": scheme.spec_string(), "c_n_infty": c, "median": q2, "q1": q1, "q3": q3})
        return rows

    def results_csv(self) -> str:
        """One row ``s,i,repr(error)`` per (scheme, path): each scheme's rows
        are one join, over a path-index column formatted once."""
        index = [f",{i}," for i in range(self.per_path_errors.shape[1])]
        parts = ["scheme_index,path_index,lp_error\n"]
        for s, row in enumerate(self.per_path_errors.tolist()):
            if row:  # a zero-path result is the header alone
                parts += (f"{s}", f"\n{s}".join(map(str.__add__, index, map(repr, row))), "\n")
        return "".join(parts)

    def _tail_rows(self):
        """(scheme index, epsilon, empirical frequency, bound report, Monte
        Carlo standard error) per (scheme, epsilon), in sorted order."""
        n = self.per_path_errors.shape[1]
        for (s, eps), rep in sorted(self.theoretical_bound.items()):
            freq = float(np.mean(self.per_path_errors[s] > eps))
            yield s, eps, freq, rep, math.sqrt(freq * (1.0 - freq) / n)

    def tails_csv(self) -> str:
        lines = ["scheme_index,epsilon,empirical,bound,valid,stderr"]
        for s, eps, freq, rep, se in self._tail_rows():
            lines.append(
                f"{s},{eps!r},{freq!r},{rep.bound!r},{str(rep.valid).lower()},{se!r}"
            )
        return "\n".join(lines) + "\n"


def _quartiles(x) -> Tuple[float, float, float]:
    """The 25th, 50th and 75th percentiles of x (no NaN), equal bit for bit
    to ``np.percentile(x, [25, 50, 75])`` (its default 'linear' rule; a tie
    of 0.0 and -0.0 may take the other sign), from one sort.
    ``np.percentile`` imports ``numpy.ma`` on its first call in a process,
    which costs more than the sort."""
    s = np.sort(x)
    out = []
    for q in (0.25, 0.5, 0.75):
        i, t = divmod((len(s) - 1) * q, 1.0)
        a, b = s[int(i)], s[min(int(i) + 1, len(s) - 1)]
        # numpy's lerp: from a below t = 0.5, from b at and above it
        out.append(float(b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t))
    return tuple(out)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Bound, simulate, expand and measure; deterministic given the config.

    The rate constants and bounds come first, so a config without a usable
    bound fails before any path is drawn.  Each block of paths is expanded
    in the sampler's thread that drew it, into its columns of the errors.
    """
    model = parse_model_spec(cfg.model_spec)
    basis = make_basis(cfg.basis_spec)
    nf = parse_nfunction_spec(cfg.nfunction_spec)

    bounds: Dict[Tuple[int, float], TailBoundReport] = {}
    for s_idx, scheme in enumerate(cfg.schemes):
        c = c_n_infty_integral(model, basis, scheme, cfg.p, cfg.T)
        for eps in cfg.epsilons:
            bounds[(s_idx, eps)] = tail_probability_bound(nf, c, cfg.p, eps, route="integral")

    grid = simulation_grid(cfg.grid_L, cfg.grid_h)
    expand = block_lp_errors(basis, cfg.schemes, grid, cfg.p, cfg.T)
    errors = _allocate((len(cfg.schemes), cfg.n_paths))

    def expand_block(first, block):
        expand(block, errors[:, first : first + len(block)])

    simulate_paths(model, cfg.grid_L, cfg.grid_h, cfg.n_paths, cfg.seed, on_block=expand_block)
    return ExperimentResult(config=cfg, per_path_errors=errors, theoretical_bound=bounds)


def tightness_report(result: ExperimentResult) -> dict:
    """Empirical frequency vs bound per (scheme, epsilon) with MC error bars.

    Rows with an invalid epsilon (below the threshold) are reported but
    excluded from violation flagging.  The 3-standard-error tolerance is a
    Monte Carlo harness convention, stated in the header.
    """
    if not any(r.valid for r in result.theoretical_bound.values()):
        raise ValidationError("tightness report needs at least one valid bound")
    rows = []
    violations = 0
    for s, eps, freq, rep, se in result._tail_rows():
        flagged = bool(rep.valid and freq > rep.bound + 3.0 * se)
        violations += flagged
        rows.append(
            {
                "scheme_index": s,
                "epsilon": eps,
                "empirical": freq,
                "bound": rep.bound,
                "ratio": freq / rep.bound if rep.bound > 0 else math.inf,
                "stderr": se,
                "valid": rep.valid,
                "violation": flagged,
            }
        )
    return {
        "mc_policy": "flag empirical > bound + 3 standard errors (valid rows only)",
        "n_paths": result.per_path_errors.shape[1],
        "rows": rows,
        "violations": violations,
    }


def write_outputs(result: ExperimentResult, out_dir) -> dict:
    """Emit results.csv, tails.csv and report.json; returns the file map.

    The report is built first, so a result it rejects writes no file.
    """
    report = {
        "config": result.config.to_json_dict(),
        "summary": result.summary,
        "tightness": tightness_report(result),
    }
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = {
        "results": out / "results.csv",
        "tails": out / "tails.csv",
        "report": out / "report.json",
    }
    files["results"].write_text(result.results_csv())
    files["tails"].write_text(result.tails_csv())
    files["report"].write_text(strict_json(report, indent=2) + "\n")
    return {k: str(v) for k, v in files.items()}
