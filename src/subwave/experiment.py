"""Monte Carlo experiment harness: reconstruction-error boxplot data and
bound-tightness comparison, with CSV/JSON emission.

A run simulates Gaussian paths, expands them all at once against each of a
list of nested truncation schemes with the batched pipeline of
``expansion`` (``batch_lp_errors``), which gives the Lp([0,T]) error
integral per (scheme, path), and compares empirical exceedance frequencies
against the theoretical bounds computed from the integral-route rate
constant.  0 and T must be nodes of the simulation grid; configs where they
are not are rejected.

All randomness is keyed by the config seed through counter-based per-path
streams, so a config maps to byte-identical outputs.
"""

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Dict, List, Tuple, get_args, get_origin

import numpy as np

from .bounds import TailBoundReport, c_n_infty_integral, tail_probability_bound
from .errors import ResourceLimitError, ValidationError
from .expansion import TruncationScheme, batch_lp_errors, interval_window, parse_scheme_spec
# Not called here, but kept importable from this module: the benchmark's
# traced run (bench/layers.py) wraps them by module attribute.
from .expansion import basis_matrix, check_support_coverage  # noqa: F401
from .orlicz import parse_nfunction_spec
from .processes import parse_model_spec, simulate_paths, simulation_grid
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
        if not self.epsilons or any(e <= 0 for e in self.epsilons):
            raise ValidationError("epsilons must be a nonempty list of positives")
        if self.T <= 0 or self.grid_L < self.T:
            raise ValidationError("grid [-L, L] must cover [0, T]")
        if self.p < 1:
            raise ValidationError("p must be >= 1")
        try:
            grid = simulation_grid(self.grid_L, self.grid_h)
        except ResourceLimitError as exc:
            raise ValidationError(str(exc)) from None
        # 0 and T must be nodes of the simulation grid
        interval_window(grid, self.T)

    def to_json_dict(self) -> dict:
        return {f.name: _to_json(getattr(self, f.name)) for f in fields(self)}


def _to_json(value):
    if isinstance(value, tuple):
        return [v.spec_string() if isinstance(v, TruncationScheme) else v for v in value]
    return value


def _from_json(tp, value):
    """The value of a config field of type ``tp``; TypeError on a wrong JSON type."""
    if get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise TypeError
        return tuple(_from_json(get_args(tp)[0], v) for v in value)
    if not isinstance(value, _JSON_TYPES[tp]):
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
    config: ExperimentConfig
    per_path_errors: np.ndarray  # [scheme, path]
    empirical_tail: Dict[Tuple[int, float], float]
    theoretical_bound: Dict[Tuple[int, float], TailBoundReport]
    summary: List[dict]

    def results_csv(self) -> str:
        lines = ["scheme_index,path_index,lp_error"]
        for s in range(self.per_path_errors.shape[0]):
            for i in range(self.per_path_errors.shape[1]):
                lines.append(f"{s},{i},{self.per_path_errors[s, i]!r}")
        return "\n".join(lines) + "\n"

    def tails_csv(self) -> str:
        lines = ["scheme_index,epsilon,empirical,bound,valid,stderr"]
        n = self.per_path_errors.shape[1]
        for (s, eps), freq in sorted(self.empirical_tail.items()):
            rep = self.theoretical_bound[(s, eps)]
            se = math.sqrt(freq * (1.0 - freq) / n)
            lines.append(
                f"{s},{eps!r},{freq!r},{rep.bound!r},{str(rep.valid).lower()},{se!r}"
            )
        return "\n".join(lines) + "\n"


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Simulate, expand, measure, and bound; deterministic given the config."""
    model = parse_model_spec(cfg.model_spec)
    basis = make_basis(cfg.basis_spec)
    nf = parse_nfunction_spec(cfg.nfunction_spec)

    paths = simulate_paths(model, cfg.grid_L, cfg.grid_h, cfg.n_paths, cfg.seed)
    grid = paths[0].grid
    X = np.column_stack([p.values for p in paths])
    errors = np.array(
        [batch_lp_errors(basis, scheme, grid, X, cfg.p, cfg.T) for scheme in cfg.schemes]
    )

    bounds: Dict[Tuple[int, float], TailBoundReport] = {}
    tails: Dict[Tuple[int, float], float] = {}
    summary = []
    for s_idx, scheme in enumerate(cfg.schemes):
        c_const = c_n_infty_integral(model, basis, scheme, cfg.p, cfg.T)
        for eps in cfg.epsilons:
            tails[(s_idx, eps)] = float(np.mean(errors[s_idx] > eps))
            bounds[(s_idx, eps)] = tail_probability_bound(
                nf, c_const, cfg.p, eps, route="integral"
            )
        q1, q2, q3 = np.percentile(errors[s_idx], [25, 50, 75])
        summary.append(
            {
                "scheme": scheme.spec_string(),
                "c_n_infty": c_const,
                "median": float(q2),
                "q1": float(q1),
                "q3": float(q3),
            }
        )
    return ExperimentResult(
        config=cfg,
        per_path_errors=errors,
        empirical_tail=tails,
        theoretical_bound=bounds,
        summary=summary,
    )


def tightness_report(result: ExperimentResult) -> dict:
    """Empirical frequency vs bound per (scheme, epsilon) with MC error bars.

    Rows with an invalid epsilon (below the threshold) are reported but
    excluded from violation flagging.  The 3-standard-error tolerance is a
    Monte Carlo harness convention, stated in the header.
    """
    if not any(r.valid for r in result.theoretical_bound.values()):
        raise ValidationError("tightness report needs at least one valid bound")
    n = result.per_path_errors.shape[1]
    rows = []
    violations = 0
    for (s, eps), rep in sorted(result.theoretical_bound.items()):
        freq = result.empirical_tail[(s, eps)]
        se = math.sqrt(freq * (1.0 - freq) / n)
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
        "n_paths": n,
        "rows": rows,
        "violations": violations,
    }


def write_outputs(result: ExperimentResult, out_dir) -> dict:
    """Emit results.csv, tails.csv and report.json; returns the file map."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = {
        "results": out / "results.csv",
        "tails": out / "tails.csv",
        "report": out / "report.json",
    }
    files["results"].write_text(result.results_csv())
    files["tails"].write_text(result.tails_csv())
    report = {
        "config": result.config.to_json_dict(),
        "summary": result.summary,
        "tightness": tightness_report(result),
    }
    files["report"].write_text(json.dumps(report, indent=2) + "\n")
    return {k: str(v) for k, v in files.items()}
