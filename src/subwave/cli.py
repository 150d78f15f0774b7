"""Command-line interface.

Subcommands: bound, threshold, plan, basis-info, simulate, experiment.
Exit codes: 0 success, 2 validation/config error, 1 numeric failure.
"""

import argparse
import json
import sys
from pathlib import Path

from .bounds import epsilon_threshold, plan_truncation, tail_probability_bound
from .errors import SubwaveError, ValidationError
from .experiment import load_config, run_experiment, strict_json, write_outputs
from .orlicz import parse_nfunction_spec
from .processes import check_path_memory, check_seed, dump_paths, parse_model_spec, simulate_paths, simulation_grid
from .wavelets import (
    envelope_constant,
    lattice_constant,
    lattice_tail_constant,
    lipschitz_fit,
    make_basis,
    tail_constant,
)

_DEFAULT_LIPSCHITZ_ORDERS = (0.25, 0.5, 0.75, 1.0)


def _cmd_bound(args) -> int:
    nf = parse_nfunction_spec(args.phi)
    rep = tail_probability_bound(nf, args.c, args.p, args.eps)
    print(strict_json(rep.to_json_dict()))
    return 0


def _cmd_threshold(args) -> int:
    nf = parse_nfunction_spec(args.phi)
    print(repr(epsilon_threshold(nf, args.c, args.p)))
    return 0


def _cmd_plan(args) -> int:
    model = parse_model_spec(args.model)
    basis = make_basis(args.basis)
    nf = parse_nfunction_spec(args.phi)
    scheme, rep = plan_truncation(
        model, basis, nf, args.p, args.T, args.eps, args.delta, args.alpha
    )
    print(scheme.spec_string())
    print(strict_json(rep.to_json_dict()))
    return 0


def _cmd_basis_info(args) -> int:
    basis = make_basis(args.basis)
    order, constant = lipschitz_fit(basis, _DEFAULT_LIPSCHITZ_ORDERS)
    info = {
        "family": basis.family,
        "continuous": basis.continuous,
        "C_delta_f": envelope_constant(basis.envelope_f),
        "C_delta_m": envelope_constant(basis.envelope_m),
        "C_delta_T_k1_f": tail_constant(basis.envelope_f, args.T, args.k1),
        "C_delta_T_k1_m": tail_constant(basis.envelope_m, args.T, args.k1),
        "C_lattice_f": lattice_constant(basis, "f"),
        "C_lattice_m": lattice_constant(basis, "m"),
        "C_lattice_T_k1_f": lattice_tail_constant(basis, "f", args.T, args.k1),
        "C_lattice_T_k1_m": lattice_tail_constant(basis, "m", args.T, args.k1),
        "T": args.T,
        "k1": args.k1,
        "lipschitz": {"order": order, "constant": constant},
    }
    print(json.dumps(info, indent=2))
    return 0


def _make_out_dir(path) -> None:
    """Create the --out directory before any work: a path that cannot be
    one is a usage error (exit 2), not a traceback after the simulation."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot create output directory {path}: {exc.strerror}") from None


def _cmd_simulate(args) -> int:
    model = parse_model_spec(args.model)
    # a bad grid, path count or seed exits 2, and paths past memory exit 1,
    # before --out is made
    grid = simulation_grid(args.L, args.h)
    if args.paths < 1:
        raise ValidationError("--paths must be >= 1")
    check_seed(args.seed)
    check_path_memory(args.paths, len(grid))
    _make_out_dir(args.out)
    paths = simulate_paths(model, args.L, args.h, args.paths, args.seed)
    written = dump_paths(paths, args.out)
    print(f"wrote {len(written)} paths to {args.out}")
    return 0


def _cmd_experiment(args) -> int:
    try:
        cfg = load_config(args.config)
    except OSError as exc:
        raise ValidationError(f"cannot read config {args.config}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}") from None
    _make_out_dir(args.out)
    result = run_experiment(cfg)
    files = write_outputs(result, args.out)
    print(json.dumps(files))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="subwave",
        description="Wavelet expansions of phi-sub-Gaussian processes: "
        "tail bounds, truncation planning, Monte Carlo validation.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bound", help="evaluate the exceedance bound")
    b.add_argument("--phi", required=True, help='N-function: "gaussian" | "power:<a>"')
    b.add_argument("--c", type=float, required=True)
    b.add_argument("--p", type=float, required=True)
    b.add_argument("--eps", type=float, required=True)
    b.set_defaults(func=_cmd_bound)

    t = sub.add_parser("threshold", help="minimal epsilon for bound validity")
    t.add_argument("--phi", required=True)
    t.add_argument("--c", type=float, required=True)
    t.add_argument("--p", type=float, required=True)
    t.set_defaults(func=_cmd_threshold)

    pl = sub.add_parser("plan", help="plan a truncation scheme for a target")
    pl.add_argument("--model", required=True, help='"ou:<lambda>" | "separable:gauss-bump"')
    pl.add_argument("--basis", required=True, help='"haar" | "daubechies:2|3|4" | "meyer"')
    pl.add_argument("--phi", required=True)
    pl.add_argument("--p", type=float, required=True)
    pl.add_argument("--T", type=float, required=True)
    pl.add_argument("--eps", type=float, required=True)
    pl.add_argument("--delta", type=float, required=True)
    pl.add_argument("--alpha", type=float, required=True)
    pl.set_defaults(func=_cmd_plan)

    bi = sub.add_parser("basis-info", help="lattice-sum constants and Lipschitz fit")
    bi.add_argument("--basis", required=True)
    bi.add_argument("--T", type=float, default=1.0)
    bi.add_argument("--k1", type=int, default=3)
    bi.set_defaults(func=_cmd_basis_info)

    sim = sub.add_parser("simulate", help="simulate Gaussian paths to CSV")
    sim.add_argument("--model", required=True)
    sim.add_argument("--L", type=float, required=True)
    sim.add_argument("--h", type=float, required=True)
    sim.add_argument("--paths", type=int, required=True)
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=_cmd_simulate)

    ex = sub.add_parser("experiment", help="run a Monte Carlo experiment config")
    ex.add_argument("--config", required=True)
    ex.add_argument("--out", required=True)
    ex.set_defaults(func=_cmd_experiment)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SubwaveError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
