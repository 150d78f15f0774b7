"""The benchmark's workloads: their inputs, one operation, and its checks.

A workload is built once per process (``setup``, timed as ``setup_s``),
then runs operations ``op(i)``; ``check(out)`` verifies the outputs of one
operation outside the timed region and returns failure messages.  Inputs
depend only on the workload seed.  Operations call the program through its
module attributes (``experiment.run_experiment`` and so on), so the traced
run can wrap those attributes in spans.
"""

import dataclasses
import itertools
import json
import math
import random
from pathlib import Path

import numpy as np

from subwave import bounds, expansion, experiment, orlicz, processes, quad, wavelets

import checks

OUT = Path(__file__).resolve().parent / "out"

ALPHA = 0.5  # Lipschitz order of every planner target
PLAN_M_MAX = 64  # plan_truncation's default lattice width

# Criterion-8 configuration of the acceptance suite, with epsilons above the
# validity threshold (2c) of every scheme (c = 0.0577 for the first scheme).
MC_OU_MEYER = {
    "model_spec": "ou:1",
    "basis_spec": "meyer",
    "nfunction_spec": "gaussian",
    "schemes": ["k0'=2;k=2,3", "k0'=3;k=3,4,5"],
    "p": 2,
    "T": 1,
    "grid_L": 53.0,
    "grid_h": 1.0 / 32.0,
    "n_paths": 2000,
    "epsilons": [0.13, 0.16, 0.2, 0.26, 0.35],
}

# Rank-one model on a compactly supported basis: 44, 75 and 130
# coefficients, c = 2.2e-8, 2.7e-12 and 3.2e-14; epsilons above 2c of the
# first scheme (4.43e-8).
MC_BUMP_DB4 = {
    "model_spec": "separable:gauss-bump",
    "basis_spec": "daubechies:4",
    "nfunction_spec": "gaussian",
    "schemes": ["k0'=4;k=4,5,7", "k0'=5;k=5,6,8,11", "k0'=6;k=6,7,9,13,21"],
    "p": 2,
    "T": 1,
    "grid_L": 14.0,
    "grid_h": 1.0 / 64.0,
    "n_paths": 20000,
    "epsilons": [5e-8, 6e-8, 7.5e-8, 1e-7, 1.35e-7],
}

# The README library quickstart, over a fixed set of paths.
QUICKSTART = {
    "model_spec": "ou:1",
    "basis_spec": "meyer",
    "schemes": ["k0'=2;k=2,3", "k0'=3;k=3,4,5"],
    "p": 2,
    "T": 1,
    "grid_L": 53.0,
    "grid_h": 1.0 / 32.0,
    "n_paths": 20,
}

# Fine-grid values of E int_0^1 |X - X_n|^2 for the quickstart schemes
# (bench/reference.py), against which the quickstart's p = 2 identity is
# checked; the program's integral route reads 0.0577279 and 0.0279445.
QUICKSTART_C = (0.0571874, 0.0273431)

PLAN_PAIRS = [
    ("ou:0.5", "meyer"),
    ("ou:1", "meyer"),
    ("ou:2", "meyer"),
    ("separable:gauss-bump", "meyer"),
    ("separable:gauss-bump", "daubechies:4"),
]
PLAN_TARGETS = [
    (model, basis, phi, T, p, eps, delta)
    for (model, basis), phi, (T, p), (eps, delta) in itertools.product(
        PLAN_PAIRS, ["gaussian", "power:1.5"], [(1, 2), (2, 1)], [(0.5, 0.1), (1.0, 0.01)]
    )
]


def derived_seed(workload: str, seed: int, i: int = 0) -> int:
    """Experiment seed of operation i, a function of the workload seed only."""
    return random.Random(f"{workload}:{seed}").getrandbits(48) + i


def lattice_scheme(n: int, m: int, T: float) -> expansion.TruncationScheme:
    """The planner's lattice scheme (n, m)."""
    return expansion.TruncationScheme(
        k0_prime=math.ceil(T) + 1 + m,
        levels=tuple(math.ceil(2.0**j * T) + 1 + m for j in range(n)),
    )


def data_rows(path) -> int:
    with open(path) as fh:
        return sum(1 for _ in fh) - 1


class MonteCarlo:
    """One op: ``run_experiment`` plus ``write_outputs`` on a fixed config."""

    CHECK_NODES = np.array([0.0, 0.5, 1.0])  # where the path variance is checked

    def __init__(self, name, doc):
        self.name = name
        self.doc = doc
        self.bases = (doc["basis_spec"],)
        self.Ts = (float(doc["T"]),)
        self.layer_doc = doc
        self.plan_pair = (doc["model_spec"], doc["basis_spec"])

    def setup(self, seed):
        self.seed = seed
        self.basis = wavelets.make_basis(self.doc["basis_spec"])
        self.cfg = experiment.config_from_dict({**self.doc, "seed": 0})
        self.out_dir = OUT / self.name
        self._captured = None
        real = experiment.simulate_paths

        def simulate_paths(*args, **kwargs):
            # keep the paths of the op for the variance check
            self._captured = real(*args, **kwargs)
            return self._captured

        experiment.simulate_paths = simulate_paths

    def op(self, i):
        cfg = dataclasses.replace(self.cfg, seed=derived_seed(self.name, self.seed, i))
        result = experiment.run_experiment(cfg)
        files = experiment.write_outputs(result, self.out_dir)
        return result, files

    def check(self, out):
        result, files = out
        cfg = result.config
        paths, self._captured = self._captured, None
        fails = checks.tightness_failures(experiment.tightness_report(result)["rows"])
        if cfg.p == 2:
            c = [s["c_n_infty"] for s in result.summary]
            fails += checks.mean_error_failures(result.per_path_errors, c)
        idx = np.rint((self.CHECK_NODES + cfg.grid_L) / cfg.grid_h).astype(int)
        t = paths[0].grid[idx]
        samples = np.array([p.values[idx] for p in paths])
        model = processes.parse_model_spec(cfg.model_spec)
        fails += checks.variance_failures(samples, model.covariance(t, t))
        report = json.loads(Path(files["report"]).read_text())
        S, E = len(cfg.schemes), len(cfg.epsilons)
        counts = {
            "results.csv": data_rows(files["results"]),
            "tails.csv": data_rows(files["tails"]),
            "report.json summary": len(report["summary"]),
            "report.json tightness": len(report["tightness"]["rows"]),
        }
        expected = {
            "results.csv": S * cfg.n_paths,
            "tails.csv": S * E,
            "report.json summary": S,
            "report.json tightness": S * E,
        }
        return fails + checks.row_count_failures(counts, expected)


class PlanSweep:
    """One op: ``plan_truncation`` over the 40 targets, each model parsed anew."""

    name = "plan-sweep"
    bases = ("meyer", "daubechies:4")
    Ts = (1.0, 2.0)
    layer_doc = MC_OU_MEYER
    plan_pair = ("ou:1", "meyer")

    def setup(self, seed):
        self.basis = {b: wavelets.make_basis(b) for b in self.bases}
        self.targets = list(PLAN_TARGETS)
        random.Random(f"{self.name}:{seed}").shuffle(self.targets)
        self._models = {}
        self._c_integral = {}

    def op(self, i):
        plans = []
        for target in self.targets:
            model_spec, basis_spec, phi, T, p, eps, delta = target
            model = processes.parse_model_spec(model_spec)
            nf = orlicz.parse_nfunction_spec(phi)
            scheme, _ = bounds.plan_truncation(
                model, self.basis[basis_spec], nf, p, T, eps, delta, ALPHA
            )
            plans.append((target, scheme))
        return plans

    def _bound(self, target, scheme):
        model_spec, basis_spec, phi, T, p, eps, _ = target
        if model_spec not in self._models:
            self._models[model_spec] = processes.parse_model_spec(model_spec)
        model = self._models[model_spec]
        basis = self.basis[basis_spec]
        c = bounds.c_n_infty_uniform(model, basis, scheme, p, T, ALPHA)
        return c, bounds.tail_probability_bound(orlicz.parse_nfunction_spec(phi), c, p, eps)

    def check(self, plans):
        fails = []
        for target, scheme in plans:
            model_spec, basis_spec, phi, T, p, eps, delta = target
            tag = f"{model_spec}/{basis_spec}/{phi}/T={T}/p={p}/eps={eps}"
            _, rep = self._bound(target, scheme)
            fails += checks.target_failures(tag, rep, delta)
            prev = checks.walk_predecessor(*checks.lattice_position(scheme, T), PLAN_M_MAX)
            prev_rep = None if prev is None else self._bound(target, lattice_scheme(*prev, T))[1]
            fails += checks.predecessor_failures(tag, prev_rep, delta)
        return fails + self.minkowski_failures({t[:2] for t, _ in plans})

    def minkowski_failures(self, pairs):
        """c_uniform >= c_integral on the smallest lattice scheme of each
        (model, basis) pair, at T = 1 and p = 2; the integral-route values
        are computed once per process."""
        smallest = lattice_scheme(1, 0, 1.0)
        fails = []
        for model_spec, basis_spec in sorted(pairs):
            target = (model_spec, basis_spec, "gaussian", 1.0, 2.0, 1.0, 1.0)
            c_uni, _ = self._bound(target, smallest)
            if (model_spec, basis_spec) not in self._c_integral:
                self._c_integral[model_spec, basis_spec] = bounds.c_n_infty_integral(
                    self._models[model_spec], self.basis[basis_spec], smallest, 2.0, 1.0
                )
            c_int = self._c_integral[model_spec, basis_spec]
            fails += checks.minkowski_failures(f"{model_spec}/{basis_spec}", c_uni, c_int)
        return fails


class Quickstart:
    """One op: ``compute_coefficients``, ``reconstruct`` and ``lp_error``
    for every path and scheme, over paths simulated in set-up."""

    name = "expand-quickstart"
    bases = ("meyer",)
    Ts = (1.0,)
    layer_doc = MC_OU_MEYER
    plan_pair = ("ou:1", "meyer")

    def setup(self, seed):
        d = QUICKSTART
        self.basis = wavelets.make_basis(d["basis_spec"])
        self.model = processes.parse_model_spec(d["model_spec"])
        self.schemes = [expansion.parse_scheme_spec(s) for s in d["schemes"]]
        self.paths = processes.simulate_paths(
            self.model, d["grid_L"], d["grid_h"], d["n_paths"], derived_seed(self.name, seed)
        )
        self._oracle = None

    def op(self, i):
        p, T = QUICKSTART["p"], QUICKSTART["T"]
        errors = np.empty((len(self.schemes), len(self.paths)))
        for s, scheme in enumerate(self.schemes):
            for k, path in enumerate(self.paths):
                coeffs = expansion.compute_coefficients(path, self.basis, scheme)
                recon = expansion.reconstruct(coeffs, self.basis, path.grid)
                errors[s, k] = expansion.lp_error(path, recon, p, T)
        return errors

    def oracle(self):
        """Batched per-path errors, computed once per process."""
        if self._oracle is None:
            p, T = QUICKSTART["p"], QUICKSTART["T"]
            grid = self.paths[0].grid
            X = np.column_stack([path.values for path in self.paths])
            mask = (grid >= -1e-12) & (grid <= T + 1e-12)
            w, w_sub = quad.trapezoid_weights(grid), quad.trapezoid_weights(grid[mask])
            want = []
            for scheme in self.schemes:
                B = np.array(
                    [wavelets.eval_dilated(self.basis, kind, j, k, grid) for kind, j, k in scheme.indices()]
                )
                want.append(checks.batched_lp_errors(B, B[:, mask], w, w_sub, mask, X, p))
            self._oracle = np.array(want)
        return self._oracle

    def check(self, errors):
        fails = checks.match_failures(errors, self.oracle())
        fails += checks.decreasing_mean_failures(errors)
        return fails + checks.mean_error_failures(errors, QUICKSTART_C)


WORKLOADS = {
    "mc-ou-meyer": lambda: MonteCarlo("mc-ou-meyer", MC_OU_MEYER),
    "mc-bump-db4": lambda: MonteCarlo("mc-bump-db4", MC_BUMP_DB4),
    "plan-sweep": PlanSweep,
    "expand-quickstart": Quickstart,
}
