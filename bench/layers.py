"""Traced run: spans around calls into the program's layers, and the
per-layer metrics computed from them.

Spans are recorded from outside the program: ``Tracer.install`` replaces
each module attribute listed in ``TRACED`` (``subwave.experiment.basis_matrix``
and so on) with a wrapper that records (name, start, end, parent, op) and
calls through.  Spans stay in memory and are written out when the run ends.
A span's self time is its duration minus the time its child spans cover.
"""

import json
import math
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from subwave import bounds, expansion, experiment, processes, quad, wavelets

import checks
import workloads

# Module attributes wrapped during traced operations: the calls the
# workloads' operations make into the program's layers.  The cached lattice
# constants, called a few times per uniform-route evaluation, are left out:
# wrapping them cost more than they do (their cold cost is measured apart).
TRACED = [
    (experiment, ["run_experiment", "write_outputs", "simulate_paths", "basis_matrix",
                  "check_support_coverage", "c_n_infty_integral", "tail_probability_bound",
                  "parse_model_spec", "make_basis"]),
    (bounds, ["plan_truncation", "c_n_infty_uniform", "tail_probability_bound", "basis_matrix"]),
    (expansion, ["compute_coefficients", "reconstruct", "lp_error", "basis_matrix",
                 "check_support_coverage", "eval_dilated"]),
    (processes, ["parse_model_spec"]),
]

SINGLE_PATH_SAMPLES = 5
LEVELS = 481  # j = 0..480, the levels the uniform route can sum explicitly


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._saved = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        rec = {"id": len(self.spans), "name": name, "parent": parent, "op": self.op,
               "start": time.perf_counter(), "end": None, "children_s": 0.0}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent]["children_s"] += rec["end"] - rec["start"]

    def install(self):
        for module, names in TRACED:
            layer = module.__name__.rsplit(".", 1)[-1]
            for name in names:
                fn = getattr(module, name)
                self._saved.append((module, name, fn))
                setattr(module, name, self._wrapped(f"{layer}.{name}", fn))

    def uninstall(self):
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved = []

    def _wrapped(self, label, fn):
        def wrapper(*args, **kwargs):
            with self.span(label):
                return fn(*args, **kwargs)

        return wrapper

    def of(self, name, op=None):
        return [s for s in self.spans if s["name"] == name and (op is None or s["op"] == op)]

    @staticmethod
    def self_time(rec):
        return rec["end"] - rec["start"] - rec["children_s"]

    def dump(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = min((s["start"] for s in self.spans), default=0.0)
        out = [{"id": s["id"], "name": s["name"], "parent": s["parent"], "op": s["op"],
                "start": s["start"] - t0, "end": s["end"] - t0, "self": self.self_time(s)}
               for s in self.spans]
        path.write_text(json.dumps(out) + "\n")


def duration(rec):
    return rec["end"] - rec["start"]


def timed(fn, *args):
    t = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t, out


def cold_metrics(wl):
    """Cold layer costs, measured first thing in a fresh process."""
    gl, _ = timed(quad.gauss_legendre, 2048)
    make = lattice = lipschitz = 0.0
    for spec in wl.bases:
        dt, basis = timed(wavelets.make_basis, spec)
        make += dt
        for T in wl.Ts:
            k1 = math.ceil(T) + 1
            for which in ("f", "m"):
                lattice += timed(wavelets.lattice_constant, basis, which)[0]
                lattice += timed(wavelets.lattice_tail_constant, basis, which, T, k1)[0]
        # the planner's orders: alpha / 2 (stationary) and alpha (double transform)
        for order in (workloads.ALPHA / 2, workloads.ALPHA):
            lipschitz += timed(wavelets.lipschitz_fit, basis, [order])[0]
    return {
        "quad.gauss_legendre_s": gl,
        "wavelets.make_basis_s": make,
        "wavelets.lattice_first_s": lattice,
        "wavelets.lipschitz_fit_s": lipschitz,
    }


def experiment_metrics(tr, op, out_files):
    runs = tr.of("experiment.run_experiment", op)
    return {
        "bounds.c_integral_s": statistics.mean(duration(s) for s in tr.of("experiment.c_n_infty_integral", op)),
        "experiment.write_s": sum(duration(s) for s in tr.of("experiment.write_outputs", op)),
        "experiment.output_kb": sum(Path(f).stat().st_size for f in out_files.values()) / 1024.0,
        "experiment.self_s": sum(tr.self_time(s) for s in runs),
    }


def plan_metrics(tr, op):
    return {
        "bounds.plan_ms": 1e3 * statistics.median(duration(s) for s in tr.of("bounds.plan_truncation", op)),
        "bounds.uniform_evals": len(tr.of("bounds.c_n_infty_uniform", op)),
        "bounds.tail_bound_us": 1e6 * statistics.median(
            duration(s) for s in tr.of("bounds.tail_probability_bound", op)
        ),
    }


def layer_probes(tr, wl, seed):
    """Per-layer probes on the workload's layer configuration."""
    doc = wl.layer_doc
    model = processes.parse_model_spec(doc["model_spec"])
    basis = wavelets.make_basis(doc["basis_spec"])
    schemes = [expansion.parse_scheme_spec(s) for s in doc["schemes"]]
    p, T, L, h, N = doc["p"], doc["T"], doc["grid_L"], doc["grid_h"], doc["n_paths"]
    m = {}
    with tr.span("probe.eval_dilated"):
        grid = processes.simulation_grid(L, h)
        idx = schemes[-1].indices()
        reps = []
        for _ in range(3):
            t = time.perf_counter()
            for kind, j, k in idx:
                wavelets.eval_dilated(basis, kind, j, k, grid)
            reps.append(time.perf_counter() - t)
        m["wavelets.eval_mpts_per_s"] = len(idx) * len(grid) / statistics.median(reps) / 1e6
    with tr.span("probe.simulate_one") as one:
        processes.simulate_paths(model, L, h, 1, seed)
    with tr.span("probe.simulate_many") as many:
        paths = processes.simulate_paths(model, L, h, N, seed)
    m["processes.simulate_one_s"] = duration(one)
    m["processes.paths_per_s"] = (N - 1) / (duration(many) - duration(one))
    with tr.span("probe.basis_matrix"):
        t = time.perf_counter()
        for scheme in schemes:
            expansion.basis_matrix(basis, scheme, grid)
        m["expansion.basis_matrix_s"] = time.perf_counter() - t
    per_path = []
    with tr.span("probe.single_path"):
        for path in paths[:SINGLE_PATH_SAMPLES]:
            t = time.perf_counter()
            for scheme in schemes:
                coeffs = expansion.compute_coefficients(path, basis, scheme)
                recon = expansion.reconstruct(coeffs, basis, path.grid)
                expansion.lp_error(path, recon, p, T)
            per_path.append(time.perf_counter() - t)
    m["expansion.single_path_ms"] = 1e3 * statistics.median(per_path)
    with tr.span("probe.batch_expand") as rec:
        X = np.column_stack([path.values for path in paths])
        del paths
        mask = (grid >= -1e-12) & (grid <= T + 1e-12)
        w, w_sub = quad.trapezoid_weights(grid), quad.trapezoid_weights(grid[mask])
        for scheme in schemes:
            B = expansion.basis_matrix(basis, scheme, grid)
            checks.batched_lp_errors(B, expansion.basis_matrix(basis, scheme, grid[mask]), w, w_sub, mask, X, p)
        del X
    m["expansion.batch_expand_s"] = duration(rec)

    stationary = doc["model_spec"] if model.spectral_density is not None else "ou:1"
    with tr.span("probe.level_moments") as rec:
        fresh = processes.parse_model_spec(stationary)
        expansion.second_moment_xi_bound(fresh, basis)
        for j in range(LEVELS):
            expansion.second_moment_eta_parseval(fresh, basis, j)
    m["expansion.level_moments_s"] = duration(rec)
    with tr.span("probe.spectral_bound") as rec:
        expansion.second_moment_eta_spectral_bound(processes.parse_model_spec(stationary), basis, 0, workloads.ALPHA)
        expansion.second_moment_eta_spectral_bound_ns(processes.make_gauss_bump(), basis, 0, workloads.ALPHA)
    m["expansion.spectral_bound_s"] = duration(rec)

    model_spec, basis_spec = wl.plan_pair
    pair_model = processes.parse_model_spec(model_spec)
    pair_basis = wavelets.make_basis(basis_spec)
    lattice = [workloads.lattice_scheme(n, mm, 1.0) for n in range(1, 13) for mm in (0, 16, 64)]
    bounds.c_n_infty_uniform(pair_model, pair_basis, lattice[0], 2.0, 1.0, workloads.ALPHA)
    per_call = []
    with tr.span("probe.c_uniform_warm"):
        for scheme in lattice:
            t = time.perf_counter()
            bounds.c_n_infty_uniform(pair_model, pair_basis, scheme, 2.0, 1.0, workloads.ALPHA)
            per_call.append(time.perf_counter() - t)
    m["bounds.c_uniform_us"] = 1e6 * statistics.median(per_call)
    return m


def traced_run(wl, seed, untraced_op_s, failures):
    """One traced op of the workload, then the layer probes."""
    tr = Tracer()
    tr.install()
    try:
        tr.op = "op"
        with tr.span("op") as rec:
            out = wl.op(1)
        tr.op = "check"
        failures += wl.check(out)
        m = {"trace.overhead_ratio": duration(rec) / untraced_op_s}
        if tr.of("experiment.run_experiment", "op"):
            m.update(experiment_metrics(tr, "op", out[1]))
        else:
            tr.op = "probe.experiment"
            probe = workloads.MonteCarlo("trace-experiment", workloads.MC_OU_MEYER)
            probe.setup(seed)
            out = probe.op(0)
            m.update(experiment_metrics(tr, "probe.experiment", out[1]))
            tr.op = "check"
            failures += probe.check(out)
        if tr.of("bounds.plan_truncation", "op"):
            m.update(plan_metrics(tr, "op"))
        else:
            tr.op = "probe.plan"
            probe = workloads.PlanSweep()
            probe.setup(seed)
            probe.targets = [t for t in probe.targets if t[:2] == wl.plan_pair]
            plans = probe.op(0)
            m.update(plan_metrics(tr, "probe.plan"))
            tr.op = "check"
            failures += probe.check(plans)
    finally:
        tr.uninstall()
    tr.op = "probe.layers"
    m.update(layer_probes(tr, wl, seed))
    tr.dump(workloads.OUT / f"trace-{wl.name}.json")
    return m
