"""subwave benchmark.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload (see README.md) from the sources of this checkout and
prints, as the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (set-up, first op, warm op, peak
memory); with ``--trace 1`` they are the per-layer ones.  Every sample is
taken in a fresh worker process, one at a time, with the BLAS thread count
fixed; the line before the result records the raw samples and settings.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mc-ou-meyer", "mc-bump-db4", "plan-sweep", "expand-quickstart")
SETUP_SAMPLES = 5  # cold set-ups per run; setup_s is their median
BLAS_THREADS = min(2, os.cpu_count() or 1)
DEADLINE_S = 170.0  # the whole run, all worker processes included
# A cold `subwave plan` call for one Meyer and one daubechies:4 target.
CLI_PLANS = [
    ["--model", "ou:1", "--basis", "meyer"],
    ["--model", "separable:gauss-bump", "--basis", "daubechies:4"],
]
CLI_TARGET = ["--phi", "gaussian", "--p", "2", "--T", "1", "--eps", "0.5",
              "--delta", "0.1", "--alpha", "0.5"]


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def remaining(t_start):
    left = DEADLINE_S - (time.perf_counter() - t_start)
    if left <= 0:
        raise BenchError(f"run exceeded {DEADLINE_S:g} s")
    return left


def spawn(mode, args, t_start):
    """Start a worker; returns (seconds until it printed READY, its JSON line)."""
    cmd = [sys.executable, str(HERE / "worker.py"), mode, args.workload, str(args.seed), str(args.seconds)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(remaining(t_start), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready.strip() != "READY":
        raise BenchError(f"worker {mode} exited with code {proc.returncode}")
    lines = rest.strip().splitlines()
    return ready_s, (json.loads(lines[-1]) if lines else None)


def cli_plan_seconds(t_start, messages):
    total = 0.0
    for model_basis in CLI_PLANS:
        cmd = [sys.executable, "-m", "subwave.cli", "plan", *model_basis, *CLI_TARGET]
        t0 = time.perf_counter()
        res = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                             timeout=remaining(t_start))
        total += time.perf_counter() - t0
        if res.returncode != 0 or not res.stdout.startswith("k0'="):
            messages.append(f"cli plan {model_basis}: exit {res.returncode}: {res.stderr.strip()[-200:]}")
    return total


def metric(value, unit):
    return {"value": value, "unit": unit}


LAYER_UNITS = {
    "quad.gauss_legendre_s": "s",
    "wavelets.make_basis_s": "s",
    "wavelets.lattice_first_s": "s",
    "wavelets.lipschitz_fit_s": "s",
    "wavelets.eval_mpts_per_s": "Mpts/s",
    "processes.simulate_one_s": "s",
    "processes.paths_per_s": "paths/s",
    "expansion.basis_matrix_s": "s",
    "expansion.single_path_ms": "ms",
    "expansion.batch_expand_s": "s",
    "expansion.level_moments_s": "s",
    "expansion.spectral_bound_s": "s",
    "bounds.c_integral_s": "s",
    "bounds.c_uniform_us": "us",
    "bounds.uniform_evals": "count",
    "bounds.plan_ms": "ms",
    "bounds.tail_bound_us": "us",
    "experiment.write_s": "s",
    "experiment.output_kb": "KB",
    "experiment.self_s": "s",
    "cli.plan_cold_s": "s",
    "trace.overhead_ratio": "ratio",
}


def run(args):
    t_start = time.perf_counter()
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "blas_threads": BLAS_THREADS, "python": sys.version.split()[0]}
    if not args.trace:
        setups = [spawn("setup", args, t_start)[0] for _ in range(SETUP_SAMPLES - 1)]
        ready_s, res = spawn("run", args, t_start)
        setups.append(ready_s)
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "first_op_s": metric(res["first_op_s"], "s"),
            "op_s": metric(statistics.median(res["op_samples"]), "s"),
            "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
        }
        info.update(setup_samples=setups)
    else:
        messages = []
        _, cold = spawn("cold", args, t_start)
        cli_s = cli_plan_seconds(t_start, messages)
        _, res = spawn("trace", args, t_start)
        layers = {**cold, **res["layers"], "cli.plan_cold_s": cli_s}
        metrics = {name: metric(layers[name], unit) for name, unit in LAYER_UNITS.items()}
        res["messages"] += messages
        res["attempted"] += 1  # the two CLI calls count as one operation
        res["failed"] += bool(messages)
    info.update({k: res[k] for k in ("first_op_s", "op_samples", "peak_rss_mb", "messages")})
    info["elapsed_s"] = time.perf_counter() - t_start
    result = {"correct": res["failed"] == 0, "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    runs = HERE / "out" / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    record = runs / f"{args.workload}-seed{args.seed}-trace{int(args.trace)}.json"
    record.write_text(json.dumps({"info": info, "result": result}, indent=1) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))


def main():
    ap = argparse.ArgumentParser(description="subwave benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "subwave" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    try:
        run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
