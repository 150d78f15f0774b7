"""One benchmark process: set up a workload, then run and check its operations.

Started by run.py, once per sample, so that every set-up is cold:

    python3 bench/worker.py <mode> <workload> <seed> <seconds>

Modes:
  setup  set up, print READY, exit (a set-up time sample);
  run    set up, print READY, run the first op and then warm ops until
         <seconds> have passed (at least MIN_WARM_OPS), print one JSON line;
  trace  set up, print READY, run the first op and one warm op untraced,
         one op traced plus the layer probes, print one JSON line;
  cold   print READY, then the cold layer costs as one JSON line.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MIN_WARM_OPS = 1


def import_program():
    """Import the program from this checkout's sources, and only from there."""
    sys.path.insert(0, str(SRC))
    import subwave

    where = Path(subwave.__file__).resolve().parent
    if where != SRC / "subwave":
        raise SystemExit(f"subwave was imported from {where}, not from {SRC}")


class Runner:
    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, failures):
        self.attempted += 1
        if failures:
            self.failed += 1
            self.messages.extend(failures[:5])

    def attempt(self, i):
        """Run op i (timed) and its checks (untimed); returns the op time."""
        try:
            t = time.perf_counter()
            out = self.wl.op(i)
            dt = time.perf_counter() - t
            failures = self.wl.check(out)
        except Exception:
            dt, failures = float("nan"), [traceback.format_exc(limit=3)]
        self.record(failures)
        return dt


def main(argv):
    mode, name, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    import_program()
    import layers
    import workloads

    wl = workloads.WORKLOADS[name]()
    if mode == "cold":
        print("READY", flush=True)
        print(json.dumps(layers.cold_metrics(wl)))
        return
    wl.setup(seed)
    print("READY", flush=True)
    if mode == "setup":
        return
    runner = Runner(wl)
    out = {"first_op_s": runner.attempt(0)}
    if mode == "run":
        warm = []
        start = time.perf_counter()
        while len(warm) < MIN_WARM_OPS or time.perf_counter() - start < seconds:
            warm.append(runner.attempt(len(warm) + 1))
        out["op_samples"] = warm
    else:
        out["op_samples"] = [runner.attempt(1)]
        failures = []
        out["layers"] = layers.traced_run(wl, seed, out["op_samples"][0], failures)
        runner.record(failures)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out.update(attempted=runner.attempted, failed=runner.failed, messages=runner.messages)
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
