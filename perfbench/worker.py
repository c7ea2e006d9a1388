"""One round of a workload in its own process: set up, run ops, check them, report.

Usage: python3 worker.py <workload> <seed> <trace 0|1> <tiny 0|1>
                         <parent's time.monotonic() at spawn> [--setup-only]

Set-up is importing the package from the checkout's ``src`` and drawing the
inputs; it ends when the inputs are ready.  Untraced, the drawn passes run
once in a closed loop, each op timed.  Traced, they run once untraced and once
with spans installed.  Between ops, outside their timing, a gauge reads the
host's slowdown at that moment; each op is reported with the slowdown around
it.
Prints one JSON object on stdout.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import dpseries  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


GAUGE_EVERY_S = 0.1  # least time between two gauge readings
GAUGE_UNLOADED_S = 0.0015  # the gauge loop's time on an unloaded 2-vCPU Xeon VM under Python 3.11


def gauge() -> float:
    """The host's slowdown now: the time of a fixed pure-Python loop, the
    better of two tries, over its time on an unloaded host."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc += (i * i) % 7
        best = min(best, time.perf_counter() - t0)
    return best / GAUGE_UNLOADED_S


def run_passes(wl, key: str, passes: list[list], op) -> dict:
    """Make the drawn passes once, timing each op (None for one that failed).

    Each pass is checked as soon as it ends, outside the timed ops, and its
    outputs are then dropped so they do not add to the peak RSS.  An op's
    slowdown is the median of the last two gauge readings before it and the
    first after it.
    """
    run = {"attempted": 0, "errors": [], "latencies": [], "op_s": 0.0, "probes": []}
    readings, reading_of_op = [], []
    last_reading = -GAUGE_EVERY_S
    for k, items in enumerate(passes):
        first = len(run["latencies"])
        outputs = []
        for item in items:
            if time.perf_counter() - last_reading >= GAUGE_EVERY_S:
                readings.append(gauge())
                last_reading = time.perf_counter()
            reading_of_op.append(len(readings) - 1)
            t0 = time.perf_counter()
            try:
                out = op(item)
            except Exception as e:  # an op that raises, or is refused, fails; the run goes on
                out = e
            run["latencies"].append(time.perf_counter() - t0)
            run["op_s"] += run["latencies"][-1]
            outputs.append(out)
        run["attempted"] += len(outputs)
        errors = wl.check(key, k, outputs)
        run["errors"] += [err for err in errors if err]
        for i, err in enumerate(errors, start=first):
            if err:  # a failed op completed nothing
                run["latencies"][i] = None
        run["probes"] += [out["trace"] for out in outputs if isinstance(out, dict) and "trace" in out]
    readings.append(gauge())
    run["gauges"] = [statistics.median(readings[max(j - 1, 0):j + 2]) for j in reading_of_op]
    return run


def main(argv: list[str]) -> int:
    name, seed, trace, tiny, spawned = argv[:5]
    seed, trace, tiny, spawned = int(seed), trace == "1", tiny == "1", float(spawned)
    if not Path(dpseries.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: dpseries imported from {dpseries.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[name]
    passes = [wl.make_pass(seed, tiny, k) for k in range(wl.sweep)]
    report = {"setup_s": time.monotonic() - spawned}
    if "--setup-only" in argv:
        print(json.dumps(report))
        return 0

    report["env"] = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "seed": seed,
    }
    key = workloads.digest_key(tiny)
    if not trace:
        run = run_passes(wl, key, passes, wl.op)
        report["latencies"] = run["latencies"]
        report["gauges"] = run["gauges"]
        runs = [run]
    else:
        untraced = run_passes(wl, key, passes, wl.op)
        if wl.traced_op is None:
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = run_passes(wl, key, passes, wl.op)
            finally:
                tracer.uninstall()
            report.update(spans=tracer.spans, lattice=tracer.lattice_totals(), warnings=tracer.warnings)
        else:
            traced = run_passes(wl, key, passes, wl.traced_op)
            report.update(merge_probes(traced["probes"]))
        report["ops"] = sum(len(p) for p in passes)
        report["untraced_s"] = untraced["op_s"]
        report["traced_s"] = traced["op_s"]
        runs = [untraced, traced]
    errors = [err for run in runs for err in run["errors"]]
    report.update(attempted=sum(run["attempted"] for run in runs), failed=len(errors), errors=errors[:5])
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    report["peak_rss_kb"] = max(self_kb, child_kb)
    print(json.dumps(report))
    return 0


def merge_probes(traces: list[dict]) -> dict:
    """Sum the spans and lattice counts of several CLI probes; keep their timings."""
    merged = {"spans": {}, "lattice": {}, "warnings": 0, "cli": {}}
    for t in traces:
        for name, values in t["spans"].items():
            acc = merged["spans"].setdefault(name, [0, 0.0, 0.0])
            for i, v in enumerate(values):
                acc[i] += v
        for name, v in t["lattice"].items():
            merged["lattice"][name] = merged["lattice"].get(name, 0) + v
        merged["warnings"] += t["warnings"]
        for key in ("interp_start_s", "import_s", "run_s"):
            merged["cli"].setdefault(key, []).append(t[key])
    return merged


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
