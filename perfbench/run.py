"""dpseries benchmark.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]
  python3 perfbench/run.py --write-manifest

Run from the root of a checkout: the package is imported from its ``src/``.
With ``--trace 0`` a run makes rounds, one after another, each a fresh
process that sets the workload up and makes its drawn passes once, until
another round would end past ``--seconds`` (two rounds at least).  Every
round makes the same ops; a fresh process per round keeps anything the
package caches from carrying over.

On a shared host other tenants change the speed of a core by a third within
seconds, so raw op times of the same code spread wider than any useful
bound.  Each op's time is therefore scaled to an unloaded host: between ops
a gauge times a fixed pure-Python loop and reads the slowdown against its
time on an unloaded host (see worker.py), and an op's time is divided by the
slowdown read around it.  An op's latency is then the median of its
rounds.  ops_per_s is the op count over the sum of those latencies, and
op_p50_ms and op_p90_ms are their quantiles.  The same figures unscaled are
on the line before the result.  setup_s and peak_rss_mb are as measured:
setup_s is the median set-up over the rounds, topped up by set-up-only
processes to SETUP_RUNS.

With ``--trace 1`` one process reports the per-layer metrics from a traced
sweep.  At most one child runs at a time.  The last line of stdout is one
JSON object: correct, attempted, failed and metrics; the line before it
records the environment, the sample counts, the unscaled figures and the
first errors.
``--tiny`` shrinks every workload for the benchmark's own tests.
``--write-manifest`` writes BENCHMARK.json from the tables below.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

RUN_SECONDS = 25
MIN_ROUNDS = 2  # rounds per timed run, however long they take
SETUP_RUNS = 5  # set-ups per run: those of its rounds, topped up by set-up-only processes
DEADLINE_S = 170  # a run must end within 180 s

# name -> why it was chosen, and which layers it is predicted not to move
WORKLOADS = {
    "verify_grid": "The default verify sweep, 208 points in a seed order: mixed oracle and closed-form "
    "load, as dpseries verify runs it. Predicted unchanged by cli start-up work.",
    "oracle_large": "oracle.compare at n=7, sigma_tilde=-6, alpha 0..3: window, edges, SCC and "
    "membership set time and peak memory. Predicted unchanged by closed-form and cli work.",
    "closed_form": "Every closed-form query per point, 112 fixed points over n 4..16 in a seed order, "
    "none repeated in a process: re-enumeration, quadratic unitary. Unchanged by oracle, cli work.",
    "cli_cold": "Nine dpseries commands, each in a fresh interpreter: start-up and the numpy/scipy "
    "import dominate. Predicted unchanged by oracle and closed-form compute work.",
}

END_TO_END = (  # name, unit, better, bound
    ("ops_per_s", "1/s", "higher", 0.24),
    ("op_p50_ms", "ms", "lower", 0.24),
    ("op_p90_ms", "ms", "lower", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)

PER_LAYER = (  # name, unit, better
    ("cli.interp_start_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.run_s", "s", "lower"),
    ("parameters.classify.calls", "count", "lower"),
    ("parameters.classify.self_s", "s", "lower"),
    ("constituents.enumerate_constituents.calls_per_point", "calls/point", "lower"),
    ("constituents.enumerate_constituents.self_s", "s", "lower"),
    ("constituents.region_for.calls", "count", "lower"),
    ("constituents.region_for.self_s", "s", "lower"),
    ("structure.module_diagram.self_s", "s", "lower"),
    ("structure.socle_series.self_s", "s", "lower"),
    ("structure.generated_submodule.calls", "count", "lower"),
    ("structure.generated_submodule.self_s", "s", "lower"),
    ("unitarity.constituent_unitarizable.calls", "count", "lower"),
    ("unitarity.constituent_unitarizable.self_s", "s", "lower"),
    ("howe.omega_image.self_s", "s", "lower"),
    ("howe.possible_embeddings.self_s", "s", "lower"),
    ("oracle.build.self_s", "s", "lower"),
    ("oracle.scc_s", "s", "lower"),
    ("oracle.compare.self_s", "s", "lower"),
    ("oracle.lattice_points", "count", "lower"),
    ("oracle.classes", "count", "lower"),
    ("oracle.class_edges", "count", "lower"),
    ("oracle.membership_bytes_computed", "B", "lower"),
    ("oracle.warnings", "count", "lower"),
    ("error_rate", "ratio", "lower"),
    ("trace.ops", "count", "higher"),
    ("trace.overhead", "ratio", "lower"),
)


class BenchError(Exception):
    pass


def run_worker(args, deadline: float, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed), str(args.trace),
           "1" if args.tiny else "0", repr(time.monotonic())]
    if setup_only:
        cmd.append("--setup-only")
    env = {**os.environ, "PYTHONHASHSEED": "0"}  # the same set and dict orders in every round
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            cwd=ROOT, env=env, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("worker did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.splitlines()[-1])


def run_rounds(args, deadline: float) -> list[dict]:
    """Rounds in fresh processes until another would end past ``--seconds``."""
    rounds = []
    start = time.monotonic()
    while True:
        rounds.append(run_worker(args, deadline))
        elapsed = time.monotonic() - start
        enough = len(rounds) >= (1 if args.tiny else MIN_ROUNDS)
        if enough and elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
            return rounds


def op_latencies(rounds: list[dict], scaled: bool = True) -> list[float]:
    """Each op's median latency over the rounds it completed in, scaled to
    an unloaded host or as measured."""
    per_round = []
    for r in rounds:
        slowdowns = r["gauges"] if scaled else [1.0] * len(r["gauges"])
        per_round.append([None if x is None else x / g for x, g in zip(r["latencies"], slowdowns)])
    latencies = []
    for per_op in zip(*per_round):
        done = [x for x in per_op if x is not None]
        if done:
            latencies.append(statistics.median(done))
    return latencies


def timings(latencies: list[float]) -> dict:
    lat_ms = sorted(x * 1000 for x in latencies) or [0.0]
    p90 = statistics.quantiles(lat_ms, n=10, method="inclusive")[8] if len(lat_ms) > 1 else lat_ms[0]
    return {
        "ops_per_s": len(latencies) / sum(latencies) if latencies else 0.0,
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": p90,
    }


def end_to_end(rounds: list[dict], setups: list[float]) -> dict:
    return {
        **timings(op_latencies(rounds)),
        "peak_rss_mb": max(r["peak_rss_kb"] for r in rounds) / 1024,
        "setup_s": statistics.median(setups),
    }


def per_layer(rep: dict) -> dict:
    spans = rep["spans"]
    lattice = rep["lattice"]
    cli = rep.get("cli", {})
    values = {f"cli.{key}": statistics.median(cli[key]) if key in cli else 0.0
              for key in ("interp_start_s", "import_s", "run_s")}
    for name, (calls, _total, self_s) in spans.items():
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
    values["constituents.enumerate_constituents.calls_per_point"] = (
        spans["constituents.enumerate_constituents"][0] / rep["ops"]
    )
    values["oracle.scc_s"] = spans["oracle.connected_components"][1]
    values.update({f"oracle.{key}": v for key, v in lattice.items()})
    values["oracle.warnings"] = rep["warnings"]
    values["error_rate"] = rep["failed"] / rep["attempted"]
    values["trace.ops"] = rep["ops"]
    values["trace.overhead"] = rep["traced_s"] / rep["untraced_s"]
    return values


def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--write-manifest", action="store_true")
    args = parser.parse_args(argv)
    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "dpseries" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'dpseries'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        rounds = [run_worker(args, deadline)] if args.trace else run_rounds(args, deadline)
        setups = [r["setup_s"] for r in rounds]
        while not args.trace and not args.tiny and len(setups) < SETUP_RUNS:
            setups.append(run_worker(args, deadline, setup_only=True)["setup_s"])
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    if args.trace:
        values = per_layer(rounds[0])
        names = [(name, unit) for name, unit, _ in PER_LAYER]
    else:
        values = end_to_end(rounds, setups)
        names = [(name, unit) for name, unit, _, _ in END_TO_END]
    errors = [err for r in rounds for err in r["errors"]]
    info = {"workload": args.workload, "trace": args.trace, "env": rounds[0]["env"], "rounds": len(rounds)}
    if args.trace:
        info["samples"] = rounds[0]["ops"]
    else:
        info["samples"] = len(op_latencies(rounds))
        info["unscaled"] = timings(op_latencies(rounds, scaled=False))
        info["slowdown_median"] = statistics.median(g for r in rounds for g in r["gauges"])
        info["setup_runs_s"] = setups
    info["errors"] = errors[:5]
    print(json.dumps(info))
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
