"""Cost of each phase of ``oracle.compare``, in µs per point, on fixed point sets.

Usage:
  python3 scripts/compare_phases.py [CHECKOUT ...] [--grids NAME ...] [--processes 5] [--sweeps 9] [--json PATH]

Each CHECKOUT (by default the one holding this script) is measured from its
own ``src/``.  A worker process replays ``compare``'s steps point by point
and times each: ``cells`` without its ``_class_order``, ``_class_order``,
``classify``, the theorem window (``enumerate_constituents``),
``_partition``, the diagram, socle and generated checks
(``_structure_mismatches``) and ``auto_lmax``, which only fills the
verdict's ``lmax``; then it times ``compare`` end to end.  A checkout whose
``cells`` still takes a window radius gets ``auto_lmax`` first, as its
``compare`` did.  The point memos are cleared and ``gc.collect()``
runs before each sweep, so every sweep derives each point once, as a fresh
``verify`` does, and starts from the same heap.  The phases are timed with
the garbage collector off, so no phase pays for a collection that another's
allocations made due; the end-to-end sweep runs with it on, as ``compare``
does.  A worker reports per phase the median of its sweeps; the processes
alternate between the checkouts, and the table gives the median over each
checkout's processes.

The point sets (``--grids``, by default the first four): the default
``verify`` sweep (n 2..5, alpha 0..3, sigma_tilde -6..6), the benchmark's
``oracle_large`` points (n = 7, sigma_tilde = -6, alpha 0..3), and the grids
n16, n24, n7 and n32 (alpha 0..3, integer sigma_tilde -8..n+10, auto window).
"""

from __future__ import annotations

import argparse
import gc
import inspect
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

PHASES = ("cells", "class_order", "classify", "theorem_window", "partition", "structure", "auto_lmax", "end_to_end")
GRIDS = {  # name -> (n, alpha, sigma_tilde) of each point
    "default_sweep": [(n, a, st) for n in range(2, 6) for a in range(4) for st in range(-6, 7)],
    "oracle_large": [(7, a, -6) for a in range(4)],
    **{f"n{n}": [(n, a, st) for a in range(4) for st in range(-8, n + 11)] for n in (16, 24, 7, 32)},
}


def _worker(src: str, grids: list[str], sweeps: int) -> dict:
    """Per grid and phase, the median over ``sweeps`` sweeps of the µs per point."""
    sys.path.insert(0, src)
    from dpseries import CaseTag, InducedRepParams, classify, enumerate_constituents, oracle

    clock = time.perf_counter_ns
    ordering = [0]  # ns spent in _class_order since the last read
    class_order = oracle._class_order

    def timed_class_order(*args):
        start = clock()
        result = class_order(*args)
        ordering[0] += clock() - start
        return result

    oracle._class_order = timed_class_order  # cells looks it up at each call
    radius = "lmax" in inspect.signature(oracle.cells).parameters  # a checkout whose cells clips to a radius

    result = {}
    for name in grids:
        points = [InducedRepParams(n, a, Fraction(st) - Fraction(n + 1 + a, 2)) for n, a, st in GRIDS[name]]
        samples = {phase: [] for phase in PHASES}
        for _ in range(sweeps):
            clear_point_memos()
            gc.collect()
            gc.disable()
            spent = dict.fromkeys(PHASES, 0)
            for p in points:
                t0 = clock()
                lmax = (oracle.auto_lmax(p),) if radius else ()
                t1 = clock()
                ordering[0] = 0
                graph = oracle.cells(p, *lmax)
                t2 = clock()
                case = classify(p)
                t3 = clock()
                spent["auto_lmax"] += t1 - t0
                spent["cells"] += t2 - t1 - ordering[0]
                spent["class_order"] += ordering[0]
                spent["classify"] += t3 - t2
                if case is not CaseTag.IRREDUCIBLE:
                    labels = enumerate_constituents(p).labels
                    t4 = clock()
                    label_for_class = oracle._partition(p, graph, labels)
                    t5 = clock()
                    if not isinstance(label_for_class, str):
                        list(oracle._structure_mismatches(p, graph, labels, label_for_class))
                    t6 = clock()
                    spent["theorem_window"] += t4 - t3
                    spent["partition"] += t5 - t4
                    spent["structure"] += t6 - t5
                if not radius:
                    t0 = clock()
                    oracle.auto_lmax(p)  # the verdict's lmax, read after the checks
                    spent["auto_lmax"] += clock() - t0
            gc.enable()
            clear_point_memos()
            gc.collect()
            t0 = clock()
            for p in points:
                oracle.compare(p)
            spent["end_to_end"] = clock() - t0
            for phase in PHASES:
                samples[phase].append(spent[phase] / len(points) / 1e3)
        result[name] = {phase: statistics.median(values) for phase, values in samples.items()}
    return result


def clear_point_memos() -> None:
    """Empty every per-point memo of the imported ``dpseries``: the point records (and the
    unitarity clauses they hold) and the barrier positions."""
    from dpseries import constituents, ktypes

    for memo in (constituents._integers, constituents._point, ktypes.blocked_positions):
        memo.cache_clear()


def measure(script: str, checkouts: list[Path], processes: int, worker_args: list[str]) -> dict[str, list[dict]]:
    """Each checkout's worker reports, from ``processes`` fresh workers per checkout that alternate between them.

    A worker is ``script --worker SRC *worker_args``; with no checkouts given,
    the one holding ``script`` is measured.
    """
    names = [str(c.resolve()) for c in checkouts] or [str(Path(script).resolve().parent.parent)]
    runs = {c: [] for c in names}
    for r in range(processes):
        for c in names if r % 2 == 0 else names[::-1]:
            command = [sys.executable, "-B", script, "--worker", str(Path(c) / "src"), *worker_args]
            runs[c].append(json.loads(subprocess.run(command, check=True, capture_output=True, text=True).stdout))
    return runs


def print_medians(runs: dict[str, list[dict]], sizes: dict[str, int], phases: tuple[str, ...], unit: str,
                  sweeps: int) -> dict:
    """Print and return, per point set and phase, each checkout's median over its workers."""
    table = {
        name: {phase: {c: statistics.median(run[name][phase] for run in reports) for c, reports in runs.items()}
               for phase in phases}
        for name in sizes
    }
    print(f"µs per {unit}, median of {len(next(iter(runs.values())))} processes of {sweeps} sweeps each")
    for i, c in enumerate(runs):
        print(f"  [{i}] {c}")
    for name, by_phase in table.items():
        print(f"\n{name} ({sizes[name]} {unit}s)" + "".join(f"{f'[{i}]':>11}" for i in range(len(runs))))
        for phase, by_checkout in by_phase.items():
            print(f"  {phase:<26}" + "".join(f"{value:>11.1f}" for value in by_checkout.values()))
    return table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs="*", type=Path, help="checkouts to measure (default: this one)")
    parser.add_argument("--grids", nargs="+", choices=GRIDS, default=list(GRIDS)[:4], help="point sets to sweep")
    parser.add_argument("--processes", type=int, default=5, help="worker processes per checkout")
    parser.add_argument("--sweeps", type=int, default=9, help="sweeps of every grid per worker")
    parser.add_argument("--json", type=Path, help="also write the medians here as JSON")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(_worker(args.worker, args.grids, args.sweeps)))
        return 0
    if args.processes < 1 or args.sweeps < 1:
        parser.error("--processes and --sweeps must be at least 1")

    runs = measure(__file__, args.checkouts, args.processes, ["--sweeps", str(args.sweeps), "--grids", *args.grids])
    table = print_medians(runs, {grid: len(GRIDS[grid]) for grid in args.grids}, PHASES, "point", args.sweeps)
    if args.json:
        args.json.write_text(json.dumps({"checkouts": list(runs), "phases_us_per_point": table}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
