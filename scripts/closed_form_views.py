"""Cost of each closed-form view, in µs per op of the benchmark's ``closed_form`` workload.

Usage:
  python3 scripts/closed_form_views.py [CHECKOUT ...] [--passes 12] [--processes 5] [--sweeps 9] [--json PATH]

Each CHECKOUT (by default the one holding this script) is measured from its
own ``src/``, on the points of the first ``--passes`` passes of
``perfbench/workloads.py``'s ``closed_form`` workload (56 points each: every
n 4..16 at one alpha per quarter of sigma_tilde -16..16, and four
irreducible points).  A worker makes each op's calls in the op's order and
times each view over all its calls: ``classify``, ``enumerate_constituents``,
``region_for``, ``module_diagram``, ``socle_series``,
``generated_submodule`` and ``constituent_unitarizable`` on every label,
``possible_embeddings``, ``omega_image`` on every embedding, and
``complementary_series`` at the irreducible points.  The point memos are
cleared and ``gc.collect()`` runs before each sweep, so a sweep derives each
point once, as a fresh benchmark round does, and the views are timed with the
garbage collector off, so no view pays for a collection that another's
allocations made due.  A worker reports per view the median of its sweeps
divided by the op count; the processes alternate between the checkouts, as in
``compare_phases.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

from compare_phases import measure, print_medians

VIEWS = (
    "classify", "enumerate_constituents", "region_for", "module_diagram", "socle_series", "generated_submodule",
    "constituent_unitarizable", "possible_embeddings", "omega_image", "complementary_series", "all",
)


def _worker(src: str, passes: int, sweeps: int) -> dict:
    """The median over ``sweeps`` sweeps of each view's µs per op."""
    sys.path[:0] = [src, str(Path(src).parent)]  # the checkout's package, then its perfbench
    import dpseries as dp
    from dpseries import constituents
    from perfbench.workloads import closed_form_pass

    points = [p for k in range(passes) for p in closed_form_pass(0, False, k)]
    clock = time.perf_counter_ns
    samples = {view: [] for view in VIEWS}
    for _ in range(sweeps):
        constituents._integers.cache_clear()
        constituents._point.cache_clear()
        gc.collect()
        gc.disable()
        spent = dict.fromkeys(VIEWS, 0)
        for p in points:
            t0 = clock()
            case = dp.classify(p)
            t1 = clock()
            spent["classify"] += t1 - t0
            if case is dp.CaseTag.IRREDUCIBLE:
                dp.complementary_series(p)
                spent["complementary_series"] += clock() - t1
                continue
            labels = dp.enumerate_constituents(p).labels
            t2 = clock()
            for lab in labels:
                dp.region_for(p, lab)
            t3 = clock()
            dp.module_diagram(p)
            t4 = clock()
            dp.socle_series(p)
            t5 = clock()
            for lab in labels:
                dp.generated_submodule(p, lab)
            t6 = clock()
            for lab in labels:
                dp.constituent_unitarizable(p, lab)
            t7 = clock()
            signatures = dp.possible_embeddings(p)
            t8 = clock()
            for a, b in signatures:
                dp.omega_image(a, b, p.n)
            t9 = clock()
            spent["enumerate_constituents"] += t2 - t1
            spent["region_for"] += t3 - t2
            spent["module_diagram"] += t4 - t3
            spent["socle_series"] += t5 - t4
            spent["generated_submodule"] += t6 - t5
            spent["constituent_unitarizable"] += t7 - t6
            spent["possible_embeddings"] += t8 - t7
            spent["omega_image"] += t9 - t8
        gc.enable()
        spent["all"] = sum(spent.values())
        for view in VIEWS:
            samples[view].append(spent[view] / len(points) / 1e3)
    return {"closed_form": {view: statistics.median(values) for view, values in samples.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs="*", type=Path, help="checkouts to measure (default: this one)")
    parser.add_argument("--passes", type=int, default=12, help="closed_form passes per sweep, 56 points each")
    parser.add_argument("--processes", type=int, default=5, help="worker processes per checkout")
    parser.add_argument("--sweeps", type=int, default=9, help="sweeps of the passes per worker")
    parser.add_argument("--json", type=Path, help="also write the medians here as JSON")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(_worker(args.worker, args.passes, args.sweeps)))
        return 0
    if min(args.passes, args.processes, args.sweeps) < 1:
        parser.error("--passes, --processes and --sweeps must be at least 1")

    worker_args = ["--passes", str(args.passes), "--sweeps", str(args.sweeps)]
    runs = measure(__file__, args.checkouts, args.processes, worker_args)
    table = print_medians(runs, {"closed_form": 56 * args.passes}, VIEWS, "op", args.sweeps)
    if args.json:
        args.json.write_text(json.dumps({"checkouts": list(runs), "views_us_per_op": table}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
