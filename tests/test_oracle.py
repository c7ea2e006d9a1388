import importlib.util
import inspect
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import accumulate, combinations
from operator import gt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dpseries
from dpseries import (
    CaseTag,
    InducedRepParams,
    ModuleDiagram,
    Region,
    SocleSeries,
    Submodule,
    auto_lmax,
    build,
    compare,
    oracle,
    window,
)
from dpseries.cli import run
from dpseries.ktypes import blocked_positions, dominant_extremes, neighbors, transition

from conftest import dominant_window, params_from_sigma_tilde


def test_single_class_at_irreducible_point():
    lattice = build(InducedRepParams(2, 0, Fraction(0)), 4)
    assert lattice.n_classes == 1
    assert lattice.class_edges == ()


def test_three_classes_case1a():
    lattice = build(InducedRepParams(2, 1, Fraction(-1)), 4)
    assert lattice.n_classes == 3
    # the class containing lambda_2 = 0 is the sink (both others feed it)
    sinks = set(range(lattice.n_classes)) - {a for a, _ in lattice.class_edges}
    assert len(sinks) == 1
    sink = sinks.pop()
    pts = lattice.points[lattice.comp == sink]
    assert set(pts[:, 1].tolist()) == {0}
    # the other two classes are lambda_2 >= 1 and lambda_2 <= -1
    others = [lattice.points[lattice.comp == c] for c in range(3) if c != sink]
    signs = sorted(int(np.sign(p[:, 1]).max()) for p in others)
    assert signs == [-1, 1]


def test_three_classes_siegel_weil():
    lattice = build(InducedRepParams(2, 0, Fraction(1, 2)), 4)
    assert lattice.n_classes == 3
    assert len(lattice.hasse) == 2
    assert sorted(lattice.layers) == [1, 1, 2]


def test_compare_worked_points():
    for n, alpha, sigma in [
        (2, 0, Fraction(1, 2)),
        (2, 1, Fraction(-1)),
        (2, 1, Fraction(0)),
        (2, 0, Fraction(-3, 2)),
        (2, 2, Fraction(-3, 2)),
        (3, 2, Fraction(-2)),
        (4, 1, Fraction(5, 2)),
    ]:
        verdict = compare(InducedRepParams(n, alpha, sigma), 6)
        assert verdict.ok, (n, alpha, sigma, verdict.checks, verdict.witness)
        assert [name for name, _ in verdict.checks] == [
            "partition",
            "diagram",
            "socle",
            "generated",
        ]


def test_compare_irreducible_path():
    verdict = compare(InducedRepParams(3, 1, Fraction(0)))
    assert verdict.ok and verdict.case == "Irreducible"


def test_auto_lmax():
    # no effective barriers: margin only
    assert auto_lmax(InducedRepParams(2, 0, Fraction(0))) == 3
    # barriers at 0: positions/2 + 3
    assert auto_lmax(InducedRepParams(2, 1, Fraction(-1))) == 3
    # barriers at -2 and 2
    assert auto_lmax(InducedRepParams(2, 0, Fraction(1, 2))) == 4


def test_small_window_records_warning():
    lattice = build(InducedRepParams(2, 0, Fraction(1, 2)), 2)
    assert any("below auto margin" in w for w in lattice.warnings)


def test_build_is_deterministic():
    p = InducedRepParams(2, 0, Fraction(1, 2))
    a = build(p, 5)
    b = build(p, 5)
    assert np.array_equal(a.comp, b.comp)
    assert a.class_edges == b.class_edges
    assert a.hasse == b.hasse
    assert a.layers == b.layers


def test_mutual_symmetry_of_opposing_coefficients():
    # For a pair (x, x+2) both opposing edges die together only on the unitary
    # axis sigma = 0 (that wall makes the direct sum); for a single source both
    # directions die together only at gap = 0.
    for n in (2, 3):
        for alpha in range(4):
            for st_val in range(-4, 5):
                params = params_from_sigma_tilde(n, alpha, st_val)
                up, down = blocked_positions(params)
                pair_both = any(
                    up[j] is not None and down[j] == up[j] + 2 for j in range(params.n)
                )
                assert pair_both == (params.sigma == 0)
                source_both = any(
                    up[j] is not None and down[j] == up[j] for j in range(params.n)
                )
                assert source_both == (-2 * params.sigma - 2 == 0)


def _small_grid(lmaxes):
    """(params, lmax, lattice) over n 2..5, alpha 0..3, sigma_tilde -8..n+9 and the given windows."""
    for n in range(2, 6):
        for alpha in range(4):
            for st_val in range(-8, n + 10):
                params = params_from_sigma_tilde(n, alpha, st_val)
                for lmax in lmaxes:
                    lmax = lmax or auto_lmax(params)
                    yield params, lmax, build(params, lmax)


def test_classes_are_boxes():
    # build() proves it from the cells; here it is checked point by point:
    # each class's bounding box, cut to the window, holds that class alone
    for params, lmax, lattice in _small_grid((2, None)):
        points, comp = lattice.points, lattice.comp
        for c in range(lattice.n_classes):
            own = points[comp == c]
            inside = ((points >= own.min(axis=0)) & (points <= own.max(axis=0))).all(axis=1)
            assert (comp[inside] == c).all(), (params, lmax, c)
        least = [tuple(points[comp == c].min(axis=0).tolist()) for c in range(lattice.n_classes)]
        greatest = [tuple(points[comp == c].max(axis=0).tolist()) for c in range(lattice.n_classes)]
        assert lattice.class_boxes == tuple(zip(least, greatest)), (params, lmax)


def _partition_by_points(lattice, labels, regions):
    """``oracle._partition``'s result, read point by point from ``points`` and ``comp``."""
    points, comp = lattice.points.astype(np.int64) * 2, lattice.comp  # in the regions' units
    inside = np.ones((len(labels), len(points)), dtype=bool)
    for a, region in enumerate(regions):
        for c, (lo, hi) in enumerate(zip(region.lower, region.upper)):
            if lo is not None:
                inside[a] &= points[:, c] >= lo
            if hi is not None:
                inside[a] &= points[:, c] <= hi
    counts = inside.sum(axis=0)
    lam = lambda p: "lambda=(" + ",".join(str(x // 2) for x in p) + ")"
    bad = np.flatnonzero(counts != 1)
    if len(bad):
        return f"{lam(points[bad[0]])} lies in {counts[bad[0]]} regions"
    if lattice.n_classes != len(labels):
        return f"{lattice.n_classes} lattice classes vs {len(labels)} closed-form constituents"
    label_for_class = []
    for c in range(lattice.n_classes):
        met = [lab for lab, row in zip(labels, inside) if row[comp == c].any()]
        if len(met) != 1:
            return f"class of {lam(points[comp == c][0])} spans regions " + ", ".join(map(str, met))
        label_for_class += met
    if len(set(label_for_class)) != len(labels):
        return "two lattice classes map to one region"
    return label_for_class


def test_partition_matches_a_point_by_point_reference():
    failures = {}
    for params, lmax, lattice in _small_grid((1, 2, 4, None)):
        labels = dpseries.enumerate_constituents(params).labels
        result = oracle._partition(params, oracle.cells(params, lmax), labels)
        expected = _partition_by_points(lattice, labels, [dpseries.region_for(params, lab) for lab in labels])
        assert result == expected, (params, lmax)
        if isinstance(result, str):
            kind = "count" if result.endswith("closed-form constituents") else result
            failures[kind] = failures.get(kind, 0) + 1
    assert failures == {"count": 724}


def test_partition_matches_the_reference_on_random_regions(monkeypatch):
    # Each region is the true one with some bounds moved or dropped, so the
    # trials reach every failure and its witness in window order.
    rng = np.random.default_rng(21)
    lattices = {}
    kinds = set()
    for _ in range(3000):
        n, alpha, lmax = int(rng.integers(2, 5)), int(rng.integers(4)), int(rng.integers(1, 4))
        params = params_from_sigma_tilde(n, alpha, int(rng.integers(-4, n + 6)))
        if (params, lmax) not in lattices:
            lattices[params, lmax] = build(params, lmax), oracle.cells(params, lmax)
        lattice, graph = lattices[params, lmax]
        labels = dpseries.enumerate_constituents(params).labels
        regions = []
        for lab in labels:
            bounds = [list(getattr(dpseries.region_for(params, lab), side)) for side in ("lower", "upper")]
            for _ in range(int(rng.integers(1, 3)) if rng.random() < 1 / 3 else 0):
                side, c = bounds[rng.integers(2)], rng.integers(n)
                side[c] = None if rng.random() < 0.3 else 2 * int(rng.integers(-lmax - 1, lmax + 2))
            regions.append(Region(n, *map(tuple, bounds)))
        fake = dict(zip(labels, regions))
        monkeypatch.setattr(oracle, "region_for", lambda params, lab: fake[lab])
        result = oracle._partition(params, graph, labels)
        assert result == _partition_by_points(lattice, labels, regions), (params, lmax, regions)
        if isinstance(result, list):
            kinds.add("pass")
        else:
            kinds.add(result.split(" lies in ")[-1] if " lies in " in result else result.split(" ")[-1])
    # a point in none, two or three regions; the class count; two classes in one region
    assert {"pass", "0 regions", "2 regions", "3 regions", "constituents", "region"} <= kinds


def _partition_by_accumulate(params, lattice, labels):
    """``oracle._partition`` with its boxes from clipped bound lists by ``accumulate``: a reference."""
    lmax = lattice.lmax
    boxes = []
    for lab in labels:
        region = oracle.region_for(params, lab)  # bounds on 2*lam: 2*lam >= b iff lam >= ceil(b/2)
        lo = [-lmax if b is None or b <= -2 * lmax else -(-b // 2) for b in region.lower]
        hi = [lmax if b is None or b >= 2 * lmax else b // 2 for b in region.upper]
        least, greatest = tuple(accumulate(reversed(lo), max))[::-1], tuple(accumulate(hi, min))
        boxes.append(None if any(map(gt, least, greatest)) else (least, greatest))
    by_box = {box: lab for box, lab in zip(boxes, labels) if box}
    label_for_class = [by_box.get(box) for box in lattice.class_boxes]
    if None not in label_for_class and len(set(label_for_class)) == len(labels) == lattice.n_classes:
        return label_for_class

    live = [box for box in boxes if box]
    crowded = min((m[0] for a, b in combinations(live, 2) if (m := oracle._meet(a, b))), default=None)
    unmatched = (box for box, lab in zip(lattice.class_boxes, label_for_class) if lab is None)
    gap = min(filter(None, (oracle._first_gap(box, live) for box in unmatched)), default=None)
    if witness := min(filter(None, (crowded, gap)), default=None):
        count = sum(oracle._meet((witness, witness), box) is not None for box in live)
        return f"lambda=({','.join(map(str, witness))}) lies in {count} regions"
    if lattice.n_classes != len(labels):
        return f"{lattice.n_classes} lattice classes vs {len(labels)} closed-form constituents"
    for box in lattice.class_boxes:
        met = [lab for lab, region in zip(labels, boxes) if region and oracle._meet(box, region)]
        if len(met) != 1:
            return f"class of lambda=({','.join(map(str, box[0]))}) spans regions " + ", ".join(map(str, met))
    return "two lattice classes map to one region"


def _region_faults(region, lmax):
    """(kind, region) for each one-bound fault of ``region`` in a window of radius lmax.

    A bound dropped, moved past the window's edge on its own side or the
    other, moved two units (half a step) outward, which can overlap another
    region, or inward, which can leave a gap; and the region crossed, a lower
    bound above an upper one at the same or an earlier coordinate.
    """
    n, far = region.n, 2 * lmax + 2
    for side, sign in (("lower", -1), ("upper", 1)):
        for c in range(n):
            b = getattr(region, side)[c]
            moves = {"none": None, "past": sign * far, "beyond": -sign * far}
            if b is not None:
                moves.update(overlap=b + 2 * sign, gap=b - 2 * sign)
            for kind, value in moves.items():
                bounds = {"lower": list(region.lower), "upper": list(region.upper)}
                bounds[side][c] = value
                yield kind, Region(n, tuple(bounds["lower"]), tuple(bounds["upper"]))
    for c in range(n):
        top = 0 if region.upper[c] is None else region.upper[c]
        yield "crossed", Region(n, (*region.lower[:c], top + 2, *region.lower[c + 1 :]), region.upper)
    yield "crossed", Region(n, (*region.lower[:-1], 2), (0, *region.upper[1:]))


def test_partition_matches_the_accumulate_reference_under_region_faults(monkeypatch):
    # one label's region faulty at a time, at the auto window and, for n 2..3,
    # one below its margin; the result, a label per class or the witness
    # string, must be the reference's at every fault
    fake = {}
    monkeypatch.setattr(oracle, "region_for", lambda params, lab: fake.get(lab) or dpseries.region_for(params, lab))
    outcomes = {}
    for n in range(2, 5):
        for alpha in range(4):
            for st_val in range(-2, n + 3):
                params = params_from_sigma_tilde(n, alpha, st_val)
                labels = dpseries.enumerate_constituents(params).labels
                for lmax in {auto_lmax(params), *((2,) if n < 4 else ())}:
                    graph = oracle.cells(params, lmax)
                    for lab in labels:
                        for kind, region in _region_faults(dpseries.region_for(params, lab), lmax):
                            fake.clear()
                            fake[lab] = region
                            result = oracle._partition(params, graph, labels)
                            assert result == _partition_by_accumulate(params, graph, labels), (params, lmax, region)
                            if isinstance(result, list):
                                seen = "pass"
                            else:
                                seen = result.split(" lies in ")[1] if " lies in " in result else result.split()[-1]
                            outcomes.setdefault(kind, set()).add(seen)
    assert outcomes.keys() == {"none", "past", "beyond", "overlap", "gap", "crossed"}
    assert all(seen - {"pass"} for seen in outcomes.values())  # every kind of fault is caught somewhere
    assert set.union(*outcomes.values()) == {"pass", "0 regions", "2 regions", "constituents"}


def test_interior_warning_names_the_classes_with_no_interior_point():
    # an interior point has lam_1 < lmax and lam_n > -lmax
    warned = 0
    for params, lmax, lattice in _small_grid((1, 2)):
        points, comp = lattice.points, lattice.comp
        inner = (points[:, 0] < lmax) & (points[:, -1] > -lmax)
        bare = set(range(lattice.n_classes)) - set(comp[inner].tolist())
        said = {int(w.split()[1]) for w in lattice.warnings if w.endswith("owns no interior point; enlarge the window")}
        assert said == bare, (params, lmax)
        warned += bool(said)
    assert warned == 266


def test_compare_matches_sweep_row():
    verdict = compare(params_from_sigma_tilde(3, 3, -4))
    assert verdict.ok
    assert dict(verdict.checks) == {
        "partition": "PASS",
        "diagram": "PASS",
        "socle": "PASS",
        "generated": "PASS",
    }


def test_window_points_match_itertools_enumeration():
    for n in range(1, 5):
        for lmax in range(0, 5):
            expected = np.array(sorted(dominant_window(n, lmax)), dtype=np.int64).reshape(-1, n)
            assert np.array_equal(window._window_points(n, lmax), expected), (n, lmax)


def test_window_points_past_the_int8_range():
    for lmax in (127, 128, 200):
        expected = np.array(sorted(dominant_window(2, lmax)), dtype=np.int64)
        assert np.array_equal(window._window_points(2, lmax), expected), lmax


def test_wide_window_keeps_the_class_structure():
    for alpha in range(4):
        for sigma_tilde in (-6, -1, 2):
            params = params_from_sigma_tilde(2, alpha, sigma_tilde)
            wide, auto = build(params, 130), build(params, auto_lmax(params))
            assert wide.points.dtype != np.int8
            for field in ("n_classes", "hasse", "layers", "closures"):
                assert getattr(wide, field) == getattr(auto, field), (alpha, sigma_tilde, field)


def test_compare_holds_under_64_bytes_per_window_point():
    # the window reference with its per-point views; numpy reports its
    # buffers to tracemalloc, so the peak is deterministic
    params = params_from_sigma_tilde(6, 0, -6)
    points = window.check_window(6, 8)
    tracemalloc.start()
    try:
        lattice = build(params, 8)
        assert len(lattice.points) == len(lattice.comp) == points
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lattice.n_classes == 13
    assert peak < 64 * points, f"{peak / points:.1f} bytes per point"


def test_compare_holds_under_22_bytes_per_window_point():
    # the window reference alone: its runs, not its points, set the peak
    params = params_from_sigma_tilde(6, 0, -6)
    points = window.check_window(6, 8)
    tracemalloc.start()
    try:
        lattice = build(params, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lattice.n_classes == 13
    assert peak < 22 * points, f"{peak / points:.1f} bytes per point"


def test_compare_passes_without_enumerating_the_window(monkeypatch):
    asked = []
    window_points = window._window_points

    def recorded(n, lmax):
        asked.append(n)
        return window_points(n, lmax)

    monkeypatch.setattr(window, "_window_points", recorded)
    params = params_from_sigma_tilde(4, 1, -3)
    verdict = compare(params)
    assert verdict.ok and verdict.case != "Irreducible"
    assert asked == []
    # the window reference enumerates only the prefixes, and builds the
    # per-point views on first use, with the window's values
    lattice = build(params, verdict.lmax)
    assert asked == [3]
    assert lattice.points.tolist() == [list(lam) for lam in sorted(dominant_window(4, verdict.lmax))]
    assert lattice.points is lattice.points and asked == [3, 4]
    assert lattice.comp.dtype == np.int32 and len(lattice.comp) == len(lattice.points)


def _window_grid():
    """(params, lmax) over n 2..5, alpha 0..3, sigma_tilde -6..6, at the auto window and lmax 1 and 2."""
    for n in range(2, 6):
        for alpha in range(4):
            for st_val in range(-6, 7):
                params = params_from_sigma_tilde(n, alpha, st_val)
                for lmax in (auto_lmax(params), 1, 2):
                    yield params, lmax


def _lattice_fields(lattice):
    runs = [col.tolist() for col in (*lattice.run_lam, lattice.run_start, lattice.run_comp)]
    return runs, lattice.class_edges, lattice.hasse, lattice.layers, lattice.closures, lattice.warnings


def test_kept_prefixes_are_read_only():
    for n, lmax in {(params.n, lmax) for params, lmax in _window_grid()}:
        lam, rank_terms, steps = window._prefix_window(n, lmax)
        for table in (*lam, rank_terms, steps):
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0


def test_runs_paired_block_by_block_give_the_same_lattice(monkeypatch):
    grid = [(params, lmax) for params, lmax in _window_grid() if params.sigma_tilde % 3 == 0]
    whole = [_lattice_fields(build(params, lmax)) for params, lmax in grid]
    monkeypatch.setattr(window, "_RUNS_PER_BLOCK", 16)
    assert [_lattice_fields(build(params, lmax)) for params, lmax in grid] == whole


def _reference_build(params, lmax):
    """Scalar oracle: ``transition`` on every move of the window, then a plain SCC.

    Returns (comp, class_edges, hasse, layers, closures) with classes numbered
    by their lexicographically first point, as ``build`` numbers them.
    """
    window = sorted(dominant_window(params.n, lmax))
    succ = {
        lam: [
            mu
            for mu, j, direction in neighbors(lam)
            if max(map(abs, mu)) <= lmax and transition(params, lam, j, direction) != 0
        ]
        for lam in window
    }

    def reachable(graph, start):
        seen = {start}
        stack = [start]
        while stack:
            for y in graph[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return seen

    # Kosaraju: finishing order on the graph, then sweeps of the reversed graph
    pred = {lam: [] for lam in window}
    for lam, targets in succ.items():
        for mu in targets:
            pred[mu].append(lam)
    finished, seen = [], set()
    for root in window:
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(succ[root]))]
        while stack:
            node, it = stack[-1]
            nxt = next((mu for mu in it if mu not in seen), None)
            if nxt is None:
                finished.append(node)
                stack.pop()
            else:
                seen.add(nxt)
                stack.append((nxt, iter(succ[nxt])))
    component = {}
    for root in reversed(finished):
        if root in component:
            continue
        component[root] = root
        stack = [root]
        while stack:
            for lam in pred[stack.pop()]:
                if lam not in component:
                    component[lam] = root
                    stack.append(lam)
    number = {}
    for lam in window:  # lexicographic order: number classes by first point
        number.setdefault(component[lam], len(number))
    comp = {lam: number[component[lam]] for lam in window}

    class_succ = {c: set() for c in range(len(number))}
    for lam, targets in succ.items():
        for mu in targets:
            if comp[lam] != comp[mu]:
                class_succ[comp[lam]].add(comp[mu])
    class_edges = tuple(sorted((a, b) for a in class_succ for b in class_succ[a]))
    closures = tuple(frozenset(reachable(class_succ, c)) for c in range(len(number)))
    hasse = tuple(
        (a, b)
        for a, b in class_edges
        if not any(c not in (a, b) and b in closures[c] for c in closures[a])
    )
    depth = {}

    def layer(c):
        if c not in depth:
            depth[c] = 1 + max((layer(b) for b in class_succ[c]), default=0)
        return depth[c]

    layers = tuple(layer(c) for c in range(len(number)))
    return [comp[lam] for lam in window], class_edges, hasse, layers, closures


SIGMA_TILDES = [Fraction(s) for s in range(-6, 7)] + [Fraction(-7, 2), Fraction(1, 2), Fraction(5, 2)]


# At n=4 the runs along the last coordinate are cut by dominance and by its
# barriers, and a class spans many runs.  At n=5 and 6 the least point of a
# cell lifts up to 4 and 5 coordinates in a row to the one after them.
@pytest.mark.parametrize(
    "lmax, n",
    [(lmax, n) for lmax in (1, 2, 3, 4) for n in (2, 3)] + [(lmax, 4) for lmax in (1, 2, 3)] + [(1, 5), (2, 5), (2, 6)],
)
def test_build_matches_scalar_reference(n, lmax):
    for alpha in range(4):
        for sigma_tilde in SIGMA_TILDES:
            params = params_from_sigma_tilde(n, alpha, sigma_tilde)
            lattice = build(params, lmax)
            comp, class_edges, hasse, layers, closures = _reference_build(params, lmax)
            where = (n, lmax, alpha, sigma_tilde)
            assert lattice.points.tolist() == [list(lam) for lam in sorted(dominant_window(n, lmax))]
            assert lattice.comp.tolist() == comp, where
            assert lattice.n_classes == len(layers), where
            assert lattice.class_edges == class_edges, where
            assert lattice.hasse == hasse, where
            assert lattice.layers == layers, where
            assert lattice.closures == closures, where


CLASS_GRAPH = ("n_classes", "class_boxes", "class_edges", "hasse", "layers", "closures", "warnings")


def _cells_against_build(params, lmax):
    graph, lattice = oracle.cells(params, lmax), build(params, lmax)
    for field in CLASS_GRAPH:
        assert getattr(graph, field) == getattr(lattice, field), (params, lmax, field)
    assert graph.lmax == lmax


def test_cells_equal_the_window():
    # every field, at the auto window and at windows below its margin, where
    # the cuts fall on the window's edge and the interior warnings appear
    pairs = set()
    for n in range(2, 7):
        for alpha in range(4):
            for sigma_tilde in SIGMA_TILDES:
                params = params_from_sigma_tilde(n, alpha, sigma_tilde)
                pairs.update((params, lmax) for lmax in (auto_lmax(params), 1, 2, 3))
    assert len(pairs) == 1216
    for params, lmax in pairs:
        _cells_against_build(params, lmax)


@settings(deadline=None)
@given(
    st.integers(2, 6),
    st.integers(0, 3),
    st.integers(-16, 20).map(lambda twice: Fraction(twice, 2)),
    st.integers(1, 1 << 10),
)
def test_cells_equal_the_window_on_random_points(n, alpha, sigma_tilde, pick):
    params = params_from_sigma_tilde(n, alpha, sigma_tilde)
    _cells_against_build(params, 1 + pick % (auto_lmax(params) + 2))  # lmax 1 .. auto + 2


LARGE_POINTS = [params_from_sigma_tilde(7, alpha, -6) for alpha in range(4)]  # perfbench's oracle_large
DEFAULT_SWEEP = [params_from_sigma_tilde(n, a, st) for n in range(2, 6) for a in range(4) for st in range(-6, 7)]


@pytest.mark.parametrize("params", LARGE_POINTS, ids=lambda params: f"alpha={params.alpha}")
def test_cells_equal_the_window_at_n7(params):
    _cells_against_build(params, auto_lmax(params))


def test_cells_never_calls_dominant_extremes(monkeypatch):
    def refuse(*args):
        raise AssertionError("cells called dominant_extremes")

    monkeypatch.setattr(oracle, "dominant_extremes", refuse)
    assert len(DEFAULT_SWEEP) == 208
    for params in DEFAULT_SWEEP + LARGE_POINTS:
        oracle.cells(params, auto_lmax(params))


def _cells_by_dominant_extremes(params, lmax):
    """``oracle.cells``, each box, one-way edge and interior point read by ``dominant_extremes``: a slow reference."""
    if lmax < 1:
        raise ValueError(f"lmax must be >= 1, got {lmax}")
    up_at, down_at, warnings = oracle._cut_values(params, lmax)
    spans = []  # per coordinate, its intervals (lo, hi) in increasing order
    for u, d in zip(up_at, down_at):
        tops = sorted({c for c in (u, d) if c is not None and -lmax <= c < lmax})
        spans.append(tuple(zip((-lmax, *(c + 1 for c in tops)), (*tops, lmax))))

    prefixes = [((), lmax)]  # (interval indices, least hi so far) of each nonempty prefix
    for intervals in spans:
        prefixes = [
            ((*picked, i), min(ceiling, hi))
            for picked, ceiling in prefixes
            for i, (lo, hi) in enumerate(intervals)
            if lo <= ceiling
        ]
    boxed = sorted(
        (dominant_extremes(*zip(*(spans[j][i] for j, i in enumerate(picked)))), picked) for picked, _ in prefixes
    )
    class_of = {picked: c for c, (_, picked) in enumerate(boxed)}

    class_edges = []
    for (least, greatest), picked in boxed:
        for j, i in enumerate(picked):
            c = spans[j][i][1]
            if c == lmax or up_at[j] == down_at[j]:  # the window's edge, or a pair cut both ways
                continue
            lows = [*least[:j], c, *least[j + 1 :]]
            if j:
                lows[j - 1] = max(lows[j - 1], c + 1)
            if dominant_extremes(lows, greatest) is not None:
                here, there = class_of[picked], class_of[(*picked[:j], i + 1, *picked[j + 1 :])]
                class_edges.append((here, there) if c == down_at[j] else (there, here))
    class_edges = tuple(sorted(class_edges))

    class_boxes = tuple(box for box, _ in boxed)
    for c, (least, greatest) in enumerate(class_boxes):
        inner = (*least[:-1], max(least[-1], 1 - lmax)), (min(greatest[0], lmax - 1), *greatest[1:])
        if dominant_extremes(*inner) is None:
            warnings.append(f"class {c} owns no interior point; enlarge the window")
    n_classes = len(class_boxes)
    hasse, layers, closures = oracle._class_order(n_classes, class_edges)
    return oracle.ClassGraph(lmax, n_classes, class_boxes, class_edges, hasse, layers, closures, tuple(warnings))


def _cells_against_the_reference(params, lmax):
    graph, reference = oracle.cells(params, lmax), _cells_by_dominant_extremes(params, lmax)
    for field in CLASS_GRAPH:
        assert getattr(graph, field) == getattr(reference, field), (params, lmax, field)
    assert graph.lmax == lmax
    return graph


def _pairs_past_the_windows_reach():
    """(params, lmax) over n 7..16, at the auto window and below its margin, where the interior warnings appear.

    The auto windows hold up to C(2*auto_lmax+16, 16) points.
    """
    pairs = set()
    for n in range(7, 17):
        for alpha in range(4):
            for sigma_tilde in [*map(Fraction, range(-8, n + 11)), Fraction(1, 2), Fraction(-7, 2)]:
                params = params_from_sigma_tilde(n, alpha, sigma_tilde)
                pairs.update((params, lmax) for lmax in (auto_lmax(params), 1, 2, 3))
    return pairs


def test_cells_equal_the_reference_past_the_windows_reach():
    pairs = _pairs_past_the_windows_reach()
    assert len(pairs) == 5120
    warned = 0
    for params, lmax in pairs:
        warnings = _cells_against_the_reference(params, lmax).warnings
        warned += any(w.endswith("owns no interior point; enlarge the window") for w in warnings)
    assert warned == 2270


@settings(deadline=None)
@given(
    st.integers(2, 12),
    st.integers(0, 3),
    st.integers(-16, 26).map(lambda twice: Fraction(twice, 2)),
    st.integers(1, 1 << 10),
)
def test_cells_equal_the_reference_on_random_points(n, alpha, sigma_tilde, pick):
    params = params_from_sigma_tilde(n, alpha, sigma_tilde)
    _cells_against_the_reference(params, 1 + pick % (auto_lmax(params) + 2))  # lmax 1 .. auto + 2


def _cells_by_prefixes(params, lmax):
    """``oracle.cells`` with its prefix pass, which copies each prefix's picks, least his and los: a reference."""
    if lmax < 1:
        raise ValueError(f"lmax must be >= 1, got {lmax}")
    up_at, down_at, warnings = oracle._cut_values(params, lmax)
    spans = []  # per coordinate, its intervals (lo, hi) in increasing order
    for u, d in zip(up_at, down_at):
        tops = sorted({c for c in (u, d) if c is not None and -lmax <= c < lmax})
        spans.append(tuple(zip((-lmax, *(c + 1 for c in tops)), (*tops, lmax))))

    prefixes = [((), (lmax,), ())]  # (interval indices, lmax and each least hi so far, los) of each nonempty prefix
    for intervals in spans:
        prefixes = [
            ((*picked, i), (*ceilings, min(ceilings[-1], hi)), (*lows, lo))
            for picked, ceilings, lows in prefixes
            for i, (lo, hi) in enumerate(intervals)
            if lo <= ceilings[-1]
        ]
    boxed = sorted(
        ((tuple(accumulate(reversed(lows), max))[::-1], ceilings[1:]), picked) for picked, ceilings, lows in prefixes
    )
    class_of = {picked: c for c, (_, picked) in enumerate(boxed)}

    class_edges = []
    for (_, greatest), picked in boxed:
        for j, i in enumerate(picked):
            c = spans[j][i][1]  # one way across c: not the window's edge, not cut both ways, a point to move
            if c < lmax and up_at[j] != down_at[j] and c <= greatest[j] and (j == 0 or c < greatest[j - 1]):
                here, there = class_of[picked], class_of[(*picked[:j], i + 1, *picked[j + 1 :])]
                class_edges.append((here, there) if c == down_at[j] else (there, here))
    class_edges = tuple(sorted(class_edges))

    class_boxes = tuple(box for box, _ in boxed)
    for c, (least, greatest) in enumerate(class_boxes):
        if least[0] >= lmax or greatest[-1] <= -lmax:
            warnings.append(f"class {c} owns no interior point; enlarge the window")
    n_classes = len(class_boxes)
    hasse, layers, closures = oracle._class_order(n_classes, class_edges)
    return oracle.ClassGraph(lmax, n_classes, class_boxes, class_edges, hasse, layers, closures, tuple(warnings))


def _cells_against_the_prefix_pass(params, lmax):
    graph, reference = oracle.cells(params, lmax), _cells_by_prefixes(params, lmax)
    for field in CLASS_GRAPH:
        assert getattr(graph, field) == getattr(reference, field), (params, lmax, field)
    assert graph.lmax == lmax


def test_cells_equal_the_prefix_pass_past_the_windows_reach():
    pairs = _pairs_past_the_windows_reach()
    assert len(pairs) == 5120
    for params, lmax in pairs:
        _cells_against_the_prefix_pass(params, lmax)


@settings(deadline=None)
@given(
    st.integers(2, 24),
    st.integers(0, 3),
    st.integers(-16, 38).map(lambda twice: Fraction(twice, 2)),
    st.integers(1, 1 << 10),
)
def test_cells_equal_the_prefix_pass_on_random_points(n, alpha, sigma_tilde, pick):
    params = params_from_sigma_tilde(n, alpha, sigma_tilde)
    _cells_against_the_prefix_pass(params, 1 + pick % (auto_lmax(params) + 2))  # lmax 1 .. auto + 2


def test_cells_at_rank_1500_need_no_recursion():
    # past the interpreter's default recursion limit of 1,000 frames, so a
    # pass recursing once per coordinate could not answer here
    params = InducedRepParams(1500, 0, Fraction(1, 3))
    graph = oracle.cells(params, auto_lmax(params))
    assert (graph.lmax, graph.n_classes, graph.class_edges, graph.layers) == (3, 1, (), (1,))
    assert graph.class_boxes == (((-3,) * 1500, (3,) * 1500),)


def test_compare_never_builds_the_window(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("compare enumerated the window")

    for name in ("build", "_prefix_window", "_window_points"):
        monkeypatch.setattr(window, name, refuse)
    assert run(["verify"]) == 0
    golden = (Path(__file__).parent / "golden" / "verify_default.jsonl").read_bytes()
    assert capsys.readouterr().out.encode() == golden


def _class_edges_by_points(lattice):
    """``class_edges`` from every one-way move of the window, point by point, deduplicated by np.unique."""
    params, lmax, points, comp = lattice.params, lattice.lmax, lattice.points.astype(np.int64), lattice.comp
    n, width = params.n, 2 * lattice.lmax + 1
    code = (points + lmax) @ width ** np.arange(n - 1, -1, -1)  # increasing in window order
    up_block, down_block = blocked_positions(params)
    src, dst = [], []
    for j in range(n):
        movable = points[:, j] < lmax
        if j > 0:
            movable &= points[:, j - 1] > points[:, j]
        x = np.flatnonzero(movable)
        y = np.searchsorted(code, code[x] + width ** (n - 1 - j))
        assert (code[y] == code[x] + width ** (n - 1 - j)).all()
        up = up_block[j] is None or 2 * points[x, j] != up_block[j]  # x -> x + e_j
        down = down_block[j] is None or 2 * points[x, j] + 2 != down_block[j]  # x + e_j -> x
        one_way = np.broadcast_to(up != down, x.shape)
        src += [x[one_way & up], y[one_way & down]]
        dst += [y[one_way & up], x[one_way & down]]
    a, b = comp[np.concatenate(src)].astype(np.int64), comp[np.concatenate(dst)].astype(np.int64)
    codes = np.unique(a[a != b] * lattice.n_classes + b[a != b])
    return tuple((int(c) // lattice.n_classes, int(c) % lattice.n_classes) for c in codes)


def test_class_edges_match_a_point_by_point_reference():
    points = [*_window_grid(), *((params_from_sigma_tilde(7, a, -6), None) for a in range(4))]
    for params, lmax in points:
        lattice = build(params, lmax or auto_lmax(params))
        assert lattice.class_edges == _class_edges_by_points(lattice), (params, lattice.lmax)


def test_class_order_refuses_a_cyclic_generation_order():
    # 0 -> 1 -> 2 -> 0 with 3 hanging below: a cycle leaves its classes unfinished
    with pytest.raises(AssertionError, match="class generation order contains a cycle"):
        oracle._class_order(4, ((0, 1), (1, 2), (2, 0), (2, 3)))
    # the same graph with 2 -> 0 dropped: 0 -> 2 is implied, so not a Hasse edge
    hasse, layers, closures = oracle._class_order(4, ((0, 1), (0, 2), (1, 2), (2, 3)))
    assert hasse == ((0, 1), (1, 2), (2, 3))
    assert layers == (4, 3, 2, 1)
    assert closures == ({0, 1, 2, 3}, {1, 2, 3}, {2, 3}, {3})


def _class_order_by_frozensets(n_classes, class_edges):
    """The reference for ``oracle._class_order``: its earlier form, with the closures as frozenset unions."""
    succ, pred = [[] for _ in range(n_classes)], [[] for _ in range(n_classes)]
    for a, b in class_edges:
        succ[a].append(b)
        pred[b].append(a)
    waiting = [len(s) for s in succ]
    finished = [c for c in range(n_classes) if not waiting[c]]  # grows as the loop below runs
    layers, closures = [0] * n_classes, [frozenset()] * n_classes
    for c in finished:
        closures[c] = frozenset((c,)).union(*(closures[b] for b in succ[c]))
        layers[c] = 1 + max((layers[b] for b in succ[c]), default=0)
        for a in pred[c]:
            waiting[a] -= 1
            if not waiting[a]:
                finished.append(a)
    if len(finished) < n_classes:
        raise AssertionError("class generation order contains a cycle")
    hasse = sorted((a, b) for a, b in class_edges if not any(w != b and b in closures[w] for w in succ[a]))
    return tuple(hasse), tuple(layers), tuple(closures)


def _relabelled_dags(n):
    """A permutation of range(n) and a set of pairs (i, j) of its indices."""
    return st.tuples(st.permutations(range(n)), st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40).flatmap(_relabelled_dags))
def test_class_order_matches_the_frozenset_reference_on_random_dags(drawn):
    # a pair (i, j) with i < j is an edge from i to j; the permutation relabels the classes
    order, pairs = drawn
    class_edges = tuple(sorted((order[i], order[j]) for i, j in pairs if i < j))
    assert oracle._class_order(len(order), class_edges) == _class_order_by_frozensets(len(order), class_edges)
    if class_edges:
        a, b = class_edges[0]
        with pytest.raises(AssertionError, match="contains a cycle"):
            oracle._class_order(len(order), tuple(sorted((*class_edges, (b, a)))))


def test_class_order_matches_the_frozenset_reference_on_the_default_sweep():
    for n in range(2, 6):
        for alpha in range(4):
            for st_val in range(-6, 7):
                params = params_from_sigma_tilde(n, alpha, st_val)
                graph = oracle.cells(params, auto_lmax(params))
                reference = _class_order_by_frozensets(graph.n_classes, graph.class_edges)
                assert (graph.hasse, graph.layers, graph.closures) == reference, params


def test_oversized_window_is_refused_before_enumeration(monkeypatch):
    def enumerate_nothing(n, lmax):
        raise AssertionError("the window was enumerated")

    monkeypatch.setattr(window, "_window_points", enumerate_nothing)
    with pytest.raises(ValueError, match="exceeds the oracle's budget"):
        build(params_from_sigma_tilde(12, 0, -6), 20)
    assert window.check_window(8, 9) == 1562275
    with pytest.raises(ValueError, match="budget"):
        window.check_window(9, 12)
    # compare refuses by cells, not window points: that window has 12 cells
    assert compare(params_from_sigma_tilde(12, 0, -6), 20).ok


def test_a_window_of_too_many_cells_is_refused_before_any_cell_is_listed():
    # 5,251 cells: the depth-first pass and the closures would take seconds
    # and gigabytes; the count takes milliseconds
    params = params_from_sigma_tilde(200, 2, 209)
    message = "window (n=200, sigma_tilde=209, lmax=107) has more than the oracle's budget of 3500 cells"
    for refuse in (lambda: compare(params), lambda: oracle.cells(params, 107), lambda: oracle.check_cells(params, 107)):
        with pytest.raises(ValueError) as info:
            refuse()
        assert str(info.value) == message
    with pytest.raises(ValueError, match="lmax must be >= 1"):
        oracle.check_cells(params, 0)


def test_the_cell_count_is_the_number_of_classes(monkeypatch):
    # the count over (depth, least hi) states is exact: a budget of the
    # class count admits the window, and one less refuses it
    for n in range(2, 9):
        for alpha in range(4):
            for st_val in (*range(-8, n + 11), Fraction(1, 2)):
                params = params_from_sigma_tilde(n, alpha, st_val)
                for lmax in (1, 2, auto_lmax(params)):
                    classes = oracle.cells(params, lmax).n_classes
                    monkeypatch.setattr(oracle, "MAX_CELLS", classes)
                    oracle.check_cells(params, lmax)
                    monkeypatch.setattr(oracle, "MAX_CELLS", classes - 1)
                    with pytest.raises(ValueError, match=f"budget of {classes - 1} cells$"):
                        oracle.check_cells(params, lmax)
                    monkeypatch.undo()


def test_build_uses_nothing_from_the_closed_form_modules(monkeypatch):
    # nor does cells, so the oracle's classes stay independent of the closed form
    from dpseries import constituents, howe, structure, unitarity

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle reached a closed-form function")

    for module in (constituents, structure, unitarity, howe):
        for name, value in list(vars(module).items()):
            if getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value) or hasattr(value, "cache_info"):
                monkeypatch.setattr(module, name, refuse)
                if getattr(oracle, name, None) is value:
                    monkeypatch.setattr(oracle, name, refuse)
    params = params_from_sigma_tilde(3, 1, -2)
    for engine in (build, oracle.cells):
        assert engine(params, 5).n_classes > 1


def test_barriers_are_computed_once_per_point(monkeypatch):
    # a point's barrier positions come from blocked_positions' integer
    # arithmetic alone, so no op re-derives them through the Fraction barriers
    from dpseries import ktypes

    def refuse(params, j):
        raise AssertionError("the oracle evaluated a Fraction barrier")

    monkeypatch.setattr(ktypes, "barrier_plus", refuse)
    monkeypatch.setattr(ktypes, "barrier_minus", refuse)
    params = params_from_sigma_tilde(5, 1, -2)
    lmax = auto_lmax(params)
    assert compare(params).ok
    assert build(params, lmax).n_classes > 1
    assert blocked_positions(params) == ((2, None, 4, None, 6), (None, -6, None, -4, None))


def test_barriers_are_derived_once_per_compare():
    # blocked_positions is memoized: auto_lmax, compare and cells share one computation per point
    params = params_from_sigma_tilde(5, 2, -3)
    for calls in ((lambda: auto_lmax(params), lambda: compare(params)), (lambda: compare(params, 6),)):
        blocked_positions.cache_clear()
        for call in calls:
            call()
        assert blocked_positions.cache_info().misses == 1


def test_build_reads_the_barriers_once(monkeypatch):
    # build derives its warning margin from the positions it holds; compare
    # reads them once more only to size an auto window
    calls = []

    def counted(params):
        calls.append(params)
        return blocked_positions(params)

    monkeypatch.setattr(oracle, "blocked_positions", counted)
    params = params_from_sigma_tilde(4, 1, -2)
    lattice = build(params, 2)
    assert len(calls) == 1
    assert lattice.warnings[0].startswith("window lmax=2 below auto margin 6")
    calls.clear()
    assert compare(params).ok
    assert len(calls) == 2
    calls.clear()
    assert compare(params, 6).ok
    assert len(calls) == 1


def test_build_finds_each_coordinates_partners_once(monkeypatch):
    # one pass over the moves checks the run shifts, collects the one-way
    # edges and verifies the cells, so no second walk over the partners
    walked = []
    partners = window._partners

    def counted(j, *args):
        walked.append(j)
        return partners(j, *args)

    monkeypatch.setattr(window, "_partners", counted)
    for n, alpha, sigma_tilde in [(2, 0, Fraction(1, 2)), (4, 1, -2), (5, 3, 0), (6, 2, -6)]:
        params = params_from_sigma_tilde(n, alpha, sigma_tilde)
        walked.clear()
        build(params, auto_lmax(params))
        assert sorted(walked) == list(range(n)), (n, alpha, sigma_tilde)


class _CountedPairs(list):
    """Edge list that counts the passes ``connected_components`` makes over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def _least_index_labels(size, pairs):
    """Each point's component by plain union-find, named by the component's smallest index."""
    parent = list(range(size))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in pairs:
        for x, y in zip(a.tolist(), b.tolist()):
            rx, ry = find(x), find(y)
            parent[max(rx, ry)] = min(rx, ry)
    return np.array([find(x) for x in range(size)], dtype=np.int32)


def _edges(*pairs):
    return (np.array([a for a, _ in pairs], dtype=np.int32), np.array([b for _, b in pairs], dtype=np.int32))


def test_connected_components_accepts_the_least_index_labels():
    rng = np.random.default_rng(6)
    for size in (1, 2, 7, 40, 300):
        for density in (0.0, 0.3, 1.0, 2.0):
            pairs = []
            for _ in range(rng.integers(1, 5)):
                ends = rng.integers(0, size, (2, int(density * size / 2)), dtype=np.int32)
                ends = np.sort(ends[:, ends[0] != ends[1]], axis=0)  # each edge from smaller to larger
                pairs.append((ends[0], ends[1]))
            label = _least_index_labels(size, pairs)
            # give every point but its component's least an edge down, as the cells do
            down = np.zeros(size, dtype=bool)
            for a, b in pairs:
                down[b] = True
            lone = np.flatnonzero(~down & (label != np.arange(size)))
            pairs = _CountedPairs([*pairs, (label[lone], lone.astype(np.int32))])
            n_classes, comp = oracle.connected_components(label, pairs)
            number = {}
            expected = [number.setdefault(int(x), len(number)) for x in label]
            assert comp.tolist() == expected, (size, density)
            assert n_classes == len(number)
            assert pairs.passes == 1


def test_connected_components_refuses_a_label_that_splits_a_component():
    # 0-1-2 and 3-4: naming 2 its own label splits the first component
    pairs = [_edges((0, 1), (3, 4)), _edges((1, 2))]
    with pytest.raises(AssertionError, match="splits a component"):
        oracle.connected_components(np.array([0, 0, 2, 3, 3], dtype=np.int32), pairs)
    # a label that names no point of its component splits it too
    with pytest.raises(AssertionError, match="splits a component"):
        oracle.connected_components(np.array([0, 0, 0, 3, 1], dtype=np.int32), pairs)


def test_connected_components_refuses_a_label_that_merges_two_components():
    pairs = [_edges((0, 1), (3, 4)), _edges((1, 2))]
    with pytest.raises(AssertionError, match="merges components"):
        oracle.connected_components(np.array([0, 0, 0, 0, 0], dtype=np.int32), pairs)
    # the merged label may also name a point that is not the smallest
    with pytest.raises(AssertionError, match="merges components"):
        oracle.connected_components(np.array([1, 1, 1, 1, 1], dtype=np.int32), [_edges((0, 1), (1, 2))])
    assert oracle.connected_components(np.array([0, 0, 0, 3, 3], dtype=np.int32), pairs)[0] == 2


def test_connected_components_needs_an_edge_down_from_all_but_the_least():
    # 0-2-1 is one component, but 1 has no edge down, so (b) refuses its true label
    with pytest.raises(AssertionError, match="merges components"):
        oracle.connected_components(np.array([0, 0, 0], dtype=np.int32), [_edges((0, 2), (1, 2))])


def test_connected_components_of_an_edgeless_graph():
    empty = np.zeros(0, dtype=np.int32)
    for pairs in ([], [(empty, empty)] * 3):
        n_classes, comp = oracle.connected_components(np.arange(4, dtype=np.int32), pairs)
        assert (n_classes, comp.tolist()) == (4, [0, 1, 2, 3])
    with pytest.raises(AssertionError, match="merges components"):
        oracle.connected_components(np.zeros(4, dtype=np.int32), [])


def test_connected_components_refuses_an_edge_that_points_down():
    with pytest.raises(ValueError, match="smaller index to a larger one"):
        oracle.connected_components(np.array([0, 0], dtype=np.int32), [_edges((1, 0))])


def _fresh_interpreter(code, *args):
    """The last line ``code`` prints, run by a fresh interpreter with this package on its path."""
    env = {**os.environ, "PYTHONPATH": str(Path(dpseries.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_cli_imports_no_third_party_module(monkeypatch):
    # every command answers with the standard library alone; numpy serves
    # only the window reference.  The commands are the benchmark's cold CLI
    # mix, one of each kind.
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look themselves up there
    spec.loader.exec_module(workloads)
    mix = [list(argv) for argv in workloads.CLI_MIX]
    kinds = {"classify", "constituents", "diagram", "socle", "unitary", "omega", "embeddings", "ktype", "verify"}
    assert {argv[0] for argv in mix} == kinds
    code = (
        "import json, sys\n"
        "at_start = set(sys.modules)\n"
        "import dpseries, dpseries.cli\n"
        "codes = [dpseries.cli.run(argv) for argv in json.loads(sys.argv[1])]\n"
        "loaded = {m.split('.')[0] for m in set(sys.modules) - at_start} - sys.stdlib_module_names\n"
        "print(set(codes), sorted(loaded), 'numpy' in sys.modules)\n"
    )
    assert _fresh_interpreter(code, json.dumps(mix)) == "{0} ['dpseries'] False"


def test_a_first_build_loads_numpy_and_nothing_else():
    code = (
        "import sys\n"
        "import dpseries, dpseries.cli\n"
        "at_start = set(sys.modules)\n"
        "from fractions import Fraction\n"
        "lattice = dpseries.build(dpseries.InducedRepParams(3, 1, Fraction(-9, 2)), 5)\n"
        "loaded = set(sys.modules) - at_start\n"
        "ours = sorted(m for m in loaded if m.split('.')[0] == 'dpseries')\n"
        "print(lattice.n_classes, ours, sorted({m.split('.')[0] for m in loaded} - sys.stdlib_module_names))\n"
    )
    assert _fresh_interpreter(code) == "5 ['dpseries.window'] ['dpseries', 'numpy']"


def test_compare_never_imports_numpy_ma():
    # compare imports no numpy at all; np.unique loads numpy.ma on its first
    # call, about 15 ms, and the window reference deduplicates its class
    # edges by a sort instead
    code = (
        "import sys\n"
        "import dpseries\n"
        "from fractions import Fraction\n"
        "params = dpseries.InducedRepParams(3, 0, Fraction(-4))\n"
        "verdict = dpseries.compare(params)\n"
        "no_numpy = 'numpy' not in sys.modules\n"
        "lattice = dpseries.build(params, dpseries.auto_lmax(params))\n"
        "print(verdict.ok, no_numpy, len(lattice.class_edges), 'numpy.ma' in sys.modules)\n"
    )
    assert _fresh_interpreter(code) == "True True 6 False"


def test_the_window_reference_is_resolved_through_the_oracle_and_the_package():
    # the names the benchmark's tracer and the library look up, bound to the
    # window module's objects; other names still fail with the module's name
    assert oracle.build is dpseries.build is window.build
    assert oracle.connected_components is window.connected_components
    assert dpseries.TruncatedLattice is oracle.TruncatedLattice is window.TruncatedLattice
    for module in (oracle, dpseries):
        with pytest.raises(AttributeError, match=f"module '{module.__name__}' has no attribute 'no_such_name'"):
            module.no_such_name
    assert not hasattr(oracle, "_window_points")


# compare's FAIL verdicts: each check is broken through the closed-form name
# that compare imports, on the Siegel-Weil point L(0,0), L(1,0), L(1,1).
P_SW = InducedRepParams(2, 0, Fraction(1, 2))
SKIPPED = "FAIL: skipped: partition comparison failed"


def _everything_region(params, label):
    return Region(n=params.n, lower=(None,) * params.n, upper=(None,) * params.n)


def _split_by_first_coordinate(params, label):
    # {lambda_1 >= 1}, {lambda_1 <= 0 <= lambda_2} and {lambda_1 <= 0, lambda_2 <= -1}
    # partition the lattice, but all three meet the class {lambda_1 >= 0 >= lambda_2}.
    bounds = {
        "L(0,0)": ((2, None), (None, None)),
        "L(1,0)": ((None, 0), (0, None)),
        "L(1,1)": ((None, None), (0, -2)),
    }
    lower, upper = bounds[str(label)]
    return Region(n=params.n, lower=lower, upper=upper)


def _leave_l11_beyond_the_window(params, label):
    # {lambda_1 <= -1} and {lambda_1 >= 0} partition the window, so every class
    # lies in one region; L(1,1) = {lambda_1 >= 100} holds no window point, so
    # two of the three classes map to one region.
    bounds = {
        "L(0,0)": ((None, None), (-2, None)),
        "L(1,0)": ((0, None), (None, None)),
        "L(1,1)": ((200, None), (None, None)),
    }
    lower, upper = bounds[str(label)]
    return Region(n=params.n, lower=lower, upper=upper)


@pytest.mark.parametrize(
    "fake, witness",
    [
        (_everything_region, "lambda=(-4,-4) lies in 3 regions"),
        (_split_by_first_coordinate, "class of lambda=(0,-4) spans regions L(0,0), L(1,0), L(1,1)"),
        (_leave_l11_beyond_the_window, "two lattice classes map to one region"),
    ],
)
def test_compare_partition_failure_skips_the_other_checks(monkeypatch, fake, witness):
    monkeypatch.setattr(oracle, "region_for", fake)
    verdict = compare(P_SW, 4)
    assert verdict.ok is False
    assert verdict.witness == witness
    assert verdict.checks == (
        ("partition", f"FAIL: {witness}"),
        ("diagram", SKIPPED),
        ("socle", SKIPPED),
        ("generated", SKIPPED),
    )


def _leave_r10_empty(params, label):
    # R(0,1) = {lambda_1 >= -1, lambda_1 <= 1, lambda_2 <= 1} holds the whole
    # lmax=1 window, and R(1,0) = {lambda_1 >= 0, 1 <= lambda_2 <= 0} holds no
    # point, so the two classes map to R(0,1); no class meets the empty R(1,0).
    lower, upper = {"R(0,1)": ((-2, None), (2, 2)), "R(1,0)": ((0, 2), (None, 0))}[str(label)]
    return Region(n=params.n, lower=lower, upper=upper)


def test_compare_partition_names_no_empty_region_a_class_spans(monkeypatch):
    monkeypatch.setattr(oracle, "region_for", _leave_r10_empty)
    verdict = compare(InducedRepParams(2, 1, 0), 1)
    assert verdict.witness == "two lattice classes map to one region"
    assert verdict.checks[0] == ("partition", "FAIL: two lattice classes map to one region")


def _lose_the_top_row_of_l10(params, label):
    # L(1,0) keeps lambda_2 <= -1 only, so lambda_2 = 0 with lambda_1 >= 0 lies
    # in no region.  The run lambda_1 = 0, lambda_2 in [-4, 0] meets L(1,0)
    # alone, but L(1,0) does not hold all of it.
    region = dpseries.region_for(params, label)
    if str(label) == "L(1,0)":
        return Region(n=params.n, lower=region.lower, upper=(None, -2))
    return region


def test_compare_names_a_point_in_no_region(monkeypatch):
    monkeypatch.setattr(oracle, "region_for", _lose_the_top_row_of_l10)
    verdict = compare(P_SW, 4)
    witness = "lambda=(0,0) lies in 0 regions"
    assert verdict.ok is False
    assert verdict.witness == witness
    assert verdict.checks == (
        ("partition", f"FAIL: {witness}"),
        ("diagram", SKIPPED),
        ("socle", SKIPPED),
        ("generated", SKIPPED),
    )


def test_compare_diagram_failure(monkeypatch):
    edgeless = lambda params: ModuleDiagram(dpseries.module_diagram(params).nodes, ())
    monkeypatch.setattr(oracle, "module_diagram", edgeless)
    verdict = compare(P_SW, 4)
    detail = "edge mismatch: ['L(1,0)->L(0,0)', 'L(1,0)->L(1,1)']"
    assert verdict.ok is False
    assert verdict.witness == detail
    assert verdict.checks == (
        ("partition", "PASS"),
        ("diagram", f"FAIL: {detail}"),
        ("socle", "PASS"),
        ("generated", "PASS"),
    )


def test_compare_socle_failure(monkeypatch):
    one_layer = lambda params: SocleSeries((dpseries.module_diagram(params).nodes,))
    monkeypatch.setattr(oracle, "socle_series", one_layer)
    verdict = compare(P_SW, 4)
    detail = (
        "socle mismatch: oracle {1: ['L(0,0)', 'L(1,1)'], 2: ['L(1,0)']}"
        " vs formula {1: ['L(0,0)', 'L(1,0)', 'L(1,1)']}"
    )
    assert verdict.ok is False
    assert verdict.witness == detail
    assert verdict.checks == (
        ("partition", "PASS"),
        ("diagram", "PASS"),
        ("socle", f"FAIL: {detail}"),
        ("generated", "PASS"),
    )


def test_compare_generated_failure(monkeypatch):
    singleton = lambda params, label: Submodule(label, (label,))
    monkeypatch.setattr(oracle, "generated_submodule", singleton)
    verdict = compare(P_SW, 4)
    detail = (
        "generated submodule of L(1,0): oracle ['L(0,0)', 'L(1,0)', 'L(1,1)']"
        " vs formula ['L(1,0)']"
    )
    assert verdict.ok is False
    assert verdict.witness == detail
    assert verdict.checks == (
        ("partition", "PASS"),
        ("diagram", "PASS"),
        ("socle", "PASS"),
        ("generated", f"FAIL: {detail}"),
    )


def _structure_mismatches_by_labels(params, lattice, labels, label_for_class):
    """The reference for ``oracle._structure_mismatches``: its earlier form, on label sets."""
    oracle_edges = {(label_for_class[a], label_for_class[b]) for a, b in lattice.hasse}
    diff = sorted(f"{u}->{v}" for u, v in oracle_edges.symmetric_difference(oracle.module_diagram(params).edges))
    yield f"edge mismatch: {diff[:4]}" if diff else None

    oracle_layers = {}
    for c, layer in enumerate(lattice.layers):
        oracle_layers.setdefault(layer, set()).add(label_for_class[c])
    formula_layers = {idx: set(layer) for idx, layer in enumerate(oracle.socle_series(params).layers, start=1)}
    yield None if oracle_layers == formula_layers else (
        "socle mismatch: oracle "
        + str({k: sorted(map(str, v)) for k, v in sorted(oracle_layers.items())})
        + " vs formula "
        + str({k: sorted(map(str, v)) for k, v in sorted(formula_layers.items())})
    )

    class_for_label = {lab: c for c, lab in enumerate(label_for_class)}
    for lab in labels:
        closure_labels = {label_for_class[c] for c in lattice.closures[class_for_label[lab]]}
        formula_members = set(oracle.generated_submodule(params, lab).members)
        if closure_labels != formula_members:
            yield (
                f"generated submodule of {lab}: oracle {sorted(map(str, closure_labels))}"
                f" vs formula {sorted(map(str, formula_members))}"
            )
            return
    yield None


def _diagram_faults(diagram):
    """The diagram with one edge dropped, one added and one reversed (those that apply)."""
    nodes, edges = diagram
    absent = next(((u, v) for u in nodes for v in nodes if u != v and (u, v) not in edges), None)
    if edges:
        yield ModuleDiagram(nodes, edges[1:])
        yield ModuleDiagram(nodes, (edges[-1][::-1], *edges[:-1]))
    if absent:
        yield ModuleDiagram(nodes, (*edges, absent))


def _socle_faults(layers):
    """The socle layers with a label moved to another layer, left out, or listed twice in one or two layers,
    and with an empty layer on top."""
    first, *rest = layers
    yield (first[1:], (*rest[0], first[0]), *rest[1:]) if rest else (first[1:], first[:1])
    yield (*layers[:-1], layers[-1][1:])
    yield (*layers[:-1], (*layers[-1], layers[-1][0]))
    yield (*layers, layers[0][:1])
    yield (*layers, ())


def _generated_faults(members, labels):
    """The members with one dropped, and with one more label (where a label is left to add)."""
    yield members[:-1]
    extra = next((lab for lab in labels if lab not in members), None)
    if extra:
        yield (*members, extra)


def test_structure_checks_match_the_label_reference_under_injected_faults(monkeypatch):
    # the default sweep's 208 points and oracle_large's four, all reducible (sigma_tilde is an integer)
    points = [params_from_sigma_tilde(n, a, s) for n in range(2, 6) for a in range(4) for s in range(-6, 7)]
    faults = 0
    for params in points + [params_from_sigma_tilde(7, a, -6) for a in range(4)]:
        diagram, socle = dpseries.module_diagram(params), dpseries.socle_series(params).layers
        labels = dpseries.enumerate_constituents(params).labels
        patches = [("module_diagram", lambda p, d=d: d) for d in _diagram_faults(diagram)]
        patches += [("socle_series", lambda p, s=s: SocleSeries(s)) for s in _socle_faults(socle)]
        for lab in labels:
            for fake in _generated_faults(dpseries.generated_submodule(params, lab).members, labels):
                faked = lambda p, g, lab=lab, fake=fake: (
                    Submodule(g, fake) if g == lab else dpseries.generated_submodule(p, g)
                )
                patches.append(("generated_submodule", faked))
        for name, fake in patches:
            with monkeypatch.context() as m:
                m.setattr(oracle, name, fake)
                verdict = compare(params)
                graph = oracle.cells(params, verdict.lmax)
                mismatches = list(
                    _structure_mismatches_by_labels(params, graph, labels, oracle._partition(params, graph, labels))
                )
            statuses = [f"FAIL: {m}" if m else "PASS" for m in mismatches]
            assert verdict.checks == (("partition", "PASS"), *zip(oracle.CHECKS[1:], statuses)), (params, name)
            assert verdict.witness == next(filter(None, mismatches), None), (params, name)
            faults += verdict.witness is not None
    assert faults == 3807  # the rest, such as a label listed twice in its own layer, pass in both


def test_compare_irreducible_point_with_several_classes_fails(monkeypatch):
    monkeypatch.setattr(oracle, "classify", lambda params: CaseTag.IRREDUCIBLE)
    verdict = compare(P_SW, 4)
    failed = "FAIL: 3 classes at an irreducible point"
    assert verdict.ok is False
    assert verdict.case == "Irreducible"
    assert verdict.witness == "3 strongly connected classes"
    names = ("partition", "diagram", "socle", "generated")
    assert verdict.checks == tuple((name, failed) for name in names)


def _merge_last_class_into_first(runs, n_classes, comp):
    # the union of the first and last classes boxes in the class between them
    return 2, np.where(comp == 2, 0, comp)


def _split_at_the_cut(runs, n_classes, comp):
    # class 1 takes lambda_1 = 1 and the runs of lambda_1 = 2 below the cut at
    # lambda_2 = 1, so its box is lambda_2 <= 1.  The run lambda_1 = 2,
    # lambda_2 in [1, 2] meets that box only through its first point.
    lam1, lam2 = runs  # each run's last point
    below = (lam1 == 1) | ((lam1 == 2) & (lam2 <= 0))
    return 4, np.select([lam1 <= 0, below, lam1 == 2], [0, 1, 2], 3)


@pytest.mark.parametrize(
    "params, relabel, bad",
    [(P_SW, _merge_last_class_into_first, 0), (InducedRepParams(2, 1, Fraction(-1)), _split_at_the_cut, 1)],
)
def test_build_refuses_a_class_that_is_not_a_box(monkeypatch, params, relabel, bad):
    # the cell labels pass their verification; a class numbering handed on
    # from it that is not a union of boxes must still fail the box check
    with pytest.raises(AssertionError, match=f"SCC class {bad} is not an order-convex box"):
        _build_relabelled(monkeypatch, params, relabel)


def _swap_the_last_two_numbers(runs, n_classes, comp):
    # every class is still a box, but class 2 now starts before class 1
    return n_classes, np.array([0, 2, 1])[comp]


def test_build_refuses_classes_not_numbered_by_first_point(monkeypatch):
    # TruncatedLattice numbers its classes by first point
    with pytest.raises(AssertionError, match="SCC class 2 .* the classes are not numbered by first point"):
        _build_relabelled(monkeypatch, P_SW, _swap_the_last_two_numbers)


def _build_relabelled(monkeypatch, params, relabel):
    """build() with the verified class numbering replaced by ``relabel``'s."""
    runs = build(params, 4).run_lam
    verified = window.connected_components

    def relabelled(label, pairs):
        n_classes, comp = verified(label, pairs)
        assert n_classes == 3
        n_classes, comp = relabel(runs, n_classes, comp)
        return n_classes, comp.astype(np.int32)

    monkeypatch.setattr(window, "connected_components", relabelled)
    build(params, 4)


def test_hermitian_duality_keeps_the_classes_and_reverses_the_edges():
    # at -sigma, sigma_tilde' = n+1+alpha-sigma_tilde: each coordinate's two
    # cut values swap roles (see blocked_positions)
    pairs = 0
    for n in range(2, 7):
        for alpha in range(4):
            for st in range((n + 1 + alpha) // 2 + 1, n + 10):
                params = params_from_sigma_tilde(n, alpha, st)
                dual = params_from_sigma_tilde(n, alpha, n + 1 + alpha - st)
                lmax = max(auto_lmax(params), auto_lmax(dual))
                if n == 6 and lmax > 6:
                    continue
                here, there = build(params, lmax), build(dual, lmax)
                assert np.array_equal(here.run_comp, there.run_comp), (params, lmax)
                assert {(b, a) for a, b in here.class_edges} == set(there.class_edges), (params, lmax)
                assert {(b, a) for a, b in here.hasse} == set(there.hasse), (params, lmax)
                pairs += 1
    assert pairs == 168
