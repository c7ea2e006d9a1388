"""Brute-force verifier on a truncated K-type lattice.

This module knows nothing about the closed-form region/diagram/socle
formulas.  Its window is every dominant tuple with entries in [-lmax, lmax].
It draws a directed edge for each one-step move with a nonzero transition
coefficient (the zero locus comes from ``ktypes.blocked_positions``, which is
definitionally the zero set of ``ktypes.transition``).  Its strongly
connected classes are the nonempty cells, where a cell fixes each
coordinate's interval between its cut values, so each class is its bounding
box cut to the window.

``cells`` finds the classes, their boxes and one-way edges, the classes'
Hasse diagram under reachability, longest-path layers and reachability
closures from the cut values alone, without listing a lattice point.
``compare`` checks the closed-form side against these, matching each
class's box with a region's, and reports the first witness on any mismatch.
Both need only the standard library.

The window reference, which enumerates the window and derives the same
class graph for the tests to compare with ``cells``, is ``window.build``; it
needs numpy and is loaded only when asked for (see ``__getattr__``).

Edge direction convention: an edge A -> B between classes means B lies in the
submodule generated by A, matching the module diagrams' downward edges.

The auto window is sized from the effective barrier positions plus a margin
of 3, which guarantees every region owns interior points and no region is
split by the truncation.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import combinations
from math import comb
from operator import le
from typing import NamedTuple

from .parameters import CaseTag, InducedRepParams, classify
from .ktypes import KType, blocked_positions, dominant_extremes
from .constituents import ConstituentLabel, enumerate_constituents, region_for
from .structure import generated_submodule, module_diagram, socle_series

__all__ = ["ClassGraph", "OracleVerdict", "auto_lmax", "cells", "check_window", "compare"]

# The names of the window reference that this module still resolves, by
# loading ``window`` (and numpy) on their first lookup.  The benchmark's
# tracer looks up ``build`` and ``connected_components`` here; ROADMAP
# direction 5 deletes this seam when it retargets the tracer at ``cells``.
_WINDOW_NAMES = frozenset({"build", "connected_components", "TruncatedLattice"})


def __getattr__(name: str):
    if name in _WINDOW_NAMES:
        from . import window

        return getattr(window, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Largest window compare() and the window reference window.build() accept, in
# points.  window.build() in a fresh process peaked (ru_maxrss) at 49 MB for
# 1.56 M points (n=8), at 156 MB for 10.0 M and 262 MB for 20.2 M (n=9), and,
# with the budget raised for the run, at 394 MB for 30.0 M (n=10): under 16
# bytes per point from 10 M points up, so a window at the budget needs about
# 0.4 GB.
MAX_WINDOW_POINTS = 30_000_000


def auto_lmax(params: InducedRepParams) -> int:
    """Window radius: max effective-barrier |position|/2, rounded up, plus 3."""
    return _auto_lmax(*blocked_positions(params))


def _auto_lmax(up: tuple[int | None, ...], down: tuple[int | None, ...]) -> int:
    """``auto_lmax`` from the point's ``blocked_positions``."""
    positions = [abs(b) for b in up + down if b is not None]
    return (max(positions, default=0) + 1) // 2 + 3


def check_window(n: int, lmax: int) -> int:
    """Number of dominant n-tuples with entries in [-lmax, lmax].

    Raises ValueError, before anything is enumerated, when lmax < 1 or the
    number exceeds ``MAX_WINDOW_POINTS``.
    """
    if lmax < 1:
        raise ValueError(f"lmax must be >= 1, got {lmax}")
    size = comb(2 * lmax + n, n)
    if size > MAX_WINDOW_POINTS:
        raise ValueError(
            f"window of {size} points (n={n}, lmax={lmax}) exceeds the oracle's budget"
            f" of {MAX_WINDOW_POINTS} points"
        )
    return size


def _cut_values(params: InducedRepParams, lmax: int) -> tuple[list, list, list[str]]:
    """Each coordinate's cut values ``up_at`` and ``down_at`` (None for none), and any below-margin warning.

    A pair x, x + e_j loses its up edge where 2*lam_j hits the up barrier and
    its down edge where 2*lam_j + 2 hits the down barrier.
    """
    up_block, down_block = blocked_positions(params)
    auto = _auto_lmax(up_block, down_block)
    warnings = [f"window lmax={lmax} below auto margin {auto}; comparisons may fail"] if lmax < auto else []
    up_at = [b // 2 if b is not None else None for b in up_block]
    down_at = [b // 2 - 1 if b is not None else None for b in down_block]
    return up_at, down_at, warnings


def _class_order(n_classes: int, class_edges: tuple[tuple[int, int], ...]) -> tuple[tuple, tuple, tuple]:
    """The Hasse diagram, longest-path layers and reachability closures of an acyclic class graph.

    One pass of Kahn's sort (A. B. Kahn, CACM 5(11), 1962) from the sinks up: a class is
    finished once its last successor is, and its closure and layer read theirs.  A class left
    unfinished lies on a cycle, and AssertionError is raised.
    """
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


class ClassGraph(NamedTuple):
    """The window's classes and their order, as ``cells`` reads them from the cut values."""

    lmax: int
    n_classes: int
    class_boxes: tuple[tuple[KType, KType], ...]  # per class, its least and greatest point
    class_edges: tuple[tuple[int, int], ...]  # sorted
    hasse: tuple[tuple[int, int], ...]  # transitive reduction of class_edges
    layers: tuple[int, ...]  # per class: 1 + longest downward path length
    closures: tuple[frozenset[int], ...]  # per class: reachable classes incl. self
    warnings: tuple[str, ...] = ()


def cells(params: InducedRepParams, lmax: int) -> ClassGraph:
    """The window's class graph from its cells, without listing a lattice point.

    The classes are the nonempty cells (``window.build`` proves it and checks
    it on the window).  The cut values c of a coordinate with -lmax <= c < lmax
    split its values in [-lmax, lmax] into intervals, and a cell picks one
    interval per coordinate.  Dominant tuples with lo_i <= x_i <= hi_i exist
    iff lo_j <= hi_i for every i <= j (take x_j = min of hi_1..hi_j), so a
    pass over the coordinates keeps each nonempty prefix of intervals by the
    least hi so far; every such prefix extends by the interval holding
    -lmax, so the pass never hits a dead end.  A cell's box is its least and
    greatest point (``dominant_extremes``), and the classes are numbered by
    least point in lexicographic order, as ``window.build`` numbers them by
    first point in window order.

    A move x -> x + e_j in the window is one-way iff x_j is one cut value c
    of coordinate j but not both.  It leaves the cell of x, whose interval
    ends at c, for the next cell along j, and such a move exists iff c < lmax
    and that cell holds a point with lam_j = c and lam_{j-1} >= c + 1 (so
    x + e_j is dominant).  The edge runs from x's cell at c = down_at[j],
    and back at c = up_at[j].

    A class owns an interior point iff its box cut by lam_1 <= lmax - 1 and
    lam_n >= -lmax + 1 is nonempty; each class without one gets a warning.
    """
    if lmax < 1:
        raise ValueError(f"lmax must be >= 1, got {lmax}")
    up_at, down_at, warnings = _cut_values(params, lmax)
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
    hasse, layers, closures = _class_order(n_classes, class_edges)
    return ClassGraph(lmax, n_classes, class_boxes, class_edges, hasse, layers, closures, tuple(warnings))


# The checks of a verdict, in the order compare() makes them.
CHECKS = ("partition", "diagram", "socle", "generated")


class OracleVerdict(NamedTuple):
    ok: bool
    lmax: int
    case: str
    checks: tuple[tuple[str, str], ...]  # (name, "PASS" | "FAIL: ...") per name in CHECKS
    witness: str | None
    warnings: tuple[str, ...] = ()


def _meet(a: tuple[KType, KType], b: tuple[KType, KType]) -> tuple[KType, KType] | None:
    """The intersection of two boxes of weakly decreasing tuples, or None if it is empty."""
    return dominant_extremes(tuple(map(max, a[0], b[0])), tuple(map(min, a[1], b[1])))


def _first_gap(box: tuple[KType, KType], regions: list[tuple[KType, KType]]) -> KType | None:
    """The lexicographically least point of the nonempty ``box`` that lies in none of ``regions``, or None.

    A box that one region holds has no such point, and one that no region
    meets has its least point.  Otherwise its first coordinate k that is not
    fixed is fixed to each of its values in turn, and the sub-boxes are
    searched in that order, which is the points' lexicographic order.
    """
    least, greatest = box
    met = [region for region in regions if _meet(box, region)]
    if not met:
        return least
    if any(all(map(le, lo, least)) and all(map(le, greatest, hi)) for lo, hi in met):
        return None
    k = next(k for k, (a, b) in enumerate(zip(least, greatest)) if a != b)  # a one-point box met is held
    for v in range(least[k], greatest[k] + 1):
        sub = dominant_extremes((*least[:k], v, *least[k + 1 :]), (*greatest[:k], v, *greatest[k + 1 :]))
        if sub and (gap := _first_gap(sub, met)):
            return gap
    return None


def _partition(
    params: InducedRepParams, lattice: ClassGraph, labels: tuple[ConstituentLabel, ...]
) -> list[ConstituentLabel] | str:
    """Each class's region label, or the witness of the first partition failure.

    A region cut to the window is the window's points between the extremes of
    its bounds clipped to +-lmax (``dominant_extremes``), as a class is those
    between its ``class_boxes``.  The classes tile the window, so the regions
    partition it, one class each, iff the class boxes are those of distinct
    regions, as many as the labels.  Otherwise the witness is, in this order,
    the first point in a number of regions other than 1, the class count, a
    class spanning regions, or two classes in one region.  The first point in
    two regions is the least of a pairwise intersection of boxes; a point in
    none lies in a class whose box is no region's, so only those classes'
    boxes are searched (``_first_gap``).
    """
    lmax = lattice.lmax
    boxes = []
    for lab in labels:
        region = region_for(params, lab)  # bounds on 2*lam: 2*lam >= b iff lam >= ceil(b/2)
        lo = [-lmax if b is None else max(-(-b // 2), -lmax) for b in region.lower]
        boxes.append(dominant_extremes(lo, [lmax if b is None else min(b // 2, lmax) for b in region.upper]))
    by_box = {box: lab for box, lab in zip(boxes, labels) if box}
    label_for_class = [by_box.get(box) for box in lattice.class_boxes]
    if None not in label_for_class and len(set(label_for_class)) == len(labels) == lattice.n_classes:
        return label_for_class

    live = [box for box in boxes if box]
    crowded = min((m[0] for a, b in combinations(live, 2) if (m := _meet(a, b))), default=None)
    unmatched = (box for box, lab in zip(lattice.class_boxes, label_for_class) if lab is None)
    gap = min(filter(None, (_first_gap(box, live) for box in unmatched)), default=None)
    if witness := min(filter(None, (crowded, gap)), default=None):
        count = sum(_meet((witness, witness), box) is not None for box in live)
        return f"lambda=({','.join(map(str, witness))}) lies in {count} regions"
    if lattice.n_classes != len(labels):
        return f"{lattice.n_classes} lattice classes vs {len(labels)} closed-form constituents"
    for box in lattice.class_boxes:
        met = [lab for lab, region in zip(labels, boxes) if region and _meet(box, region)]
        if len(met) != 1:
            return f"class of lambda=({','.join(map(str, box[0]))}) spans regions " + ", ".join(map(str, met))
    return "two lattice classes map to one region"


def _structure_mismatches(
    params: InducedRepParams,
    lattice: ClassGraph,
    labels: tuple[ConstituentLabel, ...],
    label_for_class: list[ConstituentLabel],
) -> Iterator[str | None]:
    """Yield the mismatch, or None, of the diagram, the socle and the generated submodules: CHECKS[1:] in turn."""
    oracle_edges = {(label_for_class[a], label_for_class[b]) for a, b in lattice.hasse}
    diff = sorted(f"{u}->{v}" for u, v in oracle_edges.symmetric_difference(module_diagram(params).edges))
    yield f"edge mismatch: {diff[:4]}" if diff else None

    oracle_layers: dict[int, set[ConstituentLabel]] = {}
    for c, layer in enumerate(lattice.layers):
        oracle_layers.setdefault(layer, set()).add(label_for_class[c])
    formula_layers = {idx: set(layer) for idx, layer in enumerate(socle_series(params).layers, start=1)}
    yield None if oracle_layers == formula_layers else (
        "socle mismatch: oracle "
        + str({k: sorted(map(str, v)) for k, v in sorted(oracle_layers.items())})
        + " vs formula "
        + str({k: sorted(map(str, v)) for k, v in sorted(formula_layers.items())})
    )

    class_for_label = {lab: c for c, lab in enumerate(label_for_class)}
    for lab in labels:
        closure_labels = {label_for_class[c] for c in lattice.closures[class_for_label[lab]]}
        formula_members = set(generated_submodule(params, lab).members)
        if closure_labels != formula_members:
            yield (
                f"generated submodule of {lab}: oracle {sorted(map(str, closure_labels))}"
                f" vs formula {sorted(map(str, formula_members))}"
            )
            return
    yield None


def compare(params: InducedRepParams, lmax: int | None = None) -> OracleVerdict:
    """Closed-form structure vs brute-force graph analysis on one window.

    The window's classes come from ``cells``, and the window is never
    enumerated.  An oversized window is refused by ``check_window``, as the
    window reference refuses it.
    Checks, in order: the region partition against the SCC classes, the
    module diagram against the class Hasse diagram, the socle layers against
    longest-path levels, and each generated submodule against the
    reachability closure.  PASS requires all four; when the partition fails,
    the other three are skipped.  The witness is the first failure's detail.
    """
    if lmax is None:
        lmax = auto_lmax(params)
    check_window(params.n, lmax)
    graph = cells(params, lmax)
    case = classify(params)
    if case is CaseTag.IRREDUCIBLE:
        # the whole window must be one class, and all four checks read that
        ok = graph.n_classes == 1
        statuses = ["PASS" if ok else f"FAIL: {graph.n_classes} classes at an irreducible point"] * len(CHECKS)
        witness = None if ok else f"{graph.n_classes} strongly connected classes"
    else:
        labels = enumerate_constituents(params).labels
        label_for_class = _partition(params, graph, labels)
        if isinstance(label_for_class, str):
            witness = label_for_class
            statuses = [f"FAIL: {witness}"] + ["FAIL: skipped: partition comparison failed"] * (len(CHECKS) - 1)
        else:
            mismatches = list(_structure_mismatches(params, graph, labels, label_for_class))
            statuses = ["PASS"] + [f"FAIL: {m}" if m else "PASS" for m in mismatches]
            witness = next(filter(None, mismatches), None)
    return OracleVerdict(
        ok=all(status == "PASS" for status in statuses),
        lmax=lmax,
        case=case.value,
        checks=tuple(zip(CHECKS, statuses, strict=True)),
        witness=witness,
        warnings=graph.warnings,
    )
