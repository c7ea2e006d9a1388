"""Brute-force verifier on the K-type lattice, read from its cut values.

This module knows nothing about the closed-form region/diagram/socle
formulas.  Its lattice is every dominant integer tuple, with a directed edge
for each one-step move with a nonzero transition coefficient (the zero locus
comes from ``ktypes.blocked_positions``, which is definitionally the zero
set of ``ktypes.transition``).  Its strongly connected classes are the
nonempty cells, where a cell fixes each coordinate's interval between its
cut values, so each class is its bounding box, with None at each unbounded
end.

``cells`` finds the classes, their boxes and one-way edges, the classes'
Hasse diagram under reachability, longest-path layers and reachability
closures from the cut values alone, without listing a lattice point.
``compare`` checks the closed-form side against these, matching each
class's box with a region's, and reports the first witness on any mismatch.
Both need only the standard library.

The window reference, which lists a finite window point by point and
derives its class graph, is ``window.build``; on a window that holds every
cut the tests find ``cells``' boxes there, clipped to it.  It is loaded only
when asked for (see ``__getattr__``).

Edge direction convention: an edge A -> B between classes means B lies in the
submodule generated by A, matching the module diagrams' downward edges.

A verdict's ``lmax`` is ``auto_lmax``, the radius of a window that holds
every cut with a margin of 3.  No check reads it; ``verify`` records print
it until ROADMAP direction 5 re-bases the benchmark, whose digests pin it.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import combinations
from typing import NamedTuple

from .parameters import CaseTag, InducedRepParams, classify
from .ktypes import KType, blocked_positions, dominant_extremes
from .constituents import ConstituentLabel, enumerate_constituents, region_for
from .structure import generated_submodule, module_diagram, socle_series

__all__ = ["ClassGraph", "OracleVerdict", "auto_lmax", "cells", "check_cells", "compare"]

# The names of the window reference that this module still resolves, by
# loading ``window`` on their first lookup, so that no command loads it.  The
# benchmark's tracer looks up ``build`` and ``connected_components`` here;
# ROADMAP direction 5 deletes this seam when it retargets the tracer at ``cells``.
_WINDOW_NAMES = frozenset({"build", "connected_components", "TruncatedLattice"})


def __getattr__(name: str):
    if name in _WINDOW_NAMES:
        from . import window

        return getattr(window, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Most cells compare() accepts at one point, and verify before any point runs.
# The cells set compare's cost: O(n) each in ``cells`` and a closure each in
# ``_class_order``.  At the point of most cells of each rank (alpha 0..3,
# integer sigma_tilde -8..n+10), compare in a fresh process took 0.05 s and
# peaked (ru_maxrss) at 23 MB for 593 cells (n=64), 0.48 s and 105 MB for
# 2,209 (n=128), and 1.1 s and 219 MB for 3,401 (n=160): the peak grows about
# as the square of the cells, so a point at the budget needs about 0.23 GB.
MAX_CELLS = 3_500
# Most boxes ``_first_gap`` searches in one partition check before it gives up
# naming a point in no region.  A box costs a meet, O(n), with each region
# that met its parent.  With every region moved one step (the regions still
# tile the lattice, so the search finds nothing), the cap was reached in
# 0.20 s at n=12, 0.64 s at n=64 and 3.6 s at n=128.
MAX_GAP_BOXES = 10_000


def auto_lmax(params: InducedRepParams) -> int:
    """Max effective-barrier |position|/2, rounded up, plus 3: a window radius that holds every cut.

    No check reads it.  It is kept only as ``OracleVerdict.lmax``, which
    ``verify`` records print and the benchmark's digests pin.
    """
    up, down = blocked_positions(params)
    return (max((abs(b) for b in up + down if b is not None), default=0) + 1) // 2 + 3


def _class_order(n_classes: int, class_edges: tuple[tuple[int, int], ...]) -> tuple[tuple, tuple, tuple]:
    """The Hasse diagram, longest-path layers and reachability closures of an acyclic class graph.

    One pass of Kahn's sort (A. B. Kahn, CACM 5(11), 1962) from the sinks up: a class is
    finished once its last successor is, and its layer and bit sets read theirs.  Bit b of
    ``reach[c]`` is set iff c reaches b, and of ``beyond[a]`` iff a successor of a other than b
    does, so a -> b is a Hasse edge iff that bit is clear; the frozenset closures are built
    from ``reach`` at the end.  A class left unfinished lies on a cycle: AssertionError.
    """
    succ, pred = [[] for _ in range(n_classes)], [[] for _ in range(n_classes)]
    for a, b in class_edges:
        succ[a].append(b)
        pred[b].append(a)
    waiting = [len(s) for s in succ]
    finished = [c for c in range(n_classes) if not waiting[c]]  # grows as the loop below runs
    layers, reach, beyond, closures = [0] * n_classes, [0] * n_classes, [0] * n_classes, []
    for c in finished:
        here, layer = 1 << c, 0
        for b in succ[c]:
            here |= reach[b]
            beyond[c] |= reach[b] ^ 1 << b  # the classes two or more edges below c
            layer = max(layer, layers[b])
        reach[c], layers[c] = here, layer + 1
        for a in pred[c]:
            waiting[a] -= 1
            if not waiting[a]:
                finished.append(a)
    if len(finished) < n_classes:
        raise AssertionError("class generation order contains a cycle")
    hasse = sorted((a, b) for a, b in class_edges if not beyond[a] >> b & 1)
    for r in reach:  # the bits of r, highest first
        members = []
        while r:
            members.append(r.bit_length() - 1)
            r ^= 1 << members[-1]
        closures.append(frozenset(members))
    return tuple(hasse), tuple(layers), tuple(closures)


class ClassGraph(NamedTuple):
    """The lattice's classes and their order, as ``cells`` reads them from the cut values."""

    n_classes: int
    class_boxes: tuple[tuple[KType, KType], ...]  # per class, its least and greatest point, None where unbounded
    class_edges: tuple[tuple[int, int], ...]  # sorted
    hasse: tuple[tuple[int, int], ...]  # transitive reduction of class_edges
    layers: tuple[int, ...]  # per class: 1 + longest downward path length
    closures: tuple[frozenset[int], ...]  # per class: reachable classes incl. self


def _spans(params: InducedRepParams) -> tuple[list, list, list[list[tuple]]]:
    """Each coordinate's cut values ``up_at`` and ``down_at`` (None for none), and its intervals (lo, hi) between them.

    A pair x, x + e_j loses its up edge where 2*lam_j hits the up barrier and
    its down edge where 2*lam_j + 2 hits the down barrier.  The intervals run
    in increasing order, the first's lo and the last's hi None.  Refuses,
    before any cell is listed, a point of more than ``MAX_CELLS`` cells:
    ValueError.  The cells are counted over the states (depth, least hi so
    far, None for none) of ``cells``' depth-first pass, each with the number
    of prefixes that reach it; a state extends by each interval up to the
    first whose lo exceeds its least hi, as the pass does, so the counts at
    the last depth sum to the cells the pass finds.  Every prefix extends by
    the first interval, so the count never falls from one depth to the next,
    and the point is refused at the first depth whose count exceeds the
    budget.  So the count takes O(n * MAX_CELLS) steps, and the intervals,
    listed as it goes, are listed only that far.
    """
    up_block, down_block = blocked_positions(params)
    up_at = [b // 2 if b is not None else None for b in up_block]
    down_at = [b // 2 - 1 if b is not None else None for b in down_block]
    spans, states, count = [], {None: 1}, 1
    for u, d in zip(up_at, down_at):
        lo, intervals = None, []
        for c in (u, d) if u is None or d is None or u < d else (d, u):  # in increasing order
            if c is not None and (lo is None or lo <= c):  # lo <= c drops a repeat
                intervals.append((lo, c))
                lo = c + 1
        intervals.append((lo, None))
        spans.append(intervals)
        if len(intervals) > 1:  # the one interval (None, None) keeps every state as it is
            after: dict[int | None, int] = {}
            count = 0
            for ceiling, prefixes in states.items():
                for low, high in intervals:
                    if ceiling is not None and low is not None and low > ceiling:
                        break
                    least = ceiling if high is None or ceiling is not None and ceiling < high else high
                    after[least] = after.get(least, 0) + prefixes
                    count += prefixes
            states = after
        if count > MAX_CELLS:
            raise ValueError(
                f"point (n={params.n}, sigma_tilde={params.sigma_tilde}) has more than the oracle's"
                f" budget of {MAX_CELLS} cells"
            )
    return up_at, down_at, spans


def check_cells(params: InducedRepParams) -> None:
    """Raise ValueError if ``cells`` would refuse the point, without listing a cell (see ``_spans``)."""
    _spans(params)


def cells(params: InducedRepParams) -> ClassGraph:
    """The lattice's class graph from its cells, without listing a lattice point.

    The classes are the nonempty cells (the tests find them on windows that
    hold every cut, with ``window.build``).  The cut values of a coordinate
    split the integers into intervals, the first unbounded below and the
    last above, and a cell picks one interval per coordinate.  Dominant
    tuples with lo_i <= x_i <= hi_i exist iff lo_j <= hi_i for every i <= j
    (take x_j = min of hi_1..hi_j, or any low enough integer if all are
    None), so a pass over the coordinates keeps each nonempty prefix of
    intervals by the least hi so far; every such prefix extends by the first
    interval, so the pass never hits a dead end.  A cell's box is its least
    and greatest point, whose x_j are the greatest of lo_j..lo_n and the
    least hi so far, None where there is none, and the classes are numbered
    by least point in lexicographic order (None first), as ``window.build``
    numbers a window's classes by first point.  The least point lies in its
    cell, so its x_j picks the cell's interval of coordinate j, and a
    depth-first pass that tries each coordinate's intervals in increasing
    order meets the cells in that order.  A point of more than ``MAX_CELLS``
    cells is refused before the pass (``_spans``).

    A move x -> x + e_j is one-way iff x_j is one cut value c of coordinate j
    but not both.  It leaves the cell of x, whose interval ends at c, for
    the next cell along j, and such a move exists iff that cell holds a
    point with lam_j = c and lam_{j-1} >= c + 1 (so x + e_j is dominant),
    that is iff c <= greatest_j and, unless j = 1, c < greatest_{j-1}: as
    least_j, greatest_j <= c, lam_j = c leaves the least point unchanged
    right of j, and as the greatest point weakly decreases, raising
    lam_{j-1} to c + 1 breaks only coordinate j - 1.  The edge runs from x's
    cell at c = down_at[j], and back at c = up_at[j].
    """
    up_at, down_at, spans = _spans(params)

    # The depth-first pass: picked[k], lows[k] and ceilings[k + 1] are the
    # interval, its lo and the least hi so far at depth k (None for none),
    # and i is the interval to try next there; an interval past the least hi
    # ends the depth, as the los increase.  At a finished cell ceilings[j]
    # is None at j = 0 and greatest_{j-1} after, so the one-way test at the
    # top c of the picked interval of coordinate j reads c < ceilings[j]:
    # that gives c <= greatest_j = min(greatest_{j-1}, c).
    n = len(spans)
    one_way = [j for j in range(n) if up_at[j] != down_at[j] and len(spans[j]) > 1]  # not cut both ways
    picked, lows, ceilings = [0] * n, [None] * n, [None] * (n + 1)
    class_boxes, class_of, crossings = [], {}, []  # crossings: (class, neighbour's picked, down) per edge
    k = i = 0
    while k >= 0:
        intervals = spans[k]
        if i < len(intervals):
            lo, hi = intervals[i]
            ceiling = ceilings[k]
            if lo is None or ceiling is None or lo <= ceiling:
                picked[k], lows[k] = i, lo
                ceilings[k + 1] = ceiling if hi is None or ceiling is not None and ceiling < hi else hi
                if k + 1 < n:
                    k, i = k + 1, 0
                    continue
                least, run = [None] * n, None
                for j in range(n - 1, -1, -1):
                    low = lows[j]
                    if low is not None and (run is None or low > run):
                        run = low
                    least[j] = run
                here, cell = len(class_boxes), tuple(picked)
                class_boxes.append((tuple(least), tuple(ceilings[1:])))
                class_of[cell] = here
                for j in one_way:
                    c = spans[j][cell[j]][1]
                    if c is not None and (ceilings[j] is None or c < ceilings[j]):
                        crossings.append((here, cell[:j] + (cell[j] + 1,) + cell[j + 1 :], c == down_at[j]))
                i += 1
                continue
        k -= 1
        i = picked[k] + 1

    class_edges = []  # from x's cell at c = down_at[j], and back at c = up_at[j]
    for here, neighbour, down in crossings:
        there = class_of[neighbour]
        class_edges.append((here, there) if down else (there, here))
    class_edges = tuple(sorted(class_edges))
    n_classes = len(class_boxes)
    hasse, layers, closures = _class_order(n_classes, class_edges)
    return ClassGraph(n_classes, tuple(class_boxes), class_edges, hasse, layers, closures)


# The checks of a verdict, in the order compare() makes them.
CHECKS = ("partition", "diagram", "socle", "generated")


class OracleVerdict(NamedTuple):
    ok: bool
    lmax: int  # auto_lmax: no check reads it, but verify records print it
    case: str
    checks: tuple[tuple[str, str], ...]  # (name, "PASS" | "FAIL: ...") per name in CHECKS
    witness: str | None
    warnings: tuple[str, ...] = ()  # always empty; kept while the benchmark's tracer sums its length


def _meet(a: tuple[KType, KType], b: tuple[KType, KType]) -> tuple[KType, KType] | None:
    """The intersection of two boxes, each its least and greatest point (None at an unbounded end), or None.

    The greater least and the lesser greatest end of each coordinate weakly
    decrease, as both boxes' ends do, so they are the intersection's least
    and greatest point, and it is empty iff they cross somewhere.
    """
    least = tuple(y if x is None or y is not None and y > x else x for x, y in zip(a[0], b[0]))
    greatest = tuple(y if x is None or y is not None and y < x else x for x, y in zip(a[1], b[1]))
    if any(x is not None and y is not None and x > y for x, y in zip(least, greatest)):
        return None
    return least, greatest


def _first_gap(boxes: list[tuple[KType, KType]], regions: list[tuple[KType, KType]]) -> KType | None:
    """The lexicographically least point of the finite ``boxes`` that lies in none of ``regions``, or None.

    A box that one region holds has no such point, and one that no region
    meets has its least point.  Otherwise its first coordinate k that is not
    fixed is fixed to each of its values in turn, and the sub-boxes are
    searched depth first in that order, which is the points' lexicographic
    order.  The search gives up, returning None, past ``MAX_GAP_BOXES``
    boxes in all.
    """
    gaps, left = [], MAX_GAP_BOXES
    for box in boxes:
        stack = [(box, regions)]
        while stack:
            left -= 1
            if left < 0:
                return None
            box, outer = stack.pop()
            met = [region for region in outer if _meet(box, region)]
            least, greatest = box
            if not met:
                gaps.append(least)
                break
            if any(all(a is None or a <= x for a, x in zip(lo, least)) and
                   all(b is None or x <= b for x, b in zip(greatest, hi)) for lo, hi in met):
                continue
            k = next(k for k, (a, b) in enumerate(zip(least, greatest)) if a != b)  # a one-point box met is held
            for v in range(greatest[k], least[k] - 1, -1):  # pushed in reverse, so the least value pops first
                sub = dominant_extremes((*least[:k], v, *least[k + 1 :]), (*greatest[:k], v, *greatest[k + 1 :]))
                if sub:
                    stack.append((sub, met))
    return min(gaps, default=None)


def _partition(
    params: InducedRepParams, lattice: ClassGraph, labels: tuple[ConstituentLabel, ...]
) -> list[ConstituentLabel] | str:
    """Each class's region label, or the witness of the first partition failure.

    A region is the points between the extremes of its bounds, as a class is
    those between its ``class_boxes``: the running max from the right and min
    from the left (``ktypes.dominant_extremes``), None where no bound is,
    which cross iff the region is empty.  The classes tile the lattice, so
    the regions partition it, one class each, iff the class boxes are those
    of distinct regions, as many as the labels.  Otherwise the witness is, in
    this order, the first point of the frame in a number of regions other
    than 1, the class count, a class spanning regions, or two classes in one
    region.  The frame is [-r, r]^n, r one more than the greatest |finite
    end| of a class or region box: clamping each coordinate of a dominant
    tuple to it keeps the tuple dominant and on the same side of every end,
    so in the same boxes, and every witness has one in the frame.  The first
    point in two regions is the least of a pairwise intersection of boxes; a
    point in none lies in a class whose box is no region's, so only those
    classes' boxes are searched (``_first_gap``; if it gives up, a point in
    two regions is named if there is one, and the next witness if not).
    """
    n = params.n
    boxes = []
    for lab in labels:
        # bounds on 2*lam: 2*lam >= b iff lam >= ceil(b/2)
        region = region_for(params, lab)
        greatest, run = [None] * n, None
        for c, b in enumerate(region.upper):
            if b is not None and (run is None or b // 2 < run):
                run = b // 2
            greatest[c] = run
        least, run, lower = [None] * n, None, region.lower
        for c in range(n - 1, -1, -1):
            b = lower[c]
            if b is not None and (run is None or -(-b // 2) > run):
                run = -(-b // 2)
            if run is not None and greatest[c] is not None and run > greatest[c]:  # the extremes cross: empty
                boxes.append(None)
                break
            least[c] = run
        else:
            boxes.append((tuple(least), tuple(greatest)))
    by_box = {box: lab for box, lab in zip(boxes, labels) if box}
    label_for_class = [by_box.get(box) for box in lattice.class_boxes]
    if None not in label_for_class and len(set(label_for_class)) == len(labels) == lattice.n_classes:
        return label_for_class

    ends = (v for box in (*lattice.class_boxes, *filter(None, boxes)) for end in box for v in end)
    r = 1 + max((abs(v) for v in ends if v is not None), default=0)
    frame = (-r,) * n, (r,) * n
    boxes = [box and _meet(box, frame) for box in boxes]  # a nonempty box meets the frame
    classes = [_meet(box, frame) for box in lattice.class_boxes]
    live = [box for box in boxes if box]
    crowded = min((m[0] for a, b in combinations(live, 2) if (m := _meet(a, b))), default=None)
    gap = _first_gap([box for box, lab in zip(classes, label_for_class) if lab is None], live)
    if witness := min(filter(None, (crowded, gap)), default=None):
        count = sum(_meet((witness, witness), box) is not None for box in live)
        return f"lambda=({','.join(map(str, witness))}) lies in {count} regions"
    if lattice.n_classes != len(labels):
        return f"{lattice.n_classes} lattice classes vs {len(labels)} closed-form constituents"
    for box in classes:
        met = [lab for lab, region in zip(labels, boxes) if region and _meet(box, region)]
        if len(met) != 1:
            return f"class of lambda=({','.join(map(str, box[0]))}) spans regions " + ", ".join(map(str, met))
    return "two lattice classes map to one region"


def _structure_mismatches(
    params: InducedRepParams, lattice: ClassGraph, labels: tuple[ConstituentLabel, ...], label_for_class: list
) -> Iterator[str | None]:
    """Yield the mismatch, or None, of the diagram, the socle and the generated submodules: CHECKS[1:] in turn.

    Each is compared on class indices, through the partition's one class per
    label, and its label witness is formatted only on a mismatch.
    """
    index = {lab: c for c, lab in enumerate(label_for_class)}.get  # None for a label of no class
    edges = module_diagram(params).edges
    if {(index(u), index(v)) for u, v in edges} == set(lattice.hasse):
        yield None
    else:
        oracle_edges = {(label_for_class[a], label_for_class[b]) for a, b in lattice.hasse}
        yield f"edge mismatch: {sorted(f'{u}->{v}' for u, v in oracle_edges.symmetric_difference(edges))[:4]}"

    oracle_layers: dict[int, set[int]] = {}
    for c, layer in enumerate(lattice.layers):
        oracle_layers.setdefault(layer, set()).add(c)
    socle = socle_series(params).layers
    yield None if {idx: set(map(index, layer)) for idx, layer in enumerate(socle, start=1)} == oracle_layers else (
        "socle mismatch: oracle "
        + str({k: sorted(str(label_for_class[c]) for c in v) for k, v in sorted(oracle_layers.items())})
        + " vs formula "
        + str({idx: sorted(map(str, set(layer))) for idx, layer in enumerate(socle, start=1)})
    )

    for lab in labels:
        closure = lattice.closures[index(lab)]
        members = generated_submodule(params, lab).members
        if set(map(index, members)) != closure:
            yield (
                f"generated submodule of {lab}: oracle {sorted(str(label_for_class[c]) for c in closure)}"
                f" vs formula {sorted(map(str, set(members)))}"
            )
            return
    yield None


def compare(params: InducedRepParams) -> OracleVerdict:
    """Closed-form structure vs brute-force graph analysis on the whole lattice.

    The classes come from ``cells``, and no lattice point is listed.  A point
    of more than ``MAX_CELLS`` cells is refused, by ValueError, before any
    cell is listed.
    Checks, in order: the region partition against the SCC classes, the
    module diagram against the class Hasse diagram, the socle layers against
    longest-path levels, and each generated submodule against the
    reachability closure.  PASS requires all four; when the partition fails,
    the other three are skipped.  The witness is the first failure's detail.
    """
    graph = cells(params)
    case = classify(params)
    if case is CaseTag.IRREDUCIBLE:
        # the whole lattice must be one class, and all four checks read that
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
    checks = tuple(zip(CHECKS, statuses, strict=True))
    return OracleVerdict(all(s == "PASS" for s in statuses), auto_lmax(params), case.value, checks, witness)
