"""The window reference: the oracle's class graph read off the enumerated window.

``build`` lists every dominant tuple with entries in [-lmax, lmax] and draws
each one-step move off ``ktypes.blocked_positions``, the zero locus of
``ktypes.transition``; on a window that holds every cut, the tests compare
its class graph with the one ``oracle.cells`` reads from the cut values, the
unbounded ends of its boxes moved to the window's edge.  It needs only the
standard library, and no command imports it: ``dpseries.build``,
``TruncatedLattice``, ``oracle.build`` and ``oracle.connected_components``
load it on first use.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import combinations_with_replacement
from math import comb
from typing import NamedTuple

from .parameters import InducedRepParams
from .ktypes import KType, blocked_positions
from .oracle import _class_order

__all__ = ["TruncatedLattice", "build", "check_window", "connected_components"]

# Largest window build() accepts, in points.  In a fresh process it peaked
# (ru_maxrss) at 106 MB for 0.48 M points (n=7), 167 MB for 0.74 M and 332 MB
# for 1.56 M (n=8): about 210 bytes a point, so 0.32 GB at the budget.
MAX_WINDOW_POINTS = 1_500_000


class TruncatedLattice(NamedTuple):
    """Transition graph and SCC analysis of a window of the K-type lattice, point by point."""

    params: InducedRepParams
    lmax: int
    points: tuple[KType, ...]  # the window's dominant tuples, lexicographically sorted
    comp: tuple[int, ...]  # per point, its class; the classes are numbered by first point
    n_classes: int
    class_boxes: tuple[tuple[KType, KType], ...]  # per class, its least and greatest point
    class_edges: tuple[tuple[int, int], ...]  # sorted
    hasse: tuple[tuple[int, int], ...]  # transitive reduction of class_edges
    layers: tuple[int, ...]  # per class: 1 + longest downward path length
    closures: tuple[frozenset[int], ...]  # per class: reachable classes incl. self


def check_window(n: int, lmax: int) -> int:
    """Number of dominant n-tuples in [-lmax, lmax]; ValueError, before any is listed, if lmax < 1 or too many."""
    if lmax < 1:
        raise ValueError(f"lmax must be >= 1, got {lmax}")
    size = comb(2 * lmax + n, n)
    if size > MAX_WINDOW_POINTS:
        budget = f"the oracle's budget of {MAX_WINDOW_POINTS} points"
        raise ValueError(f"window of {size} points (n={n}, lmax={lmax}) exceeds {budget}")
    return size


def connected_components(size: int, pairs: Iterable[tuple[int, int]]) -> tuple[int, tuple[int, ...]]:
    """Union-find on 0..size-1, an edge per pair: the number of components, and each point's by least point."""
    parent = list(range(size))

    def root(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]  # path halving
        return x

    for a, b in pairs:  # each tree is rooted at its least index
        a, b = root(a), root(b)
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    number: dict[int, int] = {}
    comp = tuple(number.setdefault(root(x), len(number)) for x in range(size))
    return len(number), comp


def build(params: InducedRepParams, lmax: int) -> TruncatedLattice:
    """Enumerate the window, draw its moves, and read the class graph off the points.

    A move x -> x + e_j stays in the window iff lam_j < lmax, and dominant iff
    j = 1 or lam_{j-1} > lam_j.  With j from 0, x has sum_j comb(lam_j + lmax +
    n-1-j, n-j) points before it, so x + e_j is ``gap[j][lam_j + lmax]`` further on.
    Its edge up is blocked where 2*lam_j is the up barrier position, and its edge
    back where 2*lam_j + 2 is the down one.  The classes are the connected
    components of the two-way moves: every one-way move crosses a cut lam_j =
    const, always in the same direction, so they are the strong components once
    the class graph has no cycle (``_class_order``).
    """
    check_window(params.n, lmax)
    n = params.n
    up_block, down_block = blocked_positions(params)
    points = sorted(combinations_with_replacement(range(lmax, -lmax - 1, -1), n))
    gap = [[comb(v + n - 1 - j, n - 1 - j) for v in range(2 * lmax + 1)] for j in range(n)]
    one_way = []

    def two_way():
        for x, lam in enumerate(points):
            for j, v in enumerate(lam):
                if v < lmax and (j == 0 or lam[j - 1] > v):
                    y = x + gap[j][v + lmax]
                    up, down = 2 * v != up_block[j], 2 * v + 2 != down_block[j]
                    if up and down:
                        yield x, y
                    elif up or down:
                        one_way.append((x, y) if up else (y, x))

    n_classes, comp = connected_components(len(points), two_way())
    class_edges = tuple(sorted({(comp[x], comp[y]) for x, y in one_way if comp[x] != comp[y]}))
    members = [[] for _ in range(n_classes)]
    for lam, c in zip(points, comp):
        members[c].append(lam)
    class_boxes = tuple((tuple(map(min, zip(*own))), tuple(map(max, zip(*own)))) for own in members)
    hasse, layers, closures = _class_order(n_classes, class_edges)
    fields = (n_classes, class_boxes, class_edges, hasse, layers, closures)
    return TruncatedLattice(params, lmax, tuple(points), comp, *fields)
