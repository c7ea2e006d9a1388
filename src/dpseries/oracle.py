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

``build`` is the window reference.  It enumerates the window, as the
prefixes lam_1..lam_{n-1} and, derived from them in closed form, the runs:
the maximal stretches of consecutive points joined by mutual pairs along the
last coordinate.  It labels the runs by their cells, verifies the labels
exactly against the mutual moves, and derives the same class graph, which
the tests compare with ``cells``.

Edge direction convention: an edge A -> B between classes means B lies in the
submodule generated by A, matching the module diagrams' downward edges.

The auto window is sized from the effective barrier positions plus a margin
of 3, which guarantees every region owns interior points and no region is
split by the truncation.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import cached_property
from itertools import combinations, product
from math import comb
from operator import le
from typing import NamedTuple

import numpy as np

from .parameters import CaseTag, InducedRepParams, _Frozen, classify
from .ktypes import KType, blocked_positions, dominant_extremes
from .constituents import ConstituentLabel, enumerate_constituents, region_for
from .structure import generated_submodule, module_diagram, socle_series

__all__ = ["ClassGraph", "OracleVerdict", "TruncatedLattice", "auto_lmax", "build", "cells", "check_window", "compare"]

# Largest window build() and compare() accept, in points.  build() in a fresh
# process peaked (ru_maxrss) at 49 MB for 1.56 M points (n=8), at 156 MB for
# 10.0 M and 262 MB for 20.2 M (n=9), and, with the budget raised for the run,
# at 394 MB for 30.0 M (n=10): under 16 bytes per point from 10 M points up, so
# a window at the budget needs about 0.4 GB.
MAX_WINDOW_POINTS = 30_000_000

# Runs whose moves along one coordinate are paired at a time.  Their indices
# and partners take 1 MiB, so the allocator reuses their pages from block to
# block: at 2^20 runs, n=7's windows (up to 0.27 M runs) took four times the
# page faults, and 10-20 ms more per build.  Every window of the default
# verify sweep (up to 34 k points, about 0.3 runs each) makes one block.
_RUNS_PER_BLOCK = 1 << 16


def auto_lmax(params: InducedRepParams) -> int:
    """Window radius: max effective-barrier |position|/2, rounded up, plus 3."""
    return _auto_lmax(*blocked_positions(params))


def _auto_lmax(up: tuple[int | None, ...], down: tuple[int | None, ...]) -> int:
    """``auto_lmax`` from the point's ``blocked_positions``."""
    positions = [abs(b) for b in up + down if b is not None]
    return (max(positions, default=0) + 1) // 2 + 3


class _LatticeFields(NamedTuple):
    params: InducedRepParams
    lmax: int
    run_lam: tuple[np.ndarray, ...]  # n columns, int8 (wider when lmax >= 128): each run's last point
    run_start: np.ndarray  # (R,) lam_n at each run's first point
    run_comp: np.ndarray  # (R,) int32 class id per run
    n_classes: int
    class_edges: tuple[tuple[int, int], ...]  # generation order, deduplicated
    hasse: tuple[tuple[int, int], ...]  # transitive reduction of class_edges
    layers: tuple[int, ...]  # per class: 1 + longest downward path length
    closures: tuple[frozenset[int], ...]  # per class: reachable classes incl. self
    warnings: tuple[str, ...] = ()


class TruncatedLattice(_LatticeFields, _Frozen):
    """Transition graph and SCC analysis of a window of the K-type lattice.

    The window is held as its runs along the last coordinate, in window
    order (see ``build``): ``run_lam`` is each run's last point and
    ``run_start`` lam_n at its first point.  ``points`` and ``comp`` are
    per-point views built from them on first use.
    """

    @cached_property
    def points(self) -> np.ndarray:
        """(P, n) dominant tuples, lexicographically sorted, in the dtype of ``run_lam``."""
        pts = _window_points(self.params.n, self.lmax)
        pts.setflags(write=False)
        return pts

    @cached_property
    def comp(self) -> np.ndarray:
        """(P,) int32 class id per point, classes numbered by first point."""
        comp = np.repeat(self.run_comp, self.run_lam[-1].astype(np.intp) - self.run_start + 1)
        comp.setflags(write=False)
        return comp

    @cached_property
    def class_boxes(self) -> tuple[tuple[KType, KType], ...]:
        """Per class, its least and greatest point; the class is the window's points between them (``build``)."""
        runs = np.arange(len(self.run_comp))
        first, last = np.full(self.n_classes, len(runs)), np.zeros(self.n_classes, dtype=runs.dtype)
        np.minimum.at(first, self.run_comp, runs)
        np.maximum.at(last, self.run_comp, runs)
        least = [*(col[first].tolist() for col in self.run_lam[:-1]), self.run_start[first].tolist()]
        return tuple(zip(zip(*least), zip(*(col[last].tolist() for col in self.run_lam))))


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


def _window_points(n: int, lmax: int) -> np.ndarray:
    """Every dominant n-tuple with entries in [-lmax, lmax], lexicographically sorted.

    Built one column at a time: a row ending in ``v`` is followed by the
    entries -lmax..v in increasing order.  The entries are int8 when they fit
    (lmax < 128) and int32 otherwise; the columns are contiguous (the array is
    the transpose of a C-ordered (n, P) array).
    """
    dtype = np.int8 if lmax < 128 else np.int32
    cols = np.arange(-lmax, lmax + 1, dtype=dtype)[None]
    for k in range(1, n):
        sizes = cols[-1].astype(np.int32) + (lmax + 1)
        parent = np.repeat(np.arange(len(sizes), dtype=np.int32), sizes)
        offset = np.arange(len(parent), dtype=np.int32)
        offset -= (np.cumsum(sizes, dtype=np.int32) - sizes)[parent]
        wider = np.empty((k + 1, len(parent)), dtype=dtype)
        np.take(cols, parent, axis=1, out=wider[:k], mode="clip")
        np.subtract(offset, lmax, out=wider[k], casting="unsafe")
        cols = wider
    return cols.T


class _Prefixes(NamedTuple):
    lam: tuple[np.ndarray, ...]  # n-1 columns: the prefixes lam_1..lam_{n-1}, in window order
    rank_terms: np.ndarray  # by value: coordinate i of a prefix adds rank_terms[n-2-i][lam_i] to its rank
    steps: np.ndarray  # by value, intp: a +e_j move from lam_j adds steps[j][lam_j] to a prefix's rank


def _prefix_window(n: int, lmax: int) -> _Prefixes:
    """The prefixes lam_1..lam_{n-1} of the window of n-tuples and their rank tables (see ``build``).

    The prefix half of ``build``'s tiling check runs here.  Every array is
    read-only.
    """
    prefixes = _window_points(n - 1, lmax)
    lam = tuple(prefixes[:, j] for j in range(n - 1))
    # pascal[k][v] = C(v + lmax + k, k), at most the window's size, so int32
    # holds it.  With u = lam + lmax, coordinate i adds C(u_i + n-2-i, n-1-i)
    # to a prefix's rank, and a +e_j move adds C(u_j + n-2-j, n-2-j).
    pascal = np.ones((n, 2 * lmax + 1), dtype=np.int32)
    for k in range(n - 1):
        np.cumsum(pascal[k], out=pascal[k + 1])
    # re-laid by value, so that each value v in -lmax..lmax indexes its entry
    # (negative ones from the end, as numpy does) with no shifted copy
    pascal = np.concatenate((pascal[:, lmax:], pascal[:, :lmax]), axis=1)
    rank_terms = pascal[1:] - pascal[:-1]
    rank = np.zeros(len(prefixes), dtype=np.int32)
    for i in range(n - 1):
        rank += rank_terms[n - 2 - i][lam[i]]
    if (rank != np.arange(len(prefixes), dtype=np.int32)).any():
        raise AssertionError("the window misses a dominant tuple, so a move leaves the enumerated window")
    steps = pascal[n - 2 :: -1].astype(np.intp)  # steps[j] = pascal[n-2-j]; intp indexes without a cast
    for table in (*lam, rank_terms, steps):
        table.setflags(write=False)
    return _Prefixes(lam, rank_terms, steps)


def _partners(j: int, here: np.ndarray, lam, steps, prefix, offset, sub) -> np.ndarray:
    """Runs holding x + e_j for the last points x (columns ``lam``) of the runs ``here``.

    Run r is run ``sub[r]`` of the prefix numbered ``prefix[r]``, whose first
    run is ``offset[prefix[r]]`` (see ``build``).
    """
    if j == len(lam) - 1:
        return here + 1  # the point after a run's last point starts the next run
    return np.add(offset[prefix[here] + steps[j][lam[j][here]]], sub[here], dtype=np.intp)


def connected_components(label: np.ndarray, pairs: Iterable[tuple[np.ndarray, np.ndarray]]) -> tuple[int, np.ndarray]:
    """Verify that ``label`` gives the connected components of a graph, and number them.

    The graph is on 0..len(label)-1 with an edge a[i]-b[i], a[i] < b[i], per
    (a, b) in ``pairs``, which is iterated once.  ``label[x]`` claims the
    smallest index of x's component, and every other point must have an
    edge down, to a smaller index (``build``'s cells give both).  The claim
    is accepted only if (a) no edge joins two labels and (b) every point with
    no edge down is its own label.  That proves it: a walk down from x stays
    in x's label by (a) and ends at the label's own point by (b), so each
    label is a whole component, and its smallest point, with no edge down,
    is the label.  Returns the number of components and each point's int32
    component, numbered by smallest index; raises AssertionError otherwise.
    """
    has_down = np.zeros(len(label), dtype=bool)
    for a, b in pairs:
        if (a >= b).any():
            raise ValueError("each pair must join a smaller index to a larger one")
        if (label[a] != label[b]).any():
            raise AssertionError("an edge joins two labels, so a label splits a component")
        has_down[b] = True
        del a, b  # free them before the next pair is built
    roots = np.flatnonzero(~has_down)
    if (label[roots] != roots).any():
        raise AssertionError("a point with no edge down is not its own label, so a label merges components")
    number = np.zeros(len(label), dtype=np.int32)
    number[roots] = np.arange(len(roots), dtype=np.int32)
    return len(roots), number[label]


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


def build(params: InducedRepParams, lmax: int) -> TruncatedLattice:
    """Enumerate the window's runs, build the transition graph, and analyze it.

    Only the prefixes lam_1..lam_{n-1} are enumerated, by ``_prefix_window``;
    every later pass is O(R*n) for R runs, about 0.3 per window point at
    n=7.  A tuple's index in a window is its rank in the combinatorial number
    system (Knuth, TAOCP 4A, 7.2.1.3), so a one-step move is index
    arithmetic.  The classes are the connected components of the mutual
    pairs (both directions nonzero).

    Cells.  Coordinate j has at most two cut values, up_at[j] and down_at[j]
    from ``blocked_positions``, and a move x -> x + e_j in the window is
    mutual iff lam_j is not one.  The cuts split lam_j's values into
    intervals; a point's cell is the vector of its intervals, and no mutual
    pair leaves it.  The cell's least point y has y_n = the floor of lam_n's
    interval and y_j = max(floor of lam_j's interval, y_{j+1}) for j = n-1
    down to 1; any point of the cell reaches y by mutual steps down, lowering
    lam_n first.  So the classes are the nonempty cells, each numbered by the
    run holding its least point, which is its first.

    Runs.  The window lists the points of a prefix p, ending in
    w = lam_{n-1}, consecutively with lam_n = -lmax..w.  The pair x, x + e_n
    is mutual unless lam_n = w or lam_n is a cut value of the last
    coordinate, so the mutual pairs along it join runs of consecutive
    points, and p holds 1 + #{cut values c : -lmax <= c < w} runs.  Its run
    s covers lam_n from just above its s-th such cut (or -lmax) up to the
    next one (or w).  The runs are numbered in window order, by p and then
    by s, so run (p, s) is ``offset[p] + s``.

    Run-shift lemma: a move along a coordinate j < n shifts run (p, s) onto
    run (p', s), p' = p + step_j(lam_j), and is mutual for every point of
    the run or for none.  Whether it is dominant, in the window and cut
    reads only lam_{j-1} and lam_j, which the run fixes, and its step in
    the prefix window depends on lam_j alone.  The shifted points keep
    lam_n, and the last coordinate's cut values do not depend on the
    prefix, so p' has the cuts of p below w; only a move along j = n-1
    raises w, by one: the last run grows to w + 1, or, when w is a cut
    value, a run [w + 1, w + 1] follows it.  So run s of p' starts where
    run s of p starts and ends no lower: it holds every shifted point, and
    the shifted pairs along the last coordinate stay mutual.  So a run
    lies in one cell and its last point stands for it in every move.  One
    pass over each coordinate's movable runs makes the run-shift check
    below, collects the one-way edges, and hands the mutual run pairs to
    ``connected_components``, which proves the labels are the classes.

    Boxes.  A cell within the window is the window cut by a product of
    intervals, so it equals its bounding box intersected with the window
    (the box lies in the product).  So each class is such a box once each
    run lies in the class of its cell's least run and the cells' least runs
    carry the class numbers 0, 1, ... in window order, as checked below.

    Two checks guard the enumeration.  A tiling check: the prefixes' ranks
    must count up from 0, so every prefix step lands on the prefix it names
    (checked where the prefixes are derived), and the run lengths must sum
    to the window's size, so a missed, repeated or misordered tuple or a
    miscounted run fails it.  A run-shift check: each partner run must start
    at the same lam_n and end no lower, which fails on a wrong prefix step or
    run numbering, or if the last coordinate's cuts came to depend on the
    prefix.
    """
    n = params.n
    size = check_window(n, lmax)
    up_at, down_at, warnings = _cut_values(params, lmax)

    # The coordinates are int8 when they fit; NEP 50 keeps int8 + int in int8,
    # so they only enter comparisons and index the prefixes' by-value rank and
    # step tables.
    lam, rank_terms, steps = _prefix_window(n, lmax)

    cuts = [{u, d} - {None} for u, d in zip(up_at, down_at)]

    # A prefix ending in w holds one run plus one per cut value below w; its
    # run s covers lam_n from run_from[s] to min(run_to[s], w).
    split = sorted(c for c in cuts[-1] if -lmax <= c < lmax)
    run_from = np.array([-lmax, *(c + 1 for c in split)], dtype=lam[0].dtype)
    run_to = np.array([*split, lmax], dtype=lam[0].dtype)
    counts = np.ones(len(lam[0]), dtype=np.int32)
    for c in split:
        counts += lam[-1] > c
    offset = np.cumsum(counts, dtype=np.int32)
    offset -= counts
    prefix = np.repeat(np.arange(len(lam[0]), dtype=np.int32), counts)
    sub = (np.arange(len(prefix), dtype=np.int32) - offset[prefix]).astype(np.int8)
    tail = [col[prefix] for col in lam]  # each run's last point
    tail.append(np.minimum(run_to[sub], tail[-1]))
    head = run_from[sub]  # lam_n at each run's first point
    # every dominant in-window move lands on an enumerated point
    covered = int(tail[-1].sum(dtype=np.int64)) - int(head.sum(dtype=np.int64)) + len(head)
    if covered != size:
        raise AssertionError("the window misses a dominant tuple, so a move leaves the enumerated window")
    del lam, counts

    # Label each run by the run holding its cell's least point (see the docstring).
    least, rank = head.copy(), np.zeros(len(head), dtype=np.int32)
    for j in range(n - 2, -1, -1):
        # the floor of lam_j's interval is one above the highest cut below
        # lam_j, or -lmax; a cut outside [-lmax, lmax) raises no floor
        for c in cuts[j]:
            if -lmax <= c < lmax:
                np.maximum(least, c + 1, out=least, where=tail[j] > c)
        rank += rank_terms[n - 2 - j][least]
    label = offset[rank]
    label += sub
    del least, rank

    # The one-way edges sit only at the cut values, so they are few.  Along
    # the last coordinate only a run's last point moves to another run.
    one_src = [np.zeros(0, dtype=np.intp)]
    one_dst = [np.zeros(0, dtype=np.intp)]

    def mutual_pairs() -> Iterator[tuple[np.ndarray, np.ndarray]]:
        for j, lo in product(range(n), range(0, len(head), _RUNS_PER_BLOCK)):
            col = tail[j][lo : lo + _RUNS_PER_BLOCK]
            movable = col < lmax  # the +e_j moves that stay in the window and dominant
            if j > 0:
                movable &= tail[j - 1][lo : lo + _RUNS_PER_BLOCK] > col
            across = np.zeros(len(col), dtype=bool)
            for c in cuts[j]:
                across |= col == c
            across &= movable
            movable ^= across  # now the mutual moves
            mutual = int(np.count_nonzero(movable))
            # the mutual moves first, then the few across a cut
            here = np.concatenate((np.flatnonzero(movable), np.flatnonzero(across)))
            here += lo
            del movable, across
            there = _partners(j, here, tail, steps, prefix, offset, sub)
            if j < n - 1 and ((head[there] != head[here]).any() or (tail[-1][there] < tail[-1][here]).any()):
                raise AssertionError("a move along a fixed coordinate splits a run")
            if up_at[j] != down_at[j]:  # else no barrier, or a pair cut both ways: no one-way edge
                at = tail[j][here[mutual:]]
                if down_at[j] is not None:
                    one_src.append(here[mutual:][at == down_at[j]])
                    one_dst.append(there[mutual:][at == down_at[j]])
                if up_at[j] is not None:
                    one_src.append(there[mutual:][at == up_at[j]])
                    one_dst.append(here[mutual:][at == up_at[j]])
            yield here[:mutual], there[:mutual]
            del here, there

    # The mutual pairs' components are strongly connected.  Every one-way
    # edge crosses a cut lam_j = const, always in the same direction, so no
    # cycle crosses a cut: these components are the strong components of the
    # whole graph, and the acyclicity check of _class_order confirms it.
    run_comp = connected_components(label, mutual_pairs())[1]
    del prefix, offset, sub  # free the run numbering, which only the pass reads

    # Each class must be one cell, so a box, numbered by its first run.
    split = np.flatnonzero(run_comp != run_comp[label])
    if len(split):
        raise AssertionError(f"SCC class {run_comp[split[0]]} is not an order-convex box within the window")
    cells = run_comp[label == np.arange(len(label), dtype=label.dtype)]
    wrong = np.flatnonzero(cells != np.arange(len(cells)))
    if len(wrong):
        raise AssertionError(
            f"SCC class {cells[wrong[0]]} is not an order-convex box within the window,"
            " or the classes are not numbered by first point"
        )
    n_classes = len(cells)
    del label

    # lam_1 is fixed on a run (n >= 2) and lam_n peaks at its last point, so
    # a run has a point with lam_1 < lmax and lam_n > -lmax iff that one does.
    interior = np.zeros(n_classes, dtype=bool)
    interior[run_comp[(tail[0] < lmax) & (tail[-1] > -lmax)]] = True

    osrc = run_comp[np.concatenate(one_src)].astype(np.int64)
    odst = run_comp[np.concatenate(one_dst)].astype(np.int64)
    cross = osrc != odst
    pair_codes = np.sort(osrc[cross] * n_classes + odst[cross])
    first = np.ones(len(pair_codes), dtype=bool)  # the first of each run of equal codes
    np.not_equal(pair_codes[1:], pair_codes[:-1], out=first[1:])
    class_edges = tuple(zip(*(part.tolist() for part in np.divmod(pair_codes[first], n_classes))))

    hasse, layers, closures = _class_order(n_classes, class_edges)

    for c in range(n_classes):
        if not interior[c]:
            warnings.append(f"class {c} owns no interior point; enlarge the window")

    for column in (*tail, head, run_comp):
        column.setflags(write=False)
    return TruncatedLattice(
        params=params,
        lmax=lmax,
        run_lam=tuple(tail),
        run_start=head,
        run_comp=run_comp,
        n_classes=n_classes,
        class_edges=class_edges,
        hasse=hasse,
        layers=layers,
        closures=closures,
        warnings=tuple(warnings),
    )


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

    The classes are the nonempty cells (``build`` proves it and checks it on
    the window).  The cut values c of a coordinate with -lmax <= c < lmax
    split its values in [-lmax, lmax] into intervals, and a cell picks one
    interval per coordinate.  Dominant tuples with lo_i <= x_i <= hi_i exist
    iff lo_j <= hi_i for every i <= j (take x_j = min of hi_1..hi_j), so a
    pass over the coordinates keeps each nonempty prefix of intervals by the
    least hi so far; every such prefix extends by the interval holding
    -lmax, so the pass never hits a dead end.  A cell's box is its least and
    greatest point (``dominant_extremes``), and the classes are numbered by
    least point in lexicographic order, as ``build`` numbers them by first
    point in window order.

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

    The window's classes come from ``cells``; the window is refused as
    ``build`` refuses it (``check_window``), though it is never enumerated.
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
