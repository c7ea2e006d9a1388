"""The window reference: the oracle's class graph from the enumerated window.

``build`` enumerates the window of ``oracle`` (every dominant tuple with
entries in [-lmax, lmax]) as the prefixes lam_1..lam_{n-1} and, derived
from them in closed form, the runs: the maximal stretches of consecutive
points joined by mutual pairs along the last coordinate.  It labels the runs
by their cells, verifies the labels exactly against the mutual moves, and
derives the class graph that ``oracle.cells`` reads from the cut values
alone; the tests compare the two.  Edges run as in ``oracle``.

This module needs numpy, which the package's ``test`` extra installs
(``pip install -e '.[test]'``).  Nothing the CLI or ``oracle.compare`` runs
imports it: ``dpseries.build``, ``dpseries.TruncatedLattice``,
``oracle.build`` and ``oracle.connected_components`` load it on first use.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import cached_property
from itertools import product
from math import comb
from typing import NamedTuple

import numpy as np

from .parameters import InducedRepParams, _Frozen
from .ktypes import KType
from .oracle import _class_order, _cut_values

__all__ = ["TruncatedLattice", "build", "check_window", "connected_components"]

# Largest window build() accepts, in points.  build() in a fresh process
# peaked (ru_maxrss) at 49 MB for 1.56 M points (n=8), at 156 MB for 10.0 M
# and 262 MB for 20.2 M (n=9), and, with the budget raised for the run, at
# 394 MB for 30.0 M (n=10): under 16 bytes per point from 10 M points up, so
# a window at the budget needs about 0.4 GB.
MAX_WINDOW_POINTS = 30_000_000

# Runs whose moves along one coordinate are paired at a time.  Their indices
# and partners take 1 MiB, so the allocator reuses their pages from block to
# block: at 2^20 runs, n=7's windows (up to 0.27 M runs) took four times the
# page faults, and 10-20 ms more per build.  Every window of the default
# verify sweep (up to 34 k points, about 0.3 runs each) makes one block.
_RUNS_PER_BLOCK = 1 << 16


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
