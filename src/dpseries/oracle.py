"""Brute-force verifier on a truncated K-type lattice.

This module knows nothing about the closed-form region/diagram/socle
formulas.  It enumerates every dominant tuple with entries in [-lmax, lmax],
draws a directed edge for each one-step move with a nonzero transition
coefficient (the zero locus comes from ``ktypes.blocked_positions``, which is
definitionally the zero set of ``ktypes.transition``), and computes strongly
connected components, their Hasse diagram under reachability, longest-path
layers, and reachability closures.  The components are labelled on runs of
consecutive points along the last coordinate, not on points; ``build`` gives
the run-shift lemma that makes this exact.  ``compare`` then checks the
closed-form side against this from-first-principles picture and reports the
first witness on any mismatch.

Edge direction convention: an edge A -> B between classes means B lies in the
submodule generated by A, matching the module diagrams' downward edges.

The auto window is sized from the effective barrier positions plus a margin
of 3, which guarantees every region owns interior points and no region is
split by the truncation.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from math import comb

import numpy as np

from .parameters import CaseTag, InducedRepParams, classify
from .ktypes import blocked_positions, effective_barriers
from .constituents import ConstituentLabel, enumerate_constituents, region_for
from .structure import generated_submodule, module_diagram, socle_series

__all__ = ["OracleVerdict", "TruncatedLattice", "auto_lmax", "build", "check_window", "compare"]

# Largest window build() enumerates, in points.  compare() in a fresh process
# peaks (ru_maxrss) at 83 MB for 1.56 M points and 133 MB for 3.11 M (n=8),
# and at 383 MB for 10.0 M (n=9): about 36 bytes per added point over about
# 27 MB, so a window at the budget needs about 0.9 GB.
MAX_WINDOW_POINTS = 25_000_000


def auto_lmax(params: InducedRepParams) -> int:
    """Window radius: max effective-barrier |position|/2, rounded up, plus 3."""
    # ktypes memoizes the barriers, so compare and build each calling this costs one computation
    positions = [abs(int(b.position)) for b in effective_barriers(params)]
    return (max(positions, default=0) + 1) // 2 + 3


@dataclass(frozen=True)
class TruncatedLattice:
    """Transition graph and SCC analysis of a window of the K-type lattice."""

    params: InducedRepParams
    lmax: int
    points: np.ndarray  # (P, n) int8 (wider when lmax >= 128) dominant tuples, lexicographically sorted
    comp: np.ndarray  # (P,) int32 class id per point, classes numbered by first point
    n_classes: int
    class_edges: tuple[tuple[int, int], ...]  # generation order, deduplicated
    hasse: tuple[tuple[int, int], ...]  # transitive reduction of class_edges
    layers: tuple[int, ...]  # per class: 1 + longest downward path length
    closures: tuple[frozenset[int], ...]  # per class: reachable classes incl. self
    warnings: tuple[str, ...] = field(default=())

    def class_points(self, c: int) -> np.ndarray:
        return self.points[self.comp == c]


def check_window(n: int, lmax: int) -> int:
    """Number of dominant n-tuples with entries in [-lmax, lmax].

    Raises ValueError, before anything is enumerated, when that exceeds
    ``MAX_WINDOW_POINTS``.
    """
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


def _by_value(table: np.ndarray, lmax: int) -> np.ndarray:
    """Re-lay tables over the values -lmax..lmax (last axis) so that each value indexes its entry.

    Negative values index from the end, as numpy does, so the window's
    coordinates index the table without a shifted copy of the points.
    """
    return np.concatenate((table[..., lmax:], table[..., :lmax]), axis=-1)


def _box_masks(cols: list[np.ndarray], values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per point, the bitmask of the boxes that contain it.

    Coordinate j of a point is ``values[cols[j]]``; box b holds the point when
    ``lo[b, j] <= values[cols[j]] <= hi[b, j]`` for every j.  Each coordinate
    maps every value to the bitmask of the boxes whose slab holds it, and the
    tables are ANDed across coordinates.  Returns a (ceil(B/64), P) uint64
    array; box b is bit b % 64 of word b // 64.
    """
    boxes = len(lo)
    words = np.empty(((boxes + 63) // 64, len(cols[0])), dtype=np.uint64)
    for w in range(len(words)):
        sl = slice(64 * w, min(64 * w + 64, boxes))
        bits = np.uint64(1) << np.arange(sl.stop - sl.start, dtype=np.uint64)
        for j, col in enumerate(cols):
            inside = (values[:, None] >= lo[None, sl, j]) & (values[:, None] <= hi[None, sl, j])
            table = np.bitwise_or.reduce(np.where(inside, bits, np.uint64(0)), axis=1)
            if j == 0:
                words[w] = table[col]
            else:
                words[w] &= table[col]
    return words


def _set_bits(words) -> list[int]:
    """Indices of the set bits of a sequence of 64-bit words, ascending."""
    out = []
    for w, word in enumerate(words):
        word = int(word)
        while word:
            low = word & -word
            out.append(64 * w + low.bit_length() - 1)
            word ^= low
    return out


def _movable(lam: list[np.ndarray], j: int, lmax: int, cut: Iterable[int] = ()) -> np.ndarray:
    """Mask of the points (columns ``lam``) whose +e_j move stays dominant and in the window.

    With the cut values of coordinate j as ``cut``, it masks the points whose
    pair with x + e_j is mutual: lam_j also avoids every value in ``cut``.
    """
    mask = lam[j] < lmax
    if j > 0:
        mask &= lam[j - 1] > lam[j]
    for at in cut:
        mask &= lam[j] != at
    return mask


class _RunMoves:
    """Each coordinate's moves between runs, rebuilt from the runs' last points on every pass.

    A run is a maximal stretch of consecutive window points joined by mutual
    pairs along the last coordinate.  ``lam`` holds the coordinates of each
    run's last point, ``last`` its window index, and ``run`` the run of every
    window point.  Iterating yields the mutual run pairs of each coordinate
    but the last, so no pair array outlives one step of a round.
    """

    def __init__(self, lam, steps, cuts, lmax, last, run):
        self.lam, self.steps, self.cuts, self.lmax = lam, steps, cuts, lmax
        self.last, self.run = last, run

    def partners(self, j: int, here: np.ndarray) -> np.ndarray:
        """Runs holding x + e_j for the last points x of the runs ``here``."""
        return self.run[self.last[here] + self.steps[j][self.lam[j][here]]]

    def mutual(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """The runs whose +e_j move is mutual, and the runs it reaches."""
        here = np.flatnonzero(_movable(self.lam, j, self.lmax, self.cuts[j]))
        return here, self.partners(j, here)

    def __iter__(self):
        return map(self.mutual, range(len(self.lam) - 1))


def connected_components(size: int, pairs: Iterable[tuple[np.ndarray, np.ndarray]]) -> tuple[int, np.ndarray]:
    """Connected components of the graph on 0..size-1 with an edge a[i]-b[i] per (a, b) in pairs.

    ``pairs`` is iterated once per round, so it may rebuild its arrays on
    each pass.  Shiloach-Vishkin hooking with pointer jumping (see FastSV,
    Zhang, Azad and Hu, SIAM PP 2020).  Each round sets ``root[max] = min``
    for every edge whose roots differ, then jumps pointers to a fixed point;
    the rounds stop after one that merged nothing.  Roots only move to
    smaller indices, so a component's root is its smallest index.  Returns
    the number of components and each point's int32 component, numbered by
    smallest index.
    """
    root = np.arange(size, dtype=np.int32)
    merged = True
    while merged:
        merged = False
        for a, b in pairs:
            ra, rb = root[a], root[b]
            differ = ra != rb
            merged |= bool(differ.any())
            ra, rb = ra[differ], rb[differ]
            root[np.maximum(ra, rb)] = np.minimum(ra, rb)
            del a, b, differ  # free them before the next pair is built
        while not np.array_equal(up := root[root], root):
            root = up
    is_root = root == np.arange(size, dtype=np.int32)
    return int(is_root.sum()), (np.cumsum(is_root, dtype=np.int32) - 1)[root]


def build(params: InducedRepParams, lmax: int) -> TruncatedLattice:
    """Enumerate the window, build the transition graph, and analyze it.

    Every pass over the window is O(P*n) for P points.  A tuple's index in
    the window is its rank in the combinatorial number system (Knuth, TAOCP
    4A, 7.2.1.3), so a one-step move is index arithmetic.  The classes are
    the connected components of the mutual pairs (both directions nonzero).

    They are labelled on runs, not points.  A +e_n move goes to the next
    index, so the mutual pairs along the last coordinate join runs of
    consecutive points: each run fixes lam_1..lam_{n-1} and covers an
    interval of lam_n.  Run-shift lemma: a move along a coordinate j < n
    shifts a whole run onto consecutive points of one run, and is mutual
    for every point of the run or for none.  Whether it is dominant, in the
    window and cut reads only lam_{j-1} and lam_j, which the run fixes, and
    its index step depends on lam_j alone.  The shifted points keep lam_n
    and its cuts, and lam_{n-1} only grows, so their pairs along the last
    coordinate stay mutual.  ``connected_components`` therefore reads one
    pair per run and coordinate, and the class boxes are checked per run.
    """
    if lmax < 1:
        raise ValueError(f"lmax must be >= 1, got {lmax}")
    n = params.n
    size = check_window(n, lmax)
    warnings = []
    auto = auto_lmax(params)
    if lmax < auto:
        warnings.append(f"window lmax={lmax} below auto margin {auto}; comparisons may fail")

    # The coordinates are int8 when they fit; NEP 50 keeps int8 + int in int8,
    # so they only enter comparisons and index the by-value tables below.
    pts = _window_points(n, lmax)
    P = len(pts)
    lam = [pts[:, j] for j in range(n)]
    # pascal[k][v] = C(v + lmax + k, k), at most C(2*lmax + n, n) = size, so
    # int32 holds it.  With u = lam + lmax, coordinate i adds
    # C(u_i + n-1-i, n-i) to a tuple's rank, and a +e_j move adds
    # C(u_j + n-1-j, n-1-j).
    pascal = np.ones((n + 1, 2 * lmax + 1), dtype=np.int32)
    for k in range(n):
        np.cumsum(pascal[k], out=pascal[k + 1])
    pascal = _by_value(pascal, lmax)
    rank_terms = pascal[1:] - pascal[:-1]
    rank = np.zeros(P, dtype=np.int32)
    for i in range(n):
        rank += rank_terms[n - 1 - i][lam[i]]
    # every dominant in-window move lands on an enumerated point
    if P != size or (rank != np.arange(P, dtype=np.int32)).any():
        raise AssertionError("the window misses a dominant tuple, so a move leaves the enumerated window")
    del rank

    # A pair x, x + e_j loses its up edge where 2*lam_j hits the up barrier
    # and its down edge where 2*lam_j + 2 hits the down barrier.
    up_block, down_block = blocked_positions(params)
    up_at = [b // 2 if b is not None else None for b in up_block]
    down_at = [b // 2 - 1 if b is not None else None for b in down_block]
    cuts = [{u, d} - {None} for u, d in zip(up_at, down_at)]
    steps = pascal[n - 1 :: -1]  # steps[j] = pascal[n-1-j]; steps[n-1] is all ones

    # A +e_n move goes to the next index, so the mutual pairs of the last
    # coordinate join runs of consecutive points; a run ends where its last
    # point has no mutual pair with the next one.
    ends = ~_movable(lam, n - 1, lmax, cuts[n - 1])
    last = np.flatnonzero(ends)
    run = np.cumsum(ends, dtype=np.int32)
    run -= ends
    del ends
    first = np.concatenate(([0], last[:-1] + 1))
    tail = [col[last] for col in lam]  # each run's last point
    head = lam[-1][first]  # lam_n at each run's first point
    # The run-shift lemma (see the docstring): a move along j < n shifts a
    # whole run onto one run.  The ends of every shifted run confirm it.
    for j in range(n - 1):
        here = np.flatnonzero(_movable(tail, j, lmax))
        step = steps[j][tail[j][here]]
        if (run[first[here] + step] != run[last[here] + step]).any():
            raise AssertionError("a move along a fixed coordinate splits a run")
    del first, here, step
    moves = _RunMoves(tail, steps, cuts, lmax, last, run)

    # The one-way edges sit only at the cut values, so they are few.  Every
    # point of a run moves into one run, so the run's last point stands for
    # it, and along the last coordinate only a last point has a one-way edge.
    one_src = [np.zeros(0, dtype=np.intp)]
    one_dst = [np.zeros(0, dtype=np.intp)]
    for j in range(n):
        if up_at[j] == down_at[j]:  # no barrier, or a pair cut both ways: no one-way edge
            continue
        movable = _movable(tail, j, lmax)
        if down_at[j] is not None:
            only_up = np.flatnonzero(movable & (tail[j] == down_at[j]))
            one_src.append(only_up)
            one_dst.append(moves.partners(j, only_up))
        if up_at[j] is not None:
            only_down = np.flatnonzero(movable & (tail[j] == up_at[j]))
            one_src.append(moves.partners(j, only_down))
            one_dst.append(only_down)
    # The weak components of the mutual pairs are strongly connected.  Every
    # one-way edge crosses a cut lam_j = const, always in the same direction,
    # so no cycle crosses a cut: these components are the strong components
    # of the whole graph, and the acyclicity check below confirms it.
    n_classes, run_comp = connected_components(len(last), moves)
    comp = run_comp[run]
    del moves, run, last

    # One sort of the runs by class gives each class's bounding box and
    # interior flag; a run spans lam_n from its first point to its last.
    order = np.argsort(run_comp, kind="stable")
    sizes = np.bincount(run_comp)
    starts = np.cumsum(sizes) - sizes
    lo = np.empty((n_classes, n), dtype=np.int64)
    hi = np.empty((n_classes, n), dtype=np.int64)
    for j, (low, high) in enumerate(zip([*tail[:-1], head], tail)):
        lo[:, j] = np.minimum.reduceat(low[order], starts)
        hi[:, j] = np.maximum.reduceat(high[order], starts)
    # lam_1 is fixed on a run (n >= 2) and lam_n peaks at its last point, so
    # a run has a point with lam_1 < lmax and lam_n > -lmax iff that one does.
    interior = np.logical_or.reduceat(((tail[0] < lmax) & (tail[-1] > -lmax))[order], starts)
    del order

    # Each class must be exactly its bounding box intersected with the window:
    # the structural signature of barrier-cut regions.  A run meets a box when
    # its fixed coordinates lie in it and its lam_n interval overlaps it.
    unbounded = np.full((n_classes, 1), lmax + 1, dtype=np.int64)
    inside = _box_masks(
        [*tail[:-1], head, tail[-1]],
        _by_value(np.arange(-lmax, lmax + 1), lmax),
        np.hstack((lo[:, :-1], -unbounded, lo[:, -1:])),
        np.hstack((hi, unbounded)),
    )
    crowded = np.flatnonzero(np.bitwise_count(inside).sum(axis=0) > 1)
    if len(crowded):
        stray = inside[:, crowded]
        own = run_comp[crowded]
        stray[own // 64, np.arange(len(crowded))] &= ~(np.uint64(1) << (own % 64).astype(np.uint64))
        bad = _set_bits(np.bitwise_or.reduce(stray, axis=1))
        raise AssertionError(f"SCC class {bad[0]} is not an order-convex box within the window")
    del inside, tail, head

    osrc = run_comp[np.concatenate(one_src)].astype(np.int64)
    odst = run_comp[np.concatenate(one_dst)].astype(np.int64)
    cross = osrc != odst
    pair_codes = osrc[cross] * n_classes + odst[cross]
    class_edges = tuple(
        (int(pc) // n_classes, int(pc) % n_classes) for pc in np.unique(pair_codes)
    )

    succ = {c: sorted({b for a, b in class_edges if a == c}) for c in range(n_classes)}

    def reach(start: int) -> frozenset[int]:
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in succ[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return frozenset(seen)

    closures = tuple(reach(c) for c in range(n_classes))
    for a, b in class_edges:
        if a in closures[b]:
            raise AssertionError("class generation order contains a cycle")

    hasse = tuple(
        sorted(
            (a, b)
            for a, b in class_edges
            if not any(w != b and b in closures[w] for w in succ[a])
        )
    )

    layers_arr = [0] * n_classes
    for c in sorted(range(n_classes), key=lambda c: len(closures[c])):
        layers_arr[c] = 1 + max((layers_arr[b] for b in succ[c]), default=0)

    for c in range(n_classes):
        if not interior[c]:
            warnings.append(f"class {c} owns no interior point; enlarge the window")

    pts.setflags(write=False)
    comp.setflags(write=False)
    return TruncatedLattice(
        params=params,
        lmax=lmax,
        points=pts,
        comp=comp,
        n_classes=n_classes,
        class_edges=class_edges,
        hasse=hasse,
        layers=tuple(layers_arr),
        closures=closures,
        warnings=tuple(warnings),
    )


@dataclass(frozen=True)
class OracleVerdict:
    ok: bool
    lmax: int
    case: str
    checks: tuple[tuple[str, str], ...]  # (name, "PASS" | "FAIL: ...")
    witness: str | None
    warnings: tuple[str, ...] = field(default=())

    def check(self, name: str) -> str:
        return dict(self.checks)[name]


def _fail(name: str, detail: str) -> tuple[str, str]:
    return (name, f"FAIL: {detail}")


def compare(params: InducedRepParams, lmax: int | None = None) -> OracleVerdict:
    """Closed-form structure vs brute-force lattice analysis on one window.

    Checks, in order: the region partition against the SCC classes, the
    module diagram against the class Hasse diagram, the socle layers against
    longest-path levels, and each generated submodule against the
    reachability closure.  PASS requires all four.
    """
    if lmax is None:
        lmax = auto_lmax(params)
    lattice = build(params, lmax)
    case = classify(params)
    checks: list[tuple[str, str]] = []
    witness: str | None = None

    if case is CaseTag.IRREDUCIBLE:
        if lattice.n_classes == 1:
            checks.append(("partition", "PASS"))
        else:
            checks.append(_fail("partition", f"{lattice.n_classes} classes at an irreducible point"))
            witness = f"{lattice.n_classes} strongly connected classes"
        for name in ("diagram", "socle", "generated"):
            checks.append((name, checks[0][1] if "FAIL" in checks[0][1] else "PASS"))
        ok = lattice.n_classes == 1
        return OracleVerdict(
            ok=ok,
            lmax=lmax,
            case=case.value,
            checks=tuple(checks),
            witness=witness,
            warnings=lattice.warnings,
        )

    cs = enumerate_constituents(params)
    labels = cs.labels
    pts = lattice.points
    big = np.int64(2) * lmax * 2 + 4
    lo = np.full((len(labels), params.n), -big, dtype=np.int64)
    hi = np.full((len(labels), params.n), big, dtype=np.int64)
    for a, lab in enumerate(labels):
        region = region_for(params, lab)
        for c in range(params.n):
            if region.lower[c] is not None:
                lo[a, c] = region.lower[c]
            if region.upper[c] is not None:
                hi[a, c] = region.upper[c]
    cols = [pts[:, j] for j in range(params.n)]
    member = _box_masks(cols, _by_value(2 * np.arange(-lmax, lmax + 1), lmax), lo, hi)
    counts = np.bitwise_count(member).sum(axis=0)

    def point_str(idx: int) -> str:
        return "lambda=(" + ",".join(str(int(x)) for x in pts[idx]) + ")"

    if (counts != 1).any():
        bad = int(np.nonzero(counts != 1)[0][0])
        witness = f"{point_str(bad)} lies in {int(counts[bad])} regions"
        checks.append(_fail("partition", witness))
        label_for_class = None
    else:
        label_for_class = {}
        partition_ok = True
        if lattice.n_classes != len(labels):
            witness = (
                f"{lattice.n_classes} lattice classes vs {len(labels)} closed-form constituents"
            )
            checks.append(_fail("partition", witness))
            partition_ok = False
        else:
            # regions met by each class: OR of its points' single-bit masks
            class_regions = np.zeros((len(member), lattice.n_classes), dtype=np.uint64)
            for word, acc in zip(member, class_regions):
                np.bitwise_or.at(acc, lattice.comp, word)
            for c in range(lattice.n_classes):
                ids = _set_bits(class_regions[:, c])
                if len(ids) != 1:
                    bad = int(np.nonzero(lattice.comp == c)[0][0])
                    witness = f"class of {point_str(bad)} spans regions " + ", ".join(
                        str(labels[i]) for i in ids
                    )
                    checks.append(_fail("partition", witness))
                    partition_ok = False
                    break
                label_for_class[c] = labels[ids[0]]
            if partition_ok and len(set(label_for_class.values())) != len(labels):
                witness = "two lattice classes map to one region"
                checks.append(_fail("partition", witness))
                partition_ok = False
        if partition_ok:
            checks.append(("partition", "PASS"))
        else:
            label_for_class = None

    if label_for_class is None:
        for name in ("diagram", "socle", "generated"):
            checks.append(_fail(name, "skipped: partition comparison failed"))
        return OracleVerdict(
            ok=False,
            lmax=lmax,
            case=case.value,
            checks=tuple(checks),
            witness=witness,
            warnings=lattice.warnings,
        )

    diagram = module_diagram(params)
    oracle_edges = {
        (label_for_class[a], label_for_class[b]) for a, b in lattice.hasse
    }
    formula_edges = set(diagram.edges)
    if oracle_edges != formula_edges:
        diff = sorted(
            f"{u}->{v}" for u, v in oracle_edges.symmetric_difference(formula_edges)
        )
        detail = f"edge mismatch: {diff[:4]}"
        checks.append(_fail("diagram", detail))
        witness = witness or detail
    else:
        checks.append(("diagram", "PASS"))

    socle = socle_series(params)
    oracle_layers: dict[int, set[ConstituentLabel]] = {}
    for c in range(lattice.n_classes):
        oracle_layers.setdefault(lattice.layers[c], set()).add(label_for_class[c])
    formula_layers = {idx: set(layer) for idx, layer in enumerate(socle.layers, start=1)}
    if oracle_layers != formula_layers:
        detail = (
            "socle mismatch: oracle "
            + str({k: sorted(map(str, v)) for k, v in sorted(oracle_layers.items())})
            + " vs formula "
            + str({k: sorted(map(str, v)) for k, v in sorted(formula_layers.items())})
        )
        checks.append(_fail("socle", detail))
        witness = witness or detail
    else:
        checks.append(("socle", "PASS"))

    class_for_label = {lab: c for c, lab in label_for_class.items()}
    gen_ok = True
    for lab in labels:
        closure_labels = {label_for_class[c] for c in lattice.closures[class_for_label[lab]]}
        formula_members = set(generated_submodule(params, lab).members)
        if closure_labels != formula_members:
            detail = (
                f"generated submodule of {lab}: oracle {sorted(map(str, closure_labels))}"
                f" vs formula {sorted(map(str, formula_members))}"
            )
            checks.append(_fail("generated", detail))
            witness = witness or detail
            gen_ok = False
            break
    if gen_ok:
        checks.append(("generated", "PASS"))

    ok = all(status == "PASS" for _, status in checks)
    return OracleVerdict(
        ok=ok,
        lmax=lmax,
        case=case.value,
        checks=tuple(checks),
        witness=witness,
        warnings=lattice.warnings,
    )
