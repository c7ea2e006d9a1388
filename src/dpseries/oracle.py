"""Brute-force verifier on a truncated K-type lattice.

This module knows nothing about the closed-form region/diagram/socle
formulas.  It enumerates every dominant tuple with entries in [-lmax, lmax],
draws a directed edge for each one-step move with a nonzero transition
coefficient (the zero locus comes from ``ktypes.blocked_positions``, which is
definitionally the zero set of ``ktypes.transition``), and computes strongly
connected components, their Hasse diagram under reachability, longest-path
layers, and reachability closures.  ``compare`` then checks the closed-form
side against this from-first-principles picture and reports the first
witness on any mismatch.

Edge direction convention: an edge A -> B between classes means B lies in the
submodule generated by A, matching the module diagrams' downward edges.

The auto window is sized from the effective barrier positions plus a margin
of 3, which guarantees every region owns interior points and no region is
split by the truncation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .parameters import CaseTag, InducedRepParams, classify
from .ktypes import blocked_positions, effective_barriers
from .constituents import ConstituentLabel, enumerate_constituents, region_for
from .structure import generated_submodule, module_diagram, socle_series

__all__ = ["OracleVerdict", "TruncatedLattice", "auto_lmax", "build", "compare"]


def auto_lmax(params: InducedRepParams) -> int:
    """Window radius: max effective-barrier |position|/2, rounded up, plus 3."""
    positions = [abs(int(b.position)) for b in effective_barriers(params)]
    return (max(positions, default=0) + 1) // 2 + 3


@dataclass(frozen=True)
class TruncatedLattice:
    """Transition graph and SCC analysis of a window of the K-type lattice."""

    params: InducedRepParams
    lmax: int
    points: np.ndarray  # (P, n) dominant tuples, lexicographically sorted
    comp: np.ndarray  # (P,) class id per point, classes numbered by first point
    n_classes: int
    class_edges: tuple[tuple[int, int], ...]  # generation order, deduplicated
    hasse: tuple[tuple[int, int], ...]  # transitive reduction of class_edges
    layers: tuple[int, ...]  # per class: 1 + longest downward path length
    closures: tuple[frozenset[int], ...]  # per class: reachable classes incl. self
    warnings: tuple[str, ...] = field(default=())

    def class_points(self, c: int) -> np.ndarray:
        return self.points[self.comp == c]


def _window_points(n: int, lmax: int) -> np.ndarray:
    vals = range(lmax, -lmax - 1, -1)
    pts = np.array(list(itertools.combinations_with_replacement(vals, n)), dtype=np.int64)
    return pts


def _verify_boxes(pts: np.ndarray, comp: np.ndarray, n_classes: int) -> None:
    # Each class must be exactly its bounding box intersected with the window:
    # the structural signature of barrier-cut regions.
    for c in range(n_classes):
        mask = comp == c
        cls = pts[mask]
        lo = cls.min(axis=0)
        hi = cls.max(axis=0)
        in_box = ((pts >= lo) & (pts <= hi)).all(axis=1)
        if in_box.sum() != mask.sum():
            raise AssertionError(
                f"SCC class {c} is not an order-convex box within the window"
            )


def build(params: InducedRepParams, lmax: int) -> TruncatedLattice:
    """Enumerate the window, build the transition graph, and analyze it."""
    if lmax < 1:
        raise ValueError(f"lmax must be >= 1, got {lmax}")
    warnings = []
    auto = auto_lmax(params)
    if lmax < auto:
        warnings.append(f"window lmax={lmax} below auto margin {auto}; comparisons may fail")

    n = params.n
    pts = _window_points(n, lmax)
    P = len(pts)
    base = 2 * lmax + 1
    powers = base ** np.arange(n - 1, -1, -1, dtype=np.int64)
    codes = (pts + lmax) @ powers
    order = np.argsort(codes)
    pts = pts[order]
    codes = codes[order]

    up_block, down_block = blocked_positions(params)
    srcs: list[np.ndarray] = []
    dsts: list[np.ndarray] = []
    one_src: list[np.ndarray] = []
    one_dst: list[np.ndarray] = []
    for j in range(n):
        pair_ok = pts[:, j] < lmax
        if j > 0:
            pair_ok &= pts[:, j - 1] >= pts[:, j] + 1
        idx = np.nonzero(pair_ok)[0]
        tgt = np.searchsorted(codes, codes[idx] + powers[j])
        # every dominant in-window move lands on an enumerated point
        if len(idx) and not (tgt.max() < P and (codes[tgt] == codes[idx] + powers[j]).all()):
            raise AssertionError(f"a coordinate-{j + 1} move leaves the enumerated window")
        two_lam = 2 * pts[idx, j]
        up_ok = np.ones(len(idx), dtype=bool)
        if up_block[j] is not None:
            up_ok = two_lam != up_block[j]
        down_ok = np.ones(len(idx), dtype=bool)
        if down_block[j] is not None:
            down_ok = (two_lam + 2) != down_block[j]
        mutual = up_ok & down_ok
        srcs.extend((idx[mutual], tgt[mutual]))
        dsts.extend((tgt[mutual], idx[mutual]))
        only_up = up_ok & ~down_ok
        one_src.append(idx[only_up])
        one_dst.append(tgt[only_up])
        only_down = down_ok & ~up_ok
        one_src.append(tgt[only_down])
        one_dst.append(idx[only_down])

    all_src = np.concatenate(srcs + one_src) if srcs or one_src else np.zeros(0, dtype=np.int64)
    all_dst = np.concatenate(dsts + one_dst) if dsts or one_dst else np.zeros(0, dtype=np.int64)
    graph = coo_matrix(
        (np.ones(len(all_src), dtype=np.int8), (all_src, all_dst)), shape=(P, P)
    )
    n_raw, raw_comp = connected_components(graph, directed=True, connection="strong")

    # Renumber classes by first (lexicographically smallest) member point.
    _, first_idx = np.unique(raw_comp, return_index=True)
    perm = np.argsort(first_idx, kind="stable")
    relabel = np.empty(n_raw, dtype=np.int64)
    relabel[perm] = np.arange(n_raw)
    comp = relabel[raw_comp]
    n_classes = n_raw

    _verify_boxes(pts, comp, n_classes)

    osrc = np.concatenate(one_src) if one_src else np.zeros(0, dtype=np.int64)
    odst = np.concatenate(one_dst) if one_dst else np.zeros(0, dtype=np.int64)
    cross = comp[osrc] != comp[odst]
    pair_codes = comp[osrc[cross]] * n_classes + comp[odst[cross]]
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

    interior = np.abs(pts).max(axis=1) < lmax
    for c in range(n_classes):
        if not interior[comp == c].any():
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
    doubled = 2 * pts
    member = (doubled[:, None, :] >= lo[None, :, :]).all(axis=2)
    member &= (doubled[:, None, :] <= hi[None, :, :]).all(axis=2)
    counts = member.sum(axis=1)

    def point_str(idx: int) -> str:
        return "lambda=(" + ",".join(str(int(x)) for x in pts[idx]) + ")"

    if (counts != 1).any():
        bad = int(np.nonzero(counts != 1)[0][0])
        witness = f"{point_str(bad)} lies in {int(counts[bad])} regions"
        checks.append(_fail("partition", witness))
        label_for_class = None
    else:
        label_ids = member.argmax(axis=1)
        label_for_class = {}
        partition_ok = True
        if lattice.n_classes != len(labels):
            witness = (
                f"{lattice.n_classes} lattice classes vs {len(labels)} closed-form constituents"
            )
            checks.append(_fail("partition", witness))
            partition_ok = False
        else:
            for c in range(lattice.n_classes):
                ids = np.unique(label_ids[lattice.comp == c])
                if len(ids) != 1:
                    bad = int(np.nonzero(lattice.comp == c)[0][0])
                    witness = f"class of {point_str(bad)} spans regions " + ", ".join(
                        str(labels[i]) for i in ids
                    )
                    checks.append(_fail("partition", witness))
                    partition_ok = False
                    break
                label_for_class[c] = labels[int(ids[0])]
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
