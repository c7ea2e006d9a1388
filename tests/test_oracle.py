import ast
import importlib.util
import inspect
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

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
from dpseries.ktypes import blocked_positions, dominant_extremes

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
    second = [{lam[1] for lam, c in zip(lattice.points, lattice.comp) if c == here} for here in range(3)]
    assert second[sink] == {0}
    # the other two classes are lambda_2 >= 1 and lambda_2 <= -1
    assert sorted((min(values), max(values)) for c, values in enumerate(second) if c != sink) == [(-4, -1), (1, 4)]


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
    assert a.comp == b.comp
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


@pytest.fixture(scope="module")
def listed():
    """listed(params, lmax): the window's build, less its points and comp, and its bit sets (``_window_sets``).

    Each window is listed once for all the tests of this module that read it,
    since a build costs 3-7 us a point; at the largest auto window of rank 5
    (53,130 points) the bit sets take 0.66 MB, and the points and comp 5.1 MB.
    """
    kept = {}

    def listed(params, lmax):
        if (params, lmax) not in kept:
            lattice = build(params, lmax)
            kept[params, lmax] = lattice._replace(points=(), comp=()), _window_sets(lattice)
        return kept[params, lmax]

    return listed


def _small_grid(listed, lmaxes):
    """(params, lmax, lattice, sets) over n 2..5, alpha 0..3, sigma_tilde -8..n+9 and the given windows (None: auto)."""
    for n in range(2, 6):
        for alpha in range(4):
            for st_val in range(-8, n + 10):
                params = params_from_sigma_tilde(n, alpha, st_val)
                for lmax in lmaxes:
                    lmax = lmax or auto_lmax(params)
                    yield params, lmax, *listed(params, lmax)


def _window_sets(lattice):
    """The window's points as bit sets, bit x for ``lattice.points[x]``: per (coordinate, value), and per class."""

    def sets(column, values):  # per value, the points whose byte in column is it
        digits = column[::-1]  # bit x is the x-th binary digit from the right
        return [int(digits.translate(b"0" * v + b"1" + b"0" * (255 - v)), 2) for v in values]

    lmax, points, values = lattice.lmax, lattice.points, range(2 * lattice.lmax + 1)
    by_value = {}
    for c in range(lattice.params.n):
        for v, held in zip(values, sets(bytes(lam[c] + lmax for lam in points), values)):
            by_value[c, v - lmax] = held
    return by_value, sets(bytes(lattice.comp), range(lattice.n_classes))


def _points_between(by_value, least, greatest):
    """The bit set of the window's points x with least <= x <= greatest, coordinate by coordinate."""
    inside = -1
    for c, (lo, hi) in enumerate(zip(least, greatest)):
        inside &= sum(by_value.get((c, v), 0) for v in range(lo, hi + 1))
    return inside


def test_classes_are_boxes(listed):
    # cells reads each class as its box cut to the window; here it is checked
    # point by point: the points of each class's box are that class
    for params, lmax, lattice, (by_value, by_class) in _small_grid(listed, (2, None)):
        for c, box in enumerate(lattice.class_boxes):
            assert _points_between(by_value, *box) == by_class[c], (params, lmax, c)


def _partition_by_points(lattice, sets, labels, regions):
    """``oracle._partition``'s result, read point by point from the window's bit sets ``sets`` (``_window_sets``)."""
    (by_value, by_class), lmax = sets, lattice.lmax
    inside = []
    for region in regions:  # 2*lam >= b iff lam >= ceil(b/2)
        least = [-lmax if b is None else max(-lmax, -(-b // 2)) for b in region.lower]
        greatest = [lmax if b is None else min(lmax, b // 2) for b in region.upper]
        inside.append(_points_between(by_value, least, greatest))
    once = twice = 0
    for held in inside:
        twice |= once & held
        once |= held
    # the point of bit x has, at each coordinate, the one value whose set holds x
    lam = lambda x: "lambda=(" + ",".join(str(v) for (_, v), held in by_value.items() if held >> x & 1) + ")"
    first = lambda bits: (bits & -bits).bit_length() - 1
    bad = (sum(by_class) ^ once) | twice  # in no region, or in two or more
    if bad:
        return f"{lam(first(bad))} lies in {sum(held >> first(bad) & 1 for held in inside)} regions"
    if lattice.n_classes != len(labels):
        return f"{lattice.n_classes} lattice classes vs {len(labels)} closed-form constituents"
    label_for_class = []
    for own in by_class:
        met = [lab for lab, held in zip(labels, inside) if held & own]
        if len(met) != 1:
            return f"class of {lam(first(own))} spans regions " + ", ".join(map(str, met))
        label_for_class += met
    if len(set(label_for_class)) != len(labels):
        return "two lattice classes map to one region"
    return label_for_class


def test_partition_matches_a_point_by_point_reference(listed):
    failures = {}
    for params, lmax, lattice, sets in _small_grid(listed, (1, 2, 4, None)):
        labels = dpseries.enumerate_constituents(params).labels
        result = oracle._partition(params, oracle.cells(params, lmax), labels)
        regions = [dpseries.region_for(params, lab) for lab in labels]
        expected = _partition_by_points(lattice, sets, labels, regions)
        assert result == expected, (params, lmax)
        if isinstance(result, str):
            kind = "count" if result.endswith("closed-form constituents") else result
            failures[kind] = failures.get(kind, 0) + 1
    assert failures == {"count": 724}


def test_partition_matches_the_reference_on_random_regions(monkeypatch):
    # Each region is the true one with some bounds moved or dropped, so the
    # trials reach every failure and its witness in window order.
    rng = random.Random(21)
    lattices = {}
    kinds = set()
    for _ in range(3000):
        n, alpha, lmax = rng.randrange(2, 5), rng.randrange(4), rng.randrange(1, 4)
        params = params_from_sigma_tilde(n, alpha, rng.randrange(-4, n + 6))
        if (params, lmax) not in lattices:
            lattice = build(params, lmax)
            lattices[params, lmax] = lattice, _window_sets(lattice), oracle.cells(params, lmax)
        lattice, sets, graph = lattices[params, lmax]
        labels = dpseries.enumerate_constituents(params).labels
        regions = []
        for lab in labels:
            bounds = [list(getattr(dpseries.region_for(params, lab), side)) for side in ("lower", "upper")]
            for _ in range(rng.randrange(1, 3)) if rng.random() < 1 / 3 else ():
                side, c = bounds[rng.randrange(2)], rng.randrange(n)
                side[c] = None if rng.random() < 0.3 else 2 * rng.randrange(-lmax - 1, lmax + 2)
            regions.append(Region(n, *map(tuple, bounds)))
        fake = dict(zip(labels, regions))
        monkeypatch.setattr(oracle, "region_for", lambda params, lab: fake[lab])
        result = oracle._partition(params, graph, labels)
        assert result == _partition_by_points(lattice, sets, labels, regions), (params, lmax, regions)
        if isinstance(result, list):
            kinds.add("pass")
        else:
            kinds.add(result.split(" lies in ")[-1] if " lies in " in result else result.split(" ")[-1])
    # a point in none, two or three regions; the class count; two classes in one region
    assert {"pass", "0 regions", "2 regions", "3 regions", "constituents", "region"} <= kinds


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


def test_partition_matches_the_point_by_point_reference_under_region_faults(monkeypatch):
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
                    graph, lattice = oracle.cells(params, lmax), build(params, lmax)
                    sets = _window_sets(lattice)
                    for lab in labels:
                        for kind, region in _region_faults(dpseries.region_for(params, lab), lmax):
                            fake.clear()
                            fake[lab] = region
                            result = oracle._partition(params, graph, labels)
                            regions = [oracle.region_for(params, label) for label in labels]
                            assert result == _partition_by_points(lattice, sets, labels, regions), (params, lmax, region)
                            if isinstance(result, list):
                                seen = "pass"
                            else:
                                seen = result.split(" lies in ")[1] if " lies in " in result else result.split()[-1]
                            outcomes.setdefault(kind, set()).add(seen)
    assert outcomes.keys() == {"none", "past", "beyond", "overlap", "gap", "crossed"}
    assert all(seen - {"pass"} for seen in outcomes.values())  # every kind of fault is caught somewhere
    assert set.union(*outcomes.values()) == {"pass", "0 regions", "2 regions", "constituents"}


def test_interior_warning_names_the_classes_with_no_interior_point(listed):
    # an interior point has lam_1 < lmax and lam_n > -lmax
    warned = 0
    for params, lmax, lattice, (by_value, by_class) in _small_grid(listed, (1, 2)):
        rim = by_value[0, lmax] | by_value[params.n - 1, -lmax]
        bare = {c for c, own in enumerate(by_class) if not own & ~rim}
        said = {int(w.split()[1]) for w in lattice.warnings if w.endswith("owns no interior point; enlarge the window")}
        assert said == bare, (params, lmax)
        warned += bool(said)
    assert warned == 266


def test_window_points_match_itertools_enumeration():
    for n in range(2, 5):
        for lmax in range(1, 5):
            lattice = build(params_from_sigma_tilde(n, 1, -2), lmax)
            assert lattice.points == tuple(sorted(dominant_window(n, lmax))), (n, lmax)
            assert len(lattice.comp) == len(lattice.points) == window.check_window(n, lmax)


def test_compare_passes_without_enumerating_the_window(monkeypatch):
    asked = []
    enumerate_window = window.combinations_with_replacement

    def recorded(values, n):
        asked.append(n)
        return enumerate_window(values, n)

    monkeypatch.setattr(window, "combinations_with_replacement", recorded)
    params = params_from_sigma_tilde(4, 1, -3)
    verdict = compare(params)
    assert verdict.ok and verdict.case != "Irreducible"
    assert asked == []
    # the window reference lists the window once
    assert build(params, verdict.lmax).n_classes > 1
    assert asked == [4]


def test_compare_matches_sweep_row():
    verdict = compare(params_from_sigma_tilde(3, 3, -4))
    assert verdict.ok
    assert dict(verdict.checks) == {
        "partition": "PASS",
        "diagram": "PASS",
        "socle": "PASS",
        "generated": "PASS",
    }


SIGMA_TILDES = [Fraction(s) for s in range(-6, 7)] + [Fraction(-7, 2), Fraction(1, 2), Fraction(5, 2)]


CLASS_GRAPH = ("n_classes", "class_boxes", "class_edges", "hasse", "layers", "closures", "warnings")


def _cells_against_the_window(lattice):
    params, lmax = lattice.params, lattice.lmax
    graph = oracle.cells(params, lmax)
    for field in CLASS_GRAPH:
        assert getattr(graph, field) == getattr(lattice, field), (params, lmax, field)
    assert graph.lmax == lmax


# The windows of rank 6 that the tests list: up to 3,003 points, where the
# auto windows reach 230,230.
N6_LMAXES = (1, 2, 3, 4)


def test_cells_equal_the_window(listed):
    # every field, at the auto window and at windows below its margin, where
    # the cuts fall on the window's edge and the interior warnings appear
    pairs = set()
    for n in range(2, 7):
        for alpha in range(4):
            for sigma_tilde in SIGMA_TILDES:
                params = params_from_sigma_tilde(n, alpha, sigma_tilde)
                pairs.update((params, lmax) for lmax in (N6_LMAXES if n == 6 else (auto_lmax(params), 1, 2, 3)))
    assert len(pairs) == 1228
    for params, lmax in pairs:
        _cells_against_the_window(listed(params, lmax)[0])


@settings(deadline=None)
@given(
    st.integers(2, 6),
    st.integers(0, 3),
    st.integers(-16, 20).map(lambda twice: Fraction(twice, 2)),
    st.integers(1, 1 << 10),
)
def test_cells_equal_the_window_on_random_points(n, alpha, sigma_tilde, pick):
    params = params_from_sigma_tilde(n, alpha, sigma_tilde)
    top = N6_LMAXES[-1] if n == 6 else auto_lmax(params) + 2
    _cells_against_the_window(build(params, 1 + pick % top))  # lmax 1 .. auto + 2, or 1 .. 4 at n = 6


LARGE_POINTS = [params_from_sigma_tilde(7, alpha, -6) for alpha in range(4)]  # perfbench's oracle_large
DEFAULT_SWEEP = [params_from_sigma_tilde(n, a, st) for n in range(2, 6) for a in range(4) for st in range(-6, 7)]


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

    for name in ("build", "connected_components"):
        monkeypatch.setattr(window, name, refuse)
    assert run(["verify"]) == 0
    golden = (Path(__file__).parent / "golden" / "verify_default.jsonl").read_bytes()
    assert capsys.readouterr().out.encode() == golden


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
    def enumerate_nothing(values, n):
        raise AssertionError("the window was enumerated")

    monkeypatch.setattr(window, "combinations_with_replacement", enumerate_nothing)
    with pytest.raises(ValueError, match="exceeds the oracle's budget"):
        build(params_from_sigma_tilde(12, 0, -6), 20)
    assert window.check_window(8, 8) == 735471
    with pytest.raises(ValueError, match="budget of 1500000 points"):
        window.check_window(8, 9)  # 1,562,275 points
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
    monkeypatch.setattr(window, "blocked_positions", counted)
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


def _fresh_interpreter(code, *args):
    """The last line ``code`` prints, run by a fresh interpreter with this package on its path."""
    env = {**os.environ, "PYTHONPATH": str(Path(dpseries.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_cli_imports_no_third_party_module(monkeypatch):
    # every command answers with the standard library alone, and none loads
    # the window reference.  The commands are the benchmark's cold CLI mix,
    # one of each kind.
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
        "print(set(codes), sorted(loaded), 'dpseries.window' in sys.modules)\n"
    )
    assert _fresh_interpreter(code, json.dumps(mix)) == "{0} ['dpseries'] False"


def test_a_first_build_loads_the_window_module_and_no_third_party_module():
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
    assert _fresh_interpreter(code) == "5 ['dpseries.window'] ['dpseries']"
    # nor does any source or test file import a third-party module beyond the test tools
    root = Path(__file__).parents[1]
    for path in [*(root / "src").rglob("*.py"), *(root / "tests").rglob("*.py")]:
        imported = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.split(".")[0])
        allowed = {"dpseries"} if path.is_relative_to(root / "src") else {"dpseries", "conftest", "pytest", "hypothesis"}
        assert imported - sys.stdlib_module_names <= allowed, path


def test_the_window_reference_is_resolved_through_the_oracle_and_the_package():
    # the names the benchmark's tracer and the library look up, bound to the
    # window module's objects; other names still fail with the module's name
    assert oracle.build is dpseries.build is window.build
    assert oracle.connected_components is window.connected_components
    assert dpseries.TruncatedLattice is oracle.TruncatedLattice is window.TruncatedLattice
    for module in (oracle, dpseries):
        with pytest.raises(AttributeError, match=f"module '{module.__name__}' has no attribute 'no_such_name'"):
            module.no_such_name
    assert not hasattr(oracle, "check_window")


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
                here, there = oracle.cells(params, lmax), oracle.cells(dual, lmax)
                assert here.class_boxes == there.class_boxes, (params, lmax)
                assert {(b, a) for a, b in here.class_edges} == set(there.class_edges), (params, lmax)
                assert {(b, a) for a, b in here.hasse} == set(there.hasse), (params, lmax)
                pairs += 1
    assert pairs == 200
