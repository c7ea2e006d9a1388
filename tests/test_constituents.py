import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dpseries import (
    ConstituentLabel,
    InducedRepParams,
    Region,
    classify,
    derived,
    enumerate_constituents,
    is_empty,
    label_of,
    parse_label,
    region_for,
)
from dpseries.constituents import _chains, _point, _theorem_range, _window_size

from conftest import dominant_window, params_from_sigma_tilde


P_SW = InducedRepParams(2, 0, Fraction(1, 2))  # Case 2b
P_1A = InducedRepParams(2, 1, Fraction(-1))  # Case 1a
P_TRIV = InducedRepParams(2, 0, Fraction(-3, 2))  # Case 2b, trivial rep point


def members(params, label, radius=6):
    region = region_for(params, label)
    return {lam for lam in dominant_window(params.n, radius) if region.contains(lam)}


def test_region_case1a_single_wall():
    assert members(P_1A, ConstituentLabel("R", 0, 0)) == {
        lam for lam in dominant_window(2, 6) if lam[1] == 0
    }


def test_region_siegel_weil_lowest_ktype():
    # L(1,1) is exactly {lambda_2 >= 1}; its smallest member is (1,1).
    assert members(P_SW, ConstituentLabel("L", 1, 1)) == {
        lam for lam in dominant_window(2, 6) if lam[1] >= 1
    }
    assert region_for(P_SW, ConstituentLabel("L", 1, 1)).contains((1, 1))


def test_region_trivial_representation():
    region = region_for(P_TRIV, ConstituentLabel("L", 0, 1))
    assert region.single_point() == (0, 0)
    assert members(P_TRIV, ConstituentLabel("L", 0, 1)) == {(0, 0)}


def test_region_undefined_label():
    with pytest.raises(ValueError, match="label undefined here"):
        region_for(P_SW, ConstituentLabel("R", 0, 0))  # wrong family
    with pytest.raises(ValueError, match="label undefined here"):
        region_for(P_SW, ConstituentLabel("L", 2, 0))  # outside S(n)
    with pytest.raises(ValueError, match="reducible"):
        region_for(InducedRepParams(2, 0, Fraction(0)), ConstituentLabel("L", 0, 0))


def test_label_of_worked_points():
    assert label_of(P_1A, (3, 1)) == ConstituentLabel("R", 1, 0)
    assert label_of(P_SW, (2, 0)) == ConstituentLabel("L", 1, 0)
    assert label_of(P_SW, (-1, -1)) == ConstituentLabel("L", 0, 0)


def test_label_of_reads_the_chains_not_the_regions(monkeypatch):
    from dpseries import constituents

    def refuse(*args):
        raise AssertionError("a region was built")

    monkeypatch.setattr(constituents, "region_for", refuse)
    monkeypatch.setattr(constituents, "_build_region", refuse)
    assert label_of(P_1A, (3, 1)) == ConstituentLabel("R", 1, 0)
    assert label_of(P_SW, (-1, -1)) == ConstituentLabel("L", 0, 0)


def test_label_of_matches_a_region_scan():
    rng = random.Random(23)
    for n in range(2, 8):
        for alpha in range(4):
            for st_val in range(-8, n + 11):
                params = params_from_sigma_tilde(n, alpha, st_val)
                labels = enumerate_constituents(params).labels
                for _ in range(8):
                    lam = tuple(sorted((rng.randint(-9, 9) for _ in range(n)), reverse=True))
                    hits = [lab for lab in labels if region_for(params, lab).contains(lam)]
                    assert [label_of(params, lam)] == hits, (params, lam)


def test_is_empty_worked_points():
    assert is_empty(P_SW, ConstituentLabel("L", 0, 1))
    # Case 2a: diagonal always nonempty, (j+1, j) always nonempty
    p = InducedRepParams(2, 2, Fraction(-3, 2))
    assert not is_empty(p, ConstituentLabel("L", 0, 0))
    assert not is_empty(p, ConstituentLabel("L", 1, 0))
    assert is_empty(p, ConstituentLabel("L", 0, 1))  # i-j = -1 < -sigma + 1/2 fails


def test_enumerate_worked_points():
    cs = enumerate_constituents(P_SW)
    assert [str(x) for x in cs.labels] == ["L(0,0)", "L(1,0)", "L(1,1)"]
    assert cs.index_bound == ("r2", 1)

    cs = enumerate_constituents(P_1A)
    assert [str(x) for x in cs.labels] == ["R(0,0)", "R(0,1)", "R(1,0)"]
    assert cs.index_bound == ("r1", 0)

    cs = enumerate_constituents(InducedRepParams(2, 1, Fraction(0)))
    assert [str(x) for x in cs.labels] == ["R(0,1)", "R(1,0)"]
    assert cs.index_bound is None
    assert all(lab.i + lab.j == 1 for lab in cs.labels)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("alpha", [0, 1, 2, 3])
@pytest.mark.parametrize("st_val", [-4, -1, 0, 1, 2, 5])
def test_partition(n, alpha, st_val):
    params = params_from_sigma_tilde(n, alpha, st_val)
    regions = [region_for(params, lab) for lab in enumerate_constituents(params).labels]
    for lam in dominant_window(n, 5):
        assert sum(r.contains(lam) for r in regions) == 1


def test_labels_outside_window_are_empty():
    # The theorem's level window is exactly the nonempty part of the grid.
    for n in (2, 3, 4):
        for alpha in range(4):
            for st_val in range(-5, 6):
                params = params_from_sigma_tilde(n, alpha, st_val)
                cs = enumerate_constituents(params)
                in_window = set(cs.labels)
                family = cs.case.family
                if family == "R":
                    from dpseries import derived

                    k = derived(params).k
                    grid = [
                        ConstituentLabel("R", i, j)
                        for i in range(k + 1)
                        for j in range(k + 1 - i)
                    ]
                else:
                    from dpseries import derived

                    d = derived(params)
                    grid = [
                        ConstituentLabel("L", i, j)
                        for i in range((d.n1 + 1) // 2 + 1)
                        for j in range(d.n0 // 2 + 1)
                    ]
                for lab in grid:
                    assert (lab in in_window) == (not is_empty(params, lab))


def test_order_convexity():
    # if lam and lam'' lie in a region, so does anything between them coordinate-wise
    for params in (P_SW, P_1A, InducedRepParams(3, 2, Fraction(-2))):
        for lab in enumerate_constituents(params).labels:
            pts = sorted(members(params, lab, radius=4))
            if len(pts) < 2:
                continue
            lo = tuple(map(min, zip(*pts)))
            hi = tuple(map(max, zip(*pts)))
            for lam in dominant_window(params.n, 4):
                if all(a <= x <= b for a, x, b in zip(lo, lam, hi)):
                    assert region_for(params, lab).contains(lam)


def test_region_json_round_trip():
    for lab in enumerate_constituents(P_SW).labels:
        region = region_for(P_SW, lab)
        assert Region.from_json(region.to_json()) == region
    data = region_for(P_SW, ConstituentLabel("L", 1, 0)).to_json()
    assert data[0]["coord"] == 1
    assert data[0]["lo"] == 0 and data[0]["hi"] == "+inf"
    assert data[1]["lo"] == "-inf" and data[1]["hi"] == 0


def test_label_parse_and_str():
    lab = ConstituentLabel("L", 0, 1)
    assert str(lab) == "L(0,1)"
    assert parse_label("L(0,1)") == lab
    with pytest.raises(ValueError):
        parse_label("X(0,1)")
    with pytest.raises(ValueError):
        parse_label("L(0)")


def test_label_semantics():
    lab = ConstituentLabel("R", 1, 0)
    assert str(lab) == "R(1,0)"
    assert repr(lab) == "ConstituentLabel(family='R', i=1, j=0)"
    assert (lab.family, lab.i, lab.j) == ("R", 1, 0)
    assert ConstituentLabel(family="R", i=1, j=0) == lab
    # a tuple of its fields: hashed, compared and ordered as one
    assert hash(lab) == hash(("R", 1, 0))
    assert lab == ("R", 1, 0)
    labels = [ConstituentLabel(*t) for t in (("R", 1, 0), ("L", 2, 0), ("R", 0, 3), ("L", 0, 1))]
    assert [str(x) for x in sorted(labels)] == ["L(0,1)", "L(2,0)", "R(0,3)", "R(1,0)"]
    assert ConstituentLabel("L", 0, 1) < ConstituentLabel("L", 0, 2) < ConstituentLabel("L", 1, 0)
    with pytest.raises(ValueError, match="family must be 'R' or 'L', got 'X'"):
        ConstituentLabel("X", 0, 0)
    for i, j in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError, match=rf"label indices must be >= 0, got \({i},{j}\)"):
            ConstituentLabel("L", i, j)
    with pytest.raises(ValueError, match="label indices"):
        lab._replace(i=-1)
    assert lab._replace(j=2) == ConstituentLabel("R", 1, 2)
    copy = pickle.loads(pickle.dumps(lab))
    assert copy == lab and type(copy) is ConstituentLabel


def test_point_structure_is_built_once(monkeypatch):
    from dpseries import (
        constituent_unitarizable,
        constituents,
        generated_submodule,
        module_diagram,
        omega_image,
        possible_embeddings,
        socle_series,
    )
    from dpseries.constituents import _point

    windows = []  # one theorem window per record built
    theorem_range = constituents._theorem_range

    def counted(*args):
        windows.append(args)
        return theorem_range(*args)

    monkeypatch.setattr(constituents, "_theorem_range", counted)
    assert _point.cache_info().maxsize is not None
    _point.cache_clear()
    params = params_from_sigma_tilde(9, 2, 4)
    labels = enumerate_constituents(params).labels
    for lab in labels:
        region_for(params, lab)
        assert not is_empty(params, lab)
        generated_submodule(params, lab)
        constituent_unitarizable(params, lab)
    module_diagram(params)
    socle_series(params)
    label_of(params, (0,) * 9)
    assert possible_embeddings(params)
    for p, q in possible_embeddings(params):
        omega_image(p, q, params.n)
    info = _point.cache_info()
    assert (info.misses, info.currsize, len(windows)) == (1, 1, 1)


def test_one_label_views_list_no_window(monkeypatch, capsys):
    # region_for, and so the single-shape omega, reads the point's integers
    # alone; the window holds about n**2/8 labels
    from dpseries import constituents
    from dpseries.cli import run

    def refuse(*args):
        raise AssertionError("the theorem window was listed")

    monkeypatch.setattr(constituents, "_theorem_range", refuse)
    _point.cache_clear()
    params = params_from_sigma_tilde(9, 2, 4)
    assert region_for(params, ConstituentLabel(classify(params).family, 0, 0)).n == 9
    assert run(["omega", "--p", "0", "--q", "0", "--n", "2000"]) == 0
    assert "(trivial representation)" in capsys.readouterr().out


def test_point_record_holds_labels_not_regions():
    # the socle series reads labels only, so the record it leaves in the memo
    # grows with the label count; keeping every region (two n-tuples per
    # label) would take about 5 kB per label here
    import tracemalloc

    from dpseries import socle_series

    params = InducedRepParams(n=300, alpha=1, sigma=Fraction(-150))
    _point.cache_clear()
    tracemalloc.start()
    try:
        socle_series(params)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    labels = len(_point(params).labels)
    assert labels == 11476
    assert held < 400 * labels, held


def _index_grid(params):
    """The case's full label grid: 0 <= i+j <= k for family R, the rectangle S(n) for L."""
    d = derived(params)
    if classify(params).family == "R":
        return [ConstituentLabel("R", i, j) for i in range(d.k + 1) for j in range(d.k + 1 - i)]
    return [
        ConstituentLabel("L", i, j)
        for i in range((d.n1 + 1) // 2 + 1)
        for j in range(d.n0 // 2 + 1)
    ]


GRID = [(n, alpha, st_val) for n in range(2, 13) for alpha in range(4) for st_val in range(-15, 16)]


def test_every_chain_bounds_a_coordinate_of_the_rank():
    # lo_coord <= n and hi_coord >= 1 on the whole grid, so no chain ever
    # compares with an infinite extended coordinate from the wrong side.
    for n, alpha, st_val in GRID:
        params = params_from_sigma_tilde(n, alpha, st_val)
        pt = _point(params)
        for lab in _index_grid(params):
            for lo_coord, _, hi_coord in _chains(pt, lab):
                assert lo_coord <= n and hi_coord >= 1, (params, lab, lo_coord, hi_coord)



def _region_by_chain_loop(params, pt, label):
    """``constituents._build_region`` as a loop over the chains' triples, built through ``Region``: a reference."""
    n = params.n
    lower: list[int | None] = [None] * n
    upper: list[int | None] = [None] * n
    for lo_coord, value, hi_coord in _chains(pt, label):
        if value % 2 != 0:
            raise RuntimeError(f"region chain of {label} at {params} sits on odd position {value}")
        if lo_coord >= 1:  # +inf >= value holds for lo_coord <= 0
            cur = lower[lo_coord - 1]
            lower[lo_coord - 1] = value if cur is None else max(cur, value)
        if hi_coord <= n:  # -inf <= value holds for hi_coord > n
            cur = upper[hi_coord - 1]
            upper[hi_coord - 1] = value if cur is None else min(cur, value)
    return Region(n=n, lower=tuple(lower), upper=tuple(upper))


def test_region_equals_the_chain_loop_on_the_grid():
    # every label of the full index grid, the window's and the empty ones
    shared = 0
    for n, alpha, st_val in GRID:
        params = params_from_sigma_tilde(n, alpha, st_val)
        pt = _point(params)
        for lab in _index_grid(params):
            region, reference = region_for(params, lab), _region_by_chain_loop(params, pt, lab)
            assert type(region) is Region and region == reference, (params, lab)
            assert (region.to_json(), region.describe()) == (reference.to_json(), reference.describe())
            (a1, _, b1), (a2, _, b2) = _chains(pt, lab)
            shared += 1 <= a1 == a2 or b1 == b2 <= n
    assert shared > 0  # some labels bound one coordinate by both chains

def test_window_size_counts_the_window_in_closed_form():
    for n, alpha, st_val in GRID:
        params = params_from_sigma_tilde(n, alpha, st_val)
        assert _window_size(params) == len(enumerate_constituents(params).labels), params
    # the count lists nothing, so it answers at any rank
    assert _window_size(InducedRepParams(10**8, 1, Fraction(1))) == 10**8 + 1
    assert _window_size(InducedRepParams(1000, 1, Fraction(500))) == 125751


def test_theorem_window_is_exactly_the_nonempty_grid():
    # The raw window, before the emptiness filter, against the regions built
    # label by label: a window wider or narrower than the theorem fails here.
    for n, alpha, st_val in GRID:
        params = params_from_sigma_tilde(n, alpha, st_val)
        pt = _point(params)
        window, _ = _theorem_range(params, pt.case, pt.sign, pt.m, pt.k)
        nonempty = {lab for lab in _index_grid(params) if not region_for(params, lab).is_empty()}
        assert set(window) == nonempty, params


@settings(deadline=None)
@given(st.integers(2, 40), st.integers(0, 3), st.integers(-60, 60))
def test_constituents_are_the_window_and_nonempty_beyond_grid(n, alpha, st_val):
    # The proof in _theorem_range, sampled past GRID: the constituents are the
    # raw window, each region in it is nonempty, and each grid label outside
    # it is empty.
    params = params_from_sigma_tilde(n, alpha, st_val)
    pt = _point(params)
    window, _ = _theorem_range(params, pt.case, pt.sign, pt.m, pt.k)
    labels = enumerate_constituents(params).labels
    assert labels == tuple(window)
    assert all(not region_for(params, lab).is_empty() for lab in labels)
    outside = set(_index_grid(params)) - set(labels)
    assert all(region_for(params, lab).is_empty() for lab in outside)


WINDOWS = {n: dominant_window(n, 6) for n in range(1, 5)}
BOUND = st.one_of(st.none(), st.integers(-4, 4).map(lambda x: 2 * x))


@settings(deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(st.tuples(*[BOUND] * n), st.tuples(*[BOUND] * n))))
def test_region_emptiness_and_single_point_match_a_scan(bounds):
    # every bound lies within 4 of 0 in lambda units, so a nonempty region has
    # a member in the radius-6 window, and an unbounded coordinate of a member
    # can move by one inside it: the scan sees emptiness and uniqueness exactly
    lower, upper = bounds
    region = Region(len(lower), lower, upper)
    hits = [lam for lam in WINDOWS[region.n] if region.contains(lam)]
    assert region.is_empty() == (not hits), bounds
    assert region.single_point() == (hits[0] if len(hits) == 1 else None), bounds


def test_point_record_holds_the_theorems_integers():
    for n in range(2, 17):
        for alpha in range(4):
            for st_val in range(-20, 21):
                params = params_from_sigma_tilde(n, alpha, st_val)
                pt, sigma = _point(params), params.sigma
                assert pt.k == derived(params).k, params
                assert pt.m == math.floor(abs(sigma)), params
                assert pt.sign == (sigma > 0) - (sigma < 0), params
