import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dpseries import (
    CaseTag,
    ConstituentLabel,
    InducedRepParams,
    derived,
    diagram_to_dot,
    diagram_to_json,
    enumerate_constituents,
    generated_submodule,
    irreducible_quotients,
    irreducible_submodules,
    is_empty,
    module_diagram,
    parse_label,
    region_for,
    socle_series,
)
from dpseries.constituents import _point
from dpseries.structure import ModuleDiagram, diagram_from_json

from conftest import params_from_sigma_tilde


P_SW = InducedRepParams(2, 0, Fraction(1, 2))
P_1A = InducedRepParams(2, 1, Fraction(-1))
P_AXIS = InducedRepParams(2, 1, Fraction(0))


def L(i, j):
    return ConstituentLabel("L", i, j)


def R(i, j):
    return ConstituentLabel("R", i, j)


def test_diagram_worked_points():
    d = module_diagram(P_1A)
    assert d.nodes == (R(0, 0), R(0, 1), R(1, 0))
    assert set(d.edges) == {(R(1, 0), R(0, 0)), (R(0, 1), R(0, 0))}

    d = module_diagram(P_SW)
    assert d.nodes == (L(0, 0), L(1, 0), L(1, 1))
    assert set(d.edges) == {(L(1, 0), L(0, 0)), (L(1, 0), L(1, 1))}

    d = module_diagram(P_AXIS)
    assert d.nodes == (R(0, 1), R(1, 0))
    assert d.edges == ()


def test_socle_worked_points():
    assert socle_series(P_SW).layers == ((L(0, 0), L(1, 1)), (L(1, 0),))
    assert socle_series(P_1A).layers == ((R(0, 0),), (R(0, 1), R(1, 0)))
    layers = socle_series(InducedRepParams(2, 0, Fraction(-3, 2))).layers
    assert layers[0] == (L(0, 1),)  # socle contains the trivial representation


def test_generated_submodule_worked_points():
    assert generated_submodule(P_SW, L(1, 0)).members == (L(0, 0), L(1, 0), L(1, 1))
    assert generated_submodule(P_SW, L(1, 1)).members == (L(1, 1),)
    with pytest.raises(ValueError, match="not a nonempty constituent"):
        generated_submodule(P_SW, L(0, 1))


def test_socle_labels_generate_themselves():
    for params in (P_SW, P_1A, P_AXIS, InducedRepParams(3, 2, Fraction(-2))):
        for lab in socle_series(params).layers[0]:
            assert generated_submodule(params, lab).members == (lab,)


def test_sinks_and_sources_worked_points():
    assert irreducible_submodules(P_SW) == (L(0, 0), L(1, 1))
    assert irreducible_quotients(P_SW) == (L(1, 0),)
    assert irreducible_submodules(P_1A) == (R(0, 0),)
    assert irreducible_quotients(P_1A) == (R(0, 1), R(1, 0))
    assert irreducible_submodules(P_AXIS) == irreducible_quotients(P_AXIS) == (R(0, 1), R(1, 0))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("alpha", [0, 1, 2, 3])
@pytest.mark.parametrize("st_val", [-5, -2, 0, 1, 3, 6])
def test_socle_matches_longest_downward_paths(n, alpha, st_val):
    params = params_from_sigma_tilde(n, alpha, st_val)
    diagram = module_diagram(params)
    socle = socle_series(params)

    depth = {}

    def longest(lab):
        if lab not in depth:
            depth[lab] = 1 + max(
                (longest(t) for s, t in diagram.edges if s == lab), default=0
            )
        return depth[lab]

    for lab in diagram.nodes:
        assert lab in socle.layers[longest(lab) - 1]
    # the socle's ends are the diagram's sinks and sources
    sinks = tuple(x for x in diagram.nodes if all(u != x for u, _ in diagram.edges))
    sources = tuple(x for x in diagram.nodes if all(v != x for _, v in diagram.edges))
    assert irreducible_submodules(params) == socle.layers[0] == sinks
    assert irreducible_quotients(params) == socle.layers[-1] == sources


@pytest.mark.parametrize("st_val", [-4, -1, 1, 2, 4])
def test_edges_join_adjacent_levels(st_val):
    for n in (2, 3, 4, 5):
        for alpha in range(4):
            params = params_from_sigma_tilde(n, alpha, st_val)
            cs = enumerate_constituents(params)
            level = (
                (lambda x: x.i + x.j) if cs.case.family == "R" else (lambda x: x.i - x.j)
            )
            for u, v in module_diagram(params).edges:
                assert abs(level(u) - level(v)) == 1


def test_diagram_is_graded():
    # Every edge joins adjacent socle layers, so no edge is implied by a longer path.
    for n in range(2, 13):
        for alpha in range(4):
            for st_val in range(-15, 16):
                params = params_from_sigma_tilde(n, alpha, st_val)
                diagram = module_diagram(params)
                layer = {
                    lab: depth
                    for depth, labs in enumerate(socle_series(params).layers, start=1)
                    for lab in labs
                }
                assert sorted(layer) == list(diagram.nodes), params
                for u, v in diagram.edges:
                    assert layer[u] == layer[v] + 1, (params, u, v)


def test_generated_submodules_downward_closed():
    for params in (P_SW, P_1A, InducedRepParams(4, 2, Fraction(-5, 2)), params_from_sigma_tilde(3, 1, 4)):
        diagram = module_diagram(params)
        for lab in diagram.nodes:
            sub = set(generated_submodule(params, lab).members)
            for u, v in diagram.edges:
                if u in sub:
                    assert v in sub


def test_json_round_trip():
    diagram = module_diagram(P_SW)
    socle = socle_series(P_SW)
    text = diagram_to_json(diagram, socle)
    diagram2, socle2 = diagram_from_json(text)
    assert diagram2 == diagram
    assert socle2 == socle
    assert diagram_to_json(diagram2, socle2) == text


def test_dot_is_deterministic():
    a = diagram_to_dot(module_diagram(P_SW), socle_series(P_SW))
    b = diagram_to_dot(module_diagram(P_SW), socle_series(P_SW))
    assert a == b
    assert a.count("->") == 2
    assert a.count("rank=same") == 2


def test_closed_form_views_are_pinned():
    # sha256 of every closed-form view over n 2..16, alpha 0..3, sigma_tilde
    # -20..20: the point's repr, each grid label's repr, emptiness and region
    # (window labels included), the diagram's edges, the socle layers and each
    # generated submodule's members; recorded while labels were dataclasses
    # and generated_submodule scanned every label
    digest = hashlib.sha256()
    for n in range(2, 17):
        for alpha in range(4):
            for st in range(-20, 21):
                params = params_from_sigma_tilde(n, alpha, st)
                cs = enumerate_constituents(params)
                d = derived(params)
                if cs.case.family == "R":
                    grid = [(i, j) for i in range(d.k + 1) for j in range(d.k + 1 - i)]
                else:
                    grid = list(itertools.product(range((d.n1 + 3) // 2), range(d.n0 // 2 + 1)))
                regions = []
                for i, j in grid:
                    lab = ConstituentLabel(cs.case.family, i, j)
                    region = region_for(params, lab)
                    regions.append([repr(lab), is_empty(params, lab), region.to_json(), region.describe()])
                record = [
                    repr(params),
                    [str(x) for x in cs.labels],
                    regions,
                    [[str(u), str(v)] for u, v in module_diagram(params).edges],
                    [[str(x) for x in layer] for layer in socle_series(params).layers],
                    [[str(x) for x in generated_submodule(params, lab).members] for lab in cs.labels],
                ]
                digest.update(json.dumps(record).encode())
    assert digest.hexdigest() == "fb5a964bd11a69255fa72e75d5ebf274bc16a15a2234babb7c60d127b62a226b"


def _dual_pairs(ns):
    """(P, P') over sigma > 0 with sigma_tilde up to n+9: P' at -sigma, sigma_tilde' = n+1+alpha-sigma_tilde."""
    for n in ns:
        for alpha in range(4):
            for st in range((n + 1 + alpha) // 2 + 1, n + 10):
                yield params_from_sigma_tilde(n, alpha, st), params_from_sigma_tilde(n, alpha, n + 1 + alpha - st)


def test_hermitian_duality_reverses_the_diagram_and_keeps_unitarity():
    from dpseries import constituent_unitarizable
    from dpseries.ktypes import dominant_extremes

    def by_extremes(params):
        regions = {lab: region_for(params, lab) for lab in enumerate_constituents(params).labels}
        return {dominant_extremes(r.lower, r.upper): lab for lab, r in regions.items()}

    pairs = verdicts = 0
    for params, dual in _dual_pairs(range(2, 17)):
        assert dual.sigma == -params.sigma
        here, there = by_extremes(params), by_extremes(dual)
        assert here.keys() == there.keys() and len(here) == len(enumerate_constituents(params).labels), params
        match = {here[box]: there[box] for box in here}
        edges = {(match[b], match[a]) for a, b in module_diagram(params).edges}
        assert edges == set(module_diagram(dual).edges), params
        for lab, image in match.items():
            assert (
                constituent_unitarizable(params, lab).unitarizable
                == constituent_unitarizable(dual, image).unitarizable
            ), (params, lab)
        pairs += 1
        verdicts += len(match)
    assert (pairs, verdicts) == (750, 16091)


def test_window_and_diagram_labels_are_valid_labels():
    # the theorem window and module_diagram build their labels without the checking constructor
    for n in range(2, 17):
        for alpha in range(4):
            for st_val in range(-8, n + 11):
                params = params_from_sigma_tilde(n, alpha, st_val)
                edges = module_diagram(params).edges
                for x in (*enumerate_constituents(params).labels, *(x for edge in edges for x in edge)):
                    assert type(x) is ConstituentLabel, (params, x)
                    assert parse_label(str(x)) == x == ConstituentLabel(*x), (params, x)
    for bad in (("X", 0, 0), ("R", -1, 0), ("L", 0, -1)):
        with pytest.raises(ValueError):
            ConstituentLabel(*bad)


def _sampled_points(count, n_max=40):
    """A fixed sample of reducible points over n 2..n_max, alpha 0..3 and sigma_tilde -60..60."""
    rng = random.Random("structure-beyond-the-pin")
    return [
        params_from_sigma_tilde(rng.randint(2, n_max), rng.randrange(4), rng.randint(-60, 60)) for _ in range(count)
    ]


def _expected_grading(params):
    """(a, b) of the module docstring's edge rule: the level a*i + b*j drops by one along every edge."""
    cs = enumerate_constituents(params)
    if cs.case.family == "R":
        sign = (params.sigma > 0) - (params.sigma < 0)
        return -sign, -sign
    return (-1, 1) if cs.case.value == "Case2a" else (1, -1)


def test_views_emit_in_label_order_beyond_the_pin():
    # Past the n <= 16 of test_closed_form_views_are_pinned: each generated
    # submodule is the filter a*(x.i-s) <= 0, b*(x.j-t) <= 0 over the labels,
    # in label order, and the diagram's edges and each socle layer come out
    # in their sorted order with no sort.
    for params in _sampled_points(160):
        labels = enumerate_constituents(params).labels
        a, b = _expected_grading(params)
        for label in labels:
            _, s, t = label
            if (a, b) == (0, 0):
                expected = (label,)
            else:
                expected = tuple(x for x in labels if a * (x.i - s) <= 0 and b * (x.j - t) <= 0)
            assert generated_submodule(params, label).members == expected, (params, label)
        edges = module_diagram(params).edges
        assert list(edges) == sorted(edges), params
        assert set(edges) == {
            (x, y) for x in labels for y in labels if abs(x.i - y.i) + abs(x.j - y.j) == 1
            and a * (y.i - x.i) + b * (y.j - x.j) == -1
        }, params
        layers = socle_series(params).layers
        assert all(list(layer) == sorted(layer) for layer in layers), params
        assert sorted(x for layer in layers for x in layer) == list(labels), params


def _module_diagram_reference(params):
    """``structure.module_diagram`` as it probed the window's label set for each move, verbatim but for
    its grading, which is the body of the ``_grading`` it called: a reference."""
    pt = _point(params)
    if pt.case.family == "R":
        a, b = -pt.sign, -pt.sign
    else:
        a, b = (-1, 1) if pt.case is CaseTag.CASE_2A else (1, -1)
    moves = sorted(move for move in ((-a, 0), (0, -b)) if move != (0, 0))
    label_set = pt.label_set
    edges = []
    for lab in pt.labels:
        f, i, j = lab
        for di, dj in moves:
            # a plain tuple equals and hashes as its label, and one found in the window is a valid label
            lower = (f, i + di, j + dj)
            if lower in label_set:
                edges.append((lab, tuple.__new__(ConstituentLabel, lower)))
    return ModuleDiagram(nodes=pt.labels, edges=tuple(edges))


def _check_diagram_against_the_reference(params):
    diagram = module_diagram(params)
    assert diagram == _module_diagram_reference(params), params
    # the edges hold the window's own label objects
    window = {id(x) for x in enumerate_constituents(params).labels}
    assert all(id(u) in window and id(v) in window for u, v in diagram.edges), params
    return len(diagram.edges)


def test_diagram_equals_the_label_set_probe():
    # every point's edge list, in order, on n 2..16, alpha 0..3, sigma_tilde -20..20
    edges = sum(
        _check_diagram_against_the_reference(params_from_sigma_tilde(n, alpha, st_val))
        for n in range(2, 17)
        for alpha in range(4)
        for st_val in range(-20, 21)
    )
    assert edges > 10_000


@settings(deadline=None)
@given(st.integers(2, 40), st.integers(0, 3), st.integers(-60, 60))
def test_diagram_equals_the_label_set_probe_beyond_the_grid(n, alpha, st_val):
    _check_diagram_against_the_reference(params_from_sigma_tilde(n, alpha, st_val))
