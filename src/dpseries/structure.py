"""Module diagrams, socle series and generated submodules.

The module diagram is a directed simple graph on the nonempty constituents;
an edge (upper, lower) records a nonsplit extension with the lower node as
submodule, and all edges are directed downward (toward the socle).  The edge
pattern is an index-adjacency rule depending on the case and the sign of
sigma:

* family R, sigma <= -1:  (i,j) -> (i-1,j), (i,j-1)   (level i+j drops)
* family R, sigma  =  0:  no edges (direct sum)
* family R, sigma >=  1:  (i,j) -> (i+1,j), (i,j+1)   (level -(i+j) drops)
* family L, Case 2a:      (i,j) -> (i+1,j), (i,j-1)   (level j-i drops)
* family L, Case 2b:      (i,j) -> (i-1,j), (i,j+1)   (level i-j drops)

restricted to surviving (nonempty) nodes.  Every edge lowers the level by
exactly one, so the diagram is graded: no edge is implied by a longer path.
The socle series is the same grading: layer l holds the nodes l-1 levels
above the lowest, so layer 1 is the set of sinks and every edge joins
adjacent layers.  At -sigma (Hermitian duality) the same regions carry the
reversed diagram.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .parameters import CaseTag, InducedRepParams
from .constituents import ConstituentLabel, _Point, _point, parse_label

__all__ = [
    "ModuleDiagram",
    "SocleSeries",
    "Submodule",
    "diagram_from_json",
    "diagram_to_dot",
    "diagram_to_json",
    "generated_submodule",
    "irreducible_quotients",
    "irreducible_submodules",
    "module_diagram",
    "socle_series",
]

Edge = tuple[ConstituentLabel, ConstituentLabel]


class ModuleDiagram(NamedTuple):
    nodes: tuple[ConstituentLabel, ...]
    edges: tuple[Edge, ...]  # (upper, lower), pointing toward the socle


class SocleSeries(NamedTuple):
    layers: tuple[tuple[ConstituentLabel, ...], ...]  # layers[0] is the socle


class Submodule(NamedTuple):
    generator: ConstituentLabel
    members: tuple[ConstituentLabel, ...]


def _grading(pt: _Point) -> tuple[int, int]:
    """(a, b) such that the level a*i + b*j drops by one along every edge."""
    if pt.case.family == "R":
        return -pt.sign, -pt.sign
    return (-1, 1) if pt.case is CaseTag.CASE_2A else (1, -1)


def module_diagram(params: InducedRepParams) -> ModuleDiagram:
    """Hasse diagram of the generation order on the nonempty constituents.

    An edge goes from each label to its neighbours one level lower that lie in
    the window: the moves (di, dj) with a*di + b*dj = -1, that is (-a, 0) when
    a != 0 and (0, -b) when b != 0.  The edges come out sorted, with no sort:
    the labels run in sorted order, so the upper labels do, and each label's
    moves run in increasing order, so its lower labels (f, i+di, j+dj) do.
    """
    pt = _point(params)
    a, b = _grading(pt)
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


def socle_series(params: InducedRepParams) -> SocleSeries:
    """Socle filtration layers per the case theorems (layer 1 = socle).

    Each layer lists its labels in the window's order, which is sorted, so no
    layer is sorted again.
    """
    pt = _point(params)
    a, b = _grading(pt)
    levels = [a * i + b * j for _, i, j in pt.labels]
    low = min(levels)
    layers: list[list[ConstituentLabel]] = [[] for _ in range(max(levels) - low + 1)]
    for lab, level in zip(pt.labels, levels):
        layers[level - low].append(lab)
    if not all(layers):
        present = [l for l, layer in enumerate(layers, start=1) if layer]
        raise RuntimeError(f"socle layers not contiguous at {params}: {present}")
    return SocleSeries(layers=tuple(map(tuple, layers)))


def generated_submodule(params: InducedRepParams, label: ConstituentLabel) -> Submodule:
    """The smallest submodule containing the given constituent.

    With ``(a, b) = _grading`` and the generator at ``(s, t)``, it keeps the
    nonempty constituents x with ``a*(x.i - s) <= 0`` and ``b*(x.j - t) <= 0``;
    at sigma = 0 the grading is (0, 0) and it keeps the generator alone.
    Otherwise a and b are +-1, so the members are, row by row (rows i <= s
    when a = 1, i >= s when a = -1), the part of the row with j <= t (b = 1)
    or j >= t (b = -1).  Row i holds consecutive j from its least j0, so that
    part is a slice of the sorted labels cut at the offset t - j0, and the
    rows' slices come out in sorted order.
    """
    pt = _point(params)
    if label not in pt.label_set:
        raise ValueError(f"label is not a nonempty constituent here: {label} at {params}")
    a, b = _grading(pt)
    if (a, b) == (0, 0):
        return Submodule(generator=label, members=(label,))
    _, s, t = label
    labels, rows = pt.labels, pt.rows[: s + 1] if a == 1 else pt.rows[s:]
    members: list[ConstituentLabel] = []
    # conditional expressions, not min and max: this runs once per row of every call
    if b == 1:  # the row's labels with j <= t: its first t + 1 - j0
        for start, stop, j0 in rows:
            if t >= j0:
                cut = start + t + 1 - j0
                members += labels[start : cut if cut < stop else stop]
    else:  # the row's labels with j >= t: all but its first t - j0
        for start, stop, j0 in rows:
            members += labels[start + t - j0 if t > j0 else start : stop]
    return tuple.__new__(Submodule, (label, tuple(members)))  # past the keyword __new__, as Region


def irreducible_submodules(params: InducedRepParams) -> tuple[ConstituentLabel, ...]:
    """The socle (layer 1): the grading's lowest level, which holds the diagram's sinks."""
    return socle_series(params).layers[0]


def irreducible_quotients(params: InducedRepParams) -> tuple[ConstituentLabel, ...]:
    """The top socle layer: the grading's highest level, which holds the diagram's sources."""
    return socle_series(params).layers[-1]


def _diagram_payload(diagram: ModuleDiagram, socle: SocleSeries) -> dict:
    """The JSON document of a diagram and its socle series, before encoding."""
    return {
        "nodes": [str(x) for x in diagram.nodes],
        "edges": [[str(u), str(v)] for u, v in diagram.edges],
        "layers": [[str(x) for x in layer] for layer in socle.layers],
    }


def diagram_to_json(diagram: ModuleDiagram, socle: SocleSeries) -> str:
    return json.dumps(_diagram_payload(diagram, socle), indent=2, sort_keys=True)


def diagram_from_json(text: str) -> tuple[ModuleDiagram, SocleSeries]:
    payload = json.loads(text)
    nodes = tuple(parse_label(x) for x in payload["nodes"])
    edges = tuple((parse_label(u), parse_label(v)) for u, v in payload["edges"])
    layers = tuple(tuple(parse_label(x) for x in layer) for layer in payload["layers"])
    return ModuleDiagram(nodes=nodes, edges=edges), SocleSeries(layers=layers)


def diagram_to_dot(diagram: ModuleDiagram, socle: SocleSeries) -> str:
    """Deterministic DOT rendering, one rank per socle layer, top layer first."""
    lines = ["digraph module_diagram {", "  rankdir=TB;", "  node [shape=box];"]
    for layer in reversed(socle.layers):
        names = "; ".join(f'"{x}"' for x in sorted(layer))
        lines.append(f"  {{ rank=same; {names}; }}")
    for u, v in sorted(diagram.edges):
        lines.append(f'  "{u}" -> "{v}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
