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
from bisect import bisect_left
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
    """Hasse diagram of the generation order on the nonempty constituents."""
    pt = _point(params)
    a, b = _grading(pt)
    edges = []
    for lab in pt.labels:
        f, i, j = lab
        for di, dj in ((-1, 0), (0, -1), (0, 1), (1, 0)):
            # a plain tuple equals and hashes as its label, and one found in the window is a valid label
            if a * di + b * dj == -1 and (f, i + di, j + dj) in pt.label_set:
                edges.append((lab, tuple.__new__(ConstituentLabel, (f, i + di, j + dj))))
    return ModuleDiagram(nodes=pt.labels, edges=tuple(sorted(edges)))


def socle_series(params: InducedRepParams) -> SocleSeries:
    """Socle filtration layers per the case theorems (layer 1 = socle)."""
    pt = _point(params)
    a, b = _grading(pt)
    level = {lab: a * lab.i + b * lab.j for lab in pt.labels}
    low = min(level.values(), default=0)
    by_layer: dict[int, list[ConstituentLabel]] = {}
    for lab in pt.labels:
        by_layer.setdefault(level[lab] - low + 1, []).append(lab)
    count = max(by_layer, default=0)
    if sorted(by_layer) != list(range(1, count + 1)):
        raise RuntimeError(f"socle layers not contiguous at {params}: {sorted(by_layer)}")
    return SocleSeries(layers=tuple(tuple(sorted(by_layer[l])) for l in range(1, count + 1)))


def generated_submodule(params: InducedRepParams, label: ConstituentLabel) -> Submodule:
    """The smallest submodule containing the given constituent.

    With ``(a, b) = _grading`` and the generator at ``(s, t)``, it keeps the
    nonempty constituents x with ``a*(x.i - s) <= 0`` and ``b*(x.j - t) <= 0``;
    at sigma = 0 the grading is (0, 0) and it keeps the generator alone.
    Otherwise a and b are +-1, so the members are, row by row (rows i <= s
    when a = 1, i >= s when a = -1), the part of the row's slice of the
    sorted labels with j <= t (b = 1) or j >= t (b = -1), cut by bisection.
    """
    pt = _point(params)
    if label not in pt.label_set:
        raise ValueError(f"label is not a nonempty constituent here: {label} at {params}")
    a, b = _grading(pt)
    if (a, b) == (0, 0):
        return Submodule(generator=label, members=(label,))
    f, s, t = label
    labels, rows = pt.labels, pt.row_starts
    members: list[ConstituentLabel] = []
    for i in range(s + 1) if a == 1 else range(s, len(rows) - 1):
        lo, hi = rows[i], rows[i + 1]
        if b == 1:
            members += labels[lo : bisect_left(labels, (f, i, t + 1), lo, hi)]
        else:
            members += labels[bisect_left(labels, (f, i, t), lo, hi) : hi]
    return Submodule(generator=label, members=tuple(members))


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
