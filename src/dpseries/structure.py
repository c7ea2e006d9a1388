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

from .parameters import InducedRepParams
from .constituents import ConstituentLabel, _point, parse_label

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


def module_diagram(params: InducedRepParams) -> ModuleDiagram:
    """Hasse diagram of the generation order on the nonempty constituents.

    With the point's grading (a, b), an edge goes from each label to its
    neighbours one level lower that lie in the window: the moves (di, dj) with
    a*di + b*dj = -1, that is (-a, 0) and (0, -b), and none on the unitary
    axis, where a = b = 0 (otherwise both are +-1).  Row i holds
    labels[start:stop] at j = j0, j0 + 1, ..., so the label at index x has
    j = x - start + j0.  Its neighbour (i, j - b) is labels[x - b] if that
    index lies in [start, stop), and its neighbour (i - a, j) in the row
    (start', stop', j0') is labels[x + shift], shift = start' - j0' - start +
    j0, if that index lies in [start', stop').  The edges come out sorted,
    with no sort: the labels run in sorted order, so the upper labels do, and
    each label's lower label in row i - a precedes the one in row i iff a = 1.
    """
    pt = _point(params)
    a, b = pt.grading
    labels, rows, edges = pt.labels, pt.rows, []
    if a:
        for i, (start, stop, j0) in enumerate(rows):
            # row i - a, or an empty row past the grid's ends
            other, other_stop, other_j0 = rows[i - a] if 0 <= i - a < len(rows) else (0, 0, 0)
            shift = other - other_j0 - start + j0
            for x in range(start, stop):
                upper = labels[x]
                if a == 1 and other <= x + shift < other_stop:
                    edges.append((upper, labels[x + shift]))
                if start <= x - b < stop:
                    edges.append((upper, labels[x - b]))
                if a == -1 and other <= x + shift < other_stop:
                    edges.append((upper, labels[x + shift]))
    return ModuleDiagram(nodes=pt.labels, edges=tuple(edges))


def socle_series(params: InducedRepParams) -> SocleSeries:
    """Socle filtration layers per the case theorems (layer 1 = socle).

    Each layer lists its labels in the window's order, which is sorted, so no
    layer is sorted again.
    """
    pt = _point(params)
    a, b = pt.grading
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

    With the point's grading (a, b) and the generator at ``(s, t)``, it keeps the
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
    a, b = pt.grading
    if not a:
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
