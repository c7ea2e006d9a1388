"""Spans around the package's layer functions, installed from outside the package.

``Tracer.install`` replaces every module-level binding of a traced function in
``dpseries.*`` with a wrapper, so calls between the package's own modules are
timed too.  Each span keeps its call count, total time and self time (total
minus the time of the traced calls it made).  Results of ``oracle.build`` are
kept so the lattice sizes can be counted afterwards.
"""

from __future__ import annotations

import sys
import time

# (module, name) of each traced binding; connected_components is scipy's SCC
# as the oracle binds it.
TRACED = (
    ("parameters", "classify"),
    ("constituents", "enumerate_constituents"),
    ("constituents", "region_for"),
    ("structure", "module_diagram"),
    ("structure", "socle_series"),
    ("structure", "generated_submodule"),
    ("unitarity", "constituent_unitarizable"),
    ("howe", "omega_image"),
    ("howe", "possible_embeddings"),
    ("oracle", "build"),
    ("oracle", "compare"),
    ("oracle", "connected_components"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans = {f"{mod}.{name}": [0, 0.0, 0.0] for mod, name in TRACED}  # calls, total_s, self_s
        self.lattices: list[tuple] = []  # (params, points, classes, class_edges) per build
        self.warnings = 0  # len(verdict.warnings) summed over compare calls
        self._stack: list[float] = []  # child time accumulated by each open span
        self._patched: list[tuple] = []

    def install(self) -> None:
        wrappers = {}
        for mod, name in TRACED:
            fn = getattr(sys.modules[f"dpseries.{mod}"], name)
            wrappers[id(fn)] = self._wrap(f"{mod}.{name}", fn)
        for modname, module in list(sys.modules.items()):
            if modname != "dpseries" and not modname.startswith("dpseries."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        span = self.spans[name]
        stack = self._stack
        keep_lattice = name == "oracle.build"
        keep_warnings = name == "oracle.compare"

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                total = time.perf_counter() - t0
                child = stack.pop()
                span[0] += 1
                span[1] += total
                span[2] += total - child
                if stack:
                    stack[-1] += total
            if keep_lattice:
                self.lattices.append(
                    (result.params, len(result.points), result.n_classes, len(result.class_edges))
                )
            elif keep_warnings:
                self.warnings += len(result.warnings)
            return result

        return traced

    def lattice_totals(self) -> dict[str, int]:
        """Window sizes summed over every build; call after ``uninstall``.

        ``membership_bytes_computed`` is P x L x n x 8 per reducible point (P
        window points, L constituents): the int64 operands of the oracle's
        membership broadcast, computed from sizes, not measured.
        """
        import dpseries as dp

        totals = {"lattice_points": 0, "classes": 0, "class_edges": 0, "membership_bytes_computed": 0}
        for params, points, classes, edges in self.lattices:
            totals["lattice_points"] += points
            totals["classes"] += classes
            totals["class_edges"] += edges
            if dp.classify(params) is not dp.CaseTag.IRREDUCIBLE:
                labels = len(dp.enumerate_constituents(params).labels)
                totals["membership_bytes_computed"] += points * labels * params.n * 8
        return totals
