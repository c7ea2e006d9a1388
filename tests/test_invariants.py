"""Library invariants raise explicitly, so ``python -O`` keeps every check.

None of these checks can fail on valid input; each test breaks the code's
own internals to make it fire.
"""

import ast
import importlib
import pkgutil
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import dpseries
from dpseries import CaseTag, InducedRepParams, constituents, howe, window


def test_no_assert_statements_in_the_package():
    for path in Path(dpseries.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not asserts, f"{path.name} asserts at lines {asserts}"


def test_every_exported_name_resolves():
    # dpseries.__main__ runs the command line on import and exports nothing
    modules = [dpseries] + [
        importlib.import_module(f"dpseries.{info.name}")
        for info in pkgutil.iter_modules(dpseries.__path__)
        if info.name != "__main__"
    ]
    checked = 0
    for module in modules:
        exported = getattr(module, "__all__", ())
        missing = [name for name in exported if not hasattr(module, name)]
        assert not missing, f"{module.__name__} exports missing names {missing}"
        checked += bool(exported)
    assert checked == 10


def test_odd_region_chain_raises(monkeypatch):
    # the parity of every region's chain values is fixed per point, so the
    # point record checks it once; a Case 1a point read as Case 1b puts its
    # first chain at 2i - 1 with the even offset 1 - sigma_tilde = 0
    params = InducedRepParams(2, 1, Fraction(-1))
    monkeypatch.setattr(constituents, "classify", lambda params: CaseTag.CASE_1B)
    with pytest.raises(RuntimeError, match="odd position -1"):
        constituents._integers.__wrapped__(params)


def test_omega_image_target_checks_raise(monkeypatch):
    for case, p in (
        (CaseTag.IRREDUCIBLE, 1),
        (CaseTag.CASE_1A, 2),
        (CaseTag.CASE_1B, 1),
        (CaseTag.CASE_2A, 2),
        (CaseTag.CASE_2B, 1),
    ):
        monkeypatch.setattr(howe, "classify", lambda params, case=case: case)
        with pytest.raises(RuntimeError, match=f"cannot target .* in {case.value}"):
            howe.omega_image(p, 2, 4)


def test_window_with_a_hole_raises(monkeypatch):
    whole = window._window_points
    monkeypatch.setattr(window, "_window_points", lambda n, lmax: np.delete(whole(n, lmax), 1, axis=0))
    with pytest.raises(AssertionError, match="leaves the enumerated window"):
        window.build(InducedRepParams(2, 0, Fraction(1, 2)), 2)
