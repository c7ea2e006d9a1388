"""Every value record is a NamedTuple: fields, repr, equality, hash, immutability."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import dpseries
from dpseries import (
    ConstituentLabel,
    InducedRepParams,
    build,
    check_summary,
    compare,
    constituent_unitarizable,
    derived,
    enumerate_constituents,
    generated_submodule,
    module_diagram,
    omega_image,
    region_for,
    socle_series,
)
from dpseries import constituents

P = InducedRepParams(2, 0, Fraction(1, 2))  # Case 2b: L(0,0), L(1,0), L(1,1)
LABEL = ConstituentLabel("L", 1, 0)

# (make the record, its fields, attributes it computes and caches)
RECORDS = {
    "InducedRepParams": (lambda: P, ("n", "alpha", "sigma"), ("sigma_tilde", "_hash")),
    "DerivedConstants": (lambda: derived(P), ("rho", "sigma_tilde", "n0", "n1"), ()),
    "ConstituentLabel": (lambda: LABEL, ("family", "i", "j"), ()),
    "Region": (lambda: region_for(P, LABEL), ("n", "lower", "upper"), ("_extremes",)),
    "ConstituentSet": (lambda: enumerate_constituents(P), ("case", "labels", "index_bound"), ()),
    "_Integers": (
        lambda: constituents._integers(P),
        ("case", "sign", "m", "k", "st", "n", "family", "grading", "chains"),
        (),
    ),
    "_Point": (
        lambda: constituents._point(P),
        ("case", "sign", "m", "k", "st", "n", "family", "grading", "chains", "index_bound", "labels", "label_set",
         "rows"),
        ("_verdicts",),
    ),
    "ModuleDiagram": (lambda: module_diagram(P), ("nodes", "edges"), ()),
    "SocleSeries": (lambda: socle_series(P), ("layers",), ()),
    "Submodule": (lambda: generated_submodule(P, LABEL), ("generator", "members"), ()),
    "UnitarityVerdict": (lambda: constituent_unitarizable(P, LABEL), ("unitarizable", "reason"), ()),
    "OmegaImage": (lambda: omega_image(2, 2, 2), ("p", "q", "target", "shape", "generator", "members"), ()),
    "ClauseCheck": (lambda: check_summary(P).checks[0], ("name", "ok", "detail"), ()),
    "SummaryReport": (lambda: check_summary(P), ("params", "regime", "checks"), ()),
    "TruncatedLattice": (
        lambda: build(P, 1),
        ("params", "lmax", "points", "comp", "n_classes", "class_boxes", "class_edges", "hasse", "layers",
         "closures", "warnings"),
        (),
    ),
    "OracleVerdict": (lambda: compare(P), ("ok", "lmax", "case", "checks", "witness", "warnings"), ()),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_an_immutable_named_tuple(name):
    make, fields, cached = RECORDS[name]
    record = make()
    assert type(record).__name__ == name
    assert type(record)._fields == fields
    assert repr(record) == f"{name}(" + ", ".join(f"{f}={getattr(record, f)!r}" for f in fields) + ")"

    twin = type(record)(*record)
    assert twin is not record and twin == record == tuple(record)
    assert hash(twin) == hash(record) == hash(tuple(record))

    for attr in (*fields, *cached, "extra"):
        value = getattr(record, attr, None)  # fills a cached attribute first
        with pytest.raises(AttributeError):
            setattr(record, attr, value)
        with pytest.raises(AttributeError):
            delattr(record, attr)


def test_params_repr_str_and_validation():
    assert repr(P) == "InducedRepParams(n=2, alpha=0, sigma=Fraction(1, 2))"
    assert str(P) == "I^0(1/2)"
    assert P.sigma_tilde == 2 and P != P._replace(sigma=Fraction(3, 2))
    assert P._replace(sigma="3/2") == InducedRepParams(2, 0, Fraction(3, 2))
    assert P._replace(sigma="3/2").sigma_tilde == 3
    with pytest.raises(ValueError, match="alpha must be one of"):
        P._replace(alpha=7)
    with pytest.raises(ValueError, match="rank below supported range"):
        InducedRepParams._make((1, 0, 0))


def test_cli_import_leaves_dataclasses_unloaded():
    env = {**os.environ, "PYTHONPATH": str(Path(dpseries.__file__).parents[1])}
    code = "import sys, dpseries.cli; print('dataclasses' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr
