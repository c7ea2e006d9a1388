"""Combinatorial structure of degenerate principal series of metaplectic groups.

Exact-rational classification of the modules I^alpha(sigma), their
irreducible constituents as K-type lattice regions, module diagrams, socle
series, unitarizability, and the theta-lift images Omega^{p,q} sitting inside
them, with every closed-form answer cross-checkable against a brute-force
lattice oracle.

Every value record (``InducedRepParams``, ``Region``, ``OracleVerdict`` and
the rest) is a NamedTuple: immutable, compared and hashed by its fields, and
equal to the plain tuple of them.
"""

from .parameters import (
    CaseTag,
    DerivedConstants,
    InducedRepParams,
    classify,
    derived,
    format_rational,
    parse_integer,
    parse_rational,
)
from .ktypes import (
    barrier_minus,
    barrier_plus,
    format_ktype,
    neighbors,
    parse_ktype,
    transition,
)
from .constituents import (
    ConstituentLabel,
    ConstituentSet,
    Region,
    enumerate_constituents,
    is_empty,
    label_of,
    parse_label,
    region_for,
)
from .structure import (
    ModuleDiagram,
    SocleSeries,
    Submodule,
    diagram_to_dot,
    diagram_to_json,
    generated_submodule,
    irreducible_quotients,
    irreducible_submodules,
    module_diagram,
    socle_series,
)
from .unitarity import (
    UnitarityVerdict,
    complementary_series,
    constituent_unitarizable,
    n_ratio,
    nonunitarity_witness,
)
from .howe import (
    OmegaImage,
    SummaryReport,
    check_summary,
    induced_params,
    omega_image,
    possible_embeddings,
)
from .oracle import OracleVerdict, TruncatedLattice, auto_lmax, build, compare

__version__ = "0.1.0"

__all__ = [
    "CaseTag",
    "ConstituentLabel",
    "ConstituentSet",
    "DerivedConstants",
    "InducedRepParams",
    "ModuleDiagram",
    "OmegaImage",
    "OracleVerdict",
    "Region",
    "SocleSeries",
    "Submodule",
    "SummaryReport",
    "TruncatedLattice",
    "UnitarityVerdict",
    "auto_lmax",
    "barrier_minus",
    "barrier_plus",
    "build",
    "check_summary",
    "classify",
    "compare",
    "complementary_series",
    "constituent_unitarizable",
    "derived",
    "diagram_to_dot",
    "diagram_to_json",
    "enumerate_constituents",
    "format_ktype",
    "format_rational",
    "generated_submodule",
    "induced_params",
    "irreducible_quotients",
    "irreducible_submodules",
    "is_empty",
    "label_of",
    "module_diagram",
    "n_ratio",
    "neighbors",
    "nonunitarity_witness",
    "omega_image",
    "parse_integer",
    "parse_ktype",
    "parse_label",
    "parse_rational",
    "possible_embeddings",
    "region_for",
    "socle_series",
    "transition",
]
