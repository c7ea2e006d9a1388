"""Theta-lift images inside the degenerate principal series.

An orthogonal signature (p, q) determines a target module via

    sigma = (p + q)/2 - (n + 1)/2,    alpha = p - q  (mod 4),

and the coinvariant space Omega^{p,q} embeds there.  Its image is a single
constituent when sigma <= 0 and the submodule generated by one constituent
when sigma > 0; ``omega_image`` names that constituent by one rule for family
R and one for each of Cases 2a and 2b.  A "possible embedding" at a
parameter point is any signature satisfying the two conditions above;
``check_summary`` verifies, point by point, the global picture these images
paint: they enumerate the irreducible submodules for -rho <= sigma < 0, they
decompose the unitary axis, and for sigma > 0 they account for reducibility
and reach every irreducible quotient.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from typing import NamedTuple

from .parameters import CaseTag, InducedRepParams, classify, format_rational
from .constituents import ConstituentLabel
from .structure import (
    generated_submodule,
    irreducible_quotients,
    irreducible_submodules,
    module_diagram,
)
from .unitarity import constituent_unitarizable

__all__ = [
    "ClauseCheck",
    "OmegaImage",
    "SummaryReport",
    "check_summary",
    "induced_params",
    "omega_image",
    "possible_embeddings",
]


def induced_params(p: int, q: int, n: int) -> InducedRepParams:
    """Target parameters of the embedding attached to the signature (p, q)."""
    if p < 0 or q < 0:
        raise ValueError(f"signature entries must be >= 0, got (p,q)=({p},{q})")
    return InducedRepParams(n=n, alpha=(p - q) % 4, sigma=Fraction(p + q - n - 1, 2))


def possible_embeddings(params: InducedRepParams) -> tuple[tuple[int, int], ...]:
    """All signatures (p, q) with p+q = 2*sigma + n + 1 and p-q = alpha mod 4.

    With m = p+q, p-q = 2p-m, so 2p = m + alpha mod 4: there is no p unless
    m + alpha is even, and then p runs over one parity, that of (m + alpha)/2.
    """
    num, den = params.sigma.numerator, params.sigma.denominator
    if (2 * num) % den:  # 2*sigma is not an integer
        return ()
    m = 2 * num // den + params.n + 1
    if m < 0 or (m + params.alpha) % 2:
        return ()
    return tuple((p, m - p) for p in range((m + params.alpha) // 2 % 2, m + 1, 2))


class OmegaImage(NamedTuple):
    """The image of one coinvariant space inside its target module.

    ``shape`` is "single" (the image is the constituent ``generator``) or
    "generated" (the image is the submodule generated by ``generator``);
    ``members`` lists the constituents of the image either way.  This is a
    K-type-level identification only.
    """

    p: int
    q: int
    target: InducedRepParams
    shape: str
    generator: ConstituentLabel
    members: tuple[ConstituentLabel, ...]


def omega_image(p: int, q: int, n: int) -> OmegaImage:
    """Identify Omega^{p,q} inside its target module.

    The image is the constituent ``generator`` if sigma <= 0 ("single"), else
    the submodule it generates ("generated").  With c = max(0, (n+1-q)//2):

        family R:  R(p//2, q//2) if single, else R(c, max(0, (n+1-p)//2));
        Case 2a:   L(c, min(n//2, p//2));
        Case 2b:   L(min((n+1)//2, p//2), c).

    This folds the case theorems' table, which states each case and sign
    apart.  Proof: sigma_tilde = (p+q+alpha)/2 has the parity of p, and n+p+q
    that of n+alpha, so p is odd in Cases 1a, 2a and even in 1b, 2b, and n+q
    is even in 1a, 2b and odd in 1b, 2a.  Hence the table's (p-1)//2 (1a, 2a)
    is p//2 and its (n-q)//2 (1a, 2b) is (n+1-q)//2.  Its offsets eps =
    1 - (p+q)%2 (1a) and eps' = (p+q)%2 (1b) are 1 iff q is odd, and then n-p
    is even: (q-eps)//2 = q//2 and (n+1-eps-p)//2 = (n+1-p)//2, and likewise
    for eps'.  In Cases 2 sigma is a half-integer, so the table's sigma < 0 is
    sigma <= 0; there p+q <= n, and the max and min do nothing.
    """
    target = induced_params(p, q, n)
    case = classify(target)
    # sigma_tilde = (p + q + alpha)/2 is an integer of the parity of p
    if case is CaseTag.IRREDUCIBLE or p % 2 != (case in (CaseTag.CASE_1A, CaseTag.CASE_2A)):
        raise RuntimeError(f"embedding ({p},{q}) cannot target {target} in {case.value}")
    single = p + q <= n + 1  # sigma <= 0
    c = max(0, (n + 1 - q) // 2)
    if case.family == "R":
        idx = (p // 2, q // 2) if single else (c, max(0, (n + 1 - p) // 2))
    elif case is CaseTag.CASE_2A:
        idx = (c, min(n // 2, p // 2))
    else:
        idx = (min((n + 1) // 2, p // 2), c)
    label = ConstituentLabel(case.family, *idx)
    if single:
        return OmegaImage(p, q, target, "single", label, (label,))
    return OmegaImage(p, q, target, "generated", label, generated_submodule(target, label).members)


class ClauseCheck(NamedTuple):
    name: str
    ok: bool
    detail: str


class SummaryReport(NamedTuple):
    params: InducedRepParams
    regime: str  # "negative", "axis", or "positive"
    checks: tuple[ClauseCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def _fmt_labels(labels) -> str:
    return "{" + ", ".join(str(x) for x in sorted(labels)) + "}"


def check_summary(params: InducedRepParams) -> SummaryReport:
    """Verify the embedding picture at one reducible point.

    Every clause failure is reported with a witness; nothing is silently
    passed over.  Below -rho the picture claims nothing (p+q = 2*sigma+n+1
    would be negative), so such a point is refused like an irreducible one.
    """
    case = classify(params)
    if case is CaseTag.IRREDUCIBLE:
        raise ValueError("check_summary needs a reducible point (sigma_tilde an integer)")
    sigma = params.sigma
    if sigma < -params.rho:
        raise ValueError(
            f"check_summary needs sigma >= -rho = {format_rational(-params.rho)}, "
            f"got sigma = {format_rational(sigma)}"
        )
    embeddings = possible_embeddings(params)
    generators = [omega_image(p, q, params.n).generator for p, q in embeddings]
    distinct = len(set(generators)) == len(generators)

    def unitary(name: str, labels: Iterable[ConstituentLabel], passed: str) -> ClauseCheck:
        bad = [str(lab) for lab in labels if not constituent_unitarizable(params, lab).unitarizable]
        return ClauseCheck(name, not bad, f"not unitarizable: {bad}" if bad else passed)

    if sigma < 0:
        regime = "negative"
        sinks = set(irreducible_submodules(params))
        checks = [
            ClauseCheck(
                "images-distinct",
                distinct,
                f"embeddings {list(embeddings)} -> images {sorted(str(x) for x in generators)}",
            ),
            ClauseCheck(
                "submodules-are-embedding-images",
                set(generators) == sinks,
                f"images {_fmt_labels(generators)} vs irreducible submodules {_fmt_labels(sinks)}",
            ),
            unitary("submodules-unitary", sorted(sinks), "all irreducible submodules unitarizable"),
        ]
    elif sigma == 0:
        regime = "axis"
        diagram = module_diagram(params)
        nodes = set(diagram.nodes)
        checks = [
            ClauseCheck("axis-direct-sum", not diagram.edges, f"{len(diagram.edges)} diagram edges"),
            ClauseCheck(
                "axis-images-exhaust",
                distinct and set(generators) == nodes,
                f"images {_fmt_labels(generators)} vs constituents {_fmt_labels(nodes)}",
            ),
            unitary("axis-summands-unitary", diagram.nodes, "all summands unitarizable"),
        ]
    else:
        regime = "positive"
        missing = sorted(str(x) for x in set(irreducible_quotients(params)) - set(generators))
        checks = [
            ClauseCheck(
                "reducible-iff-embeddings",
                bool(embeddings),
                f"{len(embeddings)} possible embeddings at a reducible point",
            ),
            ClauseCheck(
                "quotients-are-embedding-cosocles",
                not missing,
                f"quotients not reached by any embedding generator: {missing}"
                if missing
                else "every irreducible quotient is the cosocle of some image",
            ),
        ]
    return SummaryReport(params=params, regime=regime, checks=tuple(checks))
