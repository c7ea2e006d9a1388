"""Unitarizability: complementary series and per-constituent verdicts.

The full module ``I^alpha(sigma)`` carries an invariant inner product iff the
step ratio

    n_ratio(lam, j) = (-sigma - xi) / (-sigma + xi),
    xi = (n+1)/2 + alpha/2 + 2*lam_j - j + 1

is negative for every K-type and coordinate; for real sigma this reads
``|sigma| < |xi|``.  The minimum of ``|xi|`` over the lattice is 1/2 when
``n + alpha`` is even and 0 otherwise, which gives the complementary series
interval ``|sigma| < 1/2`` in the even-parity case.

Unitarizability of an individual constituent is decided by the explicit
clauses of the case theorems (one clause for family R, one per band kind
for family L); the verdict records exactly which clause applied.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .parameters import InducedRepParams
from .ktypes import KType, check_ktype
from .constituents import ConstituentLabel, _Point, _point

__all__ = [
    "UnitarityVerdict",
    "complementary_series",
    "constituent_unitarizable",
    "n_ratio",
    "nonunitarity_witness",
    "xi",
]

_HALF = Fraction(1, 2)


def xi(params: InducedRepParams, lam: KType, j: int) -> Fraction:
    lam = check_ktype(lam)
    if not 1 <= j <= params.n:
        raise ValueError(f"coordinate out of range: j={j} for n={params.n}")
    return params.rho + Fraction(params.alpha, 2) + 2 * lam[j - 1] - j + 1


def n_ratio(params: InducedRepParams, lam: KType, j: int) -> Fraction:
    """Ratio -c_lam / c_(lam + e_j) of invariant-form constants.

    Negative for all (lam, j) iff the full module is unitarizable.  Raises
    ValueError when the denominator vanishes (the form degenerates there).
    """
    x = xi(params, lam, j)
    denominator = -params.sigma + x
    if denominator == 0:
        raise ValueError(f"form degenerates at this K-type: lambda={lam}, j={j}")
    return (-params.sigma - x) / denominator


def complementary_series(params: InducedRepParams) -> bool:
    """Whether the full module is unitarizable on the real axis.

    True on the unitary axis sigma = 0 and, when ``n + alpha`` is even, on the
    open interval |sigma| < 1/2.
    """
    if params.sigma == 0:
        return True
    return (params.n + params.alpha) % 2 == 0 and abs(params.sigma) < _HALF


def nonunitarity_witness(params: InducedRepParams) -> tuple[KType, int] | None:
    """A (lambda, j) in the radius-6 window with n_ratio >= 0 or a degenerate form, or None.

    Both read |xi| <= |sigma| for real sigma: xi = sigma degenerates the form,
    and otherwise the ratio is >= 0 iff sigma**2 >= xi**2.  Witnesses exist
    whenever ``complementary_series`` is False and |sigma| >= the minimal |xi|.

    The witness is the first probe of the scan of the weakly decreasing
    tuples in [-6, 6]**n in decreasing lexicographic order
    (``combinations_with_replacement(range(6, -7, -1), n)``), j running from
    1 to n at each tuple; it is found in O(n) without the scan.  Proof.
    xi(lam, j) = rho + alpha/2 + 2*lam_j - j + 1 reads lam only through lam_j
    and increases with it, so the probe passes at (lam, j) iff lam_j lies in
    an interval of [-6, 6]; let g_j be its greatest value, where it is
    nonempty.  The greatest tuple passing at j is c_j = (6,)*(j-1) +
    (g_j,)*(n-j+1): no coordinate before j exceeds 6, lam_j <= g_j, and none
    after j exceeds lam_j, and c_j reaches each bound.  So the first probe is
    at the greatest c_j.  If some g_j is 6, that is (6,)*n, and it passes
    first at the least such j.  Otherwise c_j < c_k for j < k, as they first
    differ at j, where c_j holds g_j < 6; so the greatest is c_j at the last
    j with an interval, and its coordinates before j, which hold 6, pass
    nowhere, so its witness is j.
    """
    n, bound = params.n, abs(params.sigma)
    last = None  # (j, g_j) at the last j with an interval so far
    for j in range(1, n + 1):
        shift = params.rho + Fraction(params.alpha, 2) - j + 1  # xi = shift + 2*lam_j
        g = min(6, math.floor((bound - shift) / 2))  # the greatest lam_j with xi <= |sigma|
        if g >= -6 and shift + 2 * g >= -bound:
            if g == 6:
                return (6,) * n, j
            last = j, g
    if last is None:
        return None
    j, g = last
    return (6,) * (j - 1) + (g,) * (n - j + 1), j


class UnitarityVerdict(NamedTuple):
    unitarizable: bool
    reason: str  # names the exact clause that decided the verdict


def constituent_unitarizable(
    params: InducedRepParams, label: ConstituentLabel
) -> UnitarityVerdict:
    """Unitarizability of one constituent, per the case theorems' clauses.

    Family R has one clause for both signs of sigma, read through |sigma|.
    Family L has one clause per band kind: Case 2a at sigma shares its band
    (and so its clause) with Case 2b at -sigma.  The verdict is one of the
    point's at most three, built once per point by ``_clauses``.
    """
    pt = _point(params)
    if label not in pt.label_set:
        raise ValueError(f"label is not a nonempty constituent here: {label} at {params}")
    ci, cj, first, second, corner, verdicts = pt._verdicts
    _, i, j = label
    level = ci * i + cj * j
    if level == first:
        return verdicts[0]
    if level == second or i == corner or j == corner:
        return verdicts[1]
    return verdicts[2]


# Below every level ci*i + cj*j and every index of a window label, so a clause keyed to it never holds.
_NEVER = -2


def _clauses(pt: _Point) -> tuple[int, int, int, int, int, tuple[UnitarityVerdict, ...]]:
    """The point's clauses as (ci, cj, first, second, corner, verdicts).

    A label (i, j) of the window gets verdicts[0] when its level ci*i + cj*j
    is ``first``, verdicts[1] when the level is ``second`` or i or j is
    ``corner``, and verdicts[2] otherwise; at most one of these tests holds.
    The level is i+j in family R and the band's j-i (r1) or i-j (r2) in
    family L.  At sigma = 0 every label gets the one verdict.
    Family R: the first clause is level r when m <= k, the second the corners
    (k, 0) and (0, k) in Case 1b at odd n, where i + j <= k makes i = k or
    j = k a corner; off the axis m >= 1, so r = max(k-m, 0) < k.  Family L: the
    first clause is level -1 (r1) or 0 (r2), the second level r when m <= k0
    (r1) or m + 1 <= k1 (r2), and r >= 0 (r1) or r >= 1 (r2).
    """
    case, name, m, k = pt.case, pt.case.text, pt.m, pt.k
    if pt.sign == 0:  # family R alone has sigma = 0
        return 0, 0, 0, _NEVER, _NEVER, (UnitarityVerdict(True, f"{name}-sigma=0-direct-sum"),)
    band, r = pt.index_bound
    unit = "1" if pt.family == "R" else "1/2"  # the least |sigma| off the unitary axis
    tag = f"{name}-sigma<=-{unit}" if pt.sign < 0 else f"{name}-sigma>={unit}"

    if pt.family == "R":  # m = |sigma| here, and r = max(k-m, 0)
        # n odd makes alpha even in Case 1, and k = (n+1)/2 in Case 1b
        corner = k if case.row == "b" and pt.n % 2 == 1 else _NEVER
        bounds = f"-{k}<=sigma<=-1" if pt.sign < 0 else f"1<=sigma<={k}"
        return 1, 1, r if m <= k else _NEVER, _NEVER, corner, (
            UnitarityVerdict(True, f"{tag}-(i+j={band})"),
            UnitarityVerdict(True, "Case1b-exceptional-(n odd, alpha in {0,2})"),
            UnitarityVerdict(False, f"{tag}: needs {bounds} and i+j={band}={r}"),
        )

    # m = |sigma| - 1/2 here, sigma being a half-integer
    if band == "r1":
        # band -1 <= j-i <= r1, r1 = min(|sigma|-1/2, k0)
        k0 = pt.n // 2  # largest i with an i<->i barrier pair in family L
        bound = f"sigma<={k0}+1/2" if pt.sign > 0 else f"sigma>=-{k0}-1/2"
        return -1, 1, -1, r if m <= k0 else _NEVER, _NEVER, (
            UnitarityVerdict(True, f"{tag}-(i=j+1)"),
            UnitarityVerdict(True, f"{tag}-(j-i=r1)"),
            UnitarityVerdict(False, f"{tag}: needs i=j+1, or {bound} and j-i=r1={r}"),
        )
    # band 0 <= i-j <= r2, r2 = min(|sigma|+1/2, k1)
    k1 = (pt.n + 1) // 2
    bound = f"sigma<={k1}-1/2" if pt.sign > 0 else f"sigma>=-{k1}+1/2"
    return 1, -1, 0, r if m + 1 <= k1 else _NEVER, _NEVER, (
        UnitarityVerdict(True, f"{tag}-(i=j)"),
        UnitarityVerdict(True, f"{tag}-(i-j=r2)"),
        UnitarityVerdict(False, f"{tag}: needs i=j, or {bound} and i-j=r2={r}"),
    )
