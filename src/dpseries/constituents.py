"""Irreducible constituents of ``I^alpha(sigma)`` as K-type lattice regions.

At a reducible point the K-types split into finitely many regions, each cut
out by at most two barrier "chains" of the form

    2*lam_a >= value >= 2*lam_b        (a < b, value an even integer),

i.e. a lower bound on coordinate ``a`` and an upper bound on coordinate ``b``
of the even lattice ``2*lam``.  Regions are labeled ``R(i,j)`` in Cases 1a/1b
and ``L(i,j)`` in Cases 2a/2b.  Out-of-range coordinate indices follow the
extended conventions ``2*lam_c = +inf`` for ``c <= 0`` and ``-inf`` for
``c > n``, which make the index formulas below total.

The decomposition theorems restrict the label grid to a window of levels
(index sum ``i+j`` for family R, index difference for family L) bounded by
``r1``/``r2``; ``enumerate_constituents`` returns that window as it is.  Its
labels are exactly the grid's labels with nonempty regions, as proved in
``_theorem_range``, so no label is tested for emptiness to build it.
Emptiness of any other region is decided exactly: a region is a coordinate
box intersected with the dominance cone, so normalizing its bounds by
dominance (``Region``) gives its extreme members, and it is empty iff they
cross.

A point's case, the integers its theorems are stated in (the sign of
sigma, ``floor(|sigma|)``, the grid bound k and sigma_tilde) and its window
are computed once and kept in bounded memos, which every function here and
the views in ``structure``, ``unitarity`` and ``howe`` read; a region reads
only the integers, and is built only when asked for.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .parameters import CaseTag, InducedRepParams, _Frozen, _grid_bound, classify
from .ktypes import KType, check_ktype, dominant_extremes

__all__ = [
    "ConstituentLabel",
    "ConstituentSet",
    "Region",
    "enumerate_constituents",
    "is_empty",
    "label_of",
    "parse_label",
    "region_for",
]

_INF = "+inf"
_NEG_INF = "-inf"


class _LabelFields(NamedTuple):
    family: str  # "R" (Cases 1) or "L" (Cases 2)
    i: int
    j: int


class ConstituentLabel(_LabelFields):
    """A constituent's label ``R(i,j)`` or ``L(i,j)``.

    A tuple, so hashing, equality and ordering run on its fields in that
    order; it equals the plain tuple ``(family, i, j)``.
    """

    __slots__ = ()

    def __new__(cls, family: str, i: int, j: int) -> ConstituentLabel:
        if family not in ("R", "L"):
            raise ValueError(f"family must be 'R' or 'L', got {family!r}")
        if i < 0 or j < 0:
            raise ValueError(f"label indices must be >= 0, got ({i},{j})")
        return super().__new__(cls, family, i, j)

    @classmethod
    def _make(cls, iterable) -> ConstituentLabel:  # _replace builds through _make
        return cls(*iterable)

    def __str__(self) -> str:
        return f"{self.family}({self.i},{self.j})"


def parse_label(text: str) -> ConstituentLabel:
    """Parse ``"R(1,0)"`` / ``"L(0,2)"`` back into a label."""
    s = text.strip()
    if len(s) >= 4 and s[0] in "RL" and s[1] == "(" and s.endswith(")"):
        body = s[2:-1].split(",")
        if len(body) == 2:
            try:
                return ConstituentLabel(s[0], int(body[0]), int(body[1]))
            except ValueError:
                pass
    raise ValueError(f"not a constituent label like R(1,0): {text!r}")


class _RegionFields(NamedTuple):
    n: int
    lower: tuple[int | None, ...]
    upper: tuple[int | None, ...]


class Region(_RegionFields, _Frozen):
    """Per-coordinate bounds on ``2*lam``, intersected with the dominance cone.

    ``lower[c-1]``/``upper[c-1]`` bound coordinate c (even integers or None
    for unbounded).  Dominance normalizes the bounds into the extreme members
    (``ktypes.dominant_extremes``).  The region is empty iff the two cross at
    some c, that is iff a lower bound on some a exceeds an upper bound on
    some b <= a; otherwise the greatest member, with the largest finite bound
    (or 0) in its unbounded coordinates, is a member.
    """

    def contains(self, lam: KType) -> bool:
        lam = check_ktype(lam)
        if len(lam) != self.n:
            raise ValueError(f"K-type has length {len(lam)}, region has n={self.n}")
        for x, lo, hi in zip(lam, self.lower, self.upper):
            if lo is not None and 2 * x < lo:
                return False
            if hi is not None and 2 * x > hi:
                return False
        return True

    @functools.cached_property
    def _extremes(self) -> tuple[tuple[int | None, ...], tuple[int | None, ...]] | None:
        # The least and the greatest member of the class docstring, in units
        # of 2*lam; None when they cross.  Computed once per region: every
        # view below reads it.
        return dominant_extremes(self.lower, self.upper)

    def is_empty(self) -> bool:
        """True iff no dominant integer point satisfies the bounds."""
        return self._extremes is None

    def single_point(self) -> KType | None:
        """The unique member K-type, if the region is a single lattice point."""
        ext = self._extremes
        if ext is None or ext[0] != ext[1] or None in ext[0]:
            return None
        return tuple(x // 2 for x in ext[0])

    def describe(self) -> str:
        """Human-readable membership condition in lambda units."""
        if self.is_empty():
            return "{empty}"
        point = self.single_point()
        if point is not None:
            return "{lambda=(" + ",".join(str(x) for x in point) + ")}"
        parts = []
        for c, (lo, hi) in enumerate(zip(self.lower, self.upper), start=1):
            if lo is not None and hi is not None:
                if lo == hi:
                    parts.append(f"lambda_{c} = {lo // 2}")
                else:
                    parts.append(f"{lo // 2} <= lambda_{c} <= {hi // 2}")
            elif lo is not None:
                parts.append(f"lambda_{c} >= {lo // 2}")
            elif hi is not None:
                parts.append(f"lambda_{c} <= {hi // 2}")
        if not parts:
            return "{all K-types}"
        return "{" + ", ".join(parts) + "}"

    def to_json(self) -> list[dict]:
        return [
            {"coord": c, "lo": _NEG_INF if lo is None else lo, "hi": _INF if hi is None else hi}
            for c, (lo, hi) in enumerate(zip(self.lower, self.upper), start=1)
        ]

    @classmethod
    def from_json(cls, data: list[dict]) -> "Region":
        entries = sorted(data, key=lambda e: e["coord"])
        lower = tuple(None if e["lo"] == _NEG_INF else int(e["lo"]) for e in entries)
        upper = tuple(None if e["hi"] == _INF else int(e["hi"]) for e in entries)
        return cls(n=len(entries), lower=lower, upper=upper)


class ConstituentSet(NamedTuple):
    """The constituents at a reducible point, in lexicographic order.

    ``labels`` is the theorem window, nonempty by ``_theorem_range``'s proof.
    """

    case: CaseTag
    labels: tuple[ConstituentLabel, ...]
    index_bound: tuple[str, int] | None  # ("r1"|"r2", value), None on the unitary axis


class _Integers(NamedTuple):
    """The integers a reducible point's theorems are stated in, and its case."""

    case: CaseTag
    sign: int  # of sigma: -1, 0 or 1
    m: int  # floor(|sigma|): |sigma| in Cases 1, |sigma| - 1/2 in Cases 2
    k: int  # the grid bound: n0/2 at odd sigma_tilde, (n1+1)/2 at even
    st: int  # sigma_tilde


class _Point(NamedTuple):
    """Everything the closed-form views read at one reducible point: its integers and theorem window."""

    case: CaseTag  # case, sign, m, k and st as in _Integers
    sign: int
    m: int
    k: int
    st: int
    index_bound: tuple[str, int] | None
    labels: tuple[ConstituentLabel, ...]  # the theorem window, nonempty by proof, sorted
    label_set: frozenset[ConstituentLabel]
    rows: tuple[tuple[int, int, int], ...]  # (start, stop, j0): labels[start + j - j0] is (i, j) in row i


# Points kept in each memo.  The views of one point all read its record, so a
# few suffice.  A record holds its integers and labels, no regions: the
# largest at n = 16 (53 labels) holds about 8 kB.
_POINTS_KEPT = 32


@functools.lru_cache(maxsize=_POINTS_KEPT)
def _integers(params: InducedRepParams) -> _Integers:
    """The point's case, sign, floor(|sigma|), k and sigma_tilde, computed once: all that ``region_for`` reads."""
    case = classify(params)
    if case is CaseTag.IRREDUCIBLE:
        raise ValueError(
            "constituents are defined only at reducible points (sigma_tilde must be an integer)"
        )
    num, den = params.sigma.numerator, params.sigma.denominator
    st = params.sigma_tilde.numerator  # its denominator is 1 at a reducible point
    return _Integers(case, (num > 0) - (num < 0), abs(num) // den, _grid_bound(params.n, st), st)


@functools.lru_cache(maxsize=_POINTS_KEPT)
def _point(params: InducedRepParams) -> _Point:
    """The point's integers and theorem window, about n**2/8 labels, computed once.

    The window's labels are the constituents as they stand: each region in it
    is nonempty and each grid label outside it has an empty region, as
    ``_theorem_range`` proves case by case, so no region is tested here.
    """
    pt = _integers(params)
    labels, bound = _theorem_range(params, pt.case, pt.sign, pt.m, pt.k)
    # row i of the window is _theorem_range's run of j over [j0, j1], so its labels are consecutive
    i_max, j_max, lo, hi, slope, _ = _band(params, pt.case, pt.sign, pt.m, pt.k)
    rows, start = [], 0
    for i in range(i_max + 1):
        j0 = max(lo + slope * i, 0)
        stop = start + max(min(hi + slope * i, j_max) + 1 - j0, 0)
        rows.append((start, stop, j0))
        start = stop
    return _Point(*pt, bound, labels, frozenset(labels), tuple(rows))


def _require_definable(params: InducedRepParams, pt: _Integers, label: ConstituentLabel) -> None:
    """Raise ValueError unless the label lies in the case's full index grid."""
    if label.family == "R":
        definable = label.i + label.j <= pt.k
    else:
        definable = label.i <= (params.n + 1) // 2 and label.j <= params.n // 2
    if label.family != pt.case.family or not definable:
        raise ValueError(f"label undefined here: {label} at {params} ({pt.case.value})")


def _chains(params: InducedRepParams, pt: _Integers, label: ConstituentLabel) -> list[tuple[int, int, int]]:
    """The two defining chains (lo_coord, even value, hi_coord) of a region.

    Each chain sits on a barrier between coordinates a and a+2: its value is
    either ``barrier_plus(a+2) = a+1-st`` or ``barrier_minus(a) = st-(n+alpha)+a``.
    The low coordinates are (2i, 2k-2j) in Case 1a, (2i-1, 2k-1-2j) in Case
    1b and (2i-1, 2j) in Cases 2a/2b; the first takes the plus barrier in Case
    2b and in family R at sigma < 0, the minus barrier otherwise.  2k is n0
    in Case 1a, and 2k-1 is n1 in Case 1b.

    On the index grid every chain has a <= n and a+2 >= 1: 0 <= 2i <= 2k <= n
    and 0 <= 2k-2j <= 2k in Case 1a, -1 <= 2i-1, 2k-1-2j <= 2k-1 <= n in Case
    1b, and -1 <= 2i-1 <= n1, 0 <= 2j <= n0 in Cases 2.  So a chain never
    compares an infinite extended coordinate with its value from the wrong side.
    """
    st, case, i, j = pt.st, pt.case, label.i, label.j
    if case is CaseTag.CASE_1A:
        first, second = 2 * i, 2 * (pt.k - j)
    elif case is CaseTag.CASE_1B:
        first, second = 2 * i - 1, 2 * (pt.k - j) - 1
    else:
        first, second = 2 * i - 1, 2 * j
    minus = st - (params.n + params.alpha)  # barrier_minus(a) = minus + a
    if case is CaseTag.CASE_2B or (case.family == "R" and pt.sign < 0):
        return [(first, first + 1 - st, first + 2), (second, minus + second, second + 2)]
    return [(first, minus + first, first + 2), (second, second + 1 - st, second + 2)]


def _build_region(params: InducedRepParams, pt: _Integers, label: ConstituentLabel) -> Region:
    """The region cut out by the label's two chains (a, value, b), each 2*lam_a >= value >= 2*lam_b.

    A bound on a coordinate <= 0 or > n holds at +-inf and is dropped; where
    both chains bound one coordinate from one side, the tighter bound stays.
    """
    n = params.n
    chains = _chains(params, pt, label)
    for _, value, _ in chains:
        if value % 2 != 0:
            raise RuntimeError(f"region chain of {label} at {params} sits on odd position {value}")
    (a1, v1, b1), (a2, v2, b2) = chains
    lower: list[int | None] = [None] * n
    upper: list[int | None] = [None] * n
    if a1 >= 1:  # +inf >= value holds for a <= 0
        lower[a1 - 1] = v1
    if a2 >= 1:
        lower[a2 - 1] = v2 if a2 != a1 else max(v1, v2)
    if b1 <= n:  # -inf <= value holds for b > n
        upper[b1 - 1] = v1
    if b2 <= n:
        upper[b2 - 1] = v2 if b2 != b1 else min(v1, v2)
    return tuple.__new__(Region, (n, tuple(lower), tuple(upper)))  # past the keyword __new__, as _theorem_range


def region_for(params: InducedRepParams, label: ConstituentLabel) -> Region:
    """The lattice region of a constituent label.

    Defined for every label of the case's full index grid (0 <= i+j <= k for
    family R, the rectangle S(n) for family L); labels outside the grid raise
    ValueError.  The resulting region may be empty.
    """
    pt = _integers(params)
    _require_definable(params, pt, label)
    return _build_region(params, pt, label)


def is_empty(params: InducedRepParams, label: ConstituentLabel) -> bool:
    """True iff the label's region contains no dominant lattice point.

    The theorem window is exactly the grid's nonempty labels (proved in
    ``_theorem_range``), so this is window membership.  A label outside the
    grid raises ValueError, as in ``region_for``.
    """
    pt = _point(params)
    if label in pt.label_set:
        return False
    _require_definable(params, pt, label)
    return True


def _band(
    params: InducedRepParams, case: CaseTag, sign: int, m: int, k: int
) -> tuple[int, int, int, int, int, tuple[str, int] | None]:
    """The decomposition theorem's label window for the case and sign of sigma.

    Returns (i_max, j_max, lo, hi, slope, bound): the window is the band
    lo <= level <= hi of the grid 0 <= i <= i_max, 0 <= j <= j_max, with
    j = level + slope*i, and bound is its index bound.  In family R the level
    is i+j and the band runs from r = max(k-|sigma|, 0) up to k (only level k
    at sigma = 0).  In family L the level is j-i, and Case 2a at sigma has the
    band of Case 2b at -sigma: -1 <= j-i <= r1 with r1 = min(|sigma|-1/2,
    n//2), or 0 <= i-j <= r2 with r2 = min(|sigma|+1/2, (n+1)//2).
    """
    if case.family == "R":
        i_max = j_max = hi = k
        lo = max(k - m, 0)  # m = |sigma| here
        bound = None if sign == 0 else ("r1" if sign < 0 else "r2", lo)
        slope = -1  # j = level - i
    else:
        i_max, j_max = (params.n + 1) // 2, params.n // 2
        if (case is CaseTag.CASE_2A) == (sign > 0):  # m = |sigma| - 1/2 here
            bound = ("r1", min(m, j_max))
            lo, hi = -1, bound[1]
        else:
            bound = ("r2", min(m + 1, i_max))
            lo, hi = -bound[1], 0
        slope = 1  # j = level + i
    return i_max, j_max, lo, hi, slope, bound


def _theorem_range(
    params: InducedRepParams, case: CaseTag, sign: int, m: int, k: int
) -> tuple[tuple[ConstituentLabel, ...], tuple[str, int] | None]:
    """The labels of ``_band``'s window in sorted order, and its index bound.

    The band is exactly the set of grid labels whose regions are nonempty.
    Proof.  A region is cut out by the chains (f, v1, f+2) and (s, v2, s+2)
    of ``_chains``: lower bounds v1 on 2*lam_f and v2 on 2*lam_s, upper
    bounds v1 on 2*lam_{f+2} and v2 on 2*lam_{s+2}, each dropped when its
    coordinate is <= 0 or > n.  Even bounds on the coordinates of a weakly
    decreasing even point can be met iff no lower bound on a coordinate a
    exceeds an upper bound on a coordinate b <= a, as the dominance
    normalization in ``Region`` shows.  The upper bounds sit two places after
    their own chain's lower bound, so such a pair takes one bound from each
    chain, and the region is empty iff the chains cross the wrong way:

        f+2 <= s and v1 < v2,   or   s+2 <= f and v2 < v1.

    Both bounds of a crossing exist, as every chain has -1 <= a <= n: f+2 <= s
    gives f+2 <= n and s >= 1, and s+2 <= f likewise.  Write st for
    sigma_tilde and N = n+alpha, so 2*sigma = 2*st - N - 1.  A chain takes
    the plus barrier a+1-st or the minus barrier st-N+a, so plus-first chains
    have v1-v2 = -2*sigma - (s-f) and minus-first chains v1-v2 = 2*sigma -
    (s-f).

    Family R, at level l = i+j.  s-f = 2(k-l) in Case 1a (f = 2i, s = 2k-2j)
    and in Case 1b (f = 2i-1, s = 2k-1-2j).  The grid has l <= k, so s+2 <= f
    never holds, and f+2 <= s iff l <= k-1.
      - sigma < 0: plus-first, v1-v2 = 2(|sigma| - (k-l)), which is < 0 iff
        l < k-|sigma| (and then l <= k-1, as |sigma| >= 1).
      - sigma >= 0: minus-first, v1-v2 = 2(sigma - (k-l)), which is < 0 iff
        l < k-sigma (and then l <= k-1).
    So the nonempty levels are l >= k-|sigma|; on the grid (l >= 0) that is
    the band r <= l <= k, and level k alone at sigma = 0.

    Family L, at level l = j-i.  f = 2i-1 and s = 2j, so s-f = 2l+1 is odd:
    f+2 <= s iff l >= 1, and s+2 <= f iff l <= -2; levels -1 and 0 never
    cross.  Put t = sigma in Case 2a (minus-first) and t = -sigma in Case 2b
    (plus-first); then v1-v2 = 2t - 2l - 1 in both, with t a half-integer.
      - l >= 1: empty iff v1 < v2, that is iff l > t-1/2.
      - l <= -2: empty iff v2 < v1, that is iff l < t-1/2.
      - t > 0 (Case 2a at sigma > 0, Case 2b at sigma < 0): no l <= -2 is
        >= t-1/2, so the nonempty levels are -1 <= l <= |sigma|-1/2 = m.
      - t < 0 (the other two): no l >= 1 is <= t-1/2 < 0, so the nonempty
        levels are -(|sigma|+1/2) = -(m+1) <= l <= 0.
    The grid 0 <= i <= (n1+1)/2, 0 <= j <= n0/2 has j-i <= n0/2 = n//2 and
    i-j <= (n1+1)/2 = (n+1)//2, which cuts these to the r1 and r2 bands.  So
    the band holds every nonempty label of the grid and no empty one.
    """
    i_max, j_max, lo, hi, slope, bound = _band(params, case, sign, m, k)
    labels = [  # family R or L and i, j >= 0 by the ranges, so the constructor's checks are skipped
        tuple.__new__(ConstituentLabel, (case.family, i, j))
        for i in range(i_max + 1)
        for j in range(max(lo + slope * i, 0), min(hi + slope * i, j_max) + 1)
    ]
    return tuple(labels), bound


def _window_size(params: InducedRepParams) -> int:
    """The number of labels in a reducible point's window, from its band in closed form.

    Level l holds l+1 labels in family R.  In family L, where lo < 0 <= hi, it
    holds j_max+1-l labels at l >= 0 and i_max+1+l at l < 0, as i_max is
    j_max or j_max+1.  Each sum over the levels is an arithmetic series.
    """
    pt = _integers(params)
    i_max, j_max, lo, hi, _, _ = _band(params, pt.case, pt.sign, pt.m, pt.k)
    if pt.case.family == "R":
        return ((hi + 1) * (hi + 2) - lo * (lo + 1)) // 2
    return ((hi + 1) * (2 * j_max + 2 - hi) - lo * (2 * i_max + 1 + lo)) // 2


def enumerate_constituents(params: InducedRepParams) -> ConstituentSet:
    """All constituents at a reducible point, lexicographically ordered.

    They are the theorem window's labels, nonempty by ``_theorem_range``'s proof.
    """
    pt = _point(params)
    return ConstituentSet(case=pt.case, labels=pt.labels, index_bound=pt.index_bound)


def label_of(params: InducedRepParams, lam: KType) -> ConstituentLabel:
    """The unique constituent whose region holds the K-type ``lam``: 2*lam_a >= v >= 2*lam_b on both its chains."""
    lam = check_ktype(lam)
    if len(lam) != params.n:
        raise ValueError(f"K-type has length {len(lam)}, expected n={params.n}")
    # the extended 2*lam_c at index c+1: +inf at c <= 0, -inf at c > n; chains run over -1 <= c <= n+2
    ext = [float("inf")] * 2 + [2 * x for x in lam] + [float("-inf")] * 2
    pt = _point(params)
    hits = [lab for lab in pt.labels if all(ext[a + 1] >= v >= ext[b + 1] for a, v, b in _chains(params, pt, lab))]
    if len(hits) != 1:
        raise RuntimeError(f"constituent partition violated at lambda={lam} for {params}: hits={hits}")
    return hits[0]
