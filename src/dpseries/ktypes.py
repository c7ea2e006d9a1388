"""The K-type lattice of ``I^alpha(sigma)`` and its transition coefficients.

``I^alpha(sigma)`` restricted to the maximal compact subgroup is multiplicity
free, with one K-type for each weakly decreasing integer n-tuple ``lam``
(the K-type's highest weight is ``2*lam + (alpha/2)*(1,...,1)``).  Moving one
step in the lattice, ``lam -> lam + e_j`` or ``lam -> lam - e_j``, carries a
scalar transition coefficient

    up:   b_plus(j)  - 2*lam_j
    down: 2*lam_j    - b_minus(j)

where ``b_plus(j) = -sigma_tilde + j - 1`` and
``b_minus(j) = sigma_tilde - (n + alpha) + j``.  A nonzero coefficient means
the target K-type lies in the submodule generated by the source; a zero
coefficient is a barrier.  The barrier hyperplane ``x_j = b`` is *effective*
exactly when ``b`` is an even integer, so that it actually cuts the even
lattice ``2*lam``.

Coefficients are exact rationals; "blocked" always means exactly zero.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Iterator, Sequence

from .parameters import InducedRepParams, is_integer, parse_integer

__all__ = [
    "barrier_minus",
    "barrier_plus",
    "blocked_positions",
    "check_ktype",
    "dominant_extremes",
    "format_ktype",
    "neighbors",
    "parse_ktype",
    "transition",
    "transitions",
]

KType = tuple[int, ...]


def check_ktype(lam: Iterable[int]) -> KType:
    """Validate and normalize a K-type index to a weakly decreasing int tuple."""
    t = tuple(lam)
    if not t or not all(isinstance(x, int) for x in t):
        raise ValueError(f"K-type index must be a nonempty tuple of integers, got {t!r}")
    if any(t[i] < t[i + 1] for i in range(len(t) - 1)):
        raise ValueError(f"K-type index must be weakly decreasing, got {t!r}")
    return t


def parse_ktype(text: str) -> KType:
    """Parse comma-separated integers like ``"1,0,-2"`` into a K-type index."""
    try:
        entries = tuple(parse_integer(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"not a comma-separated integer tuple: {text!r}") from None
    return check_ktype(entries)


def format_ktype(lam: KType) -> str:
    return ",".join(str(x) for x in lam)


def dominant_extremes(lower: Sequence[int | None], upper: Sequence[int | None]) -> tuple[tuple, tuple] | None:
    """The least and the greatest weakly decreasing x with lower <= x <= upper (None bounds nothing).

    Coordinate c of the greatest is the least upper bound at or before c, and
    of the least the greatest lower bound at or after c (None where there is
    none).  Every such x lies between the two, and there is one iff they
    cross at no c; otherwise this returns None.
    """

    def running(bounds, pick):
        return tuple(accumulate(bounds, lambda a, b: b if a is None else a if b is None else pick(a, b)))

    greatest = running(upper, min)
    least = running(lower[::-1], max)[::-1]
    if any(b is not None and t is not None and b > t for b, t in zip(least, greatest)):
        return None
    return least, greatest


def barrier_plus(params: InducedRepParams, j: int) -> Fraction:
    """Position of the rightward barrier in coordinate j (any integer j)."""
    return -params.sigma_tilde + j - 1


def barrier_minus(params: InducedRepParams, j: int) -> Fraction:
    """Position of the leftward barrier in coordinate j (any integer j)."""
    return params.sigma_tilde - (params.n + params.alpha) + j


def transition(params: InducedRepParams, lam: KType, j: int, direction: str) -> Fraction:
    """Transition coefficient from the K-type at ``lam`` to ``lam +- e_j``.

    ``direction`` is "up" (+e_j) or "down" (-e_j).  Raises ValueError when the
    moved tuple is not weakly decreasing ("no such K-type"), which is distinct
    from returning a zero coefficient.
    """
    lam = check_ktype(lam)
    if not 1 <= j <= params.n:
        raise ValueError(f"coordinate out of range: j={j} for n={params.n}")
    if direction not in ("up", "down"):
        raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")
    step = 1 if direction == "up" else -1
    coeff = _coefficient(params, lam, j, step)
    if coeff is None:
        moved = lam[: j - 1] + (lam[j - 1] + step,) + lam[j:]
        raise ValueError(f"no such K-type: {moved} is not dominant")
    return coeff


def transitions(params: InducedRepParams, lam: KType) -> Iterator[tuple[int, str, Fraction | None]]:
    """Every ``transition`` from the n-tuple ``lam`` as (j, direction,
    coefficient), by coordinate, "up" before "down"; the coefficient is None
    where the moved tuple is not dominant.  ``lam`` is validated once, so this
    is O(n)."""
    lam = check_ktype(lam)
    for j in range(1, params.n + 1):
        yield j, "up", _coefficient(params, lam, j, 1)
        yield j, "down", _coefficient(params, lam, j, -1)


def _coefficient(params: InducedRepParams, lam: KType, j: int, step: int) -> Fraction | None:
    """``transition`` from a valid ``lam`` to lam + step*e_j, or None when that
    is not dominant, which only lam's neighbours in coordinates j-1 and j+1 decide."""
    if step == 1:
        if j > 1 and lam[j - 2] == lam[j - 1]:
            return None
        return barrier_plus(params, j) - 2 * lam[j - 1]
    if j < len(lam) and lam[j] == lam[j - 1]:
        return None
    return 2 * lam[j - 1] - barrier_minus(params, j)


def neighbors(lam: KType) -> list[tuple[KType, int, str]]:
    """All dominant one-step moves from ``lam``, as (target, coordinate, direction).

    Ordered by coordinate, "up" before "down".
    """
    lam = check_ktype(lam)
    n = len(lam)
    out: list[tuple[KType, int, str]] = []
    for j in range(1, n + 1):
        if j == 1 or lam[j - 2] >= lam[j - 1] + 1:
            out.append((lam[: j - 1] + (lam[j - 1] + 1,) + lam[j:], j, "up"))
        if j == n or lam[j] <= lam[j - 1] - 1:
            out.append((lam[: j - 1] + (lam[j - 1] - 1,) + lam[j:], j, "down"))
    return out


def blocked_positions(
    params: InducedRepParams,
) -> tuple[tuple[int | None, ...], tuple[int | None, ...]]:
    """Zero locus of ``transition`` per coordinate, in ``2*lam`` units.

    Returns ``(up, down)`` where ``up[j-1]`` is the even integer position at
    which the up-move in coordinate j is blocked (``transition == 0``), or
    None when no even lattice point is ever blocked; the oracle's cut values
    (``oracle.cells``) come from it.  These are the effective barriers in
    integers: with st = sigma_tilde, ``up[j-1] = j-1-st`` and ``down[j-1] =
    st-(n+alpha)+j`` when even, and all None when st is not an integer.

    Hermitian duality: at -sigma, st' = n+1+alpha-st makes ``down'[j-1] =
    up[j-1] + 2`` and ``up'[j-1] = down[j-1] - 2``, so the two cut values of
    each coordinate (``oracle.cells``) swap roles and every one-way edge turns.
    """
    n, st = params.n, params.sigma_tilde
    if not is_integer(st):
        return (None,) * n, (None,) * n
    st = int(st)
    up = (j - 1 - st for j in range(1, n + 1))
    down = (st - (n + params.alpha) + j for j in range(1, n + 1))
    return (
        tuple(b if b % 2 == 0 else None for b in up),
        tuple(b if b % 2 == 0 else None for b in down),
    )
