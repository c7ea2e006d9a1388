"""Exact parameters for the degenerate principal series of the metaplectic group.

A representation ``I^alpha(sigma)`` of the rank-``n`` metaplectic group is
indexed by an integer rank ``n >= 2``, a character exponent
``alpha in {0, 1, 2, 3}`` and a rational parameter ``sigma``.  Everything
downstream (reducibility, constituents, module diagrams, unitarity) is
controlled by the shifted parameter

    ``sigma_tilde = sigma + (n + 1 + alpha)/2``

together with the parity of ``n + alpha``:

* ``sigma_tilde`` not an integer: the module is irreducible;
* otherwise the pair (parity of ``sigma_tilde``, parity of ``n + alpha``)
  selects one of four structural cases, named Case 1a/1b/2a/2b.

All arithmetic is exact; ``sigma`` is kept as a ``fractions.Fraction`` and no
floats appear anywhere in the core.  Callers model a "generic" sigma by any
rational whose ``sigma_tilde`` is not an integer.
"""

from __future__ import annotations

import enum
import re
from fractions import Fraction
from typing import NamedTuple

__all__ = [
    "CaseTag",
    "DerivedConstants",
    "InducedRepParams",
    "classify",
    "derived",
    "format_rational",
    "is_integer",
    "parse_integer",
    "parse_rational",
]

# ASCII digits only: int() and Fraction() would also take "1_0" and "\uff12"
_INTEGER_RE = re.compile(r"[+-]?[0-9]+")
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def parse_integer(text: str) -> int:
    """Parse an integer written as ASCII digits with an optional sign (e.g. ``"-3"``)."""
    s = text.strip()
    if not _INTEGER_RE.fullmatch(s):
        raise ValueError(f"not an integer: {text!r}")
    return int(s)


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational written as ``"a"`` or ``"a/b"`` (e.g. ``"-3/2"``)."""
    s = text.strip()
    if not _RATIONAL_RE.fullmatch(s):
        raise ValueError(f"not a rational of the form a or a/b: {text!r}")
    if "/" in s and int(s.split("/")[1]) == 0:
        raise ValueError(f"zero denominator in rational: {text!r}")
    return Fraction(s)


def format_rational(value: Fraction | int) -> str:
    """Format a rational in the same ``"a"`` / ``"a/b"`` syntax accepted by parse."""
    q = Fraction(value)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def is_integer(value: Fraction) -> bool:
    return value.denominator == 1


_FAMILY = {"Case1a": "R", "Case1b": "R", "Case2a": "L", "Case2b": "L"}


class CaseTag(enum.Enum):
    """Reducibility case of ``I^alpha(sigma)``.

    Rows by parity of ``sigma_tilde`` (odd -> a, even -> b), columns by parity
    of ``n + alpha`` (odd -> 1, even -> 2).  ``family`` is the constituent
    family letter: "R" in Cases 1, "L" in Cases 2, None when irreducible.
    ``text`` is the value as a plain attribute, which reads faster than the
    enum's ``value`` descriptor in the per-label views.
    """

    IRREDUCIBLE = "Irreducible"
    CASE_1A = "Case1a"
    CASE_1B = "Case1b"
    CASE_2A = "Case2a"
    CASE_2B = "Case2b"

    def __init__(self, value: str) -> None:
        self.family: str | None = _FAMILY.get(value)
        self.text: str = value


class _Frozen:
    """Base of a NamedTuple subclass that caches state in its ``__dict__``, which
    no assignment or deletion reaches: the record stays immutable."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class _ParamsFields(NamedTuple):
    n: int
    alpha: int
    sigma: Fraction


class InducedRepParams(_ParamsFields, _Frozen):
    """The parameter triple (n, alpha, sigma) of ``I^alpha(sigma)``.

    ``sigma`` may be given as a ``Fraction``, an ``int``, or a string in
    ``"a"``/``"a/b"`` syntax; it is normalized to a ``Fraction``.  Instances
    are immutable and hashable; ``sigma_tilde`` and the hash are computed once,
    as every closed-form view reads them.
    """

    def __new__(cls, n: int, alpha: int, sigma: Fraction | int | str) -> InducedRepParams:
        # type(), not isinstance(): bool is an int subclass, and True is no rank
        if type(n) is not int or n < 2:
            raise ValueError(f"rank below supported range: n must be an integer >= 2, got {n!r}")
        if type(alpha) is not int or alpha not in (0, 1, 2, 3):
            raise ValueError(f"alpha must be one of 0, 1, 2, 3, got {alpha!r}")
        if isinstance(sigma, str):
            sigma = parse_rational(sigma)
        elif isinstance(sigma, int):
            sigma = Fraction(sigma)
        elif not isinstance(sigma, Fraction):
            raise ValueError(f"sigma must be rational, got {sigma!r}")
        self = super().__new__(cls, n, alpha, sigma)
        num, den = sigma.numerator, sigma.denominator  # sigma_tilde = sigma + (n+1+alpha)/2
        sigma_tilde = Fraction(2 * num + (n + 1 + alpha) * den, 2 * den)
        self.__dict__.update(sigma_tilde=sigma_tilde, _hash=hash((n, alpha, sigma)))
        return self

    @classmethod
    def _make(cls, iterable) -> InducedRepParams:  # _replace builds through _make
        return cls(*iterable)

    def __hash__(self) -> int:
        return self._hash

    @property
    def rho(self) -> Fraction:
        """Half sum of positive roots along the relevant torus: (n+1)/2."""
        return Fraction(self.n + 1, 2)

    def __str__(self) -> str:
        return f"I^{self.alpha}({format_rational(self.sigma)})"


def _grid_bound(n: int, sigma_tilde: int) -> int:
    """The index bound k at an integer sigma_tilde: n0/2 when it is odd, (n1+1)/2 when even."""
    return (n + 1 - sigma_tilde % 2) // 2


class DerivedConstants(NamedTuple):
    """Constants derived from the parameter triple.

    ``n0``/``n1`` are the largest even/odd integers <= n.  The index bound
    ``k`` (size of the constituent grid) is defined only at reducible points:
    ``n0/2`` when ``sigma_tilde`` is odd, ``(n1+1)/2`` when it is even.
    """

    rho: Fraction
    sigma_tilde: Fraction
    n0: int
    n1: int

    @property
    def k(self) -> int:
        if not is_integer(self.sigma_tilde):
            raise ValueError("k undefined at irreducible point (sigma_tilde is not an integer)")
        return _grid_bound(max(self.n0, self.n1), int(self.sigma_tilde))


def derived(params: InducedRepParams) -> DerivedConstants:
    """Compute the derived constants of the parameter triple."""
    n = params.n
    n0 = n if n % 2 == 0 else n - 1
    n1 = n if n % 2 == 1 else n - 1
    return DerivedConstants(
        rho=params.rho,
        sigma_tilde=params.sigma_tilde,
        n0=n0,
        n1=n1,
    )


def classify(params: InducedRepParams) -> CaseTag:
    """Classify the parameter point into Irreducible or one of the four cases."""
    st = params.sigma_tilde
    if not is_integer(st):
        return CaseTag.IRREDUCIBLE
    row_a = st.numerator % 2 != 0
    col_1 = (params.n + params.alpha) % 2 != 0
    if col_1:
        return CaseTag.CASE_1A if row_a else CaseTag.CASE_1B
    return CaseTag.CASE_2A if row_a else CaseTag.CASE_2B
