from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dpseries import (
    CaseTag,
    InducedRepParams,
    classify,
    derived,
    format_rational,
    parse_rational,
)

from conftest import params_from_sigma_tilde


def test_classify_worked_points():
    assert classify(InducedRepParams(2, 0, Fraction(0))) is CaseTag.IRREDUCIBLE
    assert classify(InducedRepParams(2, 0, Fraction(1, 2))) is CaseTag.CASE_2B
    assert classify(InducedRepParams(2, 1, Fraction(-1))) is CaseTag.CASE_1A
    assert classify(InducedRepParams(2, 1, Fraction(0))) is CaseTag.CASE_1B


def test_derived_worked_points():
    d = derived(InducedRepParams(2, 1, Fraction(-1)))
    assert (d.rho, d.sigma_tilde, d.n0, d.n1, d.k) == (
        Fraction(3, 2),
        Fraction(1),
        2,
        1,
        1,
    )

    d = derived(InducedRepParams(3, 0, Fraction(0)))
    assert (d.n0, d.n1) == (2, 3)

    d = derived(InducedRepParams(2, 0, Fraction(1, 2)))
    assert d.sigma_tilde == 2
    assert d.k == 1  # (n1 + 1)/2 branch since sigma_tilde is even


def test_k_undefined_at_irreducible_point():
    d = derived(InducedRepParams(2, 0, Fraction(0)))
    with pytest.raises(ValueError, match="k undefined"):
        d.k


def test_input_validation():
    with pytest.raises(ValueError, match="rank below supported range"):
        InducedRepParams(1, 0, Fraction(0))
    with pytest.raises(ValueError, match="alpha"):
        InducedRepParams(2, 7, Fraction(0))
    with pytest.raises(ValueError):
        InducedRepParams(2, 0, "0.5")
    # strings and ints are accepted and normalized
    p = InducedRepParams(2, 0, "-3/2")
    assert p.sigma == Fraction(-3, 2)
    assert InducedRepParams(2, 0, 1).sigma == Fraction(1)


def test_bool_is_no_rank_or_exponent():
    with pytest.raises(ValueError, match="alpha"):
        InducedRepParams(n=4, alpha=True, sigma=0)
    with pytest.raises(ValueError, match="alpha"):
        InducedRepParams(n=4, alpha=False, sigma=0)
    with pytest.raises(ValueError, match="rank"):
        InducedRepParams(n=True, alpha=0, sigma=0)


def test_rational_parsing():
    assert parse_rational("-3/2") == Fraction(-3, 2)
    assert parse_rational(" 7 ") == Fraction(7)
    assert format_rational(Fraction(4, 2)) == "2"
    for bad in ("1.5", "a/b", "1/0", "1/00", "-3/000", "2/-3", ""):
        with pytest.raises(ValueError):
            parse_rational(bad)


@given(st.fractions(max_denominator=12))
def test_rational_round_trip(q):
    assert parse_rational(format_rational(q)) == q


@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=3),
    st.fractions(min_value=-8, max_value=8, max_denominator=6),
)
def test_irreducible_iff_sigma_tilde_not_integral(n, alpha, sigma):
    p = InducedRepParams(n, alpha, sigma)
    assert (classify(p) is CaseTag.IRREDUCIBLE) == (p.sigma_tilde.denominator != 1)


@pytest.mark.parametrize("n", range(2, 8))
def test_largest_even_odd(n):
    d = derived(InducedRepParams(n, 0, Fraction(0)))
    assert d.n0 % 2 == 0 and d.n0 <= n < d.n0 + 2
    assert d.n1 % 2 == 1 and d.n1 <= n < d.n1 + 2
    assert n in (d.n0, d.n1)


def test_case_table_parities():
    # rows: parity of sigma_tilde (odd -> a); columns: parity of n+alpha (odd -> 1)
    for n in range(2, 6):
        for alpha in range(4):
            for st_val in range(-4, 5):
                p = params_from_sigma_tilde(n, alpha, st_val)
                case = classify(p)
                assert case is not CaseTag.IRREDUCIBLE
                expected = {
                    (True, True): CaseTag.CASE_1A,
                    (False, True): CaseTag.CASE_1B,
                    (True, False): CaseTag.CASE_2A,
                    (False, False): CaseTag.CASE_2B,
                }[(st_val % 2 == 1, (n + alpha) % 2 == 1)]
                assert case is expected
