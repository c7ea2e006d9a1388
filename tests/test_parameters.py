from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dpseries import (
    CaseTag,
    InducedRepParams,
    classify,
    derived,
    format_rational,
    parse_integer,
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
    for bad in ("1.5", "a/b", "1/0", "1/00", "-3/000", "2/-3", "", "1_0", "\uff12", "1/\uff12"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_integer_parsing():
    assert parse_integer("-3") == -3
    assert parse_integer(" +7 ") == 7
    assert parse_integer("007") == 7
    for bad in ("1_0", "\uff12", "\u0663", "1.0", "", "+", "0x10", "1 0", "--1"):
        with pytest.raises(ValueError, match="not an integer"):
            parse_integer(bad)


def test_params_from_any_sigma_form_share_hash_and_sigma_tilde():
    for n, alpha, forms in [
        (4, 1, ("3/2", Fraction(3, 2), Fraction(6, 4))),
        (5, 2, (-2, "-2", Fraction(-2), "-4/2")),
        (2, 0, (0, "0", Fraction(0))),
    ]:
        points = [InducedRepParams(n, alpha, sigma) for sigma in forms]
        sigma = points[0].sigma
        for p in points:
            assert p == points[0]
            assert hash(p) == hash(points[0]) == hash((n, alpha, sigma))
            assert p.sigma_tilde == sigma + Fraction(n + 1 + alpha, 2)
            assert repr(p) == f"InducedRepParams(n={n}, alpha={alpha}, sigma={sigma!r})"
        assert len(set(points)) == 1
    assert InducedRepParams(4, 1, "3/2") != InducedRepParams(4, 1, "5/2")
    assert InducedRepParams(4, 1, "3/2") != InducedRepParams(4, 3, "3/2")


def test_case_families():
    assert [tag.family for tag in CaseTag] == [None, "R", "R", "L", "L"]


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
