from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dpseries import (
    InducedRepParams,
    barrier_minus,
    barrier_plus,
    format_ktype,
    neighbors,
    parse_ktype,
    transition,
)
from dpseries.ktypes import blocked_positions, check_ktype, transitions
from dpseries.oracle import auto_lmax

from conftest import dominant_window, params_from_sigma_tilde


P_CASE1A = InducedRepParams(2, 1, Fraction(-1))
P_CASE2B = InducedRepParams(2, 0, Fraction(1, 2))


def test_barrier_positions_worked_points():
    assert [barrier_plus(P_CASE1A, j) for j in (0, 1, 2, 3)] == [-2, -1, 0, 1]
    assert [barrier_minus(P_CASE1A, j) for j in (0, 1, 2, 3)] == [-2, -1, 0, 1]
    assert [barrier_plus(P_CASE2B, j) for j in (1, 2)] == [-2, -1]
    assert [barrier_minus(P_CASE2B, j) for j in (1, 2)] == [1, 2]


@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=3),
    st.fractions(min_value=-8, max_value=8, max_denominator=6),
    st.integers(min_value=-4, max_value=10),
)
def test_gap_identity(n, alpha, sigma, j):
    p = InducedRepParams(n, alpha, sigma)
    assert barrier_plus(p, j) - barrier_minus(p, j) == -2 * sigma - 2


def test_transition_worked_points():
    assert transition(P_CASE1A, (1, 0), 2, "up") == 0
    assert transition(P_CASE1A, (1, 0), 2, "down") == 0  # gap is 0 here
    assert transition(P_CASE2B, (0, 0), 1, "up") == -2


def test_transition_rejects_non_dominant_target():
    with pytest.raises(ValueError, match="no such K-type"):
        transition(P_CASE1A, (1, 1), 1, "down")  # (0,1) not dominant
    with pytest.raises(ValueError, match="no such K-type"):
        transition(P_CASE1A, (1, 1), 2, "up")
    with pytest.raises(ValueError, match="coordinate out of range"):
        transition(P_CASE1A, (1, 0), 3, "up")


def test_transitions_match_transition():
    for n in (2, 3, 4):
        for sigma_tilde in (-3, Fraction(1, 2), 0, 1, 4, 7):
            params = params_from_sigma_tilde(n, 1, sigma_tilde)
            for lam in dominant_window(n, 2):
                expected = []
                for j in range(1, n + 1):
                    for direction in ("up", "down"):
                        try:
                            expected.append((j, direction, transition(params, lam, j, direction)))
                        except ValueError:
                            expected.append((j, direction, None))
                assert list(transitions(params, lam)) == expected, (params, lam)
    with pytest.raises(ValueError, match="weakly decreasing"):
        list(transitions(P_CASE1A, (0, 1)))


@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=0, max_value=3),
    st.fractions(min_value=-6, max_value=6, max_denominator=4),
)
def test_up_down_coefficients_sum_to_gap(n, alpha, sigma):
    p = InducedRepParams(n, alpha, sigma)
    lam = tuple(range(n, 0, -1))
    for j in range(1, n + 1):
        total = transition(p, lam, j, "up") + transition(p, lam, j, "down")
        assert total == -2 * sigma - 2


def test_effective_barriers_worked_points():
    assert blocked_positions(InducedRepParams(2, 0, Fraction(0))) == ((None, None), (None, None))
    assert blocked_positions(P_CASE1A) == ((None, 0), (None, 0))
    assert blocked_positions(P_CASE2B) == ((-2, None), (None, 2))


def test_effective_barrier_parity_laws():
    for n in range(2, 6):
        for alpha in range(4):
            for st_val in range(-5, 6):
                p = params_from_sigma_tilde(n, alpha, st_val)
                for up, down in zip(*blocked_positions(p)):
                    if (n + alpha) % 2 == 1:
                        # both barriers effective on a coordinate, or neither
                        assert (up is None) == (down is None)
                    else:
                        # exactly one barrier effective on every coordinate
                        assert (up is None) != (down is None)


def test_zero_coefficient_only_at_reducible_points():
    p = InducedRepParams(3, 1, Fraction(1, 3))
    for lam in dominant_window(3, 3):
        for target, j, direction in neighbors(lam):
            assert transition(p, lam, j, direction) != 0


def test_neighbors_worked_points():
    assert neighbors((0, 0)) == [((1, 0), 1, "up"), ((0, -1), 2, "down")]
    got = [t for t, _, _ in neighbors((2, 0))]
    assert got == [(3, 0), (1, 0), (2, 1), (2, -1)]
    assert [t for t, _, _ in neighbors((1, 1))] == [(2, 1), (1, 0)]


def test_ktype_parse_format():
    assert parse_ktype("1,0,-2") == (1, 0, -2)
    assert format_ktype((1, 0, -2)) == "1,0,-2"
    with pytest.raises(ValueError, match="weakly decreasing"):
        parse_ktype("0,1")
    with pytest.raises(ValueError):
        parse_ktype("1,a")
    for bad in ("1_0,0", "\uff12,0", "1,0.0"):
        with pytest.raises(ValueError, match="not a comma-separated integer tuple"):
            parse_ktype(bad)
    with pytest.raises(ValueError, match="weakly decreasing"):
        check_ktype((0, 1))


def test_blocked_positions_match_transition_zero_locus():
    # The oracle reads its edges from blocked_positions; pin it to transition()
    # on every move out of each window below (radius 4 at n 2 and 3, 3 at n 4
    # and 2 at n 5 and 6).  sigma_tilde 3/2 adds I^0(0) at n 2.
    sigma_tildes = [Fraction(s) for s in range(-6, 7)] + [Fraction(t, 2) for t in (-7, 1, 3, 5)]
    for n, radius in ((2, 4), (3, 4), (4, 3), (5, 2), (6, 2)):
        window = dominant_window(n, radius)
        for alpha in range(4):
            for st in sigma_tildes:
                p = params_from_sigma_tilde(n, alpha, st)
                up, down = blocked_positions(p)
                for lam in window:
                    for target, j, direction in neighbors(lam):
                        coeff = transition(p, lam, j, direction)
                        block = up[j - 1] if direction == "up" else down[j - 1]
                        assert (coeff == 0) == (block is not None and 2 * lam[j - 1] == block), (p, lam, j, direction)


def test_blocked_positions_and_auto_lmax_match_the_fraction_barriers():
    sigma_tildes = [Fraction(st) for st in range(-20, 21)]
    sigma_tildes += [Fraction(sign * t, 2) for sign in (1, -1) for t in (1, 7)]
    for n in range(2, 10):
        for alpha in range(4):
            for st in sigma_tildes:
                p = params_from_sigma_tilde(n, alpha, st)
                up, down = (
                    tuple(
                        int(b) if b.denominator == 1 and b % 2 == 0 else None
                        for b in (barrier(p, j) for j in range(1, n + 1))
                    )
                    for barrier in (barrier_plus, barrier_minus)
                )
                assert blocked_positions(p) == (up, down), p
                far = max((abs(b) for b in up + down if b is not None), default=0)
                assert auto_lmax(p) == (far + 1) // 2 + 3, p
