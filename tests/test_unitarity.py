import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dpseries import (
    CaseTag,
    ConstituentLabel,
    InducedRepParams,
    complementary_series,
    constituent_unitarizable,
    enumerate_constituents,
    irreducible_submodules,
    n_ratio,
    nonunitarity_witness,
    parse_label,
    possible_embeddings,
    region_for,
    transition,
)
from dpseries.constituents import _point
from dpseries.ktypes import neighbors
from dpseries.unitarity import UnitarityVerdict, xi

from conftest import dominant_window, params_from_sigma_tilde


def test_n_ratio_worked_points():
    p = InducedRepParams(2, 0, Fraction(3, 4))
    assert xi(p, (-1, -1), 1) == Fraction(-1, 2)
    assert n_ratio(p, (-1, -1), 1) == Fraction(1, 5)  # positive: not unitarizable

    p = InducedRepParams(2, 0, Fraction(1, 4))
    for lam in [(0, 0), (3, 1), (-2, -4)]:
        for j in (1, 2):
            assert n_ratio(p, lam, j) < 0

    p = InducedRepParams(3, 0, Fraction(0))
    assert n_ratio(p, (2, 1, 0), 1) == -1


def test_n_ratio_degenerate_denominator():
    # xi = sigma makes the denominator vanish
    p = InducedRepParams(2, 1, Fraction(1))
    # xi = 3/2 + 1/2 + 2*lam_1 - 1 + 1 = 2 + 2*lam_1; need 2 + 2 lam_1 == 1: никогда;
    # use j=2: xi = 2 + 2*lam_2 - 1 = 1 + 2*lam_2 == 1 at lam_2 = 0
    with pytest.raises(ValueError, match="form degenerates"):
        n_ratio(p, (0, 0), 2)


def test_n_ratio_is_the_ratio_of_the_transition_coefficients():
    # n_ratio(lam, j) = T_up(lam, j) / T_down(lam + e_j, j) on every dominant
    # up-move, and n_ratio raises exactly where that down coefficient is 0
    degenerate = 0
    for n in (2, 3, 4):
        window = dominant_window(n, 2)
        for alpha in range(4):
            for half in range(-16, 17):
                params = params_from_sigma_tilde(n, alpha, Fraction(half, 2))
                for lam in window:
                    for j in range(1, n + 1):
                        if j > 1 and lam[j - 2] == lam[j - 1]:
                            continue
                        raised = lam[: j - 1] + (lam[j - 1] + 1,) + lam[j:]
                        down = transition(params, raised, j, "down")
                        if down == 0:
                            with pytest.raises(ValueError, match="form degenerates"):
                                n_ratio(params, lam, j)
                            degenerate += 1
                        else:
                            assert n_ratio(params, lam, j) == transition(params, lam, j, "up") / down
    assert degenerate == 845


def test_complementary_series_worked_points():
    assert complementary_series(InducedRepParams(2, 0, Fraction(1, 4)))
    assert not complementary_series(InducedRepParams(2, 0, Fraction(3, 4)))
    assert not complementary_series(InducedRepParams(2, 1, Fraction(1, 4)))
    # unitary axis itself
    assert complementary_series(InducedRepParams(2, 1, Fraction(0)))


def _two_test_witness(params):
    """The witness by its two tests: a degenerate form, then n_ratio >= 0."""
    for lam in itertools.combinations_with_replacement(range(6, -7, -1), params.n):
        for j in range(1, params.n + 1):
            if xi(params, lam, j) == params.sigma or n_ratio(params, lam, j) >= 0:
                return lam, j
    return None


def test_witness_is_the_first_probe_with_xi_within_sigma():
    # |xi| <= |sigma| is the two tests at once: xi = sigma degenerates the
    # form, xi = -sigma gives ratio 0, and else the ratio is >= 0 iff
    # sigma**2 > xi**2.  xi = +-sigma makes sigma_tilde an integer, so the
    # reducible points here are what reach those two edges.
    edges = set()
    for n in range(2, 5):
        for alpha in range(4):
            for q in (1, 2, 3, 4):
                for p in range(-8, 9):
                    params = InducedRepParams(n, alpha, Fraction(p, q))
                    witness = nonunitarity_witness(params)
                    assert witness == _two_test_witness(params), params
                    if witness is not None and abs(xi(params, *witness)) == abs(params.sigma):
                        edges.add(xi(params, *witness) == params.sigma)
    assert edges == {True, False}



def test_witness_at_rank_40_needs_no_scan():
    # a complementary-series point, where the scan of the radius-6 ball would
    # list all C(52, 40) tuples before returning None
    start = time.perf_counter()
    assert nonunitarity_witness(InducedRepParams(40, 0, "1/4")) is None
    assert time.perf_counter() - start < 1

def test_nonunitarity_witness():
    p = InducedRepParams(2, 0, Fraction(3, 4))
    witness = nonunitarity_witness(p)
    assert witness is not None
    lam, j = witness
    assert n_ratio(p, lam, j) >= 0
    assert nonunitarity_witness(InducedRepParams(2, 0, Fraction(1, 4))) is None
    # odd n+alpha: xi can vanish, any nonzero sigma has a witness
    assert nonunitarity_witness(InducedRepParams(2, 1, Fraction(1, 4))) is not None


def test_constituent_verdicts_siegel_weil():
    p = InducedRepParams(2, 0, Fraction(1, 2))
    expected = {
        "L(0,0)": (True, "Case2b-sigma>=1/2-(i=j)"),
        "L(1,1)": (True, "Case2b-sigma>=1/2-(i=j)"),
        "L(1,0)": (True, "Case2b-sigma>=1/2-(i-j=r2)"),
    }
    for lab in enumerate_constituents(p).labels:
        verdict = constituent_unitarizable(p, lab)
        assert (verdict.unitarizable, verdict.reason) == expected[str(lab)]


def test_constituent_verdicts_case1a():
    p = InducedRepParams(2, 1, Fraction(-1))
    v = constituent_unitarizable(p, ConstituentLabel("R", 0, 0))
    assert v.unitarizable and "r1" in v.reason
    for lab in (ConstituentLabel("R", 1, 0), ConstituentLabel("R", 0, 1)):
        assert not constituent_unitarizable(p, lab).unitarizable


def test_constituent_verdicts_axis():
    p = InducedRepParams(2, 1, Fraction(0))
    for lab in enumerate_constituents(p).labels:
        v = constituent_unitarizable(p, lab)
        assert v.unitarizable and "sigma=0" in v.reason


def test_case1b_exceptional_clause():
    p = InducedRepParams(3, 0, Fraction(2))
    v = constituent_unitarizable(p, ConstituentLabel("R", 2, 0))
    assert v.unitarizable and "exceptional" in v.reason
    v = constituent_unitarizable(p, ConstituentLabel("R", 0, 2))
    assert v.unitarizable and "exceptional" in v.reason
    # same indices with alpha odd are not exceptional
    p = InducedRepParams(3, 1, Fraction(3, 2) + Fraction(1, 2))  # sigma_tilde = 9/2? keep reducible instead
    p = params_from_sigma_tilde(3, 1, 4)
    lab = ConstituentLabel("R", 2, 0)
    if lab in enumerate_constituents(p).labels:
        v = constituent_unitarizable(p, lab)
        assert "exceptional" not in v.reason


def test_verdict_requires_valid_label():
    p = InducedRepParams(2, 0, Fraction(1, 2))
    with pytest.raises(ValueError, match="not a nonempty constituent"):
        constituent_unitarizable(p, ConstituentLabel("L", 0, 1))


def test_socle_unitarity_in_matching_window():
    """Sinks are unitarizable for -rho <= sigma < 0, except the documented
    boundary gap: at sigma = -rho with alpha = 2 (shifted parameter 1) there
    is no theta-lift image and the socle fails every unitarity clause."""
    for n in range(2, 6):
        for alpha in range(4):
            for st_val in range(-6, 7):
                params = params_from_sigma_tilde(n, alpha, st_val)
                if not (-params.rho <= params.sigma < 0):
                    continue
                boundary_gap = params.sigma == -params.rho and alpha == 2
                for lab in irreducible_submodules(params):
                    verdict = constituent_unitarizable(params, lab)
                    assert verdict.unitarizable == (not boundary_gap), (
                        params,
                        lab,
                        verdict,
                    )
                if boundary_gap:
                    assert possible_embeddings(params) == ()


def test_case1a_verdicts_are_level_uniform():
    # In Case 1a there is no exceptional clause, so the verdict can only
    # depend on the level i+j, never on the region behind the label.
    for n in (2, 4, 5):
        for st_val in (-5, -3, -1, 1, 3, 5):
            for alpha in range(4):
                params = params_from_sigma_tilde(n, alpha, st_val)
                if enumerate_constituents(params).case.value != "Case1a":
                    continue
                by_level = {}
                for lab in enumerate_constituents(params).labels:
                    by_level.setdefault(lab.i + lab.j, set()).add(
                        constituent_unitarizable(params, lab).unitarizable
                    )
                assert all(len(v) == 1 for v in by_level.values())


def _region_up_step_signs(params, label, radius=4):
    """(steps, bad) over the up-steps lam -> lam + e_j with both ends in the
    label's region and lam in the window; a step is bad where n_ratio >= 0 or
    the form degenerates.  All-negative is consistent with, but does not
    prove, a positive invariant form on the constituent."""
    region = region_for(params, label)
    steps, bad = 0, []
    for lam in dominant_window(params.n, radius):
        if not region.contains(lam):
            continue
        for moved, j, direction in neighbors(lam):
            if direction != "up" or not region.contains(moved):
                continue
            steps += 1
            if -params.sigma + xi(params, lam, j) == 0 or n_ratio(params, lam, j) >= 0:
                bad.append((lam, j))
    return steps, bad


def test_region_sign_probe_is_advisory():
    p = InducedRepParams(2, 1, Fraction(-1))
    steps, bad = _region_up_step_signs(p, ConstituentLabel("R", 0, 0))
    assert steps > 0
    assert bad == []


def test_region_sign_probe_flags_nonunitary_socle():
    # the boundary-gap socle: ratio degenerates to 0 on its wall
    p = InducedRepParams(2, 2, Fraction(-3, 2))
    assert not constituent_unitarizable(p, ConstituentLabel("L", 1, 0)).unitarizable
    steps, bad = _region_up_step_signs(p, ConstituentLabel("L", 1, 0))
    assert bad


# One point per reason template of the n 2..6 grid; every template occurs at n <= 3.
@pytest.mark.parametrize(
    "n, alpha, sigma, label, unitarizable, reason",
    [
        (2, 1, "-3", "R(0,0)", False, "Case1a-sigma<=-1: needs -1<=sigma<=-1 and i+j=r1=0"),
        (2, 1, "-1", "R(0,0)", True, "Case1a-sigma<=-1-(i+j=r1)"),
        (2, 3, "0", "R(0,1)", True, "Case1a-sigma=0-direct-sum"),
        (2, 1, "1", "R(0,1)", False, "Case1a-sigma>=1: needs 1<=sigma<=1 and i+j=r2=0"),
        (2, 1, "1", "R(0,0)", True, "Case1a-sigma>=1-(i+j=r2)"),
        (3, 0, "-2", "R(0,2)", True, "Case1b-exceptional-(n odd, alpha in {0,2})"),
        (3, 2, "-1", "R(1,1)", False, "Case1b-sigma<=-1: needs -2<=sigma<=-1 and i+j=r1=1"),
        (2, 3, "-1", "R(0,0)", True, "Case1b-sigma<=-1-(i+j=r1)"),
        (2, 1, "0", "R(0,1)", True, "Case1b-sigma=0-direct-sum"),
        (3, 2, "1", "R(1,1)", False, "Case1b-sigma>=1: needs 1<=sigma<=2 and i+j=r2=1"),
        (2, 3, "1", "R(0,0)", True, "Case1b-sigma>=1-(i+j=r2)"),
        (2, 0, "-5/2", "L(1,0)", False, "Case2a-sigma<=-1/2: needs i=j, or sigma>=-1+1/2 and i-j=r2=1"),
        (2, 0, "-1/2", "L(1,0)", True, "Case2a-sigma<=-1/2-(i-j=r2)"),
        (2, 0, "-5/2", "L(0,0)", True, "Case2a-sigma<=-1/2-(i=j)"),
        (2, 0, "3/2", "L(0,0)", False, "Case2a-sigma>=1/2: needs i=j+1, or sigma<=1+1/2 and j-i=r1=1"),
        (2, 0, "3/2", "L(1,0)", True, "Case2a-sigma>=1/2-(i=j+1)"),
        (2, 0, "3/2", "L(0,1)", True, "Case2a-sigma>=1/2-(j-i=r1)"),
        (2, 0, "-3/2", "L(0,0)", False, "Case2b-sigma<=-1/2: needs i=j+1, or sigma>=-1-1/2 and j-i=r1=1"),
        (2, 0, "-3/2", "L(1,0)", True, "Case2b-sigma<=-1/2-(i=j+1)"),
        (2, 0, "-3/2", "L(0,1)", True, "Case2b-sigma<=-1/2-(j-i=r1)"),
        (2, 0, "5/2", "L(1,0)", False, "Case2b-sigma>=1/2: needs i=j, or sigma<=1-1/2 and i-j=r2=1"),
        (2, 0, "1/2", "L(1,0)", True, "Case2b-sigma>=1/2-(i-j=r2)"),
        (2, 0, "1/2", "L(0,0)", True, "Case2b-sigma>=1/2-(i=j)"),
    ],
)
def test_every_reason_template(n, alpha, sigma, label, unitarizable, reason):
    verdict = constituent_unitarizable(InducedRepParams(n, alpha, sigma), parse_label(label))
    assert (verdict.unitarizable, verdict.reason) == (unitarizable, reason)


def test_case1b_corners_at_even_rank_are_not_exceptional():
    # The exceptional clause needs n odd; at even n the corners R(k,0) and
    # R(0,k), k = n/2, get the level clause like every other label.
    seen = 0
    for n in (2, 4, 6):
        for alpha in (1, 3):
            for st_val in range(-8, 9, 2):  # even sigma_tilde, odd n+alpha: Case 1b
                params = params_from_sigma_tilde(n, alpha, st_val)
                k = n // 2
                for lab in enumerate_constituents(params).labels:
                    if (lab.i, lab.j) in ((k, 0), (0, k)):
                        verdict = constituent_unitarizable(params, lab)
                        assert "exceptional" not in verdict.reason, (params, lab)
                        seen += not verdict.unitarizable
    assert seen > 0


def _constituent_unitarizable_reference(
    params: InducedRepParams, label: ConstituentLabel
) -> UnitarityVerdict:
    """The clauses as ``unitarity.constituent_unitarizable`` read them label by label before the point
    record held its verdicts, verbatim: a reference."""
    pt = _point(params)
    if label not in pt.label_set:
        raise ValueError(f"label is not a nonempty constituent here: {label} at {params}")
    case, name, m, k = pt.case, pt.case.text, pt.m, pt.k
    _, i, j = label
    if pt.sign == 0:  # family R alone has sigma = 0
        return UnitarityVerdict(True, f"{name}-sigma=0-direct-sum")
    band, r = pt.index_bound
    unit = "1" if case.family == "R" else "1/2"  # the least |sigma| off the unitary axis
    tag = f"{name}-sigma<=-{unit}" if pt.sign < 0 else f"{name}-sigma>={unit}"

    if case.family == "R":  # m = |sigma| here, and r = max(k-m, 0)
        if m <= k and i + j == r:
            return UnitarityVerdict(True, f"{tag}-(i+j={band})")
        # n odd makes alpha even in Case 1, and k = (n+1)/2 in Case 1b
        if case is CaseTag.CASE_1B and params.n % 2 == 1 and (i, j) in ((k, 0), (0, k)):
            return UnitarityVerdict(True, "Case1b-exceptional-(n odd, alpha in {0,2})")
        bounds = f"-{k}<=sigma<=-1" if pt.sign < 0 else f"1<=sigma<={k}"
        return UnitarityVerdict(False, f"{tag}: needs {bounds} and i+j={band}={r}")

    # m = |sigma| - 1/2 here, sigma being a half-integer
    if band == "r1":
        # band -1 <= j-i <= r1, r1 = min(|sigma|-1/2, k0)
        if i == j + 1:
            return UnitarityVerdict(True, f"{tag}-(i=j+1)")
        k0 = params.n // 2  # largest i with an i<->i barrier pair in family L
        if m <= k0 and j - i == r:
            return UnitarityVerdict(True, f"{tag}-(j-i=r1)")
        bound = f"sigma<={k0}+1/2" if pt.sign > 0 else f"sigma>=-{k0}-1/2"
        return UnitarityVerdict(False, f"{tag}: needs i=j+1, or {bound} and j-i=r1={r}")
    # band 0 <= i-j <= r2, r2 = min(|sigma|+1/2, k1)
    if i == j:
        return UnitarityVerdict(True, f"{tag}-(i=j)")
    k1 = (params.n + 1) // 2
    if m + 1 <= k1 and i - j == r:
        return UnitarityVerdict(True, f"{tag}-(i-j=r2)")
    bound = f"sigma<={k1}-1/2" if pt.sign > 0 else f"sigma>=-{k1}+1/2"
    return UnitarityVerdict(False, f"{tag}: needs i=j, or {bound} and i-j=r2={r}")


def _check_verdicts_against_the_reference(params):
    verdicts = []
    for label in enumerate_constituents(params).labels:
        verdict = constituent_unitarizable(params, label)
        assert type(verdict) is UnitarityVerdict, (params, label)
        assert verdict == _constituent_unitarizable_reference(params, label), (params, label)
        verdicts.append(verdict)
    # each is one of the point's at most three verdicts, built once
    assert len({id(v) for v in verdicts}) <= 3, params
    return {v.reason for v in verdicts}


def test_verdicts_equal_the_label_by_label_clauses():
    # every label's verdict and reason string, on n 2..16, alpha 0..3, sigma_tilde -20..20
    reasons = set()
    for n in range(2, 17):
        for alpha in range(4):
            for st_val in range(-20, 21):
                reasons |= _check_verdicts_against_the_reference(params_from_sigma_tilde(n, alpha, st_val))
    # every clause decides somewhere on the grid, and so does each failure
    for clause in (
        "-sigma=0-direct-sum", "-(i+j=r1)", "-(i+j=r2)", "exceptional-(n odd, alpha in {0,2})",
        "-(i=j+1)", "-(j-i=r1)", "-(i=j)", "-(i-j=r2)",
    ):
        assert any(reason.endswith(clause) for reason in reasons), clause
    for failure in (": needs -", ": needs 1<=", ": needs i=j+1, or sigma", ": needs i=j, or sigma"):
        assert any(failure in reason for reason in reasons), failure


@settings(deadline=None)
@given(st.integers(2, 40), st.integers(0, 3), st.integers(-60, 60))
def test_verdicts_equal_the_label_by_label_clauses_beyond_the_grid(n, alpha, st_val):
    _check_verdicts_against_the_reference(params_from_sigma_tilde(n, alpha, st_val))
