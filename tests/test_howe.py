import hashlib
import json
from fractions import Fraction

import pytest

from dpseries import (
    CaseTag,
    ConstituentLabel,
    InducedRepParams,
    check_summary,
    classify,
    constituent_unitarizable,
    enumerate_constituents,
    induced_params,
    irreducible_quotients,
    irreducible_submodules,
    omega_image,
    possible_embeddings,
    region_for,
)

from conftest import params_from_sigma_tilde


def L(i, j):
    return ConstituentLabel("L", i, j)


def R(i, j):
    return ConstituentLabel("R", i, j)


def test_induced_params_worked_points():
    assert induced_params(4, 0, 2) == InducedRepParams(2, 0, Fraction(1, 2))
    assert induced_params(0, 0, 2) == InducedRepParams(2, 0, Fraction(-3, 2))
    assert induced_params(1, 0, 2) == InducedRepParams(2, 1, Fraction(-1))
    with pytest.raises(ValueError):
        induced_params(-1, 0, 2)


def test_omega_image_worked_points():
    img = omega_image(4, 0, 2)
    assert (img.shape, img.generator, img.members) == ("generated", L(1, 1), (L(1, 1),))

    img = omega_image(0, 0, 2)
    assert (img.shape, img.generator) == ("single", L(0, 1))
    assert region_for(img.target, img.generator).single_point() == (0, 0)

    img = omega_image(1, 0, 2)
    assert (img.shape, img.generator) == ("single", R(0, 0))

    img = omega_image(2, 2, 2)
    assert (img.shape, img.generator) == ("generated", L(1, 0))
    assert img.members == (L(0, 0), L(1, 0), L(1, 1))  # the whole module


def test_possible_embeddings_worked_points():
    assert possible_embeddings(InducedRepParams(2, 0, Fraction(1, 2))) == (
        (0, 4),
        (2, 2),
        (4, 0),
    )
    assert possible_embeddings(InducedRepParams(2, 1, Fraction(0))) == ((0, 3), (2, 1))
    assert possible_embeddings(InducedRepParams(2, 0, Fraction(-3, 2))) == ((0, 0),)
    # below p+q = 0 there is nothing
    assert possible_embeddings(InducedRepParams(2, 0, Fraction(-5, 2))) == ()


def test_possible_embeddings_equal_their_definition():
    # every (p, m-p) with p-q = alpha mod 4 when m = 2*sigma + n + 1 is a
    # nonnegative integer, else none: sigma with denominator 3 or 4, the
    # irreducible half-integer points and sigma below -rho included
    for n in range(2, 13):
        for alpha in range(4):
            for b in range(1, 5):
                for a in range(-40, 41):
                    params = InducedRepParams(n, alpha, Fraction(a, b))
                    m = 2 * params.sigma + n + 1
                    expected = ()
                    if m.denominator == 1 and m >= 0:
                        m = int(m)
                        expected = tuple((p, m - p) for p in range(m + 1) if (p - (m - p) - alpha) % 4 == 0)
                    assert possible_embeddings(params) == expected, params


def test_embedding_parity_coherence():
    # the target case is determined by (parity of n+m, parity of p), and
    # sigma_tilde has the parity of p
    for p in range(0, 7):
        for q in range(0, 7):
            for n in (2, 3, 4):
                target = induced_params(p, q, n)
                case = classify(target)
                assert case is not CaseTag.IRREDUCIBLE
                st = target.sigma_tilde
                assert int(st) % 2 == p % 2
                row_a = p % 2 == 1
                col_1 = (n + p + q) % 2 == 1
                expected = {
                    (True, True): CaseTag.CASE_1A,
                    (False, True): CaseTag.CASE_1B,
                    (True, False): CaseTag.CASE_2A,
                    (False, False): CaseTag.CASE_2B,
                }[(row_a, col_1)]
                assert case is expected


def test_single_images_sit_on_the_socle_level():
    # index-sum/difference laws for the single-constituent images
    for p in range(0, 7):
        for q in range(0, 7):
            for n in (2, 3, 4, 5):
                target = induced_params(p, q, n)
                if target.sigma > 0:
                    continue
                img = omega_image(p, q, n)
                assert img.shape == "single"
                assert img.generator in irreducible_submodules(target)


def test_single_image_index_laws():
    # single-constituent images land exactly on the socle level:
    # family R at i+j = k + sigma, Case 2a at i-j = -sigma+1/2, Case 2b at
    # j-i = -sigma-1/2
    from dpseries import derived

    for p in range(0, 8):
        for q in range(0, 8):
            for n in (2, 3, 4, 5):
                target = induced_params(p, q, n)
                if target.sigma > 0:
                    continue
                img = omega_image(p, q, n)
                i, j = img.generator.i, img.generator.j
                case = classify(target)
                if case in (CaseTag.CASE_1A, CaseTag.CASE_1B):
                    assert i + j == derived(target).k + target.sigma
                elif case is CaseTag.CASE_2A:
                    assert i - j == -target.sigma + Fraction(1, 2)
                else:
                    assert j - i == -target.sigma - Fraction(1, 2)


def test_generated_images_on_positive_side():
    for p in range(0, 8):
        for q in range(0, 8):
            for n in (2, 3):
                target = induced_params(p, q, n)
                if target.sigma <= 0:
                    continue
                img = omega_image(p, q, n)
                assert img.shape == "generated"
                assert img.generator in set(enumerate_constituents(target).labels)
                assert img.generator in img.members


def test_distinct_embeddings_distinct_images_when_negative():
    for n in (2, 3, 4, 5):
        for alpha in range(4):
            for st_val in range(-6, 7):
                params = params_from_sigma_tilde(n, alpha, st_val)
                if not params.sigma < 0:
                    continue
                pairs = possible_embeddings(params)
                generators = [omega_image(p, q, n).generator for p, q in pairs]
                assert len(set(generators)) == len(generators)


def test_check_summary_worked_points():
    rep = check_summary(InducedRepParams(2, 1, Fraction(0)))
    assert rep.regime == "axis" and rep.ok

    rep = check_summary(InducedRepParams(2, 0, Fraction(1, 2)))
    assert rep.regime == "positive" and rep.ok

    rep = check_summary(InducedRepParams(2, 1, Fraction(-1)))
    assert rep.regime == "negative" and rep.ok
    assert irreducible_submodules(InducedRepParams(2, 1, Fraction(-1))) == (R(0, 0),)


def test_check_summary_boundary_gap():
    """At sigma = -rho with alpha = 2 the total p+q must be 0, but the shifted
    parameter is odd, so (0,0) is not an admissible signature: the socle is
    not a theta-lift image there and check_summary reports the failure."""
    rep = check_summary(InducedRepParams(2, 2, Fraction(-3, 2)))
    assert rep.regime == "negative" and not rep.ok
    failed = {c.name for c in rep.checks if not c.ok}
    assert failed == {"submodules-are-embedding-images", "submodules-unitary"}


def test_check_summary_requires_reducible():
    with pytest.raises(ValueError, match="reducible"):
        check_summary(InducedRepParams(2, 0, Fraction(1, 3)))


def test_check_summary_refuses_sigma_below_minus_rho():
    # n=4, alpha=1, sigma=-7 is Case 1b and reducible, but p+q = 2*sigma+n+1
    # is negative there, so no clause of the picture applies.
    params = InducedRepParams(4, 1, Fraction(-7))
    assert classify(params) is CaseTag.CASE_1B
    with pytest.raises(ValueError, match=r"sigma >= -rho = -5/2, got sigma = -7"):
        check_summary(params)
    # sigma = -rho itself is still checked (n=4, alpha=0 is Case 2b there).
    assert check_summary(InducedRepParams(4, 0, Fraction(-5, 2))).regime == "negative"


def test_positive_side_quotients_are_cosocles():
    for n in (2, 3, 4):
        for alpha in range(4):
            for st_val in range(-6, 7):
                params = params_from_sigma_tilde(n, alpha, st_val)
                if not params.sigma > 0:
                    continue
                pairs = possible_embeddings(params)
                assert pairs
                generators = {omega_image(p, q, n).generator for p, q in pairs}
                assert set(irreducible_quotients(params)) <= generators


def test_omega_images_and_unitarity_verdicts_are_pinned():
    # sha256 of every omega image (generated-side generators and members
    # included) and of every constituent's unitarity verdict, recorded while
    # omega_image still stated its table case by case and sign by sign
    images = hashlib.sha256()
    for n in range(2, 13):
        for p in range(2 * n + 4):
            for q in range(2 * n + 4):
                img = omega_image(p, q, n)
                members = ",".join(map(str, img.members))
                images.update(f"{n} {p} {q} {img.shape} {img.generator} {members}\n".encode())
    verdicts = hashlib.sha256()
    for n in range(2, 17):
        for alpha in range(4):
            for st in range(-20, 21):
                params = params_from_sigma_tilde(n, alpha, st)
                for label in enumerate_constituents(params).labels:
                    v = constituent_unitarizable(params, label)
                    verdicts.update(f"{n} {alpha} {st} {label} {v.unitarizable} {v.reason}\n".encode())
    assert images.hexdigest() == "028203da61d759a0596ff434dc18590e92e23ee1e4b1236acd1735e6c9ce86cd"
    assert verdicts.hexdigest() == "dea7d7744f0808156d98ee07307dabb96ad84c4a67feae2c1618cbd448e70d48"


def test_check_summary_reports_are_pinned():
    # sha256 of every report's regime and clauses (name, ok, detail) for n
    # 2..12, alpha 0..3, sigma_tilde -20..20 with sigma >= -rho (880 reports),
    # recorded while each regime still rebuilt its image labels and stated
    # its own unitarity clause
    digest = hashlib.sha256()
    reports = 0
    for n in range(2, 13):
        for alpha in range(4):
            for st in range(-20, 21):
                params = params_from_sigma_tilde(n, alpha, st)
                if params.sigma < -params.rho:
                    continue
                report = check_summary(params)
                clauses = [[c.name, c.ok, c.detail] for c in report.checks]
                digest.update(json.dumps([n, alpha, st, report.regime, clauses]).encode())
                reports += 1
    assert reports == 880
    assert digest.hexdigest() == "42f8c0b0751bcd24dd49565618790bf85efd047c2e831f7b8f8dccd896589224"


def test_compact_images_rejected_by_the_unitarity_clauses_are_the_case_1_corners():
    # The theta lift of the trivial representation of a compact O(p) is
    # unitary (it sits in the Fock model), yet the closed-form clauses reject
    # exactly these images: n even, p odd with p >= n + 3 (so sigma >= 1 and
    # alpha odd), at the corner R(n/2, 0) for (p, 0) and R(0, n/2) for (0, p).
    # This pins that open contradiction: any change to the set fails here.
    rejected, count = {}, 0
    for n in range(2, 17):
        for p in range(1, 2 * n + 12):
            for pq in ((p, 0), (0, p)):
                image = omega_image(*pq, n)
                count += 1
                assert image.members == (image.generator,), (pq, n)
                if not constituent_unitarizable(image.target, image.generator).unitarizable:
                    rejected[(*pq, n)] = image.generator
    expected = {}
    for n in range(2, 17, 2):
        for p in range(n + 3, 2 * n + 12, 2):
            expected[(p, 0, n)] = R(n // 2, 0)
            expected[(0, p, n)] = R(0, n // 2)
    assert count == 870
    assert len(expected) == 152
    assert rejected == expected
    assert all(induced_params(*key).alpha % 2 == 1 and induced_params(*key).sigma >= 1 for key in rejected)
