"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they go.
The grid is n in 2..5, alpha in 0..3, shifted parameter sigma_tilde in -6..6.
"""

import time
from fractions import Fraction
from pathlib import Path

from dpseries import (
    CaseTag,
    ConstituentLabel,
    InducedRepParams,
    build,
    check_summary,
    classify,
    compare,
    complementary_series,
    constituent_unitarizable,
    diagram_to_dot,
    diagram_to_json,
    enumerate_constituents,
    irreducible_submodules,
    is_empty,
    module_diagram,
    n_ratio,
    nonunitarity_witness,
    omega_image,
    possible_embeddings,
    region_for,
    socle_series,
)
from dpseries.structure import diagram_from_json
from dpseries.constituents import Region
from dpseries.cli import run

from conftest import dominant_window, params_from_sigma_tilde

GOLDEN = Path(__file__).parent / "golden"

GRID = [
    (n, alpha, st_val)
    for n in range(2, 6)
    for alpha in range(4)
    for st_val in range(-6, 7)
]


def L(i, j):
    return ConstituentLabel("L", i, j)


def _report(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status} {detail}".rstrip())


def test_criterion_1_oracle_equivalence_sweep():
    t0 = time.time()
    failures = []
    for n, alpha, st_val in GRID:
        params = params_from_sigma_tilde(n, alpha, st_val)
        verdict = compare(params)  # lmax auto
        if not verdict.ok:
            failures.append((n, alpha, st_val, dict(verdict.checks), verdict.witness))
    elapsed = time.time() - t0
    _report(1, not failures, f"{len(GRID)} points, {elapsed:.1f}s")
    assert not failures, failures[:5]
    assert elapsed < 120.0


def test_criterion_2_irreducibility_criterion():
    failures = []
    # reducible grid: never a single class
    for n, alpha, st_val in GRID:
        params = params_from_sigma_tilde(n, alpha, st_val)
        assert classify(params) is not CaseTag.IRREDUCIBLE
        lattice = build(params, 4)
        if lattice.n_classes == 1:
            failures.append(("reducible-single-class", n, alpha, st_val))
    # 50 deterministic points with non-integral shifted parameter: one class
    points = []
    idx = 0
    while len(points) < 50:
        den = (2, 3, 4, 5)[idx % 4]
        num = idx - 25
        idx += 1
        if num % den == 0:
            continue
        points.append((2 + idx % 4, idx % 4, Fraction(num, den)))
    for n, alpha, st_frac in points:
        sigma = st_frac - Fraction(n + 1 + alpha, 2)
        params = InducedRepParams(n, alpha, sigma)
        if classify(params) is not CaseTag.IRREDUCIBLE:
            failures.append(("expected-irreducible", n, alpha, str(st_frac)))
            continue
        lattice = build(params, 4)
        if lattice.n_classes != 1:
            failures.append(("irreducible-multi-class", n, alpha, str(st_frac)))
    _report(2, not failures, f"{len(GRID)} reducible + {len(points)} irreducible points")
    assert not failures, failures[:5]


def test_criterion_3_siegel_weil_point():
    params = InducedRepParams(2, 0, Fraction(1, 2))
    cs = enumerate_constituents(params)
    ok = [str(x) for x in cs.labels] == ["L(0,0)", "L(1,0)", "L(1,1)"]
    ok &= socle_series(params).layers[0] == (L(0, 0), L(1, 1))
    ok &= omega_image(0, 4, 2).members == (L(0, 0),)
    ok &= omega_image(4, 0, 2).members == (L(1, 1),)
    ok &= omega_image(2, 2, 2).members == cs.labels  # the whole module
    region = region_for(params, L(1, 1))
    ok &= {lam for lam in dominant_window(2, 8) if region.contains(lam)} == {
        lam for lam in dominant_window(2, 8) if lam[1] >= 1
    }
    ok &= is_empty(params, L(0, 1))
    ok &= compare(params).ok
    _report(3, ok)
    assert ok


def test_criterion_4_trivial_representation_point():
    image = omega_image(0, 0, 2)
    ok = image.target == InducedRepParams(2, 0, Fraction(-3, 2))
    ok &= image.generator == L(0, 1)
    ok &= region_for(image.target, image.generator).single_point() == (0, 0)
    ok &= L(0, 1) in irreducible_submodules(image.target)
    _report(4, ok)
    assert ok


def test_criterion_5_unitary_axis_decomposition():
    failures = []
    for n in range(2, 6):
        for alpha in range(4):
            if (n + alpha) % 2 == 0:
                continue
            params = InducedRepParams(n, alpha, Fraction(0))
            diagram = module_diagram(params)
            embeddings = possible_embeddings(params)
            images = [omega_image(p, q, n) for p, q in embeddings]
            labels = [img.generator for img in images]
            ok = not diagram.edges
            ok &= all(
                constituent_unitarizable(params, lab).unitarizable for lab in diagram.nodes
            )
            ok &= len(set(labels)) == len(labels)
            ok &= set(labels) == set(diagram.nodes)
            ok &= {(p, q) for p, q in embeddings} == {
                (p, q) for p in range(n + 2) for q in [n + 1 - p] if (p - q - alpha) % 4 == 0
            }
            if not ok:
                failures.append((n, alpha))
    _report(5, not failures)
    assert not failures, failures


def test_criterion_6_summary_theorem():
    """Embedding images vs socle for -rho <= sigma < 0, and reducibility vs
    embeddings for sigma > 0, on the full grid with zero exceptions.

    Known red: at sigma = -rho with alpha = 2 (sigma_tilde = 1) the unique
    candidate signature (0,0) has p - q = 0 != 2 mod 4, so there is no
    embedding at all, while the module is reducible with a nonempty socle
    that satisfies no unitarity clause (structure confirmed by the oracle;
    there is no one-dimensional twist available at alpha = 2 to embed).
    The criterion demands zero exceptions, so this test fails at exactly
    those four boundary points and nowhere else.
    """
    failures = []
    positives = negatives = 0
    for n, alpha, st_val in GRID:
        params = params_from_sigma_tilde(n, alpha, st_val)
        sigma = params.sigma
        if -params.rho <= sigma < 0:
            negatives += 1
            report = check_summary(params)
            bad = [c.name for c in report.checks if not c.ok]
            if bad:
                failures.append((n, alpha, st_val, str(sigma), bad))
        elif sigma > 0:
            positives += 1
            reducible = classify(params) is not CaseTag.IRREDUCIBLE
            if reducible != bool(possible_embeddings(params)):
                failures.append((n, alpha, st_val, str(sigma), ["reducible-iff-embeddings"]))
    _report(
        6,
        not failures,
        f"{negatives} negative-regime and {positives} positive-regime points"
        + (f"; exceptions: {failures}" if failures else ""),
    )
    assert not failures, failures


def test_criterion_7_complementary_series_sharpness():
    failures = []
    for n in (2, 3, 4):
        for alpha in range(4):
            if (n + alpha) % 2 != 0:
                continue
            for mag in (Fraction(1, 4), Fraction(3, 8)):
                for sigma in (mag, -mag):
                    params = InducedRepParams(n, alpha, sigma)
                    inside = all(
                        n_ratio(params, lam, j) < 0
                        for lam in dominant_window(n, 6)
                        for j in range(1, n + 1)
                    )
                    if not (inside and complementary_series(params)):
                        failures.append(("inside", n, alpha, str(sigma)))
            for mag in (Fraction(3, 4), Fraction(1)):
                for sigma in (mag, -mag):
                    params = InducedRepParams(n, alpha, sigma)
                    witness = nonunitarity_witness(params)
                    if complementary_series(params) or witness is None:
                        failures.append(("outside", n, alpha, str(sigma)))
                    else:
                        lam, j = witness
                        if n_ratio(params, lam, j) < 0:
                            failures.append(("bad-witness", n, alpha, str(sigma)))
    _report(7, not failures)
    assert not failures, failures


def test_criterion_8_case2a_emptiness_lemma():
    failures = []
    cells = 0
    for n in range(2, 7):
        n0 = n - (n % 2)
        n1 = n - 1 + (n % 2)
        for alpha in range(4):
            if (n + alpha) % 2 != 0:
                continue
            for st_val in range(-5, 7, 2):  # odd shifted parameters in -6..6
                params = params_from_sigma_tilde(n, alpha, st_val)
                assert classify(params) is CaseTag.CASE_2A
                sigma = params.sigma
                for i in range((n1 + 1) // 2 + 1):
                    for j in range(n0 // 2 + 1):
                        cells += 1
                        if i - j <= -1:
                            expect_nonempty = i - j >= -sigma + Fraction(1, 2)
                        elif i - j in (0, 1):
                            expect_nonempty = True
                        else:
                            expect_nonempty = i - j <= -sigma + Fraction(1, 2)
                        if is_empty(params, ConstituentLabel("L", i, j)) == expect_nonempty:
                            failures.append((n, alpha, st_val, i, j))
    _report(8, not failures, f"{cells} lemma cells")
    assert not failures, failures[:5]


def test_criterion_9_serialization(capsys):
    points = [
        ("siegel_weil", InducedRepParams(2, 0, Fraction(1, 2))),
        ("case1a_negative", InducedRepParams(2, 1, Fraction(-1))),
        ("trivial_point", InducedRepParams(2, 0, Fraction(-3, 2))),
    ]
    ok = True
    for name, params in points:
        diagram = module_diagram(params)
        socle = socle_series(params)
        text = diagram_to_json(diagram, socle)
        diagram2, socle2 = diagram_from_json(text)
        ok &= (diagram2, socle2) == (diagram, socle)
        ok &= diagram_to_json(diagram2, socle2) == text
        for lab in diagram.nodes:
            region = region_for(params, lab)
            ok &= Region.from_json(region.to_json()) == region
        dot = diagram_to_dot(diagram, socle)
        ok &= dot == diagram_to_dot(module_diagram(params), socle_series(params))
        golden = (GOLDEN / f"{name}.dot").read_bytes()
        ok &= dot.encode() == golden
        # CLI emits the same bytes
        assert (
            run(
                [
                    "diagram",
                    "--n",
                    str(params.n),
                    "--alpha",
                    str(params.alpha),
                    "--sigma",
                    f"{params.sigma.numerator}/{params.sigma.denominator}"
                    if params.sigma.denominator != 1
                    else str(params.sigma.numerator),
                    "--format",
                    "dot",
                ]
            )
            == 0
        )
        ok &= capsys.readouterr().out.encode() == golden
    _report(9, ok)
    assert ok
