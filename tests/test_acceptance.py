"""Acceptance suite: one test per criterion, exact arithmetic, zero tolerance.

Criteria that pin printed values containing documented transcription errors
of the source are split: the computed-truth assertion runs green here (the
values are independently confirmed by the classifying-space oracle), and a
strict xfail records the printed variant with the analysis; see README's
Known source errata for the inventory.  Every test prints a criterion verdict
line so `pytest -v -s tests/test_acceptance.py` reads as a checklist.
"""

import random
from fractions import Fraction

import pytest

from fglab.adams import (DPoly, gen_2structure_relations, in_gf2_span,
                         nki_coeffs, psi_inv_beta, spherical_search)
from fglab.bordism import BordismExpr, miscenko_image
from fglab.cannibal import ThetaGenSeq, theta3_closed, theta_gen_closed, theta_unit, thom_psi_dk
from fglab.chern import (integer_reduce, nullspace_rational, paper_dim8_basis, same_row_space,
                         su_constraint_system, todd_t4)
from fglab.fgl import fgl_twist, generic_strict_series, multiplicative_law
from fglab.mahler import (Padic2, artin_schreier_check, dilate, dilation_matrix, dilation_vs_adams,
                          padic_log)
from fglab.series import MultiSeries, residue_inverse_coeff

from helpers import (RANDOM_SEED, coeff_of, compose, dk_as_apoly, dpoly_mul, exp_series, fgl_check,
                     fgl_from_genus, in_span, law_of, matvec, theta3_bilinear)
from oracle_bu import BUOracle
from oracle_coboundary import apoly_eval, coboundary_apoly_values


def ok(n, msg):
    print(f"criterion {n}: PASS - {msg}")


@pytest.fixture(scope="module")
def twisted():
    return fgl_twist(multiplicative_law(6), generic_strict_series(6, 5))


def test_criterion_1_inverse_series_formulas():
    g = generic_strict_series(6, 4)
    inv = g.comp_inverse("t")

    def poly(d):
        terms = {}
        for mono, c in d.items():
            e = [0] * 5
            for idx, p in mono:
                e[idx] = p
            terms[tuple(e)] = Fraction(c)
        return MultiSeries(g.vars, terms, 6, g.weights)

    assert inv.coeff_in_var("t", 2) == poly({((1, 1),): -1})
    assert inv.coeff_in_var("t", 3) == poly({((1, 2),): 2, ((2, 1),): -1})
    assert inv.coeff_in_var("t", 4) == poly({((1, 3),): -5, ((1, 1), (2, 1)): 5, ((3, 1),): -1})
    assert inv.coeff_in_var("t", 5) == poly({((1, 4),): 14, ((1, 2), (2, 1)): -21,
                                             ((1, 1), (3, 1)): 6, ((2, 2),): 3, ((4, 1),): -1})
    ok(1, "c1..c4 match the printed closed forms exactly")


def test_criterion_2_residue_formula_equivalence():
    g = generic_strict_series(12, 10)
    inv = g.comp_inverse("t")
    for n in range(1, 11):
        assert residue_inverse_coeff(g, "t", n) == inv.coeff_in_var("t", n + 1), n
    rng = random.Random(RANDOM_SEED)
    for _ in range(50):
        terms = {(1,): Fraction(1)}
        for k in range(2, 12):
            terms[(k,)] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        gc = MultiSeries(("x",), terms, 12)
        hinv = gc.comp_inverse("x")
        for n in range(1, 11):
            got = residue_inverse_coeff(gc, "x", n)
            assert got == hinv.coeff_in_var("x", n + 1), n
    ok(2, "residue formula = recursive inversion, generic ring and 50 random instances, n <= 10")


def test_criterion_3_twisted_law(twisted):
    law = twisted
    assert coeff_of(law.a(1, 1), v=1) == 1 and coeff_of(law.a(1, 1), b1=1) == 2
    assert coeff_of(law.a(2, 1), b2=1) == 3
    assert coeff_of(law.a(3, 1), b1=1, b2=1) == -8
    assert coeff_of(law.a(2, 2), v=2, b1=1) == 1
    assert coeff_of(law.a(4, 1), b1=2, b2=1) == 25
    # five of six printed images match cell for cell (asserted in full in
    # test_fgl); a32 carries three printed misprints, its computed value is
    # pinned there and xfailed against the printed variant
    rng = random.Random(RANDOM_SEED)
    terms = {(1, 0): Fraction(1)}
    for i in range(1, 5):
        terms[(i + 1, 0)] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    g = MultiSeries(("t", "v"), terms, 12, (1, 0))
    fgl_check(law_of(fgl_twist(multiplicative_law(12), g)))
    ok(3, "twisted-law images exact (a32 modulo documented misprints); axioms pass to bound 12")


def test_criterion_4_chern_tables():
    basis = paper_dim8_basis()
    m = su_constraint_system(basis, 4)
    assert m == [[625, 512, 486, 384, 432],
                 [50, 56, 54, 64, 60],
                 [250, 224, 216, 192, 204]]
    red = integer_reduce(m)
    assert same_row_space(red, [[25, 8, 0, 0, 0], [0, 4, 0, 16, 9], [0, 0, -27, 48, 15]])
    ns = nullspace_rational(m)
    assert len(ns) == 2
    for v in ([0, 0, 256, 324, -576], [8, -25, -12, -23, 52]):
        assert in_span(ns, v)
        assert all(x == 0 for x in matvec(m, v))
    ok(4, "nine Chern numbers, reduced row space, 2-dim nullspace with both solutions")


def test_criterion_5_miscenko_endgame(twisted):
    def cells(img):
        return {img.monomial_str(e) or "1": c for e, c in img.terms.items()}

    imgN = miscenko_image(BordismExpr.parse("N"), twisted, "paper-box")
    assert cells(imgN) == {"b4": -40, "b2^2": 12, "b1*b3": 40, "b1^2*b2": 256,
                           "b1^4": -184, "v*b3": -60, "v*b1*b2": 340, "v*b1^3": -112,
                           "v^2*b2": 48, "v^2*b1^2": 58, "v^3*b1": 22}
    imgK = miscenko_image(BordismExpr.parse("1/4*K3SQ"), twisted, "paper-box")
    assert cells(imgK) == {"v^4": 1, "v^3*b1": 24, "v^2*b1^2": 120, "v^2*b2": 48,
                           "v*b1^3": -288, "v*b1*b2": 576, "b1^4": 144,
                           "b1^2*b2": -576, "b2^2": 576}
    imgM = miscenko_image(BordismExpr.parse("1/4*K3SQ + 12*N"), twisted, "paper-box")
    c = cells(imgM)
    assert c.pop("v^4") == 1
    assert set(c) and all(v.denominator == 1 and v.numerator % 16 == 0 for v in c.values())
    assert c["v^3*b1"] == 16 * 18 and c["b4"] == 16 * -30 and c["v*b1*b2"] == 16 * 291
    ok(5, "[N] exact as printed; K3^2/4 and [M] exact up to the documented "
          "v*b1*b2 misprints; [M] = v^4 mod 16")


@pytest.mark.xfail(strict=True,
                   reason="paper misprints: K3^2/4 prints 448 v b1 b2 and [M] prints "
                          "16*283 v b1 b2; the substitution forces 576 and 16*291 "
                          "(all other cells match term for term)")
def test_criterion_5_printed_vb1b2_cells(twisted):
    imgK = miscenko_image(BordismExpr.parse("1/4*K3SQ"), twisted, "paper-box")
    assert coeff_of(imgK, v=1, b1=1, b2=1) == 448


def test_criterion_6_todd():
    assert todd_t4(0, 0, 0, 1, 0) == Fraction(1, 240)
    assert todd_t4(625, 50, 250, 100, 5) == 1
    one = MultiSeries.one(("x",), 10)
    emx = exp_series(("x",), "x", 10, rate=Fraction(-1))
    den_shift = MultiSeries(("x",), {(e[0] - 1,): c for e, c in (one - emx).terms.items()
                                     if e[0] >= 1}, 10)
    F = fgl_from_genus(den_shift.reciprocal())
    assert F == MultiSeries(("x", "y"), {(1, 0): Fraction(1), (0, 1): Fraction(1),
                                         (1, 1): Fraction(-1)}, 10)
    ok(6, "T4 = 1/240 on the SU input, 1 on CP^4; Todd genus yields x + y - xy")


def test_criterion_7_adams_on_beta():
    rows = {
        1: {1: 3}, 2: {1: -3, 2: 9}, 3: {1: 1, 2: -18, 3: 27},
        4: {2: 15, 3: -81, 4: 81}, 5: {2: -6, 3: 108, 4: -324, 5: 243},
        6: {2: 1, 3: -81, 4: 594, 5: -1215, 6: 729},
        7: {3: 36, 4: -648, 5: 2835, 6: -4374, 7: 2187},
        8: {3: -9, 4: 459, 5: -4050, 6: 12393, 7: -15309, 8: 6561},
        9: {3: 1, 4: -216, 5: 3915, 6: -21870, 7: 51030, 8: -52488, 9: 19683},
        10: {4: 66, 5: -2673, 6: 26730, 7: -107163, 8: 201204, 9: -177147, 10: 59049},
    }
    for i, row in rows.items():
        assert psi_inv_beta(3, i).coeffs == row, i
    # the nine printed power expansions, asserted through the golden table
    from fglab.golden_data import GoldenTable, compute_psi_powers
    tab = GoldenTable("psi_powers", "", compute_psi_powers)
    assert tab.diff() == []
    mod2 = {1: {1}, 2: {1, 2}, 3: {1, 3}, 4: {2, 3, 4}, 5: {5}, 6: {2, 3, 5, 6},
            7: {5, 7}, 8: {3, 4, 6, 7, 8}, 9: {3, 5, 9}, 10: {5, 7, 9, 10}}
    for i, idx in mod2.items():
        assert set(psi_inv_beta(3, i).mod2().coeffs) == idx, i
    for i in range(1, 11):
        comp = {}
        for m, c in psi_inv_beta(3, i).coeffs.items():
            for n, c2 in psi_inv_beta(3, m).coeffs.items():
                comp[n] = comp.get(n, 0) + c * c2
        assert {n: c for n, c in comp.items() if c} == psi_inv_beta(9, i).coeffs, i
    ok(7, "all ten beta rows, nine power expansions, mod-2 table, psi3 o psi3 = psi9")


def test_criterion_8_two_structure_machinery(reducer10):
    rels = gen_2structure_relations(7)

    def canon(mono):
        return str(rels[mono].set_u().content_normalize())

    # two of the five printed rows are reproduced up to the declared
    # normalization (u -> 1, content, leading sign); the other three printed
    # rows fail the coboundary oracle and are xfailed below
    assert canon((3, 1, 1)) == "a13 - a11*a12 - 2*a14 + a23"
    assert canon((4, 1, 1)) == "3*a14 - 2*a11*a13 - a12^2 - 5*a15 + 2*a24"
    rng = random.Random(RANDOM_SEED)
    for _ in range(20):
        g = [Fraction(rng.randint(-9, 9), rng.choice([1, 1, 3, 5])) for _ in range(7)]
        avals = coboundary_apoly_values(g, 7)
        for poly in rels.values():
            assert apoly_eval(poly, avals) == 0
    # psi d2, d3 equal the printed values; d4..d6 at the computed values,
    # independently confirmed by the BU oracle (printed variants xfailed in
    # test_adams)
    want = {
        2: {(2,): 9},
        3: {(3,): 27, (2,): -9},
        4: {(4,): 81, (2,): 6},
        5: {(5,): 243, (4,): -486, (3,): -198, (2, 2): 243},
        6: {(6,): 729, (5,): -729, (4,): -27, (2, 3): 243, (3,): 54, (2, 2): -81, (2,): -1},
    }
    oracle = BUOracle(6)
    for k, w in want.items():
        p = thom_psi_dk(k, theta_unit(10), reducer10)
        assert p == DPoly(w), k
        assert oracle.psi_dk_coords(k) == {m: c for m, c in DPoly(w).terms.items()}, k
    ok(8, "relations at x^3yz/x^4yz match; 20 coboundaries annihilated; "
          "psi d2..d6 exact (d4..d6 at oracle-confirmed values)")


@pytest.mark.xfail(strict=True,
                   reason="paper misprints: the printed x^2yz, x^2y^2z, x^3yz^2 rows are "
                          "not valid 2-structure relations (each fails on coboundaries), "
                          "and the printed psi d4/d5/d6 inherit the x^2yz error")
def test_criterion_8_printed_rows(reducer10):
    rels = gen_2structure_relations(7)
    assert str(rels[(2, 1, 1)].set_u().content_normalize()) in (
        "a12 - a11^2 - a13 + 2*a22", "a12 + a11^2 - a13 + 2*a22")


def test_criterion_9_cannibalistic_classes(theta30):
    ts = ThetaGenSeq(62)
    for k in range(61):
        assert ts[k] == theta_gen_closed(k), k
    for m in range(31):
        for n in range(31):
            c = theta30[m, n]
            assert c == theta30[n, m]
            assert c == theta3_closed(m, n), (m, n)
            assert c == theta3_bilinear(m, n, ts), (m, n)
            if m >= 1 and n >= 1 and (m - n) % 6 == 3:
                assert c == 0, (m, n)
    ok(9, "t-sequence closed forms k <= 60; c_mn closed = direct = bilinear for "
          "m,n <= 30; symmetry and the 3 mod 6 vanishing")


def test_criterion_10_thom_level(thom_table10):
    assert thom_table10[2] == DPoly({(2,): 9, (): Fraction(2, 3)})
    assert thom_table10[3] == DPoly({(3,): 27, (2,): -9, (): Fraction(1, 3)})
    assert thom_table10[4] == DPoly({(4,): 81, (2,): 12, (): Fraction(1, 9)})
    assert thom_table10[5] == DPoly({(5,): 243, (4,): -486, (3,): -198, (2, 2): 243})
    ok(10, "Thom-level d2, d3 exact as printed; d4, d5 at oracle-confirmed values "
           "(printed variants xfailed in test_cannibal)")


def test_criterion_11_spherical_classes(thom_table10):
    kernel, new = spherical_search(20, thom_table10)
    for z in (DPoly({(2,): 1}),
              DPoly({(3, 3): 1, (5,): 1, (4,): 1, (2, 2): 1}),
              DPoly({(4, 4): 1, (4,): 1}),
              DPoly({(5, 5): 1, (2, 2, 5): 1})):
        assert in_gf2_span(kernel, z), str(z)
    assert not new.get(6)
    ok(11, "z4, z12, z16, z20 in the mod-2 kernel; weight 6 empty")


def test_criterion_12_mahler():
    rows = {1: {1: 3}, 2: {2: 9, 1: 3}, 3: {3: 27, 2: 18, 1: 1},
            4: {4: 81, 3: 81, 2: 15}, 5: {5: 243, 4: 324, 3: 108, 2: 6},
            6: {6: 729, 5: 1215, 4: 594, 3: 81, 2: 1}}
    for i, row in rows.items():
        assert dilate(3, i).coeffs == row, i
    dilation_vs_adams(10)
    D3 = dilation_matrix(3, 8)
    D9 = dilation_matrix(9, 8)
    assert [[sum(D3[i][k] * D3[k][j] for k in range(9)) for j in range(9)]
            for i in range(9)] == D9
    ok(12, "six dilation rows; dilation = Adams under sign conjugation i <= 10; "
           "dilate(3)^2 = dilate(9)")


def test_criterion_13_artin_schreier():
    rng = random.Random(RANDOM_SEED)
    for _ in range(20):
        u = 16 * rng.randrange(0, 1 << 42) + 1
        res = artin_schreier_check(u, 48)
        assert res["verified"], u
        assert res["lhs"] == res["rhs"]
    ok(13, "shift identity holds for 20 random units = 1 mod 16 at 48 bits")


def test_criterion_14_property_suite():
    rng = random.Random(RANDOM_SEED)
    # FGL axioms on random twists
    for _ in range(5):
        terms = {(1, 0): Fraction(1)}
        for i in range(1, 5):
            terms[(i + 1, 0)] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        g = MultiSeries(("t", "v"), terms, 8, (1, 0))
        fgl_check(law_of(fgl_twist(multiplicative_law(8), g)))
    # inversion round-trips
    for _ in range(20):
        terms = {(1,): Fraction(1)}
        for k in range(2, 10):
            terms[(k,)] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        gc = MultiSeries(("x",), terms, 10)
        h = gc.comp_inverse("x")
        assert compose(h, "x", gc) == MultiSeries.var(("x",), "x", 10)
    # homomorphism commutation Q -> GF(2), on the mod-2 map spherical_search runs
    for _ in range(20):
        a, b = (DPoly({tuple(rng.choices(range(2, 7), k=rng.randint(0, 3))):
                       Fraction(rng.randint(-9, 9), rng.choice([1, 3, 5, 7])) for _ in range(6)})
                for _ in range(2))
        assert dpoly_mul(a, b).mod2() == dpoly_mul(a.mod2(), b.mod2()).mod2()
    # 2-adic log homomorphism at the working precision
    for _ in range(10):
        u = Padic2(4 * rng.randrange(0, 1 << 60) + 1, 64)
        w = Padic2(4 * rng.randrange(0, 1 << 60) + 1, 64)
        assert padic_log(u * w) == padic_log(u) + padic_log(w)
    ok(14, f"randomized property suite green (seed {RANDOM_SEED})")
