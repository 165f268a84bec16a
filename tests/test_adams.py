import random
from collections import Counter
from fractions import Fraction
from math import comb, gcd

import pytest

from hypothesis import given, settings, strategies as st

from fglab.adams import (APoly, DPoly, DReducer, coboundary_coeffs,
                         dmonomials_upto, gen_2structure_relations, in_gf2_span,
                         monomial_codes,
                         nki_coeffs, psi_inv_beta,
                         psi_power_coeff, psi_tensor_apoly, spherical_search,
                         _psi_minus_id_mod2)
from fglab.cannibal import theta3_direct, theta_unit, thom_psi_dk
from fglab.errors import InsufficientTable, NotReducible, UnsupportedK, UsageError

from helpers import (RANDOM_SEED, LiftObstruction, _psi_dpoly, agen, apoly_mul, apoly_weights, binom_gcd,
                     bootstrap_lift, cocycle_series, composition_failures, dk_as_apoly, dpoly_mul,
                     dpoly_product_by_series, generator_images, poly_add, poly_sub, psi3_closed_coeff,
                     psi_dpoly_by_monomials, rat_val2, reduce_by_fractions, series_relations, unit_class,
                     xyz_coefficients)
from oracle_bu import BUOracle
from oracle_coboundary import apoly_eval, coboundary_apoly_values

PSI_BETA_ROWS = {
    1: {1: 3},
    2: {1: -3, 2: 9},
    3: {1: 1, 2: -18, 3: 27},
    4: {2: 15, 3: -81, 4: 81},
    5: {2: -6, 3: 108, 4: -324, 5: 243},
    6: {2: 1, 3: -81, 4: 594, 5: -1215, 6: 729},
    7: {3: 36, 4: -648, 5: 2835, 6: -4374, 7: 2187},
    8: {3: -9, 4: 459, 5: -4050, 6: 12393, 7: -15309, 8: 6561},
    9: {3: 1, 4: -216, 5: 3915, 6: -21870, 7: 51030, 8: -52488, 9: 19683},
    10: {4: 66, 5: -2673, 6: 26730, 7: -107163, 8: 201204, 9: -177147, 10: 59049},
}

MOD2_ROWS = {
    1: {1}, 2: {1, 2}, 3: {1, 3}, 4: {2, 3, 4}, 5: {5}, 6: {2, 3, 5, 6},
    7: {5, 7}, 8: {3, 4, 6, 7, 8}, 9: {3, 5, 9}, 10: {5, 7, 9, 10},
}


def test_psi_inv_beta_identity_at_k1():
    for i in range(1, 8):
        assert psi_inv_beta(1, i).coeffs == {i: 1}


def test_psi_inv_beta_all_ten_rows():
    for i, row in PSI_BETA_ROWS.items():
        assert psi_inv_beta(3, i).coeffs == row, i


def test_psi_beta_mod2_table():
    for i, idx in MOD2_ROWS.items():
        elt = psi_inv_beta(3, i).mod2()
        assert set(elt.coeffs) == idx, i


def test_kronecker_closed_form_vs_series():
    # the two computation paths of <psi^3 x^j, beta_i> must agree
    for i in range(0, 12):
        for j in range(0, i + 1):
            assert psi_power_coeff(3, j, i) == psi3_closed_coeff(j, i), (i, j)


def test_psi_composition_property():
    # psi^(k^-1) o psi^(l^-1) = psi^((kl)^-1) on indices <= 10
    for (k, l) in [(3, 3), (3, 5), (5, 5)]:
        for i in range(1, 11):
            inner = psi_inv_beta(l, i)
            acc = {}
            for m, c in inner.coeffs.items():
                outer = psi_inv_beta(k, m)
                for n, c2 in outer.coeffs.items():
                    acc[n] = acc.get(n, 0) + c * c2
            acc = {n: c for n, c in acc.items() if c}
            assert acc == psi_inv_beta(k * l, i).coeffs, (k, l, i)


@pytest.mark.parametrize("k", [1, 3, 5, 7])
def test_psi_tensor_apoly_is_the_product_of_beta_rows(k):
    """psi(beta_i (x) beta_j) = psi(beta_i) (x) psi(beta_j), summed into the
    a_mn one pair at a time (a_00 = 1, a_0n = a_m0 = 0, a_mn = a_nm)."""
    for i in range(9):
        for j in range(9):
            want = APoly()
            for m, cm in psi_inv_beta(k, i).coeffs.items():
                for n, cn in psi_inv_beta(k, j).coeffs.items():
                    want = poly_add(want, agen(m, n, cm * cn))
            assert psi_tensor_apoly(i, j, k) == want, (i, j)
    assert psi_tensor_apoly(0, 0, k) == agen(0, 0)
    assert psi_tensor_apoly(2, 0, k) == APoly()


def test_nki_paper_rows_and_gcd_identity():
    table = {2: {1: 1}, 3: {1: 1}, 4: {1: -1, 2: 1}, 5: {1: 1}, 6: {1: 1, 2: 1, 3: -1},
             7: {1: 1}, 8: {1: 9, 4: -1}, 9: {1: -9, 3: 1}, 10: {1: 1, 2: 11, 5: -2}}
    for k, row in table.items():
        assert nki_coeffs(k, "paper") == row
        assert sum(c * comb(k, i) for i, c in row.items()) == binom_gcd(k)
    with pytest.raises(UnsupportedK):
        nki_coeffs(12, "paper")


def test_gcd_of_binomials_prime_power_rule():
    for k in range(2, 40):
        g = binom_gcd(k)
        # p for prime powers, 1 otherwise
        factors = {p for p in range(2, k + 1) if k % p == 0 and all(p % q for q in range(2, p))}
        if len(factors) == 1:
            p = factors.pop()
            kk = k
            while kk % p == 0:
                kk //= p
            assert g == (p if kk == 1 else 1), k
        else:
            assert g == 1, k


def test_nki_extended_gcd():
    for k in (4, 8, 11, 12, 16, 21):
        row = nki_coeffs(k, "extended-gcd")
        assert sum(c * comb(k, i) for i, c in row.items()) == binom_gcd(k), k
    # deterministic
    assert nki_coeffs(12, "extended-gcd") == nki_coeffs(12, "extended-gcd")


@pytest.fixture(scope="module")
def rels7():
    return gen_2structure_relations(7)


def test_relations_homogeneous_and_tagged(rels7):
    for (a, b, c), poly in rels7.items():
        assert a >= 1 and b >= 1 and c >= 1
        assert apoly_weights(poly) == {a + b + c}, (a, b, c)


def canon(p):
    return str(p.set_u().content_normalize())


A_MONOS = [(ue, pairs) for ue in (0, 1)
           for pairs in ((), (((1, 1), 1),), (((1, 1), 2),), (((1, 2), 1),),
                         (((1, 1), 1), ((1, 2), 1)), (((2, 2), 1),), (((1, 3), 2),))]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(A_MONOS),
                          st.fractions().filter(bool)), min_size=1, unique_by=lambda t: t[0]),
       st.randoms())
def test_content_normalize_is_canonical(terms, rnd):
    """Coprime integer coefficients, a positive graded-lex lead, and the same
    result whatever order the terms were built in."""
    p = APoly(dict(terms)).content_normalize()
    shuffled = list(terms)
    rnd.shuffle(shuffled)
    assert p == APoly(dict(shuffled)).content_normalize()
    coeffs = [c for _, c in p.sorted_terms()]
    assert all(c.denominator == 1 for c in coeffs)
    assert gcd(*(c.numerator for c in coeffs)) == 1
    assert coeffs[-1] > 0
    # a rational multiple of p, scaled back to it
    assert (p.scale(Fraction(-7, 3))).content_normalize() == p


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.sampled_from(A_MONOS), st.fractions()))
def test_set_u_adds_terms_equal_but_for_u(terms):
    """Setting u = 1 adds the coefficients of monomials that differ only in
    u, over mixed denominators; a sum that cancels leaves no term."""
    want = {}
    for (_, pairs), c in terms.items():
        want[0, pairs] = want.get((0, pairs), 0) + c
    got = APoly(terms).set_u().terms
    assert got == {m: c for m, c in want.items() if c}
    assert all(type(c) is Fraction for c in got.values())


def test_relation_x2yz_generated(rels7):
    assert canon(rels7[(2, 1, 1)]) == "a12 - a11^2 - 3*a13 + 2*a22"


@pytest.mark.xfail(strict=True,
                   reason="paper misprint: the printed x^2yz relation "
                          "(a21 + 2a22 = a11^2 + a31) drops the factor 3 on a31 and "
                          "fails on coboundaries; the cocycle identity forces "
                          "a12 + 2a22 = a11^2 + 3a13 (u = 1)")
def test_relation_x2yz_as_printed(rels7):
    r = rels7[(2, 1, 1)]
    assert canon(r) in ("a12 - a11^2 - a13 + 2*a22",   # text variant
                             "a12 + a11^2 - a13 + 2*a22")   # table variant


def test_relation_x3yz_matches_paper(rels7):
    # printed: 2a14 + a11 a12 - a13 - a23 (up to sign/content normalization)
    assert canon(rels7[(3, 1, 1)]) == "a13 - a11*a12 - 2*a14 + a23"


def test_relation_x4yz_matches_paper(rels7):
    # printed: 5a15 - 2a24 - 3a14 + 2a11 a13 + a12^2
    assert canon(rels7[(4, 1, 1)]) == "3*a14 - 2*a11*a13 - a12^2 - 5*a15 + 2*a24"


@pytest.mark.xfail(strict=True,
                   reason="paper misprint: the printed x^2y^2z and x^3yz^2 rows are not "
                          "valid 2-structure relations (they fail on coboundaries); see "
                          "README's Known source errata for the generated rows")
def test_relations_x2y2z_x3yz2_as_printed(rels7):
    assert canon(rels7[(2, 2, 1)]) == "-a11 - a11^2 - 6*a13 + 2*a22 + 6*a14"
    assert canon(rels7[(3, 1, 2)]) == "-2*a23 + a11*a13 - a11*a22 - a12^2 + 3*a33"


@pytest.mark.parametrize("N", [7, 10])
def test_relations_annihilate_coboundaries(N):
    rels = gen_2structure_relations(N)
    rng = random.Random(RANDOM_SEED)
    for _ in range(20):
        g = [Fraction(rng.randint(-9, 9), rng.choice([1, 1, 3, 5])) for _ in range(N)]
        avals = coboundary_apoly_values(g, N)
        for mono, poly in rels.items():
            assert apoly_eval(poly, avals) == 0, (mono, g)


def test_relation_counts():
    counts = {N: len(gen_2structure_relations(N)) for N in (3, 4, 7, 10, 11, 12)}
    assert counts == {3: 0, 4: 2, 7: 26, 10: 100, 11: 140, 12: 190}


def _two_sided_relations(N):
    """The relations from expanding both sides of the cocycle identity, each
    monomial's difference normalized on its own."""
    f, x, y, z, u = cocycle_series(N)

    def f_at(A, B):
        return f.substitute({"x": A, "y": B})

    diff = (f_at(x, y) * f_at(x + y - u * x * y, z)
            - f_at(x, y + z - u * y * z) * f_at(y, z))
    groups = xyz_coefficients(diff)
    out = [(key, APoly(groups[key]).content_normalize()) for key in sorted(groups)]
    return [(key, str(poly)) for key, poly in out if poly.terms]


@pytest.mark.parametrize("N", range(3, 10))
def test_relations_match_two_sided_expansion(N):
    """Expanding one side and mirroring x <-> z gives the same relations, in
    the same order, as expanding both sides."""
    got = [(mono, str(poly)) for mono, poly in gen_2structure_relations(N).items()]
    assert got == _two_sided_relations(N)


@pytest.mark.parametrize("N", range(3, 15))
def test_relations_match_series_expansion(N):
    """The closed-form integer expansion gives the series engine's relations:
    the same keys in the same order, equal and equally printed polynomials,
    and one object shared by each mirror pair."""
    got, want = gen_2structure_relations(N), series_relations(N)
    assert list(got) == list(want)
    for (a, b, c), poly in got.items():
        assert poly == want[a, b, c], (a, b, c)
        assert str(poly) == str(want[a, b, c]), (a, b, c)
        assert got[c, b, a] is poly, (a, b, c)


@pytest.mark.parametrize("N", range(4, 13))
def test_relations_mirror_pairs(N):
    """Keys in sorted order, and a monomial and its mirror share one object."""
    rels = gen_2structure_relations(N)
    assert list(rels) == sorted(rels)
    for (a, b, c), poly in rels.items():
        assert a != c
        assert rels[(c, b, a)] is poly


def test_reducer_reads_mirror_copies_once():
    """A mapping whose mirror entries are equal but distinct copies gives the
    same phi(a_ij) as the generated one, whose mirrors share one object."""
    rels = gen_2structure_relations(9)
    copies = {mono: APoly(dict(poly.terms)) for mono, poly in rels.items()}
    assert copies[(2, 1, 1)] is not copies[(1, 1, 2)]
    shared, copied = DReducer(9, rels), DReducer(9, copies)
    for i in range(1, 9):
        for j in range(i, 10 - i):
            assert shared.reduce(agen(i, j)) == copied.reduce(agen(i, j)), (i, j)


def test_relations_annihilate_topological_family(rels7):
    """The universal relations vanish on the faithful classifying-space model."""
    oracle = BUOracle(7)
    for mono, poly in rels7.items():
        assert oracle.eval_apoly(poly).is_zero(), mono


@pytest.fixture(scope="module")
def reducer7(rels7):
    return DReducer(7, rels7)


def test_reduce_roundtrip(reducer7):
    for k in range(2, 8):
        assert reducer7.reduce(dk_as_apoly(k, reducer7.nki(k))) == DPoly({(k,): 1}), k


@pytest.fixture(scope="module", params=[10, 11, 12])
def reducer_at(request, reducer10, reducer11):
    W = request.param
    return {10: reducer10, 11: reducer11}.get(W) or DReducer(W)


def test_reduce_dmonomial_images_to_themselves(reducer_at):
    """Each d-monomial's own a-polynomial reduces to exactly that monomial."""
    for dm in dmonomials_upto(reducer_at.W):
        poly = agen(0, 0)
        for k in dm:
            poly = apoly_mul(poly, dk_as_apoly(k, reducer_at.nki(k)))
        assert reducer_at.reduce(poly) == DPoly({dm: 1}), dm


def test_reduce_fails_loudly_without_relations():
    # degree-3 sources yield no relations at all, so a bare a22 is stuck
    red = DReducer(5, gen_2structure_relations(3))
    with pytest.raises(NotReducible):
        red.reduce(agen(2, 2))
    # with the degree-4 relation it reduces: a22 = 3d4 + d3 - d2^2
    red4 = DReducer(5, gen_2structure_relations(4))
    assert red4.reduce(agen(2, 2)) == DPoly({(4,): 3, (3,): 1, (2, 2): -1})


def test_reduce_checks_span_before_dependence():
    """A false relation a13 = 0 contradicts the d_k (the quotient is not
    polynomial): a reducible target is a UsageError, while a target that
    needs the undetermined a23 is still NotReducible.  The false relation sits
    at x y^2 z, a weight-4 key no relation uses."""
    rels = gen_2structure_relations(4)
    assert (1, 2, 1) not in rels
    red = DReducer(5, {**rels, (1, 2, 1): agen(1, 3)})
    with pytest.raises(UsageError):
        red.reduce(dk_as_apoly(2, red.nki(2)))
    with pytest.raises(NotReducible):
        red.reduce(agen(2, 3))


@pytest.mark.parametrize("W", [2, 6, 9])
def test_coboundary_coeffs_evaluate_to_the_coboundary(W):
    """A_ij(b) at rational b_2..b_W is the (i, j) coefficient of the series
    h(x) h(y) / h(x + y - xy), h = 1 + b_2 t^2 + ..., from the series engine."""
    codes = monomial_codes(W)
    rng = random.Random(RANDOM_SEED)
    for _ in range(5):
        b = {k: Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 7])) for k in range(2, W + 1)}
        want = coboundary_apoly_values([0] + [b[k] for k in range(2, W + 1)], W)
        for (i, j), poly in coboundary_coeffs(W).items():
            got = Fraction(0)
            for code, c in poly.items():
                term = Fraction(c)
                for k in codes[code]:
                    term *= b[k]
                got += term
            assert got == want.get((i, j), 0), (i, j, b)


SOLVE_CASES = ([(W, mode) for mode in ("auto", "extended-gcd") for W in range(3, 17)]
               + [(W, "paper") for W in range(3, 11)])


@pytest.mark.parametrize("W, mode", SOLVE_CASES)
def test_universal_reducer_equals_relation_solve(W, mode):
    """The closed form from the coboundary gives exactly the phi(a_ij) of the
    relation solve, for every i + j <= W, and the solve's exact guard passes."""
    solved = DReducer(W, gen_2structure_relations(W), nki_mode=mode)
    closed = DReducer(W, nki_mode=mode)
    assert solved._consistent
    assert len(generator_images(solved)) == (W // 2) * ((W + 1) // 2)
    assert generator_images(closed) == generator_images(solved)


@pytest.mark.parametrize("W", range(3, 15))
def test_relations_reduce_to_zero_under_universal_reducer(W):
    red = DReducer(W)
    for mono, poly in gen_2structure_relations(W).items():
        assert red.reduce(poly) == DPoly(), mono


def test_universal_reducer_small_weights():
    assert generator_images(DReducer(1)) == {}
    assert generator_images(DReducer(2)) == {(1, 1): {(2,): 1}}
    with pytest.raises(NotReducible):
        DReducer(4).reduce(agen(2, 3))


PSI_DK_COMPUTED = {
    2: {(2,): 9},
    3: {(3,): 27, (2,): -9},
    4: {(4,): 81, (2,): 6},
    5: {(5,): 243, (4,): -486, (3,): -198, (2, 2): 243},
    6: {(6,): 729, (5,): -729, (4,): -27, (2, 3): 243, (3,): 54, (2, 2): -81, (2,): -1},
}

PSI_DK_PRINTED = {
    2: {(2,): 9},
    3: {(3,): 27, (2,): -9},
    4: {(4,): 81},
    5: {(5,): 243, (4,): 486, (3,): 288, (2, 2): -243},
    6: {(6,): 729, (5,): -729, (4,): -351, (2, 3): 243, (3,): -108, (2, 2): -81, (2,): -1},
}


def test_psi_on_dk_above_the_reducer_weight_is_not_reducible(reducer7):
    with pytest.raises(NotReducible):
        thom_psi_dk(reducer7.W + 1, theta_unit(reducer7.W), reducer7)


def test_psi_on_dk_computed_values(reducer7):
    """d2, d3 equal the printed values; d4..d6 are pinned at the values forced
    by the printed beta table (independently confirmed by the BU oracle)."""
    for k, want in PSI_DK_COMPUTED.items():
        assert thom_psi_dk(k, theta_unit(7), reducer7) == DPoly(want), k


@pytest.mark.xfail(strict=True,
                   reason="paper misprint: printed psi d4 (81d4) drops a 6d2 term "
                          "(its derivation miscopies -3a11 as -9a11); printed d5/d6 "
                          "inherit the x^2yz relation error; computed values are "
                          "confirmed by the independent BU-model oracle")
def test_psi_on_dk_as_printed(reducer7):
    for k in (4, 5, 6):
        assert thom_psi_dk(k, theta_unit(7), reducer7) == DPoly(PSI_DK_PRINTED[k]), k


def test_psi_on_dk_agrees_with_bu_oracle(reducer7):
    oracle = BUOracle(7)
    for k in range(2, 8):
        coords = oracle.psi_dk_coords(k)
        assert coords is not None, k
        assert DPoly(coords) == thom_psi_dk(k, theta_unit(7), reducer7), k


def test_psi_d7_intermediate_matches_paper():
    # psi d7 = 3^7 d7 + 3a12 - 243a13 + 1782a14 - 3645a15 before reduction
    expr = psi_tensor_apoly(1, 6)
    want = APoly({(0, ((pair, 1),)): c for pair, c in
                  (((1, 6), 2187), ((1, 2), 3), ((1, 3), -243), ((1, 4), 1782), ((1, 5), -3645))})
    assert expr == want


def test_reduce_mod2_after_rational_reduction(reducer7):
    # section 4.4.1 mod-2 rows follow from the exact values
    mod2 = {k: thom_psi_dk(k, theta_unit(7), reducer7).mod2() for k in (2, 3, 4, 5)}
    assert mod2[2] == DPoly({(2,): 1})
    assert mod2[3] == DPoly({(3,): 1, (2,): 1})
    assert mod2[4] == DPoly({(4,): 1})
    assert mod2[5] == DPoly({(5,): 1, (2, 2): 1})


def test_spherical_search_paper_classes(thom_table10):
    kernel, new = spherical_search(20, thom_table10)
    z4 = DPoly({(2,): 1})
    z12 = DPoly({(3, 3): 1, (5,): 1, (4,): 1, (2, 2): 1})
    z16 = DPoly({(4, 4): 1, (4,): 1})
    z20 = DPoly({(5, 5): 1, (2, 2, 5): 1})
    for z in (z4, z12, z16, z20):
        assert in_gf2_span(kernel, z), str(z)
    assert not new.get(6), "no spherical class in weight 6"
    assert [str(e) for e in new.get(4, [])] == ["d2"]


def test_spherical_kernel_is_fixed_pointwise(thom_table10):
    table = {k: p.mod2() for k, p in thom_table10.items()}
    kernel, _ = spherical_search(20, thom_table10)
    for elt in kernel:
        img = DPoly({})
        for m in elt.terms:
            acc = DPoly({(): 1})
            for k in m:
                acc = dpoly_mul(acc, table[k])
            img = poly_add(img, acc)
        assert img.mod2() == elt, str(elt)


def test_spherical_requires_full_table(thom_table10):
    """Every d_k up to the weight, each with a psi image of weight <= k."""
    partial = {k: thom_table10[k] for k in (2, 3)}
    from fglab.errors import InsufficientTable
    with pytest.raises(InsufficientTable, match="lacks d_4"):
        spherical_search(12, partial)
    raising = {**thom_table10, 3: poly_add(thom_table10[3], DPoly({(2, 2): 1}))}
    with pytest.raises(InsufficientTable, match="psi image of d_3 has weight above 3"):
        spherical_search(12, raising)


def test_bootstrap_zero_and_idempotence(thom_table10):
    assert bootstrap_lift(DPoly(), thom_table10, 10) == DPoly()
    b = bootstrap_lift(DPoly({(2,): 1}), thom_table10, 4, max_weight=8)
    assert bootstrap_lift(b, thom_table10, 4, max_weight=8) == b


def test_bootstrap_lift_verified_by_applying_psi(thom_table10):
    z = DPoly({(2,): 1})
    b = bootstrap_lift(z, thom_table10, 6, max_weight=16)
    assert poly_sub(b, z).mod2() == DPoly()  # b = z mod 2
    defect = poly_sub(_psi_dpoly(b, thom_table10), b)
    assert all(rat_val2(c) >= 6 for c in defect.terms.values())


@pytest.mark.xfail(strict=True,
                   reason="the weight-<=4 correction space {1, d2} cannot lift d2: "
                          "(psi-1) vanishes mod 2 on it while the stage-1 defect is "
                          "(8d2 + 2/3)/2 = 1 mod 2; corrections of weight 8 (d4's "
                          "constant term 1/9) are required, and each two bits of "
                          "precision demand further weight")
def test_bootstrap_lift_weight4_to_2_10(thom_table10):
    b = bootstrap_lift(DPoly({(2,): 1}), thom_table10, 10, max_weight=4)
    assert max(map(sum, b.terms), default=0) <= 2


def test_bootstrap_obstruction_is_reported(thom_table10):
    with pytest.raises(LiftObstruction) as ei:
        bootstrap_lift(DPoly({(2,): 1}), thom_table10, 10, max_weight=4)
    assert ei.value.stage == 1


def test_dmonomials_enumeration():
    assert dmonomials_upto(4) == [(), (2,), (3,), (2, 2), (4,)]
    assert dmonomials_upto(4, include_const=False) == [(2,), (3,), (2, 2), (4,)]


D_MONOS = [(), (2,), (3,), (2, 2), (2, 3), (4,), (3, 3), (2, 2, 5)]
DPOLYS = st.dictionaries(st.sampled_from(D_MONOS),
                         st.fractions(max_denominator=9).filter(lambda c: c.denominator % 2),
                         max_size=5).map(DPoly)


@settings(max_examples=200, deadline=None)
@given(DPOLYS, DPOLYS, DPOLYS)
def test_dpoly_product_ring_laws(p, q, r):
    """Commutative, associative, distributive over +, and compatible with the
    mod-2 reduction (denominators odd)."""
    mul = dpoly_mul
    assert mul(p, q) == mul(q, p)
    assert mul(mul(p, q), r) == mul(p, mul(q, r))
    assert mul(p, poly_add(q, r)) == poly_add(mul(p, q), mul(p, r))
    assert mul(p, q).mod2() == mul(p.mod2(), q.mod2()).mod2()


@settings(max_examples=200, deadline=None)
@given(DPOLYS, DPOLYS)
def test_dpoly_product_matches_the_series_product(p, q):
    assert dpoly_mul(p, q) == dpoly_product_by_series(p, q)


# psi tables at weight 10: the Thom level, the base level (the unit class),
# and the Thom table with psi(d_3) raised to weight 7, which the exact psi
# on d-polynomials accepts although the mod-2 kernel search refuses it
PSI_TABLES = ("thom", "unit", "heavy d3")


@pytest.fixture(scope="module")
def psi_tables(thom_table10, reducer10):
    theta = theta_unit(10)
    return {"thom": thom_table10,
            "unit": {k: thom_psi_dk(k, theta, reducer10) for k in range(2, 11)},
            "heavy d3": {**thom_table10, 3: poly_add(thom_table10[3], DPoly({(2, 5): Fraction(1, 3)}))}}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(PSI_TABLES),
       p=st.dictionaries(st.sampled_from(dmonomials_upto(10)), st.fractions(max_denominator=9),
                         max_size=4).map(DPoly))
def test_psi_dpoly_matches_the_monomial_loop(psi_tables, name, p):
    """psi on a d-polynomial, one memoised map on the codes of its own
    weight, equals the per-monomial product of the table's entries."""
    assert _psi_dpoly(p, psi_tables[name]) == psi_dpoly_by_monomials(p, psi_tables[name])


def test_psi_dpoly_names_the_missing_d_k(thom_table10):
    p = DPoly({(2, 3): 1, (11,): 1, (2, 12): 1})
    for psi in (_psi_dpoly, psi_dpoly_by_monomials):
        with pytest.raises(InsufficientTable, match="^psi table lacks d_11$"):
            psi(p, thom_table10)


def test_psi_minus_id_mod2_is_the_support_of_exact_psi(thom_table10):
    """Each mod-2 image of (psi - id) on the d-monomials of weight <= 10 is
    the support of the odd coefficients of the exact psi(m) - m, as a bitset
    whose bits are the monomials in sorted-tuple order."""
    monos, bit, cols = _psi_minus_id_mod2(10, thom_table10)
    assert monos == dmonomials_upto(10)
    assert bit == {m: 1 << i for i, m in enumerate(sorted(monos))}
    for m, col in zip(monos, cols):
        exact = poly_sub(psi_dpoly_by_monomials(DPoly({m: 1}), thom_table10), DPoly({m: 1}))
        assert col == sum(bit[t] for t in exact.mod2().terms), m


THETA_SOURCES = (unit_class, theta3_direct)


@pytest.mark.parametrize("k, l", [(3, 5), (5, 3), (3, 7), (5, 7), (7, 5)])
def test_psi_on_dk_composes(reducer14, k, l):
    """psi^(1/l) applied to the d-polynomial psi^(1/k) d_n is psi^(1/kl) d_n,
    at the base level (the unit class) and at the Thom level (theta^k)."""
    for theta_of in THETA_SOURCES:
        assert composition_failures(reducer14, k, l, theta_of) == [], theta_of.__name__


@settings(max_examples=40, deadline=None)
@given(k=st.sampled_from((1, 3, 5, 7, 9)), l=st.sampled_from((1, 3, 5, 7, 9)),
       theta_of=st.sampled_from(THETA_SOURCES))
def test_psi_on_dk_composes_for_odd_k_l(reducer8, k, l, theta_of):
    assert composition_failures(reducer8, k, l, theta_of) == []


@pytest.fixture(scope="module")
def reducers_for_reduce():
    """Both constructors, a partial relation set that leaves a_ij of weight
    6 to 8 undetermined, the same set completed by invented relations
    n a_ij = (a product of lower a's), and a false relation a13 = 0.  The
    invented set is consistent and gives phi(a_ij) denominators 2 to 36;
    the 2-structure relations give an integral phi in every n_k^i mode, so
    without it the rescale of each phi to the common denominator would go
    untested."""
    rels4, rels5 = gen_2structure_relations(4), gen_2structure_relations(5)

    def invent(n, pair, *factors):
        return APoly({(0, ((pair, 1),)): n, (0, tuple(sorted(Counter(factors).items()))): -1})

    invented = {(1, 1, 4): invent(2, (2, 4), (1, 1), (1, 1), (1, 1)),
                (1, 2, 3): invent(3, (3, 3), (1, 2), (1, 2)),
                (1, 1, 5): invent(5, (2, 5), (1, 2), (2, 2)),
                (1, 2, 4): invent(7, (3, 4), (1, 1), (1, 1), (1, 2)),
                (1, 1, 6): invent(2, (2, 6), (1, 1), (1, 1), (1, 1), (1, 1)),
                (1, 2, 5): invent(9, (3, 5), (1, 3), (1, 3)),
                (1, 3, 4): invent(4, (4, 4), (2, 2), (2, 2))}
    return {
        "universal": DReducer(7),
        "universal extended-gcd": DReducer(8, nki_mode="extended-gcd"),
        "solve": DReducer(7, gen_2structure_relations(7)),
        "partial": DReducer(8, rels5),
        "invented": DReducer(8, {**rels5, **invented}),
        "false": DReducer(5, {**rels4, (1, 2, 1): agen(1, 3)}),
    }


A_PAIRS = [(i, j) for i in range(1, 5) for j in range(i, 9 - i)]
A_TERMS = st.tuples(
    st.integers(0, 2),                                # u power
    st.lists(st.sampled_from(A_PAIRS), max_size=2),   # a product of a_ij
    st.integers(-50, 50),                             # numerator
    st.sampled_from((1, 2, 3, 5, 9, 27, 49)),         # denominator
    st.booleans(),                                    # cancel at u = 1 by a u-shifted copy
)


@settings(max_examples=400, deadline=None)
@given(name=st.sampled_from(("universal", "universal extended-gcd", "solve", "partial",
                             "invented", "false")),
       terms=st.lists(A_TERMS, max_size=4))
def test_reduce_equals_the_fraction_loop(reducers_for_reduce, name, terms):
    """The integer multiply-add of ``reduce`` gives the term-by-term Fraction
    sum, or raises the same error with the same message: NotReducible above
    the weight or for an undetermined a_ij, UsageError for a false relation."""
    red = reducers_for_reduce[name]
    expr = {}
    for u, pairs, num, den, cancel in terms:
        mono = tuple(sorted(Counter(pairs).items()))
        expr[u, mono] = expr.get((u, mono), 0) + Fraction(num, den)
        if cancel:
            expr[u + 3, mono] = expr.get((u + 3, mono), 0) - Fraction(num, den)
    expr = APoly(expr)

    def outcome(reduce):
        try:
            return reduce(expr)
        except (NotReducible, UsageError) as e:
            return type(e), str(e)

    assert outcome(red.reduce) == outcome(lambda e: reduce_by_fractions(red, e))
