import random
from fractions import Fraction
from math import comb

import pytest

from fglab.errors import MismatchAt, NotAUnit, NotInDomain, NotNumerical
from fglab.mahler import (adams_matrix, artin_schreier_check, binom, dilate,
                          dilation_matrix, dilation_vs_adams, mahler_expand)
from fglab.rings import Padic2

from helpers import RANDOM_SEED, mahler_expand_poly


def test_mahler_expand_square():
    # T^2 = 2 C(T,2) + C(T,1)
    np_ = mahler_expand_poly([0, 0, 1], 4)
    assert np_.coeffs == {1: 1, 2: 2}
    for t in range(5):
        assert np_.eval_at(t) == t * t


def test_mahler_expand_c3t_3():
    np_ = mahler_expand(lambda t: comb(3 * t, 3), 6)
    assert np_.coeffs == {3: 27, 2: 18, 1: 1}


def test_mahler_expand_c3t_6():
    np_ = mahler_expand(lambda t: comb(3 * t, 6), 8)
    assert np_.coeffs == {6: 729, 5: 1215, 4: 594, 3: 81, 2: 1}


def test_mahler_roundtrip_random_polynomials():
    rng = random.Random(RANDOM_SEED)
    for _ in range(20):
        cs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(1, 6))]
        deg = len(cs) - 1

        def fn(t):
            acc = Fraction(0)
            for c in reversed(cs):
                acc = acc * t + c
            return acc

        np_ = mahler_expand(fn, deg + 2)
        for t in range(deg + 3):
            assert np_.eval_at(t) == fn(t)


def test_mahler_integrality_newton_basis():
    rng = random.Random(RANDOM_SEED)
    for _ in range(20):
        vals = [rng.randint(-50, 50) for _ in range(7)]
        # interpolate: any integer-valued function on 0..6 has integer Mahler
        # coefficients up to order 6
        np_ = mahler_expand(lambda t: vals[t], 6)
        assert np_.is_integral()
    with pytest.raises(NotNumerical):
        mahler_expand(lambda t: Fraction(t, 2), 3, integral=True)


def test_dilate_identity():
    for i in range(0, 6):
        np_ = dilate(1, i)
        assert np_.coeffs == ({i: 1} if i > 0 else {0: 1})


def test_dilate_paper_rows():
    rows = {
        1: {1: 3},
        2: {2: 9, 1: 3},
        3: {3: 27, 2: 18, 1: 1},
        4: {4: 81, 3: 81, 2: 15},
        5: {5: 243, 4: 324, 3: 108, 2: 6},
        6: {6: 729, 5: 1215, 4: 594, 3: 81, 2: 1},
    }
    for i, row in rows.items():
        assert dilate(3, i).coeffs == row, i


def test_dilate_semigroup_square():
    # C(9T, i) two ways: direct, and the matrix square of the k = 3 matrix
    D3 = dilation_matrix(3, 8)
    D9 = dilation_matrix(9, 8)
    n = 9
    prod = [[sum(D3[i][k] * D3[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    assert prod == D9


def test_dilate_semigroup_3_5():
    D3 = dilation_matrix(3, 8)
    D5 = dilation_matrix(5, 8)
    D15 = dilation_matrix(15, 8)
    n = 9
    prod = [[sum(D3[i][k] * D5[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    assert prod == D15


def test_dilate_2adic_matches_integer():
    k = Padic2(3, 48)
    for i in range(0, 7):
        got = dilate(k, i)
        want = dilate(3, i)
        for j in set(got.coeffs) | set(want.coeffs):
            g = got.coeffs.get(j)
            w = want.coeffs.get(j, 0)
            assert g is not None and g == Padic2(int(w), g.precision), (i, j)
    with pytest.raises(NotAUnit):
        dilate(Padic2(2, 16), 3)


@pytest.mark.parametrize("k", [-1, -3, -5])
def test_dilate_negative_k_matches_2adic(k):
    """For integer k < 0, C(kT, i) uses the generalized binomial and agrees
    with the 2-adic path at the same k modulo 2^precision."""
    for i in range(0, 7):
        got = dilate(Padic2(k, 63), i)
        want = dilate(k, i)
        assert set(got.coeffs) == set(want.coeffs), i
        for j, w in want.coeffs.items():
            g = got.coeffs[j]
            assert g == Padic2(int(w), g.precision), (i, j)
        for t in range(-4, 5):
            assert want.eval_at(t) == binom(k * t, i), (i, t)


def test_binom_generalized():
    assert [binom(-3, i) for i in range(5)] == [1, -3, 6, -10, 15]
    assert binom(-1, 7) == -1 and binom(2, 3) == 0 and binom(5, 2) == comb(5, 2)


def test_dilation_vs_adams_identity_k1():
    res = dilation_vs_adams(6, k=1)
    n = 7
    eye = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    assert res["dilation"] == eye
    assert res["adams"] == eye


def test_dilation_vs_adams_sign_conjugation():
    res = dilation_vs_adams(10)
    D, A, Ap = res["dilation"], res["adams"], res["adams_dual"]
    for i in range(11):
        for j in range(11):
            assert D[i][j] == A[i][j] * (-1) ** (i - j)
            assert D[i][j] == Ap[i][j]


def test_dilation_vs_adams_mismatch_reporting():
    # feed a corrupted matrix comparison through the same code path
    from fglab.mahler import adams_matrix
    A = adams_matrix(3, 4)
    D = dilation_matrix(3, 4)
    D[2][1] += 1
    with pytest.raises(MismatchAt):
        _compare(D, A)


def _compare(D, A):
    for i in range(len(D)):
        for j in range(len(D)):
            conj = A[i][j] * (-1) ** (i - j)
            if D[i][j] != conj:
                raise MismatchAt(i, j, D[i][j], conj)


def test_artin_schreier_trivial():
    res = artin_schreier_check(1, 48)
    assert res["b"].value == 0
    assert res["verified"]
    # -log(1/81)/log(81) = 1 = b + 1
    assert res["lhs"] == res["rhs"]


def test_artin_schreier_17():
    res = artin_schreier_check(17, 48)
    assert res["verified"]


def test_artin_schreier_random_units():
    rng = random.Random(RANDOM_SEED)
    for _ in range(20):
        u = 16 * rng.randrange(0, 1 << 42) + 1
        res = artin_schreier_check(u, 48)
        assert res["verified"], u


def test_artin_schreier_domain():
    with pytest.raises(NotInDomain):
        artin_schreier_check(5, 48)


def test_artin_schreier_numeric_M_with_trivial_symbols():
    """[M] = v^4 + 16(...) at v = 1 and all b_i = 0 is u = 1: the trivial case."""
    res = artin_schreier_check(1, 48)
    assert res["b"].value == 0 and res["verified"]
