import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fglab.errors import NotAUnit, NotInDomain, PrecisionTooLow
from fglab.rings import (GF2, GF2Elt, Padic2, Padic2Ring, gf2_from_rat, padic_from_rat,
                         padic_log, val2)

from helpers import RANDOM_SEED


def test_rat_agrees_with_integers():
    rng = random.Random(RANDOM_SEED)
    for _ in range(200):
        a, b = rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)
        assert Fraction(a) + Fraction(b) == a + b
        assert Fraction(a) * Fraction(b) == a * b


def test_rat_reduced_invariant():
    q = Fraction(6, -4)
    assert q.numerator == -3 and q.denominator == 2


def test_val2():
    assert val2(8) == 3
    assert val2(-12) == 2
    with pytest.raises(ValueError):
        val2(0)


def test_padic_embedding_inverts_denominator():
    rng = random.Random(RANDOM_SEED)
    for _ in range(50):
        p = rng.randint(-10**6, 10**6)
        q = rng.choice([1, 3, 5, 7, 9, 11, 1001])
        x = padic_from_rat(Fraction(p, q), 64)
        assert (x.value * q - p) % (1 << 64) == 0


def test_padic_embedding_even_denominator_rejected():
    with pytest.raises(NotInDomain):
        padic_from_rat(Fraction(1, 2), 32)


def test_padic_min_precision_carries():
    a = Padic2(5, 32)
    b = Padic2(7, 16)
    assert (a + b).precision == 16
    assert (a * b).precision == 16


def test_padic_inverse():
    assert Padic2(1, 8).inverse() == Padic2(1, 8)
    # brute-force oracle mod 256
    inv = next(v for v in range(256) if (3 * v) % 256 == 1)
    assert inv == 171
    assert Padic2(3, 8).inverse().value == 171
    with pytest.raises(NotAUnit):
        Padic2(4, 8).inverse()


def test_padic_inverse_involution():
    rng = random.Random(RANDOM_SEED)
    for _ in range(50):
        u = Padic2(rng.randrange(1, 1 << 48, 2), 48)
        assert u.inverse().inverse() == u


def test_padic_log_unit():
    assert padic_log(Padic2(1, 64)).value == 0


def test_padic_log_domain_errors():
    with pytest.raises(NotInDomain):
        padic_log(Padic2(3, 64))
    with pytest.raises(PrecisionTooLow):
        padic_log(Padic2(1, 2))


def test_padic_log_homomorphism():
    rng = random.Random(RANDOM_SEED)
    for _ in range(20):
        u = Padic2(4 * rng.randrange(0, 1 << 60) + 1, 64)
        w = Padic2(4 * rng.randrange(0, 1 << 60) + 1, 64)
        left = padic_log(u * w)
        right = padic_log(u) + padic_log(w)
        assert left == right


def test_padic_log_doubling_at_81():
    # 81 = 3^4 is the eigenvalue base of the Artin-Schreier construction
    l = padic_log(Padic2(81, 64))
    l2 = padic_log(Padic2(81 * 81, 64))
    assert l2 == l + l
    assert l.val2() == 4


def test_gf2_reduction_is_parity():
    assert gf2_from_rat(Fraction(7, 3)) == GF2.one
    assert gf2_from_rat(Fraction(-4, 5)) == GF2.zero
    with pytest.raises(NotInDomain):
        gf2_from_rat(Fraction(1, 2))


def test_reduction_maps_are_homomorphisms():
    rng = random.Random(RANDOM_SEED)
    ring = Padic2Ring(48)
    for _ in range(50):
        a = Fraction(rng.randint(-999, 999), rng.choice([1, 3, 5, 7]))
        b = Fraction(rng.randint(-999, 999), rng.choice([1, 3, 5, 7]))
        assert ring.from_rat(a + b) == ring.from_rat(a) + ring.from_rat(b)
        assert ring.from_rat(a * b) == ring.from_rat(a) * ring.from_rat(b)
        assert gf2_from_rat(a + b) == gf2_from_rat(a) + gf2_from_rat(b)
        assert gf2_from_rat(a * b) == gf2_from_rat(a) * gf2_from_rat(b)


def test_padic_shift_and_div():
    x = Padic2(48, 32)
    assert x.shift_down(4).value == 3
    assert x.shift_down(4).precision == 28
    y = Padic2(9, 32).div_int(3)
    assert y * Padic2(3, 32) == Padic2(9, 32)
    with pytest.raises(NotInDomain):
        Padic2(3, 16).shift_down(1)


def test_gf2_equals_int_of_same_value():
    assert GF2Elt(0) == 0 and GF2Elt(1) == 1
    assert 0 == GF2Elt(0) and 1 == GF2Elt(1)
    assert GF2Elt(1) != 0 and GF2Elt(0) != 1
    assert GF2Elt(1) != 3 and GF2Elt(0) != 2 and GF2Elt(1) != -1
    assert GF2Elt(1) != "1"
    assert {GF2Elt(1), 1, GF2Elt(3)} == {1}
    assert hash(GF2Elt(5)) == hash(1)


def test_padic_congruent_values_share_a_hash():
    assert Padic2(1, 8) == Padic2(257, 16)
    assert len({Padic2(1, 8), Padic2(257, 16)}) == 1
    assert Padic2(1, 16) != Padic2(257, 16)
    assert len({Padic2(1, 16), Padic2(257, 16)}) == 2


gf2_or_int = st.one_of(st.integers(-4, 4), st.integers(-4, 4).map(GF2Elt))
padics = st.builds(Padic2, st.integers(-600, 600), st.integers(1, 10))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.tuples(gf2_or_int, gf2_or_int), st.tuples(padics, padics)))
def test_equal_values_have_equal_hashes(pair):
    a, b = pair
    assert (a == b) == (b == a)
    if a == b:
        assert hash(a) == hash(b)


# -- ring axioms ----------------------------------------------------------------

rats = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 9))
gf2s = st.integers(0, 1).map(GF2Elt)


def exact(v):
    """A Padic2 as (value, precision): its == is congruence at the lower precision."""
    return (v.value, v.precision) if isinstance(v, Padic2) else v


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.tuples(rats, rats, rats), st.tuples(gf2s, gf2s, gf2s),
                 st.tuples(padics, padics, padics)))
def test_scalar_ring_axioms(triple):
    a, b, c = triple
    assert exact(a + b) == exact(b + a)
    assert exact(a * b) == exact(b * a)
    assert exact((a + b) + c) == exact(a + (b + c))
    assert exact((a * b) * c) == exact(a * (b * c))
    assert exact(a * (b + c)) == exact(a * b + a * c)


@settings(max_examples=300, deadline=None)
@given(padics, padics)
def test_padic_precision_is_the_minimum(a, b):
    low = min(a.precision, b.precision)
    assert (a + b).precision == (a - b).precision == (a * b).precision == low
    assert (-a).precision == a.precision
