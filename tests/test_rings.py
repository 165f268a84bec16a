import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fglab.adams import APoly, DPoly
from fglab.errors import NotAUnit, NotInDomain, PrecisionTooLow
from fglab.mahler import Padic2, padic_log
from fglab.series import MultiSeries, val2

from helpers import RANDOM_SEED, padic_from_rat


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


def test_reduction_maps_are_homomorphisms():
    """Q -> Z_2 at 48 bits, and at 1 bit, where it is the reduction to GF(2)."""
    rng = random.Random(RANDOM_SEED)
    for _ in range(50):
        a = Fraction(rng.randint(-999, 999), rng.choice([1, 3, 5, 7]))
        b = Fraction(rng.randint(-999, 999), rng.choice([1, 3, 5, 7]))
        for prec in (48, 1):
            ra, rb = padic_from_rat(a, prec), padic_from_rat(b, prec)
            assert padic_from_rat(a + b, prec) == ra + rb
            assert padic_from_rat(a * b, prec) == ra * rb


def test_padic_shift_and_div():
    x = Padic2(48, 32)
    assert x.shift_down(4).value == 3
    assert x.shift_down(4).precision == 28
    y = Padic2(9, 32).div_int(3)
    assert y * Padic2(3, 32) == Padic2(9, 32)
    with pytest.raises(NotInDomain):
        Padic2(3, 16).shift_down(1)


def test_padic_congruent_values_share_a_hash():
    assert Padic2(1, 8) == Padic2(257, 16)
    assert len({Padic2(1, 8), Padic2(257, 16)}) == 1
    assert Padic2(1, 16) != Padic2(257, 16)
    assert len({Padic2(1, 16), Padic2(257, 16)}) == 2


rats = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 9))
int_or_rat = st.one_of(st.integers(-4, 4), rats)
padics = st.builds(Padic2, st.integers(-600, 600), st.integers(1, 10))

# monomials of each polynomial type: APoly (u-power, a-monomial), DPoly sorted
# index tuples, and MultiSeries exponents in (x, y) at bound 4
MONOMIALS = {
    APoly: [(0, ()), (1, ()), (0, (((1, 1), 1),)), (0, (((1, 2), 2),)), (2, (((1, 1), 1), ((2, 3), 1)))],
    DPoly: [(), (2,), (2, 3), (2, 2, 5), (3, 3, 4)],
    MultiSeries: [(0, 0), (1, 0), (0, 1), (2, 1), (1, 3)],
}


@st.composite
def poly_pairs(draw):
    """Two polynomials of one type built from the same terms: the second takes
    them in reverse order, with ints for integral Fractions and an extra zero
    coefficient; a DPoly's index tuples come reversed, and a MultiSeries gets
    a term above its bound, which truncation drops.  Half the time one
    coefficient of the second is raised by 1, so the two differ."""
    kind = draw(st.sampled_from(list(MONOMIALS)))
    terms = draw(st.dictionaries(st.sampled_from(MONOMIALS[kind]), rats))
    twin = {m: c.numerator if c.denominator == 1 else c for m, c in reversed(terms.items())}
    spare = [m for m in MONOMIALS[kind] if m not in terms]
    if spare:
        twin[draw(st.sampled_from(spare))] = 0
    if draw(st.booleans()):
        m = draw(st.sampled_from(sorted(twin, key=repr)))
        twin[m] += 1
    if kind is MultiSeries:
        return kind(("x", "y"), terms, 4), kind(("x", "y"), {**twin, (5, 0): 1}, 4)
    if kind is DPoly:
        twin = {m[::-1]: c for m, c in twin.items()}
    return kind(terms), kind(twin)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.tuples(int_or_rat, int_or_rat), st.tuples(padics, padics), poly_pairs()))
def test_equal_values_have_equal_hashes(pair):
    a, b = pair
    assert (a == b) == (b == a)
    if a == b:
        assert hash(a) == hash(b)


# -- ring axioms ----------------------------------------------------------------


def exact(v):
    """A Padic2 as (value, precision): its == is congruence at the lower precision."""
    return (v.value, v.precision) if isinstance(v, Padic2) else v


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.tuples(rats, rats, rats), st.tuples(padics, padics, padics)))
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
