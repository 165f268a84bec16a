import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fglab.errors import (BoundMismatch, NonUnitConstantTerm, NonzeroConstantTerm,
                          NotStrict, VariableMismatch)
from fglab.rings import GF2, RAT, GF2Elt, Padic2, Padic2Ring, gf2_from_rat
from fglab.series import MultiSeries, residue_inverse_coeff

from helpers import RANDOM_SEED, exp_series, log1p_series


def uni(terms, bound=8):
    return MultiSeries(RAT, ("x",), {(k,): Fraction(v) for k, v in terms.items()}, bound)


def rand_series(rng, bound, strict=False, nterms=6):
    terms = {}
    if strict:
        terms[(1,)] = Fraction(1)
        lo = 2
    else:
        lo = 0
    for _ in range(nterms):
        k = rng.randint(lo, bound)
        terms[(k,)] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return MultiSeries(RAT, ("x",), terms, bound)


def test_mul_simple():
    xy = MultiSeries(RAT, ("x", "y"), {(1, 0): Fraction(1)}, 2) * \
         MultiSeries(RAT, ("x", "y"), {(0, 1): Fraction(1)}, 2)
    assert xy.terms == {(1, 1): Fraction(1)}


@st.composite
def series_pairs(draw):
    """Two series in one ambient: 1-3 variables with weights in {-1, 0, 1, 2},
    bound None or 0..8, coefficients in RAT or GF2."""
    ring = draw(st.sampled_from([RAT, GF2]))
    n = draw(st.integers(1, 3))
    weights = draw(st.lists(st.sampled_from([-1, 0, 1, 2]), min_size=n, max_size=n))
    bound = draw(st.one_of(st.none(), st.integers(0, 8)))
    if ring is RAT:
        coeffs = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    else:
        coeffs = st.integers(0, 1).map(GF2Elt)
    exps = st.tuples(*[st.integers(0, 4)] * n)

    def one():
        terms = draw(st.dictionaries(exps, coeffs, max_size=8))
        return MultiSeries(ring, [f"x{i}" for i in range(n)], terms, bound, weights)

    return one(), one()


@settings(max_examples=300, deadline=None)
@given(series_pairs())
def test_mul_equals_truncated_all_pairs_product(pair):
    a, b = pair
    naive = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            exp = tuple(x + y for x, y in zip(e1, e2))
            naive[exp] = naive[exp] + c1 * c2 if exp in naive else c1 * c2
    want = MultiSeries(a.ring, a.vars, naive, a.bound, a.weights)
    assert (a * b).terms == want.terms
    assert (b * a).terms == want.terms


@st.composite
def substitutions(draw):
    """s, A and B in one ambient (x, y, a): x and y weigh 0, 1 or 2, the symbol
    a weighs 0; bound 0..8, coefficients in RAT or GF2."""
    ring = draw(st.sampled_from([RAT, GF2]))
    weights = (*draw(st.lists(st.sampled_from([0, 1, 2]), min_size=2, max_size=2)), 0)
    bound = draw(st.integers(0, 8))
    if ring is RAT:
        coeffs = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    else:
        coeffs = st.integers(0, 1).map(GF2Elt)
    exps = st.tuples(*[st.integers(0, 3)] * 3)

    def one():
        terms = draw(st.dictionaries(exps, coeffs, max_size=5))
        return MultiSeries(ring, ("x", "y", "a"), terms, bound, weights)

    return one(), one(), one()


@settings(max_examples=200, deadline=None)
@given(substitutions())
def test_substitute_equals_sum_of_products(triple):
    """s(A, B) with the symbol a carried by name is sum c a^k A^i B^j."""
    s, A, B = triple
    want = MultiSeries.zero(s.ring, s.vars, s.bound, s.weights)
    for (i, j, k), c in s.terms.items():
        carried = MultiSeries(s.ring, s.vars, {(0, 0, k): c}, s.bound, s.weights)
        want = want + carried * A ** i * B ** j
    assert s.substitute({"x": A, "y": B}) == want


def test_square_of_psi3_orbit_polynomial():
    s = uni({1: 3, 2: -3, 3: 1}, 6)
    assert (s * s) == uni({2: 9, 3: -18, 4: 15, 5: -6, 6: 1}, 6)


def test_ring_axioms_random():
    rng = random.Random(RANDOM_SEED)
    for _ in range(25):
        a, b, c = (rand_series(rng, 8) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_mismatch_errors():
    a = MultiSeries(RAT, ("x",), {}, 5)
    with pytest.raises(BoundMismatch):
        a + MultiSeries(RAT, ("x",), {}, 6)
    with pytest.raises(VariableMismatch):
        a + MultiSeries(RAT, ("y",), {}, 5)


def test_truncation_never_exceeds_bound():
    rng = random.Random(RANDOM_SEED)
    for _ in range(20):
        a, b = rand_series(rng, 6), rand_series(rng, 6)
        assert all(e[0] <= 6 for e in (a * b).terms)


def test_reciprocal_unit_and_errors():
    one = MultiSeries.one(RAT, ("x",), 7)
    assert one.reciprocal() == one
    with pytest.raises(NonUnitConstantTerm):
        uni({1: 1}, 7).reciprocal()


def test_reciprocal_of_theta_denominator():
    # 1/(3 - 3x + x^2): t-sequence, including the vanishing x^5 coefficient
    s = uni({0: 3, 1: -3, 2: 1}, 7)
    r = s.reciprocal()
    expect = {0: Fraction(1, 3), 1: Fraction(1, 3), 2: Fraction(2, 9), 3: Fraction(1, 9),
              4: Fraction(1, 27), 6: Fraction(-1, 81), 7: Fraction(-1, 81)}
    assert r.terms == {(k,): v for k, v in expect.items()}
    # recurrence a_{n+2} = a_{n+1} - a_n/3 cross-check
    for n in range(0, 6):
        an = r.coefficient((n,))
        an1 = r.coefficient((n + 1,))
        an2 = r.coefficient((n + 2,)) if n + 2 <= 7 else None
        if an2 is not None:
            assert an2 == an1 - an / 3
    assert (s * r) == MultiSeries.one(RAT, ("x",), 7)


def test_reciprocal_roundtrip_random():
    rng = random.Random(RANDOM_SEED)
    for _ in range(20):
        a = rand_series(rng, 8)
        a = a + MultiSeries.constant(RAT, ("x",), Fraction(rng.choice([1, 2, -1, 5])), 8)
        if a.ring.is_zero(a.constant_term()):
            continue
        assert a.reciprocal().reciprocal() == a


def test_compose_identity_outer():
    h = uni({1: 2, 3: -5}, 8)
    x = MultiSeries.var(RAT, ("x",), "x", 8)
    assert x.compose("x", h) == h


def test_compose_classical_inverse_pair():
    L = log1p_series(("x",), "x", 10)
    E = exp_series(("x",), "x", 10) - MultiSeries.one(RAT, ("x",), 10)
    assert L.compose("x", E) == MultiSeries.var(RAT, ("x",), "x", 10)
    assert E.compose("x", L) == MultiSeries.var(RAT, ("x",), "x", 10)


def test_compose_rejects_constant_term():
    with pytest.raises(NonzeroConstantTerm):
        uni({1: 1}).compose("x", uni({0: 1, 1: 1}))


def test_comp_inverse_identity():
    x = MultiSeries.var(RAT, ("x",), "x", 8)
    assert x.comp_inverse("x") == x


def test_comp_inverse_requires_strict():
    with pytest.raises(NotStrict):
        uni({1: 2}).comp_inverse("x")
    with pytest.raises(NotStrict):
        uni({0: 1, 1: 1}).comp_inverse("x")


def test_comp_inverse_generic_coefficients():
    # g = t + b1 t^2 + ... : the first four inverse coefficients
    vars_ = ("t", "b1", "b2", "b3", "b4")
    w = (1, 0, 0, 0, 0)
    terms = {(1, 0, 0, 0, 0): Fraction(1)}
    for i in range(1, 5):
        e = [i + 1, 0, 0, 0, 0]
        e[i] = 1
        terms[tuple(e)] = Fraction(1)
    g = MultiSeries(RAT, vars_, terms, 6, w)
    inv = g.comp_inverse("t")

    def poly(d):
        return MultiSeries(RAT, vars_, {(0,) + k: Fraction(v) for k, v in d.items()}, 6, w)

    assert inv.coeff_in_var("t", 2) == poly({(1, 0, 0, 0): -1})
    assert inv.coeff_in_var("t", 3) == poly({(2, 0, 0, 0): 2, (0, 1, 0, 0): -1})
    assert inv.coeff_in_var("t", 4) == poly({(3, 0, 0, 0): -5, (1, 1, 0, 0): 5, (0, 0, 1, 0): -1})
    assert inv.coeff_in_var("t", 5) == poly({(4, 0, 0, 0): 14, (2, 1, 0, 0): -21,
                                             (1, 0, 1, 0): 6, (0, 2, 0, 0): 3, (0, 0, 0, 1): -1})


def test_comp_inverse_roundtrip_random():
    rng = random.Random(RANDOM_SEED)
    for _ in range(50):
        g = rand_series(rng, 12, strict=True)
        h = g.comp_inverse("x")
        x = MultiSeries.var(RAT, ("x",), "x", 12)
        assert h.compose("x", g) == x
        assert g.compose("x", h) == x


def test_residue_formula_trivial_and_generic():
    x = MultiSeries.var(RAT, ("x",), "x", 8)
    for n in range(1, 8):
        assert residue_inverse_coeff(x, "x", n).is_zero()
    # generic: c1 = -b1
    vars_ = ("t", "b1")
    g = MultiSeries(RAT, vars_, {(1, 0): Fraction(1), (2, 1): Fraction(1)}, 6, (1, 0))
    c1 = residue_inverse_coeff(g, "t", 1)
    assert c1 == MultiSeries(RAT, vars_, {(0, 1): Fraction(-1)}, 6, (1, 0))


def test_residue_formula_matches_recursive_inversion():
    rng = random.Random(RANDOM_SEED)
    for _ in range(50):
        g = rand_series(rng, 11, strict=True)
        h = g.comp_inverse("x")
        for n in range(1, 11):
            want = h.coeff_in_var("x", n + 1)
            got = residue_inverse_coeff(g, "x", n)
            assert got == want, (n, g)


def test_degree_part_partition_and_grading():
    rng = random.Random(RANDOM_SEED)
    a = rand_series(rng, 9)
    total = MultiSeries.zero(RAT, ("x",), 9)
    for d in range(0, 10):
        total = total + a.degree_part(d)
    assert total == a
    assert MultiSeries.one(RAT, ("x",), 5).degree_part(0).constant_term() == 1
    # weighted symbols: (1 + b1 + b2 + ...)^-2, weight-1 part = -2 b1
    vars_ = ("b1", "b2")
    B = MultiSeries(RAT, vars_, {(0, 0): Fraction(1), (1, 0): Fraction(1),
                                 (0, 1): Fraction(1)}, 4, (1, 2))
    P = B.reciprocal() ** 2
    part = P.degree_part(1)
    assert part == MultiSeries(RAT, vars_, {(1, 0): Fraction(-2)}, 4, (1, 2))


def test_ring_genericity_rat_vs_gf2():
    # compute over Q with odd denominators, reduce mod 2 == compute over GF(2)
    rng = random.Random(RANDOM_SEED)
    for _ in range(20):
        terms = {(k,): Fraction(rng.randint(-9, 9), rng.choice([1, 3, 5]))
                 for k in range(0, 7)}
        a = MultiSeries(RAT, ("x",), terms, 7)
        b = rand_series(rng, 7)
        b = MultiSeries(RAT, ("x",), {e: Fraction(c.numerator, c.denominator if c.denominator % 2 else 1)
                                      for e, c in b.terms.items()}, 7)
        prod_q = (a * b).map_coefficients(gf2_from_rat, GF2)
        prod_2 = a.map_coefficients(gf2_from_rat, GF2) * b.map_coefficients(gf2_from_rat, GF2)
        assert prod_q == prod_2


def test_series_arith_dispatch():
    a, b = uni({1: 1}), uni({2: 1})
    assert a + b == uni({1: 1, 2: 1})
    assert a - b == uni({1: 1, 2: -1})
    assert a * b == uni({3: 1})


def test_substitute_simultaneous():
    vars_ = ("x", "y")
    F = MultiSeries(RAT, vars_, {(1, 0): Fraction(1), (0, 1): Fraction(1),
                                 (1, 1): Fraction(-1)}, 6)
    x = MultiSeries.var(RAT, vars_, "x", 6)
    y = MultiSeries.var(RAT, vars_, "y", 6)
    swapped = F.substitute({"x": y, "y": x})
    assert swapped == F  # symmetric law


@st.composite
def ambient_series(draw):
    """One series over 1-3 variables x0.. with weights in {0, 1, 2}, bound None
    or 0..8, coefficients in RAT or GF2."""
    ring = draw(st.sampled_from([RAT, GF2]))
    n = draw(st.integers(1, 3))
    weights = draw(st.lists(st.sampled_from([0, 1, 2]), min_size=n, max_size=n))
    bound = draw(st.one_of(st.none(), st.integers(0, 8)))
    if ring is RAT:
        coeffs = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    else:
        coeffs = st.integers(0, 1).map(GF2Elt)
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * n), coeffs, max_size=8))
    return MultiSeries(ring, [f"x{i}" for i in range(n)], terms, bound, weights)


@settings(max_examples=200, deadline=None)
@given(ambient_series(), st.data())
def test_split_parts_sum_back(s, data):
    names = data.draw(st.lists(st.sampled_from(s.vars), unique=True))
    total = MultiSeries.zero(s.ring, s.vars, s.bound, s.weights)
    for key, part in s.split(names).items():
        powers = dict(zip(names, key))
        mono = tuple(powers.get(v, 0) for v in s.vars)
        assert part.terms and not any(e[s.vars.index(v)] for e in part.terms for v in names)
        total = total + part * MultiSeries(s.ring, s.vars, {mono: s.ring.one}, s.bound, s.weights)
    assert total == s


@settings(max_examples=200, deadline=None)
@given(ambient_series(), st.data())
def test_embed_then_drop_is_identity(s, data):
    vars_, weights = list(s.vars), list(s.weights)
    extra = data.draw(st.lists(st.sampled_from(["e0", "e1"]), unique=True))
    for name in extra:
        at = data.draw(st.integers(0, len(vars_)))
        vars_.insert(at, name)
        weights.insert(at, data.draw(st.sampled_from([0, 1, 2])))
    big = s.embed(vars_, weights, s.bound)
    assert big.vars == tuple(vars_) and len(big.terms) == len(s.terms)
    assert big.drop_vars(extra) == s


@settings(max_examples=200, deadline=None)
@given(ambient_series(), st.data())
def test_embed_rejects_a_dropped_variable_that_occurs(s, data):
    gone = data.draw(st.sampled_from(s.vars))
    kept = [(v, w) for v, w in zip(s.vars, s.weights) if v != gone]
    target = ([v for v, _ in kept], [w for _, w in kept], s.bound)
    if any(e[s.vars.index(gone)] for e in s.terms):
        with pytest.raises(VariableMismatch, match=f"variable '{gone}' occurs in"):
            s.embed(*target)
    else:
        assert s.embed(*target) == s.drop_vars((gone,))


def test_compose_carries_outer_by_name():
    """An outer variable that occurs nowhere need not exist in the inner ambient;
    a ring mismatch between outer and inner raises."""
    outer = MultiSeries(RAT, ("x", "w"), {(1, 0): Fraction(1), (2, 0): Fraction(3)}, 6)
    inner = uni({1: 1, 2: -1}, 6)
    assert outer.compose("x", inner) == inner + (inner * inner).scale(Fraction(3))
    with pytest.raises(VariableMismatch, match="coefficient rings differ"):
        outer.map_coefficients(gf2_from_rat, GF2).compose("x", inner)


# -- the product's integer kernel -------------------------------------------


@st.composite
def kernel_pairs(draw, rings=(RAT, GF2, Padic2Ring(6))):
    """Two series in one ambient of 1-4 variables with weights in {-1, 0, 1, 2},
    bound None or 0..8.  RAT coefficients have denominators up to 12 and either
    sign; Padic2 operands each carry one precision of their own, at most two
    bits above the ring's, and values of high 2-adic valuation."""
    ring = draw(st.sampled_from(rings))
    n = draw(st.integers(1, 4))
    weights = draw(st.lists(st.sampled_from([-1, 0, 1, 2]), min_size=n, max_size=n))
    bound = draw(st.one_of(st.none(), st.integers(0, 8)))
    exps = st.tuples(*[st.integers(0, 3)] * n)

    def one():
        if ring is RAT:
            coeffs = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))
        elif ring is GF2:
            coeffs = st.integers(0, 1).map(GF2Elt)
        else:
            prec = draw(st.integers(1, 8))
            coeffs = st.builds(lambda v, k: Padic2(v << k, prec), st.integers(-9, 9),
                               st.integers(0, 4))
        terms = draw(st.dictionaries(exps, coeffs, max_size=8))
        return MultiSeries(ring, [f"x{i}" for i in range(n)], terms, bound, weights)

    return one(), one()


def naive_product(a, b):
    """All pairs in Fraction (or element) arithmetic, then truncated and the
    zeros dropped here, independently of the series engine."""
    naive = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            exp = tuple(x + y for x, y in zip(e1, e2))
            naive[exp] = naive[exp] + c1 * c2 if exp in naive else c1 * c2
    out = MultiSeries.zero(a.ring, a.vars, a.bound, a.weights)
    out.terms = {e: c for e, c in naive.items() if not a.ring.is_zero(c)
                 and (a.bound is None or sum(x * w for x, w in zip(e, a.weights)) <= a.bound)}
    return out


def exact_terms(s):
    """Terms with each coefficient as its exact representation: Padic2 equality
    is congruence at the lower precision, so compare (value, precision)."""
    if s.ring.name == "padic2":
        return {e: (c.value, c.precision) for e, c in s.terms.items()}
    return {e: (type(c), c) for e, c in s.terms.items()}


@settings(max_examples=400, deadline=None)
@given(kernel_pairs())
def test_kernel_product_equals_naive_product(pair):
    a, b = pair
    want = exact_terms(naive_product(a, b))
    assert exact_terms(a * b) == want
    assert exact_terms(b * a) == want


@settings(max_examples=200, deadline=None)
@given(kernel_pairs(rings=(Padic2Ring(6),)))
def test_padic_product_precision_is_the_operands_minimum(pair):
    """Also drops the sums that vanish at the ring's precision but not at their own."""
    a, b = pair
    assert exact_terms(a * b) == exact_terms(naive_product(a, b))
    if a.terms and b.terms:
        low = min(next(iter(a.terms.values())).precision, next(iter(b.terms.values())).precision)
        assert all(c.precision == low for c in (a * b).terms.values())


rat_coeffs = st.builds(Fraction, st.integers(-20, 20), st.sampled_from([1, 1, 2, 3, 7]))


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 2)), rat_coeffs, max_size=6),
       st.dictionaries(st.tuples(st.integers(1, 4), st.integers(0, 2)), rat_coeffs, max_size=4),
       st.sampled_from([Fraction(1), Fraction(-2), Fraction(1, 3)]),
       st.integers(2, 6))
def test_rat_results_have_fraction_coefficients(outer, tail, unit, bound):
    """*, substitute, compose, reciprocal and comp_inverse over RAT return
    Fractions, also where every denominator is 1 and the kernel ran on ints."""
    def series(terms):
        return MultiSeries(RAT, ("x", "a"), terms, bound, (1, 0))

    s = series(outer)
    g = series({**tail, (1, 0): Fraction(1)})  # strict in x
    u = series({**tail, (0, 0): unit})  # a unit
    results = [s * g, s * s, s.substitute({"x": g}), s.compose("x", g),
               u.reciprocal(), g.comp_inverse("x")]
    for r in results:
        assert all(type(c) is Fraction for c in r.terms.values()), r


@st.composite
def series_triples(draw):
    """Three series in one ambient of 1-3 variables with weights in {0, 1, 2}
    (truncation is an ideal only for weights >= 0), bound None or 0..6, over
    RAT, GF2 or Padic2 at the ring's precision."""
    ring = draw(st.sampled_from([RAT, GF2, Padic2Ring(5)]))
    n = draw(st.integers(1, 3))
    weights = draw(st.lists(st.sampled_from([0, 1, 2]), min_size=n, max_size=n))
    bound = draw(st.one_of(st.none(), st.integers(0, 6)))
    coeffs = {"rat": st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
              "gf2": st.integers(0, 1).map(GF2Elt),
              "padic2": st.integers(-40, 40).map(lambda v: Padic2(v, 5))}[ring.name]
    exps = st.tuples(*[st.integers(0, 2)] * n)
    return tuple(MultiSeries(ring, [f"x{i}" for i in range(n)],
                             draw(st.dictionaries(exps, coeffs, max_size=5)), bound, weights)
                 for _ in range(3))


@settings(max_examples=200, deadline=None)
@given(series_triples())
def test_series_ring_axioms(triple):
    a, b, c = triple
    assert exact_terms(a + b) == exact_terms(b + a)
    assert exact_terms(a * b) == exact_terms(b * a)
    assert exact_terms((a + b) + c) == exact_terms(a + (b + c))
    assert exact_terms((a * b) * c) == exact_terms(a * (b * c))
    assert exact_terms(a * (b + c)) == exact_terms(a * b + a * c)
