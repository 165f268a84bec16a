import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from fglab.errors import BoundMismatch, DivisionUndefined, NonUnitConstantTerm, NotStrict, VariableMismatch
from fglab.fgl import fgl_twist, multiplicative_law
from fglab.series import (MonomialCode, MultiSeries, _addmul, _lincomb, _lowest_terms, _product,
                          lift, lower, partitions, residue_inverse_coeff)

from helpers import RANDOM_SEED, NonzeroConstantTerm, compose, degree_part, exp_series, log1p_series


def uni(terms, bound=8):
    return MultiSeries(("x",), {(k,): Fraction(v) for k, v in terms.items()}, bound)


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
    return MultiSeries(("x",), terms, bound)


def test_mul_simple():
    xy = MultiSeries(("x", "y"), {(1, 0): Fraction(1)}, 2) * \
         MultiSeries(("x", "y"), {(0, 1): Fraction(1)}, 2)
    assert xy.terms == {(1, 1): Fraction(1)}


@st.composite
def series_pairs(draw):
    """Two series in one ambient: 1-3 variables with weights in {-1, 0, 1, 2},
    bound None or 0..8, rational coefficients."""
    n = draw(st.integers(1, 3))
    weights = draw(st.lists(st.sampled_from([-1, 0, 1, 2]), min_size=n, max_size=n))
    bound = draw(st.one_of(st.none(), st.integers(0, 8)))
    coeffs = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 4)] * n)

    def one():
        terms = draw(st.dictionaries(exps, coeffs, max_size=8))
        return MultiSeries([f"x{i}" for i in range(n)], terms, bound, weights)

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
    want = MultiSeries(a.vars, naive, a.bound, a.weights)
    assert (a * b).terms == want.terms
    assert (b * a).terms == want.terms


@st.composite
def substitutions(draw):
    """s, A and B in one ambient (x, y, a): x and y weigh 0, 1 or 2, the symbol
    a weighs 0; bound 0..8, rational coefficients."""
    weights = (*draw(st.lists(st.sampled_from([0, 1, 2]), min_size=2, max_size=2)), 0)
    bound = draw(st.integers(0, 8))
    coeffs = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 3)] * 3)

    def one():
        terms = draw(st.dictionaries(exps, coeffs, max_size=5))
        return MultiSeries(("x", "y", "a"), terms, bound, weights)

    return one(), one(), one()


@settings(max_examples=200, deadline=None)
@given(substitutions())
def test_substitute_equals_sum_of_products(triple):
    """s(A, B) with the symbol a carried by name is sum c a^k A^i B^j."""
    s, A, B = triple
    want = MultiSeries.zero(s.vars, s.bound, s.weights)
    for (i, j, k), c in s.terms.items():
        carried = MultiSeries(s.vars, {(0, 0, k): c}, s.bound, s.weights)
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
    a = MultiSeries(("x",), {}, 5)
    with pytest.raises(BoundMismatch):
        a + MultiSeries(("x",), {}, 6)
    with pytest.raises(VariableMismatch):
        a + MultiSeries(("y",), {}, 5)


def test_truncation_never_exceeds_bound():
    rng = random.Random(RANDOM_SEED)
    for _ in range(20):
        a, b = rand_series(rng, 6), rand_series(rng, 6)
        assert all(e[0] <= 6 for e in (a * b).terms)


def test_reciprocal_unit_and_errors():
    one = MultiSeries.one(("x",), 7)
    assert one.reciprocal() == one
    with pytest.raises(NonUnitConstantTerm):
        uni({1: 1}, 7).reciprocal()
    with pytest.raises(DivisionUndefined):
        uni({0: 1, 1: 1}, 7) ** -1


def test_reciprocal_of_an_unbounded_series_is_a_bound_mismatch():
    """A unit with no truncation bound has an infinite reciprocal: the
    missing bound is refused as BoundMismatch, as fgl_twist refuses it, not
    as a constant term that is not a unit."""
    with pytest.raises(BoundMismatch, match="finite truncation bound"):
        (MultiSeries.one(("t",)) + MultiSeries.var(("t",), "t")).reciprocal()


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
    assert (s * r) == MultiSeries.one(("x",), 7)


def test_reciprocal_roundtrip_random():
    rng = random.Random(RANDOM_SEED)
    for _ in range(20):
        a = rand_series(rng, 8)
        a = a + MultiSeries.constant(("x",), Fraction(rng.choice([1, 2, -1, 5])), 8)
        if not a.constant_term():
            continue
        assert a.reciprocal().reciprocal() == a


def test_compose_identity_outer():
    h = uni({1: 2, 3: -5}, 8)
    x = MultiSeries.var(("x",), "x", 8)
    assert compose(x, "x", h) == h


def test_compose_classical_inverse_pair():
    L = log1p_series(("x",), "x", 10)
    E = exp_series(("x",), "x", 10) - MultiSeries.one(("x",), 10)
    assert compose(L, "x", E) == MultiSeries.var(("x",), "x", 10)
    assert compose(E, "x", L) == MultiSeries.var(("x",), "x", 10)


def test_compose_rejects_constant_term():
    with pytest.raises(NonzeroConstantTerm):
        compose(uni({1: 1}), "x", uni({0: 1, 1: 1}))


def test_comp_inverse_identity():
    x = MultiSeries.var(("x",), "x", 8)
    assert x.comp_inverse("x") == x


def test_comp_inverse_of_an_unbounded_series_is_a_bound_mismatch():
    """t itself is strict, but with no bound its inverse has no last
    coefficient: the missing bound is refused as BoundMismatch, as fgl_twist
    refuses it, not as NotStrict."""
    with pytest.raises(BoundMismatch, match="finite bound"):
        MultiSeries.var(("t",), "t").comp_inverse("t")


def test_comp_inverse_requires_strict():
    """g must have no term free of t and terms linear in t that sum to t.
    Of t + b, t + t*b and t + 2*t*b + t^2, which break it, the recursive
    inverse made t of the first two, and the residue formula read b as a
    negative power; it, comp_inverse and the twist each refuse all three."""
    with pytest.raises(NotStrict):
        uni({1: 2}).comp_inverse("x")
    with pytest.raises(NotStrict):
        uni({0: 1, 1: 1}).comp_inverse("x")
    for terms in ({(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (1, 1): 1}, {(1, 0): 1, (1, 1): 2, (2, 0): 1}):
        g = MultiSeries(("t", "b"), terms, 4, (1, 0))
        with pytest.raises(NotStrict):
            g.comp_inverse("t")
        for n in range(4):
            with pytest.raises(NotStrict):
                residue_inverse_coeff(g, "t", n)
        with pytest.raises(NotStrict):
            fgl_twist(multiplicative_law(4), g)


@st.composite
def strict_with_symbols(draw):
    """g = t + sum c t^k a^i b^j over (t, a, b), 2 <= k <= bound <= 7,
    i, j <= 2, with t of weight 1 and a, b symbols of weight 0."""
    bound = draw(st.integers(1, 7))
    terms = draw(st.dictionaries(st.tuples(st.integers(2, 7), st.integers(0, 2), st.integers(0, 2)),
                                 st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)),
                                 max_size=5))
    return MultiSeries(("t", "a", "b"), {**terms, (1, 0, 0): Fraction(1)}, bound, (1, 0, 0))


@settings(max_examples=60, deadline=None)
@given(strict_with_symbols())
def test_comp_inverse_roundtrip_with_symbols(g):
    """h = g.comp_inverse("t") satisfies h(g) = t, with coefficients that
    are polynomials in the symbols."""
    assert g.comp_inverse("t").substitute({"t": g}) == MultiSeries.var(g.vars, "t", g.bound, g.weights)


def test_comp_inverse_generic_coefficients():
    # g = t + b1 t^2 + ... : the first four inverse coefficients
    vars_ = ("t", "b1", "b2", "b3", "b4")
    w = (1, 0, 0, 0, 0)
    terms = {(1, 0, 0, 0, 0): Fraction(1)}
    for i in range(1, 5):
        e = [i + 1, 0, 0, 0, 0]
        e[i] = 1
        terms[tuple(e)] = Fraction(1)
    g = MultiSeries(vars_, terms, 6, w)
    inv = g.comp_inverse("t")

    def poly(d):
        return MultiSeries(vars_, {(0,) + k: Fraction(v) for k, v in d.items()}, 6, w)

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
        x = MultiSeries.var(("x",), "x", 12)
        assert compose(h, "x", g) == x
        assert compose(g, "x", h) == x


def test_residue_formula_trivial_and_generic():
    x = MultiSeries.var(("x",), "x", 8)
    for n in range(1, 8):
        assert residue_inverse_coeff(x, "x", n).is_zero()
    # generic: c1 = -b1
    vars_ = ("t", "b1")
    g = MultiSeries(vars_, {(1, 0): Fraction(1), (2, 1): Fraction(1)}, 6, (1, 0))
    c1 = residue_inverse_coeff(g, "t", 1)
    assert c1 == MultiSeries(vars_, {(0, 1): Fraction(-1)}, 6, (1, 0))


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
    total = MultiSeries.zero(("x",), 9)
    for d in range(0, 10):
        total = total + degree_part(a, d)
    assert total == a
    assert degree_part(MultiSeries.one(("x",), 5), 0).constant_term() == 1
    # weighted symbols: (1 + b1 + b2 + ...)^-2, weight-1 part = -2 b1
    vars_ = ("b1", "b2")
    B = MultiSeries(vars_, {(0, 0): Fraction(1), (1, 0): Fraction(1),
                            (0, 1): Fraction(1)}, 4, (1, 2))
    P = B.reciprocal() ** 2
    part = degree_part(P, 1)
    assert part == MultiSeries(vars_, {(1, 0): Fraction(-2)}, 4, (1, 2))


def test_partitions_are_every_partition_once_in_order():
    """len(partitions(n)) is p(n), from the generating function
    prod_k 1/(1 - x^k), for n <= 20, and parts >= 2 leave p(n) - p(n-1), the
    partitions without a part 1; each is listed once, as a non-decreasing
    tuple of parts >= least summing to n, in lexicographic order."""
    N = 20
    p = [1] + [0] * N
    for k in range(1, N + 1):
        for n in range(k, N + 1):
            p[n] += p[n - k]
    assert p[:8] == [1, 1, 2, 3, 5, 7, 11, 15] and p[20] == 627
    for n in range(N + 1):
        for least, count in ((1, p[n]), (2, p[n] - (p[n - 1] if n else 0))):
            parts = partitions(n, least)
            assert len(parts) == count, (n, least)
            assert list(parts) == sorted(set(parts))
            assert all(sum(q) == n and list(q) == sorted(q) and all(k >= least for k in q)
                       for q in parts)


def test_series_arith_dispatch():
    a, b = uni({1: 1}), uni({2: 1})
    assert a + b == uni({1: 1, 2: 1})
    assert a - b == uni({1: 1, 2: -1})
    assert a * b == uni({3: 1})


def test_substitute_simultaneous():
    vars_ = ("x", "y")
    F = MultiSeries(vars_, {(1, 0): Fraction(1), (0, 1): Fraction(1),
                            (1, 1): Fraction(-1)}, 6)
    x = MultiSeries.var(vars_, "x", 6)
    y = MultiSeries.var(vars_, "y", 6)
    swapped = F.substitute({"x": y, "y": x})
    assert swapped == F  # symmetric law


@st.composite
def ambient_series(draw):
    """One series over 1-3 variables x0.. with weights in {0, 1, 2}, bound None
    or 0..8, rational coefficients."""
    n = draw(st.integers(1, 3))
    weights = draw(st.lists(st.sampled_from([0, 1, 2]), min_size=n, max_size=n))
    bound = draw(st.one_of(st.none(), st.integers(0, 8)))
    coeffs = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * n), coeffs, max_size=8))
    return MultiSeries([f"x{i}" for i in range(n)], terms, bound, weights)


@settings(max_examples=200, deadline=None)
@given(ambient_series(), st.data())
def test_split_parts_sum_back(s, data):
    names = data.draw(st.lists(st.sampled_from(s.vars), unique=True))
    total = MultiSeries.zero(s.vars, s.bound, s.weights)
    for key, part in s.split(names).items():
        powers = dict(zip(names, key))
        mono = tuple(powers.get(v, 0) for v in s.vars)
        assert part.terms and not any(e[s.vars.index(v)] for e in part.terms for v in names)
        total = total + part * MultiSeries(s.vars, {mono: Fraction(1)}, s.bound, s.weights)
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
    """An outer variable that occurs nowhere need not exist in the inner ambient."""
    outer = MultiSeries(("x", "w"), {(1, 0): Fraction(1), (2, 0): Fraction(3)}, 6)
    inner = uni({1: 1, 2: -1}, 6)
    assert compose(outer, "x", inner) == inner + (inner * inner).scale(Fraction(3))


# -- the product's integer kernel -------------------------------------------


@st.composite
def kernel_pairs(draw):
    """Two series in one ambient of 1-4 variables with weights in {-1, 0, 1, 2},
    bound None or 0..8, and rational coefficients of either sign with
    denominators up to 12."""
    n = draw(st.integers(1, 4))
    weights = draw(st.lists(st.sampled_from([-1, 0, 1, 2]), min_size=n, max_size=n))
    bound = draw(st.one_of(st.none(), st.integers(0, 8)))
    exps = st.tuples(*[st.integers(0, 3)] * n)
    coeffs = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))

    def one():
        terms = draw(st.dictionaries(exps, coeffs, max_size=8))
        return MultiSeries([f"x{i}" for i in range(n)], terms, bound, weights)

    return one(), one()


def naive_product(a, b):
    """All pairs in Fraction arithmetic, then truncated and the zeros dropped
    here, independently of the series engine."""
    naive = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            exp = tuple(x + y for x, y in zip(e1, e2))
            naive[exp] = naive[exp] + c1 * c2 if exp in naive else c1 * c2
    out = MultiSeries.zero(a.vars, a.bound, a.weights)
    out.terms = {e: c for e, c in naive.items() if c
                 and (a.bound is None or sum(x * w for x, w in zip(e, a.weights)) <= a.bound)}
    return out


def exact_terms(s):
    """Terms with each coefficient's type, so that an int and an equal
    Fraction differ."""
    return {e: (type(c), c) for e, c in s.terms.items()}


@settings(max_examples=400, deadline=None)
@given(kernel_pairs())
def test_kernel_product_equals_naive_product(pair):
    a, b = pair
    want = exact_terms(naive_product(a, b))
    assert exact_terms(a * b) == want
    assert exact_terms(b * a) == want


rat_coeffs = st.builds(Fraction, st.integers(-20, 20), st.sampled_from([1, 1, 2, 3, 7]))


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 2)), rat_coeffs, max_size=6),
       st.dictionaries(st.tuples(st.integers(1, 4), st.integers(0, 2)), rat_coeffs, max_size=4),
       st.sampled_from([Fraction(1), Fraction(-2), Fraction(1, 3)]),
       st.integers(2, 6))
def test_rat_results_have_fraction_coefficients(outer, tail, unit, bound):
    """*, substitute, compose, reciprocal, comp_inverse and the residue
    formula return Fractions, also where every denominator is 1 and the
    kernel ran on ints.  A tail term x*a^k makes g not strict in x, and then
    comp_inverse and the residue formula refuse it."""
    def series(terms):
        return MultiSeries(("x", "a"), terms, bound, (1, 0))

    s = series(outer)
    g = series({**tail, (1, 0): Fraction(1)})
    u = series({**tail, (0, 0): unit})  # a unit
    results = [s * g, s * s, s.substitute({"x": g}), compose(s, "x", g), u.reciprocal()]
    if any(c for (i, k), c in tail.items() if i == 1 and k):
        with pytest.raises(NotStrict):
            g.comp_inverse("x")
        with pytest.raises(NotStrict):
            residue_inverse_coeff(g, "x", bound - 1)
    else:
        results += [g.comp_inverse("x"), residue_inverse_coeff(g, "x", bound - 1)]
    for r in results:
        assert all(type(c) is Fraction for c in r.terms.values()), r


def test_constructor_stores_int_coefficients_as_fractions():
    """An int coefficient is stored as a Fraction, so that dividing it, or
    adding two series, does not fall back to a float or an int."""
    s = MultiSeries(("x",), {(1,): 1}, 4)
    assert all(type(c) is Fraction for c in s.terms.values())
    half = s.coefficient((1,)) / 2
    assert type(half) is Fraction and half == Fraction(1, 2)
    for r in (s + s, s * s):
        assert r.terms and all(type(c) is Fraction for c in r.terms.values()), r


@st.composite
def series_triples(draw):
    """Three series in one ambient of 1-3 variables with weights in {0, 1, 2}
    (truncation is an ideal only for weights >= 0), bound None or 0..6, and
    rational coefficients."""
    n = draw(st.integers(1, 3))
    weights = draw(st.lists(st.sampled_from([0, 1, 2]), min_size=n, max_size=n))
    bound = draw(st.one_of(st.none(), st.integers(0, 6)))
    coeffs = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
    exps = st.tuples(*[st.integers(0, 2)] * n)
    return tuple(MultiSeries([f"x{i}" for i in range(n)],
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


# -- the monomial code and the kernel's product loop --------------------------


@st.composite
def coded_polys(draw):
    """acc, p and q as {exponents: int} in 1-5 variables, with exponents that
    fill a field to its top (2^k - 1) or need one more bit (2^k), a cap on
    some fields, and the sign of p*q."""
    n = draw(st.integers(1, 5))
    exps = st.tuples(*[st.sampled_from([0, 1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 63])] * n)
    acc, p, q = (draw(st.dictionaries(exps, st.integers(-9, 9).filter(bool), max_size=6))
                 for _ in range(3))
    caps = draw(st.dictionaries(st.integers(0, n - 1), st.integers(0, 130), max_size=n))
    return n, acc, p, q, caps, draw(st.booleans())


@settings(max_examples=400, deadline=None)
@given(coded_polys())
def test_code_round_trips_and_addmul_is_the_tuple_product(case):
    """Fields sized for the largest exponent sum round-trip every exponent,
    each field at its top included, and acc +- p*q on codes, capped, equals
    the product on exponent tuples with the capped exponents filtered."""
    n, acc, p, q, caps, neg = case

    def top(poly, i):
        return max((e[i] for e in poly), default=0)

    tops = [max(top(p, i) + top(q, i), top(acc, i)) for i in range(n)]
    code = MonomialCode(tops, caps)
    for e in (*acc, *p, *q, tuple(tops)):
        assert code.decode(code.encode(e)) == e
    want = dict(acc)
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            if all(e[i] <= c for i, c in caps.items()):
                want[e] = want.get(e, 0) + (-c1 if neg else c1) * c2

    def coded(poly):
        return {code.encode(e): c for e, c in poly.items()}

    got = _addmul(coded(acc), coded(p), coded(q), neg, code.cap)
    assert {code.decode(k): c for k, c in got.items()} == {e: c for e, c in want.items() if c}


# -- the kernel's pairs: integer numerators by monomial code over one denominator

PAIRS = st.builds(_lowest_terms,
                  st.dictionaries(st.integers(0, 12), st.integers(-40, 40), max_size=5),
                  st.integers(1, 60))
WEIGHTS = st.one_of(st.integers(-9, 9),
                    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)))


def as_fractions(pair):
    nums, den = pair
    return {m: Fraction(v, den) for m, v in nums.items() if v}


def canonical(pair):
    nums, den = pair
    return den > 0 and gcd(den, *nums.values()) == 1 and all(nums.values())


@settings(max_examples=300, deadline=None)
@given(nums=st.dictionaries(st.integers(0, 12), st.integers(-40, 40), max_size=5),
       den=st.integers(1, 60), k=st.integers(1, 30))
def test_lowest_terms_is_canonical(nums, den, k):
    """Positive denominator, gcd 1, no zero numerator, zero as ({}, 1), and
    one pair per value: the guard in the relation solve compares pairs."""
    pair = _lowest_terms(nums, den)
    assert canonical(pair)
    assert as_fractions(pair) == as_fractions((nums, den))
    assert _lowest_terms({m: k * v for m, v in nums.items()}, k * den) == pair
    if not any(nums.values()):
        assert pair == ({}, 1)


@settings(max_examples=300, deadline=None)
@given(p=PAIRS, q=PAIRS)
def test_product_is_the_fraction_product(p, q):
    want = {}
    for m1, c1 in as_fractions(p).items():
        for m2, c2 in as_fractions(q).items():
            want[m1 + m2] = want.get(m1 + m2, 0) + c1 * c2
    got = _product(p, q)
    assert canonical(got)
    assert as_fractions(got) == {m: c for m, c in want.items() if c}


@settings(max_examples=300, deadline=None)
@given(parts=st.lists(st.tuples(WEIGHTS, PAIRS), max_size=5), cancel=st.booleans())
def test_lincomb_is_the_fraction_sum(parts, cancel):
    """Integer and Fraction weights, negative coefficients, the empty list,
    and with ``cancel`` every part again with its weight negated, a sum that
    cancels to zero."""
    if cancel:
        parts += [(-c, p) for c, p in parts]
    want = {}
    for c, p in parts:
        for m, v in as_fractions(p).items():
            want[m] = want.get(m, 0) + c * v
    nums, den = _lincomb(parts)
    assert den == lcm(*(Fraction(c).denominator * p[1] for c, p in parts))
    assert as_fractions((nums, den)) == {m: v for m, v in want.items() if v}
    if cancel or not parts:
        assert _lowest_terms(nums, den) == ({}, 1)


@settings(max_examples=300, deadline=None)
@given(cs=st.lists(WEIGHTS, max_size=6), integral=st.booleans())
def test_lift_and_lower_are_one_frame(cs, integral):
    """lift puts the coefficients over the lcm of their denominators, with
    integer numerators n_i = c_i * den exactly, over 1 when every coefficient
    is an integer; lower of those numerators over den gives them back."""
    cs = [Fraction(c.numerator if integral else c) for c in cs]
    nums, den = lift(cs)
    assert den == lcm(*(c.denominator for c in cs))
    assert all(type(n) is int for n in nums) and nums == [c * den for c in cs]
    if integral:
        assert den == 1
    back = lower(dict(enumerate(nums)), den)
    assert back == dict(enumerate(cs)) and all(type(c) is Fraction for c in back.values())
