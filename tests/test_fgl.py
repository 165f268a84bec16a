import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fglab.bordism import (BUILTINS, BordismExpr, cpn_box_diff, cpn_in_a,
                           miscenko_image)
from fglab.errors import UnsupportedDimension, UsageError
from fglab.fgl import fgl_twist, generic_strict_series
from fglab.series import MultiSeries

from helpers import (RANDOM_SEED, AxiomViolation, additive_law, coeff_of, compose, drop_vars, exp_series,
                     fgl_binom, fgl_check, fgl_exp, fgl_from_genus, fgl_log, fgl_of, grades_present,
                     law_of, multiplicative_law, multiplicative_law_at, nonincreasing_partitions,
                     partial, rename, symbol_grades, truncate, twist_by, twist_by_substitution)


def rational_strict_g(rng, bound, nb=4):
    """Concrete strict series with random rational b_i (shares the ambient
    symbol v with the multiplicative law)."""
    vars_ = ("t", "v")
    terms = {(1, 0): Fraction(1)}
    for i in range(1, nb + 1):
        terms[(i + 1, 0)] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return MultiSeries(vars_, terms, bound, (1, 0))


def embed(series, like):
    """Rename-free embedding of a series into a larger ambient by variable name."""
    pos = []
    for v in series.vars:
        pos.append(like.vars.index(v))
    terms = {}
    for exp, c in series.terms.items():
        t = [0] * len(like.vars)
        for p, e in zip(pos, exp):
            t[p] = e
        terms[tuple(t)] = c
    return MultiSeries(like.vars, terms, like.bound, like.weights)


@pytest.fixture(scope="module")
def twisted6():
    return fgl_twist(6, 5)


def test_fgl_check_valid_laws():
    fgl_check(additive_law(8))
    fgl_check(multiplicative_law_at(8, 1))
    fgl_check(multiplicative_law(8))  # symbolic v


def test_fgl_check_unit_violation():
    bad = MultiSeries(("x", "y"), {(1, 0): Fraction(1), (0, 1): Fraction(1),
                                   (2, 0): Fraction(1)}, 8)
    with pytest.raises(AxiomViolation) as ei:
        fgl_check(bad)
    assert ei.value.axiom == "unit" and ei.value.monomial == "x^2"


def test_fgl_check_associativity_violation():
    bad = MultiSeries(("x", "y"), {(1, 0): Fraction(1), (0, 1): Fraction(1),
                                   (2, 1): Fraction(1), (1, 2): Fraction(1)}, 6)
    with pytest.raises(AxiomViolation) as ei:
        fgl_check(bad)
    assert ei.value.axiom == "associativity" and ei.value.monomial == "x*y*z^3"


@pytest.mark.parametrize("terms, axiom, monomial", [
    ({(1, 0): 1, (0, 1): 1, (0, 2): 1}, "unit", "y^2"),            # F(0, y) = y + y^2
    ({(0, 0): 1, (1, 0): 1, (0, 1): 1}, "unit", "1"),              # a constant term
    ({(1, 0): 1, (0, 1): 1, (2, 1): 1}, "commutativity", "x*y^2"),  # F(x, y) - F(y, x)
])
def test_fgl_check_names_the_first_failing_monomial(terms, axiom, monomial):
    bad = MultiSeries(("x", "y"), {e: Fraction(c) for e, c in terms.items()}, 8)
    with pytest.raises(AxiomViolation) as ei:
        fgl_check(bad)
    assert (ei.value.axiom, ei.value.monomial) == (axiom, monomial)


def test_twist_by_identity_is_identity():
    """With no b_i, g(t) = t and the twist is x + y + vxy itself: a11 = v
    and no other coefficient."""
    for bound in (2, 5, 8):
        law = fgl_twist(bound, 0)
        assert law_of(law) == multiplicative_law(bound)
        assert law.coeff_table() == {(1, 1): MultiSeries.var(("v",), "v", bound, (0,))}


def test_twist_needs_g_to_the_bound_of_f():
    """Only g's terms up to t^bound reach the law: no b_i with i >= bound
    occurs in a coefficient, so every nb >= bound - 1 gives one law."""
    want = law_of(fgl_twist(6, 5))
    for nb in (6, 9):
        assert drop_vars(law_of(fgl_twist(6, nb)), [f"b{i}" for i in range(6, nb + 1)]) == want


@pytest.mark.parametrize("bound, nb", [(2, 0), (3, 5), (6, 5), (9, 8), (12, 11)])
def test_twist_equals_substitution_generic(bound, nb):
    F, g = multiplicative_law(bound), generic_strict_series(bound, nb)
    assert law_of(fgl_twist(bound, nb)) == twist_by_substitution(F, g)


def test_twist_equals_substitution_rational_and_twisted():
    """Rational g: the universal twist at b_i = [t^(i+1)] g is the twist by
    g; twisting it again by g^-1 gives back x + y + vxy, and by a second g2
    gives the universal twist at the coefficients of g2(g(t))."""
    rng = random.Random(RANDOM_SEED)
    for bound in (5, 8, 10):
        F = multiplicative_law(bound)
        g = rational_strict_g(rng, bound)
        tw = twist_by(g)
        assert tw == twist_by_substitution(F, g)
        assert twist_by_substitution(tw, g.comp_inverse("t")) == F
        g2 = rational_strict_g(rng, bound, nb=bound - 1)
        assert twist_by_substitution(tw, g2) == twist_by(g2.substitute({"t": g}))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10), st.integers(0, 12))
def test_twist_equals_substitution_property(bound, nb):
    """The table of ``fgl_twist(bound, nb)`` is the (i, j) split of x + y + vxy
    twisted by the generic strict series by substitution, with x and y
    dropped, in the same ambient (v, b1..b_nb)."""
    F, g = multiplicative_law(bound), generic_strict_series(bound, nb)
    law, want = fgl_twist(bound, nb), fgl_of(twist_by_substitution(F, g))
    assert law.zero == want.zero
    assert law.coeff_table() == want.coeff_table()


def poly_in(ambient, d):
    terms = {}
    for mono, c in d.items():
        e = [0] * len(ambient.vars)
        for name, p in mono:
            e[ambient.vars.index(name)] = p
        terms[tuple(e)] = Fraction(c)
    return MultiSeries(ambient.vars, terms, ambient.bound, ambient.weights)


def test_twisted_law_images(twisted6):
    """Five printed coefficient images match the source exactly; a32 is
    asserted at its computed value (three of its printed cells are
    transcription errors, see the xfail below and README's "Known source
    errata").  The coefficients live in the ambient of the symbols v and
    b1..b5."""
    law = twisted6
    assert law.zero.vars == ("v", "b1", "b2", "b3", "b4", "b5")
    assert law.a(1, 1) == poly_in(law.zero, {(("v", 1),): 1, (("b1", 1),): 2})
    assert law.a(2, 1) == poly_in(law.zero, {(("v", 1), ("b1", 1)): 1, (("b1", 2),): -2,
                                             (("b2", 1),): 3})
    assert law.a(3, 1) == poly_in(law.zero, {(("v", 1), ("b2", 1)): 2, (("v", 1), ("b1", 2)): -2,
                                             (("b3", 1),): 4, (("b1", 1), ("b2", 1)): -8,
                                             (("b1", 3),): 4})
    assert law.a(2, 2) == poly_in(law.zero, {(("v", 2), ("b1", 1)): 1, (("v", 1), ("b1", 2)): -3,
                                             (("b1", 3),): 2, (("b1", 1), ("b2", 1)): -6,
                                             (("v", 1), ("b2", 1)): 6, (("b3", 1),): 6})
    assert law.a(4, 1) == poly_in(law.zero, {(("v", 1), ("b1", 3)): 5,
                                             (("v", 1), ("b1", 1), ("b2", 1)): -8,
                                             (("b1", 2), ("b2", 1)): 25, (("v", 1), ("b3", 1)): 3,
                                             (("b1", 4),): -10, (("b1", 1), ("b3", 1)): -14,
                                             (("b2", 2),): -6, (("b4", 1),): 5})
    assert law.a(3, 2) == poly_in(law.zero, {(("v", 1), ("b1", 3)): 6,
                                             (("v", 1), ("b1", 1), ("b2", 1)): -16,
                                             (("b1", 4),): -4, (("b1", 2), ("b2", 1)): 14,
                                             (("v", 2), ("b1", 2)): -2, (("v", 2), ("b2", 1)): 3,
                                             (("b2", 2),): -3, (("b1", 1), ("b3", 1)): -16,
                                             (("v", 1), ("b3", 1)): 12, (("b4", 1),): 10})


@pytest.mark.xfail(strict=True,
                   reason="paper misprint: printed a32 reads 4vb1^3 - 18vb1b2 + 8b1^2b2, "
                          "but the twist computation forces 6vb1^3 - 16vb1b2 + 14b1^2b2")
def test_twisted_law_a32_as_printed(twisted6):
    a32 = twisted6.a(3, 2)
    assert coeff_of(a32, v=1, b1=3) == 4
    assert coeff_of(a32, v=1, b1=1, b2=1) == -18
    assert coeff_of(a32, b1=2, b2=1) == 8


def test_twisted_law_images_homogeneous(twisted6):
    """Internal grading (b_i -> 2i, v -> +2): a_ij image homogeneous of
    grade 2(i+j-1)."""
    grades = {k: v for k, v in symbol_grades(5).items() if k not in ("x", "y", "z")}
    for (i, j), poly in twisted6.coeff_table().items():
        assert grades_present(poly, grades) == [2 * (i + j - 1)], (i, j)


def test_coeff_table_rebuilds_the_law(twisted6):
    """x + y + sum a_ij x^i y^j over the table is the law; a(i, j) reads the
    table and is zero for a pair the law does not contain."""
    law = twisted6
    table = law.coeff_table()
    F = law_of(law)

    def mono(name, k):
        return MultiSeries.var(F.vars, name, F.bound, F.weights, power=k)

    rebuilt = mono("x", 1) + mono("y", 1)
    for (i, j), aij in table.items():
        assert aij.vars == law.zero.vars  # no x or y
        rebuilt = rebuilt + aij.embed(F.vars, F.weights, F.bound) * mono("x", i) * mono("y", j)
        assert law.a(i, j) == aij
    assert rebuilt == F
    zero = MultiSeries.zero(law.zero.vars, F.bound, law.zero.weights)
    assert (1, 0) not in table and law.a(1, 0) == zero
    assert (F.bound, F.bound) not in table and law.a(F.bound, F.bound) == zero
    table.clear()
    assert law.coeff_table() and law.a(1, 1) != zero


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 9).flatmap(lambda b: st.tuples(st.just(b), st.integers(0, b - 1))))
def test_twist_table_is_the_split_of_its_law(size):
    """The table ``fgl twist`` prints from, decoded once for i <= j, is the
    (i, j) split of the assembled law and of the law by substitution, and
    entry (j, i) is entry (i, j)."""
    bound, nb = size
    F, g = multiplicative_law(bound), generic_strict_series(bound, nb)
    law = fgl_twist(bound, nb)
    table = law.coeff_table()
    assert table == fgl_of(law_of(law)).coeff_table() == fgl_of(twist_by_substitution(F, g)).coeff_table()
    for (i, j), part in table.items():
        assert table[j, i] is part and law.a(j, i) is part


def test_twisted_law_passes_axioms_random_rationals():
    """The law rebuilt from the universal twist's table, with symbols and at
    random rational b_i."""
    fgl_check(law_of(fgl_twist(7, 6)))
    rng = random.Random(RANDOM_SEED)
    for _ in range(5):
        fgl_check(twist_by(rational_strict_g(rng, 10)))


def test_twist_group_action_inverse():
    rng = random.Random(RANDOM_SEED)
    g = rational_strict_g(rng, 8)
    tw = twist_by(g)
    assert twist_by_substitution(tw, g.comp_inverse("t")) == multiplicative_law(8)


def test_fgl_log_additive_and_multiplicative():
    assert fgl_log(additive_law(8)) == MultiSeries.var(("x",), "x", 8)
    Fm = MultiSeries(("x", "y"), {(1, 0): Fraction(1), (0, 1): Fraction(1),
                                  (1, 1): Fraction(-1)}, 8)
    # log of x + y - xy is -ln(1-x) = sum x^n / n
    assert fgl_log(Fm) == MultiSeries(("x",),
                                      {(n,): Fraction(1, n) for n in range(1, 9)}, 8)


def test_log_exp_roundtrip():
    rng = random.Random(RANDOM_SEED)
    tw = twist_by(rational_strict_g(rng, 9))
    lg = fgl_log(tw)
    ex = fgl_exp(tw)
    assert compose(lg, "x", ex) == MultiSeries.var(lg.vars, "x", 9, lg.weights)


def test_fgl_log_of_twist_is_log_after_inverse():
    rng = random.Random(RANDOM_SEED)
    g = rational_strict_g(rng, 8)
    F = multiplicative_law(8)
    tw = twist_by(g)
    ginv = rename(g.comp_inverse("t"), {"t": "x"})
    assert fgl_log(tw) == compose(fgl_log(F), "x", ginv)


def test_fgl_log_linearizes_the_law():
    rng = random.Random(RANDOM_SEED)
    tw = twist_by(rational_strict_g(rng, 8))
    lg = fgl_log(tw)
    # compare one order below the bound: substituting the law consumes it
    b = 7
    tw7 = truncate(tw, b)
    lg7 = truncate(lg, b)
    lhs = compose(lg7, "x", tw7)
    rhs = (compose(lg7, "x", MultiSeries.var(tw7.vars, "x", b, tw7.weights))
           + compose(lg7, "x", MultiSeries.var(tw7.vars, "y", b, tw7.weights)))
    assert lhs == rhs


def test_from_genus_trivial_and_todd():
    one = MultiSeries.one(("x",), 10)
    assert fgl_from_genus(one) == additive_law(10)
    # Todd characteristic series x/(1 - e^-x) gives the multiplicative law
    emx = exp_series(("x",), "x", 10, rate=Fraction(-1))
    den = one - emx
    den_shift = MultiSeries(("x",), {(e[0] - 1,): c for e, c in den.terms.items()
                                     if e[0] >= 1}, 10)
    P = den_shift.reciprocal()
    want = MultiSeries(("x", "y"), {(1, 0): Fraction(1), (0, 1): Fraction(1),
                                    (1, 1): Fraction(-1)}, 10)
    assert fgl_from_genus(P) == want


def test_from_genus_random_gives_fgl():
    rng = random.Random(RANDOM_SEED)
    for _ in range(3):
        terms = {(0,): Fraction(1)}
        for k in range(1, 8):
            terms[(k,)] = Fraction(rng.randint(-5, 5), rng.randint(1, 6))
        fgl_check(fgl_from_genus(MultiSeries(("x",), terms, 8)))


def test_fgl_binom_trivial_and_closed_form():
    from math import comb
    F = MultiSeries(("x", "y", "u"), {(1, 0, 0): Fraction(1), (0, 1, 0): Fraction(1),
                                      (1, 1, 1): Fraction(-1)}, 10, (1, 1, 0))
    t0 = fgl_binom(F, 0)
    assert list(t0) == [(0, 0)] and t0[(0, 0)].constant_term() == 1
    # <k; i,j> = C(k, 2k-i-j) C(2k-i-j, k-j) (-v)^(k-i-j), v^-1 = u as a symbol
    for k in (1, 2, 3, 4):
        for (i, j), val in fgl_binom(F, k).items():
            s = 2 * k - i - j
            want = comb(k, s) * comb(s, k - j) * (-1) ** (k - i - j)
            assert coeff_of(val, u=i + j - k) == want, (k, i, j)


def test_fgl_binom_matches_direct_power_random():
    rng = random.Random(RANDOM_SEED)
    F = twist_by(rational_strict_g(rng, 8))
    for k in range(0, 6):
        acc = MultiSeries.zero(F.vars, 8, F.weights)
        for (i, j), val in fgl_binom(F, k).items():
            mono = {F.vars.index("x"): i, F.vars.index("y"): j}
            exp = tuple(mono.get(t, 0) for t in range(len(F.vars)))
            acc = acc + val * MultiSeries(F.vars, {exp: Fraction(1)}, 8, F.weights)
        assert acc == F ** k, k


def test_cpn_boxes_and_modes():
    assert str(cpn_in_a(1, "paper-box")) == "-a1_1"
    assert str(cpn_in_a(1, "residue-exact")) == "-a1_1"
    for n in (1, 2, 3):
        assert cpn_box_diff(n).is_zero()
    assert str(cpn_box_diff(4)) == "3*a1_1^2*a1_2"
    with pytest.raises(UnsupportedDimension):
        cpn_in_a(5, "paper-box")


def test_cpn_residue_matches_log_derivative():
    """residue-exact [CP^n] = x^n coefficient of 1/(dF/dy)(x, 0), n <= 8."""
    law = fgl_twist(9, 8)
    rec = partial(law_of(law), "y").coeff_in_var("y", 0).reciprocal()
    for n in range(1, 9):
        want = rec.coeff_in_var("x", n)
        poly = cpn_in_a(n, "residue-exact")
        repl = {f"a1_{i}": embed(law.a(1, i), want) for i in range(1, n + 1)}
        got = poly.substitute(repl)
        assert got == want, n


def test_bordism_grammar():
    e = BordismExpr.parse("8*CP4 - 25*CP1xCP3 - 12*CP2xCP2 - 23*CP1^4 + 52*CP1^2xCP2")
    assert e.terms == {(4,): Fraction(8), (1, 3): Fraction(-25), (2, 2): Fraction(-12),
                       (1, 1, 1, 1): Fraction(-23), (1, 1, 2): Fraction(52)}
    k = BordismExpr.parse("1/4*K3SQ")
    assert k.terms == {(2, 2): Fraction(64), (1, 1, 1, 1): Fraction(81),
                       (1, 1, 2): Fraction(-144)}
    assert BordismExpr.parse("CP2").terms == {(2,): Fraction(1)}
    assert BordismExpr.parse("CP1^2xCP2").terms == {(1, 1, 2): Fraction(1)}
    with pytest.raises(UsageError):
        BordismExpr.parse("CP1 + CP2")  # inhomogeneous dimensions
    for dangling in ("3*", "CP4+", "CP4-"):
        with pytest.raises(UsageError):
            BordismExpr.parse(dangling)


@st.composite
def rendered_bordism_combinations(draw):
    """A homogeneous {dimension tuple: nonzero weight} and one way to write it:
    factors in any order, repeats as CPn^k or spelled out, a unit weight
    left implicit or not, any spacing."""
    dim = draw(st.integers(1, 6))
    keys = draw(st.lists(st.sampled_from(nonincreasing_partitions(dim)), min_size=1, max_size=4, unique=True))
    space = draw(st.sampled_from(["", " "]))
    terms, text = {}, ""
    for key in keys:
        w = Fraction(draw(st.integers(-40, 40).filter(bool)), draw(st.integers(1, 9)))
        terms[key] = w
        factors = []
        for n in draw(st.permutations(sorted(set(key)))):
            k = key.count(n)
            factors += [f"CP{n}^{k}"] if k > 1 and draw(st.booleans()) else [f"CP{n}"] * k
        coeff = f"{abs(w)}*" if abs(w) != 1 or draw(st.booleans()) else ""
        sign = "-" if w < 0 else ("+" if text else "")
        text += f"{space}{sign}{space}{coeff}" + "x".join(factors)
    return terms, text


@settings(max_examples=200, deadline=None)
@given(rendered_bordism_combinations())
def test_bordism_parse_reads_back_a_rendered_combination(case):
    terms, text = case
    assert BordismExpr.parse(text) == BordismExpr(terms), text


@st.composite
def signed_sums(draw):
    """A sum of terms of one dimension, each ``[sign][n or n/d[*]]`` then a
    built-in or a product, with any spacing between tokens and a sign
    before the first term or not, and the Fraction sum of its terms."""
    dim = draw(st.integers(1, 6))
    bodies = nonincreasing_partitions(dim) + (list(BUILTINS) if dim == 4 else [])
    space = st.sampled_from(["", " ", "  ", "\t"])
    want, text = {}, ""
    for i in range(draw(st.integers(1, 5))):
        sign = draw(st.sampled_from(["+", "-"] + ([""] if i == 0 else [])))
        num, den = draw(st.integers(0, 40)), draw(st.integers(1, 9))
        weight = draw(st.sampled_from(["", str(num), f"{num}/{den}"]))
        star = draw(st.sampled_from(["", "*"])) if weight else ""
        c = Fraction(weight or 1) * (-1 if sign == "-" else 1)
        body = draw(st.sampled_from(bodies))
        if body in BUILTINS:
            for key, w in BUILTINS[body].items():
                want[key] = want.get(key, 0) + c * w
        else:
            want[body] = want.get(body, 0) + c
            factors = []
            for n in draw(st.permutations(sorted(set(body)))):
                k = body.count(n)
                for p in draw(st.sampled_from([[k], [1] * k])):
                    power = f"{draw(space)}^{draw(space)}{p}" if p > 1 or draw(st.booleans()) else ""
                    factors.append(f"CP{n}{power}")
            body = f"{draw(space)}x{draw(space)}".join(factors)
        text += "".join(f"{draw(space)}{tok}" for tok in (sign, weight, star, body))
    return want, text + draw(space)


@settings(max_examples=200, deadline=None)
@given(signed_sums())
def test_bordism_parse_sums_signed_terms(case):
    want, text = case
    assert BordismExpr.parse(text) == BordismExpr(want), text


def test_miscenko_cp1(twisted6):
    img = miscenko_image(BordismExpr.parse("CP1"), twisted6, "paper-box")
    assert coeff_of(img, v=1) == -1
    assert coeff_of(img, b1=1) == -2
    assert len(img.terms) == 2


def cells_of(img):
    out = {}
    for exp, c in img.terms.items():
        out[img.monomial_str(exp) or "1"] = c
    return out


def test_miscenko_N_matches_paper(twisted6):
    img = miscenko_image(BordismExpr.parse("N"), twisted6, "paper-box")
    assert cells_of(img) == {
        "b4": -40, "b2^2": 12, "b1*b3": 40, "b1^2*b2": 256, "b1^4": -184,
        "v*b3": -60, "v*b1*b2": 340, "v*b1^3": -112, "v^2*b2": 48,
        "v^2*b1^2": 58, "v^3*b1": 22,
    }


def test_miscenko_k3sq_quarter(twisted6):
    """All printed cells except v*b1*b2 (448 -> 576) and the -576 b1^2 term,
    which the consistency M = K3^2/4 + 12N forces to be -576 b1^2 b2."""
    img = miscenko_image(BordismExpr.parse("1/4*K3SQ"), twisted6, "paper-box")
    assert cells_of(img) == {
        "v^4": 1, "v^3*b1": 24, "v^2*b1^2": 120, "v^2*b2": 48, "v*b1^3": -288,
        "v*b1*b2": 576, "b1^4": 144, "b1^2*b2": -576, "b2^2": 576,
    }


@pytest.mark.xfail(strict=True,
                   reason="paper misprint: prints 448 v b1 b2 (and -576 b1^2 without the "
                          "b2 factor); the expansion of (18(CP1)^2 - 16 CP2)^2 / 4 forces "
                          "576 v b1 b2 and -576 b1^2 b2")
def test_miscenko_k3sq_quarter_as_printed(twisted6):
    img = miscenko_image(BordismExpr.parse("1/4*K3SQ"), twisted6, "paper-box")
    assert coeff_of(img, v=1, b1=1, b2=1) == 448


def test_miscenko_M_matches_paper_and_mod16(twisted6):
    img = miscenko_image(BordismExpr.parse("1/4*K3SQ + 12*N"), twisted6, "paper-box")
    want16 = {
        "v^3*b1": 18, "v^2*b1^2": 51, "v^2*b2": 39, "v*b1^3": -102, "v*b1*b2": 291,
        "v*b3": -45, "b1^4": -129, "b1*b3": 30, "b1^2*b2": 156, "b2^2": 45, "b4": -30,
    }
    cells = cells_of(img)
    assert cells.pop("v^4") == 1
    assert cells == {k: 16 * v for k, v in want16.items()}
    # the printed parenthesized coefficients match except v*b1*b2: 283 -> 291


@pytest.mark.xfail(strict=True,
                   reason="paper misprint: [M]'s v b1 b2 cell prints 16*283; the "
                          "substitution (and the corrected K3^2/4) force 16*291")
def test_miscenko_M_as_printed(twisted6):
    img = miscenko_image(BordismExpr.parse("1/4*K3SQ + 12*N"), twisted6, "paper-box")
    assert coeff_of(img, v=1, b1=1, b2=1) == 16 * 283


def test_miscenko_residue_mode_still_v4_mod16(twisted6):
    img = miscenko_image(BordismExpr.parse("1/4*K3SQ + 12*N"), twisted6, "residue-exact")
    for exp, c in img.terms.items():
        mono = img.monomial_str(exp)
        if mono == "v^4":
            assert c == 1
        else:
            assert c.denominator == 1 and c.numerator % 16 == 0, mono
