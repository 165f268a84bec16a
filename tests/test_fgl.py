import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fglab.chern import partitions
from fglab.errors import AxiomViolation, NotStrict, UnsupportedDimension, UsageError
from fglab.fgl import (BordismExpr, FGL, additive_law, cpn_box_diff, cpn_in_a,
                       fgl_binom, fgl_check, fgl_exp, fgl_from_genus, fgl_log,
                       fgl_twist, generic_strict_series, miscenko_image,
                       multiplicative_law)
from fglab.rings import RAT
from fglab.series import MultiSeries

from helpers import RANDOM_SEED, exp_series, grades_present, rename, symbol_grades, truncate


def rational_strict_g(rng, bound, nb=4):
    """Concrete strict series with random rational b_i (shares the ambient
    symbol v with the multiplicative law)."""
    vars_ = ("t", "v")
    terms = {(1, 0): Fraction(1)}
    for i in range(1, nb + 1):
        terms[(i + 1, 0)] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return MultiSeries(RAT, vars_, terms, bound, (1, 0))


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
    return MultiSeries(like.ring, like.vars, terms, like.bound, like.weights)


@pytest.fixture(scope="module")
def twisted6():
    return fgl_twist(multiplicative_law(RAT, 6), generic_strict_series(RAT, 6, 5))


def test_fgl_check_valid_laws():
    fgl_check(additive_law(RAT, 8))
    fgl_check(multiplicative_law(RAT, 8, vcoeff=Fraction(1)))
    fgl_check(multiplicative_law(RAT, 8))  # symbolic v


def test_fgl_check_unit_violation():
    bad = MultiSeries(RAT, ("x", "y"), {(1, 0): Fraction(1), (0, 1): Fraction(1),
                                        (2, 0): Fraction(1)}, 8)
    with pytest.raises(AxiomViolation) as ei:
        fgl_check(bad)
    assert ei.value.axiom == "unit" and ei.value.monomial == "x^2"


def test_fgl_check_associativity_violation():
    bad = MultiSeries(RAT, ("x", "y"), {(1, 0): Fraction(1), (0, 1): Fraction(1),
                                        (2, 1): Fraction(1), (1, 2): Fraction(1)}, 6)
    with pytest.raises(AxiomViolation) as ei:
        fgl_check(bad)
    assert ei.value.axiom == "associativity"


def test_twist_by_identity_is_identity():
    F = multiplicative_law(RAT, 8, vcoeff=Fraction(1))
    g = MultiSeries(RAT, ("t",), {(1,): Fraction(1)}, 8)
    assert fgl_twist(F, g) == F


def test_twist_requires_strict():
    F = multiplicative_law(RAT, 6, vcoeff=Fraction(1))
    g = MultiSeries(RAT, ("t",), {(1,): Fraction(2)}, 6)
    with pytest.raises(NotStrict):
        fgl_twist(F, g)


def poly_in(ambient, d):
    terms = {}
    for mono, c in d.items():
        e = [0] * len(ambient.vars)
        for name, p in mono:
            e[ambient.vars.index(name)] = p
        terms[tuple(e)] = Fraction(c)
    return MultiSeries(RAT, ambient.vars, terms, ambient.bound, ambient.weights)


def test_twisted_law_images(twisted6):
    """Five printed coefficient images match the source exactly; a32 is
    asserted at its computed value (three of its printed cells are
    transcription errors, see the xfail below and notes/decisions.md).  The
    law lives in the joint ambient of F = x + y + vxy and g(t) in b1..b5."""
    assert twisted6.vars == ("x", "y", "v", "b1", "b2", "b3", "b4", "b5")
    law = FGL(twisted6)
    assert law.a(1, 1) == poly_in(twisted6, {(("v", 1),): 1, (("b1", 1),): 2})
    assert law.a(2, 1) == poly_in(twisted6, {(("v", 1), ("b1", 1)): 1, (("b1", 2),): -2,
                                             (("b2", 1),): 3})
    assert law.a(3, 1) == poly_in(twisted6, {(("v", 1), ("b2", 1)): 2, (("v", 1), ("b1", 2)): -2,
                                             (("b3", 1),): 4, (("b1", 1), ("b2", 1)): -8,
                                             (("b1", 3),): 4})
    assert law.a(2, 2) == poly_in(twisted6, {(("v", 2), ("b1", 1)): 1, (("v", 1), ("b1", 2)): -3,
                                             (("b1", 3),): 2, (("b1", 1), ("b2", 1)): -6,
                                             (("v", 1), ("b2", 1)): 6, (("b3", 1),): 6})
    assert law.a(4, 1) == poly_in(twisted6, {(("v", 1), ("b1", 3)): 5,
                                             (("v", 1), ("b1", 1), ("b2", 1)): -8,
                                             (("b1", 2), ("b2", 1)): 25, (("v", 1), ("b3", 1)): 3,
                                             (("b1", 4),): -10, (("b1", 1), ("b3", 1)): -14,
                                             (("b2", 2),): -6, (("b4", 1),): 5})
    assert law.a(3, 2) == poly_in(twisted6, {(("v", 1), ("b1", 3)): 6,
                                             (("v", 1), ("b1", 1), ("b2", 1)): -16,
                                             (("b1", 4),): -4, (("b1", 2), ("b2", 1)): 14,
                                             (("v", 2), ("b1", 2)): -2, (("v", 2), ("b2", 1)): 3,
                                             (("b2", 2),): -3, (("b1", 1), ("b3", 1)): -16,
                                             (("v", 1), ("b3", 1)): 12, (("b4", 1),): 10})


@pytest.mark.xfail(strict=True,
                   reason="paper misprint: printed a32 reads 4vb1^3 - 18vb1b2 + 8b1^2b2, "
                          "but the twist computation forces 6vb1^3 - 16vb1b2 + 14b1^2b2")
def test_twisted_law_a32_as_printed(twisted6):
    a32 = FGL(twisted6).a(3, 2)
    assert a32.coeff_of(v=1, b1=3) == 4
    assert a32.coeff_of(v=1, b1=1, b2=1) == -18
    assert a32.coeff_of(b1=2, b2=1) == 8


def test_twisted_law_images_homogeneous(twisted6):
    """Internal grading (b_i -> 2i, v -> +2): a_ij image homogeneous of
    grade 2(i+j-1)."""
    grades = {k: v for k, v in symbol_grades(5).items() if k not in ("x", "y", "z")}
    for (i, j), poly in FGL(twisted6).coeff_table().items():
        assert grades_present(poly, grades) == [2 * (i + j - 1)], (i, j)


def test_coeff_table_rebuilds_the_law(twisted6):
    """x + y + sum a_ij x^i y^j over the table is the law; a(i, j) reads the
    table and is zero for a pair the law does not contain."""
    law = FGL(twisted6)
    table = law.coeff_table()
    F = twisted6

    def mono(name, k):
        return MultiSeries.var(RAT, F.vars, name, F.bound, F.weights, power=k)

    rebuilt = mono("x", 1) + mono("y", 1)
    for (i, j), aij in table.items():
        assert all(e[F.vars.index("x")] == 0 == e[F.vars.index("y")] for e in aij.terms)
        rebuilt = rebuilt + aij * mono("x", i) * mono("y", j)
        assert law.a(i, j) == aij
    assert rebuilt == F
    zero = MultiSeries.zero(RAT, F.vars, F.bound, F.weights)
    assert (1, 0) not in table and law.a(1, 0) == zero
    assert (F.bound, F.bound) not in table and law.a(F.bound, F.bound) == zero
    table.clear()
    assert law.coeff_table() and law.a(1, 1) != zero


def test_twisted_law_passes_axioms_random_rationals():
    rng = random.Random(RANDOM_SEED)
    for _ in range(5):
        g = rational_strict_g(rng, 10)
        fgl_check(fgl_twist(multiplicative_law(RAT, 10), g))


def test_twist_group_action_inverse():
    rng = random.Random(RANDOM_SEED)
    g = rational_strict_g(rng, 8)
    F = multiplicative_law(RAT, 8)
    tw = fgl_twist(F, g)
    assert fgl_twist(tw, g.comp_inverse("t")) == F


def test_fgl_log_additive_and_multiplicative():
    assert fgl_log(additive_law(RAT, 8)) == MultiSeries.var(RAT, ("x",), "x", 8)
    Fm = MultiSeries(RAT, ("x", "y"), {(1, 0): Fraction(1), (0, 1): Fraction(1),
                                       (1, 1): Fraction(-1)}, 8)
    # log of x + y - xy is -ln(1-x) = sum x^n / n
    assert fgl_log(Fm) == MultiSeries(RAT, ("x",),
                                      {(n,): Fraction(1, n) for n in range(1, 9)}, 8)


def test_log_exp_roundtrip():
    rng = random.Random(RANDOM_SEED)
    g = rational_strict_g(rng, 9)
    tw = fgl_twist(multiplicative_law(RAT, 9), g)
    lg = fgl_log(tw)
    ex = fgl_exp(tw)
    assert lg.compose("x", ex) == MultiSeries.var(RAT, lg.vars, "x", 9, lg.weights)


def test_fgl_log_of_twist_is_log_after_inverse():
    rng = random.Random(RANDOM_SEED)
    g = rational_strict_g(rng, 8)
    F = multiplicative_law(RAT, 8)
    tw = fgl_twist(F, g)
    ginv = rename(g.comp_inverse("t"), {"t": "x"})
    assert fgl_log(tw) == fgl_log(F).compose("x", ginv)


def test_fgl_log_linearizes_the_law():
    rng = random.Random(RANDOM_SEED)
    g = rational_strict_g(rng, 8)
    tw = fgl_twist(multiplicative_law(RAT, 8), g)
    lg = fgl_log(tw)
    # compare one order below the bound: substituting the law consumes it
    b = 7
    tw7 = truncate(tw, b)
    lg7 = truncate(lg, b)
    lhs = lg7.compose("x", tw7)
    rhs = (lg7.compose("x", MultiSeries.var(RAT, tw7.vars, "x", b, tw7.weights))
           + lg7.compose("x", MultiSeries.var(RAT, tw7.vars, "y", b, tw7.weights)))
    assert lhs == rhs


def test_from_genus_trivial_and_todd():
    one = MultiSeries.one(RAT, ("x",), 10)
    assert fgl_from_genus(one) == additive_law(RAT, 10)
    # Todd characteristic series x/(1 - e^-x) gives the multiplicative law
    emx = exp_series(("x",), "x", 10, rate=Fraction(-1))
    den = one - emx
    den_shift = MultiSeries(RAT, ("x",), {(e[0] - 1,): c for e, c in den.terms.items()
                                          if e[0] >= 1}, 10)
    P = den_shift.reciprocal()
    want = MultiSeries(RAT, ("x", "y"), {(1, 0): Fraction(1), (0, 1): Fraction(1),
                                         (1, 1): Fraction(-1)}, 10)
    assert fgl_from_genus(P) == want


def test_from_genus_random_gives_fgl():
    rng = random.Random(RANDOM_SEED)
    for _ in range(3):
        terms = {(0,): Fraction(1)}
        for k in range(1, 8):
            terms[(k,)] = Fraction(rng.randint(-5, 5), rng.randint(1, 6))
        fgl_check(fgl_from_genus(MultiSeries(RAT, ("x",), terms, 8)))


def test_fgl_binom_trivial_and_closed_form():
    from math import comb
    F = MultiSeries(RAT, ("x", "y", "u"), {(1, 0, 0): Fraction(1), (0, 1, 0): Fraction(1),
                                           (1, 1, 1): Fraction(-1)}, 10, (1, 1, 0))
    t0 = fgl_binom(F, 0)
    assert list(t0) == [(0, 0)] and t0[(0, 0)].constant_term() == 1
    # <k; i,j> = C(k, 2k-i-j) C(2k-i-j, k-j) (-v)^(k-i-j), v^-1 = u as a symbol
    for k in (1, 2, 3, 4):
        for (i, j), val in fgl_binom(F, k).items():
            s = 2 * k - i - j
            want = comb(k, s) * comb(s, k - j) * (-1) ** (k - i - j)
            assert val.coeff_of(u=i + j - k) == want, (k, i, j)


def test_fgl_binom_matches_direct_power_random():
    rng = random.Random(RANDOM_SEED)
    g = rational_strict_g(rng, 8)
    F = fgl_twist(multiplicative_law(RAT, 8), g)
    for k in range(0, 6):
        acc = MultiSeries.zero(RAT, F.vars, 8, F.weights)
        for (i, j), val in fgl_binom(F, k).items():
            mono = {F.vars.index("x"): i, F.vars.index("y"): j}
            exp = tuple(mono.get(t, 0) for t in range(len(F.vars)))
            acc = acc + val * MultiSeries(RAT, F.vars, {exp: Fraction(1)}, 8, F.weights)
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
    nb = 8
    F = multiplicative_law(RAT, 9)
    g = generic_strict_series(RAT, 9, nb)
    tw = fgl_twist(F, g)
    rec = tw.partial("y").coeff_in_var("y", 0).reciprocal()
    law = FGL(tw)
    for n in range(1, 9):
        want = rec.coeff_in_var("x", n)
        poly = cpn_in_a(n, "residue-exact")
        repl = {f"a1_{i}": embed(_xyfree(law.a(1, i)), want) for i in range(1, n + 1)}
        got = poly.substitute(repl)
        assert got == want, n


def _xyfree(series):
    names = tuple(v for v in series.vars if v not in ("x", "y"))
    terms = {}
    for exp, c in series.terms.items():
        terms[tuple(e for v, e in zip(series.vars, exp) if v not in ("x", "y"))] = c
    weights = tuple(w for v, w in zip(series.vars, series.weights) if v not in ("x", "y"))
    return MultiSeries(series.ring, names, terms, series.bound, weights)


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
    keys = draw(st.lists(st.sampled_from(partitions(dim)), min_size=1, max_size=4, unique=True))
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


def test_miscenko_cp1(twisted6):
    img = miscenko_image(BordismExpr.parse("CP1"), twisted6, "paper-box")
    assert img.coeff_of(v=1) == -1
    assert img.coeff_of(b1=1) == -2
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
    assert img.coeff_of(v=1, b1=1, b2=1) == 448


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
    assert img.coeff_of(v=1, b1=1, b2=1) == 16 * 283


def test_miscenko_residue_mode_still_v4_mod16(twisted6):
    img = miscenko_image(BordismExpr.parse("1/4*K3SQ + 12*N"), twisted6, "residue-exact")
    for exp, c in img.terms.items():
        mono = img.monomial_str(exp)
        if mono == "v^4":
            assert c == 1
        else:
            assert c.denominator == 1 and c.numerator % 16 == 0, mono
