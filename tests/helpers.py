"""Constructors, views and reference computations that only the tests use."""

from fractions import Fraction
from itertools import compress
from math import comb, gcd

from fglab.adams import (APoly, DPoly, _amono_str, _amono_weight, _dmul, monomial_codes,
                         psi_tensor_apoly)
from fglab.cannibal import ThetaGenSeq, ThetaTable
from fglab.errors import FglabError, IndexOutOfRange, NotReducible, NotStrict, UsageError
from fglab.mahler import NumPoly, mahler_expand
from fglab.rings import RAT
from fglab.series import MultiSeries, geometric

# seed for every randomized property check; recorded here so runs reproduce
RANDOM_SEED = 271828


def exp_series(varnames, var, bound, weights=None, rate=Fraction(1)):
    """exp(rate*x) over Q, truncated."""
    vs = tuple(varnames)
    idx = vs.index(var)
    terms = {}
    f = Fraction(1)
    for n in range(0, bound + 1):
        if n > 0:
            f = f * rate / n
        terms[tuple(n if i == idx else 0 for i in range(len(vs)))] = f
    return MultiSeries(RAT, vs, terms, bound, weights)


def log1p_series(varnames, var, bound, weights=None):
    """log(1+x) over Q, truncated."""
    vs = tuple(varnames)
    idx = vs.index(var)
    terms = {}
    for n in range(1, bound + 1):
        terms[tuple(n if i == idx else 0 for i in range(len(vs)))] = Fraction((-1) ** (n + 1), n)
    return MultiSeries(RAT, vs, terms, bound, weights)


class NonzeroConstantTerm(FglabError):
    """``compose`` was given an inner series with a nonzero constant term."""


def compose(outer, var, inner):
    """Substitute ``inner`` for ``var`` in ``outer`` by Horner iteration.

    ``inner`` must have zero constant term (composition of formal power
    series); per-step truncation keeps the cost polynomial in the bound
    and the term count.
    """
    if not inner.ring.is_zero(inner.constant_term()):
        raise NonzeroConstantTerm("inner series has nonzero constant term")
    layers = outer.split((var,))
    out = MultiSeries.zero(inner.ring, inner.vars, inner.bound, inner.weights)
    for k in range(max((k for (k,) in layers), default=0), -1, -1):
        out = out * inner
        layer = layers.get((k,))
        if layer is not None:
            out = out + layer.embed(inner.vars, inner.weights, inner.bound)
    return out


def twist_by_substitution(F, g):
    """The twisted law g(F(g^-1(x), g^-1(y))) by direct substitution, the
    reference for ``fgl_twist``: F is bivariate in (x, y), g a strict series
    in t, and the result lives in the union ambient of their variables."""
    X, Y, T = "x", "y", "t"
    ring = F.ring
    bound = F.bound
    unit = tuple(1 if v == T else 0 for v in g.vars)
    if not (g.coefficient(unit) == ring.one) or not ring.is_zero(g.constant_term()):
        raise NotStrict("twist requires a strict series g")
    # joint ambient
    vars_ = tuple(dict.fromkeys(F.vars + tuple(v for v in g.vars if v != T)))
    wmap = {}
    for v, w in zip(F.vars, F.weights):
        wmap[v] = w
    for v, w in zip(g.vars, g.weights):
        if v != T:
            wmap.setdefault(v, w)
    weights = tuple(wmap[v] for v in vars_)
    ginv = g.comp_inverse(T)
    xv = MultiSeries.var(ring, vars_, X, bound, weights)
    yv = MultiSeries.var(ring, vars_, Y, bound, weights)
    ginv_x = ginv.substitute({T: xv})
    ginv_y = ginv.substitute({T: yv})
    inner = F.substitute({X: ginv_x, Y: ginv_y})
    return g.substitute({T: inner})


def truncate(s, bound):
    """The terms of s in the same variables, truncated at ``bound``."""
    return MultiSeries(s.ring, s.vars, s.terms, bound, s.weights)


def rename(s, mapping):
    """s with its variables renamed by ``mapping`` (name -> new name)."""
    return MultiSeries(s.ring, [mapping.get(v, v) for v in s.vars], s.terms, s.bound, s.weights)


def grades_present(s, grades):
    """The sorted distinct grades of the terms of s, under ``grades`` (name -> grade)."""
    gvec = [grades.get(v, 0) for v in s.vars]
    return sorted({sum(x * g for x, g in zip(e, gvec)) for e in s.terms})


def symbol_grades(nb):
    """The grades under which the twisted-law coefficients are homogeneous:
    b_i has grade 2i, v grade +2, x, y and z grade -2."""
    g = {"x": -2, "y": -2, "z": -2, "v": 2}
    for i in range(1, nb + 1):
        g[f"b{i}"] = 2 * i
    return g


def theta_table_to_series(tab):
    """A cannibal.ThetaTable as the series sum c_mn x^m y^n."""
    terms = {(m, n): c for (m, n), c in tab.table.items()}
    return MultiSeries(RAT, ("x", "y"), terms, 2 * tab.bound)


def total_chern_by_series(dims):
    """c(CP^n1 x ... x CP^nr) as the product of the factors
    sum_{k <= n_i} C(n_i + 1, k) x_i^k, each a MultiSeries over Q in x1..xr
    truncated at the complex dimension, the reference for ``chern.total_chern``."""
    names = tuple(f"x{i + 1}" for i in range(len(dims)))
    bound = sum(dims)
    out = MultiSeries.one(RAT, names, bound)
    for i, n in enumerate(dims):
        factor = {tuple(k if j == i else 0 for j in range(len(names))): Fraction(comb(n + 1, k))
                  for k in range(n + 1)}
        out = out * MultiSeries(RAT, names, factor, bound)
    return out


def chern_number_by_series(dims, monomial):
    """The Chern number c_monomial[CP^n1 x ... x CP^nr] as the coefficient at
    x^dims of the product of degree parts of ``total_chern_by_series``, the
    reference for ``chern.chern_number``."""
    tc = total_chern_by_series(dims)
    acc = MultiSeries.one(RAT, tc.vars, tc.bound)
    for idx in monomial:
        acc = acc * tc.degree_part(idx)
    return int(acc.coefficient(dims))


def matvec(m, v):
    """The product of a chern.IntMatrix with a vector, over Q."""
    return [sum(Fraction(a) * Fraction(x) for a, x in zip(row, v)) for row in m.rows]


def apoly_mul(p, q):
    """The product of two APolys: u exponents add, a-monomials merge."""
    out = {}
    for (u1, m1), c1 in p.terms.items():
        for (u2, m2), c2 in q.terms.items():
            acc = dict(m1)
            for key, e in m2:
                acc[key] = acc.get(key, 0) + e
            m = (u1 + u2, tuple(sorted(acc.items())))
            out[m] = out.get(m, 0) + c1 * c2
    return APoly(out)


def cocycle_series(N):
    """f = 1 + sum a_ij x^i y^j and the variables x, y, z, u as series in x, y,
    z (weight 1, truncated at total degree N) whose weight-0 symbols u and a_ij
    ride along as coefficients; returns (f, x, y, z, u)."""
    # in (i, j) order, so the a-monomials read off the exponents are sorted as APoly keys
    pairs = [(i, j) for i in range(1, N) for j in range(i, N + 1 - i)]
    names = ("x", "y", "z", "u") + tuple(f"a{i}_{j}" for i, j in pairs)
    weights = (1, 1, 1) + (0,) * (len(names) - 3)
    f_terms = {(0,) * len(names): Fraction(1)}
    for i in range(1, N):
        for j in range(1, N + 1 - i):
            exp = [0] * len(names)
            exp[0], exp[1] = i, j
            exp[names.index(f"a{min(i, j)}_{max(i, j)}")] = 1
            f_terms[tuple(exp)] = Fraction(1)
    f = MultiSeries(RAT, names, f_terms, N, weights)
    return (f, *(MultiSeries.var(RAT, names, v, N, weights) for v in "xyzu"))


def xyz_coefficients(s):
    """The coefficients of a series from ``cocycle_series`` at each x^a y^b z^c,
    as {(a, b, c): {(u-power, a-monomial): coefficient}}."""
    pairs = [tuple(map(int, v[1:].split("_"))) for v in s.vars[4:]]
    groups = {}
    for exp, c in s.terms.items():
        avec = exp[4:]
        mono = (exp[3], tuple(zip(compress(pairs, avec), filter(None, avec))))
        groups.setdefault(exp[:3], {})[mono] = c
    return groups


def series_relations(N):
    """The 2-structure relations through degree N from the series engine:
    the left side f(x, y) f(x +. y, z) of the cocycle identity expanded as a
    series, then L[a,b,c] - L[c,b,a] for every monomial, content-normalized,
    with a mirror pair sharing one APoly.  A nonzero relation on the boundary
    (a, b or c = 0, where f(x, 0) = 1 makes it vanish) or one that is not
    homogeneous of weight a + b + c fails an assertion."""
    f, x, y, z, u = cocycle_series(N)
    groups = xyz_coefficients(f * f.substitute({"x": x + y - u * x * y, "y": z}))
    rels = {}
    for key in groups:
        a, b, c = key
        mirror = (c, b, a)
        if a == c or (a > c and mirror in groups):
            continue  # zero, or built at its mirror
        diff = dict(groups[key])
        for mono, v in groups.get(mirror, {}).items():
            diff[mono] = diff.get(mono, 0) - v
        poly = APoly(diff).content_normalize()
        if poly.is_zero():
            continue
        assert a and b and c, f"boundary relation at {key}"
        assert apoly_weights(poly) == {a + b + c}, f"inhomogeneous relation at {key}"
        rels[key] = rels[mirror] = poly
    return dict(sorted(rels.items()))


def apoly_weights(p):
    """The distinct halved weights of the terms of an APoly (u has weight 1)."""
    return {ue + sum((i + j) * e for (i, j), e in pairs) for ue, pairs in p.terms}


def binom_gcd(k):
    """gcd{C(k, 1), ..., C(k, k - 1)}."""
    g = 0
    for i in range(1, k):
        g = gcd(g, comb(k, i))
    return g


def mahler_expand_poly(poly_coeffs, N) -> NumPoly:
    """Mahler expansion of sum_k poly_coeffs[k] T^k (rational coefficients)."""
    cs = [Fraction(c) for c in poly_coeffs]

    def fn(t):
        acc = Fraction(0)
        for k in reversed(range(len(cs))):
            acc = acc * t + cs[k]
        return acc

    return mahler_expand(fn, max(N, len(cs) - 1))


# -- reference computations for the Adams operations and cannibalistic classes


def psi3_closed_coeff(j: int, i: int) -> int:
    """Closed form for k = 3: (-1)^(i-j) sum_{s+t=i-j} C(j,s) C(s,t) 3^(j-t)."""
    total = 0
    for s in range(0, i - j + 1):
        t = i - j - s
        if t > s:
            continue
        total += comb(j, s) * comb(s, t) * 3 ** (j - t)
    return (-1) ** (i - j) * total


def theta3_bivariate(N: int) -> ThetaTable:
    """The theta^3 table by bivariate series division, no closed forms
    involved: the reference for ``cannibal.theta3_direct``."""
    vars_ = ("x", "y")
    ring = RAT
    bound = 2 * N

    def low(var):
        # 3 - 3 t + t^2
        x = MultiSeries.var(ring, vars_, var, bound)
        three = MultiSeries.constant(ring, vars_, Fraction(3), bound)
        return three - x.scale(Fraction(3)) + x * x

    x = MultiSeries.var(ring, vars_, "x", bound)
    y = MultiSeries.var(ring, vars_, "y", bound)
    one = MultiSeries.one(ring, vars_, bound)
    omx = one - x
    omy = one - y
    num = one + omx * omy + (omx * omx) * (omy * omy)
    f = num.scale(Fraction(3)) * low("x").reciprocal() * low("y").reciprocal()
    table = {}
    for (i, j), c in f.terms.items():
        if i <= N and j <= N:
            table[(i, j)] = c
    return ThetaTable(N, table)


def theta3_bilinear(m: int, n: int, tseq: ThetaGenSeq) -> Fraction:
    """Nine-term bilinear form in the t-sequence (the intermediate closed form)."""
    def t(k):
        return tseq[k] if k >= 0 else Fraction(0)
    return (9 * t(m) * t(n) - 9 * t(m - 1) * t(n) - 9 * t(m) * t(n - 1)
            + 3 * t(m - 2) * t(n) + 15 * t(m - 1) * t(n - 1) + 3 * t(m) * t(n - 2)
            - 6 * t(m - 2) * t(n - 1) - 6 * t(m - 1) * t(n - 2) + 3 * t(m - 2) * t(n - 2))


def theta3_one_bundle(var: str, vars_, bound: int) -> MultiSeries:
    """theta^3(1 - L) = 3 (1-x)^2 / (3 - 3x + x^2) in the x = 1 - L orientation
    (from theta(1) = 3, theta(-L) = 1/theta(L) and L^* = (1-x)^{-1})."""
    ring = RAT
    t = MultiSeries.var(ring, vars_, var, bound)
    one = MultiSeries.one(ring, vars_, bound)
    three = MultiSeries.constant(ring, vars_, Fraction(3), bound)
    omt = one - t
    return (omt * omt).scale(Fraction(3)) * (three - t.scale(Fraction(3)) + t * t).reciprocal()


def theta3_sum_of_two(N: int) -> MultiSeries:
    """theta^3((1-L1) + (1-L2)) = 9 / (theta(L1) theta(L2)), computed through
    geometric expansions of the dual line bundles (independent route)."""
    ring = RAT
    vars_ = ("x", "y")
    bound = 2 * N

    def theta_L(var):
        # 1 + L^* + (L^*)^2 with L^* = 1/(1 - t) = sum t^n
        dual = geometric(ring, vars_, var, bound)
        return MultiSeries.one(ring, vars_, bound) + dual + dual * dual

    nine = MultiSeries.constant(ring, vars_, Fraction(9), bound)
    return nine * (theta_L("x") * theta_L("y")).reciprocal()


def generator_images(red):
    """The phi(a_ij) a ``DReducer`` has determined, read off the generator
    entries of its phi memo, as {(i, j): {d-monomial: Fraction}}."""
    codes = monomial_codes(red.W)
    return {mono[0][0]: {codes[m]: Fraction(v, den) for m, v in nums.items()}
            for mono, (nums, den) in red._phi.items() if len(mono) == 1 and mono[0][1] == 1}


def reduce_by_fractions(red, expr):
    """``DReducer.reduce`` as a loop on Fractions, the reference for its
    integer multiply-add: phi of each a-monomial is the product of the
    phi(a_ij) of its factors, and the same errors are raised in the same
    order (a term above the weight, then an undetermined a_ij, last factor
    first, term by term; then a contradicting relation)."""
    gens = generator_images(red)
    out = {}
    for (_, mono), c in expr.set_u().terms.items():
        if _amono_weight(mono) > red.W:
            raise NotReducible(red.W, f"{_amono_str((0, mono))} exceeds weight {red.W}")
        phi = {(): 1}
        for pair, e in reversed(mono):
            if pair not in gens:
                raise NotReducible(red.W, f"{_amono_str((0, ((pair, 1),)))} is not determined")
            for _ in range(e):
                phi = _dmul(phi, gens[pair])
        for m, v in phi.items():
            out[m] = out.get(m, 0) + c * v
    if not red._consistent:
        raise UsageError("a relation contradicts the d_k; quotient not polynomial")
    return DPoly(out)


def thom_psi_dk_by_fractions(k_gen, theta, reducer):
    """``cannibal.thom_psi_dk`` as a sum of Fractions, cell by cell, reduced
    by ``reduce_by_fractions``: the reference for the integer sum."""
    nki = reducer.nki(k_gen)
    if theta.bound < k_gen:
        raise IndexOutOfRange(f"theta table bound {theta.bound} < {k_gen}")
    expr = {}
    for i, cnk in nki.items():
        for m in range(0, i + 1):
            for n in range(0, k_gen - i + 1):
                c = cnk * theta[m, n]
                if not c:
                    continue
                for mono, v in psi_tensor_apoly(i - m, k_gen - i - n).terms.items():
                    expr[mono] = expr.get(mono, 0) + c * v
    return reduce_by_fractions(reducer, APoly(expr))
