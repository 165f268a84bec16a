"""Constructors, views and reference computations that only the tests use."""

from fractions import Fraction
from itertools import compress
from math import comb, gcd

from fglab.adams import APoly
from fglab.mahler import NumPoly, mahler_expand
from fglab.rings import RAT
from fglab.series import MultiSeries

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
