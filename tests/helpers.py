"""Constructors, views and reference computations that only the tests use."""

from fractions import Fraction
from math import comb, gcd

from fglab.adams import APoly
from fglab.mahler import NumPoly, mahler_expand
from fglab.rings import RAT
from fglab.series import MultiSeries


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
