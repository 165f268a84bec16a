"""Formal group laws: the generic strict series, and the multiplicative law
x + y + vxy twisted by it, kept as its coefficient table.

Conventions.  The twisted law's coefficients a_ij, from
F = x + y + sum a_ij x^i y^j, are polynomials in the weight-0 symbols
(v, b1..b_nb).  The grading under which the tests check homogeneity: b_i has
grade 2i and v grade +2, so a_ij is homogeneous of grade 2(i+j-1).  (v is
the *inverse* Bott class, of cohomological degree -2; the homological grade
that makes the twisted-law coefficients homogeneous is +2, which is what the
checks use.)
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .series import MonomialCode, MultiSeries, _addmul

# the largest --bound the CLI twists at; --nb is capped one below it, as no
# b_i with i >= bound reaches the law.  Fresh process, unscaled, 2-vCPU VM:
# --bound 24 --nb 23 takes ~3.1-4.3 s and ~100 MB, 26/25 ~6.6-7.1 s and
# ~180 MB, growing ~1.4x per step of the bound
MAX_TWIST_BOUND = 24


class FGL:
    """A formal group law F(x, y) = x + y + sum a_ij x^i y^j kept as its parts
    {(i, j): a_ij} for i, j >= 1, each a series in ``zero``'s ambient."""

    def __init__(self, zero: MultiSeries, parts: dict):
        self.zero = zero
        self._parts = parts

    def coeff_table(self):
        """a_ij from F = x + y + sum_{i,j>=1} a_ij x^i y^j, as {(i, j): series}."""
        return dict(self._parts)

    def a(self, i, j):
        return self._parts.get((i, j), self.zero)


def generic_strict_series(bound, nb):
    """g(t) = t + b1 t^2 + ... + b_nb t^(nb+1) over symbols b_i (weight 0),
    in the ambient (t, b1, ..., b_nb)."""
    vars_ = ("t",) + tuple(f"b{i}" for i in range(1, nb + 1))
    weights = (1,) + (0,) * nb
    terms = {(1,) + (0,) * nb: Fraction(1)}
    for i in range(1, nb + 1):
        exp = [0] * len(vars_)
        exp[0] = i + 1
        exp[i] = 1
        terms[tuple(exp)] = Fraction(1)
    return MultiSeries(vars_, terms, bound, weights)


def fgl_twist(bound, nb) -> FGL:
    """The law gF(x, y) = g(F(g^{-1}(x), g^{-1}(y))) for F = x + y + vxy and
    g = ``generic_strict_series(bound, nb)``, up to total degree ``bound`` in
    x and y; g is a strict isomorphism F -> gF.  Its parts live in the
    ambient (v, b1..b_nb), every symbol of weight 0, with the twist's bound.

    No g^{-1} is formed: H = gF is solved from H(g(x), g(y)) = g(F(x, y)).
    With G[k] = [t^k] g (1 at k = 1, b_(k-1) for 2 <= k <= nb + 1),
    P_a[i] = [t^i] g(t)^a (so P_a[a] = 1) and, from the multinomial expansion
    of F^k,
        R_ij = [x^i y^j] g(F) = sum_{max(i,j) <= k <= i+j} G[k] C(k, i) C(i, i+j-k) v^(i+j-k),
    comparing coefficients gives, by increasing i + j,
        h_ij = R_ij - sum_{a<i} P_a[i] Q[a, j] - sum_{b<j} h_ib P_b[j],
    where Q[a, j] = sum_{b<=j} h_ab P_b[j] is formed once per (a, j), which
    makes the solve cubic in the bound.  Coefficients are integer polynomials
    in the symbols on the kernel: a symbol's exponent in P_a[i] is at most
    i - a, and in R_ij, h_ij and every product the solve forms at most
    i + j - 1, so fields for the bound never carry.  R is symmetric, so only
    i <= j is solved, decoded once, and shared with (j, i).
    """
    code = MonomialCode([bound] * (nb + 1))  # v first, so v^e has the code e; then b_1..b_nb
    top = min(nb + 1, bound)  # the last k with G[k] nonzero below the bound
    gcode = [None, 0] + [1 << code.shifts[k - 1] for k in range(2, top + 1)]
    G = [None] + [{c: 1} for c in gcode[1:]]
    # P[a][i] = [t^i] g^a for a <= i <= bound
    P = [[G[1]] + [{}] * bound]  # g^0 = 1 = [t] g
    for a in range(1, bound + 1):
        row = [{} for _ in range(bound + 1)]
        for i in range(a, bound + 1):
            for k in range(1, min(i - a + 1, top) + 1):
                _addmul(row[i], G[k], P[a - 1][i - k])
        P.append(row)
    h, Q = {}, {}
    for n in range(bound + 1):
        for i in range(n // 2 + 1):
            j = n - i
            acc = {gcode[k] + n - k: comb(k, i) * comb(i, n - k)  # R_ij
                   for k in range(max(j, 1), min(n, top) + 1)}
            for a in range(i):
                if (a, j) not in Q:
                    Q[a, j] = q = {}
                    for b in range(j + 1):
                        _addmul(q, h[a, b], P[b][j])
                _addmul(acc, P[a][i], Q[a, j], neg=True)
            for b in range(j):
                _addmul(acc, h[i, b], P[b][j], neg=True)
            h[i, j] = h[j, i] = acc
    zero = MultiSeries.zero(("v",) + tuple(f"b{i}" for i in range(1, nb + 1)), bound, (0,) * (nb + 1))
    table = {}
    for (i, j), poly in h.items():
        if 1 <= i <= j and poly:
            table[i, j] = table[j, i] = zero._bare({code.decode(c): Fraction(s) for c, s in poly.items()})
    return FGL(zero, table)
