"""Formal group laws: the multiplicative law, the generic strict series, and
the twist of a law by a strict series, kept as its coefficient table.

Conventions.  A law lives in a bivariate ambient (x, y) over Q, possibly
with weight-0 bookkeeping symbols (v, b1..) alongside.
The grading under which the tests check homogeneity: b_i has grade 2i,
v grade +2, x and y grade -2, so a_ij picked out of F = x + y + sum a_ij
x^i y^j is homogeneous of grade 2(i+j-1).  (v is the *inverse* Bott class,
of cohomological degree -2; the homological grade that makes the twisted-law
coefficients homogeneous is +2, which is what the checks use.)
"""

from __future__ import annotations

from fractions import Fraction

from .errors import AxiomViolation, BoundMismatch
from .series import MonomialCode, MultiSeries, _addmul, _degree_fn, lift, lower

X, Y, T = "x", "y", "t"

# the largest --bound the CLI twists at; --nb is capped one below it, as no
# b_i with i >= bound reaches the law.  Fresh process, unscaled: --bound 24
# --nb 23 takes ~7-8 s and ~270 MB, 26/25 ~16 s and ~475 MB, and 40/5 more
# than 90 s, growing ~1.4x per step of the bound
MAX_TWIST_BOUND = 24


class FGL:
    """A formal group law F(x, y) kept as its parts {(i, j): [x^i y^j] F}, each
    a series in ``zero``'s ambient with x and y at 0."""

    def __init__(self, zero: MultiSeries, parts: dict):
        self.zero = zero
        self._parts = parts

    def coeff_table(self):
        """a_ij from F = x + y + sum_{i,j>=1} a_ij x^i y^j, as {(i, j): series}."""
        return {key: part for key, part in self._parts.items() if min(key) >= 1}

    def a(self, i, j):
        got = self._parts.get((i, j)) if min(i, j) >= 1 else None
        return self.zero if got is None else got


def _require_zero(diff: MultiSeries, axiom: str):
    """AxiomViolation(axiom, the first monomial of diff) unless diff is zero."""
    if not diff.is_zero():
        raise AxiomViolation(axiom, diff.monomial_str(diff.sorted_terms()[0][0]) or "1")


def multiplicative_law(bound):
    """F_K(x, y) = x + y + v x y over the symbol v."""
    one = Fraction(1)
    terms = {(1, 0, 0): one, (0, 1, 0): one, (1, 1, 1): one}
    return MultiSeries((X, Y, "v"), terms, bound, (1, 1, 0))


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


def fgl_twist(F: MultiSeries, g: MultiSeries) -> FGL:
    """Twist: the law gF(x, y) = g(F(g^{-1}(x), g^{-1}(y))), for which g is a
    strict isomorphism F -> gF.

    F is a law in (x, y): its terms of degree below 2 in x and y are x + y,
    else AxiomViolation("unit", ...).  g is a strict series in t whose other
    variables (symbols) are shared with the target ambient.  The result's
    parts live in the union ambient of F's and g's variables.

    No g^{-1} is formed: H = gF is solved from H(g(x), g(y)) = g(F(x, y)).
    With P_a[i] = [t^i] g(t)^a (so P_a[a] = 1) and R_ij = [x^i y^j] g(F(x, y)),
    comparing coefficients gives, by increasing i + j,
        h_ij = R_ij - sum_{a<i} P_a[i] Q[a, j] - sum_{b<j} h_ib P_b[j],
    where Q[a, j] = sum_{b<=j} h_ab P_b[j] is formed once per (a, j), which
    makes the solve cubic in the bound.  Coefficients are polynomials in the
    symbols on the kernel: with s the largest symbol exponent in F or g, one
    in P_a[i] is at most s (i - a), and in R_ij, h_ij and every product the
    solve forms at most s (i + j - 1), so fields for s * bound never carry;
    x and y, at most the bound, share the code.
    F must be commutative: R is symmetric exactly when F is (g is
    invertible), and then only i <= j is solved, decoded once, and shared
    with (j, i).  A non-symmetric F raises AxiomViolation("commutativity", ...).
    """
    bound = F.bound
    g._strict(T)
    if bound is None or (g.bound is not None and g.bound < bound):
        raise BoundMismatch(f"twist needs F's finite bound, at most g's: {bound} vs {g.bound}")
    ix, iy = F._var_index(X), F._var_index(Y)  # the same in the joint ambient, where F's come first
    unit = F._bare({e: c for e, c in F.terms.items() if e[ix] + e[iy] < 2})
    _require_zero(unit - MultiSeries.var(F.vars, X, bound, F.weights)
                  - MultiSeries.var(F.vars, Y, bound, F.weights), "unit")
    # the joint ambient; a symbol in both F and g takes F's weight
    vars_ = tuple(dict.fromkeys(F.vars + tuple(v for v in g.vars if v != T)))
    wmap = dict(zip(g.vars, g.weights))
    wmap.update(zip(F.vars, F.weights))
    weights = tuple(wmap[v] for v in vars_)
    s = max((e[i] for h in (F, g) for e in h.terms
             for i, v in enumerate(h.vars) if v not in (X, Y, T)), default=0)
    code = MonomialCode([bound if v in (X, Y) else s * bound for v in vars_])
    sx, sy = code.shifts[ix], code.shifts[iy]  # x^i y^j has the code (i << sx) + (j << sy)

    def coded(terms):  # keyed by code; integers as Python ints, which multiply far faster
        vals, den = lift(terms.values())
        return dict(zip(map(code.encode, terms), vals if den == 1 else terms.values()))

    # [t^k] g, and below R = [x^i y^j] g(F), as polynomials in the joint
    # ambient with t, x and y at 0
    G = {k: coded(part.embed(vars_, weights, None).terms) for (k,), part in g.split((T,)).items()}
    gF = g.substitute({T: F.embed(vars_, weights, bound)})
    R = {ij: coded(part.terms) for ij, part in gF.split((X, Y)).items()}
    for (i, j), r in sorted(R.items()):
        if r != R.get((j, i)):
            raise AxiomViolation("commutativity", gF.monomial_str(code.decode((i << sx) + (j << sy))))
    # P[a][i] = [t^i] g^a for a <= i <= bound
    P = [[G[1]] + [{}] * bound]  # g^0 = 1 = [t] g
    for a in range(1, bound + 1):
        row = [{} for _ in range(bound + 1)]
        for i in range(a, bound + 1):
            for k in range(1, i - a + 2):
                if k in G:
                    _addmul(row[i], G[k], P[a - 1][i - k])
        P.append(row)
    h, Q = {}, {}
    for n in range(bound + 1):
        for i in range(n // 2 + 1):
            j = n - i
            acc = dict(R.get((i, j), {}))
            for a in range(i):
                if (a, j) not in Q:
                    Q[a, j] = q = {}
                    for b in range(j + 1):
                        _addmul(q, h[a, b], P[b][j])
                _addmul(acc, P[a][i], Q[a, j], neg=True)
            for b in range(j):
                _addmul(acc, h[i, b], P[b][j], neg=True)
            h[i, j] = h[j, i] = acc
    # h_ij's codes carry no x or y; a term of x^i y^j h_ij above the bound is dropped
    zero, wdeg = MultiSeries.zero(vars_, bound, weights), _degree_fn(weights)
    table = {}
    for (i, j), poly in h.items():
        if i > j:
            continue
        top = bound - i * weights[ix] - j * weights[iy]
        terms = {e: c for e, c in zip(map(code.decode, poly), poly.values()) if wdeg(e) <= top}
        if part := lower(terms, 1):
            table[i, j] = table[j, i] = zero._bare(part)
    return FGL(zero, table)
