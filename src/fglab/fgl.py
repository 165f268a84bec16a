"""Formal group laws: axiom checking, twisting, logarithms, genus conversion,
FGL binomial coefficients, and the projective-space substitution into K-theory.

Conventions.  A law lives in a bivariate ambient (x, y) over a coefficient
ring, possibly with weight-0 bookkeeping symbols (v, b1..) alongside.
The grading under which the tests check homogeneity: b_i has grade 2i,
v grade +2, x and y grade -2, so a_ij picked out of F = x + y + sum a_ij
x^i y^j is homogeneous of grade 2(i+j-1).  (v is the *inverse* Bott class,
of cohomological degree -2; the homological grade that makes the twisted-law
coefficients homogeneous is +2, which is what the checks use.)
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import AxiomViolation, BoundMismatch, NotStrict, UnsupportedDimension, UsageError
from .rings import RAT
from .series import MonomialCode, MultiSeries, _addmul

X, Y, T = "x", "y", "t"

# the largest --bound the CLI twists at; --nb is capped one below it, as no
# b_i with i >= bound reaches the law.  Fresh process, unscaled: --bound 24
# --nb 23 takes ~7-8 s and ~270 MB, 26/25 ~16 s and ~475 MB, and 40/5 more
# than 90 s, growing ~1.4x per step of the bound
MAX_TWIST_BOUND = 24


class FGL:
    """A validated formal group law F(x, y) with its coefficient table."""

    def __init__(self, law: MultiSeries):
        self.law = law
        self._table = {key: part for key, part in law.split((X, Y)).items() if min(key) >= 1}

    def coeff_table(self):
        """a_ij from F = x + y + sum_{i,j>=1} a_ij x^i y^j, as {(i, j): series}."""
        return dict(self._table)

    def a(self, i, j):
        got = self._table.get((i, j))
        if got is None:
            return MultiSeries.zero(self.law.ring, self.law.vars, self.law.bound, self.law.weights)
        return got


def fgl_check(F: MultiSeries) -> FGL:
    """Validate the unit, commutativity and associativity axioms up to the bound.

    Associativity is compared at truncation bound-1: substituting a
    second law eats one order, so monomials at the top bound are not fully
    determined and are excluded from the comparison.
    """
    ring = F.ring
    ix, iy = F._var_index(X), F._var_index(Y)
    for v, other in ((X, Y), (Y, X)):  # F(x, 0) = x, then F(0, y) = y
        _require_zero(F.coeff_in_var(other, 0) - MultiSeries.var(ring, F.vars, v, F.bound, F.weights),
                      "unit")
    # symmetry
    swapped = {}
    for exp, c in F.terms.items():
        e = list(exp)
        e[ix], e[iy] = e[iy], e[ix]
        swapped[tuple(e)] = c
    _require_zero(F - MultiSeries(ring, F.vars, swapped, F.bound, F.weights), "commutativity")
    # associativity, in the ambient (x, y, z, symbols...) one order below the bound
    bound3 = None if F.bound is None else F.bound - 1
    symbols = [(v, w) for v, w in zip(F.vars, F.weights) if v not in (X, Y)]
    F3 = F.embed((X, Y, "z") + tuple(v for v, _ in symbols),
                 (1, 1, 1) + tuple(w for _, w in symbols), bound3)
    xv = MultiSeries.var(ring, F3.vars, "x", bound3, F3.weights)
    yv = MultiSeries.var(ring, F3.vars, "y", bound3, F3.weights)
    zv = MultiSeries.var(ring, F3.vars, "z", bound3, F3.weights)
    Fxy = F3.substitute({"x": xv, "y": yv})
    Fyz = F3.substitute({"x": yv, "y": zv})
    left = F3.substitute({"x": Fxy, "y": zv})
    right = F3.substitute({"x": xv, "y": Fyz})
    _require_zero(left - right, "associativity")
    return FGL(F)


def _require_zero(diff: MultiSeries, axiom: str):
    """AxiomViolation(axiom, the first monomial of diff) unless diff is zero."""
    if not diff.is_zero():
        raise AxiomViolation(axiom, diff.monomial_str(diff.sorted_terms()[0][0]) or "1")


def multiplicative_law(ring, bound, vcoeff=None):
    """F_K(x, y) = x + y + v x y; v defaults to the symbol 'v'."""
    if vcoeff is None:
        terms = {(1, 0, 0): ring.one, (0, 1, 0): ring.one, (1, 1, 1): ring.one}
        return MultiSeries(ring, (X, Y, "v"), terms, bound, (1, 1, 0))
    terms = {(1, 0): ring.one, (0, 1): ring.one, (1, 1): vcoeff}
    return MultiSeries(ring, (X, Y), terms, bound)


def additive_law(ring, bound):
    return MultiSeries(ring, (X, Y), {(1, 0): ring.one, (0, 1): ring.one}, bound)


def generic_strict_series(ring, bound, nb):
    """g(t) = t + b1 t^2 + ... + b_nb t^(nb+1) over symbols b_i (weight 0),
    in the ambient (t, b1, ..., b_nb)."""
    vars_ = ("t",) + tuple(f"b{i}" for i in range(1, nb + 1))
    weights = (1,) + (0,) * nb
    terms = {(1,) + (0,) * nb: ring.one}
    for i in range(1, nb + 1):
        exp = [0] * len(vars_)
        exp[0] = i + 1
        exp[i] = 1
        terms[tuple(exp)] = ring.one
    return MultiSeries(ring, vars_, terms, bound, weights)


def fgl_twist(F: MultiSeries, g: MultiSeries) -> MultiSeries:
    """Twist: the law gF(x, y) = g(F(g^{-1}(x), g^{-1}(y))), for which g is a
    strict isomorphism F -> gF.

    F is a law in (x, y): its terms of degree below 2 in x and y are x + y,
    else AxiomViolation("unit", ...).  g is a strict series in t whose other
    variables (symbols) are shared with the target ambient.  The result
    lives in the union ambient of F's and g's variables.

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
    invertible), and then only i <= j is solved and mirrored.  A
    non-symmetric F raises AxiomViolation("commutativity", ...).
    """
    ring = F.ring
    bound = F.bound
    parts = g.split((T,))
    if (0,) in parts or parts.get((1,)) != MultiSeries.one(ring, g.vars, g.bound, g.weights):
        raise NotStrict("twist requires a strict series g")
    if bound is None or (g.bound is not None and g.bound < bound):
        raise BoundMismatch(f"twist needs F's finite bound, at most g's: {bound} vs {g.bound}")
    ix, iy = F._var_index(X), F._var_index(Y)  # the same in the joint ambient, where F's come first
    unit = F._bare({e: c for e, c in F.terms.items() if e[ix] + e[iy] < 2})
    _require_zero(unit - MultiSeries.var(ring, F.vars, X, bound, F.weights)
                  - MultiSeries.var(ring, F.vars, Y, bound, F.weights), "unit")
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
        vals, den = ring.lift(terms.values())
        return dict(zip(map(code.encode, terms), vals if den == 1 else terms.values()))

    # [t^k] g, and below R = [x^i y^j] g(F), as polynomials in the joint
    # ambient with t, x and y at 0
    G = {k: coded(part.embed(vars_, weights, None).terms) for (k,), part in parts.items()}
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
    terms = {code.decode(k + (i << sx) + (j << sy)): c
             for (i, j), poly in h.items() for k, c in poly.items()}
    return MultiSeries(ring, vars_, ring.lower(terms, 1), bound, weights)


def fgl_log(F: MultiSeries) -> MultiSeries:
    """Logarithm: the strict series l with l(F(x,y)) = l(x) + l(y).

    Computed from l'(x) = 1/(dF/dy)(x, 0), integrated term-wise; requires a
    Q-algebra coefficient ring.
    """
    dFdy = F.partial(Y).coeff_in_var(Y, 0).drop_vars((Y,))
    return dFdy.reciprocal().integrate_strict(X)


def fgl_exp(F: MultiSeries) -> MultiSeries:
    return fgl_log(F).comp_inverse(X)


def fgl_from_genus(P: MultiSeries) -> MultiSeries:
    """FGL of the genus with characteristic series P (constant term 1).

    g^{-1}(x) = x / P(x) and F(x, y) = g^{-1}(g(x) + g(y)).
    """
    ring = P.ring
    if not (P.constant_term() == ring.one):
        raise NotStrict("characteristic series must have constant term 1")
    bound = P.bound
    xv = MultiSeries.var(ring, P.vars, X, bound, P.weights)
    ginv = xv * P.reciprocal()
    g = ginv.comp_inverse(X)
    # bivariate ambient
    vars2 = (X, Y) + tuple(v for v in P.vars if v != X)
    weights2 = (1, 1) + tuple(w for v, w in zip(P.vars, P.weights) if v != X)
    gx = g.substitute({X: MultiSeries.var(ring, vars2, X, bound, weights2)})
    gy = g.substitute({X: MultiSeries.var(ring, vars2, Y, bound, weights2)})
    return ginv.substitute({X: gx + gy})


def fgl_binom(F: MultiSeries, k: int) -> dict:
    """FGL binomial coefficients <k; i, j>_F from (x +_F y)^k.

    Returns {(i, j): coefficient-series in the symbol variables}.
    """
    if k < 0:
        raise UsageError("k must be >= 0")
    return (F ** k).split((X, Y))


# -- projective spaces in the a_ij coordinates ---------------------------------


def a_var(i, j):
    i, j = min(i, j), max(i, j)
    return f"a{i}_{j}"


def _a_ambient(n):
    """Polynomial ambient in a_{1,1} .. a_{1,n} (only first-row symbols occur)."""
    vars_ = tuple(a_var(1, i) for i in range(1, n + 1))
    return vars_, (0,) * len(vars_)


def cpn_in_a(n: int, mode: str = "paper-box"):
    """[CP^n] as a polynomial in the first-row FGL coefficients a_{1,i}.

    ``residue-exact`` computes the degree-n coefficient of
    (1 + sum_i a_{1,i} x^i)^{-1}; ``paper-box`` returns the tabulated
    closed forms for n <= 4 (whose n = 4 entry is NOT the residue-exact
    value; the difference is surfaced by ``cpn_box_diff``).
    """
    if n < 1:
        raise UnsupportedDimension("n must be >= 1")
    ring = RAT
    if mode == "paper-box":
        if n > 4:
            raise UnsupportedDimension("paper-box mode tabulates only n <= 4")
        vars_, weights = _a_ambient(4)

        def e(**kw):
            return tuple(kw.get(v, 0) for v in vars_)

        a1, a2, a3, a4 = (a_var(1, i) for i in range(1, 5))
        table = {
            1: {e(**{a1: 1}): Fraction(-1)},
            2: {e(**{a2: 1}): Fraction(-1), e(**{a1: 2}): Fraction(1)},
            3: {e(**{a3: 1}): Fraction(-1), e(**{a1: 3}): Fraction(-1),
                e(**{a1: 1, a2: 1}): Fraction(2)},
            4: {e(**{a4: 1}): Fraction(-1), e(**{a1: 4}): Fraction(1),
                e(**{a2: 2}): Fraction(1), e(**{a1: 1, a3: 1}): Fraction(2)},
        }
        return MultiSeries(ring, vars_, table[n], None, weights)
    if mode != "residue-exact":
        raise UsageError(f"unknown mode {mode!r}")
    vars_, weights = _a_ambient(n)
    # (1 + sum a_{1,i} s^i)^{-1}, degree-n coefficient in s
    svars = ("#s",) + vars_
    sweights = (1,) + weights
    terms = {(0,) * len(svars): ring.one}
    for i in range(1, n + 1):
        exp = [0] * len(svars)
        exp[0] = i
        exp[svars.index(a_var(1, i))] = 1
        terms[tuple(exp)] = ring.one
    R = MultiSeries(ring, svars, terms, n, sweights).reciprocal()
    return R.coeff_in_var("#s", n).embed(vars_, weights, None)


def cpn_box_diff(n: int):
    """paper-box minus residue-exact, in the shared a-ambient."""
    box = cpn_in_a(n, "paper-box")
    res = cpn_in_a(n, "residue-exact")
    return box - res.embed(box.vars, box.weights, box.bound)


# -- bordism expressions --------------------------------------------------------

DIM8_BASIS = [(4,), (1, 3), (2, 2), (1, 1, 1, 1), (1, 1, 2)]

BUILTINS = {
    "K3SQ": (Fraction(0), Fraction(0), Fraction(256), Fraction(324), Fraction(-576)),
    "N": (Fraction(8), Fraction(-25), Fraction(-12), Fraction(-23), Fraction(52)),
}

# one term: a sign, optional before the first term only; an optional weight
# n or n/d (d >= 1) with an optional '*'; then a built-in, or CPn factors,
# each with an optional ^k (k >= 1), joined by single x's
_POWER = r"(?:\s*\^\s*0*[1-9]\d*)?"
_TERM = re.compile(rf"""\s*(?P<sign>[+-]?)\s*(?:(?P<weight>\d+(?:/0*[1-9]\d*)?)\s*\*?\s*)?
    (?:(?P<builtin>K3SQ|N)|(?P<product>CP\d+{_POWER}(?:\s*x\s*CP\d+{_POWER})*))(?![\w^])\s*""", re.X)
_FACTOR = re.compile(r"CP(\d+)(?:\s*\^\s*(\d+))?")


class BordismExpr:
    """Rational linear combination of products of projective spaces.

    Stored as {sorted dimension tuple: weight}; every summand must have the
    same total complex dimension.
    """

    def __init__(self, terms: dict):
        clean = {}
        dims = set()
        for key, w in terms.items():
            key = tuple(sorted(key))
            w = Fraction(w)
            if w == 0:
                continue
            if any(n < 1 for n in key):
                raise UsageError(f"projective factor of dimension < 1 in {key}")
            dims.add(sum(key))
            clean[key] = clean.get(key, Fraction(0)) + w
        clean = {k: w for k, w in clean.items() if w != 0}
        if len({sum(k) for k in clean}) > 1:
            raise UsageError(f"inhomogeneous bordism expression: dimensions {sorted(dims)}")
        self.terms = clean

    def dimension(self):
        return sum(next(iter(self.terms))) if self.terms else 0

    def __eq__(self, other):
        return isinstance(other, BordismExpr) and self.terms == other.terms

    def __repr__(self):
        return f"BordismExpr({self.terms})"

    @classmethod
    def parse(cls, text: str) -> "BordismExpr":
        """Read ``text``, e.g. ``8*CP4 - 25*CP1xCP3 + 1/4*K3SQ - 23*CP1^4``,
        term by term with ``_TERM``."""
        if not text.strip():
            raise UsageError(f"empty bordism expression {text!r}")
        out, pos = {}, 0
        while pos < len(text):
            m = _TERM.match(text, pos)
            if not m or (pos and not m["sign"]):
                raise UsageError(
                    f"cannot read a term at position {pos} of {text!r}: a term is [sign] "
                    "[n or n/d[*]] then K3SQ, N or CPa[^i]x...xCPb[^j] with i, j >= 1, "
                    "and every term after the first needs its sign")
            pos = m.end()
            c = Fraction(m["weight"] or 1) * (-1 if m["sign"] == "-" else 1)
            if m["builtin"]:
                pieces = zip(DIM8_BASIS, BUILTINS[m["builtin"]])
            else:
                dims = [int(n) for n, k in _FACTOR.findall(m["product"]) for _ in range(int(k or 1))]
                pieces = [(tuple(sorted(dims)), 1)]
            for key, w in pieces:
                out[key] = out.get(key, Fraction(0)) + c * w
        return cls(out)


def miscenko_image(expr: BordismExpr, twisted: MultiSeries, mode="paper-box") -> MultiSeries:
    """Push a bordism expression into the twisted-law coefficient ring.

    Each CP^n maps to its a-polynomial with a_{1,i} replaced by the twisted
    law's coefficient of x y^i; products multiply, weights act linearly.
    """
    table = FGL(twisted).coeff_table()
    ring = twisted.ring
    # the symbol ambient: the twisted law's variables without x and y
    target = MultiSeries.zero(ring, twisted.vars, twisted.bound, twisted.weights).drop_vars((X, Y))

    def aimg(i):
        got = table.get((1, i)) or table.get((i, 1))
        return target if got is None else got.drop_vars((X, Y))

    cache = {}

    def cp(n):
        if n not in cache:
            poly = cpn_in_a(n, mode)
            repl = {a_var(1, i): aimg(i) for i in range(1, (4 if mode == "paper-box" else n) + 1)}
            cache[n] = poly.substitute(repl)
        return cache[n]

    out = target
    for key, w in expr.terms.items():
        piece = cp(key[0]).scale(ring.from_rat(w))
        for n in key[1:]:
            piece = piece * cp(n)
        out = out + piece
    return out
