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

from .errors import AxiomViolation, NotStrict, UnsupportedDimension, UsageError
from .rings import RAT
from .series import MultiSeries

X, Y, T = "x", "y", "t"


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
    if not ring.is_zero(F.constant_term()):
        raise AxiomViolation("unit", "1")
    ix, iy = F._var_index(X), F._var_index(Y)
    # F(x, 0) = x
    fx0 = F.coeff_in_var(Y, 0)
    xvar = MultiSeries.var(ring, F.vars, X, F.bound, F.weights)
    diff = fx0 - xvar
    if not diff.is_zero():
        exp, _ = diff.sorted_terms()[0]
        raise AxiomViolation("unit", diff.monomial_str(exp) or "1")
    f0y = F.coeff_in_var(X, 0)
    yvar = MultiSeries.var(ring, F.vars, Y, F.bound, F.weights)
    diff = f0y - yvar
    if not diff.is_zero():
        exp, _ = diff.sorted_terms()[0]
        raise AxiomViolation("unit", diff.monomial_str(exp) or "1")
    # symmetry
    swapped = {}
    for exp, c in F.terms.items():
        e = list(exp)
        e[ix], e[iy] = e[iy], e[ix]
        swapped[tuple(e)] = c
    diff = F - MultiSeries(ring, F.vars, swapped, F.bound, F.weights)
    if not diff.is_zero():
        exp, _ = diff.sorted_terms()[0]
        raise AxiomViolation("commutativity", diff.monomial_str(exp))
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
    diff = left - right
    if not diff.is_zero():
        exp, _ = diff.sorted_terms()[0]
        raise AxiomViolation("associativity", diff.monomial_str(exp))
    return FGL(F)


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
    """Twist: gF(x, y) = g(F(g^{-1}(x), g^{-1}(y))).

    F is bivariate in (x, y); g is a strict series in t whose other
    variables (symbols) are shared with the target ambient.  The result
    lives in the union ambient of F's and g's variables.
    """
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

_TOKEN = re.compile(r"\s*(CP\d+|[+-]|\d+/\d+|\d+|x|[A-Z][A-Z0-9]*|\^|\*)\s*")


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
        """Grammar: terms like ``8*CP4 - 25*CP1xCP3 + 1/4*K3SQ - 23*CP1^4``."""
        pos = 0
        out = {}
        sign = 1
        coeff = None
        factors = []
        expect_factor = False

        def flush():
            nonlocal coeff, factors, sign, out, expect_factor
            if coeff is None and not factors:
                return
            if expect_factor or not factors:
                raise UsageError(f"dangling operator or bare coefficient in {text!r}")
            if len(factors) > 1 and any(isinstance(f, str) for f in factors):
                raise UsageError(f"a built-in cannot appear in a product ({text!r})")
            c = Fraction(sign) * (coeff if coeff is not None else Fraction(1))
            if len(factors) == 1 and isinstance(factors[0], str):
                name = factors[0]
                vec = BUILTINS[name]
                for key, w in zip(DIM8_BASIS, vec):
                    if w:
                        out[key] = out.get(key, Fraction(0)) + c * w
            else:
                dims = []
                for f in factors:
                    dims.extend(f)
                key = tuple(sorted(dims))
                out[key] = out.get(key, Fraction(0)) + c
            coeff, factors, sign = None, [], 1

        tokens = []
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m:
                raise UsageError(f"cannot tokenize {text!r} at position {pos}")
            tokens.append(m.group(1))
            pos = m.end()
        if not tokens:
            raise UsageError("empty bordism expression")
        if tokens[-1] in "+-":
            raise UsageError(f"trailing operator {tokens[-1]!r} in {text!r}")
        i = 0
        while i < len(tokens):
            t = tokens[i]
            if t in "+-":
                flush()
                sign = 1 if t == "+" else -1
            elif re.fullmatch(r"\d+/\d+|\d+", t):
                if coeff is not None or factors:
                    raise UsageError(f"unexpected number {t} in {text!r}")
                try:
                    coeff = Fraction(t)
                except ZeroDivisionError:
                    raise UsageError(f"zero denominator in {t} ({text!r})") from None
                if i + 1 < len(tokens) and tokens[i + 1] == "*":
                    i += 1
            elif t == "x":
                if not factors:
                    raise UsageError(f"stray 'x' in {text!r}")
                expect_factor = True
            elif t.startswith("CP"):
                if factors and not expect_factor:
                    raise UsageError(f"missing 'x' before {t} in {text!r}")
                n = int(t[2:])
                power = 1
                if i + 2 < len(tokens) and tokens[i + 1] == "^":
                    if not tokens[i + 2].isdigit() or int(tokens[i + 2]) < 1:
                        raise UsageError(f"exponent of {t} must be a whole number >= 1 in {text!r}")
                    power = int(tokens[i + 2])
                    i += 2
                factors.append((n,) * power)
                expect_factor = False
            elif t in BUILTINS:
                if factors:
                    raise UsageError(f"built-in {t} cannot appear in a product ({text!r})")
                factors.append(t)
                expect_factor = False
            elif t in ("*", "^"):
                raise UsageError(f"misplaced {t!r} in {text!r}")
            else:
                raise UsageError(f"unknown name {t!r} in {text!r}")
            i += 1
        flush()
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
        piece = MultiSeries.constant(ring, target.vars, ring.from_rat(w),
                                     target.bound, target.weights)
        for n in key:
            piece = piece * cp(n)
        out = out + piece
    return out
