"""SU-bordism classes in the twisted law's coefficients: projective spaces
as polynomials in the first-row coefficients a_{1,i}, rational combinations
of their products read from text, and the image of such a combination under
a law's coefficient table.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import NotInDomain, UnsupportedDimension, UsageError
from .fgl import FGL, MAX_TWIST_BOUND, X, Y
from .series import MAX_DIGITS, MultiSeries


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
        return MultiSeries(vars_, table[n], None, weights)
    if mode != "residue-exact":
        raise UsageError(f"unknown mode {mode!r}")
    vars_, weights = _a_ambient(n)
    # (1 + sum a_{1,i} s^i)^{-1}, degree-n coefficient in s
    svars = ("#s",) + vars_
    sweights = (1,) + weights
    terms = {(0,) * len(svars): Fraction(1)}
    for i in range(1, n + 1):
        exp = [0] * len(svars)
        exp[0] = i
        exp[svars.index(a_var(1, i))] = 1
        terms[tuple(exp)] = Fraction(1)
    R = MultiSeries(svars, terms, n, sweights).reciprocal()
    return R.coeff_in_var("#s", n).embed(vars_, weights, None)


def cpn_box_diff(n: int):
    """paper-box minus residue-exact, in the shared a-ambient."""
    box = cpn_in_a(n, "paper-box")
    res = cpn_in_a(n, "residue-exact")
    return box - res.embed(box.vars, box.weights, box.bound)


# -- bordism expressions --------------------------------------------------------

# the built-in classes of dimension 8, keyed like ``BordismExpr.terms`` by
# the sorted dims of each product of projective spaces
BUILTINS = {
    "K3SQ": {(2, 2): 256, (1, 1, 1, 1): 324, (1, 1, 2): -576},
    "N": {(4,): 8, (1, 3): -25, (2, 2): -12, (1, 1, 1, 1): -23, (1, 1, 2): 52},
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
        term by term with ``_TERM``.  A number of more than MAX_DIGITS digits
        is NotInDomain, and a product beyond the twist cap's reach is refused
        before its factors are spelled out."""
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
            if (n := max(map(len, re.findall(r"\d+", m[0])), default=0)) > MAX_DIGITS:
                raise NotInDomain(f"the term at position {pos} has a number of {n} digits, "
                                  f"above the cap of {MAX_DIGITS}")
            pos = m.end()
            c = Fraction(m["weight"] or 1) * (-1 if m["sign"] == "-" else 1)
            if m["builtin"]:
                pieces = BUILTINS[m["builtin"]].items()
            else:
                factors = [(int(n), int(k or 1)) for n, k in _FACTOR.findall(m["product"])]
                # the image needs the twist at bound dim + 2, with dim b-symbols
                if (dim := sum(n * k for n, k in factors)) + 2 > MAX_TWIST_BOUND:
                    raise UnsupportedDimension(
                        f"dimension {dim} needs the twist at bound {dim + 2}, "
                        f"above the twist cap of {MAX_TWIST_BOUND}")
                pieces = [(tuple(sorted(n for n, k in factors for _ in range(k))), 1)]
            for key, w in pieces:
                out[key] = out.get(key, Fraction(0)) + c * w
        return cls(out)


def miscenko_image(expr: BordismExpr, law: FGL, mode="paper-box") -> MultiSeries:
    """Push a bordism expression into the coefficients of ``law``.

    Each CP^n maps to its a-polynomial with a_{1,i} replaced by the law's
    coefficient of x y^i; products multiply, weights act linearly.
    """
    # the symbol ambient: the law's variables without x and y
    target = law.zero.drop_vars((X, Y))
    cache = {}

    def cp(n):
        if n not in cache:
            poly = cpn_in_a(n, mode)
            repl = {a_var(1, i): law.a(1, i).drop_vars((X, Y))
                    for i in range(1, (4 if mode == "paper-box" else n) + 1)}
            cache[n] = poly.substitute(repl)
        return cache[n]

    out = target
    for key, w in expr.terms.items():
        piece = cp(key[0]).scale(w)
        for n in key[1:]:
            piece = piece * cp(n)
        out = out + piece
    return out
