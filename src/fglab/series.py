"""Sparse multivariate power series truncated by weighted total degree.

A :class:`MultiSeries` stores a map from exponent vectors to nonzero
rational coefficients (``Fraction``).  Every variable carries an
integer weight; terms whose weighted total degree exceeds the truncation
bound are pruned on construction, so arithmetic never fabricates terms
beyond the bound.

Variables of weight zero never trigger pruning.  That is how graded
bookkeeping symbols (v, b_i, a_ij, d_k) and ordinary series variables share
one engine: series variables get weight 1, symbols get weight 0 and are
graded externally.
(The data model admits negative weights as well; truncation then only
prunes what provably exceeds the bound.)

Values are immutable; operations allocate fresh results and are
deterministic regardless of evaluation order.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache, lru_cache
from math import gcd, lcm
from operator import add, itemgetter, lshift, mul

from .errors import (
    BoundMismatch,
    DivisionUndefined,
    NonUnitConstantTerm,
    NotStrict,
    VariableMismatch,
)

# the most digits a number read from the command line may have, in a bordism
# expression or in chern todd's inputs: far more than any twist or weight
# needs, and well below the 4300 digits that Python converts between int and str
MAX_DIGITS = 100


# -- the monomial code and the product kernel ----------------------------------
#
# Every sparse product in fglab runs on dicts {code: value}: a monomial's code
# packs its exponents into bit fields of one int (Kronecker's substitution:
# L. Kronecker 1882; D. Harvey, J. Symbolic Comput. 44 (2009)), each as wide as
# the largest exponent the caller can form there, so codes add without carry.


class MonomialCode:
    """Bit fields from bit 0 up, field i wide enough for ``tops[i]``.  A field
    in ``caps``, (field, the largest exponent a product keeps there) pairs,
    has one spare top bit, and ``cap`` = (bias, mask) makes (code + bias) &
    mask nonzero exactly when some capped exponent exceeds its cap."""

    __slots__ = ("shifts", "masks", "cap")

    def __init__(self, tops, caps=()):
        caps = dict(caps)
        self.shifts, self.masks = [], []
        bias = mask = shift = 0
        for i, top in enumerate(tops):
            width = top.bit_length()
            if i in caps:
                width = max(top, caps[i]).bit_length() + 1
                bias += ((1 << width - 1) - 1 - caps[i]) << shift
                mask += 1 << width - 1 + shift
            self.shifts.append(shift)
            self.masks.append((1 << width) - 1)
            shift += width
        self.cap = (bias, mask)

    def encode(self, exps):
        """The code of exponents that fill the first len(exps) fields."""
        return sum(map(lshift, exps, self.shifts))

    def decode(self, code):
        return tuple([code >> s & m for s, m in zip(self.shifts, self.masks)])


_cached_code = lru_cache(maxsize=1024)(MonomialCode)  # for layouts given as tuples, made once each


@cache
def partitions(n, least=1):
    """The partitions of n into parts >= least as non-decreasing tuples, in
    lexicographic order; () is the one partition of 0.  Chern monomials
    (parts >= 1) and d-monomials (parts >= 2) are both these."""
    if n == 0:
        return ((),)
    return tuple((k, *rest) for k in range(least, n + 1) for rest in partitions(n - k, k))


def _addmul(acc, p, q, neg=False, cap=(0, 0)):
    """acc += p*q, or acc -= p*q when ``neg``, on {code: value} dicts; returns
    acc.  A product whose code k has (k + bias) & mask, for a
    ``MonomialCode.cap`` = (bias, mask), is skipped; a sum that vanishes
    leaves acc."""
    bias, mask = cap
    get, pop = acc.get, acc.pop
    for k1, c1 in p.items():
        if neg:
            c1 = -c1
        for k2, c2 in q.items():
            k = k1 + k2
            if (k + bias) & mask:
                continue
            s = get(k)
            s = c1 * c2 if s is None else s + c1 * c2
            if s:
                acc[k] = s
            else:
                pop(k, None)
    return acc


# Exact polynomials over Q on the kernel are pairs (numerators, den): integer
# numerators keyed by code over one positive denominator, in lowest terms, so
# equal polynomials are equal pairs.  Every coefficient fglab exposes is a
# ``Fraction``: ``lift`` puts an operand's coefficients over their common
# denominator for the pair loop, and ``lower`` turns its sums back.


def val2(n: int) -> int:
    """2-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of zero is infinite")
    return (n & -n).bit_length() - 1


def lift(coeffs):
    """(numerators, den): Python ints over one common denominator, the lcm of
    the coefficients'."""
    den = lcm(*(c.denominator for c in coeffs))
    if den == 1:
        return [c.numerator for c in coeffs], 1
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def lower(sums, den):
    """{key: Fraction(sum, den)}; the loop has already dropped the zero sums."""
    if den == 1:
        return {e: Fraction(s) for e, s in sums.items()}
    return {e: Fraction(s, den) for e, s in sums.items()}


def _lowest_terms(nums, den):
    """The pair of numerators over a positive denominator in lowest terms:
    zeros dropped and the common factor divided out, so zero is ({}, 1)."""
    g = gcd(den, *nums.values())
    return {m: v // g for m, v in nums.items() if v}, den // g


def _product(p, q):
    """p * q of two pairs, whose codes leave room for the product's exponents."""
    (pn, pd), (qn, qd) = p, q
    return _lowest_terms(_addmul({}, pn, qn), pd * qd)


def _lincomb(parts):
    """sum c * p over parts = [(c, p)], c an int or Fraction and p a pair, as
    numerators over the lcm of the denominators; zero sums are kept."""
    parts = [(c.numerator, c.denominator * d, nums) for c, (nums, d) in parts]
    den = lcm(*(d for _, d, _ in parts))
    acc = {}
    for n, d, nums in parts:
        s = n * (den // d)
        for m, v in nums.items():
            acc[m] = acc.get(m, 0) + s * v
    return acc, den


@lru_cache(maxsize=256)
def _degree_fn(weights):
    """exponent vector -> weighted degree for one weights tuple, reading only
    the positions of nonzero weight (often a few of dozens of variables)."""
    nonzero = [(i, w) for i, w in enumerate(weights) if w]
    if not nonzero:
        return lambda exp: 0
    if len(nonzero) == 1:
        (i, w), = nonzero
        return lambda exp: exp[i] * w
    pick = itemgetter(*(i for i, _ in nonzero))
    ws = tuple(w for _, w in nonzero)
    if all(w == 1 for w in ws):
        return lambda exp: sum(pick(exp))
    return lambda exp: sum(map(mul, pick(exp), ws))


class MultiSeries:
    __slots__ = ("vars", "weights", "bound", "terms", "_wdeg")

    def __init__(self, varnames, terms=None, bound=None, weights=None):
        self.vars = tuple(varnames)
        if len(set(self.vars)) != len(self.vars):
            raise VariableMismatch(f"duplicate variable in {self.vars}")
        self.weights = tuple(weights) if weights is not None else (1,) * len(self.vars)
        if len(self.weights) != len(self.vars):
            raise VariableMismatch("weights/vars length mismatch")
        self.bound = bound
        self._wdeg = deg = _degree_fn(self.weights)
        clean = {}
        for exp, c in (terms or {}).items():
            exp = tuple(exp)
            if len(exp) != len(self.vars):
                raise VariableMismatch(f"exponent {exp} has wrong arity for {self.vars}")
            if not c:
                continue
            if bound is not None and deg(exp) > bound:
                continue
            clean[exp] = c if type(c) is Fraction else Fraction(c)
        self.terms = clean

    # -- basics --------------------------------------------------------------

    def _check_compat(self, other):
        if self.vars != other.vars or self.weights != other.weights:
            raise VariableMismatch(f"{self.vars} vs {other.vars}")
        if self.bound != other.bound:
            raise BoundMismatch(f"{self.bound} vs {other.bound}")

    def _var_index(self, name):
        try:
            return self.vars.index(name)
        except ValueError:
            raise VariableMismatch(f"no variable {name!r} in {self.vars}") from None

    def _strict(self, var):
        """The index of ``var``, in which self must be strict: no term is free
        of var, and the terms linear in var sum to var; else NotStrict."""
        idx = self._var_index(var)
        low = {e: c for e, c in self.terms.items() if e[idx] < 2}
        if low != {tuple(int(i == idx) for i in range(len(self.vars))): 1}:
            raise NotStrict(f"not strict in {var}: its terms of degree < 2 in {var} are {self._bare(low)}")
        return idx

    def _bare(self, terms):
        out = MultiSeries.__new__(MultiSeries)
        out.vars, out.weights, out.bound = self.vars, self.weights, self.bound
        out._wdeg = self._wdeg
        out.terms = terms
        return out

    @classmethod
    def zero(cls, varnames, bound=None, weights=None):
        return cls(varnames, {}, bound, weights)

    @classmethod
    def constant(cls, varnames, c, bound=None, weights=None):
        vs = tuple(varnames)
        return cls(vs, {(0,) * len(vs): c}, bound, weights)

    @classmethod
    def one(cls, varnames, bound=None, weights=None):
        return cls.constant(varnames, Fraction(1), bound, weights)

    @classmethod
    def var(cls, varnames, name, bound=None, weights=None, power=1):
        vs = tuple(varnames)
        if name not in vs:
            raise VariableMismatch(f"no variable {name!r} in {vs}")
        exp = tuple(power if v == name else 0 for v in vs)
        return cls(vs, {exp: Fraction(1)}, bound, weights)

    def coefficient(self, exp):
        return self.terms.get(tuple(exp), Fraction(0))

    def constant_term(self):
        return self.coefficient((0,) * len(self.vars))

    def is_zero(self):
        return not self.terms

    def min_pos_wdeg_ok(self):
        return all(self._wdeg(e) > 0 for e in self.terms)

    # -- ring operations -------------------------------------------------------

    def __add__(self, other):
        self._check_compat(other)
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            s = terms.get(exp)
            s = c if s is None else s + c
            if s:
                terms[exp] = s
            else:
                terms.pop(exp, None)
        return self._bare(terms)

    def __neg__(self):
        return self._bare({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Truncated product on the kernel, with a field per variable for the
        sum of the operands' largest exponents there and, if the bound can
        be exceeded, a last field for the weighted degree above the least,
        capped at the bound.  The loop runs on Python ints: each operand is
        scaled once by the lcm of its denominators (``lift``)."""
        self._check_compat(other)
        p, q = self.terms, other.terms
        if not (p and q):
            return self._bare({})
        tops = tuple(map(add, map(max, zip(*p)), map(max, zip(*q))))
        n, caps = len(tops), ()
        if self.bound is not None:
            dp, dq = list(map(self._wdeg, p)), list(map(self._wdeg, q))
            lo_p, lo_q = min(dp), min(dq)
            if lo_p + lo_q > self.bound:
                return self._bare({})
            if max(dp) + max(dq) > self.bound:
                caps = ((n, self.bound - lo_p - lo_q),)
                tops += (max(dp) + max(dq) - lo_p - lo_q,)
        code = _cached_code(tops, caps)
        pk, qk = list(map(code.encode, p)), list(map(code.encode, q))
        if caps:
            s = code.shifts[n]
            pk = [k + (d - lo_p << s) for k, d in zip(pk, dp)]
            qk = [k + (d - lo_q << s) for k, d in zip(qk, dq)]
        (pv, ps), (qv, qs) = lift(p.values()), lift(q.values())
        acc = _addmul({}, dict(zip(pk, pv)), dict(zip(qk, qv)), cap=code.cap)
        return self._bare(lower({code.decode(k)[:n]: c for k, c in acc.items()}, ps * qs))

    def scale(self, c):
        if not c:
            return self._bare({})
        return self._bare({e: c * v for e, v in self.terms.items()})

    def __pow__(self, n):
        if n < 0:
            raise DivisionUndefined("negative powers: use reciprocal()")
        acc = MultiSeries.one(self.vars, self.bound, self.weights)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            n >>= 1
            if n:
                base = base * base
        return acc

    # -- series operations -------------------------------------------------------

    def reciprocal(self):
        """Multiplicative inverse up to the truncation bound.

        Writes a = c0 (1 - r) and sums the geometric series in r.  The loop
        terminates because every term of r must carry positive weighted
        degree; apart from the unit constant term this also requires a
        finite bound.
        """
        c0 = self.constant_term()
        if not c0:
            raise NonUnitConstantTerm(f"constant term {c0!r} not invertible")
        c0inv = 1 / Fraction(c0)
        if self.bound is None:
            raise BoundMismatch("reciprocal needs a finite truncation bound")
        one = MultiSeries.one(self.vars, self.bound, self.weights)
        r = one - self.scale(c0inv)
        if not r.min_pos_wdeg_ok():
            raise NonUnitConstantTerm("non-constant weight-zero terms make the inverse infinite")
        out = one
        p = one
        while True:
            p = p * r
            if p.is_zero():
                break
            out = out + p
        return out.scale(c0inv)

    def coeff_in_var(self, var, k):
        """Coefficient of var**k as a series in the remaining ambient (spine zeroed)."""
        idx = self._var_index(var)
        terms = {}
        for exp, c in self.terms.items():
            if exp[idx] == k:
                terms[exp[:idx] + (0,) + exp[idx + 1:]] = c
        return self._bare(terms)

    def embed(self, varnames, weights, bound):
        """The same terms in the ambient (varnames, weights, bound), matching
        variables by name.  A variable the target lacks must not occur."""
        index = {v: j for j, v in enumerate(varnames)}
        terms = {}
        for exp, c in self.terms.items():
            t = [0] * len(index)
            for v, e in zip(self.vars, exp):
                if e:
                    if v not in index:
                        raise VariableMismatch(f"variable {v!r} occurs in {exp}")
                    t[index[v]] = e
            terms[tuple(t)] = c
        return MultiSeries(varnames, terms, bound, weights)

    def substitute(self, replacements: dict):
        """Simultaneous substitution var -> series, all over one target ambient.

        The replacement series fix the target ambient (they must agree among
        themselves); variables of self not being replaced are carried over by
        name.
        """
        if not replacements:
            return self
        target = next(iter(replacements.values()))
        for s in replacements.values():
            target._check_compat(s)
        carry = {}
        for i, v in enumerate(self.vars):
            if v not in replacements:
                carry[i] = target._var_index(v)
        out = MultiSeries.zero(target.vars, target.bound, target.weights)
        pow_cache = {v: [MultiSeries.one(target.vars, target.bound, target.weights)]
                     for v in replacements}
        for exp, c in sorted(self.terms.items()):
            mono = [0] * len(target.vars)
            piece = None
            for i, e in enumerate(exp):
                if e == 0:
                    continue
                v = self.vars[i]
                if v in replacements:
                    cache = pow_cache[v]
                    while len(cache) <= e:
                        cache.append(cache[-1] * replacements[v])
                    piece = cache[e] if piece is None else piece * cache[e]
                else:
                    mono[carry[i]] = e
            if piece is not None and not any(mono):
                out = out + piece.scale(c)  # a constant times piece: no product to form
                continue
            base = MultiSeries(target.vars, {tuple(mono): c}, target.bound, target.weights)
            out = out + (base if piece is None else base * piece)
        return out

    def comp_inverse(self, var):
        """Compositional inverse h with h(g(x)) = x, for strict g.

        ``_strict`` checks g.  Coefficients c_n of h are read off the
        triangular system obtained from x = sum_n c_n g(x)^(n+1): the
        var^(n+1) slice of the partial sum determines c_n (a polynomial in
        any symbol variables).
        """
        self._strict(var)
        if self.bound is None:
            raise BoundMismatch("compositional inverse needs a finite bound")
        n_max = self.bound
        powers = [None, self]
        for _ in range(2, n_max + 1):
            powers.append(powers[-1] * self)
        xvar = MultiSeries.var(self.vars, var, self.bound, self.weights)
        inv = xvar
        acc = self  # running sum over c_i g^(i+1)
        for n in range(1, n_max):
            cn = acc.coeff_in_var(var, n + 1)
            if cn.is_zero():
                continue
            cn = -cn
            spine = MultiSeries.var(self.vars, var, self.bound, self.weights, power=n + 1)
            inv = inv + cn * spine
            acc = acc + cn * powers[n + 1]
        return inv

    # -- equality / display --------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, MultiSeries):
            return NotImplemented
        return (self.vars == other.vars and self.bound == other.bound
                and self.weights == other.weights and self.terms == other.terms)

    def __hash__(self):
        return hash((self.vars, self.bound, frozenset(self.terms)))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: (self._wdeg(t[0]), t[0]))

    def monomial_str(self, exp):
        return format_product((v, e) for v, e in zip(self.vars, exp) if e)

    def __str__(self):
        return format_sum([format_term(c, self.monomial_str(exp))
                           for exp, c in self.sorted_terms()])

    def __repr__(self):
        return f"MultiSeries({self})"


# -- printing -------------------------------------------------------------------
#
# Every polynomial-like value prints as a signed sum of terms c*monomial, in the
# order its sorted_terms() gives.


def format_product(factors, sep="*") -> str:
    """Monomial from (name, exponent) pairs: x*y^2; exponent 1 is left bare."""
    return sep.join(name if e == 1 else f"{name}^{e}" for name, e in factors)


def _multiplicities(name, indices):
    """(name + index, multiplicity) for each distinct index, in increasing order."""
    return [(f"{name}{k}", e) for k, e in sorted(Counter(indices).items())]


def format_multiset(name, indices, sep="*") -> str:
    """A multiset of indices as a monomial: ("c", (2, 1, 1)) is c1^2*c2, and
    ("CP", (1, 2, 1), "x") is CP1^2xCP2; the empty one prints ''."""
    return format_product(_multiplicities(name, indices), sep)


def format_term(c, mono: str) -> str:
    """c*mono, with a unit coefficient folded into the sign; mono '' is 1."""
    cs = str(c)
    if not mono:
        return cs
    if cs == "1":
        return mono
    if cs == "-1":
        return f"-{mono}"
    return f"{cs}*{mono}"


def format_sum(parts) -> str:
    """Join printed terms as a + b - c; the empty sum prints 0."""
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def residue_inverse_coeff(g, var, n):
    """Inverse-series coefficient c_n by the residue formula.

    c_n is the degree-n part of (sum_{i>=0} b_i)^-(n+1) divided by n+1,
    where g = x + b_1 x^2 + ... and b_0 = 1.  Negative exponents never
    appear: the power of the reciprocal series realizes the -(n+1).
    Returns the coefficient as a series in g's non-spine variables (a plain
    constant when g is genuinely univariate); it must equal the var^(n+1)
    slice of ``comp_inverse``.
    """
    idx = g._strict(var)
    if n == 0:
        return MultiSeries.one(g.vars, g.bound, g.weights)
    # B(s) = sum b_i s^i in a slack variable s of weight 1; symbol variables
    # keep weight 0 so the bound n counts pure s-degree, which coincides with
    # the weighted grading |b_i| = i of the residue formula.
    svars = ("#s",) + g.vars
    sweights = (1,) + (0,) * len(g.vars)
    b_terms = {}
    for exp, c in g.terms.items():
        k = exp[idx]
        rest = exp[:idx] + (0,) + exp[idx + 1:]
        b_terms[(k - 1,) + rest] = c
    P = MultiSeries(svars, b_terms, n, sweights).reciprocal() ** (n + 1)
    return P.coeff_in_var("#s", n).embed(g.vars, g.weights, g.bound).scale(Fraction(1, n + 1))
