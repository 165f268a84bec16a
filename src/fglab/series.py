"""Sparse multivariate power series truncated by weighted total degree.

A :class:`MultiSeries` stores a map from exponent vectors to nonzero
coefficients in a pluggable coefficient ring.  Every variable carries an
integer weight; terms whose weighted total degree exceeds the truncation
bound are pruned on construction, so arithmetic never fabricates terms
beyond the bound.

Variables of weight zero never trigger pruning.  That is how graded
bookkeeping symbols (v, b_i, a_ij, d_k) and ordinary series variables share
one engine: series variables get weight 1, symbols get weight 0 and are
graded externally through ``degree_part``/``grades_present`` grade maps.
(The data model admits negative weights as well; truncation then only
prunes what provably exceeds the bound.)

Values are immutable; operations allocate fresh results and are
deterministic regardless of evaluation order.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import inf
from operator import add, itemgetter

from .errors import (
    BoundMismatch,
    DivisionUndefined,
    NonUnitConstantTerm,
    NonzeroConstantTerm,
    NotStrict,
    VariableMismatch,
)
from .rings import RAT


class MultiSeries:
    __slots__ = ("ring", "vars", "weights", "bound", "terms")

    def __init__(self, ring, varnames, terms=None, bound=None, weights=None):
        self.ring = ring
        self.vars = tuple(varnames)
        if len(set(self.vars)) != len(self.vars):
            raise VariableMismatch(f"duplicate variable in {self.vars}")
        self.weights = tuple(weights) if weights is not None else (1,) * len(self.vars)
        if len(self.weights) != len(self.vars):
            raise VariableMismatch("weights/vars length mismatch")
        self.bound = bound
        clean = {}
        for exp, c in (terms or {}).items():
            exp = tuple(exp)
            if len(exp) != len(self.vars):
                raise VariableMismatch(f"exponent {exp} has wrong arity for {self.vars}")
            if ring.is_zero(c):
                continue
            if bound is not None and self._wdeg(exp) > bound:
                continue
            clean[exp] = c
        self.terms = clean

    # -- basics --------------------------------------------------------------

    def _wdeg(self, exp):
        return sum(e * w for e, w in zip(exp, self.weights))

    def _check_compat(self, other):
        if self.ring != other.ring:
            raise VariableMismatch(f"coefficient rings differ: {self.ring} vs {other.ring}")
        if self.vars != other.vars or self.weights != other.weights:
            raise VariableMismatch(f"{self.vars} vs {other.vars}")
        if self.bound != other.bound:
            raise BoundMismatch(f"{self.bound} vs {other.bound}")

    def _var_index(self, name):
        try:
            return self.vars.index(name)
        except ValueError:
            raise VariableMismatch(f"no variable {name!r} in {self.vars}") from None

    def _bare(self, terms):
        out = MultiSeries.__new__(MultiSeries)
        out.ring, out.vars, out.weights, out.bound = self.ring, self.vars, self.weights, self.bound
        out.terms = terms
        return out

    @classmethod
    def zero(cls, ring, varnames, bound=None, weights=None):
        return cls(ring, varnames, {}, bound, weights)

    @classmethod
    def constant(cls, ring, varnames, c, bound=None, weights=None):
        vs = tuple(varnames)
        return cls(ring, vs, {(0,) * len(vs): c}, bound, weights)

    @classmethod
    def one(cls, ring, varnames, bound=None, weights=None):
        return cls.constant(ring, varnames, ring.one, bound, weights)

    @classmethod
    def var(cls, ring, varnames, name, bound=None, weights=None, power=1):
        vs = tuple(varnames)
        if name not in vs:
            raise VariableMismatch(f"no variable {name!r} in {vs}")
        exp = tuple(power if v == name else 0 for v in vs)
        return cls(ring, vs, {exp: ring.one}, bound, weights)

    def coefficient(self, exp):
        return self.terms.get(tuple(exp), self.ring.zero)

    def coeff_of(self, **powers):
        exp = tuple(powers.get(v, 0) for v in self.vars)
        return self.coefficient(exp)

    def constant_term(self):
        return self.coefficient((0,) * len(self.vars))

    def is_zero(self):
        return not self.terms

    def min_pos_wdeg_ok(self):
        return all(self._wdeg(e) > 0 for e in self.terms)

    # -- ring operations -------------------------------------------------------

    def __add__(self, other):
        self._check_compat(other)
        ring = self.ring
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            s = terms.get(exp)
            s = c if s is None else s + c
            if ring.is_zero(s):
                terms.pop(exp, None)
            else:
                terms[exp] = s
        return self._bare(terms)

    def __neg__(self):
        return self._bare({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_compat(other)
        ring = self.ring
        bound = self.bound
        left, right = (other, self) if len(self.terms) > len(other.terms) else (self, other)
        wd = self._wdeg
        # Right-hand terms by ascending weighted degree: a left term of degree
        # d1 pairs only with a prefix of them, the ones of degree <= bound - d1.
        by_degree = sorted(((wd(e), e, c) for e, c in right.terms.items()), key=itemgetter(0))
        terms = {}
        for e1, c1 in left.terms.items():
            room = inf if bound is None else bound - wd(e1)
            for d2, e2, c2 in by_degree:
                if d2 > room:
                    break
                exp = tuple(map(add, e1, e2))
                c = c1 * c2
                s = terms.get(exp)
                s = c if s is None else s + c
                if ring.is_zero(s):
                    terms.pop(exp, None)
                else:
                    terms[exp] = s
        return self._bare(terms)

    def scale(self, c):
        ring = self.ring
        if ring.is_zero(c):
            return self._bare({})
        terms = {}
        for e, v in self.terms.items():
            s = c * v
            if not ring.is_zero(s):
                terms[e] = s
        return self._bare(terms)

    def __pow__(self, n):
        if n < 0:
            raise DivisionUndefined("negative powers: use reciprocal()")
        acc = MultiSeries.one(self.ring, self.vars, self.bound, self.weights)
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
        try:
            c0inv = self.ring.invert(c0)
        except DivisionUndefined:
            raise NonUnitConstantTerm(f"constant term {c0!r} not invertible") from None
        if self.bound is None:
            raise NonUnitConstantTerm("reciprocal needs a finite truncation bound")
        one = MultiSeries.one(self.ring, self.vars, self.bound, self.weights)
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

    def split(self, names):
        """Group the terms by their exponents in the named variables.

        Returns {exponents in ``names``: series of those terms with the named
        variables zeroed}, all in self's ambient.  The parts are not
        re-truncated, so the sum of part * prod(name^e) gives back self.
        """
        idxs = [self._var_index(v) for v in names]
        groups = {}
        for exp, c in self.terms.items():
            rest = list(exp)
            for i in idxs:
                rest[i] = 0
            groups.setdefault(tuple(exp[i] for i in idxs), {})[tuple(rest)] = c
        return {key: self._bare(terms) for key, terms in groups.items()}

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
        return MultiSeries(self.ring, varnames, terms, bound, weights)

    def substitute(self, replacements: dict):
        """Simultaneous substitution var -> series, all over one target ambient.

        The replacement series fix the target ambient (they must agree among
        themselves); variables of self not being replaced are carried over by
        name.  Coefficient rings must match.
        """
        if not replacements:
            return self
        target = next(iter(replacements.values()))
        for s in replacements.values():
            target._check_compat(s)
        if self.ring != target.ring:
            raise VariableMismatch("substitute: map coefficients to the target ring first")
        ring = target.ring
        carry = {}
        for i, v in enumerate(self.vars):
            if v not in replacements:
                carry[i] = target._var_index(v)
        out = MultiSeries.zero(ring, target.vars, target.bound, target.weights)
        pow_cache = {v: [MultiSeries.one(ring, target.vars, target.bound, target.weights)]
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
            base = MultiSeries(ring, target.vars, {tuple(mono): c}, target.bound, target.weights)
            out = out + (base if piece is None else base * piece)
        return out

    def compose(self, var, inner):
        """Substitute ``inner`` for ``var`` by Horner iteration.

        ``inner`` must have zero constant term (composition of formal power
        series); per-step truncation keeps the cost polynomial in the bound
        and the term count.
        """
        if not inner.ring.is_zero(inner.constant_term()):
            raise NonzeroConstantTerm("inner series has nonzero constant term")
        layers = self.split((var,))
        out = MultiSeries.zero(inner.ring, inner.vars, inner.bound, inner.weights)
        for k in range(max((k for (k,) in layers), default=0), -1, -1):
            out = out * inner
            layer = layers.get((k,))
            if layer is not None:
                out = out + layer.embed(inner.vars, inner.weights, inner.bound)
        return out

    def comp_inverse(self, var):
        """Compositional inverse h with h(g(x)) = x, for strict g.

        Strictness means zero constant term and coefficient exactly 1 on
        ``var``.  Coefficients c_n of h are read off the triangular system
        obtained from x = sum_n c_n g(x)^(n+1): the var^(n+1) slice of the
        partial sum determines c_n (a polynomial in any symbol variables).
        """
        idx = self._var_index(var)
        if not self.ring.is_zero(self.constant_term()):
            raise NotStrict("nonzero constant term")
        unit = tuple(1 if i == idx else 0 for i in range(len(self.vars)))
        if not (self.coefficient(unit) == self.ring.one):
            raise NotStrict(f"leading coefficient {self.coefficient(unit)!r} != 1")
        if self.bound is None:
            raise NotStrict("compositional inverse needs a finite bound")
        ring = self.ring
        n_max = self.bound
        powers = [None, self]
        for _ in range(2, n_max + 1):
            powers.append(powers[-1] * self)
        xvar = MultiSeries.var(ring, self.vars, var, self.bound, self.weights)
        inv = xvar
        acc = self  # running sum over c_i g^(i+1)
        for n in range(1, n_max):
            cn = acc.coeff_in_var(var, n + 1)
            if cn.is_zero():
                continue
            cn = -cn
            spine = MultiSeries.var(ring, self.vars, var, self.bound, self.weights, power=n + 1)
            inv = inv + cn * spine
            acc = acc + cn * powers[n + 1]
        return inv

    def partial(self, var):
        """Formal partial derivative with respect to ``var``."""
        idx = self._var_index(var)
        ring = self.ring
        terms = {}
        for exp, c in self.terms.items():
            e = exp[idx]
            if e == 0:
                continue
            s = c
            for _ in range(e - 1):
                s = s + c
            if not ring.is_zero(s):
                terms[exp[:idx] + (e - 1,) + exp[idx + 1:]] = s
        return MultiSeries(ring, self.vars, terms, self.bound, self.weights)

    def integrate_strict(self, var):
        """Term-wise integral sum c x^n -> sum c/(n+1) x^(n+1); needs a Q-algebra."""
        idx = self._var_index(var)
        ring = self.ring
        terms = {}
        for exp, c in self.terms.items():
            e = exp[idx]
            try:
                f = ring.invert(ring.from_int(e + 1))
            except DivisionUndefined:
                raise DivisionUndefined(f"1/{e + 1} undefined in {ring}") from None
            terms[exp[:idx] + (e + 1,) + exp[idx + 1:]] = c * f
        return MultiSeries(ring, self.vars, terms, self.bound, self.weights)

    def degree_part(self, d, grades=None):
        """Homogeneous component of weighted degree d.

        ``grades`` (name -> grade) overrides the built-in variable weights,
        which lets weight-0 bookkeeping symbols be graded after the fact.
        """
        if grades is None:
            keep = {e: c for e, c in self.terms.items() if self._wdeg(e) == d}
        else:
            gvec = [grades.get(v, 0) for v in self.vars]
            keep = {e: c for e, c in self.terms.items()
                    if sum(x * g for x, g in zip(e, gvec)) == d}
        return self._bare(keep)

    def grades_present(self, grades):
        gvec = [grades.get(v, 0) for v in self.vars]
        return sorted({sum(x * g for x, g in zip(e, gvec)) for e in self.terms})

    def map_coefficients(self, fn, ring):
        terms = {}
        for e, c in self.terms.items():
            nc = fn(c)
            if not ring.is_zero(nc):
                terms[e] = nc
        return MultiSeries(ring, self.vars, terms, self.bound, self.weights)

    def truncate(self, bound):
        return MultiSeries(self.ring, self.vars, self.terms, bound, self.weights)

    def rename(self, mapping):
        return MultiSeries(self.ring, [mapping.get(v, v) for v in self.vars],
                           self.terms, self.bound, self.weights)

    def drop_vars(self, names):
        """Remove variables that occur with exponent zero in every term."""
        keep = [(v, w) for v, w in zip(self.vars, self.weights) if v not in names]
        return self.embed([v for v, _ in keep], [w for _, w in keep], self.bound)

    # -- equality / display --------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, MultiSeries):
            return NotImplemented
        return (self.vars == other.vars and self.bound == other.bound
                and self.weights == other.weights and self.ring == other.ring
                and self.terms == other.terms)

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

    # -- serialization ---------------------------------------------------------

    def to_json_obj(self):
        obj = {
            "vars": [{"name": v, "weight": w} for v, w in zip(self.vars, self.weights)],
            "bound": self.bound,
            "terms": [],
        }
        for e, c in self.sorted_terms():
            num, den = self.ring.coeff_to_json(c)
            obj["terms"].append({"exp": list(e), "num": num, "den": den})
        if self.ring.name != "rat":
            obj["ring"] = self.ring.name
            if self.ring.name == "padic2":
                obj["precision"] = self.ring.precision
        return obj

    def to_json(self):
        return json.dumps(self.to_json_obj(), sort_keys=True)

    @classmethod
    def from_json_obj(cls, obj, ring=None):
        if ring is None:
            name = obj.get("ring", "rat")
            if name == "rat":
                ring = RAT
            elif name == "gf2":
                from .rings import GF2
                ring = GF2
            elif name == "padic2":
                from .rings import Padic2Ring
                ring = Padic2Ring(obj["precision"])
            else:
                raise VariableMismatch(f"unknown ring {name!r}")
        names = [v["name"] for v in obj["vars"]]
        weights = [v["weight"] for v in obj["vars"]]
        terms = {tuple(t["exp"]): ring.coeff_from_json(t["num"], t["den"])
                 for t in obj["terms"]}
        return cls(ring, names, terms, obj["bound"], weights)

    @classmethod
    def from_json(cls, s, ring=None):
        return cls.from_json_obj(json.loads(s), ring)


# -- printing -------------------------------------------------------------------
#
# Every polynomial-like value prints as a signed sum of terms c*monomial, in the
# order its sorted_terms() gives.


def format_product(factors) -> str:
    """Monomial from (name, exponent) pairs: x*y^2; exponent 1 is left bare."""
    return "*".join(name if e == 1 else f"{name}^{e}" for name, e in factors)


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


# -- module-level operation wrappers (CLI-facing names) -----------------------


def series_arith(a, b, op):
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    raise VariableMismatch(f"unknown op {op!r}")


def series_reciprocal(a):
    return a.reciprocal()


def series_compose(outer, var, inner):
    return outer.compose(var, inner)


def series_comp_inverse(g, var):
    return g.comp_inverse(var)


def residue_inverse_coeff(g, var, n):
    """Inverse-series coefficient c_n by the residue formula.

    c_n is the degree-n part of (sum_{i>=0} b_i)^-(n+1) divided by n+1,
    where g = x + b_1 x^2 + ... and b_0 = 1.  Negative exponents never
    appear: the power of the reciprocal series realizes the -(n+1).
    Returns the coefficient as a series in g's non-spine variables (a plain
    constant when g is genuinely univariate); it must equal the var^(n+1)
    slice of ``series_comp_inverse``.
    """
    idx = g._var_index(var)
    if not g.ring.is_zero(g.constant_term()):
        raise NotStrict("nonzero constant term")
    unit = tuple(1 if i == idx else 0 for i in range(len(g.vars)))
    if not (g.coefficient(unit) == g.ring.one):
        raise NotStrict("leading coefficient != 1")
    ring = g.ring
    try:
        inv_n1 = ring.invert(ring.from_int(n + 1))
    except DivisionUndefined:
        raise DivisionUndefined(f"1/{n + 1} not available in {ring}") from None
    if n == 0:
        return MultiSeries.one(ring, g.vars, g.bound, g.weights)
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
    P = MultiSeries(ring, svars, b_terms, n, sweights).reciprocal() ** (n + 1)
    return P.coeff_in_var("#s", n).embed(g.vars, g.weights, g.bound).scale(inv_n1)


def degree_part(a, d, grades=None):
    return a.degree_part(d, grades)


# -- classical one-variable series --------------------------------------------


def geometric(ring, varnames, var, bound, weights=None):
    """1/(1-x) = sum x^n up to the bound."""
    x = MultiSeries.var(ring, varnames, var, bound, weights)
    out = MultiSeries.one(ring, varnames, bound, weights)
    p = out
    while True:
        p = p * x
        if p.is_zero():
            return out
        out = out + p


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
