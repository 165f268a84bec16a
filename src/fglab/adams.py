"""Adams operations on K-homology.

The pairing matrix, tensor factorization, the d_k generators of K_*BSU,
2-structure relation generation, exact reduction of psi-images to
d-polynomials and mod-2 spherical-class search.

Index conventions.  ``a(i, j)`` denotes f_*(beta_i (x) beta_j), symmetrized
so i <= j; halved weights are used throughout: a_ij has weight i+j, d_k has
weight k (the topological degree is twice that).  The auxiliary symbol u
stands for v^{-1} (halved weight 1); printed forms set u = 1, matching the
source's ungraded displays.  Monomials are ordered graded-lexicographically
(weight first, then the sorted index tuples); reductions and displays are
deterministic in that order.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm

from .errors import (
    InsufficientTable,
    NotReducible,
    UnsupportedK,
    UsageError,
)
from .series import (_addmul, _cached_code, _lincomb, _lowest_terms, _multiplicities, _product,
                     format_multiset, format_product, format_sum, format_term, lift, lower,
                     partitions)


# -- psi on beta ------------------------------------------------------------


def psi_power_coeff(k: int, j: int, i: int) -> int:
    """<psi^k x^j, beta_i> = coefficient of x^i in (1 - (1-x)^k)^j."""
    # (1-(1-x)^k)^j = sum_s C(j,s) (-1)^s (1-x)^(ks); C(ks, i) = 0 for ks < i
    return sum(comb(j, s) * (-1) ** s * comb(k * s, i) * (-1) ** i for s in range(j + 1) if k * s >= i)


class BetaElt:
    """Finitely supported sum over beta_i; index 0 is the unit class."""

    def __init__(self, coeffs: dict):
        self.coeffs = {i: c for i, c in coeffs.items() if c}

    def __eq__(self, other):
        return isinstance(other, BetaElt) and self.coeffs == other.coeffs

    def __repr__(self):
        return f"BetaElt({self.coeffs})"

    def __str__(self):
        def term(i, c):
            if i == 0:
                return str(c)
            if c in (1, -1):
                return f"b{i}" if c == 1 else f"-b{i}"
            return f"{c} b{i}"

        return format_sum([term(i, c) for i, c in sorted(self.coeffs.items())])

    def mod2(self):
        return BetaElt({i: c % 2 for i, c in self.coeffs.items()})


@lru_cache(maxsize=None)
def _psi_row(k, top):
    """<psi^k x^m, beta_top> for m = 0..top."""
    return tuple(psi_power_coeff(k, m, top) for m in range(top + 1))


def psi_inv_beta(k: int, i: int) -> BetaElt:
    """psi^(k^-1) beta_i = sum_j <psi^k x^j, beta_i> beta_j."""
    return BetaElt(dict(enumerate(_psi_row(k, i))))


# -- n_k^i coefficients -------------------------------------------------------

NKI_PAPER = {
    2: {1: 1},
    3: {1: 1},
    4: {1: -1, 2: 1},
    5: {1: 1},
    6: {1: 1, 2: 1, 3: -1},
    7: {1: 1},
    8: {1: 9, 4: -1},
    9: {1: -9, 3: 1},
    10: {1: 1, 2: 11, 5: -2},
}

def nki_coeffs(k: int, mode: str = "paper") -> dict:
    """Integers n_k^i with sum_i n_k^i C(k,i) = gcd{C(k,1..k-1)}.

    ``paper`` returns the fixed table (k <= 10); ``extended-gcd`` runs a
    smallest-index-first extended Euclid, deterministic for every k >= 2;
    ``auto`` is the paper table where it exists with the extended-gcd
    fallback beyond (the default choice of the d_k generators).
    """
    if k < 2:
        raise UsageError("k must be >= 2")
    if mode == "auto":
        mode = "paper" if k in NKI_PAPER else "extended-gcd"
    if mode == "paper":
        if k not in NKI_PAPER:
            raise UnsupportedK(f"paper table covers k <= 10, got {k}")
        return dict(NKI_PAPER[k])
    if mode != "extended-gcd":
        raise UsageError(f"unknown mode {mode!r}")
    # accumulate gcd over C(k,1), C(k,2), ... keeping Bezout coefficients
    coeffs = {}
    g = comb(k, 1)
    coeffs[1] = 1
    for i in range(2, k):
        c = comb(k, i)
        ng, s, t = _ext_gcd(g, c)
        # g*s + c*t = ng
        coeffs = {idx: v * s for idx, v in coeffs.items()}
        if t:
            coeffs[i] = coeffs.get(i, 0) + t
        g = ng
        if g == 1:
            break
    return {i: v for i, v in coeffs.items() if v}


def _ext_gcd(a, b):
    if b == 0:
        return a, 1, 0
    g, s, t = _ext_gcd(b, a % b)
    return g, t, s - (a // b) * t


# -- APoly / DPoly ------------------------------------------------------------
#
# Polynomials in the symmetrized a_ij (and the auxiliary u) are dicts from
# frozen monomials to coefficients; a monomial is a tuple
# (u_exponent, ((i,j), e), ((i,j), e), ...) with (i,j) sorted pairs i <= j.
# DPoly monomials are sorted tuples of generator indices, e.g. (2, 2, 5)
# for d_2^2 d_5.


def _amono_weight(pairs):
    """Halved weight of a u-free a-monomial."""
    return sum((i + j) * e for (i, j), e in pairs)


def _apoly_weight(mono):
    """Halved weight of an APoly monomial (u has weight 1)."""
    return mono[0] + _amono_weight(mono[1])


def _amono_str(mono):
    ue, pairs = mono
    factors = [("u", ue)] if ue else []
    factors += [(f"a{i}{j}" if i < 10 and j < 10 else f"a{i}_{j}", e) for (i, j), e in pairs]
    return format_product(factors)


class _Poly:
    """What APoly and DPoly share: ``terms`` maps monomials to nonzero
    Fractions, and the subclass constructor drops zeros and normalizes."""

    __slots__ = ("terms",)

    def scale(self, c):
        c = c if type(c) is Fraction else Fraction(c)
        return type(self)({m: c * v for m, v in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, type(self)) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class APoly(_Poly):
    """Polynomial in the a_ij (i <= j after symmetrization) and u = v^{-1}.

    a_{0,0} = 1 and a_{0,i} = 0 are applied eagerly by the builders.
    Coefficients are Fractions.
    """

    __slots__ = ()

    def __init__(self, terms=None):
        self.terms = {m: c if type(c) is Fraction else Fraction(c)
                      for m, c in (terms or {}).items() if c}

    def set_u(self):
        """Specialize u to 1, as the printed forms and the reducer do; the
        numerators are summed over one common denominator."""
        nums, den = lift(self.terms.values())
        out = {}
        for (_, pairs), n in zip(self.terms, nums):
            out[0, pairs] = out.get((0, pairs), 0) + n
        return APoly(lower(out, den))

    def content_normalize(self):
        """Scale to coprime integer coefficients with a positive graded-lex lead."""
        if not self.terms:
            return self
        scale = Fraction(lcm(*(c.denominator for c in self.terms.values())),
                         gcd(*(c.numerator for c in self.terms.values())))
        lead = max(self.terms, key=lambda m: (_apoly_weight(m), m))
        if self.terms[lead] < 0:
            scale = -scale
        return self.scale(scale)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: (_apoly_weight(t[0]), t[0]))

    def __str__(self):
        return format_sum([format_term(c, _amono_str(m)) for m, c in self.sorted_terms()])


class DPoly(_Poly):
    """Polynomial in the d_k (k >= 2) with a degree-0 constant allowed.

    Monomials are sorted tuples of indices; coefficients Fractions (base and
    Thom level).  With every denominator odd, ``mod2`` gives the mod-2
    reduction: the monomials of odd coefficient, each with coefficient 1.
    """

    __slots__ = ()

    def __init__(self, terms=None):
        clean = {}
        for m, c in (terms or {}).items():
            m = tuple(sorted(m))
            if m and m[0] < 2:
                raise UsageError(f"d-index < 2 in {m}")
            if c:
                c = c if type(c) is Fraction else Fraction(c)
                s = clean.get(m)
                clean[m] = c if s is None else s + c
        self.terms = {m: c for m, c in clean.items() if c}

    def mod2(self):
        out = {}
        for m, c in self.terms.items():
            if c.denominator % 2 == 0:
                raise UsageError(f"even denominator in {c}; no mod-2 reduction")
            if c.numerator % 2:
                out[m] = Fraction(1)
        return DPoly(out)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]))

    def __str__(self):
        return format_sum([format_term(c, self.monomial_str(m)) for m, c in self.sorted_terms()])

    @staticmethod
    def monomial_str(m) -> str:
        """A d-monomial (sorted index tuple) as d2^2*d5; the empty one prints ''."""
        return format_multiset("d", m)

    def to_json_obj(self):
        return {"terms": [{"mono": dict(_multiplicities("d", m)), "num": str(c.numerator),
                           "den": str(c.denominator)} for m, c in self.sorted_terms()]}


# -- 2-structure relations ------------------------------------------------------


def gen_2structure_relations(N: int) -> dict:
    """Expand the symmetric-cocycle identity and collect coefficient relations.

    The identity f(x, y) f(x +. y, z) = f(x, y +. z) f(y, z) with
    f = 1 + sum a_ij x^i y^j and x +. y = x + y - u x y is read off through
    total degree N in x, y and z.  As f(a, b) = f(b, a) and x +. y = y +. x,
    the right side is the left side with x and z swapped, so only the left
    side L is expanded, in closed form on integers: by
    (x +. y)^i = sum_{p+q+r=i} i!/(p! q! r!) (-u)^r x^(p+r) y^(q+r), L[a,b,c]
    (c >= 1) sums i!/(p! q! r!) (-1)^r u^r a_ic g_kl over k = a-p-r,
    l = b-q-r, where g_00 = 1, g_kl = a_kl for k, l >= 1, and g_k0 = g_0l = 0.
    Every term has halved weight a+b+c.  For every monomial x^a y^b z^c
    (a, b, c >= 1) the relation L[a,b,c] - L[c,b,a] vanishes at a = c;
    otherwise it is built once and listed at both (a, b, c) and (c, b, a): the
    result maps each monomial (a, b, c), in sorted order, to its relation, and
    a mirror pair shares one APoly.  Relations are content-normalized
    (coefficient gcd divided out, graded-lex leading sign positive).
    """
    left = {}  # (a, b, c) -> {(u-power, a-monomial): int}, in sorted order
    for a in range(1, N - 1):
        for b in range(1, N - a):
            shape = {}  # L[a, b, c] for any c: {(r, i, (k, l) or None for g_00): int}
            for r in range(min(a, b) + 1):
                for k in range(a - r + 1):
                    for l in range(1, b - r + 1) if k else (0,):
                        p, q = a - r - k, b - r - l
                        if p + q + r:
                            key = (r, p + q + r, (min(k, l), max(k, l)) if k else None)
                            shape[key] = shape.get(key, 0) + _plus_power_coeff(p, q, r)
            room = N - a - b  # the largest c with a + b + c <= N
            for c in range(1, room + 1):
                terms = left[a, b, c] = {}
                for (r, i, kl), v in shape.items():
                    ic = (i, c) if i <= c else (c, i)
                    mono = (r, ((ic, 1),) if kl is None else ((ic, 2),) if kl == ic
                            else ((ic, 1), (kl, 1)) if ic < kl else ((kl, 1), (ic, 1)))
                    terms[mono] = terms.get(mono, 0) + v
    rels = {}
    for (a, b, c), terms in left.items():
        if a > c and (c, b, a) in rels:
            rels[a, b, c] = rels[c, b, a]
        if a >= c:
            continue  # zero, or built at its mirror
        diff = dict(terms)
        for mono, v in left[c, b, a].items():
            diff[mono] = diff.get(mono, 0) - v
        diff = {mono: v for mono, v in diff.items() if v}
        if diff:  # every term has weight a+b+c, so the graded-lex lead is the largest key
            g = gcd(*diff.values()) if diff[max(diff)] > 0 else -gcd(*diff.values())
            rels[a, b, c] = APoly({mono: v // g for mono, v in diff.items()})
    return rels


def _plus_power_coeff(p, q, r):
    """(-1)^r (p+q+r)!/(p! q! r!), the coefficient of x^(p+r) y^(q+r) in
    (x + y - xy)^(p+q+r)."""
    return (-1) ** r * comb(p + q + r, r) * comb(p + q, p)


def code_places(W: int) -> dict:
    """The code of each generator index 2..W in the kernel's monomial code
    (``series.MonomialCode``) for weight <= W.

    Index k has a field wide enough for W // k, its largest exponent in
    weight <= W, so a monomial's code, the sum of its indices' places, tells
    it apart from every other, and the code of a product of weight <= W is
    the sum of the factors' codes.  The b-monomials of ``coboundary_coeffs``
    and the d-monomials of the closed-form ``DReducer`` share these codes.
    """
    return {k: 1 << s for k, s in enumerate(_code(W).shifts, 2)}


def _code(W):
    return _cached_code(tuple(W // k for k in range(2, W + 1)))


@lru_cache(maxsize=32)
def monomial_codes(W: int) -> dict:
    """Each monomial in generators indexed 2..W, of weight <= W, as a sorted index
    tuple keyed by its code, 0 for the empty one; cached, so no caller may change it."""
    place = code_places(W)
    return {sum(place[k] for k in m): m for m in dmonomials_upto(W)}


def _dpoly(pair, W) -> DPoly:
    """The DPoly of a pair on the codes of ``code_places(W)``."""
    nums, den = pair
    codes = monomial_codes(W)
    return DPoly(lower({codes[m]: v for m, v in nums.items() if v}, den))


def _multiplicative(W, memo, product):
    """The map on the codes of ``code_places(W)``, multiplicative for ``product``, whose
    ``memo`` holds the unit at code 0 and each generator's image at its place: a monomial's
    image, memoised there, is product(image of its prefix, image of its last generator)."""
    code = _code(W)
    lead = [1 << s for s, mask in zip(code.shifts, code.masks) for _ in range(mask.bit_length())]

    def image(m):
        if m not in memo:
            last = lead[m.bit_length() - 1]  # the last generator's field holds the top bit
            memo[m] = product(image(m - last), memo[last])
        return memo[m]

    return image


def coboundary_coeffs(W: int) -> dict:
    """The a_ij of the universal 2-structure at u = 1, as polynomials in b.

    At u = 1 every symmetric 2-cocycle is a coboundary h(x) h(y) / h(x +. y),
    x +. y = x + y - xy, with h = 1 + b_2 t^2 + b_3 t^3 + ... (Lazard; Ando,
    Hopkins and Strickland, Invent. Math. 146 (2001), where 2-structures are
    these cocycles).  A b_1 term would be redundant: the coboundary of
    (1 - t)^c is 1, as 1 - (x +. y) = (1 - x)(1 - y).  So modulo the
    relations, a_ij is A_ij(b) = [x^i y^j] h(x) h(y) (1/h)(x + y - xy).

    Returns {(i, j): {b-monomial code: int}} for 1 <= i <= j, i + j <= W,
    with the codes of ``code_places(W)``.  The part of A_{i,k-i} linear in
    b_k is -C(k, i) b_k; its other terms have lower b-indices.
    """
    h = {0: {0: 1}, **{p: {place: 1} for p, place in code_places(W).items()}}  # h_p = b_p
    # c_n = [t^n] 1/h: c_0 = 1 and c_n = -sum_p b_p c_{n-p}
    inv = [{0: 1}, {}]
    for n in range(2, W + 1):
        cn = {}
        for p in range(2, n + 1):
            _addmul(cn, h[p], inv[n - p], neg=True)
        inv.append(cn)
    # G[a, b] = [x^a y^b] (1/h)(x + y - xy), by
    # [x^a y^b] (x + y - xy)^m = _plus_power_coeff(a - r, b - r, r), m = a + b - r
    G = {}
    for a in range(W + 1):
        for b in range(a, W + 1 - a):
            terms = G[a, b] = G[b, a] = {}
            for r in range(a + 1):
                _addmul(terms, {0: _plus_power_coeff(a - r, b - r, r)}, inv[a + b - r])
    # times h(y), then times h(x)
    Gh = {}
    for a in range(W):
        for j in range(1, W + 1 - a):
            terms = Gh[a, j] = {}
            for q in (0, *range(2, j + 1)):
                _addmul(terms, h[q], G[a, j - q])
    A = {}
    for i in range(1, W // 2 + 1):
        for j in range(i, W + 1 - i):
            terms = A[i, j] = {}
            for p in (0, *range(2, i + 1)):
                _addmul(terms, h[p], Gh[i - p, j])
    return A


# -- reduction to d-polynomials ---------------------------------------------------


def dmonomials_upto(w, include_const=True):
    """The d-monomials of halved weight <= w, by weight and then as tuples."""
    return [m for n in range(0 if include_const else 1, w + 1) for m in partitions(n, 2)]


# Inside DReducer a polynomial in the d_k (and, in the closed form, in the b_k)
# is one of the kernel's pairs (numerators, den) (see ``series._product``),
# keyed by the codes of ``code_places(W)``.


class DReducer:
    """a-polynomials modulo the relation ideal as polynomials in the d_k
    (sec. 4.2.3 of the source).

    Modulo the relations the a_ij generate Q[d_2, ..., d_W], so the reduction
    is a ring map phi: a_ij -> D_ij at u = 1, with d_k = sum_i n_k^i a_{i,k-i}.
    Since Q[a]/I -> Q[d_2, ..., d_W] is an isomorphism, phi depends only on W
    and the n_k^i, and ``DReducer(W, rels=None, nki_mode)`` builds it in
    closed form: a_ij -> A_ij(b), the coefficients of the universal
    coboundary (``coboundary_coeffs``), then b_k -> d-polynomials weight by
    weight.  It needs no relations and no elimination.  The image of each
    a-monomial, the generators a_ij first, is memoised in b as a pair (see
    ``_product``) keyed by the u-free a-monomial, and ``reduce`` applies
    b -> d once to their sum.  With A_{i,k-i} = -C(k, i) b_k +
    R_{i,k-i}(b_2, ..., b_{k-1}), d_k is -gamma_k b_k + sum_i n_k^i
    R_{i,k-i}, where gamma_k = sum_i n_k^i C(k, i) = gcd C(k, 1..k-1) is
    nonzero.  So, for k = 2, ..., W in turn, beta(b_k) = (sum_i n_k^i
    beta(R_{i,k-i}) - d_k) / gamma_k, and phi(a_ij) = beta(A_ij), which
    ``reduce`` forms only for the sum it is given.  beta is
    ``_multiplicative`` on b-monomials, whose codes are the d-monomials', so
    it maps pairs to pairs.

    ``rels``, if given, maps monomials (a, b, c) to relations of weight
    a + b + c, as ``gen_2structure_relations`` returns them; each of weight
    <= W must reduce to 0, or the constructor raises UsageError naming its
    monomial.  A relation listed under several keys is reduced once.

    ``nki_mode`` chooses the n_k^i that define the d_k (see ``nki_coeffs``);
    ``nki`` hands the same choice to every psi on d_k reduced here.
    """

    def __init__(self, W: int, rels=None, nki_mode="auto"):
        self.W = W
        self.nki_mode = nki_mode
        place = code_places(W)
        A = coboundary_coeffs(W)
        beta = {0: ({0: 1}, 1)}  # b-monomial code -> its d-polynomial, as a pair
        self._beta = _multiplicative(W, beta, _product)
        for k in range(2, W + 1):
            bk = place[k]
            dk = {}  # sum_i n_k^i A_{i,k-i}
            for i, n in self.nki(k).items():
                _addmul(dk, {0: n}, A[min(i, k - i), max(i, k - i)])
            gamma = -dk.pop(bk)
            nums, den = _lincomb([(c, self._beta(m)) for m, c in dk.items()] + [(-1, ({bk: 1}, 1))])
            beta[bk] = _lowest_terms(nums, den * gamma)
        # u-free a-monomial -> phi, as a pair in b
        self._phi = {(): ({0: 1}, 1), **{((pair, 1),): (bpoly, 1) for pair, bpoly in A.items()}}
        listed = {}  # one entry per relation object, at its first key
        for abc, poly in (rels or {}).items():
            if sum(abc) <= W:
                listed.setdefault(id(poly), (abc, poly))
        for (a, b, c), poly in listed.values():
            if self.reduce(poly).terms:
                raise UsageError(f"the relation at {format_product([('x', a), ('y', b), ('z', c)])}"
                                 f" does not reduce to 0 in weight {W}")

    def nki(self, k):
        """The n_k^i that define d_k here; d_k above weight W is NotReducible."""
        if k > self.W:
            raise NotReducible(self.W, f"d{k} exceeds weight {self.W}")
        return nki_coeffs(k, self.nki_mode)

    def _phi_of(self, mono):
        """phi of a u-free a-monomial, memoised as phi(prefix) * phi(last generator)."""
        if mono not in self._phi:
            pair, e = mono[-1]
            prefix = mono[:-1] + (((pair, e - 1),) if e > 1 else ())
            self._phi[mono] = _product(self._phi_of(prefix), self._phi[((pair, 1),)])
        return self._phi[mono]

    def reduce(self, expr: APoly) -> DPoly:
        """Rewrite expr (mod the relation ideal) as a polynomial in the d_k.

        The sum of c * phi(m) runs on Python ints: expr's coefficients are
        lifted to numerators over one denominator and summed at u = 1, the
        memoised images in b are combined by ``_lincomb`` and mapped to d by
        one more ``_lincomb`` over beta, and one Fraction is built per output
        term.
        """
        nums, den = lift(expr.terms.values())
        flat = {}  # u = 1
        for (_, mono), n in zip(expr.terms, nums):
            flat[mono] = flat.get(mono, 0) + n
        parts = []
        for mono, n in flat.items():
            if not n:
                continue
            if _amono_weight(mono) > self.W:
                raise NotReducible(self.W, f"{_amono_str((0, mono))} exceeds weight {self.W}")
            parts.append((n, self._phi_of(mono)))
        out, D = _lincomb(parts)
        out, Dd = _lincomb([(v, self._beta(m)) for m, v in out.items() if v])
        return _dpoly((out, D * Dd * den), self.W)


def psi_tensor_apoly(i: int, j: int, k: int = 3) -> APoly:
    """psi^(k^-1) f_*(beta_i (x) beta_j) as an APoly.

    The sum over m <= i, n <= j of <psi^k x^m, beta_i> <psi^k x^n, beta_j>
    a_mn, with a_00 = 1, a_0n = a_m0 = 0 and a_mn = a_nm.
    """
    left, right = _psi_row(k, i), _psi_row(k, j)
    out = {}
    for m, cm in enumerate(left):
        for n, cn in enumerate(right):
            if cm and cn and (m == 0) == (n == 0):
                key = (0, (((min(m, n), max(m, n)), 1),) if m else ())
                out[key] = out.get(key, 0) + cm * cn
    return APoly(out)


# -- spherical classes ----------------------------------------------------------


def spherical_search(max_weight: int, psi_table: dict):
    """Kernel of (psi - id) on GF(2)[d_2, ...] filtered by weight.

    ``max_weight`` is the topological weight (d_k has weight 2k);
    ``psi_table`` maps k -> DPoly for every k <= max_weight/2.
    psi extends multiplicatively to monomials (it is a ring operation).
    Returns (kernel_basis, new_by_weight) where new_by_weight[w] lists
    kernel elements whose top weight is w, constants excluded.  Kernel
    elements are DPolys with unit coefficients.
    """
    if max_weight % 2 != 0:
        raise UsageError("weights are even")
    from .linalg import GF2Echelon
    monos, _, cols = _psi_minus_id_mod2(max_weight // 2, psi_table)
    # column i moves up by n and carries bit i, so the low n bits of a
    # remainder, read as binary digits lowest first, name the columns it sums;
    # one with no higher bit is a dependency on the earlier columns: a kernel element
    n = len(monos)
    ech = GF2Echelon()
    kernel = []
    for i, col in enumerate(cols):
        rem = ech.reduce(col << n | 1 << i)
        if rem >> n:
            ech.add(rem)
        else:
            kernel.append(DPoly({monos[j]: 1 for j, b in enumerate(bin(rem)[:1:-1]) if b == "1"}))
    new_by_weight = {}
    for elt in kernel:
        if any(elt.terms):  # constants excluded
            new_by_weight.setdefault(2 * max(map(sum, elt.terms)), []).append(elt)
    return kernel, new_by_weight


def _psi_minus_id_mod2(W, psi_table):
    """The d-monomials of halved weight <= W (``dmonomials_upto(W)``), the bit
    of each in a mod-2 d-polynomial as a bitset (its place in sorted-tuple
    order), and the images of (psi - id) on them as such bitsets."""
    # mod-2 d-polynomials as {code: 1} dicts on the kernel, in the codes of
    # code_places(W): psi never raises the weight, so no product leaves it
    place, codes = code_places(W), monomial_codes(W)
    memo = {0: {0: 1}}
    for k in range(2, W + 1):
        if k not in psi_table:
            raise InsufficientTable(f"psi table lacks d_{k} (needed up to {W})")
        support = psi_table[k].mod2().terms
        if any(sum(m) > k for m in support):
            raise InsufficientTable(f"psi image of d_{k} has weight above {k}")
        memo[place[k]] = {sum(place[i] for i in m): 1 for m in support}
    psi = _multiplicative(W, memo, lambda p, q: {c: 1 for c, n in _addmul({}, p, q).items() if n % 2})
    bit = {m: 1 << i for i, m in enumerate(sorted(codes.values()))}
    by_code = {c: bit[m] for c, m in codes.items()}
    return list(codes.values()), bit, [sum(map(by_code.get, psi(c))) ^ by_code[c] for c in codes]


def in_gf2_span(candidates, target: DPoly) -> bool:
    """Membership of target in the GF(2) span of candidate d-polynomials."""
    from .linalg import GF2Echelon
    *supports, goal = [p.mod2().terms for p in (*candidates, target)]
    bit = {m: 1 << i for i, m in enumerate(sorted(set().union(*supports, goal)))}
    ech = GF2Echelon()
    for s in supports:
        ech.add(sum(map(bit.get, s)))
    return not ech.reduce(sum(map(bit.get, goal)))
