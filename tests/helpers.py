"""Constructors, views and reference computations that only the tests use."""

from fractions import Fraction
from itertools import compress
from math import comb, gcd, prod

from fglab.adams import (APoly, DPoly, DReducer, _amono_str, _amono_weight, _dpoly,
                         _multiplicative, _psi_minus_id_mod2, code_places, monomial_codes,
                         psi_tensor_apoly)
from fglab.cannibal import ThetaGenSeq, ThetaTable, theta_unit, thom_psi_dk
from fglab.chern import span_test
from fglab.errors import (EvenK, FglabError, IndexOutOfRange, InsufficientTable, NotInDomain,
                          NotReducible, NotStrict, UsageError)
from fglab.fgl import FGL, fgl_twist
from fglab.mahler import NumPoly, Padic2, binom, mahler_expand
from fglab.linalg import Echelon, GF2Echelon
from fglab.series import (MultiSeries, _addmul, _lincomb, _lowest_terms, _product, lift,
                          partitions, val2)

# seed for every randomized property check; recorded here so runs reproduce
RANDOM_SEED = 271828

X, Y, T = "x", "y", "t"


class AxiomViolation(FglabError):
    """``fgl_check`` found a series that breaks a formal group law axiom."""

    def __init__(self, axiom, monomial):
        self.axiom = axiom
        self.monomial = monomial
        super().__init__(f"FGL axiom '{axiom}' fails at monomial {monomial}")


def split(s, names):
    """Group the terms of s by their exponents in the named variables.

    Returns {exponents in ``names``: series of those terms with the named
    variables zeroed}, all in s's ambient.  The parts are not re-truncated,
    so the sum of part * prod(name^e) gives back s.
    """
    idxs = [s._var_index(v) for v in names]
    groups = {}
    for exp, c in s.terms.items():
        rest = list(exp)
        for i in idxs:
            rest[i] = 0
        groups.setdefault(tuple(exp[i] for i in idxs), {})[tuple(rest)] = c
    return {key: s._bare(terms) for key, terms in groups.items()}


def drop_vars(s, names):
    """s without the named variables, which occur with exponent zero in every term."""
    keep = [(v, w) for v, w in zip(s.vars, s.weights) if v not in names]
    return s.embed([v for v, _ in keep], [w for _, w in keep], s.bound)


def specialise(s, values):
    """s with each variable named in ``values`` set to that number, in s's
    ambient without those variables."""
    keep = [k for k, v in enumerate(s.vars) if v not in values]
    at = [(k, values[v]) for k, v in enumerate(s.vars) if v in values]
    terms = {}
    for exp, c in s.terms.items():
        key = tuple(exp[k] for k in keep)
        terms[key] = terms.get(key, 0) + c * prod(x ** exp[k] for k, x in at)
    return MultiSeries([s.vars[k] for k in keep], terms, s.bound, [s.weights[k] for k in keep])


def geometric(varnames, var, bound, weights=None):
    """1/(1-x) = sum x^n up to the bound."""
    x = MultiSeries.var(varnames, var, bound, weights)
    out = MultiSeries.one(varnames, bound, weights)
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
    return MultiSeries(vs, terms, bound, weights)


def log1p_series(varnames, var, bound, weights=None):
    """log(1+x) over Q, truncated."""
    vs = tuple(varnames)
    idx = vs.index(var)
    terms = {}
    for n in range(1, bound + 1):
        terms[tuple(n if i == idx else 0 for i in range(len(vs)))] = Fraction((-1) ** (n + 1), n)
    return MultiSeries(vs, terms, bound, weights)


class NonzeroConstantTerm(FglabError):
    """``compose`` was given an inner series with a nonzero constant term."""


def compose(outer, var, inner):
    """Substitute ``inner`` for ``var`` in ``outer`` by Horner iteration.

    ``inner`` must have zero constant term (composition of formal power
    series); per-step truncation keeps the cost polynomial in the bound
    and the term count.
    """
    if inner.constant_term():
        raise NonzeroConstantTerm("inner series has nonzero constant term")
    layers = split(outer, (var,))
    out = MultiSeries.zero(inner.vars, inner.bound, inner.weights)
    for k in range(max((k for (k,) in layers), default=0), -1, -1):
        out = out * inner
        layer = layers.get((k,))
        if layer is not None:
            out = out + layer.embed(inner.vars, inner.weights, inner.bound)
    return out


def twist_by_substitution(F, g):
    """The twisted law g(F(g^-1(x), g^-1(y))) by direct substitution, the
    reference for ``fgl_twist``: F is bivariate in (x, y), g a strict series
    in t, and the result lives in the union ambient of their variables."""
    bound = F.bound
    unit = tuple(1 if v == T else 0 for v in g.vars)
    if g.coefficient(unit) != 1 or g.constant_term():
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
    xv = MultiSeries.var(vars_, X, bound, weights)
    yv = MultiSeries.var(vars_, Y, bound, weights)
    ginv_x = ginv.substitute({T: xv})
    ginv_y = ginv.substitute({T: yv})
    inner = F.substitute({X: ginv_x, Y: ginv_y})
    return g.substitute({T: inner})


# -- series views and formal group law oracles ---------------------------------


def coeff_of(s, **powers):
    """The coefficient of s at the monomial given by name=exponent."""
    return s.coefficient(tuple(powers.get(v, 0) for v in s.vars))


def degree_part(s, d):
    """The homogeneous component of s of weighted degree d."""
    return s._bare({e: c for e, c in s.terms.items() if s._wdeg(e) == d})


def integrate_strict(s, var):
    """Term-wise integral sum c x^n -> sum c/(n+1) x^(n+1)."""
    idx = s._var_index(var)
    terms = {}
    for exp, c in s.terms.items():
        e = exp[idx]
        terms[exp[:idx] + (e + 1,) + exp[idx + 1:]] = c * Fraction(1, e + 1)
    return MultiSeries(s.vars, terms, s.bound, s.weights)


def multiplicative_law(bound):
    """F_K(x, y) = x + y + v x y over the symbol v."""
    one = Fraction(1)
    terms = {(1, 0, 0): one, (0, 1, 0): one, (1, 1, 1): one}
    return MultiSeries((X, Y, "v"), terms, bound, (1, 1, 0))


def fgl_of(F):
    """The FGL whose parts are F's (i, j) split for i, j >= 1, with x and y
    dropped."""
    return FGL(drop_vars(F._bare({}), (X, Y)),
               {ij: drop_vars(part, (X, Y)) for ij, part in split(F, (X, Y)).items() if min(ij) >= 1})


def law_of(fgl: FGL) -> MultiSeries:
    """The law F(x, y) = x + y + sum a_ij x^i y^j that an FGL keeps as its
    parts, in the ambient (x, y, symbols...): the inverse of ``fgl_of``."""
    zero = fgl.zero
    terms = {(1, 0) + (0,) * len(zero.vars): Fraction(1), (0, 1) + (0,) * len(zero.vars): Fraction(1)}
    for (i, j), part in fgl._parts.items():
        for exp, c in part.terms.items():
            terms[(i, j) + exp] = c
    return MultiSeries((X, Y) + zero.vars, terms, zero.bound, (1, 1) + zero.weights)


def twist_by(g):
    """x + y + vxy twisted by a strict series g in t with rational
    coefficients, as a law in (x, y, v): the universal twist ``fgl_twist``
    at g's bound with each b_i set to [t^(i+1)] g."""
    nb = g.bound - 1
    values = {f"b{i}": g.coeff_in_var(T, i + 1).constant_term() for i in range(1, nb + 1)}
    return specialise(law_of(fgl_twist(g.bound, nb)), values)


def _require_zero(diff: MultiSeries, axiom: str):
    """AxiomViolation(axiom, the first monomial of diff) unless diff is zero."""
    if not diff.is_zero():
        raise AxiomViolation(axiom, diff.monomial_str(diff.sorted_terms()[0][0]) or "1")


def fgl_check(F: MultiSeries) -> FGL:
    """Validate the unit, commutativity and associativity axioms up to the bound.

    Associativity is compared at truncation bound-1: substituting a
    second law eats one order, so monomials at the top bound are not fully
    determined and are excluded from the comparison.
    """
    ix, iy = F._var_index(X), F._var_index(Y)
    for v, other in ((X, Y), (Y, X)):  # F(x, 0) = x, then F(0, y) = y
        _require_zero(F.coeff_in_var(other, 0) - MultiSeries.var(F.vars, v, F.bound, F.weights),
                      "unit")
    # symmetry
    swapped = {}
    for exp, c in F.terms.items():
        e = list(exp)
        e[ix], e[iy] = e[iy], e[ix]
        swapped[tuple(e)] = c
    _require_zero(F - MultiSeries(F.vars, swapped, F.bound, F.weights), "commutativity")
    # associativity, in the ambient (x, y, z, symbols...) one order below the bound
    bound3 = None if F.bound is None else F.bound - 1
    symbols = [(v, w) for v, w in zip(F.vars, F.weights) if v not in (X, Y)]
    F3 = F.embed((X, Y, "z") + tuple(v for v, _ in symbols),
                 (1, 1, 1) + tuple(w for _, w in symbols), bound3)
    xv = MultiSeries.var(F3.vars, "x", bound3, F3.weights)
    yv = MultiSeries.var(F3.vars, "y", bound3, F3.weights)
    zv = MultiSeries.var(F3.vars, "z", bound3, F3.weights)
    Fxy = F3.substitute({"x": xv, "y": yv})
    Fyz = F3.substitute({"x": yv, "y": zv})
    left = F3.substitute({"x": Fxy, "y": zv})
    right = F3.substitute({"x": xv, "y": Fyz})
    _require_zero(left - right, "associativity")
    return fgl_of(F)


def multiplicative_law_at(bound, v):
    """x + y + v x y for a number v, in the ambient (x, y)."""
    return MultiSeries((X, Y), {(1, 0): Fraction(1), (0, 1): Fraction(1), (1, 1): Fraction(v)}, bound)


def additive_law(bound):
    return multiplicative_law_at(bound, 0)


def partial(s, var):
    """The formal partial derivative of the series s with respect to ``var``."""
    idx = s._var_index(var)
    terms = {}
    for exp, c in s.terms.items():
        e = exp[idx]
        if e:
            terms[exp[:idx] + (e - 1,) + exp[idx + 1:]] = c * e
    return MultiSeries(s.vars, terms, s.bound, s.weights)


def fgl_log(F: MultiSeries) -> MultiSeries:
    """Logarithm: the strict series l with l(F(x,y)) = l(x) + l(y).

    Computed from l'(x) = 1/(dF/dy)(x, 0), integrated term-wise.
    """
    dFdy = drop_vars(partial(F, Y).coeff_in_var(Y, 0), (Y,))
    return integrate_strict(dFdy.reciprocal(), X)


def fgl_exp(F: MultiSeries) -> MultiSeries:
    return fgl_log(F).comp_inverse(X)


def fgl_from_genus(P: MultiSeries) -> MultiSeries:
    """FGL of the genus with characteristic series P (constant term 1).

    g^{-1}(x) = x / P(x) and F(x, y) = g^{-1}(g(x) + g(y)).
    """
    if P.constant_term() != 1:
        raise NotStrict("characteristic series must have constant term 1")
    bound = P.bound
    xv = MultiSeries.var(P.vars, X, bound, P.weights)
    ginv = xv * P.reciprocal()
    g = ginv.comp_inverse(X)
    # bivariate ambient
    vars2 = (X, Y) + tuple(v for v in P.vars if v != X)
    weights2 = (1, 1) + tuple(w for v, w in zip(P.vars, P.weights) if v != X)
    gx = g.substitute({X: MultiSeries.var(vars2, X, bound, weights2)})
    gy = g.substitute({X: MultiSeries.var(vars2, Y, bound, weights2)})
    return ginv.substitute({X: gx + gy})


def fgl_binom(F: MultiSeries, k: int) -> dict:
    """FGL binomial coefficients <k; i, j>_F from (x +_F y)^k.

    Returns {(i, j): coefficient-series in the symbol variables}.
    """
    if k < 0:
        raise UsageError("k must be >= 0")
    return split(F ** k, (X, Y))


def in_span(vectors, v):
    """Exact membership of v in the rational span of ``vectors``."""
    return span_test(vectors)(v)


def eval_at(np_: NumPoly, t: int):
    """The value at the integer t of a binomial-basis expansion."""
    return sum(c * binom(t, i) for i, c in np_.coeffs.items()) if np_.coeffs else 0


def padic_from_rat(q: Fraction, precision: int) -> Padic2:
    """Embed a rational with odd denominator into Z_2 at the given precision:
    the reference embedding Q -> Z_2 the scalar checks compare against."""
    if q.denominator % 2 == 0:
        raise NotInDomain(f"denominator of {q} is even; not a 2-adic integer")
    inv = pow(q.denominator, -1, 1 << precision)
    return Padic2(q.numerator * inv, precision)


def truncate(s, bound):
    """The terms of s in the same variables, truncated at ``bound``."""
    return MultiSeries(s.vars, s.terms, bound, s.weights)


def rename(s, mapping):
    """s with its variables renamed by ``mapping`` (name -> new name)."""
    return MultiSeries([mapping.get(v, v) for v in s.vars], s.terms, s.bound, s.weights)


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
    return MultiSeries(("x", "y"), terms, 2 * tab.bound)


def total_chern_by_series(dims):
    """c(CP^n1 x ... x CP^nr) as the product of the factors
    sum_{k <= n_i} C(n_i + 1, k) x_i^k, each a MultiSeries over Q in x1..xr
    truncated at the complex dimension, the reference for ``chern.total_chern``."""
    names = tuple(f"x{i + 1}" for i in range(len(dims)))
    bound = sum(dims)
    out = MultiSeries.one(names, bound)
    for i, n in enumerate(dims):
        factor = {tuple(k if j == i else 0 for j in range(len(names))): Fraction(comb(n + 1, k))
                  for k in range(n + 1)}
        out = out * MultiSeries(names, factor, bound)
    return out


def nonincreasing_partitions(dim):
    """Partitions of ``dim`` as non-increasing tuples, in decreasing order."""
    return sorted((p[::-1] for p in partitions(dim)), reverse=True)


def chern_number_by_series(dims, monomial):
    """The Chern number c_monomial[CP^n1 x ... x CP^nr] as the coefficient at
    x^dims of the product of degree parts of ``total_chern_by_series``, the
    reference for ``chern.chern_number``."""
    tc = total_chern_by_series(dims)
    acc = MultiSeries.one(tc.vars, tc.bound)
    for idx in monomial:
        acc = acc * degree_part(tc, idx)
    return int(acc.coefficient(dims))


def matvec(m, v):
    """The product of a matrix, given by its rows, with a vector, over Q."""
    return [sum(Fraction(a) * Fraction(x) for a, x in zip(row, v)) for row in m]


def poly_add(p, q):
    """The sum of two APolys, or of two DPolys."""
    out = dict(p.terms)
    for m, c in q.terms.items():
        out[m] = out.get(m, 0) + c
    return type(p)(out)


def poly_sub(p, q):
    """The difference of two APolys, or of two DPolys."""
    return poly_add(p, q.scale(-1))


def agen(i, j, c=1):
    """c * a_ij as an APoly, with a_00 = 1 and a_0i = a_i0 = 0."""
    if i == 0 or j == 0:
        return APoly({(0, ()): c} if i == j else {})
    return APoly({(0, (((min(i, j), max(i, j)), 1),)): c})


def dk_as_apoly(k: int, nki: dict) -> APoly:
    """d_k = sum_i n_k^i a_{i,k-i} for the rows ``nki`` = {i: n_k^i}, which
    callers take from their reducer (``DReducer.nki(k)``)."""
    out = {}
    for i, c in nki.items():
        key = (0, (((min(i, k - i), max(i, k - i)), 1),))
        out[key] = out.get(key, 0) + c
    return APoly(out)


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
    f = MultiSeries(names, f_terms, N, weights)
    return (f, *(MultiSeries.var(names, v, N, weights) for v in "xyzu"))


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
        if not poly.terms:
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


# -- reference computations for the Adams operations and cannibalistic classes


def psi3_closed_coeff(j: int, i: int) -> int:
    """Closed form for k = 3: (-1)^(i-j) sum_{s+t=i-j} C(j,s) C(s,t) 3^(j-t)."""
    total = 0
    for s in range(0, i - j + 1):
        t = i - j - s
        if t > s:
            continue
        total += comb(j, s) * comb(s, t) * 3 ** (j - t)
    return (-1) ** (i - j) * total


def theta3_bivariate(N: int) -> ThetaTable:
    """The theta^3 table by bivariate series division, no closed forms
    involved: the reference for ``cannibal.theta3_direct``."""
    vars_ = ("x", "y")
    bound = 2 * N

    def low(var):
        # 3 - 3 t + t^2
        x = MultiSeries.var(vars_, var, bound)
        three = MultiSeries.constant(vars_, Fraction(3), bound)
        return three - x.scale(Fraction(3)) + x * x

    x = MultiSeries.var(vars_, "x", bound)
    y = MultiSeries.var(vars_, "y", bound)
    one = MultiSeries.one(vars_, bound)
    omx = one - x
    omy = one - y
    num = one + omx * omy + (omx * omx) * (omy * omy)
    f = num.scale(Fraction(3)) * low("x").reciprocal() * low("y").reciprocal()
    table = {}
    for (i, j), c in f.terms.items():
        if i <= N and j <= N:
            table[(i, j)] = c
    return ThetaTable(N, table)


def theta_k_virtual(k: int, N: int) -> MultiSeries:
    """Stable class in the dual orientation x' = 1 - L^*:
    k q_k(x' + y' - x'y') / (q_k(x') q_k(y')), q_k(s) = (1 - (1-s)^k)/s,
    by bivariate reciprocals; with ``orientation_transport``, the reference
    for ``cannibal.theta3_direct(N, k)``."""
    if k % 2 == 0:
        raise EvenK("stable normalization requires odd k")
    vars_ = ("x", "y")
    bound = 2 * N

    def qk(series):
        # q_k(s) = (1 - (1-s)^k)/s = sum_{i>=0} (-1)^i C(k, i+1) s^i, degree k-1
        out = MultiSeries.zero(vars_, bound)
        p = MultiSeries.one(vars_, bound)
        for i in range(k):
            if i > 0:
                p = p * series
            out = out + p.scale(Fraction((-1) ** i * comb(k, i + 1)))
        return out

    x = MultiSeries.var(vars_, "x", bound)
    y = MultiSeries.var(vars_, "y", bound)
    s = x + y - x * y
    return qk(s).scale(Fraction(k)) * qk(x).reciprocal() * qk(y).reciprocal()


def orientation_transport(series: MultiSeries, N: int) -> MultiSeries:
    """Substitute x -> -x/(1-x), y -> -y/(1-y) (the L -> L^* change)."""
    vars_ = series.vars
    bound = series.bound

    def inner(var):
        # -t/(1-t) = -(t + t^2 + ...)
        g = geometric(vars_, var, bound)
        t = MultiSeries.var(vars_, var, bound)
        return (g * t).scale(Fraction(-1))

    return series.substitute({"x": inner("x"), "y": inner("y")})


def unit_class(N: int, k: int) -> ThetaTable:
    """theta^k replaced by the unit class for every k: ``thom_psi_dk`` is then psi_B."""
    return theta_unit(N)


def composition_failures(red, k: int, l: int, theta_of) -> list:
    """The n in 2..W, W = ``red.W``, at which psi^k o psi^l d_n != psi^(kl) d_n,
    with ``thom_psi_dk`` at theta^j = ``theta_of(W, j)`` for each index j.
    At ``unit_class`` this is the base level; at ``cannibal.theta3_direct``
    it is the Thom level, where none fails exactly when Bott's cocycle
    identity theta^(kl) = theta^k psi^k(theta^l) holds on these d_n."""
    W = red.W
    theta = {j: theta_of(W, j) for j in (k, l, k * l)}
    table_l = {n: thom_psi_dk(n, theta[l], red, l) for n in range(2, W + 1)}
    return [n for n in range(2, W + 1)
            if _psi_dpoly(thom_psi_dk(n, theta[k], red, k), table_l)
            != thom_psi_dk(n, theta[k * l], red, k * l)]


def _pair(p: DPoly, place) -> tuple:
    """A DPoly as a pair (see ``series._product``) on the codes ``place`` gives its indices."""
    nums, den = lift(p.terms.values())
    return {sum(place[k] for k in m): n for m, n in zip(p.terms, nums)}, den


def dpoly_mul(p, q):
    """The product of two DPolys, one ``_product`` in the codes of the product's weight."""
    W = sum(max(map(sum, t), default=0) for t in (p.terms, q.terms))
    place = code_places(W)
    return _dpoly(_product(_pair(p, place), _pair(q, place)), W)


def dpoly_product_by_series(p, q):
    """The product of two DPolys as the series product of their exponent
    vectors over d_0..d_K, K the largest index: the reference for
    ``dpoly_mul``."""
    K = max((m[-1] for m in (*p.terms, *q.terms) if m), default=0)
    s, t = (MultiSeries(range(K + 1), {tuple(map(m.count, range(K + 1))): c for m, c in f.terms.items()})
            for f in (p, q))
    return DPoly({tuple(k for k, e in enumerate(exps) for _ in range(e)): c
                  for exps, c in (s * t).terms.items()})


def psi_dpoly_by_monomials(p, psi_table):
    """psi on a d-polynomial monomial by monomial, each image the product of
    the table's entries by ``dpoly_product_by_series``: the reference for
    ``_psi_dpoly``, with the same error for a d_k the table lacks."""
    out = DPoly()
    for m, c in p.terms.items():
        acc = DPoly({(): 1})
        for k in m:
            if k not in psi_table:
                raise InsufficientTable(f"psi table lacks d_{k}")
            acc = dpoly_product_by_series(acc, psi_table[k])
        out = poly_add(out, acc.scale(c))
    return out


# -- 2-adic bootstrap lifting: the greedy reference ------------------------------


def rat_val2(q: Fraction) -> int:
    """2-adic valuation of a nonzero rational."""
    return val2(q.numerator) - val2(q.denominator)


def _psi_dpoly(p: DPoly, psi_table: dict) -> DPoly:
    """Apply psi multiplicatively to a d-polynomial via the rational table, in
    the codes of W = max over p's monomials of sum_k max(k, weight of
    psi(d_k)), which hold each monomial and the image of each prefix."""
    weight = {}  # k -> max(k, weight of psi(d_k)) for each d_k that p uses
    for k in (k for m in p.terms for k in m):
        if k not in psi_table:
            raise InsufficientTable(f"psi table lacks d_{k}")
        weight[k] = max(k, *map(sum, psi_table[k].terms))
    W = max((sum(map(weight.get, m)) for m in p.terms), default=0)
    place = code_places(W)
    psi = _multiplicative(W, {0: ({0: 1}, 1), **{place[k]: _pair(psi_table[k], place) for k in weight}},
                          _product)
    return _dpoly(_lincomb([(c, psi(sum(place[k] for k in m))) for m, c in p.terms.items()]), W)


class LiftObstruction(FglabError):
    def __init__(self, stage, msg=""):
        self.stage = stage
        super().__init__(f"bootstrap lift obstructed at stage {stage}" + (f": {msg}" if msg else ""))


def bootstrap_lift(z: DPoly, psi_table: dict, target_precision: int,
                   max_weight=None) -> DPoly:
    """Lift a mod-2 fixed element to one fixed mod 2^target_precision.

    Iteratively corrects: given b_m with (psi - 1) b_m = 0 mod 2^m, solves
    the GF(2) linear system for a correction 2^m c with
    (psi - 1)(b_m + 2^m c) = 0 mod 2^(m+1).  The correction space is the
    span of d-monomials (constants allowed) of halved weight <= max_weight
    (default: the table's full range); an unsolvable stage raises
    LiftObstruction with the stage index.
    """
    if not all(rat_val2(c) >= 1 for c in poly_sub(_psi_dpoly(z, psi_table), z).terms.values()):
        raise LiftObstruction(0, "(psi - 1)z != 0 mod 2")
    # (psi - 1) on the correction space, mod 2, eliminated once
    W = max(psi_table) if max_weight is None else max_weight // 2
    monos, bit, cols = _psi_minus_id_mod2(W, psi_table)
    # column i moves up by n and carries bit i, so the low n bits of a
    # remainder name the columns it sums; only a column independent of the
    # earlier ones is kept
    n = len(monos)
    ech = GF2Echelon()
    for i, col in enumerate(cols):
        rem = ech.reduce(col << n | 1 << i)
        if rem >> n:
            ech.add(rem)
    b = z
    for m_stage in range(1, target_precision):
        defect = poly_sub(_psi_dpoly(b, psi_table), b)
        # defect = 2^m_stage * (unit part); need correction with
        # (psi-1)c = -defect/2^m_stage  mod 2
        resid = []
        for mono, c in defect.terms.items():
            v = rat_val2(c)
            if v < m_stage:
                raise LiftObstruction(m_stage, f"defect valuation {v} at {mono}")
            if v == m_stage:
                resid.append(mono)
        if not resid:
            continue
        combo = ech.reduce(sum(bit.get(m, 0) for m in resid) << n)
        if combo >> n or any(m not in bit for m in resid):
            raise LiftObstruction(m_stage, "correction system unsolvable over GF(2)")
        b = poly_add(b, DPoly({m: Fraction(2) ** m_stage for i, m in enumerate(monos) if combo >> i & 1}))
    return b


def theta3_bilinear(m: int, n: int, tseq: ThetaGenSeq) -> Fraction:
    """Nine-term bilinear form in the t-sequence (the intermediate closed form)."""
    def t(k):
        return tseq[k] if k >= 0 else Fraction(0)
    return (9 * t(m) * t(n) - 9 * t(m - 1) * t(n) - 9 * t(m) * t(n - 1)
            + 3 * t(m - 2) * t(n) + 15 * t(m - 1) * t(n - 1) + 3 * t(m) * t(n - 2)
            - 6 * t(m - 2) * t(n - 1) - 6 * t(m - 1) * t(n - 2) + 3 * t(m - 2) * t(n - 2))


def theta3_one_bundle(var: str, vars_, bound: int) -> MultiSeries:
    """theta^3(1 - L) = 3 (1-x)^2 / (3 - 3x + x^2) in the x = 1 - L orientation
    (from theta(1) = 3, theta(-L) = 1/theta(L) and L^* = (1-x)^{-1})."""
    t = MultiSeries.var(vars_, var, bound)
    one = MultiSeries.one(vars_, bound)
    three = MultiSeries.constant(vars_, Fraction(3), bound)
    omt = one - t
    return (omt * omt).scale(Fraction(3)) * (three - t.scale(Fraction(3)) + t * t).reciprocal()


def theta3_sum_of_two(N: int) -> MultiSeries:
    """theta^3((1-L1) + (1-L2)) = 9 / (theta(L1) theta(L2)), computed through
    geometric expansions of the dual line bundles (independent route)."""
    vars_ = ("x", "y")
    bound = 2 * N

    def theta_L(var):
        # 1 + L^* + (L^*)^2 with L^* = 1/(1 - t) = sum t^n
        dual = geometric(vars_, var, bound)
        return MultiSeries.one(vars_, bound) + dual + dual * dual

    nine = MultiSeries.constant(vars_, Fraction(9), bound)
    return nine * (theta_L("x") * theta_L("y")).reciprocal()


class RelationSolve(DReducer):
    """``DReducer`` from a relation set, solved by substitution one halved
    weight w <= W at a time: the judge of the closed form.

    The unknowns a_{i,w-i} (i <= w/2) appear linearly in each relation of
    weight w, whose other terms are products of lower a's with phi known;
    d_w is one more equation.  phi is memoised as pairs in d, so ``_beta`` is
    the identity on codes and ``DReducer.reduce`` runs unchanged.  A target
    that needs an a_ij left undetermined is NotReducible.  Each equation is
    one exact echelon row (``_solve_weight``), so one that adds no rank in
    the unknowns must leave an empty remainder; if one leaves a
    d-polynomial, the d-monomials are dependent modulo the relations, and
    ``reduce`` raises UsageError.  Each distinct u = 1 equation is solved
    once: a relation and its x <-> z mirror are one polynomial.  ``rels``
    maps monomials (a, b, c) to relations of weight a + b + c, as
    ``gen_2structure_relations`` returns them."""

    def __init__(self, W: int, rels, nki_mode="auto"):
        self.W = W
        self.nki_mode = nki_mode
        self._phi = {(): ({0: 1}, 1)}  # u-free a-monomial -> phi, as a pair in d
        self._beta = lambda code: ({code: 1}, 1)
        self._consistent = True
        # one entry per relation object, in the order of its first key
        listed = {id(poly): (poly, a + b + c) for (a, b, c), poly in rels.items()}
        eqs = {}  # weight -> [u = 1 polynomial]
        for poly, w in dict.fromkeys((poly.set_u(), w) for poly, w in listed.values()):
            eqs.setdefault(w, []).append(poly)
        for w in range(2, W + 1):
            self._solve_weight(w, eqs.get(w, []))

    def _solve_weight(self, w, polys):
        """Set phi(a_{i,w-i}) for each i that the weight-w relations ``polys``
        and the definition of d_w determine.

        Each equation is one echelon row of value 0: the coefficient of
        a_{i,w-i} at column top + i, above every d-monomial code, and the rest
        as a d-polynomial at the codes (the lower terms through phi, or -d_w).
        So the remainder of the unit row at top + i has the value a_{i,w-i},
        and is phi(a_{i,w-i}) if it has no column >= top; a kept row with no
        such column says 0 = a nonzero d-polynomial."""
        top = max(monomial_codes(self.W)) + 1
        rows = []
        for poly in polys:
            lin, parts = {}, []
            try:
                for (_, mono), c in poly.terms.items():
                    if len(mono) == 1 and mono[0][1] == 1 and sum(mono[0][0]) == w:
                        lin[top + mono[0][0][0]] = c
                    else:
                        parts.append((c, self._phi_of(mono)))
            except NotReducible:
                continue  # needs an undetermined lower a_ij: neither solvable nor checkable
            nums, den = _lincomb(parts)  # the row times den, on integers
            rows.append({m: v for m, v in nums.items() if v} | {j: c * den for j, c in lin.items()})
        dw = {code_places(self.W)[w]: -1}  # d_w = sum_i n_w^i a_{i,w-i}
        for i, n in self.nki(w).items():
            dw[top + min(i, w - i)] = dw.get(top + min(i, w - i), 0) + n
        ech = Echelon()
        for row in rows + [{j: c for j, c in dw.items() if c}]:
            rem = ech.add(row)
            if rem and max(rem) < top:
                self._consistent = False
        for i in range(1, w // 2 + 1):
            rem = ech.reduce({top + i: 1})
            if not rem or max(rem) < top:
                nums, den = lift(rem.values())
                self._phi[(((i, w - i), 1),)] = _lowest_terms(dict(zip(rem, nums)), den)

    def _phi_of(self, mono):
        """``DReducer._phi_of``, NotReducible first at the last undetermined generator."""
        for pair, _ in reversed(mono):
            if ((pair, 1),) not in self._phi:
                raise NotReducible(self.W, f"{_amono_str((0, ((pair, 1),)))} is not determined")
        return super()._phi_of(mono)

    def reduce(self, expr: APoly) -> DPoly:
        out = super().reduce(expr)
        if not self._consistent:
            raise UsageError("a relation contradicts the d_k; quotient not polynomial")
        return out


def generator_images(red):
    """phi(a_ij) for each i <= j, i + j <= W, that a ``DReducer`` determines,
    as {(i, j): {d-monomial: Fraction}}, read off its memo and not through
    ``reduce``, so that the tests which compare against these images see a
    fault in ``reduce`` itself.  The closed form memoises A_ij as a pair in
    b, which one ``_lincomb`` over ``red._beta`` maps to d; ``RelationSolve``
    memoises each image in d, and its ``_beta`` is the identity.  A solve
    whose relations contradict the d_k reduces nothing: its determined a_ij
    map to None."""
    out, codes = {}, monomial_codes(red.W)
    for i in range(1, red.W // 2 + 1):
        for j in range(i, red.W + 1 - i):
            img = red._phi.get((((i, j), 1),))
            if img is None:
                continue
            if not getattr(red, "_consistent", True):
                out[i, j] = None
                continue
            nums, den = _lincomb([(v, red._beta(m)) for m, v in img[0].items()])
            out[i, j] = {codes[m]: Fraction(v, den * img[1]) for m, v in nums.items() if v}
    return out


def reduce_by_fractions(red, expr):
    """``DReducer.reduce`` as a loop on Fractions, the reference for its
    integer multiply-add: phi of each a-monomial is the product of the
    phi(a_ij) of its factors, and the same errors are raised in the same
    order (a term above the weight, then an undetermined a_ij, last factor
    first, term by term; then a contradicting relation)."""
    codes = monomial_codes(red.W)
    index = {m: code for code, m in codes.items()}  # products are formed on the codes
    gens = {pair: {index[m]: v for m, v in (img or {}).items()}  # None: UsageError below
            for pair, img in generator_images(red).items()}
    out = {}
    for (_, mono), c in expr.set_u().terms.items():
        if _amono_weight(mono) > red.W:
            raise NotReducible(red.W, f"{_amono_str((0, mono))} exceeds weight {red.W}")
        phi = {0: 1}
        for pair, e in reversed(mono):
            if pair not in gens:
                raise NotReducible(red.W, f"{_amono_str((0, ((pair, 1),)))} is not determined")
            for _ in range(e):
                phi = _addmul({}, phi, gens[pair])
        for m, v in phi.items():
            out[codes[m]] = out.get(codes[m], 0) + c * v
    if not getattr(red, "_consistent", True):
        raise UsageError("a relation contradicts the d_k; quotient not polynomial")
    return DPoly(out)


def thom_psi_dk_by_fractions(k_gen, theta, reducer):
    """``cannibal.thom_psi_dk`` as a sum of Fractions, cell by cell, reduced
    by ``reduce_by_fractions``: the reference for the integer sum."""
    nki = reducer.nki(k_gen)
    if theta.bound < k_gen:
        raise IndexOutOfRange(f"theta table bound {theta.bound} < {k_gen}")
    expr = {}
    for i, cnk in nki.items():
        for m in range(0, i + 1):
            for n in range(0, k_gen - i + 1):
                c = cnk * theta[m, n]
                if not c:
                    continue
                for mono, v in psi_tensor_apoly(i - m, k_gen - i - n).terms.items():
                    expr[mono] = expr.get(mono, 0) + c * v
    return reduce_by_fractions(reducer, APoly(expr))


def psi_on_dk_by_apoly(k_gen, reducer, k_adams=3):
    """The base-level psi^(k^-1) d_k as the APoly sum over n_k^i of
    psi f_*(beta_i (x) beta_{k-i}), reduced: the reference for
    ``cannibal.thom_psi_dk`` at the unit class."""
    expr = APoly()
    for i, c in reducer.nki(k_gen).items():
        expr = poly_add(expr, psi_tensor_apoly(i, k_gen - i, k_adams).scale(c))
    return reducer.reduce(expr)


def bounded_flags():
    """(command, action, flag, least, most) for each flag of cli.COMMANDS that
    has a least or a most value at that action, with {action: value} read at
    it; the action is None for a command that takes none."""
    from fglab.cli import COMMANDS
    out = []
    for command, (_, actions, flags, _) in COMMANDS.items():
        for action in actions.split() or [None]:
            for flag, (readers, low, high, _) in flags.items():
                if readers and action not in readers.split():
                    continue
                low, high = (b.get(action) if isinstance(b, dict) else b for b in (low, high))
                if (low, high) != (None, None):
                    out.append((command, action, flag, low, high))
    return out
