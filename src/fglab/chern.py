"""Chern classes of products of projective spaces, Chern numbers, the SU
constraint system, exact integer/rational linear algebra, and the degree-8
Todd coefficient.

Cohomology of CP^(n1) x ... x CP^(nr) is Z[x1..xr]/(x_i^(n_i+1)); the total
Chern class is expanded once per ordered dims on Python ints, and read as a
MultiSeries over Q in x1..xr, truncated at the complex dimension, or as Chern
numbers.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from math import comb

from .errors import DimensionMismatch, UsageError
from .linalg import Echelon
from .rings import RAT
from .series import MultiSeries, format_product


class ProjProduct:
    """CP^(n1) x ... x CP^(nr).  ``dims`` keeps the given order, which names
    the variables x1..xr of ``total_chern``; equality and hash compare the
    sorted dims, as the product does not depend on the order."""

    def __init__(self, dims):
        dims = tuple(dims)
        if not dims or any(n < 1 for n in dims):
            raise UsageError(f"invalid projective product {dims}")
        self.dims = dims

    @property
    def complex_dim(self):
        return sum(self.dims)

    def label(self):
        parts = []
        for n, mult in sorted(Counter(self.dims).items()):
            parts.append(f"CP{n}" + (f"^{mult}" if mult > 1 else ""))
        return "x".join(parts)

    def __repr__(self):
        return f"ProjProduct{self.dims}"

    def __eq__(self, other):
        return isinstance(other, ProjProduct) and sorted(self.dims) == sorted(other.dims)

    def __hash__(self):
        return hash(tuple(sorted(self.dims)))


def _width(dims):
    """Bits b per variable of the monomial code sum_i e_i << (b*i), with
    2^(b-1) > max(dims): two codes with exponents <= dims add without carry."""
    return max(dims).bit_length() + 1


def _exponents(dims, code):
    b = _width(dims)
    return tuple((code >> (b * i)) & ((1 << b) - 1) for i in range(len(dims)))


@cache
def _expansion(dims):
    """c(CP^n1 x ... x CP^nr) = prod_i (1 + x_i)^(n_i + 1), each factor stopping
    at x_i^(n_i), as {degree: {code: int}}, once per ordered ``dims``; every
    caller shares it and only reads it."""
    b = _width(dims)
    terms = [(0, 0, 1)]
    for i, n in enumerate(dims):
        terms = [(code + (k << (b * i)), deg + k, c * comb(n + 1, k))
                 for code, deg, c in terms for k in range(n + 1)]
    out = {}
    for code, deg, c in terms:
        out.setdefault(deg, {})[code] = c
    return out


def total_chern(p: ProjProduct) -> MultiSeries:
    """c(T(CP^n1 x ...)) = prod_i sum_{k <= n_i} C(n_i + 1, k) x_i^k, over Q in
    x1..xr, truncated at the complex dimension."""
    names = tuple(f"x{i + 1}" for i in range(len(p.dims)))
    terms = {_exponents(p.dims, code): Fraction(c)
             for part in _expansion(p.dims).values() for code, c in part.items()}
    return MultiSeries(RAT, names, terms, p.complex_dim)


def chern_number(p: ProjProduct, monomial) -> int:
    """Evaluate a Chern monomial (partition of indices) on the fundamental class.

    Each product is taken in Z[x1..xr]/(x_i^(n_i+1)), dropping every code with
    an exponent above dims.  The top degree of that ring is spanned by x^dims
    alone, so the number is the sum of what the last product keeps."""
    if sum(monomial) != p.complex_dim:
        raise DimensionMismatch(
            f"monomial {monomial} has degree {sum(monomial)}, manifold has {p.complex_dim}")
    dims = p.dims
    by_degree = _expansion(dims)
    b = _width(dims)
    half = 1 << (b - 1)
    # adding 2^(b-1) - 1 - n_i to field i sets its top bit iff e_i > n_i, again without carry
    bias = sum((half - 1 - n) << (b * i) for i, n in enumerate(dims))
    mask = sum(half << (b * i) for i in range(len(dims)))
    acc = {0: 1}
    for idx in monomial:
        part = by_degree.get(idx, {})
        nxt = {}
        for k1, c1 in acc.items():
            for k2, c2 in part.items():
                k = k1 + k2
                if not (k + bias) & mask:
                    nxt[k] = nxt.get(k, 0) + c1 * c2
        acc = nxt
    return sum(acc.values())


def partitions(dim: int):
    """Partitions of ``dim`` as non-increasing tuples."""
    parts = []

    def rec(rem, mx, cur):
        if rem == 0:
            parts.append(tuple(cur))
            return
        for p in range(min(rem, mx), 0, -1):
            cur.append(p)
            rec(rem - p, p, cur)
            cur.pop()

    rec(dim, dim, [])
    return parts


def chern_monomials_with_c1(dim: int):
    """Partitions of ``dim`` containing a part 1, in the paper's display order.

    Order: c1^dim first, then by decreasing largest part (c1*c3 before
    c1^2*c2 in dimension 4, matching the constraint-system rows).
    """
    keep = [p for p in partitions(dim) if 1 in p]
    keep.sort(key=lambda p: (len([x for x in p if x == 1]) != len(p), -max(p), p))
    # c1^dim (all ones) sorts first, then larger top parts
    return keep


def monomial_label(mono) -> str:
    return format_product((f"c{idx}", mult) for idx, mult in sorted(Counter(mono).items()))


class IntMatrix:
    """Dense arbitrary-precision integer matrix."""

    def __init__(self, rows):
        self.rows = [list(map(int, r)) for r in rows]
        if self.rows:
            w = len(self.rows[0])
            if any(len(r) != w for r in self.rows):
                raise UsageError("ragged matrix")

    @property
    def shape(self):
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.rows == other.rows

    def __repr__(self):
        return f"IntMatrix({self.rows})"


def su_constraint_system(basis, dim) -> IntMatrix:
    """One row per Chern monomial divisible by c1, one column per basis manifold."""
    for p in basis:
        if p.complex_dim != dim:
            raise DimensionMismatch(f"{p} has dimension {p.complex_dim}, expected {dim}")
    rows = []
    for mono in chern_monomials_with_c1(dim):
        rows.append([chern_number(p, mono) for p in basis])
    return IntMatrix(rows)


def integer_reduce(m: IntMatrix) -> IntMatrix:
    """Hermite-style row echelon form over Z (unimodular row operations only).

    Canonical: positive pivots, entries above a pivot reduced into
    [0, pivot); zero rows dropped.  Row space (over Q and over Z) is
    preserved, which is what the golden comparison asserts.
    """
    rows = [r[:] for r in m.rows]
    nrows = len(rows)
    ncols = m.shape[1]
    r = 0
    for c in range(ncols):
        # find pivot: gcd-reduce column c below row r
        while True:
            nz = [i for i in range(r, nrows) if rows[i][c] != 0]
            if not nz:
                break
            if len(nz) == 1:
                i = nz[0]
                rows[r], rows[i] = rows[i], rows[r]
                break
            nz.sort(key=lambda i: abs(rows[i][c]))
            i0 = nz[0]
            for i in nz[1:]:
                q = rows[i][c] // rows[i0][c]
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[i0])]
        if r < nrows and rows[r][c] != 0:
            if rows[r][c] < 0:
                rows[r] = [-a for a in rows[r]]
            piv = rows[r][c]
            for i in range(r):
                q = rows[i][c] // piv
                if q:
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
            r += 1
            if r == nrows:
                break
    out = [row for row in rows[:r] if any(row)]
    return IntMatrix(out)


def rref(rows):
    """Reduced row echelon form over Q; returns (rref_rows, pivot_columns).

    Column c is stored at Echelon index ncols-1-c, so each echelon row's pivot
    is its leading column.  The RREF row at a pivot is the pivot entry plus the
    remainder of the rest of its echelon row, which has no other pivot entry."""
    ncols = len(rows[0]) if rows else 0
    ech = Echelon()
    for r in rows:
        ech.add({ncols - 1 - c: a for c, a in enumerate(map(Fraction, r)) if a})
    pivots = sorted(ncols - 1 - p for p in ech.rows)
    red = []
    for c in pivots:
        p = ncols - 1 - c
        rest, _ = ech.reduce({j: a for j, a in ech.rows[p].items() if j != p})
        rest[p] = Fraction(1)
        red.append([rest.get(ncols - 1 - j, Fraction(0)) for j in range(ncols)])
    return red, pivots


def nullspace_rational(m: IntMatrix):
    """Basis of the rational kernel {v : m v = 0}, from the RREF free columns."""
    if not m.rows:
        raise UsageError("empty matrix")
    ncols = m.shape[1]
    red, pivots = rref(m.rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


def span_test(vectors):
    """Exact membership in the rational span of ``vectors``, from one RREF."""
    red, pivots = rref(vectors)

    def contains(v):
        # the only candidate is the RREF combination with v's own pivot entries
        w = [Fraction(a) for a in v]
        return all(sum(w[pc] * row[c] for row, pc in zip(red, pivots)) == a
                   for c, a in enumerate(w))

    return contains


def in_span(vectors, v):
    """Exact membership of v in the rational span of ``vectors``."""
    return span_test(vectors)(v)


def same_row_space(a_rows, b_rows) -> bool:
    in_a, in_b = span_test(a_rows), span_test(b_rows)
    return all(map(in_b, a_rows)) and all(map(in_a, b_rows))


def todd_t4(c1_4, c1_c3, c1sq_c2, c2_sq, c4) -> Fraction:
    """Degree-8 Todd coefficient (-c4 + c3 c1 + 3 c2^2 + 4 c2 c1^2 - c1^4)/720."""
    return (Fraction(-1) * c4 + Fraction(c1_c3) + 3 * Fraction(c2_sq)
            + 4 * Fraction(c1sq_c2) - Fraction(c1_4)) / 720


def paper_dim8_basis():
    return [ProjProduct(d) for d in [(4,), (1, 3), (2, 2), (1, 1, 1, 1), (1, 1, 2)]]
