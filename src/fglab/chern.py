"""Chern classes of products of projective spaces, Chern numbers, the SU
constraint system, exact integer/rational linear algebra, and the degree-8
Todd coefficient.

Cohomology of CP^(n1) x ... x CP^(nr) is Z[x1..xr]/(x_i^(n_i+1)); the total
Chern class is expanded once per ordered dims on Python ints, and read as a
MultiSeries over Q in x1..xr, truncated at the complex dimension, or as Chern
numbers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb

from .errors import DimensionMismatch, UsageError
from .series import MonomialCode, MultiSeries, _addmul, format_multiset, partitions


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
        return format_multiset("CP", self.dims, "x")

    def __repr__(self):
        return f"ProjProduct{self.dims}"

    def __eq__(self, other):
        return isinstance(other, ProjProduct) and sorted(self.dims) == sorted(other.dims)

    def __hash__(self):
        return hash(tuple(sorted(self.dims)))


@cache
def _code(dims):
    """The monomial code of x1..xr in Z[x1..xr]/(x_i^(n_i+1)): field i has
    room for 2 n_i, the exponent of a product of two reduced terms, and is
    capped at n_i."""
    return MonomialCode([2 * n for n in dims], enumerate(dims))


@cache
def _expansion(dims):
    """c(CP^n1 x ... x CP^nr) = prod_i (1 + x_i)^(n_i + 1), each factor stopping
    at x_i^(n_i), as {degree: {code: int}}, once per ordered ``dims``; every
    caller shares it and only reads it."""
    code = _code(dims)
    acc = {0: 1}
    for n, s in zip(dims, code.shifts):
        acc = _addmul({}, acc, {k << s: comb(n + 1, k) for k in range(n + 1)})
    out = {}
    for k, c in acc.items():
        out.setdefault(sum(code.decode(k)), {})[k] = c
    return out


def total_chern(p: ProjProduct) -> MultiSeries:
    """c(T(CP^n1 x ...)) = prod_i sum_{k <= n_i} C(n_i + 1, k) x_i^k, over Q in
    x1..xr, truncated at the complex dimension."""
    names = tuple(f"x{i + 1}" for i in range(len(p.dims)))
    dec = _code(p.dims).decode
    terms = {dec(k): Fraction(c) for part in _expansion(p.dims).values() for k, c in part.items()}
    return MultiSeries(names, terms, p.complex_dim)


def chern_number(p: ProjProduct, monomial) -> int:
    """Evaluate a Chern monomial (partition of indices) on the fundamental class.

    Each product is taken in Z[x1..xr]/(x_i^(n_i+1)): the code's cap drops
    every term with an exponent above dims.  The top degree of that ring is
    spanned by x^dims alone, so the number is the sum of what the last
    product keeps."""
    if sum(monomial) != p.complex_dim:
        raise DimensionMismatch(
            f"monomial {monomial} has degree {sum(monomial)}, manifold has {p.complex_dim}")
    by_degree, cap = _expansion(p.dims), _code(p.dims).cap
    acc = {0: 1}
    for idx in monomial:
        acc = _addmul({}, acc, by_degree.get(idx, {}), cap=cap)
    return sum(acc.values())


def chern_monomials_with_c1(dim: int):
    """Partitions of ``dim`` containing a part 1, in the paper's display order.

    Order: c1^dim first, then by decreasing largest part (c1*c3 before
    c1^2*c2 in dimension 4, matching the constraint-system rows).
    """
    keep = [p[::-1] for p in partitions(dim) if 1 in p]
    keep.sort(key=lambda p: (len([x for x in p if x == 1]) != len(p), -max(p), p))
    # c1^dim (all ones) sorts first, then larger top parts
    return keep


def monomial_label(mono) -> str:
    return format_multiset("c", mono)


def su_constraint_system(basis, dim) -> list:
    """One int row per Chern monomial divisible by c1, one column per basis manifold."""
    for p in basis:
        if p.complex_dim != dim:
            raise DimensionMismatch(f"{p} has dimension {p.complex_dim}, expected {dim}")
    return [[chern_number(p, mono) for p in basis] for mono in chern_monomials_with_c1(dim)]


def integer_reduce(m: list) -> list:
    """Hermite-style row echelon form over Z (unimodular row operations only).

    Canonical: positive pivots, entries above a pivot reduced into
    [0, pivot); zero rows dropped.  Row space (over Q and over Z) is
    preserved, which is what the golden comparison asserts.
    """
    rows = [r[:] for r in m]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
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
    return [row for row in rows[:r] if any(row)]


def rref(rows):
    """Reduced row echelon form over Q; returns (rref_rows, pivot_columns).

    Column c is stored at Echelon index ncols-1-c, so each echelon row's pivot
    is its leading column.  The RREF row at a pivot is the pivot entry plus the
    remainder of the rest of its echelon row, which has no other pivot entry."""
    from .linalg import Echelon
    ncols = len(rows[0]) if rows else 0
    ech = Echelon()
    for r in rows:
        ech.add({ncols - 1 - c: a for c, a in enumerate(r) if a})
    pivots, red = [], []
    for p, nums, den in reversed(ech.rows):  # pivots descending, so columns ascending
        rest = ech.reduce({j: Fraction(a, den) for j, a in nums.items() if j != p})
        rest[p] = Fraction(1)
        pivots.append(ncols - 1 - p)
        red.append([rest.get(ncols - 1 - j, Fraction(0)) for j in range(ncols)])
    return red, pivots


def nullspace_rational(m: list):
    """Basis of the rational kernel {v : m v = 0} of the rows m, from the RREF
    free columns."""
    if not m:
        raise UsageError("empty matrix")
    ncols = len(m[0])
    red, pivots = rref(m)
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
    """Exact membership in the rational span of ``vectors``: one echelon of
    them, then any number of tests, each an empty remainder."""
    from .linalg import Echelon

    def sparse(v):
        return {c: a for c, a in enumerate(v) if a}

    ech = Echelon()
    for v in vectors:
        ech.add(sparse(v))
    return lambda v: not ech.reduce(sparse(v))


def same_row_space(a_rows, b_rows) -> bool:
    in_a, in_b = span_test(a_rows), span_test(b_rows)
    return all(map(in_b, a_rows)) and all(map(in_a, b_rows))


def todd_t4(c1_4, c1_c3, c1sq_c2, c2_sq, c4) -> Fraction:
    """Degree-8 Todd coefficient (-c4 + c3 c1 + 3 c2^2 + 4 c2 c1^2 - c1^4)/720."""
    return (Fraction(-1) * c4 + Fraction(c1_c3) + 3 * Fraction(c2_sq)
            + 4 * Fraction(c1sq_c2) - Fraction(c1_4)) / 720


def paper_dim8_basis():
    return [ProjProduct(d) for d in [(4,), (1, 3), (2, 2), (1, 1, 1, 1), (1, 1, 2)]]
