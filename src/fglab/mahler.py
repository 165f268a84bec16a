"""Numerical polynomials, binomial-basis expansion by finite differences,
the dilation form of the inverse Adams operations, and the 2-adic
Artin-Schreier verification.

A polynomial function on the integers expands uniquely in the Newton basis
C(T, i); the coefficients are the iterated forward differences at 0.  The
dilation matrix D[i][j] (coefficients of C(kT, i) in C(T, j)) coincides with
the inverse Adams matrix in the orientation x = L - 1, and with the
x = 1 - L matrix after conjugation by diag((-1)^i).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .errors import MismatchAt, NotAUnit, NotInDomain, NotNumerical
from .rings import Padic2, padic_from_rat, padic_log
from .series import format_sum


class NumPoly:
    """Finite coefficient vector in the binomial basis C(T, i)."""

    def __init__(self, coeffs):
        if isinstance(coeffs, dict):
            self.coeffs = {i: c for i, c in coeffs.items() if c}
        else:
            self.coeffs = {i: c for i, c in enumerate(coeffs) if c}

    def degree(self):
        return max(self.coeffs, default=-1)

    def __eq__(self, other):
        return isinstance(other, NumPoly) and self.coeffs == other.coeffs

    def __repr__(self):
        return f"NumPoly({self.coeffs})"

    def __str__(self):
        parts = []
        for i in sorted(self.coeffs, reverse=True):
            c = self.coeffs[i]
            basis = f"C(T,{i})" if i > 0 else "1"
            if c == 1 and i > 0:
                parts.append(basis)
            else:
                parts.append(f"{c}*{basis}" if i > 0 else f"{c}")
        return format_sum(parts)

    def eval_at(self, t: int):
        return sum(c * binom(t, i) for i, c in self.coeffs.items()) if self.coeffs else 0

    def is_integral(self):
        return all(isinstance(c, int) or (isinstance(c, Fraction) and c.denominator == 1)
                   for c in self.coeffs.values())

    def to_json_obj(self):
        deg = self.degree()
        return {"coeffs": [str(self.coeffs.get(i, 0)) for i in range(deg + 1)]}


def mahler_expand(values_fn, N: int, integral: bool = False) -> NumPoly:
    """Binomial-basis coefficients a_i = (iterated difference)^i at 0.

    ``values_fn`` supplies exact values at the integers 0..N; a polynomial of
    degree <= N is recovered exactly (the expansion terminates).
    """
    row = [Fraction(values_fn(t)) for t in range(N + 1)]
    coeffs = {}
    for i in range(N + 1):
        if row[0]:
            coeffs[i] = row[0]
        row = [b - a for a, b in zip(row, row[1:])]
    out = NumPoly(coeffs)
    if integral and not out.is_integral():
        bad = {i: c for i, c in out.coeffs.items() if Fraction(c).denominator != 1}
        raise NotNumerical(f"non-integral Mahler coefficients {bad}")
    return out


def dilate(k, i: int) -> NumPoly:
    """C(kT, i) expanded in the C(T, j) basis.

    Integer k of either sign: exact finite differences.  2-adic k: the
    coefficient a_j = sum over the difference formula with C(k m, i)
    evaluated as the integer-valued polynomial at the 2-adic argument,
    truncated at k's working precision.
    """
    if isinstance(k, Padic2):
        if k.value % 2 == 0:
            raise NotAUnit("2-adic dilation needs a unit scale")
        coeffs = {}
        for j in range(0, i + 1):
            # a_j = sum_{m<=j} (-1)^(j-m) C(j,m) C(km, i)
            acc = None
            for m in range(0, j + 1):
                km = k * Padic2(m, k.precision)
                term = _binom_padic(km, i)
                if (j - m) % 2:
                    term = -term
                term = Padic2(term.value * comb(j, m), term.precision)
                acc = term if acc is None else acc + term
            if acc is not None and acc.value:
                coeffs[j] = acc
        return NumPoly(coeffs)
    k = int(k)
    return mahler_expand(lambda t: binom(k * t, i), i)


def binom(n: int, i: int) -> int:
    """C(n, i) = n(n-1)...(n-i+1)/i! for every integer n: (-1)^i C(i-n-1, i) for n < 0."""
    return comb(n, i) if n >= 0 else (-1) ** i * comb(i - n - 1, i)


def _binom_padic(x: Padic2, i: int) -> Padic2:
    """C(x, i) = x(x-1)...(x-i+1)/i! for a 2-adic x (integer-valued polynomial)."""
    num = Padic2(1, x.precision)
    for s in range(i):
        num = num * (x - Padic2(s, x.precision))
    from math import factorial
    return num.div_int(factorial(i))


def dilation_matrix(k, imax: int):
    """Rows i = 0..imax of the dilation; entries integer for integer k."""
    rows = []
    for i in range(imax + 1):
        np_ = dilate(k, i)
        rows.append([np_.coeffs.get(j, 0) for j in range(imax + 1)])
    return rows


def adams_matrix(k: int, imax: int, orientation: str = "1-L"):
    """<psi^k x^j, beta_i> for the chosen orientation of the K-theory generator."""
    from .adams import psi_power_coeff
    rows = []
    for i in range(imax + 1):
        row = []
        for j in range(imax + 1):
            c = psi_power_coeff(k, j, i)
            if orientation == "L-1":
                c = c * (-1) ** (i - j)
            elif orientation != "1-L":
                raise NotInDomain(f"unknown orientation {orientation!r}")
            row.append(c)
        rows.append(row)
    return rows


def dilation_vs_adams(imax: int, k: int = 3) -> dict:
    """Assert D = S A S^{-1} (S = diag((-1)^i)) and D = A' exactly.

    A is the x = 1 - L inverse Adams matrix, A' its L - 1 counterpart, D the
    integer dilation matrix.  Returns the three matrices; raises MismatchAt
    pinpointing the first differing entry otherwise.
    """
    D = dilation_matrix(k, imax)
    A = adams_matrix(k, imax)
    Aprime = adams_matrix(k, imax, orientation="L-1")
    for i in range(imax + 1):
        for j in range(imax + 1):
            conj = A[i][j] * (-1) ** (i - j)
            if D[i][j] != conj:
                raise MismatchAt(i, j, D[i][j], conj)
            if D[i][j] != Aprime[i][j]:
                raise MismatchAt(i, j, D[i][j], Aprime[i][j])
    return {"dilation": D, "adams": A, "adams_dual": Aprime}


def artin_schreier_check(u, precision: int = 48) -> dict:
    """b = -log(u)/log(81) and the defining shift identity.

    Requires u = 1 mod 16 (the Bott-class congruence at v = 1).  Verifies
    -log(u/81)/log(81) = b + 1 at the working precision left after the
    logarithm and the division by log(81) (which has 2-adic valuation 4).
    """
    if isinstance(u, int):
        u = Padic2(u, precision)
    elif isinstance(u, Fraction):
        u = padic_from_rat(u, precision)
    if u.value % 16 != 1:
        raise NotInDomain(f"u must be 1 mod 16, got {u.value % 16}")
    log81 = padic_log(Padic2(81, u.precision))
    logu = padic_log(u)
    v = log81.val2()  # = 4: 81 - 1 = 16 * 5
    unit_inv = log81.shift_down(v).inverse()
    b = -(logu.shift_down(v) * unit_inv)
    log_shift = padic_log(u * Padic2(81, u.precision).inverse())
    lhs = -(log_shift.shift_down(v) * unit_inv)
    rhs = b + Padic2(1, b.precision)
    return {"b": b, "lhs": lhs, "rhs": rhs, "verified": lhs == rhs,
            "precision": min(lhs.precision, rhs.precision)}
