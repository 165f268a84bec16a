"""Numerical polynomials, binomial-basis expansion by finite differences,
the dilation form of the inverse Adams operations, and the 2-adic
Artin-Schreier verification.

A polynomial function on the integers expands uniquely in the Newton basis
C(T, i); the coefficients are the iterated forward differences at 0.  The
dilation matrix D[i][j] (coefficients of C(kT, i) in C(T, j)) coincides with
the inverse Adams matrix in the orientation x = L - 1, and with the
x = 1 - L matrix after conjugation by diag((-1)^i).

The 2-adic work runs on ``Padic2``, a truncated 2-adic integer, and its
logarithm ``padic_log``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .errors import MismatchAt, NotAUnit, NotInDomain, PrecisionTooLow
from .series import format_sum, val2


class Padic2:
    """Truncated 2-adic integer: a residue known modulo 2**precision.

    Arithmetic carries the minimum precision of the operands, so precision
    loss is explicit in the result rather than silent.
    """

    __slots__ = ("value", "precision")

    def __init__(self, value: int, precision: int):
        if precision < 1:
            raise PrecisionTooLow(f"precision must be >= 1, got {precision}")
        self.precision = precision
        self.value = value % (1 << precision)

    # -- arithmetic --------------------------------------------------------

    def _join(self, other) -> int:
        return min(self.precision, other.precision)

    def __add__(self, other):
        p = self._join(other)
        return Padic2(self.value + other.value, p)

    def __sub__(self, other):
        p = self._join(other)
        return Padic2(self.value - other.value, p)

    def __neg__(self):
        return Padic2(-self.value, self.precision)

    def __mul__(self, other):
        p = self._join(other)
        return Padic2(self.value * other.value, p)

    def inverse(self) -> "Padic2":
        if self.value % 2 == 0:
            raise NotAUnit(f"{self.value} is even, not a 2-adic unit")
        return Padic2(pow(self.value, -1, 1 << self.precision), self.precision)

    def shift_down(self, s: int) -> "Padic2":
        """Exact division by 2**s; costs s bits of precision."""
        if s == 0:
            return self
        if self.precision - s < 1:
            raise PrecisionTooLow(f"cannot divide by 2^{s} at precision {self.precision}")
        if self.value % (1 << s) != 0:
            raise NotInDomain(f"{self.value} is not divisible by 2^{s}")
        return Padic2(self.value >> s, self.precision - s)

    def div_int(self, n: int) -> "Padic2":
        """Exact division by a nonzero integer, shifting out its 2-part."""
        s = val2(n)
        odd = n >> s
        if odd < 0:
            odd = -odd
            res = -self
        else:
            res = self
        res = res.shift_down(s)
        return Padic2(res.value * pow(odd, -1, 1 << res.precision), res.precision)

    # -- structure ---------------------------------------------------------

    def val2(self):
        """2-adic valuation; ``None`` when the residue is 0 (val >= precision)."""
        if self.value == 0:
            return None
        return val2(self.value)

    def __eq__(self, other):
        if not isinstance(other, Padic2):
            return NotImplemented
        p = self._join(other)
        return (self.value - other.value) % (1 << p) == 0

    def __hash__(self):
        # Equality is congruence modulo the smaller precision, which is always
        # >= 1, so equal residues share their parity.  Nothing finer works:
        # x == Padic2(x.value & 1, 1) for every x.
        return hash(("Padic2", self.value & 1))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"Padic2({self.value} mod 2^{self.precision})"


def padic_log(u: Padic2) -> Padic2:
    """2-adic logarithm log(u) = sum_{n>=1} (-1)^(n+1) (u-1)^n / n.

    Requires u = 1 mod 4 so that val(u-1) >= 2 and the series converges with
    strictly increasing term valuations.  Terms are summed until the next
    term vanishes at the working precision (an exact stopping rule: term n
    has valuation >= 2n - val2(n)).  Dividing by n costs val2(n) bits, so
    the result precision is the input precision minus max_n val2(n) over the
    summed range, a documented, computed loss bound.
    """
    prec = u.precision
    if prec < 4:
        raise PrecisionTooLow(f"padic_log needs precision >= 4, got {prec}")
    if (u.value - 1) % 4 != 0:
        raise NotInDomain(f"padic_log requires u = 1 mod 4, got {u.value % 4} mod 4")

    mod = 1 << prec
    x = (u.value - 1) % mod
    # number of terms: term valuation >= 2n - log2(n) >= prec stops the sum
    n = 1
    loss = 0
    while 2 * n - (n.bit_length() - 1) < prec:
        n += 1
        loss = max(loss, val2(n))
    nmax = n
    out_prec = prec - loss
    acc = 0  # accumulate numerators of x^n/n at full precision, sign included
    xn = 1
    for n in range(1, nmax + 1):
        xn = (xn * x) % mod
        if xn == 0:
            break
        s = val2(n)
        odd = n >> s
        # x^n is divisible by 2^(2n) >= 2^s, so the shift is exact here
        term = (xn >> s) * pow(odd, -1, mod)
        if n % 2 == 0:
            term = -term
        acc = (acc + term) % mod
    return Padic2(acc, out_prec)


class NumPoly:
    """Finite sum over the binomial basis C(T, i), as {i: coefficient}."""

    def __init__(self, coeffs: dict):
        self.coeffs = {i: c for i, c in coeffs.items() if c}

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

    def to_json_obj(self):
        deg = self.degree()
        return {"coeffs": [str(self.coeffs.get(i, 0)) for i in range(deg + 1)]}


def mahler_expand(values_fn, N: int) -> NumPoly:
    """Binomial-basis coefficients a_i = (iterated difference)^i at 0.

    ``values_fn`` supplies exact values at the integers 0..N (Fractions,
    ints or ``Padic2``: the table only subtracts and tests for zero); a
    polynomial of degree <= N is recovered exactly (the expansion terminates).
    """
    row = [values_fn(t) for t in range(N + 1)]
    coeffs = {}
    for i in range(N + 1):
        if row[0]:
            coeffs[i] = row[0]
        row = [b - a for a, b in zip(row, row[1:])]
    return NumPoly(coeffs)


def dilate(k, i: int) -> NumPoly:
    """C(kT, i) expanded in the C(T, j) basis, by the difference table of
    its values at T = 0..i.

    Integer k of either sign: exact Fraction values.  2-adic k: C(k t, i)
    evaluated as the integer-valued polynomial at the 2-adic argument, so
    the coefficients are truncated at k's working precision.
    """
    if isinstance(k, Padic2):
        if k.value % 2 == 0:
            raise NotAUnit("2-adic dilation needs a unit scale")
        return mahler_expand(lambda t: _binom_padic(k * Padic2(t, k.precision), i), i)
    k = int(k)
    return mahler_expand(lambda t: Fraction(binom(k * t, i)), i)


def binom(n: int, i: int) -> int:
    """C(n, i) = n(n-1)...(n-i+1)/i! for every integer n: (-1)^i C(i-n-1, i) for n < 0."""
    return comb(n, i) if n >= 0 else (-1) ** i * comb(i - n - 1, i)


def _binom_padic(x: Padic2, i: int) -> Padic2:
    """C(x, i) = x(x-1)...(x-i+1)/i! for a 2-adic x (integer-valued polynomial)."""
    num = Padic2(1, x.precision)
    for s in range(i):
        num = num * (x - Padic2(s, x.precision))
    return num.div_int(factorial(i))


def dilation_matrix(k, imax: int):
    """Rows i = 0..imax of the dilation; entries integer for integer k."""
    rows = []
    for i in range(imax + 1):
        np_ = dilate(k, i)
        rows.append([np_.coeffs.get(j, 0) for j in range(imax + 1)])
    return rows


def adams_matrix(k: int, imax: int):
    """<psi^k x^j, beta_i> in the orientation x = 1 - L of the K-theory generator."""
    from .adams import psi_power_coeff
    return [[psi_power_coeff(k, j, i) for j in range(imax + 1)] for i in range(imax + 1)]


def dilation_vs_adams(imax: int, k: int = 3) -> dict:
    """Assert D = S A S^{-1} (S = diag((-1)^i)) exactly.

    A is the x = 1 - L inverse Adams matrix, D the integer dilation matrix;
    S A S^{-1} is A's x = L - 1 counterpart, returned as ``adams_dual``.
    Returns the three matrices; raises MismatchAt pinpointing the first
    differing entry otherwise.
    """
    D = dilation_matrix(k, imax)
    A = adams_matrix(k, imax)
    dual = [[c * (-1) ** (i - j) for j, c in enumerate(row)] for i, row in enumerate(A)]
    for i in range(imax + 1):
        for j in range(imax + 1):
            if D[i][j] != dual[i][j]:
                raise MismatchAt(i, j, D[i][j], dual[i][j])
    return {"dilation": D, "adams": A, "adams_dual": dual}


def artin_schreier_check(u: int, precision: int = 48) -> dict:
    """b = -log(u)/log(81) and the defining shift identity, for the integer
    u taken at ``precision`` bits.

    Requires u = 1 mod 16 (the Bott-class congruence at v = 1).  Verifies
    -log(u/81)/log(81) = b + 1 at the working precision left after the
    logarithm and the division by log(81) (which has 2-adic valuation 4).
    """
    u = Padic2(u, precision)
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
    return {"b": b, "lhs": lhs, "rhs": rhs, "verified": lhs == rhs}
