"""Exact coefficient scalars and the ring abstraction the series engine is generic over.

Three rings are provided:

* ``RAT`` -- arbitrary-precision rationals (``fractions.Fraction``),
* ``GF2`` -- the field with two elements,
* ``Padic2Ring(precision)`` -- truncated 2-adic integers with explicit
  precision tracking (binary operations carry the minimum precision of
  their operands).

All scalar values are immutable after construction.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import DivisionUndefined, NotAUnit, NotInDomain, PrecisionTooLow

def val2(n: int) -> int:
    """2-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of zero is infinite")
    return (n & -n).bit_length() - 1


def rat_val2(q: Fraction) -> int:
    return val2(q.numerator) - val2(q.denominator)


class GF2Elt:
    """Residue mod 2 with field operators."""

    __slots__ = ("v",)

    def __init__(self, v):
        self.v = int(v) & 1

    def __add__(self, other):
        return GF2Elt(self.v ^ other.v)

    __sub__ = __add__

    def __neg__(self):
        return self

    def __mul__(self, other):
        return GF2Elt(self.v & other.v)

    def __eq__(self, other):
        """Equal to a GF2Elt or an int of the same value: GF2Elt(1) == 1, != 3."""
        if isinstance(other, GF2Elt):
            return self.v == other.v
        if isinstance(other, int):
            return self.v == other
        return NotImplemented

    def __hash__(self):
        return hash(self.v)

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return str(self.v)


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

    def __truediv__(self, other):
        return self * other.inverse()

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


def padic_from_rat(q: Fraction, precision: int) -> Padic2:
    """Embed a rational with odd denominator into Z_2 at the given precision."""
    if q.denominator % 2 == 0:
        raise NotInDomain(f"denominator of {q} is even; not a 2-adic integer")
    inv = pow(q.denominator, -1, 1 << precision)
    return Padic2(q.numerator * inv, precision)


def gf2_from_rat(q: Fraction) -> GF2Elt:
    """Reduce a rational with odd denominator mod 2 (= parity of the numerator)."""
    if q.denominator % 2 == 0:
        raise NotInDomain(f"denominator of {q} is even; no mod-2 reduction")
    return GF2Elt(q.numerator & 1)


# -- ring descriptors ------------------------------------------------------
#
# A ring descriptor carries the constants and the few operations that are
# not expressible through element operators (inversion, conversions).
# Elements themselves implement +, -, *.
#
# ``lift``/``lower`` frame the series product on the kernel's pair loop
# (``series._addmul``).  ``lift`` maps an operand's coefficients to values
# the loop multiplies and adds (each coefficient is value/scale, one scale
# per operand); a value of truth False must be a zero.  ``lower`` turns the
# loop's sums back into nonzero coefficients, given the product of the two
# scales.


class RatRing:
    name = "rat"

    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def from_rat(self, q):
        return Fraction(q)

    def is_zero(self, a):
        return a == 0

    def invert(self, a):
        if a == 0:
            raise DivisionUndefined("division by zero in Q")
        return 1 / Fraction(a)

    def lift(self, coeffs):
        """Python ints over one common denominator: the lcm of the coefficients'."""
        den = lcm(*(c.denominator for c in coeffs))
        if den == 1:
            return [c.numerator for c in coeffs], 1
        return [c.numerator * (den // c.denominator) for c in coeffs], den

    def lower(self, sums, den):
        """One Fraction per sum; the loop has already dropped the zero sums."""
        if den == 1:
            return {e: Fraction(s) for e, s in sums.items()}
        return {e: Fraction(s, den) for e, s in sums.items()}

    def __eq__(self, other):
        return isinstance(other, RatRing)

    def __hash__(self):
        return hash("RatRing")

    def __repr__(self):
        return "RAT"


class GF2Ring:
    name = "gf2"

    zero = GF2Elt(0)
    one = GF2Elt(1)

    def from_int(self, n):
        return GF2Elt(n)

    def from_rat(self, q):
        return gf2_from_rat(Fraction(q))

    def is_zero(self, a):
        return a.v == 0

    def invert(self, a):
        if a.v == 0:
            raise DivisionUndefined("division by zero in GF(2)")
        return GF2Elt(1)

    def lift(self, coeffs):
        return coeffs, 1

    def lower(self, sums, scale):
        return sums

    def __eq__(self, other):
        return isinstance(other, GF2Ring)

    def __hash__(self):
        return hash("GF2Ring")

    def __repr__(self):
        return "GF2"


class Padic2Ring:
    name = "padic2"

    def __init__(self, precision: int):
        if precision < 1:
            raise PrecisionTooLow("precision must be >= 1")
        self.precision = precision
        self.zero = Padic2(0, precision)
        self.one = Padic2(1, precision)

    def from_int(self, n):
        return Padic2(n, self.precision)

    def from_rat(self, q):
        return padic_from_rat(Fraction(q), self.precision)

    def is_zero(self, a):
        return a.value % (1 << min(a.precision, self.precision)) == 0

    def invert(self, a):
        return a.inverse()

    def lift(self, coeffs):
        return coeffs, 1

    def lower(self, sums, scale):
        """Drop the sums that vanish only at the ring's precision, below their own."""
        return {e: s for e, s in sums.items() if not self.is_zero(s)}

    def __eq__(self, other):
        return isinstance(other, Padic2Ring) and other.precision == self.precision

    def __hash__(self):
        return hash(("Padic2Ring", self.precision))

    def __repr__(self):
        return f"PADIC2({self.precision})"


RAT = RatRing()
GF2 = GF2Ring()


# -- 2-adic analytic operations --------------------------------------------


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
