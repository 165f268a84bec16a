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

from .errors import DivisionUndefined, NotAUnit, NotInDomain, PrecisionTooLow

Rat = Fraction  # reduced numerator/denominator invariants come for free


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

    def truncate(self, precision: int) -> "Padic2":
        if precision > self.precision:
            raise PrecisionTooLow(f"cannot raise precision {self.precision} -> {precision}")
        return Padic2(self.value, precision)

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
# not expressible through element operators (inversion, conversions,
# serialization).  Elements themselves implement +, -, *.


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

    def coeff_to_json(self, a):
        return str(a.numerator), str(a.denominator)

    def coeff_from_json(self, num, den):
        return Fraction(int(num), int(den))

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

    def coeff_to_json(self, a):
        return str(a.v), "1"

    def coeff_from_json(self, num, den):
        if int(den) % 2 == 0:
            raise NotInDomain("even denominator in GF(2) literal")
        return GF2Elt(int(num) * int(den))  # den odd, acts as 1 mod 2

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

    def coeff_to_json(self, a):
        return str(a.value), "1"

    def coeff_from_json(self, num, den):
        return padic_from_rat(Fraction(int(num), int(den)), self.precision)

    def __eq__(self, other):
        return isinstance(other, Padic2Ring) and other.precision == self.precision

    def __hash__(self):
        return hash(("Padic2Ring", self.precision))

    def __repr__(self):
        return f"PADIC2({self.precision})"


RAT = RatRing()
GF2 = GF2Ring()


# -- 2-adic analytic operations --------------------------------------------


def padic_inverse(u: Padic2) -> Padic2:
    """Inverse of a 2-adic unit at the unit's own precision."""
    return u.inverse()


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
