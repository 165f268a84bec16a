"""Exact coefficient scalars and the ring abstraction the series engine is generic over.

Two rings are provided here:

* ``RAT`` -- arbitrary-precision rationals (``fractions.Fraction``),
* ``GF2`` -- the field with two elements;

the third, ``Padic2Ring(precision)`` of truncated 2-adic integers, lives in
``fglab.padic``.

All scalar values are immutable after construction.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import DivisionUndefined, NotInDomain


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


RAT = RatRing()
GF2 = GF2Ring()
