"""2-adic valuations, and the one frame between ``Fraction`` coefficients and
the integers the product loop runs on.

Every coefficient fglab exposes is a ``fractions.Fraction``.  Inside a
product, ``lift`` puts one operand's coefficients over their common
denominator, so the pair loop (``series._addmul``) multiplies and adds Python
ints, and ``lower`` turns the loop's sums back into Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def val2(n: int) -> int:
    """2-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of zero is infinite")
    return (n & -n).bit_length() - 1


def rat_val2(q: Fraction) -> int:
    return val2(q.numerator) - val2(q.denominator)


def lift(coeffs):
    """(numerators, den): Python ints over one common denominator, the lcm of
    the coefficients'."""
    den = lcm(*(c.denominator for c in coeffs))
    if den == 1:
        return [c.numerator for c in coeffs], 1
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def lower(sums, den):
    """{key: Fraction(sum, den)}; the loop has already dropped the zero sums."""
    if den == 1:
        return {e: Fraction(s) for e, s in sums.items()}
    return {e: Fraction(s, den) for e, s in sums.items()}
