"""Exact row echelon forms: sparse over Q (`Echelon`) and bit-packed over
GF(2) (`GF2Echelon`).

Every echelon row has its pivot at its largest column, so eliminating column j
only touches columns below j, and a single pass over the pivots, in
descending order, reduces a row completely.  Over Q a row is a dict
{column: Fraction or int} without zero entries, and the pass runs on Python
ints: the row is lifted to numerators over one denominator, and each echelon
row is kept monic as numerators over its pivot's numerator.  Over GF(2) rows
are int bitsets and the pivot is the highest set bit.

The kernels only eliminate.  A caller that needs the combination of its input
rows that gave a remainder augments them: input k carries a unit entry at a
column (or bit) k below its data, and a remainder's entries there are its
combination.
"""

from bisect import insort
from fractions import Fraction
from math import gcd, lcm


class Echelon:
    """A row echelon basis over Q."""

    def __init__(self):
        # (pivot column, numerators, den), pivots ascending; numerators[pivot] == den > 0
        self.rows = []

    def _eliminate(self, row):
        """The remainder of row as (numerators, den), zeros dropped."""
        den = lcm(*(c.denominator for c in row.values()))
        acc = {j: c.numerator * (den // c.denominator) for j, c in row.items()}
        for p, nums, d in reversed(self.rows):
            f = acc.get(p)
            if f is None:
                continue
            if d != 1:  # acc/den - (f/den) (nums/d) = (d acc - f nums) / (d den)
                acc = {j: v * d for j, v in acc.items()}
                den *= d
            for j, c in nums.items():
                s = acc.get(j, 0) - f * c
                if s:
                    acc[j] = s
                else:
                    del acc[j]
        return acc, den

    def reduce(self, row):
        """The remainder of row, {column: Fraction}: row minus the multiples
        of echelon rows that clear its entries at pivot columns.

        The remainder has no entry in a pivot column, so it is the same for
        every echelon basis of the same span."""
        acc, den = self._eliminate(row)
        return {j: Fraction(v, den) for j, v in acc.items()}

    def add(self, row):
        """Reduce row, keep a nonzero remainder as a new echelon row, and
        return the remainder; it is empty exactly when row already lies in
        the span."""
        acc, den = self._eliminate(row)
        if acc:
            piv = max(acc)
            g = gcd(*acc.values()) if acc[piv] > 0 else -gcd(*acc.values())
            insort(self.rows, (piv, {j: v // g for j, v in acc.items()}, acc[piv] // g))
        return {j: Fraction(v, den) for j, v in acc.items()}


class GF2Echelon:
    """A row echelon basis over GF(2) on int bitsets."""

    def __init__(self):
        self.rows = []  # (pivot bit, row), pivots ascending

    def reduce(self, row):
        """The remainder of row: row XOR the echelon rows that clear its bits
        at pivots.  It is 0 exactly when row lies in the span."""
        for p, r in reversed(self.rows):
            if row >> p & 1:
                row ^= r
        return row

    def add(self, row):
        """Reduce row, keep a nonzero remainder as a new echelon row, and
        return the remainder."""
        rem = self.reduce(row)
        if rem:
            insort(self.rows, (rem.bit_length() - 1, rem))
        return rem

