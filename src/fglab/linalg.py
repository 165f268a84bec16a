"""Exact row echelon forms: sparse over Q (`Echelon`) and bit-packed over
GF(2) (`GF2Echelon`).

Every echelon row has its pivot at its largest column, so eliminating column j
only touches columns below j, and a single top-down pass reduces a row
completely.  Over Q rows are dicts {column: Fraction} without zero entries,
monic at the pivot, and the pass pops columns from a max-heap; over GF(2) rows
are int bitsets and the pivot is the highest set bit.
"""

import heapq
from bisect import insort
from fractions import Fraction
from operator import neg


class Echelon:
    """A row echelon basis that can also record, for each of its rows, the
    combination of the added rows it came from."""

    def __init__(self):
        self.rows = {}    # pivot column -> monic row
        self.combos = {}  # pivot column -> {key: coefficient}, for keyed rows

    def reduce(self, row):
        """Return (remainder, used) with row = remainder + sum(used[p] * rows[p]).

        The remainder has no entry in a pivot column, so it is the same for
        every echelon basis of the same span."""
        row = dict(row)
        heap = [-j for j in row]
        heapq.heapify(heap)
        used = {}
        while heap:
            j = -heapq.heappop(heap)
            f = row.get(j)
            er = self.rows.get(j)
            if f is None or er is None:
                continue
            used[j] = f
            for jj, c in er.items():
                s = row.get(jj)
                if s is None:
                    row[jj] = -f * c
                    heapq.heappush(heap, -jj)
                else:
                    s -= f * c
                    if s:
                        row[jj] = s
                    else:
                        del row[jj]
        return row, used

    def add(self, row, key=None):
        """Reduce row and keep what is left as a new echelon row.

        With a key, the new row's combination of keyed input rows is tracked.
        Returns False when row already lies in the span."""
        rem, used = self.reduce(row)
        if not rem:
            return False
        piv = max(rem)
        inv = Fraction(1) / rem[piv]
        self.rows[piv] = {j: c * inv for j, c in rem.items()}
        if key is not None:
            combo = {k: -c * inv for k, c in self.combination(used).items()}
            combo[key] = combo.get(key, 0) + inv
            self.combos[piv] = combo
        return True

    def combination(self, used):
        """sum(used[p] * combos[p]) as {key: coefficient}, zeros dropped."""
        out = {}
        for p, f in used.items():
            for k, c in self.combos[p].items():
                out[k] = out.get(k, 0) + f * c
        return {k: c for k, c in out.items() if c}


class GF2Echelon:
    """A row echelon basis over GF(2) on int bitsets.  Like `Echelon`, it
    records for each of its rows the keys of the added rows it is the sum of,
    as a bitset with bit `key` set for each."""

    def __init__(self):
        self.rows = {}    # pivot bit -> row
        self.combos = {}  # pivot bit -> bitset of keys
        self._order = []  # pivot bits, descending

    def reduce(self, row):
        """Return (remainder, combo) with row = remainder ^ (the XOR of the
        added rows in combo).

        The remainder has no bit at a pivot, so it is 0 exactly when row lies
        in the span."""
        combo = 0
        for p in self._order:
            if row >> p & 1:
                row ^= self.rows[p]
                combo ^= self.combos[p]
        return row, combo

    def add(self, row, key):
        """Reduce row and keep what is left as a new echelon row, whose
        combination of added rows includes this one as bit `key`.

        Returns False when row already lies in the span."""
        rem, combo = self.reduce(row)
        if rem:
            self.keep(rem, combo ^ (1 << key))
        return bool(rem)

    def keep(self, rem, combo):
        """Keep a nonzero remainder of `reduce` as a new echelon row, the XOR
        of the added rows in combo."""
        piv = rem.bit_length() - 1
        self.rows[piv] = rem
        self.combos[piv] = combo
        insort(self._order, piv, key=neg)
