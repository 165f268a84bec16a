"""Truncated 2-adic integers: the scalar ``Padic2`` and the 2-adic logarithm.

Binary operations carry the minimum precision of their operands, so
precision loss is explicit in the result rather than silent.
"""

from __future__ import annotations

from .errors import NotAUnit, NotInDomain, PrecisionTooLow
from .rings import val2


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
