"""Cannibalistic classes of the universal virtual SU-bundle.

The degree-3 class has the rational expansion
3 (1 + (1-x)(1-y) + (1-x)^2 (1-y)^2) / ((3 - 3x + x^2)(3 - 3y + y^2))
in the orientation x = 1 - L; all coefficients have 3-power denominators,
hence reduce to Z_2 and to GF(2).  The generator sequence t_k (the paper's
one-variable expansion coefficients, renamed to avoid clashing with a_ij)
satisfies t_0 = t_1 = 1/3 and t_{k+2} = t_{k+1} - t_k / 3.
"""

from __future__ import annotations

from fractions import Fraction

from .adams import APoly, DPoly, DReducer, psi_tensor_apoly
from .errors import EvenK, IndexOutOfRange
from .rings import RAT
from .series import MultiSeries, geometric


class ThetaGenSeq:
    """t_k coefficients of 1/(3 - 3x + x^2), by the recurrence."""

    def __init__(self, N: int):
        t = [Fraction(1, 3), Fraction(1, 3)]
        while len(t) < N + 1:
            t.append(t[-1] - t[-2] / 3)
        self.t = t[:N + 1]

    def __getitem__(self, k):
        if k < 0:
            return Fraction(0)
        if k >= len(self.t):
            raise IndexOutOfRange(f"t_{k} beyond computed bound {len(self.t) - 1}")
        return self.t[k]

    def __len__(self):
        return len(self.t)


def theta_gen_closed(k: int) -> Fraction:
    """Closed form by residue of k mod 6."""
    n, r = divmod(k, 6)
    sign = (-1) ** n
    if r in (0, 1):
        return Fraction(sign, 3 ** (3 * n + 1))
    if r == 2:
        return Fraction(2 * sign, 3 ** (3 * n + 2))
    if r == 3:
        return Fraction(sign, 3 ** (3 * n + 2))
    if r == 4:
        return Fraction(sign, 3 ** (3 * n + 3))
    return Fraction(0)


class ThetaTable:
    """Coefficients c_mn of a cannibalistic class, m, n <= bound; ``table``
    holds the nonzero cells."""

    def __init__(self, bound: int, table: dict):
        self.bound = bound
        self.table = table

    def __getitem__(self, key):
        m, n = key
        if m < 0 or n < 0:
            return Fraction(0)
        if m > self.bound or n > self.bound:
            raise IndexOutOfRange(f"c[{m},{n}] beyond bound {self.bound}")
        return self.table.get((m, n), Fraction(0))


def theta_unit(N: int) -> ThetaTable:
    """The unit class: c_00 = 1 and no other cell, m, n <= N.  At it
    ``thom_psi_dk`` is the base-level (BSU) operation."""
    return ThetaTable(N, {(0, 0): Fraction(1)})


def theta3_direct(N: int) -> ThetaTable:
    """The table c_mn, m, n <= N, from three series in one variable.

    The numerator 1 + (1-x)(1-y) + (1-x)^2 (1-y)^2 is a sum of three products
    of one-variable factors, so c_mn = 3 sum_e s_e[m] s_e[n] over e = 0, 1, 2,
    with s_e = (1-t)^e / (3 - 3t + t^2): s_0 is the t_k of ``ThetaGenSeq``,
    s_1 and s_2 come by multiplying with 1 - t.  Each s_e[n] 3^(n+1)
    is an integer S_e[n], so c_mn = 3 sum_e S_e[m] S_e[n] / 3^(m+n+2) is
    summed on Python ints, with one Fraction per nonzero cell.
    """
    vars_ = ("t",)
    omt = MultiSeries.one(RAT, vars_, N) - MultiSeries.var(RAT, vars_, "t", N)
    s0 = MultiSeries(RAT, vars_, {(n,): c for n, c in enumerate(ThetaGenSeq(N).t)}, N)
    s1 = omt * s0
    s2 = omt * s1
    S = [[(c := s.coefficient((n,))).numerator * (3 ** (n + 1) // c.denominator)
          for n in range(N + 1)] for s in (s0, s1, s2)]
    table = {}
    for m in range(N + 1):
        for n in range(m, N + 1):
            c = 3 * sum(Se[m] * Se[n] for Se in S)
            if c:
                table[m, n] = table[n, m] = Fraction(c, 3 ** (m + n + 2))
    return ThetaTable(N, table)


def theta3_closed(m: int, n: int) -> Fraction:
    """Closed-form coefficient: boundary rows from the t-sequence, interior
    from the residue-class rule in m - n."""
    if m < 0 or n < 0:
        return Fraction(0)
    if m == 0 or n == 0:
        return Fraction(1) if (m == 0 and n == 0) else Fraction(0)
    if m == 1 or n == 1:
        k = max(m, n)
        return 3 * theta_gen_closed(k + 1)
    d = m - n
    p = Fraction(1, 3 ** ((m + n) // 2))
    r = d % 12
    if d % 6 == 0:
        # the block form carries a sign (-1)^(floor(m/6)+floor(n/6)); on this
        # residue class it collapses to the distinction 0 vs 6 mod 12
        return 2 * p if r == 0 else -2 * p
    if d % 6 == 3:
        return Fraction(0)
    if r in (1, 2, 10, 11):
        return p
    return -p


def theta_k_virtual(k: int, N: int) -> MultiSeries:
    """Stable class in the dual orientation x' = 1 - L^*:
    k q_k(x' + y' - x'y') / (q_k(x') q_k(y')), q_k(s) = (1 - (1-s)^k)/s."""
    if k % 2 == 0:
        raise EvenK("stable normalization requires odd k")
    vars_ = ("x", "y")
    ring = RAT
    bound = 2 * N

    def qk(series):
        # q_k(s) = (1 - (1-s)^k)/s = sum_{i>=0} (-1)^i C(k, i+1) s^i, degree k-1
        from math import comb
        coeffs = [Fraction((-1) ** i * comb(k, i + 1)) for i in range(0, k)]
        out = MultiSeries.zero(ring, vars_, bound)
        p = MultiSeries.one(ring, vars_, bound)
        for i, c in enumerate(coeffs):
            if i > 0:
                p = p * series
            out = out + p.scale(c)
        return out

    x = MultiSeries.var(ring, vars_, "x", bound)
    y = MultiSeries.var(ring, vars_, "y", bound)
    s = x + y - x * y
    return qk(s).scale(Fraction(k)) * qk(x).reciprocal() * qk(y).reciprocal()


def orientation_transport(series: MultiSeries, N: int) -> MultiSeries:
    """Substitute x -> -x/(1-x), y -> -y/(1-y) (the L -> L^* change)."""
    ring = series.ring
    vars_ = series.vars
    bound = series.bound

    def inner(var):
        # -t/(1-t) = -(t + t^2 + ...)
        g = geometric(ring, vars_, var, bound)
        t = MultiSeries.var(ring, vars_, var, bound)
        return (g * t).scale(Fraction(-1))

    return series.substitute({"x": inner("x"), "y": inner("y")})


# -- Thom-level Adams operation ---------------------------------------------------


def thom_psi_dk(k_gen: int, theta: ThetaTable, reducer: DReducer, k_adams: int = 3) -> DPoly:
    """psi_M^(k^-1) d_k, k = ``k_adams``, at the Thom level, with d_k as the
    reducer defines it.

    Bott's psi_M^k = theta^k psi_B^k, so ``theta`` must be theta^(k_adams)
    (``theta3_direct`` for k = 3) or the unit class (``theta_unit``), at which
    this is the base-level psi_B.  Sum over the nonzero cells c_mn, m + n <= k,
    and i with m <= i, n <= k-i, of c_mn n_k^i psi_B^(k^-1) f_*(beta_{i-m} (x)
    beta_{k-i-n}); beta_0 is the unit.  The (0,0) cell is the base-level
    operation; every other cell is a cannibalistic correction.  The sum runs
    on Python ints: the cells are lifted to numerators over one denominator,
    the weight of each psi_B f_*(beta_p (x) beta_q) is summed over the cells
    that reach it, and the a-coefficients are summed as ints; one APoly goes
    to the reducer.
    """
    nki = reducer.nki(k_gen)
    if theta.bound < k_gen:
        raise IndexOutOfRange(f"theta table bound {theta.bound} < {k_gen}")
    cells = {(m, n): c for (m, n), c in theta.table.items() if m + n <= k_gen}
    nums, den = RAT.lift(cells.values())
    weight = {}  # (p, q) -> sum of n_k^i c_mn over p = i - m, q = k - i - n
    for i, cnk in nki.items():
        for (m, n), c in zip(cells, nums):
            if m <= i and n <= k_gen - i:
                pq = (i - m, k_gen - i - n)
                weight[pq] = weight.get(pq, 0) + cnk * c
    expr = {}
    for (p, q), w in weight.items():
        if w:
            for mono, v in psi_tensor_apoly(p, q, k_adams).terms.items():
                expr[mono] = expr.get(mono, 0) + w * v.numerator
    return reducer.reduce(APoly(RAT.lower({m: v for m, v in expr.items() if v}, den)))
