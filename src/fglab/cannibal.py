"""Cannibalistic classes of the universal virtual SU-bundle.

In the orientation x = 1 - L, Bott's class theta^k for odd k is
k q_k(x + y - xy) / (q_k(x) q_k(y)) with q_k(t) = (1 - (1-t)^k)/t;
``theta3_direct`` builds its table for every odd k, k = 3 by default.  The
degree-3 class is
3 (1 + (1-x)(1-y) + (1-x)^2 (1-y)^2) / ((3 - 3x + x^2)(3 - 3y + y^2));
all coefficients of theta^k have k-power denominators, hence reduce to Z_2
and to GF(2).  The generator sequence t_k (the paper's one-variable
expansion coefficients of 1/(3 - 3t + t^2), renamed to avoid clashing with
a_ij) satisfies t_0 = t_1 = 1/3 and t_{k+2} = t_{k+1} - t_k / 3.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, log

from .adams import APoly, DPoly, DReducer, psi_tensor_apoly
from .errors import EvenK, IndexOutOfRange
from .series import MultiSeries, lift, lower

_LOG3_2 = log(2, 3)  # 3^m divides s only if m <= log_3 |s| < bit_length(s) * log_3 2


def _q_inverse(k: int, N: int) -> list:
    """S_0[n] = k^(n+1) [t^n] 1/q_k(t), n <= N, with q_k(t) = (1 - (1-t)^k)/t
    = sum_i q_i t^i, on Python ints: S_0[0] = 1 and
    S_0[n] = -sum_{1<=i<k} q_i k^(i-1) S_0[n-i]."""
    q = [(-1) ** i * comb(k, i + 1) * k ** (i - 1) for i in range(1, k)]  # q_i k^(i-1)
    S0 = [1]
    for n in range(1, N + 1):
        S0.append(-sum(c * S0[n - i] for i, c in enumerate(q[:n], 1)))
    return S0


class ThetaGenSeq:
    """t_k coefficients of 1/(3 - 3x + x^2) = 1/(3 q_3(x)), k <= N: the k = 3
    case of ``_q_inverse``, t_k = S_0[k] / 3^(k+1).

    The largest 3^m, m <= k + 1, that divides S_0[k] is divided out first,
    so the Fraction's gcd runs on a small numerator."""

    def __init__(self, N: int):
        pow3 = [1]
        for _ in range(N + 1):
            pow3.append(3 * pow3[-1])
        self.t = []
        for n, s in enumerate(_q_inverse(3, N)):
            m = min(n + 1, int(s.bit_length() * _LOG3_2))
            while s % pow3[m]:
                m -= 1
            self.t.append(Fraction(s // pow3[m], pow3[n + 1 - m]))

    def __getitem__(self, k):
        if k < 0:
            return Fraction(0)
        if k >= len(self.t):
            raise IndexOutOfRange(f"t_{k} beyond computed bound {len(self.t) - 1}")
        return self.t[k]


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


def theta3_direct(N: int, k: int = 3) -> ThetaTable:
    """The table c_mn, m, n <= N, of theta^k for odd k, by a split into
    one-variable series; k = 3 is the paper's theta^3.

    With q_k(t) = (1 - (1-t)^k)/t = sum_i q_i t^i, of degree k - 1 and
    q_k(0) = k, theta^k = k q_k(x + y - xy) / (q_k(x) q_k(y)).  Since
    1 - (x + y - xy) = (1-x)(1-y), the numerator q_k(x + y - xy) is
    sum_{e<k} (1-x)^e (1-y)^e, so c_mn = k sum_e s_e[m] s_e[n] with
    s_e = (1-t)^e / q_k(t).  Each S_e[n] = k^(n+1) s_e[n] is an integer:
    S_0 is ``_q_inverse(k, N)``, and s_e comes from s_(e-1) by one series
    product with 1 - t.  So c_mn = k sum_e S_e[m] S_e[n] / k^(m+n+2) is
    summed on Python ints, with one Fraction per nonzero cell.  At k = 1 the
    table is ``theta_unit``'s.
    """
    if k < 1 or k % 2 == 0:
        raise EvenK(f"stable normalization requires an odd k >= 1, got {k}")
    vars_ = ("t",)
    omt = MultiSeries.one(vars_, N) - MultiSeries.var(vars_, "t", N)
    S0 = _q_inverse(k, N)
    s = [MultiSeries(vars_, {(n,): Fraction(c, k ** (n + 1)) for n, c in enumerate(S0)}, N)]
    for _ in range(1, k):
        s.append(omt * s[-1])
    S = [[(c := se.coefficient((n,))).numerator * (k ** (n + 1) // c.denominator)
          for n in range(N + 1)] for se in s]
    table = {}
    for m in range(N + 1):
        for n in range(m, N + 1):
            c = k * sum(Se[m] * Se[n] for Se in S)
            if c:
                table[m, n] = table[n, m] = Fraction(c, k ** (m + n + 2))
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


# -- Thom-level Adams operation ---------------------------------------------------


def thom_psi_dk(k_gen: int, theta: ThetaTable, reducer: DReducer, k_adams: int = 3) -> DPoly:
    """psi_M^(k^-1) d_k, k = ``k_adams``, at the Thom level, with d_k as the
    reducer defines it.

    Bott's psi_M^k = theta^k psi_B^k, so ``theta`` must be theta^(k_adams),
    ``theta3_direct(W, k_adams)``, or the unit class ``theta_unit``, at which
    this is the base-level psi_B.  With theta^k for each odd index, these
    operations compose, psi_M^k psi_M^l = psi_M^(kl), exactly when Bott's
    cocycle identity theta^(kl) = theta^k psi^k(theta^l) holds.

    Sum over the nonzero cells c_mn, m + n <= k, and i with m <= i,
    n <= k-i, of c_mn n_k^i psi_B^(k^-1) f_*(beta_{i-m} (x) beta_{k-i-n});
    beta_0 is the unit.  The (0,0) cell is the base-level
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
    nums, den = lift(cells.values())
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
    return reducer.reduce(APoly(lower({m: v for m, v in expr.items() if v}, den)))


def psi_dk_table(level: str, reducer: DReducer, ks) -> dict:
    """psi on d_k for each k in ``ks`` at ``level``, through the reducer's
    weight: ``thom_psi_dk`` at theta^3 for "thom", at the unit class for "base"."""
    theta = (theta3_direct if level == "thom" else theta_unit)(reducer.W)
    return {k: thom_psi_dk(k, theta, reducer) for k in ks}
