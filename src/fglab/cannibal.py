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
    """Coefficients c_mn of the theta^3 expansion, m, n <= bound."""

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


def theta3_direct(N: int) -> ThetaTable:
    """Bivariate series division, no closed forms involved."""
    vars_ = ("x", "y")
    ring = RAT
    bound = 2 * N

    def low(var):
        # 3 - 3 t + t^2
        x = MultiSeries.var(ring, vars_, var, bound)
        three = MultiSeries.constant(ring, vars_, Fraction(3), bound)
        return three - x.scale(Fraction(3)) + x * x

    x = MultiSeries.var(ring, vars_, "x", bound)
    y = MultiSeries.var(ring, vars_, "y", bound)
    one = MultiSeries.one(ring, vars_, bound)
    omx = one - x
    omy = one - y
    num = one + omx * omy + (omx * omx) * (omy * omy)
    f = num.scale(Fraction(3)) * low("x").reciprocal() * low("y").reciprocal()
    table = {}
    for (i, j), c in f.terms.items():
        if i <= N and j <= N:
            table[(i, j)] = c
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


def theta3_bilinear(m: int, n: int, tseq: ThetaGenSeq) -> Fraction:
    """Nine-term bilinear form in the t-sequence (the intermediate closed form)."""
    def t(k):
        return tseq[k] if k >= 0 else Fraction(0)
    return (9 * t(m) * t(n) - 9 * t(m - 1) * t(n) - 9 * t(m) * t(n - 1)
            + 3 * t(m - 2) * t(n) + 15 * t(m - 1) * t(n - 1) + 3 * t(m) * t(n - 2)
            - 6 * t(m - 2) * t(n - 1) - 6 * t(m - 1) * t(n - 2) + 3 * t(m - 2) * t(n - 2))


def theta3_one_bundle(var: str, vars_, bound: int) -> MultiSeries:
    """theta^3(1 - L) = 3 (1-x)^2 / (3 - 3x + x^2) in the x = 1 - L orientation
    (from theta(1) = 3, theta(-L) = 1/theta(L) and L^* = (1-x)^{-1})."""
    ring = RAT
    t = MultiSeries.var(ring, vars_, var, bound)
    one = MultiSeries.one(ring, vars_, bound)
    three = MultiSeries.constant(ring, vars_, Fraction(3), bound)
    omt = one - t
    return (omt * omt).scale(Fraction(3)) * (three - t.scale(Fraction(3)) + t * t).reciprocal()


def theta3_sum_of_two(N: int) -> MultiSeries:
    """theta^3((1-L1) + (1-L2)) = 9 / (theta(L1) theta(L2)), computed through
    geometric expansions of the dual line bundles (independent route)."""
    ring = RAT
    vars_ = ("x", "y")
    bound = 2 * N

    def theta_L(var):
        # 1 + L^* + (L^*)^2 with L^* = 1/(1 - t) = sum t^n
        dual = geometric(ring, vars_, var, bound)
        return MultiSeries.one(ring, vars_, bound) + dual + dual * dual

    nine = MultiSeries.constant(ring, vars_, Fraction(9), bound)
    return nine * (theta_L("x") * theta_L("y")).reciprocal()


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


def thom_psi_dk(k_gen: int, theta: ThetaTable, reducer: DReducer) -> DPoly:
    """psi_M^(3^-1) d_k at the Thom level, with d_k as the reducer defines it.

    Sum over m <= i, n <= k-i of c_mn n_k^i psi_B^(3^-1) f_*(beta_{i-m} (x)
    beta_{k-i-n}); negative-index betas vanish, beta_0 is the unit.  The
    (0,0) cell reproduces the base-level operation; every other cell is a
    cannibalistic correction.
    """
    nki = reducer.nki(k_gen)
    if theta.bound < k_gen:
        raise IndexOutOfRange(f"theta table bound {theta.bound} < {k_gen}")
    expr = {}
    for i, cnk in nki.items():
        for m in range(0, i + 1):
            for n in range(0, k_gen - i + 1):
                c = cnk * theta[m, n]
                if not c:
                    continue
                for mono, v in psi_tensor_apoly(i - m, k_gen - i - n).terms.items():
                    expr[mono] = expr.get(mono, 0) + c * v
    return reducer.reduce(APoly(expr))
