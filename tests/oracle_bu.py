"""Independent oracle for the d_k reduction pipeline.

Models the homology of the infinite unitary classifying space as the
polynomial ring Q[b1, b2, ...]: the classifying map of the virtual bundle
(1 - L1)(1 - L2) sends beta_i (x) beta_j to the (i, j) coefficient of
b(x + y - xy) / (b(x) b(y)) with b(t) = 1 + b1 t + ..., and the inverse
Adams operation acts as the ring map b_i -> sum_j A_ij b_j with the same
pairing matrix as on the beta basis.  Every identity among the a_ij and the
d_k can be checked in this faithful model with plain linear algebra, fully
independent of the 2-structure relation machinery.
"""

from fractions import Fraction

from fglab.adams import dmonomials_upto, nki_coeffs, psi_power_coeff
from fglab.series import MultiSeries

from helpers import compose


class BUOracle:
    def __init__(self, W: int):
        self.W = W
        bvars = tuple(f"b{i}" for i in range(1, W + 1))
        self.vars = ("x", "y") + bvars
        self.weights = (1, 1) + (0,) * W
        tvars = ("t",) + bvars
        terms = {(0,) * (W + 1): Fraction(1)}
        for i in range(1, W + 1):
            e = [0] * (W + 1)
            e[0] = i
            e[i] = 1
            terms[tuple(e)] = Fraction(1)
        bt = MultiSeries(tvars, terms, W, (1,) + (0,) * W)
        x = self._var("x")
        y = self._var("y")
        self.S = (compose(bt, "t", x + y - x * y)
                  * compose(bt, "t", x).reciprocal()
                  * compose(bt, "t", y).reciprocal())
        self._psi_subs = None
        self._dval = {}

    def _var(self, n, p=1):
        return MultiSeries.var(self.vars, n, self.W, self.weights, power=p)

    def a(self, i, j):
        if i == 0 and j == 0:
            return MultiSeries.one(self.vars, self.W, self.weights)
        if i == 0 or j == 0:
            return MultiSeries.zero(self.vars, self.W, self.weights)
        return self.S.coeff_in_var("x", i).coeff_in_var("y", j)

    def psi(self, series):
        if self._psi_subs is None:
            subs = {}
            for i in range(1, self.W + 1):
                s = MultiSeries.zero(self.vars, self.W, self.weights)
                for j in range(1, i + 1):
                    c = psi_power_coeff(3, j, i)
                    if c:
                        s = s + self._var(f"b{j}").scale(Fraction(c))
                subs[f"b{i}"] = s
            self._psi_subs = subs
        return series.substitute(self._psi_subs)

    def d(self, k):
        if k not in self._dval:
            acc = MultiSeries.zero(self.vars, self.W, self.weights)
            for i, c in nki_coeffs(k, "auto").items():
                acc = acc + self.a(i, k - i).scale(Fraction(c))
            self._dval[k] = acc
        return self._dval[k]

    def eval_apoly(self, poly, u=Fraction(1)):
        total = MultiSeries.zero(self.vars, self.W, self.weights)
        for (ue, pairs), c in poly.terms.items():
            piece = MultiSeries.constant(self.vars, c * Fraction(u) ** ue,
                                         self.W, self.weights)
            for (i, j), e in pairs:
                aij = self.a(i, j)
                for _ in range(e):
                    piece = piece * aij
            total = total + piece
        return total

    def solve_in_d(self, target, weight):
        """Unique coordinates of target in the d-monomial basis, or None."""
        monos = dmonomials_upto(weight)
        polys = []
        for m in monos:
            p = MultiSeries.one(self.vars, self.W, self.weights)
            for k in m:
                p = p * self.d(k)
            polys.append(p)
        rows = sorted(set().union(set(target.terms), *[set(p.terms) for p in polys]))
        ridx = {r: i for i, r in enumerate(rows)}
        A = [[Fraction(0)] * len(monos) for _ in rows]
        b = [Fraction(0)] * len(rows)
        for j, p in enumerate(polys):
            for e, c in p.terms.items():
                A[ridx[e]][j] = c
        for e, c in target.terms.items():
            b[ridx[e]] = c
        sol, unique = _solve_exact(A, b)
        if sol is None or not unique:
            return None
        return {monos[j]: sol[j] for j in range(len(monos)) if sol[j]}

    def psi_dk_coords(self, k):
        return self.solve_in_d(self.psi(self.d(k)), k)


# A dense Gauss-Jordan solve, kept here so the oracle shares no linear
# algebra with the reducer it checks.
def _solve_exact(A, b):
    """Solve A x = b over Q; returns (solution, unique_flag) or (None, False)."""
    m = len(A)
    n = len(A[0]) if A else 0
    M = [row[:] + [b[i]] for i, row in enumerate(A)]
    piv_cols = []
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, m):
            if M[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = 1 / M[r][c]
        M[r] = [a * inv for a in M[r]]
        for i in range(m):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [a - f * bb for a, bb in zip(M[i], M[r])]
        piv_cols.append(c)
        r += 1
    for i in range(r, m):
        if M[i][n] != 0:
            return None, False
    x = [Fraction(0)] * n
    for row, c in zip(M, piv_cols):
        x[c] = row[n]
    return x, len(piv_cols) == n
