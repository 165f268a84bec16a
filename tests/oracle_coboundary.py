"""Independent oracle for the 2-structure relations: coboundaries.

The coboundary g(x) g(y) / g(x +. y) of any g = 1 + g_1 x + ... is a
2-structure, so every universal relation among the a_ij must vanish on its
coefficients.
"""

from fractions import Fraction

from fglab.series import MultiSeries


def coboundary_apoly_values(g_coeffs, wmax):
    """a_ij values of the coboundary g(x)g(y)/g(x +. y) at u = 1.

    ``g_coeffs``: rational coefficients (g_1, g_2, ...) of g = 1 + g_1 x + ...
    Returns {(i,j): Fraction} for i+j <= wmax.
    """
    vars_ = ("x", "y")
    bound = wmax
    g = [Fraction(1)] + [Fraction(c) for c in g_coeffs]
    while len(g) <= wmax:
        g.append(Fraction(0))

    def gx(var):
        return MultiSeries(vars_, {tuple(n if v == var else 0 for v in vars_): g[n]
                                   for n in range(0, bound + 1)}, bound)

    xv = MultiSeries.var(vars_, "x", bound)
    yv = MultiSeries.var(vars_, "y", bound)
    s = xv + yv - xv * yv  # u = 1
    # g(s)
    gs = MultiSeries.zero(vars_, bound)
    p = MultiSeries.one(vars_, bound)
    for n in range(0, bound + 1):
        if n > 0:
            p = p * s
        gs = gs + p.scale(g[n])
    f = gx("x") * gx("y") * gs.reciprocal()
    out = {}
    for (i, j), c in f.terms.items():
        if i >= 1 and j >= 1:
            out[(i, j)] = c
    return out


def apoly_eval(poly, avals: dict, u=Fraction(1)) -> Fraction:
    """An adams.APoly evaluated at a_ij = avals[(i, j)] (0 when absent)."""
    total = Fraction(0)
    for (ue, pairs), c in poly.terms.items():
        val = c * Fraction(u) ** ue
        for (i, j), e in pairs:
            val *= avals.get((i, j), avals.get((j, i), Fraction(0))) ** e
        total += val
    return total
