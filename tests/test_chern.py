import random
from fractions import Fraction
from itertools import permutations
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from fglab.chern import (IntMatrix, ProjProduct, chern_monomials_with_c1,
                         chern_number, in_span, integer_reduce, monomial_label,
                         nullspace_rational, partitions, paper_dim8_basis, rref, same_row_space,
                         su_constraint_system, todd_t4, total_chern)
from fglab.errors import DimensionMismatch

from helpers import RANDOM_SEED, chern_number_by_series, matvec, total_chern_by_series


def cells(tc):
    return {tuple(e for e in exp): c for exp, c in tc.terms.items()}


def test_proj_product_equality_ignores_order():
    p, q = ProjProduct([1, 3]), ProjProduct([3, 1])
    assert p == q and hash(p) == hash(q) and len({p, q}) == 1
    assert p.label() == q.label() == "CP1xCP3"
    assert q.dims == (3, 1) and p != ProjProduct([1, 1, 3])
    # the given order still names the variables x1..xr
    assert cells(total_chern(q))[(1, 0)] == 4


def test_total_chern_cp1():
    tc = total_chern(ProjProduct([1]))
    assert cells(tc) == {(0,): 1, (1,): 2}


def test_total_chern_cp4():
    tc = total_chern(ProjProduct([4]))
    assert cells(tc) == {(0,): 1, (1,): 5, (2,): 10, (3,): 10, (4,): 5}


def test_total_chern_cp1_cp3():
    tc = total_chern(ProjProduct([1, 3]))
    assert cells(tc) == {(0, 0): 1, (1, 0): 2, (0, 1): 4, (1, 1): 8, (0, 2): 6,
                         (1, 2): 12, (0, 3): 4, (1, 3): 8}


def test_total_chern_cp1_four():
    tc = total_chern(ProjProduct([1, 1, 1, 1]))
    deg4 = tc.degree_part(4)
    assert cells(deg4) == {(1, 1, 1, 1): 16}
    deg1 = tc.degree_part(1)
    assert all(c == 2 for c in deg1.terms.values()) and len(deg1.terms) == 4


def test_total_chern_cp1sq_cp2():
    tc = total_chern(ProjProduct([1, 1, 2]))
    assert cells(tc.degree_part(2)) == {(1, 1, 0): 4, (1, 0, 1): 6, (0, 1, 1): 6,
                                        (0, 0, 2): 3}
    assert cells(tc.degree_part(4)) == {(1, 1, 2): 12}


def test_chern_numbers_paper_values():
    basis = paper_dim8_basis()
    rows = {
        (1, 1, 1, 1): [625, 512, 486, 384, 432],
        (3, 1): [50, 56, 54, 64, 60],
        (2, 1, 1): [250, 224, 216, 192, 204],
    }
    for mono, values in rows.items():
        for p, v in zip(basis, values):
            assert chern_number(p, mono) == v, (mono, p)


def test_chern_number_c2sq_brute_force():
    # (3x1^2 + 9x1x2 + 3x2^2)^2, coefficient of x1^2 x2^2: 2*3*3 + 81 = 99
    p = ProjProduct([2, 2])
    c2 = total_chern(p).degree_part(2)
    sq = c2 * c2
    assert sq.coefficient(p.dims) == 99
    assert chern_number(p, (2, 2)) == 99


def test_chern_number_dimension_check():
    with pytest.raises(DimensionMismatch):
        chern_number(ProjProduct([2]), (1,))


def test_chern_number_multiplicative_under_products():
    rng = random.Random(RANDOM_SEED)
    smalls = [ProjProduct([1]), ProjProduct([2]), ProjProduct([3]), ProjProduct([1, 1])]
    for _ in range(10):
        p1 = rng.choice(smalls)
        p2 = rng.choice(smalls)
        prod = ProjProduct(list(p1.dims) + list(p2.dims))
        # monomial that splits across factors: top Chern class of each
        m1 = (p1.complex_dim,)
        m2 = (p2.complex_dim,)
        lhs = chern_number(prod, tuple(sorted(m1 + m2, reverse=True)))
        # c_top(p1 x p2) in split form: sum over splittings; compare the
        # simplest instance via the Whitney product on disjoint variables
        assert lhs == chern_number_by_series(prod.dims, sorted(m1 + m2, reverse=True))


def _truncated_chern_number(dims, monomial):
    """The Chern number in Z[x1..xr]/(x_i^(n_i+1)), built from (1 + x_i)^(n_i+1)
    with the quotient applied after every product."""
    def mul(a, b):
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(map(add, e1, e2))
                if all(x <= n for x, n in zip(e, dims)):
                    out[e] = out.get(e, 0) + c1 * c2
        return out

    one = {(0,) * len(dims): 1}
    total = one
    for i, n in enumerate(dims):
        one_plus_xi = {**one, tuple(int(j == i) for j in range(len(dims))): 1}
        for _ in range(n + 1):
            total = mul(total, one_plus_xi)
    acc = one
    for idx in monomial:
        acc = mul(acc, {e: c for e, c in total.items() if sum(e) == idx})
    return acc.get(tuple(dims), 0)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=3))
def test_chern_number_matches_truncated_brute_force(dims):
    p = ProjProduct(dims)
    for mono in partitions(p.complex_dim):
        assert chern_number(p, mono) == _truncated_chern_number(p.dims, mono), mono


def ordered_dims(dim):
    """Every ordered dims tuple of complex dimension ``dim``."""
    return sorted({q for p in partitions(dim) for q in permutations(p)})


def test_chern_number_equals_series_oracle():
    for dim in range(1, 8):
        for dims in ordered_dims(dim):
            p = ProjProduct(dims)
            for mono in partitions(dim):
                got = chern_number(p, mono)
                assert type(got) is int and got == chern_number_by_series(dims, mono), (dims, mono)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=2, max_size=4), st.data())
def test_chern_numbers_do_not_depend_on_the_order_of_dims(dims, data):
    shuffled = data.draw(st.permutations(dims))
    p, q = ProjProduct(dims), ProjProduct(shuffled)
    for mono in partitions(p.complex_dim):
        assert chern_number(q, mono) == chern_number(p, mono), (shuffled, mono)


def test_total_chern_matches_the_series_product_on_the_paper_basis():
    for p in paper_dim8_basis():
        for dims in sorted(set(permutations(p.dims))):
            tc = total_chern(ProjProduct(dims))
            assert tc == total_chern_by_series(dims), dims
            assert all(type(c) is Fraction for c in tc.terms.values())


def test_constraint_monomials():
    assert chern_monomials_with_c1(4) == [(1, 1, 1, 1), (3, 1), (2, 1, 1)]
    assert [monomial_label(m) for m in chern_monomials_with_c1(4)] == \
        ["c1^4", "c1*c3", "c1^2*c2"]
    assert chern_monomials_with_c1(2) == [(1, 1)]


def test_su_constraint_system_paper():
    m = su_constraint_system(paper_dim8_basis(), 4)
    assert m.rows == [[625, 512, 486, 384, 432],
                      [50, 56, 54, 64, 60],
                      [250, 224, 216, 192, 204]]


def test_su_constraint_system_dim2():
    m = su_constraint_system([ProjProduct([1, 1]), ProjProduct([2])], 2)
    assert m.rows == [[8, 9]]
    ns = nullspace_rational(m)
    assert len(ns) == 1
    assert in_span(ns, [9, -8])
    # K3 ~ 18 (CP1)^2 - 16 CP2 = 2 * (9, -8)
    assert in_span(ns, [18, -16])


def test_integer_reduce_identity():
    m = IntMatrix([[1, 0], [0, 1]])
    assert integer_reduce(m).rows == [[1, 0], [0, 1]]


def test_integer_reduce_paper_system():
    m = su_constraint_system(paper_dim8_basis(), 4)
    red = integer_reduce(m)
    paper = [[25, 8, 0, 0, 0], [0, 4, 0, 16, 9], [0, 0, -27, 48, 15]]
    assert same_row_space(red.rows, paper)


def test_integer_reduce_preserves_row_space_random():
    rng = random.Random(RANDOM_SEED)
    for _ in range(20):
        rows = [[rng.randint(-30, 30) for _ in range(5)] for _ in range(rng.randint(1, 4))]
        m = IntMatrix(rows)
        red = integer_reduce(m)
        assert same_row_space(red.rows, rows) or (not red.rows and all(not any(r) for r in rows))
        # rank agreement
        assert len(rref(rows)[1]) == len(red.rows)


def test_integer_reduce_unimodular_entries():
    # canonical form: positive pivots, entries above reduced into [0, pivot)
    m = IntMatrix([[4, 2, 8], [2, 2, 2]])
    red = integer_reduce(m)
    for i, row in enumerate(red.rows):
        piv_col = next(j for j, a in enumerate(row) if a)
        assert row[piv_col] > 0
        for above in red.rows[:i]:
            assert 0 <= above[piv_col] < row[piv_col]


def test_nullspace_trivial():
    ns = nullspace_rational(IntMatrix([[0, 0, 0]]))
    assert len(ns) == 3


def test_nullspace_paper_solutions():
    m = su_constraint_system(paper_dim8_basis(), 4)
    ns = nullspace_rational(m)
    assert len(ns) == 2
    k3sq = [0, 0, 256, 324, -576]
    n_vec = [8, -25, -12, -23, 52]
    assert in_span(ns, k3sq)
    assert in_span(ns, n_vec)
    for v in (k3sq, n_vec):
        assert all(x == 0 for x in matvec(m, v))


def test_nullspace_exactness_random():
    rng = random.Random(RANDOM_SEED)
    for _ in range(20):
        rows = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(3)]
        m = IntMatrix(rows)
        for v in nullspace_rational(m):
            assert all(x == 0 for x in matvec(m, v))


def test_todd_t4_values():
    assert todd_t4(0, 0, 0, 0, 0) == 0
    assert todd_t4(0, 0, 0, 1, 0) == Fraction(1, 240)
    assert todd_t4(625, 50, 250, 100, 5) == 1


def test_todd_cp4_inputs_from_chern_numbers():
    p = ProjProduct([4])
    inputs = [chern_number(p, m) for m in [(1, 1, 1, 1), (3, 1), (2, 1, 1), (2, 2), (4,)]]
    assert inputs == [625, 50, 250, 100, 5]
    assert todd_t4(*inputs) == 1
