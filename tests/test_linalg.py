from fractions import Fraction

from hypothesis import given, settings, strategies as st

from fglab.chern import nullspace_rational, rref, span_test
from fglab.linalg import Echelon, GF2Echelon

from helpers import matvec

rows = st.lists(
    st.dictionaries(st.integers(0, 7), st.fractions(min_value=-5, max_value=5,
                                                    max_denominator=4).filter(bool),
                    max_size=5),
    max_size=8)


def _axpy(acc, f, row):
    for j, c in row.items():
        acc[j] = acc.get(j, Fraction(0)) + f * c
    return {j: c for j, c in acc.items() if c}


def _monic(nums, den):
    """An `Echelon` row, kept as numerators over den, as {column: Fraction}."""
    return {j: Fraction(v, den) for j, v in nums.items()}


def _split(row, m):
    """(the data above column m shifted down to 0, the unit columns below m)."""
    return {j - m: c for j, c in row.items() if j >= m}, {j: c for j, c in row.items() if j < m}


@settings(max_examples=200, deadline=None)
@given(rows, st.dictionaries(st.integers(0, 7), st.integers(-3, 3).filter(bool)))
def test_reduce_and_combinations(inputs, target):
    ech = Echelon()
    kept = [ech.add(r) for r in inputs]
    pivots = [p for p, _, _ in ech.rows]
    assert pivots == sorted(pivots)
    for p, nums, den in ech.rows:
        assert max(nums) == p and nums[p] == den > 0 and 0 not in nums.values()
    assert sum(map(bool, kept)) == len(ech.rows)
    rem = ech.reduce(target)
    assert not set(rem) & set(pivots) and all(type(c) is Fraction and c for c in rem.values())
    # augmented: input k carries a unit column k below its data, moved up by m
    m = len(inputs)
    aug = Echelon()
    for k, r in enumerate(inputs):
        aug.add({**{j + m: c for j, c in r.items()}, k: 1})
    assert sum(p >= m for p, _, _ in aug.rows) == len(ech.rows)
    for _, nums, den in aug.rows:
        # every echelon row's data is the combination of inputs its unit columns name
        data, combo = _split(_monic(nums, den), m)
        acc = {}
        for k, c in combo.items():
            acc = _axpy(acc, c, inputs[k])
        assert acc == data
    data, combo = _split(aug.reduce({j + m: c for j, c in target.items()}), m)
    assert data == rem
    acc = dict(rem)
    for k, c in combo.items():
        acc = _axpy(acc, -c, inputs[k])
    assert acc == {j: Fraction(c) for j, c in target.items()}


def _xor(inputs, combo):
    acc = 0
    for k, r in enumerate(inputs):
        if combo >> k & 1:
            acc ^= r
    return acc


bitsets = st.integers(0, (1 << 12) - 1)


@settings(max_examples=200, deadline=None)
@given(st.lists(bitsets, max_size=8), bitsets)
def test_gf2_reduce_and_combinations(inputs, target):
    ech = GF2Echelon()
    kept = [ech.add(r) for r in inputs]
    for i, rem in enumerate(kept):
        # brute force: the remainder is 0 iff some subset of the earlier inputs XORs to this one
        assert (rem == 0) == any(_xor(inputs[:i], s) == inputs[i] for s in range(1 << i))
    pivots = [p for p, _ in ech.rows]
    assert pivots == sorted(pivots)
    for p, r in ech.rows:
        assert r.bit_length() - 1 == p
    assert sum(map(bool, kept)) == len(ech.rows)
    rem = ech.reduce(target)
    assert not any(rem >> p & 1 for p in pivots)
    # brute force: the target is in the span iff some subset XORs to it
    in_span = any(_xor(inputs, s) == target for s in range(1 << len(inputs)))
    assert (rem == 0) == in_span
    # augmented: input k carries bit k below its data, moved up by m
    m = len(inputs)
    aug = GF2Echelon()
    for k, r in enumerate(inputs):
        got = aug.add(r << m | 1 << k)
        # the remainder is the XOR of the inputs its low bits name, this one included
        assert (got & ((1 << m) - 1)) >> k == 1
        assert _xor(inputs, got) == got >> m
        assert (got >> m == 0) == (kept[k] == 0)
    assert sum(p >= m for p, _ in aug.rows) == len(ech.rows)
    for _, r in aug.rows:
        assert _xor(inputs, r) == r >> m
    got = aug.reduce(target << m)
    assert got >> m == rem
    assert rem ^ _xor(inputs, got) == target


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=1, max_size=5)))
def test_rref_and_nullspace(rows):
    ncols = len(rows[0])
    red, pivots = rref(rows)
    assert len(red) == len(pivots)
    assert all(a < b for a, b in zip(pivots, pivots[1:]))
    for i, (row, pc) in enumerate(zip(red, pivots)):
        assert not any(row[:pc]) and row[pc] == 1
        assert [r[pc] for r in red] == [int(k == i) for k in range(len(red))]
    # every input row is the RREF combination weighted by its pivot entries
    for r in rows:
        assert [sum(r[pc] * row[c] for row, pc in zip(red, pivots)) for c in range(ncols)] == r
    ns = nullspace_rational(rows)
    assert len(ns) == ncols - len(pivots)
    for v in ns:
        assert not any(matvec(rows, v))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_span_test_is_the_rref_rank_test(data):
    """v lies in the span of vs exactly when adding it to vs adds no RREF pivot;
    v is a rational combination of vs, plus a random vector or not."""
    n = data.draw(st.integers(1, 5))
    vec = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    vs = data.draw(st.lists(vec, max_size=4))
    cs = data.draw(st.lists(st.fractions(-2, 2, max_denominator=3), min_size=len(vs), max_size=len(vs)))
    noise = data.draw(st.one_of(st.just([0] * n), vec))
    v = [sum(c * r[j] for c, r in zip(cs, vs)) + x for j, x in enumerate(noise)]
    assert span_test(vs)(v) == (len(rref(vs + [v])[1]) == len(rref(vs)[1]))
