from fractions import Fraction

from hypothesis import given, settings, strategies as st

from fglab.linalg import Echelon

rows = st.lists(
    st.dictionaries(st.integers(0, 7), st.fractions(min_value=-5, max_value=5,
                                                    max_denominator=4).filter(bool),
                    max_size=5),
    max_size=8)


def _axpy(acc, f, row):
    for j, c in row.items():
        acc[j] = acc.get(j, Fraction(0)) + f * c
    return {j: c for j, c in acc.items() if c}


@settings(max_examples=200, deadline=None)
@given(rows, st.dictionaries(st.integers(0, 7), st.integers(-3, 3).filter(bool)))
def test_reduce_and_combinations(inputs, target):
    ech = Echelon()
    independent = [ech.add(r, key=i) for i, r in enumerate(inputs)]
    for p, r in ech.rows.items():
        assert max(r) == p and r[p] == 1
        # every echelon row is the combination of inputs it records
        acc = {}
        for k, c in ech.combos[p].items():
            acc = _axpy(acc, c, inputs[k])
        assert acc == r
    assert sum(independent) == len(ech.rows)
    rem, used = ech.reduce(target)
    assert not set(rem) & set(ech.rows)
    acc = dict(rem)
    for k, c in ech.combination(used).items():
        acc = _axpy(acc, c, inputs[k])
    assert acc == {j: Fraction(c) for j, c in target.items()}
