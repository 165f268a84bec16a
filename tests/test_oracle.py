"""Cross-checks of the relation-based pipeline against the independent
classifying-space model (tests/oracle_bu.py)."""

from fractions import Fraction

import pytest

from hypothesis import given, settings, strategies as st

from fglab.adams import APoly, DPoly, nki_coeffs, psi_power_coeff
from fglab.cannibal import theta3_closed, theta_unit, thom_psi_dk

from helpers import agen, apoly_mul, poly_add
from oracle_bu import BUOracle


@pytest.fixture(scope="module")
def oracle10():
    return BUOracle(10)


def test_oracle_self_consistency(oracle10):
    """Naturality: the ring-map action of psi on the model agrees with the
    tensor-factorized matrix action on every a_ij."""
    for i in range(1, 5):
        for j in range(i, 6 - i + 2):
            if i + j > 7:
                continue
            lhs = oracle10.psi(oracle10.a(i, j))
            rhs_terms = None
            from fglab.series import MultiSeries
            rhs = MultiSeries.zero(oracle10.vars, oracle10.W, oracle10.weights)
            for m in range(0, i + 1):
                cm = psi_power_coeff(3, m, i)
                if not cm:
                    continue
                for n in range(0, j + 1):
                    cn = psi_power_coeff(3, n, j)
                    if not cn:
                        continue
                    rhs = rhs + oracle10.a(m, n).scale(Fraction(cm * cn))
            assert lhs == rhs, (i, j)


def test_oracle_dk_images_independent(oracle10):
    """The d-monomial images in the model are linearly independent, so the
    coordinate solve is unique (quotient genuinely polynomial)."""
    coords = oracle10.solve_in_d(oracle10.d(5) * oracle10.d(2), 7)
    assert coords == {(2, 5): 1}


def test_reducer_matches_oracle_through_weight_10(reducer10, oracle10):
    for k in range(2, 11):
        want = oracle10.psi_dk_coords(k)
        assert want is not None, k
        assert thom_psi_dk(k, theta_unit(10), reducer10) == DPoly(want), k


A_GENS = [(i, j) for i in range(1, 6) for j in range(i, 11 - i)]


@st.composite
def targets_upto_10(draw):
    """A rational combination of a-monomials of halved weight <= 10."""
    total = APoly()
    for _ in range(draw(st.integers(1, 4))):
        mono, weight = agen(0, 0, draw(st.fractions(max_denominator=9).filter(bool))), 0
        for i, j in draw(st.lists(st.sampled_from(A_GENS), min_size=1, max_size=4)):
            if weight + i + j <= 10:
                mono, weight = apoly_mul(mono, agen(i, j)), weight + i + j
        total = poly_add(total, mono)
    return total


@settings(max_examples=12, deadline=None)
@given(targets_upto_10())
def test_reduce_matches_oracle_on_random_targets(reducer10, oracle10, target):
    """The substitution reducer and the classifying-space model's own
    coordinate solve agree on arbitrary targets, not only on psi(d_k)."""
    want = oracle10.solve_in_d(oracle10.eval_apoly(target), 10)
    assert want is not None
    assert reducer10.reduce(target) == DPoly(want)


def test_thom_matches_oracle(reducer10, thom_table10, oracle10):
    """Lemma-7-style pairing evaluated wholly inside the model."""
    from fglab.series import MultiSeries
    for k in range(2, 11):
        total = MultiSeries.zero(oracle10.vars, oracle10.W, oracle10.weights)
        for i, cnk in nki_coeffs(k, "auto").items():
            for m in range(0, i + 1):
                for n in range(0, k - i + 1):
                    c = theta3_closed(m, n)
                    if not c:
                        continue
                    total = total + oracle10.psi(oracle10.a(i - m, k - i - n)).scale(
                        Fraction(cnk) * c)
        coords = oracle10.solve_in_d(total, k)
        assert coords is not None, k
        assert DPoly(coords) == thom_table10[k], k


def test_reducer_matches_oracle_at_weight_11(reducer11):
    """One cross-check above the paper's range, where n_11^i come from the
    extended-gcd rows."""
    assert thom_psi_dk(11, theta_unit(11), reducer11) == DPoly(BUOracle(11).psi_dk_coords(11))
