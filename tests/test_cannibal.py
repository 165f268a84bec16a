from fractions import Fraction

import pytest

from hypothesis import given, settings, strategies as st

from fglab.adams import DPoly, DReducer, gen_2structure_relations
from fglab.cannibal import (ThetaGenSeq, _q_inverse, theta3_closed, theta3_direct,
                            theta_gen_closed, theta_unit, thom_psi_dk)
from fglab.errors import EvenK, NotReducible
from fglab.series import MultiSeries

from helpers import (composition_failures, orientation_transport, padic_from_rat, poly_sub,
                     psi_on_dk_by_apoly, theta3_bilinear, theta3_bivariate, theta3_one_bundle,
                     theta3_sum_of_two, theta_k_virtual, theta_table_to_series,
                     thom_psi_dk_by_fractions)


def test_tseq_first_values():
    ts = ThetaGenSeq(10)
    assert ts[0] == Fraction(1, 3)
    assert ts[1] == Fraction(1, 3)
    assert ts[2] == Fraction(2, 9)
    assert ts[5] == 0
    assert ts[6] == Fraction(-1, 81)


def test_tseq_closed_forms_to_60():
    ts = ThetaGenSeq(60)
    for k in range(61):
        assert ts[k] == theta_gen_closed(k), k


@pytest.mark.parametrize("N", [0, 1, 2, 5, 6, 11, 60, 300])
def test_tseq_is_the_q_inverse_over_powers_of_3(N):
    """Dividing out the power of 3 in S_0[n] first leaves every t_n exact."""
    assert ThetaGenSeq(N).t == [Fraction(s, 3 ** (n + 1)) for n, s in enumerate(_q_inverse(3, N))]


@pytest.mark.parametrize("N", range(31))
def test_theta3_direct_equals_bivariate_division(N):
    """The separable one-variable route gives the bivariate division's table,
    cell for cell, as Fractions."""
    got = theta3_direct(N)
    assert got.bound == N
    assert got.table == theta3_bivariate(N).table
    assert all(type(c) is Fraction for c in got.table.values())


def test_theta_table_boundary(theta30):
    assert theta30[0, 0] == 1
    for n in range(1, 31):
        assert theta30[0, n] == 0
        assert theta30[n, 0] == 0
    ts = ThetaGenSeq(32)
    for n in range(1, 30):
        assert theta30[1, n] == 3 * ts[n + 1], n


def test_theta_table_symmetric_and_closed(theta30):
    ts = ThetaGenSeq(62)
    for m in range(31):
        for n in range(31):
            assert theta30[m, n] == theta30[n, m]
            assert theta30[m, n] == theta3_closed(m, n), (m, n)
            assert theta30[m, n] == theta3_bilinear(m, n, ts), (m, n)


def test_theta_vanishing_class(theta30):
    for m in range(2, 31):
        for n in range(2, 31):
            if (m - n) % 6 == 3:
                assert theta30[m, n] == 0, (m, n)


def test_theta_sample_cells(theta30):
    assert theta30[1, 1] == Fraction(2, 3)
    assert theta30[2, 2] == Fraction(2, 9)
    assert theta30[1, 3] == Fraction(1, 9)
    assert theta30[0, 3] == 0


@pytest.mark.xfail(strict=True,
                   reason="paper misprint: the condensed residue rule assigns +2 to all "
                          "m - n = 0 mod 6, but the block closed form carries a sign "
                          "(-1)^(floor(m/6)+floor(n/6)); at m - n = 6 mod 12 the true "
                          "value is negative (first at c_{2,8} = -2/243)")
def test_theta_condensed_rule_as_printed(theta30):
    m, n = 2, 8
    assert theta30[m, n] == Fraction(2, 3 ** ((m + n) // 2))


def test_theta_denominators_are_3_powers(theta30):
    for (m, n), c in theta30.table.items():
        d = c.denominator
        while d % 3 == 0:
            d //= 3
        assert d == 1, (m, n)
        # hence 2-adically integral
        padic_from_rat(c, 16)


def test_theta_multiplicativity_on_line_bundle_sums():
    """theta of the sum (1-L1) + (1-L2) equals the product of the one-bundle
    factors; the two sides go through independent series routes."""
    N = 8
    vars_ = ("x", "y")
    prod = theta3_one_bundle("x", vars_, 2 * N) * theta3_one_bundle("y", vars_, 2 * N)
    assert theta3_sum_of_two(N) == prod


def test_theta_k_virtual_unit():
    one = theta_k_virtual(1, 8)
    assert one == MultiSeries.one(("x", "y"), 16)
    with pytest.raises(EvenK):
        theta_k_virtual(2, 8)


def test_theta_k3_transport_equals_direct(theta30):
    """The dual-orientation form transported along x' = -x/(1-x) equals the
    primary table."""
    N = 8
    virt = theta_k_virtual(3, N)
    transported = orientation_transport(virt, N)
    for m in range(N + 1):
        for n in range(N + 1):
            if m + n <= N:
                assert transported.coefficient((m, n)) == theta30[m, n], (m, n)


def test_theta3_invariant_under_dual_orientation(theta30):
    """theta^3 is fixed by the simultaneous substitution x -> -x/(1-x),
    y -> -y/(1-y) (invariance under L -> L^*)."""
    N = 8
    tab = theta3_direct(N)
    s = theta_table_to_series(tab)
    moved = orientation_transport(s, N)
    for m in range(N + 1):
        for n in range(N + 1):
            if m + n <= N:
                assert moved.coefficient((m, n)) == tab[m, n], (m, n)


@pytest.mark.parametrize("k", [1, 3, 5, 7, 9])
def test_theta_k_direct_equals_bivariate_oracle(k):
    """The one-variable split on ints gives, for every odd k, the table of the
    dual-orientation bivariate division transported to x = 1 - L, in every
    cell m, n <= N, as Fractions with k-power denominators."""
    N = 8
    got = theta3_direct(N, k)
    oracle = orientation_transport(theta_k_virtual(k, N), N)
    for m in range(N + 1):
        for n in range(N + 1):
            assert got[m, n] == oracle.coefficient((m, n)), (k, m, n)
    for (m, n), c in got.table.items():
        assert type(c) is Fraction
        assert k ** (m + n + 2) % c.denominator == 0, (k, m, n)


@pytest.mark.parametrize("N", [0, 1, 5, 12])
def test_theta_k1_is_the_unit_class(N):
    assert theta3_direct(N, 1).table == theta_unit(N).table


@pytest.mark.parametrize("k", [0, 2, 4, -1])
def test_theta_k_direct_refuses_even_or_nonpositive_k(k):
    with pytest.raises(EvenK):
        theta3_direct(4, k)


def test_thom_psi_composition_sees_a_wrong_theta3_cell(reducer14):
    """One wrong cell of theta^3 breaks the Thom-level composition: c_12 = c_21
    raised by 1/9 fails (3, 5) at n = 3, 6, 8, 9, 10, 12 and 14."""
    def wrong(N, k):
        tab = theta3_direct(N, k)
        if k == 3:
            tab.table[1, 2] = tab.table[2, 1] = tab[1, 2] + Fraction(1, 9)
        return tab

    assert composition_failures(reducer14, 3, 5, wrong) == [3, 6, 8, 9, 10, 12, 14]


THOM_COMPUTED = {
    2: {(2,): 9, (): Fraction(2, 3)},
    3: {(3,): 27, (2,): -9, (): Fraction(1, 3)},
    4: {(4,): 81, (2,): 12, (): Fraction(1, 9)},
    5: {(5,): 243, (4,): -486, (3,): -198, (2, 2): 243},
}


def test_thom_psi_dk_computed(thom_table10):
    for k, want in THOM_COMPUTED.items():
        assert thom_table10[k] == DPoly(want), k


@pytest.mark.xfail(strict=True,
                   reason="paper misprint: printed Thom-level d4 (81d4 + 2d2 + 1/3) and "
                          "d5 disagree with the values forced by Bott's formula applied "
                          "to the printed c-table and beta-table; computed values are "
                          "81d4 + 12d2 + 1/9 and the corrected base-level d5")
def test_thom_psi_dk_as_printed(thom_table10):
    assert thom_table10[4] == DPoly({(4,): 81, (2,): 2, (): Fraction(1, 3)})
    assert thom_table10[5] == DPoly({(5,): 243, (4,): 486, (3,): 288, (2, 2): -243})


def test_thom_mod2_rows_match_paper(thom_table10):
    mod2 = {k: thom_table10[k].mod2() for k in (2, 3, 4, 5)}
    assert mod2[2] == DPoly({(2,): 1})
    assert mod2[3] == DPoly({(3,): 1, (2,): 1, (): 1})
    assert mod2[4] == DPoly({(4,): 1, (): 1})
    assert mod2[5] == DPoly({(5,): 1, (2, 2): 1})


def test_thom_d5_coincides_with_base_level(reducer10, thom_table10):
    """The t-sequence zero t_5 = 0 kills every cannibalistic correction."""
    assert thom_table10[5] == thom_psi_dk(5, theta_unit(10), reducer10)


# psi on d_6, d_8 and d_10 with the extended-gcd n_k^i defining the d_k, at
# the base and the Thom level
EXTENDED_GCD_PSI_DK = {
    6: ("-d2 + 1836*d3 - 1863*d2^2 + 4347*d4 - 4131*d2*d3 + 3645*d5 + 729*d6",
        "19/27 - 3*d2 + 1989*d3 - 2187*d2^2 + 4941*d4 - 4131*d2*d3 + 3645*d5 + 729*d6"),
    8: ("-273576*d3 + 273627*d2^2 - 547182*d4 + 4752594*d2*d3 - 6228414*d5 - 4477518*d2^3"
        " + 8689923*d2*d4 + 2126736*d3^2 - 801900*d6 - 159651*d2^2*d3 + 159651*d2*d5"
        " + 306180*d3*d4 - 139968*d7 + 6561*d8",
        "-83/81 - 288483*d3 + 288585*d2^2 - 576972*d4 + 4991706*d2*d3 - 6533217*d5"
        " - 4703994*d2^3 + 9129753*d2*d4 + 2226852*d3^2 - 841752*d6 - 159651*d2^2*d3"
        " + 159651*d2*d5 + 306180*d3*d4 - 139968*d7 + 6561*d8"),
    10: ("-11329479492*d3 + 11329479492*d2^2 - 22658959056*d4 + 244878767622*d2*d3"
         " - 265865164785*d5 - 233549286687*d2^3 + 455769086850*d2*d4 + 98364234384*d3^2"
         " - 33988436244*d6 - 770139652626*d2^2*d3 + 978144175053*d2*d5 + 46504194498*d3*d4"
         " - 47342653848*d7 + 715420894401*d2^4 - 1408856236470*d2^2*d4 - 308074462506*d2*d3^2"
         " + 124355273814*d2*d6 + 13910385069*d3*d5 + 38680487037*d4^2 + 1511335098*d8"
         " - 4083435180*d2^3*d3 + 105697710*d2^2*d5 + 7924985973*d2*d3*d4 - 105697710*d2*d7"
         " + 1809891216*d3^3 - 725968089*d3*d6 - 241884387*d4*d5 + 31118823*d9 + 59049*d10",
         "22/27 - 11339781756*d3 + 11339781756*d2^2 - 22679563668*d4 + 245103550830*d2*d3"
         " - 266106919923*d5 - 233763765291*d2^3 + 456187740858*d2*d4 + 98454667806*d3^2"
         " - 34019339688*d6 - 770880768606*d2^2*d3 + 979085147841*d2*d5 + 46549529550*d3*d4"
         " - 47388946077*d7 + 716109077691*d2^4 - 1410211441638*d2^2*d4 - 308374982550*d2*d3^2"
         " + 124474893966*d2*d6 + 13929341985*d3*d5 + 38717666037*d4^2 + 1512796014*d8"
         " - 4083435180*d2^3*d3 + 105697710*d2^2*d5 + 7924985973*d2*d3*d4 - 105697710*d2*d7"
         " + 1809891216*d3^3 - 725968089*d3*d6 - 241884387*d4*d5 + 31118823*d9 + 59049*d10"),
}


def test_psi_on_dk_uses_the_reducer_nki(theta30):
    """psi on d_k reads the n_k^i from the reducer that defines the d_k, so
    the extended-gcd choice, not the auto one, gives both levels at k = 6, 8
    and 10, where the two choices differ."""
    red = DReducer(10, gen_2structure_relations(10), nki_mode="extended-gcd")
    for k, (base, thom) in EXTENDED_GCD_PSI_DK.items():
        assert str(thom_psi_dk(k, theta_unit(10), red)) == base, k
        assert str(thom_psi_dk(k, theta30, red)) == thom, k


def test_bott_correction_structure(reducer10, thom_table10):
    """Thom level minus base level is exactly the (m,n) != (0,0) part of the
    cannibalistic pairing; for d4 that is 6d2 + 2/9 - 1/9 = 6d2 + 1/9."""
    base = thom_psi_dk(4, theta_unit(10), reducer10)
    corr = poly_sub(thom_table10[4], base)
    assert corr == DPoly({(2,): 6, (): Fraction(1, 9)})


THOM_CASES = ([(W, mode) for mode in ("auto", "extended-gcd") for W in range(2, 15)]
              + [(W, "paper") for W in range(2, 11)])


@pytest.mark.parametrize("W, mode", THOM_CASES)
def test_thom_psi_dk_equals_fraction_sum(W, mode):
    """The integer Thom sum and reduction give the cell-by-cell Fraction sum,
    reduced term by term on Fractions, for every d_k the reducer reaches;
    the reference also takes its theta from the bivariate division."""
    red = DReducer(W, nki_mode=mode)
    theta, ref_theta = theta3_direct(W), theta3_bivariate(W)
    for k in range(2, W + 1):
        got = thom_psi_dk(k, theta, red)
        assert all(type(c) is Fraction for c in got.terms.values())
        assert got == thom_psi_dk_by_fractions(k, ref_theta, red), k
    with pytest.raises(NotReducible):
        thom_psi_dk(W + 1, theta3_direct(W + 1), red)


@pytest.mark.parametrize("W", range(2, 9))
def test_thom_psi_dk_on_the_relation_solve(W):
    red = DReducer(W, gen_2structure_relations(W))
    theta = theta3_direct(W)
    for k in range(2, W + 1):
        assert thom_psi_dk(k, theta, red) == thom_psi_dk_by_fractions(k, theta, red), k


@pytest.mark.parametrize("mode", ["auto", "extended-gcd"])
@pytest.mark.parametrize("k_adams", [3, 5, 7])
def test_thom_psi_dk_at_the_unit_class_is_the_base_sum(mode, k_adams):
    """At theta = 1 the Thom sum has the (0,0) cell only, so it is the
    base-level sum of psi f_*(beta_i (x) beta_{k-i}) over the n_k^i, for every
    d_k the reducer reaches and any odd Adams index."""
    red = DReducer(14, nki_mode=mode)
    one = theta_unit(14)
    for k in range(2, 15):
        assert thom_psi_dk(k, one, red, k_adams) == psi_on_dk_by_apoly(k, red, k_adams), k


@settings(max_examples=40, deadline=None)
@given(k_adams=st.sampled_from((1, 3, 5, 7, 9)), k=st.integers(2, 8))
def test_thom_psi_dk_at_the_unit_class_for_odd_k_adams(reducer8, k_adams, k):
    assert (thom_psi_dk(k, theta_unit(8), reducer8, k_adams)
            == psi_on_dk_by_apoly(k, reducer8, k_adams))
