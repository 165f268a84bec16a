import ast
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

import fglab
from fglab import cli
from fglab.cli import main
from fglab.errors import NotInDomain
from helpers import bounded_flags


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def most(command, action, flag):
    """The most value of ``flag`` at ``command action`` in cli.COMMANDS."""
    high = cli.COMMANDS[command][2][flag][2]
    return high.get(action) if isinstance(high, dict) else high


def test_adams_beta_example(capsys):
    code, out, _ = run(capsys, "adams", "beta", "--k", "3", "--i", "3")
    assert code == 0
    assert "b1 - 18 b2 + 27 b3" in out


def test_chern_system_csv(capsys):
    code, out, _ = run(capsys, "chern", "system", "--dim", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "constraint,CP4,CP1xCP3,CP2^2,CP1^4,CP1^2xCP2"
    assert lines[1] == "c1^4,625,512,486,384,432"
    assert lines[2] == "c1*c3,50,56,54,64,60"
    assert lines[3] == "c1^2*c2,250,224,216,192,204"


def test_deterministic_output(capsys):
    a = run(capsys, "fgl", "twist", "--bound", "5", "--format", "json")
    b = run(capsys, "fgl", "twist", "--bound", "5", "--format", "json")
    assert a == b
    json.loads(a[1])


def test_fgl_twist_reads_no_b_at_or_above_the_bound(capsys):
    """No b_i with i >= --bound reaches the law, so --nb 4, 10 and 23 print
    one table at --bound 5; with --nb 0, g(t) = t and the law is x + y + vxy
    itself: a11 = v and nothing else."""
    outs = {nb: run(capsys, "fgl", "twist", "--bound", "5", "--nb", str(nb), "--format", "csv")
            for nb in (0, 4, 10, 23)}
    assert outs[4] == outs[10] == outs[23] and outs[4][0] == 0 and "b4" in outs[4][1]
    assert outs[0] == (0, "coefficient,image\na11,v\n", "")


def test_usage_error_exit_2(capsys):
    code, _, _ = run(capsys, "chern", "system", "--dim", "4", "--format", "yaml")
    assert code == 2
    code, _, err = run(capsys, "chern", "todd", "--inputs", "1,2,3")
    assert code == 2
    assert "usage error" in err


def test_computation_error_exit_1(capsys, monkeypatch):
    # the CLI refuses a --precision too low for i! as a usage error, so the
    # library's own PrecisionTooLow is reached through a dilate that divides
    # by 40!, a multiple of 2^38, at 16 bits
    from fglab import mahler
    from fglab.mahler import Padic2
    monkeypatch.setattr(mahler, "dilate", lambda k, i: Padic2(1, 16).div_int(factorial(40)))
    code, _, err = run(capsys, "mahler", "dilate", "--padic", "3")
    assert code == 1
    assert err == "computation error: cannot divide by 2^38 at precision 16\n"


OUT_FILE = ("cannibal", "tseq", "--n", "6", "--format", "csv", "--out")  # the file name follows


def test_out_file(tmp_path, capsys):
    target = tmp_path / "t.csv"
    code, out, _ = run(capsys, *OUT_FILE, str(target))
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert text.splitlines()[0] == "k,recurrence,closed_form"
    assert "6,-1/81,-1/81" in text


def test_out_to_unwritable_path_is_usage_error(tmp_path, capsys):
    code, out, err = run(capsys, "cannibal", "tseq", "--out", str(tmp_path / "missing" / "x"))
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: cannot write") and "Traceback" not in err


# each exits 2 with a one-line usage error and prints nothing
INVALID_ARGUMENTS = [
    ("adams", "beta", "--k", "0"),
    ("adams", "beta", "--i", "-1"),
    ("adams", "beta-table", "--imax", "-1"),
    ("cannibal", "tseq", "--n", "-3"),
    ("mahler", "matrix", "--imax", "-1"),
    ("fgl", "miscenko", "--expr", "CP4+"),
    ("fgl", "miscenko", "--expr", "CP4-"),
    ("fgl", "miscenko", "--expr", "CP1^x"),
    ("fgl", "miscenko", "--expr", "CP1^-1"),
    ("fgl", "miscenko", "--expr", "K3SQxCP2"),
    ("chern", "todd", "--inputs", "1,2,3,4,x"),
    ("chern", "todd", "--inputs", "1/0,1,1,1,1"),
    ("chern", "todd", "--inputs", "1,2,3,4,1e5000"),
    ("chern", "todd", "--inputs", "1,2,3,4,1e20000000"),
    ("adams", "spherical", "--max-weight", "0"),
    ("fgl", "twist", "--nb", "-1"),
    ("cannibal", "closed", "--m", "-1"),
    ("cannibal", "closed", "--n", "-1"),
    ("series", "invert", "--order", "-1"),
    ("series", "invert", "--order", "0"),
    ("series", "residue", "--order", "0"),
    ("adams", "relations", "--degree", "0"),
    ("adams", "relations", "--degree", "-2"),
    ("fgl", "cpn", "--n", "0"),
    ("fgl", "twist", "--bound", "0"),
    ("cannibal", "table", "--bound", "-1"),
    ("adams", "psi-dk", "--k", "12", "--nki", "paper"),
    ("adams", "spherical", "--max-weight", "22", "--nki", "paper"),
    ("adams", "nki", "--k", "11", "--nki", "paper"),
    ("chern", "system", "--dim", "-1"),
    ("chern", "reduce", "--dim", "-1"),
    ("chern", "nullspace", "--dim", "-1"),
    ("chern", "nullspace", "--dim", "0"),
    ("fgl", "cpn", "--n", "5"),
    ("fgl", "miscenko", "--expr", "CP5"),
    ("mahler", "dilate", "--padic", "2"),
    ("mahler", "dilate", "--padic", "0"),
    ("artin-schreier", "--u", "2"),
    ("fgl", "miscenko", "--expr", ""),
    ("adams", "relations", "--degree", "3"),
    ("adams", "beta", "--k", "5", "--i", "7", "--imax", "2"),
    ("adams", "nki", "--imax", "10"),
    ("adams", "psi-dk", "--k", "7", "--max-weight", "30"),
    ("adams", "beta", "--degree", "5", "--level", "thom"),
    ("mahler", "dilate", "--imax", "3"),
    ("chern", "total", "--dim", "6"),
    ("fgl", "twist", "--bound", "4", "--nb", "2", "--expr", "CP2"),
    ("fgl", "miscenko", "--expr", "CP2 - +CP2"),
    ("fgl", "miscenko", "--expr=--CP1"),  # a value that starts with - is read only after =
    ("fgl", "miscenko", "--expr", "CP1xxCP2"),
    ("fgl", "miscenko", "--expr", "CP1 x x CP2"),
    ("fgl", "twist", "--k", "3"),
    ("reproduce-paper", "--format", "csv"),
    ("chern", "total", "--level", "thom"),
    ("adams",),
    ("adams", "bogus"),
    ("reproduce-paper", "extra"),
    # the reader's own errors: a value outside the choices, a value of the wrong
    # type, an unknown flag and an unknown command
    ("chern", "system", "--format", "yaml"),
    ("fgl", "twist", "--bound", "x"),
    ("adams", "beta", "--bogus", "1"),
    ("bogus",),
    # no value, a value given to a flag that takes none, an ambiguous prefix,
    # a value that reads as a flag, no command and a third word
    ("fgl", "twist", "--bound"),
    ("adams", "beta", "--mod2=1"),
    ("adams", "spherical", "--mo", "3"),
    ("fgl", "miscenko", "--expr", "-CP1"),
    (),
    ("adams", "beta", "extra"),
]


@pytest.mark.parametrize("argv", INVALID_ARGUMENTS)
def test_invalid_argument_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error") and "Traceback" not in err


@pytest.mark.parametrize("argv, flag", [
    (("chern", "system", "--dim", "0"), "--dim"),
    (("fgl", "cpn", "--n", "5"), "--n"),
    (("fgl", "miscenko", "--expr", "CP1xCP5"), "--expr"),
    (("mahler", "dilate", "--padic", "2"), "--padic"),
    (("artin-schreier", "--u", "2"), "--u"),
    (("mahler", "dilate", "--precision", "8"), "--precision"),
    (("artin-schreier", "--precision", "8"), "--precision"),
    (("adams", "beta", "--k", "5", "--i", "7", "--imax", "2"), "--imax"),
    (("adams", "psi-dk", "--k", "7", "--max-weight", "30"), "--max-weight"),
    (("adams", "beta", "--degree", "5", "--level", "thom"), "--degree"),
    (("mahler", "dilate", "--imax", "3"), "--imax"),
    (("chern", "total", "--dim", "6"), "--dim"),
    (("fgl", "twist", "--bound", "4", "--nb", "2", "--expr", "CP2"), "--expr"),
    (("mahler", "dilate", "--padic", "5", "--i", "3", "--k", "7"), "--k"),
    (("mahler", "dilate", "--i", "3", "--precision", "20"), "--precision"),
    (("fgl", "miscenko", "--expr", "CP1^" + "9" * 5000), "--expr"),
    (("fgl", "miscenko", "--expr", "9" * 5000 + "*CP2"), "--expr"),
    (("fgl", "twist", "--k", "3"), "--k"),
    (("reproduce-paper", "--format", "csv"), "--format"),
    (("chern", "total", "--level", "thom"), "--level"),
    (("adams",), "action"),
    (("adams", "bogus"), "action"),
    (("reproduce-paper", "extra"), "action"),
    (("fgl", "miscenko", "--expr", "CP0"), "--expr"),
    (("fgl", "miscenko", "--expr", "0"), "--expr"),
    (("chern", "total", "--dims", "0"), "--dims"),
    (("chern", "total", "--dims", "1,-2"), "--dims"),
    (("chern", "system", "--format", "yaml"), "--format"),
    (("fgl", "twist", "--bound", "x"), "--bound"),
    (("fgl", "twist", "--bound"), "--bound"),
    (("adams", "beta", "--mod2=1"), "--mod2"),
    (("adams", "spherical", "--mo", "3"), "--mo"),
    (("adams", "beta", "--bogus", "1"), "--bogus"),
    (("bogus",), "command"),
    ((), "command"),
    (("fgl", "miscenko", "--expr", "-CP1"), "--expr"),
    (("adams", "beta", "extra"), "action"),
])
def test_out_of_domain_value_names_its_flag(capsys, argv, flag):
    """Out-of-domain values, rejected by the CLI or by the library's own error
    types, flags the chosen command or action does not read, and flags the
    reader cannot read (of a wrong type or choice, without a value, with a
    value they do not take, unknown or an ambiguous prefix) are reported
    against the flag; a missing, unknown or extra action against ``action``;
    a missing or unknown command against ``command``."""
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith(f"usage error: {flag}")


@pytest.mark.parametrize("expr", ["CP20", "CP1xCP5", "CP2xCP4 - 3*CP6"])
def test_miscenko_rejects_a_paper_box_factor_before_the_twist(capsys, monkeypatch, expr):
    """A factor above the paper-box table is the same usage error, raised
    before the twisted law (whose cost grows with the dimension) is built."""
    def no_twist(*args):
        raise AssertionError("fgl_twist called")

    monkeypatch.setattr("fglab.fgl.fgl_twist", no_twist)
    code, out, err = run(capsys, "fgl", "miscenko", "--expr", expr)
    assert (code, out) == (2, "")
    assert err == "usage error: --expr: paper-box mode tabulates only n <= 4\n"


@pytest.mark.parametrize("argv, flag, terms", [
    (("chern", "total", "--dims", ",".join(["1"] * 30)), "--dims", 2 ** 30),
    (("chern", "total", "--dims", "4096"), "--dims", 4097),
    (("chern", "system", "--dim", "30"), "--dim", 2 ** 30),
    (("chern", "reduce", "--dim", "13"), "--dim", 2 ** 13),
    (("chern", "nullspace", "--dim", "13"), "--dim", 2 ** 13),
])
def test_chern_refuses_more_terms_than_the_cap(capsys, monkeypatch, argv, flag, terms):
    """c(M) has prod (n_i + 1) terms, 2^d at CP^1 x ... x CP^1 for --dim d;
    above cli.MAX_TERMS the command is refused from that count alone,
    before any expansion or basis is built."""
    def unbuilt(*args):
        raise AssertionError("built")

    from fglab import chern, series
    monkeypatch.setattr(chern, "_expansion", unbuilt)
    monkeypatch.setattr(series, "partitions", unbuilt)  # what cli._dim_basis reads
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"usage error: {flag}: c(M) would have {terms} terms, above the cap of 4096\n"


def test_chern_cap_admits_the_largest_inputs_it_allows(capsys):
    """2^12 terms, the cap: CP^63 x CP^63, and CP^1^12, where --dim 12 has
    its largest c(M)."""
    assert cli.MAX_TERMS == 2 ** 12
    for dims in ("63,63", ",".join(["1"] * 12)):
        code, out, err = run(capsys, "chern", "total", "--dims", dims)
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 2 ** 12 + 1


@pytest.mark.parametrize("level", ["base", "thom"])
@pytest.mark.parametrize("action, flag, per_weight", [("psi-dk", "--k", 1),
                                                      ("spherical", "--max-weight", 2)])
def test_adams_refuses_reducers_above_the_weight_cap(capsys, monkeypatch, level, action, flag,
                                                     per_weight):
    """psi-dk --k k builds the reducer through halved weight k, spherical
    --max-weight w through w // 2; above cli.MAX_WEIGHT the command is
    refused with the flag's name before the reducer is built, and at the cap
    it goes on to build it."""
    def unbuilt(*args, **kwargs):
        raise AssertionError("built")

    from fglab import adams
    monkeypatch.setattr(adams, "DReducer", unbuilt)
    cap = cli.MAX_WEIGHT
    assert cap == 29
    code, out, err = run(capsys, "adams", action, flag, str(per_weight * (cap + 1)), "--level", level)
    assert (code, out) == (2, "")
    assert err == f"usage error: {flag}: the reducer through weight {cap + 1} is above the cap of {cap}\n"
    code, out, err = run(capsys, "adams", action, flag, str(per_weight * cap), "--level", level)
    assert (code, out, err) == (1, "", "computation error: AssertionError: built\n")


@pytest.mark.parametrize("level", ["base", "thom"])
def test_adams_spherical_refuses_an_odd_max_weight_before_the_build(capsys, monkeypatch, level):
    """Weights are even: an odd --max-weight is refused with the flag's name
    before the reducer is built, and the even weight below it goes on to
    build it."""
    def unbuilt(*args, **kwargs):
        raise AssertionError("built")

    from fglab import adams
    monkeypatch.setattr(adams, "DReducer", unbuilt)
    for odd in (3, 57):
        code, out, err = run(capsys, "adams", "spherical", "--max-weight", str(odd), "--level", level)
        assert (code, out) == (2, "")
        assert err == f"usage error: --max-weight must be even, got {odd}\n"
    code, out, err = run(capsys, "adams", "spherical", "--max-weight", "56", "--level", level)
    assert (code, out, err) == (1, "", "computation error: AssertionError: built\n")


@pytest.mark.parametrize("action", ["nki", "psi-dk"])
def test_adams_k_below_2_names_the_flag_before_the_build(capsys, monkeypatch, action):
    """n_k^i and psi on d_k start at k = 2, while --k's floor of 1 serves beta
    and beta-table: nki and psi-dk refuse --k 1 with the flag's name before
    any n_k^i or reducer is built, and go on to build at --k 2."""
    def unbuilt(*args, **kwargs):
        raise AssertionError("built")

    from fglab import adams
    monkeypatch.setattr(adams, "DReducer", unbuilt)
    monkeypatch.setattr(adams, "nki_coeffs", unbuilt)
    code, out, err = run(capsys, "adams", action, "--k", "1")
    assert (code, out, err) == (2, "", "usage error: --k must be >= 2, got 1\n")
    code, out, err = run(capsys, "adams", action, "--k", "2")
    assert (code, out, err) == (1, "", "computation error: AssertionError: built\n")


@pytest.mark.parametrize("k", [2, 3, 6, 12])
def test_psi_dk_builds_its_reducer_through_weight_k(capsys, monkeypatch, k):
    """psi on d_k reads the d_j for j <= k only, so adams psi-dk --k k builds
    the reducer through weight k and no further, whatever k."""
    from fglab import adams
    built, real = [], adams.DReducer

    def spy(W, **kwargs):
        built.append(W)
        return real(W, **kwargs)

    monkeypatch.setattr(adams, "DReducer", spy)
    code, _, err = run(capsys, "adams", "psi-dk", "--k", str(k))
    assert (code, err, built) == (0, "", [k])


@pytest.mark.parametrize("level", ["base", "thom"])
@pytest.mark.parametrize("nki", ["paper", "extended-gcd", "auto"])
def test_psi_dk_does_not_depend_on_the_reducer_weight_above_k(level, nki):
    """psi(d_k) from the reducer through weight k equals psi(d_k) from the
    reducer through weight 7, for k = 2..6, at either level and with each
    choice of n_k^i."""
    from fglab.adams import DReducer
    from fglab.cannibal import psi_dk_table
    wide = psi_dk_table(level, DReducer(7, nki_mode=nki), range(2, 7))
    for k in range(2, 7):
        assert psi_dk_table(level, DReducer(k, nki_mode=nki), [k])[k].terms == wide[k].terms, k


@pytest.mark.parametrize("bound, nb, flag, value, limit", [(25, 23, "--bound", 25, 24),
                                                          (24, 24, "--nb", 24, 23)])
def test_fgl_twist_refuses_sizes_above_the_cap(capsys, monkeypatch, bound, nb, flag, value, limit):
    """fgl twist takes --bound up to fgl.MAX_TWIST_BOUND and --nb one below
    it; the first size above either is refused with the flag's name before
    any series is built, and the largest size at the cap goes on to build."""
    def unbuilt(*args):
        raise AssertionError("built")

    from fglab import fgl
    monkeypatch.setattr(fgl, "fgl_twist", unbuilt)
    cap = fgl.MAX_TWIST_BOUND
    assert cap == 24
    code, out, err = run(capsys, "fgl", "twist", "--bound", str(bound), "--nb", str(nb))
    assert (code, out) == (2, "")
    assert err == f"usage error: {flag}: {value} is above the twist cap of {limit}\n"
    code, out, err = run(capsys, "fgl", "twist", "--bound", str(cap), "--nb", str(cap - 1))
    assert (code, out, err) == (1, "", "computation error: AssertionError: built\n")


def test_cannibal_table_refuses_bounds_above_the_cap(capsys, monkeypatch):
    """cannibal table takes --bound up to its most value in cli.COMMANDS; the first
    bound above it is refused with the flag's name before the table is
    built, and the bound at the cap goes on to build."""
    def unbuilt(*args):
        raise AssertionError("built")

    from fglab import cannibal
    monkeypatch.setattr(cannibal, "theta3_direct", unbuilt)
    cap = most("cannibal", "table", "--bound")
    assert cap == 700
    code, out, err = run(capsys, "cannibal", "table", "--bound", str(cap + 1))
    assert (code, out) == (2, "")
    assert err == f"usage error: --bound: {cap + 1} is above the table cap of {cap}\n"
    code, out, err = run(capsys, "cannibal", "table", "--bound", str(cap))
    assert (code, out, err) == (1, "", "computation error: AssertionError: built\n")


@pytest.mark.parametrize("argv, flag, cap", [
    (("cannibal", "closed", "--n", "9012", "--m"), "--m", "MAX_CLOSED_INDEX"),
    (("cannibal", "closed", "--m", "9012", "--n"), "--n", "MAX_CLOSED_INDEX"),
    (("cannibal", "tseq", "--n"), "--n", "MAX_TSEQ_N"),
])
def test_cannibal_closed_and_tseq_refuse_sizes_above_their_caps(capsys, monkeypatch, argv, flag, cap):
    """c_mn has denominator 3^((m + n) // 2), whose 4300 digits at m = n = 9012
    are the most Python prints by default, and tseq prints n + 1 rows of
    growing t_k.  At its cap, its most value in cli.COMMANDS (``cap`` names
    the constant it was), a flag prints; the first value above it is
    refused with the flag's name before anything is computed."""
    from fglab import cannibal
    value = most(*argv[:2], flag)
    assert value == {"MAX_CLOSED_INDEX": 9012, "MAX_TSEQ_N": 4000}[cap]
    code, out, err = run(capsys, *argv, str(value))
    assert (code, err) == (0, "")
    if argv[1] == "closed":
        assert len(out.split()[-1].split("/")[1]) == len(str(3 ** 9012)) == 4300
    else:
        assert len(out.splitlines()) == value + 2

    def unbuilt(*args):
        raise AssertionError("built")

    monkeypatch.setattr(cannibal, "theta3_closed", unbuilt)
    monkeypatch.setattr(cannibal, "ThetaGenSeq", unbuilt)
    code, out, err = run(capsys, *argv, str(value + 1))
    assert (code, out) == (2, "")
    assert err == f"usage error: {flag}: {value + 1} is above the {argv[1]} cap of {value}\n"


@pytest.mark.parametrize("argv, flag, module, cap, value, computes", [
    (("adams", "beta"), "--i", "adams", "MAX_BETA_INDEX", 500, ("psi_inv_beta",)),
    (("adams", "beta-table"), "--imax", "adams", "MAX_BETA_TABLE", 200, ("psi_inv_beta",)),
    (("mahler", "dilate"), "--i", "mahler", "MAX_DILATE_INDEX", 1000, ("dilate",)),
    (("mahler", "matrix"), "--imax", "mahler", "MAX_MATRIX_INDEX", 200, ("dilation_matrix",)),
    (("mahler", "vs-adams"), "--imax", "mahler", "MAX_VS_ADAMS_INDEX", 100, ("dilation_vs_adams",)),
    (("series", "invert"), "--order", "series", "MAX_INVERT_ORDER", 24, ()),
    (("series", "residue"), "--order", "series", "MAX_RESIDUE_ORDER", 16, ()),
    (("adams", "beta", "--i", "500"), "--k", "adams", "MAX_BETA_K", 10, ("psi_inv_beta",)),
    (("adams", "beta-table", "--imax", "200"), "--k", "adams", "MAX_BETA_K", 10, ("psi_inv_beta",)),
    (("mahler", "dilate", "--i", "1000"), "--k", "mahler", "MAX_DILATION_K", 10000, ("dilate",)),
    (("mahler", "matrix", "--imax", "200"), "--k", "mahler", "MAX_DILATION_K", 10000,
     ("dilation_matrix",)),
    (("mahler", "dilate", "--padic", "3", "--i", "1000"), "--precision", "mahler", "MAX_PRECISION", 5000,
     ("dilate",)),
    (("fgl", "cpn", "--mode", "residue-exact"), "--n", "bordism", "MAX_CPN_N", 40, ("cpn_in_a",)),
    (("adams", "relations"), "--degree", "adams", "MAX_RELATIONS_DEGREE", 28, ("gen_2structure_relations",)),
    (("adams", "nki"), "--k", "adams", "MAX_NKI_K", 4096, ("nki_coeffs",)),
])
def test_size_flags_refuse_values_above_their_caps(capsys, monkeypatch, argv, flag, module, cap,
                                                   value, computes):
    """Each index or order flag has its cap as its most value in
    cli.COMMANDS (``cap`` is the name it had as a constant of ``module``,
    kept as a label of the case): at the cap the command goes on to compute,
    and the first value above it is refused with the flag's name before
    anything is computed.  The computation is replaced by a stub, so the
    at-cap run costs nothing."""
    import importlib
    from fglab import fgl

    def unbuilt(*args):
        raise AssertionError("built")

    mod = importlib.import_module(f"fglab.{module}")
    assert most(*argv[:2], flag) == value, cap
    for name in computes:
        monkeypatch.setattr(mod, name, unbuilt)
    monkeypatch.setattr(fgl, "generic_strict_series", unbuilt)  # the series actions' first step
    code, out, err = run(capsys, *argv, flag, str(value + 1))
    assert (code, out) == (2, "")
    assert err == f"usage error: {flag}: {value + 1} is above the {argv[1]} cap of {value}\n"
    code, out, err = run(capsys, *argv, flag, str(value))
    assert (code, out, err) == (1, "", "computation error: AssertionError: built\n")


@pytest.mark.parametrize("given, i, precision", [((), 65, 64), (("--precision", "16"), 17, 16)])
def test_dilate_padic_precision_must_exceed_v2_of_i_factorial(capsys, monkeypatch, given, i, precision):
    """C(kT, i) divides by i!, whose 2-adic valuation is i - popcount(i): 63 at
    --i 65 and 64 at --i 66, 15 at --i 17 and 16 at --i 18.  Below the
    precision the dilation runs; at it, --precision is refused before it runs."""
    from fglab import mahler
    argv = ("mahler", "dilate", "--padic", "3", *given, "--i")
    code, out, err = run(capsys, *argv, str(i))
    assert (code, err) == (0, "") and out.startswith("dilation")

    def unbuilt(*args):
        raise AssertionError("built")

    monkeypatch.setattr(mahler, "dilate", unbuilt)
    code, out, err = run(capsys, *argv, str(i + 1))
    assert (code, out) == (2, "")
    assert err == (f"usage error: --precision must be > {precision} to divide by {i + 1}!, "
                   f"a multiple of 2^{precision}, got {precision}\n")


def test_precision_and_dilation_k_caps(capsys, monkeypatch):
    """artin-schreier shares its --precision range with mahler dilate --padic,
    and the integer --k of mahler dilate and matrix is refused below -10000
    as well as above 10000, before anything is computed."""
    from fglab import mahler
    assert cli.COMMANDS["artin-schreier"][2]["--precision"][1:3] == (16, 5000)
    assert cli.COMMANDS["mahler"][2]["--precision"][1:3] == (16, 5000)

    def unbuilt(*args):
        raise AssertionError("built")

    for name in ("artin_schreier_check", "dilate", "dilation_matrix"):
        monkeypatch.setattr(mahler, name, unbuilt)
    code, out, err = run(capsys, "artin-schreier", "--precision", "5001")
    assert (code, out, err) == (2, "", "usage error: --precision: 5001 is above the artin-schreier cap of 5000\n")
    code, out, err = run(capsys, "artin-schreier", "--precision", "5000")
    assert (code, out, err) == (1, "", "computation error: AssertionError: built\n")
    for action in ("dilate", "matrix"):
        code, out, err = run(capsys, "mahler", action, "--k", "-10001")
        assert (code, out, err) == (2, "", "usage error: --k must be >= -10000, got -10001\n")
        code, out, err = run(capsys, "mahler", action, "--k", "-10000")
        assert (code, out, err) == (1, "", "computation error: AssertionError: built\n")


BOUNDED = bounded_flags()


@pytest.mark.parametrize("command, action, flag, low, high", BOUNDED,
                         ids=[" ".join(filter(None, case[:3])) for case in BOUNDED])
def test_every_bounded_flag_is_checked_at_both_ends_before_its_handler(capsys, monkeypatch, command,
                                                                      action, flag, low, high):
    """Generated from cli.COMMANDS: for each command, action and flag with a
    least or most value, one below the least and one above the most exit 2
    with the flag's name and no output, and the least and most themselves
    pass the range check.  The command's handler is a stub, so every
    refusal comes before any handler runs."""
    def unbuilt(args, out):
        raise AssertionError("built")

    monkeypatch.setitem(cli.COMMANDS, command, (*cli.COMMANDS[command][:3], unbuilt))
    argv = (command, action) if action else (command,)
    if low is not None:
        code, out, err = run(capsys, *argv, flag, str(low - 1))
        assert (code, out, err) == (2, "", f"usage error: {flag} must be >= {low}, got {low - 1}\n")
    if high is not None:
        code, out, err = run(capsys, *argv, flag, str(high + 1))
        assert (code, out, err) == (2, "", f"usage error: {flag}: {high + 1} is above the "
                                           f"{action or command} cap of {high}\n")
    for value in (low, high):
        if value is not None:
            code, out, err = run(capsys, *argv, flag, str(value))
            assert (code, out, err) == (1, "", "computation error: AssertionError: built\n")


@pytest.mark.parametrize("expr, dim", [("CP1^999999999999", 999999999999),
                                       ("CP2xCP1^100000000000 - CP3", 100000000002)])
def test_miscenko_refuses_a_huge_exponent_before_expanding_it(capsys, expr, dim):
    """A product's dimension, sum n*k over its factors CPn^k, is checked
    against the twist cap before the k factors are spelled out, so a
    12-digit exponent is refused at once."""
    code, out, err = run(capsys, "fgl", "miscenko", "--expr", expr, "--mode", "residue-exact")
    assert (code, out) == (2, "")
    assert err == (f"usage error: --expr: dimension {dim} needs the twist at bound {dim + 2}, "
                   "above the twist cap of 24\n")


def test_bordism_expr_numbers_have_at_most_max_digits():
    """A weight, dimension or exponent of more than series.MAX_DIGITS digits
    is NotInDomain, raised before Python's limit on converting long digit
    strings to int would raise a ValueError; MAX_DIGITS digits are read."""
    from fglab import bordism, series
    assert series.MAX_DIGITS == 100
    assert bordism.BordismExpr.parse("9" * 100 + "*CP1").terms == {(1,): Fraction(10 ** 100 - 1)}
    with pytest.raises(NotInDomain, match="number of 101 digits"):
        bordism.BordismExpr.parse("CP1 - " + "9" * 101 + "*CP1")


@pytest.mark.parametrize("inputs", ["1,2,3,4,1e5000", "1,2,3,4,1E2", "1,2,3,4,1e20000000",
                                    "1,2,3,4," + "9" * 101, "1/" + "9" * 100 + ",2,3,4,5"])
def test_todd_refuses_exponents_and_long_numbers_before_any_fraction(capsys, monkeypatch, inputs):
    """chern todd reads an --inputs entry only if it has no exponent and at
    most series.MAX_DIGITS digits, so no value it takes outgrows what Python
    prints; any other entry is refused, naming --inputs, before a Fraction is
    built.  An entry of MAX_DIGITS digits is read."""
    code, out, err = run(capsys, "chern", "todd", "--inputs", "1,2,3,4," + "9" * 100)
    assert (code, err) == (0, "")

    def unbuilt(*args):
        raise AssertionError("built")

    monkeypatch.setattr("fractions.Fraction", unbuilt)  # what cmd_chern imports for todd
    code, out, err = run(capsys, "chern", "todd", "--inputs", inputs)
    assert (code, out) == (2, "")
    assert err.startswith("usage error: --inputs expects comma-separated rationals of at most 100 digits")


@pytest.mark.parametrize("expr, mode", [("CP23", "residue-exact"), ("CP1^23", "paper-box")])
def test_miscenko_refuses_dimensions_above_the_twist_cap(capsys, monkeypatch, expr, mode):
    """fgl miscenko twists at bound dimension + 2 with one b-symbol per
    dimension, so an --expr of dimension above fgl.MAX_TWIST_BOUND - 2 is
    refused before any series is built, in either mode; dimension 22 goes on
    to build."""
    def unbuilt(*args):
        raise AssertionError("built")

    from fglab import fgl
    monkeypatch.setattr(fgl, "fgl_twist", unbuilt)
    code, out, err = run(capsys, "fgl", "miscenko", "--expr", expr, "--mode", mode)
    assert (code, out) == (2, "")
    assert err == ("usage error: --expr: dimension 23 needs the twist at bound 25, "
                   "above the twist cap of 24\n")
    code, out, err = run(capsys, "fgl", "miscenko", "--expr", expr.replace("23", "22"), "--mode", mode)
    assert (code, out, err) == (1, "", "computation error: AssertionError: built\n")


def test_miscenko_of_a_cancelling_expression(capsys):
    code, out, err = run(capsys, "fgl", "miscenko", "--expr", "CP1 - CP1")
    assert (code, err) == (0, "")
    assert out.split() == ["expression", "mode", "image", "CP1", "-", "CP1", "paper-box", "0"]


@pytest.mark.parametrize("argv", [
    ("reproduce-paper", "--format", "json"),
    ("adams", "relations", "--bound", "5"),
    ("chern", "total", "--precision", "8"),
    ("series", "invert", "--nki", "paper"),
    ("fgl", "twist", "--precision", "20"),
    ("cannibal", "tseq", "--mode", "residue-exact"),
])
def test_flag_of_another_subcommand_is_rejected(capsys, argv):
    """Each subcommand takes only the flags it reads; any other is a usage
    error that names it, never silently ignored."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"usage error: {argv[-2]} is not read by {argv[0]}\n"


@pytest.mark.parametrize("argv", [
    ("adams", "--level", "thom", "--k", "12", "psi-dk", "--nki", "auto"),
    ("--level", "thom", "--k", "12", "--nki", "auto", "adams", "psi-dk"),
    ("--lev=thom", "adams", "--k=12", "--level", "base", "psi-dk", "--nki", "auto", "--level", "thom"),
    ("--level", "thom", "--k", "12", "--nki", "auto", "--", "adams", "psi-dk"),
])
def test_flags_may_come_before_the_action(capsys, argv):
    """The reader takes the flags wherever they stand, before the action or
    before the command, by a unique prefix, with the value after =, the last
    of a repeated flag, and the command and action after --: the psi_dk
    workload prints the same bytes."""
    want = run(capsys, "adams", "psi-dk", "--level", "thom", "--k", "12", "--nki", "auto")
    assert want[0] == 0
    assert run(capsys, *argv) == want


def test_help_names_every_command_action_and_flag(capsys):
    """--help names every command, action and flag, and each least and most
    value of a flag beside it."""
    code, out, err = run(capsys, "--help")
    assert (code, err) == (0, "")
    for argv in (("-h",), ("adams", "--k", "3", "--he"), ("-h", "--bogus=1")):
        assert run(capsys, *argv) == (0, out, ""), argv  # anywhere, by prefix too
    words = set(out.replace("|", " ").replace(",", " ").replace(":", " ").split())
    for command, (_, actions, flags, _) in cli.COMMANDS.items():
        assert {command, *actions.split(), *flags} <= words, command
    reads = {}  # (flag, command) -> what help says the command reads of the flag
    for part in re.split(r" (?=--[a-z])", " ".join(out.split()).replace("- ", "-")):
        flag, _, text = part.partition(" ")
        for piece in text.split("; "):
            commands, _, what = piece.partition(": ")
            reads.update(((flag, command), what) for command in commands.split())
    for command, action, flag, low, high in BOUNDED:
        for word, value in (("at least", low), ("at most", high)):
            if value is not None:
                # a value kept by action names it: "at most 4096 for nki"
                named = rf" for [\w -]*?(?<![\w-]){action}(?![\w-])"
                assert re.search(rf"{word} {value}(,|$|{named})", reads[flag, command]), \
                    (command, action, flag, word)


def test_each_flag_has_one_type_choices_and_action():
    """A flag is named, and its value read, before the command is known, so
    every command that reads a flag gives it the same type, choices and
    action; only the default and the least and most values are the
    command's own.  A store_true flag takes no value, so it has no type and
    no choices, and it defaults to False."""
    kinds = {}
    for _, _, flags, _ in cli.COMMANDS.values():
        for flag, (*_, opts) in flags.items():
            assert set(opts) <= {"type", "choices", "action", "default"}, flag
            kind = (opts.get("type"), opts.get("choices"), opts.get("action"))
            assert kinds.setdefault(flag, kind) == kind, flag
            if opts.get("action") is not None:
                assert (kind, opts["default"]) == ((None, None, "store_true"), False), flag


COMMAND_ACTIONS = [(command, action) for command, (_, actions, _, _) in cli.COMMANDS.items()
                   for action in actions.split() or [None]]
# text values that are read as the next argument too: none starts with -
# unless it holds a space or is a negative number
TEXT = st.text(alphabet="aK3N/*+ ,.=x", max_size=12) | st.sampled_from(["-1/4*K3SQ + 12*N", "-3", "-.5"])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_reader_reads_any_order_and_spelling_alike(data):
    """For any command and action, any subset of the flags it reads at values
    in range, in any order around the command and the action, each value as
    --f v or --f=v, read_argv returns each given flag's value converted,
    every other flag of the command at its default, and the given flags."""
    command, action = data.draw(st.sampled_from(COMMAND_ACTIONS))
    own = cli.COMMANDS[command][2]
    chosen = data.draw(st.lists(st.sampled_from([f for f, (readers, *_) in own.items()
                                                 if not readers or action in readers.split()]),
                                unique=True))
    groups, want = [], {}
    for flag in chosen:
        _, low, high, opts = own[flag]
        low, high = (b.get(action) if isinstance(b, dict) else b for b in (low, high))
        if opts.get("action") == "store_true":
            groups.append([flag])
            want[flag] = True
            continue
        if "choices" in opts:
            value = data.draw(st.sampled_from(opts["choices"]))
        elif opts.get("type") is int:
            value = data.draw(st.integers(-10 ** 6 if low is None else low,
                                          10 ** 6 if high is None else high))
        else:
            value = data.draw(TEXT)
        want[flag] = value
        groups.append([f"{flag}={value}"] if data.draw(st.booleans()) else [flag, str(value)])
    words = [[command], *([[action]] if action else [])]
    order = data.draw(st.permutations(range(len(groups) + len(words))))
    at = [i for i in order if i >= len(groups)]  # where the command and action go, in order
    argv = [token for i in order for token in (words[at.index(i)] if i in at else groups[i])]
    args = cli.read_argv(argv)
    assert (args.command, args.action, args.given) == (command, action, set(chosen)), argv
    for flag, (*_, opts) in own.items():
        assert getattr(args, flag[2:].replace("-", "_")) == want.get(flag, opts.get("default")), (argv, flag)


@pytest.mark.parametrize("expr", [
    "CP2CP3", "CP2 CP2", "CP2^2CP1", "N CP2", "CP1^0", "CP1^0xCP3", "CP2xCP1^00",
])
def test_bordism_expr_outside_the_grammar_is_usage_error(capsys, expr):
    """Factors need an x between them, and an exponent is at least 1."""
    code, out, err = run(capsys, "fgl", "miscenko", "--expr", expr)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: --expr: ") and "Traceback" not in err


def test_mahler_negative_k(capsys):
    code, out, _ = run(capsys, "mahler", "dilate", "--k", "-3", "--i", "3")
    assert code == 0
    assert "-27*C(T,3) - 36*C(T,2) - 10*C(T,1)" in out
    code, out, _ = run(capsys, "mahler", "matrix", "--k", "-3", "--imax", "3")
    assert code == 0
    assert out.splitlines()[-1].split() == ["3", "0", "-10", "-36", "-27"]


def test_mahler_matrix_csv(capsys):
    code, out, _ = run(capsys, "mahler", "matrix", "--k", "3", "--imax", "4",
                       "--format", "csv")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[4] == "3,0,1,18,27,0"


def test_artin_schreier_cli(capsys):
    code, out, _ = run(capsys, "artin-schreier", "--u", "17", "--precision", "48")
    assert code == 0
    assert "verified" in out and "true" in out


def test_bordism_cli(capsys):
    code, out, _ = run(capsys, "fgl", "miscenko", "--expr", "N", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["mode"] == "paper-box"
    assert "-40*b4" in payload[0]["image"]


def test_reproduce_paper_exit_and_known_diffs(capsys):
    code, out, _ = run(capsys, "reproduce-paper", "--verbose")
    assert code == 3
    assert "all are documented paper transcription errors" in out
    # the five tables with documented misprints, and only those, diff
    diff_tables = [ln.split("]")[0][1:] for ln in out.splitlines() if "DIFF" in ln]
    assert sorted(diff_tables) == ["miscenko", "psi_dk_base", "psi_dk_thom",
                                   "relations", "twist_images"]
    for ln in out.splitlines():
        if "DIFF" in ln:
            assert "all documented transcription errors" in ln
    match_tables = [ln.split("]")[0][1:] for ln in out.splitlines() if ": MATCH" in ln]
    assert len(match_tables) == 13


@pytest.mark.xfail(strict=True,
                   reason="the source publication contains 21 documented transcription "
                          "errors (see README's Known source errata), so a faithful recomputation "
                          "can never match every printed table; reproduce-paper exits 3 "
                          "with each discrepancy itemized")
def test_reproduce_paper_fully_matches(capsys):
    code, out, _ = run(capsys, "reproduce-paper")
    assert code == 0
    assert "all tables match" in out


def test_zero_denominator_is_usage_error(capsys):
    code, _, err = run(capsys, "fgl", "miscenko", "--expr", "1/0*CP4")
    assert code == 2
    assert err.startswith("usage error") and "Traceback" not in err


def test_non_integer_dims_is_usage_error(capsys):
    code, _, err = run(capsys, "chern", "total", "--dims", "a")
    assert code == 2
    assert err.startswith("usage error") and "Traceback" not in err


def test_unexpected_exception_is_one_line_computation_error(capsys, monkeypatch):
    def boom(args, out):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli.COMMANDS, "series", (*cli.COMMANDS["series"][:3], boom))
    code, _, err = run(capsys, "series", "invert")
    assert code == 1
    assert err == "computation error: RuntimeError: boom\n"


def test_nki_defaults_to_auto(capsys):
    argv = ("adams", "spherical", "--level", "thom", "--max-weight", "22")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert (code, out) == run(capsys, *argv, "--nki", "auto")[:2]
    code, out, _ = run(capsys, "adams", "psi-dk", "--k", "11")
    assert code == 0 and out.startswith("generator")


def test_psi_dk_16_matches_pinned_output(capsys):
    """psi^(1/3) d16 at the Thom level, byte for byte as the earlier
    global-echelon reducer printed it."""
    code, out, _ = run(capsys, "adams", "psi-dk", "--level", "thom", "--k", "16", "--nki", "auto")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "069b64fa4896250553fdb57734ea71885ca77da452759cb922b1b7e2f36144c5")


def test_relations_10_match_pinned_output(capsys):
    """The degree-10 relations, byte for byte as printed when both sides of
    the cocycle identity were expanded."""
    code, out, _ = run(capsys, "adams", "relations", "--degree", "10", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "c3e51afc9d54f148c8495e114723ba07a686631d914d6297d1fea1752b4815e6")


@pytest.mark.parametrize("argv, digest", [
    (("chern", "total", "--dims", "2,2,1"),
     "82736d1e41de7192f6ed0e5920dbcf9821c93fb92340de34171cbed6030d32ba"),
    (("chern", "system", "--dim", "6", "--format", "csv"),
     "61de66484228bc48a0c442e2c460ae6fa4e33b4eee62eaff36fba7f0a4aacf7f"),
    (("chern", "nullspace", "--dim", "6"),
     "396dd9043bcbb589debbfd7853b6f2f9c9ae7e5e4ed95d7e36bd05739e459cfd"),
    (("adams", "spherical", "--max-weight", "24"),
     "53f1ca22c3f05b6274a57b3e3366f7056f6403da01bba708317e165a3b2c9f2a"),
])
def test_chern_and_spherical_match_pinned_output(capsys, argv, digest):
    """Byte for byte as printed when Chern classes had their own truncated
    container and mod-2 d-polynomials their own class."""
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# every action at its default flags: (argv, exit code, stdout SHA-256)
DEFAULTS = [
    (("series", "invert"), 0, "ded3249fbe59dfb401963f56795042b9a83ea7d9ef92667bfe75127f2311aa37"),
    (("series", "residue"), 0, "e521e55ffc4d88525f0d38354bd901fa827ec135025179a577902b73156a53cd"),
    (("fgl", "twist"), 0, "e781968381662e34fd2125797fc328c1e86e795f24259f4eed88aa89ab6b6bb4"),
    (("fgl", "cpn"), 0, "1ef4dc2d09bb9fa900d98f9cf2f248387925ccf2789bee3249f7fdb490a9ac6a"),
    (("fgl", "box-diff"), 0, "e889faf7ca1e1b1be32c6f55f69173db3d31a87e74fac4f6812caa95419010a3"),
    (("fgl", "miscenko"), 0, "e4b51b350af948b52d722bfd21f71f61046bef3aa674d9330cd164f1822d3b23"),
    (("chern", "total"), 0, "cc22a2e0867007782189a411cc08a92407de3251c8163ed6cf886ece075c87f4"),
    (("chern", "system"), 0, "0bbc9da39419750dce5c1d3e272bde0c0061002bf9655300805ec8666eba1de9"),
    (("chern", "reduce"), 0, "7feb84db7a9d5e64dd5f37e5e1e90fddf7e09e82068e21da27e01c80ee3cc37b"),
    (("chern", "nullspace"), 0, "2b9594393ec7102bfe5cd105dcd4ea40ff1b298e7c98017c03cba6dc04c333c8"),
    (("chern", "todd"), 0, "fa0510c4c0d0f4ab2e697ea1978e190cf496a5786a9551b504bd614f31365387"),
    (("adams", "beta"), 0, "541154781c1ff4a004e0c1164633b225f17b3aea56c93fb7896f554ef50a10d2"),
    (("adams", "beta-table"), 0, "5d44e9dbb7304a51912b19d02a38702201abb3425301ad43a1395de3660212dd"),
    (("adams", "nki"), 0, "453242c0ac8011d09e10d5169956470738d59ac6cd200ed346704f65c4ed33de"),
    (("adams", "relations"), 0, "d8a088e467e22bc557a9497626bd24f99a92b618c2dcd9fa89f188e52875564e"),
    (("adams", "psi-dk"), 0, "7b8a43ee33083370e6c2c8f51c730d59d517f5978b3b1f330188cf63146715af"),
    (("adams", "spherical"), 0, "a4ca8bb03414d11c521bf0cd6255cb3f51801e6360fc3937d7f91842d6a7293e"),
    (("cannibal", "table"), 0, "106763d75844fbd187cbc145c6afbc885b3aa3305d349c9c51247fd704ae3019"),
    (("cannibal", "closed"), 0, "ca2cd84c15d3d269b1fa5979e4565e8d9f07cb42954262eb8cf41efb36da22fa"),
    (("cannibal", "tseq"), 0, "c30d3e4e8837fe26af12f611e0f1615f4218d7af6fda84b572c7644775a09162"),
    (("mahler", "dilate"), 0, "c66489ff7cc246a0043277db18a17d97fe89b92575eed1ccb8260ae319e48f58"),
    (("mahler", "matrix"), 0, "aa2c0bc76218cb2ea2742e0e868ddce60ae93491b28f5ade7c74f89f1a446faf"),
    (("mahler", "vs-adams"), 0, "8775500c3ac085858883c464b78e9f41e4300b3e766ad5c85f625024b53a747c"),
    (("artin-schreier",), 0, "71336876865d3a579a59d3a3d2a317a781ce122a37529e752f34471ae9bd459f"),
    (("reproduce-paper",), 3, "0e2a52b015bf393255b35d7a67a687a2ab29f721c9df49d56ec397c094051184"),
]


@pytest.mark.parametrize("argv, code, digest", DEFAULTS)
def test_every_action_at_its_defaults_matches_pinned_output(capsys, argv, code, digest):
    """Exit code and stdout of every subcommand action at its default flags,
    byte for byte as printed when all eight subcommands took all six shared
    flags."""
    got, out, _ = run(capsys, *argv)
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# relations, psi on the d_k, the spherical search and the beta rows: (argv, stdout SHA-256)
ADAMS_PIPELINE = [
    (("adams", "relations", "--degree", "12"),
     "5fae36e3fc208a1675260c6ebe38bdd7736523823cada1ba75f5d3d9abe54cb1"),
    (("adams", "psi-dk", "--level", "base", "--k", "10", "--nki", "extended-gcd",
      "--format", "json"),
     "4f7e34e2160efbc67a5f7e68c36d7460c59f6f5b382abf03b03af8c6fbdeb19c"),
    (("adams", "psi-dk", "--level", "thom", "--k", "9", "--nki", "paper", "--format", "csv"),
     "887cf2d2bd2f81eba8b12af194aeebd57c147cde3da0bb94d2cecb0324e7e26e"),
    (("adams", "spherical", "--max-weight", "20", "--nki", "extended-gcd"),
     "84f28baef088a89a7a9de020f0bd949b67c4b98e706c64395f26fba18b8ab908"),
    (("adams", "beta", "--k", "5", "--i", "7"),
     "86559402141fcb41083d9da590b1e8eeb71446b3622e7d87248867505db5234e"),
    (("adams", "beta-table", "--k", "7", "--imax", "12", "--mod2"),
     "730cd7a728ac342bbbddb0e73d61597fe1eff30e467535d9481fcd4379cdc37e"),
]


@pytest.mark.parametrize("argv, digest", ADAMS_PIPELINE)
def test_adams_pipeline_matches_pinned_output(capsys, argv, digest):
    """Relations, psi on the d_k, the spherical search and the beta rows,
    byte for byte as printed when relations were a list of (monomial,
    polynomial) objects and psi of a tensor went through a pair-keyed sum."""
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# csv and json output of every subcommand family: (argv, stdout SHA-256)
FORMAT_BRANCHES = [
    (("series", "invert", "--format", "csv"),
     "e7465a04853e65a0a5189c723e903cdc6348b5835070c410a3ac123d15340fae"),
    (("series", "residue", "--format", "json"),
     "56d6784ada38b5093d1b5d3bcdcc61b8c79c900eb2cfbe00372b381513f4222d"),
    (("fgl", "twist", "--bound", "5", "--nb", "4", "--format", "csv"),
     "8ee27bad0d60ffa4a3f02a876684b21ced4466c4d2d9803ea8bc999e06f641b1"),
    (("fgl", "cpn", "--format", "json"),
     "d242855f184387f3fd645ba668e22b69399114e57512329bc23a3256428e2edc"),
    (("chern", "nullspace", "--format", "json"),
     "5e811edca3c3973082d8b2c7240eeaf77c588bf2d2bc333a29a8d7bf4d93cb6a"),
    (("chern", "todd", "--format", "csv"),
     "5dbc606a60e252b2b9feb563ac75e6bf1261f43334cc9c6f08b6c7141bee492c"),
    (("adams", "beta-table", "--imax", "4", "--format", "csv"),
     "d37786c6954d83b482fe6399b2b839f0cf94f24f2e9c8b81bb9ef828f7206b56"),
    (("adams", "psi-dk", "--level", "thom", "--k", "8", "--format", "json"),
     "9a7fae27969a2070fde2be85e7fbe6b90947a437bede680caa709787a6966e96"),
    (("adams", "spherical", "--max-weight", "12", "--format", "csv"),
     "f0de8491800bf26413c769546597acb8aa1da2e711ec4fc9f090b1283bcadb1b"),
    (("cannibal", "table", "--bound", "4", "--format", "json"),
     "3149f4f9c54586e9ff21f92a5be33e148343a33013df3913e9674d89f484b5f5"),
    (("cannibal", "closed", "--format", "csv"),
     "e2799616331da03e6b5f3136bca0d3727468f9ed8eb3bd03ffa51af6d3dd661a"),
    (("mahler", "dilate", "--format", "json"),
     "0e142078be230d1890b2e1b2c2cbddd6aaaa634b269b7bbc936be4b4d3b8462f"),
    (("mahler", "dilate", "--padic", "5", "--format", "json"),
     "031ce793d4cf48507b1be3216c69277d2ab41af5d6c5c76950265f867fab5102"),
    (("mahler", "vs-adams", "--format", "csv"),
     "e7933587513d0cd760f81cb5c9cb269c1d7719d9ab69403bac76b1084352b0c0"),
    (("artin-schreier", "--format", "csv"),
     "4cfa9016a6a33cd7c85bfea256e48bef967adfe56fe8a1c916230c1e7ca6b5b0"),
]


@pytest.mark.parametrize("argv, digest", FORMAT_BRANCHES)
def test_format_branches_match_pinned_output(capsys, argv, digest):
    """csv and json output of every subcommand family, byte for byte as
    printed when cli.py imported csv and json at module level."""
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Runs one CLI command in this interpreter (none for a bare import) and
# prints its exit code, then every module it loaded beyond a bare start.
FOOTPRINT = """
import contextlib, io, sys
before = set(sys.modules)
from fglab.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:]) if sys.argv[1:] else 0
print(code, *sorted(set(sys.modules) - before))
"""

BASE = {"cli", "errors"}
ENGINE = BASE | {"series"}


@pytest.mark.parametrize("argv, code, allowed", [
    (("fgl", "twist", "--bound", "5", "--nb", "4"), 0, ENGINE | {"fgl"}),
    (("adams", "psi-dk", "--level", "thom", "--k", "5"), 0, ENGINE | {"adams", "cannibal"}),
    (("adams", "spherical", "--level", "thom", "--max-weight", "10"), 0,
     ENGINE | {"adams", "cannibal", "linalg"}),
    (("mahler", "dilate"), 0, ENGINE | {"mahler"}),
    (("artin-schreier",), 0, ENGINE | {"mahler"}),
    (("reproduce-paper",), 3, None),
    (("adams", "spherical", "--max-weight", "10"), 0, ENGINE | {"adams", "cannibal", "linalg"}),
    (("fgl", "miscenko"), 0, ENGINE | {"fgl", "bordism"}),
    ((), 0, BASE),
    (("adams", "psi-dk", "--k", "5"), 0, ENGINE | {"adams", "cannibal"}),
    (("adams", "beta"), 0, ENGINE | {"adams"}),
    (("chern", "total"), 0, ENGINE | {"chern"}),
    (("chern", "system"), 0, ENGINE | {"chern"}),
    (("chern", "reduce"), 0, ENGINE | {"chern"}),
    (("chern", "todd"), 0, ENGINE | {"chern"}),
    (("chern", "nullspace"), 0, ENGINE | {"chern", "linalg"}),
])
def test_command_loads_only_the_modules_it_runs(argv, code, allowed):
    """A fresh interpreter running one command imports only the fglab
    modules that command calls, golden_data only for reproduce-paper, and
    never dataclasses: neither mahler nor bordism for fgl twist, no linalg
    for an adams or chern action that eliminates nothing, and no series
    engine for a bare import of the CLI.  The command line is read off
    cli.COMMANDS, so no argparse, gettext or locale is ever loaded, and a
    bare import loads no fractions or decimal either."""
    env = {**os.environ, "PYTHONPATH": str(Path(fglab.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.stderr == ""
    got, *loaded = proc.stdout.split()
    assert int(got) == code
    ours = {m.removeprefix("fglab.") for m in loaded if m.startswith("fglab.")}
    if allowed is not None:
        assert ours == allowed
    assert ("golden_data" in ours) == (argv[:1] == ("reproduce-paper",))
    assert "dataclasses" not in loaded
    assert not {"argparse", "gettext", "locale"} & set(loaded)
    if not argv:
        assert not {"fractions", "decimal"} & set(loaded)


# Runs each argv of the JSON list on stdin in this interpreter under
# sys.setprofile and prints the exit codes, then (file, first line) of every
# function of fglab called, the import included.
REACH = """
import contextlib, io, json, os, sys
argvs, called = json.load(sys.stdin), set()
sys.setprofile(lambda frame, event, arg: event == "call" and called.add(frame.f_code))
from fglab.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [main(argv) for argv in argvs]
sys.setprofile(None)
root = os.path.dirname(main.__code__.co_filename)
print(json.dumps([codes, sorted({(c.co_filename, c.co_firstlineno) for c in called
                                 if os.path.dirname(c.co_filename) == root})]))
"""

# The functions of fglab that no command runs, each group with its reason.
NOT_RUN_BY_A_COMMAND = {
    "the value types' __eq__/__hash__/__repr__ contract":
        lambda name: name.rpartition(".")[2] in ("__eq__", "__hash__", "__repr__"),
    "an error's constructor runs only when its check fails":
        lambda name: name.startswith("errors.") and name.endswith(".__init__"),
}


def src_functions():
    """{(file, first line): module.qualified.name} for every function fglab
    defines, methods and nested functions too.  A decorated function starts
    at its first decorator, as its code object does."""
    out = {}

    def walk(path, node, prefix):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}{child.name}."
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[str(path), line] = name[:-1]
            walk(path, child, name)

    for path in sorted(Path(fglab.__file__).resolve().parent.glob("*.py")):
        walk(path, ast.parse(path.read_text()), f"{path.stem}.")
    return out


def test_every_function_in_src_is_run_by_a_command(tmp_path):
    """Every function fglab defines is called by some command whose output a
    test above pins, or is excused by name in NOT_RUN_BY_A_COMMAND, so code
    that only tests call lives in tests/helpers.py.  The commands run in a
    fresh interpreter, where no cache filled by an earlier test hides a
    call."""
    argvs = [*(a for a, _, _ in DEFAULTS), *(a for a, _ in ADAMS_PIPELINE + FORMAT_BRANCHES),
             *INVALID_ARGUMENTS, (*OUT_FILE, str(tmp_path / "t.csv")), ("--help",)]
    env = {**os.environ, "PYTHONPATH": str(Path(fglab.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", REACH], input=json.dumps(argvs), env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.stderr == ""
    codes, called = json.loads(proc.stdout)
    assert codes == [c for _, c, _ in DEFAULTS] + [0] * len(ADAMS_PIPELINE + FORMAT_BRANCHES) \
        + [2] * len(INVALID_ARGUMENTS) + [0, 0]
    defined = src_functions()
    names = set(defined.values())
    for reason, excused in NOT_RUN_BY_A_COMMAND.items():
        assert any(map(excused, names)), f"nothing left to excuse: {reason}"
    reached = {defined.get((str(Path(f).resolve()), line)) for f, line in called}
    unreached = sorted(name for name in names - reached
                       if not any(excused(name) for excused in NOT_RUN_BY_A_COMMAND.values()))
    assert unreached == [], "no command runs: " + ", ".join(unreached)
