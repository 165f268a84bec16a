import hashlib
import json

import pytest

from fglab import cli
from fglab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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


def test_usage_error_exit_2(capsys):
    code, _, _ = run(capsys, "chern", "system", "--dim", "4", "--format", "yaml")
    assert code == 2
    code, _, err = run(capsys, "chern", "todd", "--inputs", "1,2,3")
    assert code == 2
    assert "usage error" in err


def test_computation_error_exit_1(capsys):
    code, _, err = run(capsys, "fgl", "cpn", "--n", "7", "--mode", "paper-box")
    assert code == 1
    assert "computation error" in err


def test_out_file(tmp_path, capsys):
    target = tmp_path / "t.csv"
    code, out, _ = run(capsys, "cannibal", "tseq", "--n", "6", "--format", "csv",
                       "--out", str(target))
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


@pytest.mark.parametrize("argv", [
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
])
def test_invalid_argument_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error") and "Traceback" not in err


@pytest.mark.parametrize("expr", [
    "CP2CP3", "CP2 CP2", "CP2^2CP1", "N CP2", "CP1^0", "CP1^0xCP3", "CP2xCP1^00",
])
def test_bordism_expr_outside_the_grammar_is_usage_error(capsys, expr):
    """Factors need an x between them, and an exponent is at least 1."""
    code, out, err = run(capsys, "fgl", "miscenko", "--expr", expr)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error") and "Traceback" not in err


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
                          "errors (see notes/decisions.md), so a faithful recomputation "
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
    def boom(args, cfg, out):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli.DISPATCH, "series", boom)
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
